"""Batch command-line surface: workspace ingestion, law suites, separability
solves with witness persistence, and the report pipelines.

Exit codes: 0 all checks pass, 1 at least one failed or infeasible check,
2 input error (syntax, unresolved reference, unknown command or name, or a
declaration the command references failing its laws).  ``validate`` builds and
validates every declaration; the other commands only what they reference.
Reports are byte-identical across runs for a fixed workspace and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .complexes import ModuleComplex, derived_comparison_check, random_module_complex
from .equivariant import (character_modules, eq_hom_space, equivariant_monad,
                          induce_adjunction, to_equivariant, to_module,
                          validate_action, xi_section)
from .errors import (LawViolationError, MonadNotSeparableError,
                     NotInvertibleError, WorkspaceError)
from .functors import separability_solve, validate_adjunction, validate_functor, validate_nat
from .linalg import Infeasible
from .modules import (MModule, check_equiv_up_to_retracts, essential_preimage,
                      free_module, module_hom_basis)
from .monads import (MonadSepWitness, monad_from_adjunction,
                     monad_separability_solve, sigma_from_xi)
from .reports import ValidationReport
from .workspace import (Workspace, parse_workspace, validate_workspace,
                        witness_to_json)

REPORT_SCHEMA = "sepcat-report/1"


class Checks:
    """Ordered check records for the report."""

    def __init__(self):
        self.records = []

    def add(self, check_id: str, status: str, details: str = "", witness=None):
        self.records.append({"check": check_id, "status": status,
                             "details": details, "witness": witness})

    def merge_report(self, prefix: str, rep: ValidationReport):
        for name, ok, detail in rep.checks:
            self.add(f"{prefix}: {name}", "pass" if ok else "fail", detail)

    @property
    def all_pass(self):
        return all(r["status"] == "pass" for r in self.records)


def _bind_module(monad, module: MModule) -> MModule:
    """Rebind a declared module to a specific monad instance with equal data."""
    return MModule(monad, module.carrier, module.action, name=module.name)


def _sample_modules(ws: Workspace, action_name: str, monad) -> list[MModule]:
    """Free modules on all base objects, characters when enumerable, declared modules."""
    act = ws.action(action_name)
    samples = [free_module(monad, act.base.obj(x)) for x in act.base.objects]
    try:
        samples.extend(character_modules(act, monad=monad))
    except ValueError:
        pass
    for mname in ws.monad_names_for_action(action_name):
        for _, mod in sorted(ws.modules_for_monad_name(mname).items()):
            samples.append(_bind_module(monad, mod))
    seen = set()
    unique = []
    for m in samples:
        key = (m.carrier, m.action)
        if key not in seen:
            seen.add(key)
            unique.append(m)
    return unique


def cmd_validate(ws: Workspace, opts) -> Checks:
    checks = Checks()
    rep = validate_workspace(ws)
    for name, ok, detail in rep.checks:
        checks.add(name, "pass" if ok else "fail", detail)
    for suite_name, entries in ws.check_suites.items():
        for i, entry in enumerate(entries):
            sub = run_entry(ws, entry, opts)
            for r in sub.records:
                checks.add(f"suite {suite_name}[{i}]: {r['check']}", r["status"],
                           r["details"], r["witness"])
    return checks


def cmd_adjunction_check(ws: Workspace, name: str, opts) -> Checks:
    adj = ws.adjunction(name)
    checks = Checks()
    checks.merge_report(f"adjunction {name}: left adjoint", validate_functor(adj.F))
    checks.merge_report(f"adjunction {name}: right adjoint", validate_functor(adj.G))
    checks.merge_report(f"adjunction {name}: unit", validate_nat(adj.unit))
    checks.merge_report(f"adjunction {name}: counit", validate_nat(adj.counit))
    checks.merge_report(f"adjunction {name}", validate_adjunction(adj))
    return checks


def cmd_separability(ws: Workspace, name: str, target: str, opts) -> Checks:
    checks = Checks()
    if target == "functor":
        functor = ws.functor(name)
        result = separability_solve(functor)
    elif target == "monad":
        monad = ws.monad(name)
        result = monad_separability_solve(monad)
    else:
        raise WorkspaceError(f"unknown separability target {target!r}")
    if isinstance(result, Infeasible):
        checks.add(f"separability {name} ({target})", "infeasible",
                   f"rank {result.rank} vs augmented {result.rank_augmented} over "
                   f"{result.n_vars} unknowns; first contradiction in "
                   f"{result.subsystem or 'unlabelled rows'}")
        return checks
    wpath = os.path.join(opts.out, f"{name}.witness.json")
    payload = witness_to_json(name, target, result)
    with open(wpath, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    checks.add(f"separability {name} ({target})", "pass",
               "witness found and re-verified", witness=os.path.basename(wpath))
    return checks


def cmd_em_report(ws: Workspace, name: str, opts) -> Checks:
    checks = Checks()
    adj = ws.adjunction(name)
    meta = ws.adjunction_meta[name]
    checks.merge_report(f"em-report {name}: adjunction", validate_adjunction(adj))
    monad = monad_from_adjunction(adj)
    sigma = monad_separability_solve(monad)
    if isinstance(sigma, Infeasible):
        checks.add(f"em-report {name}: monad separability", "infeasible",
                   f"no σ exists (rank {sigma.rank} vs {sigma.rank_augmented}); "
                   "the comparison cannot be an equivalence up to retracts")
        return checks
    checks.add(f"em-report {name}: monad separability", "pass", "σ found and verified")
    dcat = adj.G.source
    objects = [dcat.obj(l) for l in dcat.objects]
    if meta.get("kind") == "induced":
        modules = [_bind_module(monad, m)
                   for m in _sample_modules(ws, meta["action"], monad)]
    else:
        modules = [free_module(monad, monad.cat.obj(x)) for x in monad.cat.objects]
    rep = check_equiv_up_to_retracts(adj, sigma, objects, modules)
    checks.merge_report(f"em-report {name}", rep)
    if opts.complete_target:
        for m in modules:
            label = m.name or repr(m)
            try:
                small, i_to, i_from = essential_preimage(adj, sigma, m)
                checks.add(f"em-report {name}: essential preimage of {label}", "pass",
                           f"split object on {'⊕'.join(small.summands)}"
                           f"{' with idempotent' if small.idem is not None else ''}")
            except (LawViolationError, ValueError) as exc:
                checks.add(f"em-report {name}: essential preimage of {label}", "fail",
                           str(exc))
    else:
        checks.add(f"em-report {name}: essential preimages", "pass",
                   "skipped (pass --complete-target to construct them in the "
                   "Karoubi closure)")
    return checks


def cmd_equivariant_report(ws: Workspace, name: str, opts) -> Checks:
    checks = Checks()
    act = ws.action(name)
    checks.merge_report(f"equivariant-report {name}: group", act.group.validate())
    checks.merge_report(f"equivariant-report {name}: action", validate_action(act))
    eqc = ws.eqcat_for_action(name)
    adj = induce_adjunction(eqc)
    checks.merge_report(f"equivariant-report {name}: induced adjunction",
                        validate_adjunction(adj))
    monad = monad_from_adjunction(adj)
    explicit = equivariant_monad(act)
    checks.add(f"equivariant-report {name}: monad matches the Kronecker formula",
               "pass" if monad.components_equal(explicit) else "fail")
    rng = random.Random(opts.seed)
    labels = list(eqc.labels)
    for label in labels:
        z = eqc.objects[label]
        mod = to_module(z, monad=explicit)
        back = to_equivariant(mod, act)
        ok = back.carrier == z.carrier and back.alpha == z.alpha
        checks.add(f"equivariant-report {name}: dictionary roundtrip at {label}",
                   "pass" if ok else "fail")
    for _ in range(opts.samples):
        a = labels[rng.randrange(len(labels))]
        b = labels[rng.randrange(len(labels))]
        d_eq = len(eq_hom_space(eqc.objects[a], eqc.objects[b]))
        d_mod = len(module_hom_basis(to_module(eqc.objects[a], monad=explicit),
                                     to_module(eqc.objects[b], monad=explicit)))
        checks.add(f"equivariant-report {name}: hom dimensions agree on ({a}, {b})",
                   "pass" if d_eq == d_mod else "fail", f"{d_eq} vs {d_mod}")
    direct = monad_separability_solve(monad)
    try:
        xi = xi_section(eqc, adj)
        checks.add(f"equivariant-report {name}: Maschke section", "pass",
                   "ε∘ξ = Id verified on every object")
        sigma_from_xi(adj, xi, monad=monad)
        checks.add(f"equivariant-report {name}: σ = GξF", "pass", "all laws verified")
        checks.add(f"equivariant-report {name}: feasibility verdicts agree",
                   "pass" if isinstance(direct, MonadSepWitness) else "fail")
    except NotInvertibleError as exc:
        checks.add(f"equivariant-report {name}: Maschke section", "infeasible", str(exc))
        checks.add(f"equivariant-report {name}: feasibility verdicts agree",
                   "pass" if isinstance(direct, Infeasible) else "fail",
                   "no ξ and no σ")
    usep = separability_solve(adj.G)
    status = "pass" if isinstance(usep, Infeasible) == isinstance(direct, Infeasible) \
        else "fail"
    checks.add(f"equivariant-report {name}: U-separability matches monad verdict",
               status)
    return checks


def cmd_complex_report(ws: Workspace, name: str, opts) -> Checks:
    checks = Checks()
    act = ws.action(name)
    monad = equivariant_monad(act)
    try:
        sigma = monad_separability_solve(monad)
        if isinstance(sigma, Infeasible):
            raise MonadNotSeparableError(
                f"no section of μ exists over {act.base.field.spec_str()} "
                f"(rank {sigma.rank} vs {sigma.rank_augmented})")
    except MonadNotSeparableError as exc:
        checks.add(f"complex-report {name}", "error", f"MonadNotSeparable: {exc}")
        return checks
    pool = _sample_modules(ws, name, monad)
    rng = random.Random(opts.seed)
    samples = []
    for cname in ws.order["complexes"]:
        if ws.monad_meta.get(ws.complex_meta[cname].get("monad"), {}).get("action") == name:
            c = ws.complexes[cname]
            samples.append(ModuleComplex(monad, c.modules,
                                         {n: c.underlying.diffs[n] for n in c.underlying.diffs},
                                         name=cname))
    while len(samples) < opts.samples:
        length = rng.randint(1, 4)
        samples.append(random_module_complex(monad, pool, length, rng,
                                             name=f"random{len(samples)}"))
    rep = derived_comparison_check(act, samples, monad=monad, sigma=sigma)
    checks.merge_report(f"complex-report {name}", rep)
    return checks


def run_entry(ws: Workspace, entry: dict, opts) -> Checks:
    cmd = entry.get("run")
    if cmd == "validate":
        return cmd_validate(ws, opts)
    if cmd == "adjunction-check":
        return cmd_adjunction_check(ws, entry.get("name"), opts)
    if cmd == "separability":
        return cmd_separability(ws, entry.get("name"), entry.get("target", "functor"), opts)
    if cmd == "em-report":
        return cmd_em_report(ws, entry.get("name"), opts)
    if cmd == "equivariant-report":
        return cmd_equivariant_report(ws, entry.get("name"), opts)
    if cmd == "complex-report":
        return cmd_complex_report(ws, entry.get("name"), opts)
    raise WorkspaceError(f"unknown command {cmd!r} in check suite")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sepcat",
        description="Exact separability checks over finitely presented k-linear categories.")
    p.add_argument("--workspace", "-w", default="workspace.json",
                   help="workspace JSON file (default: workspace.json)")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    p.add_argument("--samples", type=int, default=5,
                   help="number of sampled checks where applicable (default 5)")
    p.add_argument("--complete-target", action="store_true",
                   help="construct essential preimages in the Karoubi closure")
    p.add_argument("--out", default=".", help="output directory for reports/witnesses")
    sub = p.add_subparsers(dest="command")
    sub.add_parser("validate", help="run every declaration's law suite")
    ac = sub.add_parser("adjunction-check", help="triangle identities and law suites")
    ac.add_argument("name")
    sep = sub.add_parser("separability", help="decide separability, emit a witness file")
    sep.add_argument("name")
    sep.add_argument("--target", choices=["functor", "monad"], default="functor")
    em = sub.add_parser("em-report", help="comparison-functor pipeline for an adjunction")
    em.add_argument("name")
    eqr = sub.add_parser("equivariant-report", help="dictionary/Maschke pipeline for an action")
    eqr.add_argument("name")
    cr = sub.add_parser("complex-report", help="hom-level comparison on bounded complexes")
    cr.add_argument("name")
    return p


def run(argv=None) -> int:
    parser = build_parser()
    opts = parser.parse_args(argv)
    if opts.command is None:
        parser.print_usage(sys.stderr)
        return 2
    os.makedirs(opts.out, exist_ok=True)
    try:
        ws = parse_workspace(opts.workspace, validate=False)
        checks = run_entry(ws, {"run": opts.command, **vars(opts)}, opts)
    except WorkspaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status = "pass" if checks.all_pass else "fail"
    report = {
        "schema": REPORT_SCHEMA,
        "command": opts.command,
        "workspace": opts.workspace,
        "seed": opts.seed,
        "samples": opts.samples,
        "status": status,
        "checks": checks.records,
    }
    rpath = os.path.join(opts.out, "report.json")
    with open(rpath, "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    for r in checks.records:
        line = f"[{r['status']}] {r['check']}"
        if r["details"]:
            line += f": {r['details']}"
        print(line)
    print(f"report written to {rpath}")
    return 0 if checks.all_pass else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

"""The three benchmark workloads: their seeded inputs, ops and correctness checks.

An op is one user-visible verdict.  ``Op.run`` is the timed part; ``Op.check``
re-checks its result outside the timed region and returns (ok, why).  Every
call into sepcat goes through a module attribute looked up at call time, so
the tracer's patches see it.  A workload yields its ops in rounds; every case
appears once per round, so a run that ends on a round boundary weighs every
case the same whatever the seed.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import sepcat
import sepcat.cli
import sepcat.standard

from measure import maschke_feasible, prime_dividing, prime_not_dividing

WORKSPACE = Path("fixtures") / "workspace.json"

# The README commands with their expected exit codes.
README_COMMANDS = (
    (("validate",), 0),
    (("separability", "grpmonad_z2_q", "--target", "monad"), 0),
    (("separability", "grpmonad_z2_f2", "--target", "monad"), 1),
    (("adjunction-check", "adj_swap_q"), 0),
    (("--complete-target", "em-report", "adj_z2_q"), 0),
    (("equivariant-report", "triv_z2_q"), 0),
    (("complex-report", "triv_z2_q"), 0),
)


class Op:
    __slots__ = ("name", "run", "check")

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


class Workload:
    """Ops by round, plus the span groups a traced run of them must fire."""

    def __init__(self, round_ops, exercised, references=None):
        self.round_ops = round_ops
        self.exercised = exercised
        self.references = references
        self.report_sizes = []


def fresh_env(root: Path) -> dict:
    """Environment for a fresh Python process that imports sepcat from src/."""
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def cli_argv(root: Path, seed: int, out: Path, args) -> list[str]:
    return ["-w", str(root / WORKSPACE), "--seed", str(seed), "--out", str(out), *args]


# ---------------------------------------------------------------- cli-fixture

def _cli_workload(root: Path, seed: int, out: Path) -> Workload:
    wl = Workload(lambda r: ops, (
        "workspace.parse", "workspace.validate", "equivariant.build",
        "equivariant.dictionary", "equivariant.characters", "equivariant.eq_hom",
        "category.invert", "category.compose", "category.validate",
        "functors.on_morphism", "functors.solve", "functors.verify",
        "functors.validate", "monads.solve", "monads.verify", "monads.validate",
        "modules.hom_basis", "modules.validate", "complexes.hom",
        "complexes.check", "linalg.solve", "cli.run", "cli.command"), references={})

    def make(i, args, expected):
        cmd_out = out / f"cmd{i}"
        argv = cli_argv(root, seed, cmd_out, args)

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return sepcat.cli.run(argv)

        def check(code):
            if code != expected:
                return False, f"exit code {code}, expected {expected}"
            report = (cmd_out / "report.json").read_bytes()
            wl.report_sizes.append(len(report))
            if report != wl.references.setdefault(i, report):
                return False, "report.json differs from the first run with this seed"
            return True, ""
        return Op(f"cli {' '.join(args)}", run, check)

    ops = [make(i, args, expected) for i, (args, expected) in enumerate(README_COMMANDS)]
    ops[0].run()  # warm-up: validate touches every declaration once
    return wl


def cold_command(root: Path, seed: int, out: Path, i: int, references=None):
    """README command i in a fresh ``python -m sepcat.cli`` process.

    Returns (seconds, ok, why).  The report is compared with the in-process
    report of the same command and seed when one exists.
    """
    args, expected = README_COMMANDS[i]
    cmd_out = out / f"cold{i}"
    argv = [sys.executable, "-m", "sepcat.cli", *cli_argv(root, seed, cmd_out, args)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=root, env=fresh_env(root), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=120)
    dt = time.perf_counter() - t0
    if proc.returncode != expected:
        return dt, False, (f"exit code {proc.returncode}, expected {expected}: "
                           f"{proc.stderr.decode(errors='replace')[-300:]}")
    if references and i in references and (cmd_out / "report.json").read_bytes() != references[i]:
        return dt, False, "fresh-process report.json differs from the in-process one"
    return dt, True, ""


# A fresh process that imports a fixed set of standard-library modules.  Its
# wall time follows the machine's cost of starting and importing, which the
# in-process speed kernel does not track.
REFERENCE_IMPORTS = ("import argparse, dataclasses, decimal, email.parser, fractions, "
                     "http.client, json, typing, unittest, xml.dom.minidom")
REFERENCE_PROCESS_S = 0.15


def reference_process(root: Path) -> float:
    """Wall seconds of one reference process, from spawn to exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_IMPORTS], cwd=root, env=fresh_env(root),
                   check=True, timeout=60)
    return time.perf_counter() - t0


# --------------------------------------------------------- separability-sweep

class SweepCase:
    """One separability decision for a group acting on a standard category."""

    def __init__(self, target, group, order, cat, action, char):
        self.target = target
        self.group = group
        self.order = order
        self.cat = cat
        self.action = action
        self.char = char

    @property
    def name(self) -> str:
        field = "Q" if self.char == 0 else f"F{self.char}"
        act = "swap" if self.action == "swap" else "trivial"
        return f"{self.target} {self.group} {act} on {self.cat} over {field}"

    def expected_feasible(self) -> bool:
        return maschke_feasible(self.order, self.char)

    def solve(self):
        field = sepcat.Field.rationals() if self.char == 0 else sepcat.Field.prime(self.char)
        if self.group == "S_3":
            group = sepcat.FiniteGroup.symmetric(3)
        else:
            group = sepcat.FiniteGroup.cyclic(self.order)
        std = sepcat.standard
        cat = {"C1": std.point_category, "C3": std.two_point_category,
               "Cw": std.cyclotomic_point_category}[self.cat](field)
        if self.action == "swap":
            e, g = group.unit, next(h for h in group.elements if h != group.unit)
            act = sepcat.GroupAction.from_permutation(
                group, cat, {e: {"x": "x", "y": "y"}, g: {"x": "y", "y": "x"}})
        else:
            act = sepcat.GroupAction.trivial(group, cat)
        if self.target == "monad":
            return sepcat.monad_separability_solve(sepcat.equivariant_monad(act))
        return sepcat.separability_solve(
            sepcat.induce_adjunction(sepcat.equivariant_category(act)).G)

    def check(self, result):
        expect = self.expected_feasible()
        if isinstance(result, sepcat.Infeasible):
            # The verdict is checked against Maschke's theorem only; the
            # solver's rank_augmented is not an independent certificate.
            return (not expect), "infeasible, but char ∤ |G|"
        witness_type = sepcat.MonadSepWitness if self.target == "monad" else sepcat.SepWitness
        if not isinstance(result, witness_type):
            return False, f"unexpected result {type(result).__name__}"
        if not expect:
            return False, "witness returned, but char | |G|"
        if not result.verify().passed:
            return False, "witness fails re-verification"
        return True, ""


def sweep_cases() -> list[SweepCase]:
    cases = []
    for target, orders in (("monad", range(2, 8)), ("functor", range(2, 6))):
        groups = [(f"Z/{n}", n) for n in orders] + [("S_3", 6)]
        for gname, n in groups:
            for char in (0, prime_not_dividing(n), prime_dividing(n)):
                cases.append(SweepCase(target, gname, n, "C1", "trivial", char))
    for target in ("monad", "functor"):
        cases.append(SweepCase(target, "Z/2", 2, "C3", "swap", 0))
        cases.append(SweepCase(target, "Z/3", 3, "Cw", "trivial", 0))
    return cases


def _sweep_workload(root: Path, seed: int, out: Path) -> Workload:
    ops = [Op(c.name, c.solve, c.check) for c in sweep_cases()]

    def round_ops(r):
        order = list(ops)
        random.Random(f"sweep:{seed}:{r}").shuffle(order)
        return order

    ops[0].run()  # warm-up on the smallest case
    return Workload(round_ops, (
        "equivariant.build", "category.compose", "category.validate",
        "functors.on_morphism", "functors.solve", "functors.verify",
        "functors.validate", "monads.solve", "monads.verify", "monads.validate",
        "linalg.solve"))


# ------------------------------------------------------- dictionary-complexes

# Rational characters per action: ±1 for Z/2; only the trivial one for Z/3
# on the point; 1, w, w² for Z/3 on Q(ω); none for the swap, which fixes no
# object.
CHARACTER_COUNTS = {"Z/2 on C1": 2, "Z/3 on C1": 1, "Z/3 on Cw": 3, "Z/2 swap on C3": 0}
PAIRS_PER_ACTION = 4
COMPLEX_LENGTHS = range(2, 7)
PREPARED_ROUNDS = 12


def _dictionary_workload(root: Path, seed: int, out: Path) -> Workload:
    q = sepcat.Field.rationals()
    std = sepcat.standard
    c1, c3, cw = std.point_category(q), std.two_point_category(q), std.cyclotomic_point_category(q)
    z2, z3 = sepcat.FiniteGroup.cyclic(2), sepcat.FiniteGroup.cyclic(3)
    swap = {z2.unit: {"x": "x", "y": "y"},
            next(h for h in z2.elements if h != z2.unit): {"x": "y", "y": "x"}}
    actions = {
        "Z/2 on C1": sepcat.GroupAction.trivial(z2, c1),
        "Z/3 on C1": sepcat.GroupAction.trivial(z3, c1),
        "S_3 on C1": sepcat.GroupAction.trivial(sepcat.FiniteGroup.symmetric(3), c1),
        "Z/3 on Cw": sepcat.GroupAction.trivial(z3, cw),
        "Z/2 swap on C3": sepcat.GroupAction.from_permutation(z2, c3, swap),
    }
    monads = {k: sepcat.equivariant_monad(a) for k, a in actions.items()}
    chars = {k: sepcat.character_modules(actions[k], monad=monads[k]) for k in CHARACTER_COUNTS}
    objects = {k: [sepcat.to_equivariant(m, a) for m in chars.get(k, [])]
               + [sepcat.free_equivariant(a, a.base.obj(x)) for x in a.base.objects]
               for k, a in actions.items()}
    complex_monads = ("Z/2 on C1", "Z/3 on C1")
    sigmas = {k: sepcat.monad_separability_solve(monads[k]) for k in complex_monads}
    pools = {k: chars[k] + [sepcat.free_module(monads[k], c1.obj("pt"))] for k in complex_monads}

    def characters_op(k):
        def run():
            return len(sepcat.character_modules(actions[k], monad=monads[k]))

        def check(n):
            return n == CHARACTER_COUNTS[k], f"{n} characters, expected {CHARACTER_COUNTS[k]}"
        return Op(f"characters of {k}", run, check)

    def roundtrip_op(k, i):
        z = objects[k][i]

        def run():
            return sepcat.to_equivariant(sepcat.to_module(z, monad=monads[k]), actions[k])

        def check(back):
            return (back.carrier == z.carrier and back.alpha == z.alpha), "roundtrip changed α"
        return Op(f"roundtrip {k} #{i}", run, check)

    def hom_op(k, i, j):
        a, b = objects[k][i], objects[k][j]

        def run():
            d_eq = len(sepcat.eq_hom_space(a, b))
            d_mod = len(sepcat.module_hom_basis(sepcat.to_module(a, monad=monads[k]),
                                                sepcat.to_module(b, monad=monads[k])))
            return d_eq, d_mod

        def check(dims):
            return dims[0] == dims[1], f"eq_hom_space {dims[0]} vs module_hom_basis {dims[1]}"
        return Op(f"hom dims {k} ({i}, {j})", run, check)

    def complex_op(k, mc):
        def run():
            return sepcat.derived_comparison_check(actions[k], [mc], monad=monads[k],
                                                   sigma=sigmas[k])

        def check(rep):
            return rep.passed, "; ".join(n for n, _ in rep.failures())[:300]
        return Op(f"derived comparison {k} {mc.name}", run, check)

    fixed = [characters_op(k) for k in CHARACTER_COUNTS]
    fixed += [roundtrip_op(k, i) for k in actions for i in range(len(objects[k]))]
    # Each action's pairs in a seeded order, dealt out round after round, so
    # that a few rounds cover every pair whatever the seed.
    pairs = {}
    for k in actions:
        n = len(objects[k])
        pairs[k] = [(i, j) for i in range(n) for j in range(n)]
        random.Random(f"dictionary:{seed}:pairs:{k}").shuffle(pairs[k])
    rounds = []
    for r in range(PREPARED_ROUNDS):
        rng = random.Random(f"dictionary:{seed}:{r}")
        ops = list(fixed)
        for k, ks in pairs.items():
            ops += [hom_op(k, *ks[(r * PAIRS_PER_ACTION + t) % len(ks)])
                    for t in range(PAIRS_PER_ACTION)]
        for k in complex_monads:
            for length in COMPLEX_LENGTHS:
                mc = sepcat.random_module_complex(monads[k], pools[k], length, rng,
                                                  name=f"r{r}len{length}")
                ops.append(complex_op(k, mc))
        rounds.append(ops)
    return Workload(lambda r: rounds[r % len(rounds)], (
        "equivariant.dictionary", "equivariant.characters", "equivariant.eq_hom",
        "category.invert", "category.compose", "functors.on_morphism",
        "modules.hom_basis", "modules.validate", "complexes.hom",
        "complexes.check", "linalg.solve"))


WORKLOADS = {
    "cli-fixture": _cli_workload,
    "separability-sweep": _sweep_workload,
    "dictionary-complexes": _dictionary_workload,
}


def setup(name: str, root: Path, seed: int, out: Path) -> Workload:
    """Build the workload's seeded inputs and warm it up; the first op is then ready."""
    return WORKLOADS[name](root, seed, out)

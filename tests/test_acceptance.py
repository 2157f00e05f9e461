"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every equality is exact (tolerance zero); each criterion carries its stated
wall-clock budget.  Run with `pytest -s tests/test_acceptance.py` to see the
per-criterion lines.
"""

import json
import os
import random
import time
import pytest

from sepcat import (GroupAction, MModule, MonadSepWitness,
                    NotInvertibleError, SepWitness, compose_functors,
                    eq_hom_space, equivariant_category, equivariant_monad,
                    essential_preimage, extract_section, free_equivariant,
                    free_module, induce_adjunction, module_hom_basis,
                    monad_from_adjunction, monad_separability_solve,
                    derived_comparison_check, random_module_complex,
                    separability_solve, sigma_from_xi, to_equivariant,
                    to_module, transfer_witness, validate_adjunction,
                    xi_forgetful, xi_section)
from sepcat.cli import run
from sepcat.complexes import ModuleComplex, module_chain_hom_dim, lifted_module_hom_dim
from sepcat.equivariant import character_modules

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures", "workspace.json")

from tests.test_monads import (bruteforce_separability_element_fp,
                               classical_separability_element_q)


class Budget:
    """Times a criterion body and prints its verdict line."""

    def __init__(self, number, description, limit_s):
        self.number = number
        self.description = description
        self.limit = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        ok = exc_type is None and elapsed < self.limit
        verdict = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {self.number} {verdict}: {self.description} "
              f"({elapsed:.2f}s, budget {self.limit:.0f}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget: {elapsed:.2f}s")
        return False


def test_criterion_1_maschke_dichotomy(tmp_path, z2, z3, s3):
    with Budget(1, "Maschke dichotomy via `separability --target monad`", 5.0):
        feasible = ["grpmonad_z2_q", "grpmonad_z3_q", "grpmonad_s3_q"]
        infeasible = ["grpmonad_z2_f2", "grpmonad_z3_f3"]
        for name in feasible:
            code = run(["-w", FIXTURE, "--out", str(tmp_path),
                        "separability", name, "--target", "monad"])
            assert code == 0, name
            assert (tmp_path / f"{name}.witness.json").exists()
        for name in infeasible:
            code = run(["-w", FIXTURE, "--out", str(tmp_path),
                        "separability", name, "--target", "monad"])
            assert code == 1, name
            report = json.loads((tmp_path / "report.json").read_text())
            assert report["checks"][0]["status"] == "infeasible"
        # independent brute-force oracle on the group-algebra side
        assert bruteforce_separability_element_fp(z2, 2) is False
        assert bruteforce_separability_element_fp(z3, 3) is False
        assert classical_separability_element_q(z2)
        assert classical_separability_element_q(z3)
        assert classical_separability_element_q(s3)


def test_criterion_2_triangle_identities(QQ, z2, z3, s3, c1_q, c3_q, act_swap_q):
    with Budget(2, "triangle identities for the induced adjunctions", 2.0):
        matrix = [
            GroupAction.trivial(z2, c1_q, name="C1×Z2"),
            GroupAction.trivial(z3, c1_q, name="C1×Z3"),
            act_swap_q,                                        # C3 swap × Z/2
            GroupAction.trivial(z3, c3_q, name="C3×Z3"),       # the unique Z/3 action on C3
            GroupAction.trivial(s3, c1_q, name="C1×S3"),
        ]
        for act in matrix:
            adj = induce_adjunction(equivariant_category(act))
            assert validate_adjunction(adj).passed, act.name


def test_criterion_3_strict_monadicity(act_z2_q, act_z3_q, act_s3_q, act_swap_q,
                                       act_z3_qw, c1_q, c3_q, cw_q, monad_z2_q):
    with Budget(3, "dictionary roundtrips and hom-dimension agreement", 2.0):
        fixtures = []

        def chars_as_objects(act):
            return [to_equivariant(m, act) for m in character_modules(act)]

        z2_objs = chars_as_objects(act_z2_q) + [free_equivariant(act_z2_q, c1_q.obj("pt"))]
        z3_objs = chars_as_objects(act_z3_q) + [free_equivariant(act_z3_q, c1_q.obj("pt"))]
        zw_objs = chars_as_objects(act_z3_qw) + [free_equivariant(act_z3_qw, cw_q.obj("pt"))]
        swap_objs = [free_equivariant(act_swap_q, c3_q.obj("x")),
                     free_equivariant(act_swap_q, c3_q.obj("y"))]
        s3_objs = [free_equivariant(act_s3_q, c1_q.obj("pt"))]
        fixtures = [(act_z2_q, z2_objs), (act_z3_q, z3_objs), (act_z3_qw, zw_objs),
                    (act_swap_q, swap_objs), (act_s3_q, s3_objs)]
        total = sum(len(objs) for _, objs in fixtures)
        assert total >= 10
        rng = random.Random(0)
        for act, objs in fixtures:
            monad = equivariant_monad(act)
            for z in objs:
                mod = to_module(z, monad=monad)
                back = to_equivariant(mod, act)
                assert back.carrier == z.carrier and back.alpha == z.alpha
            for _ in range(5):
                a = objs[rng.randrange(len(objs))]
                b = objs[rng.randrange(len(objs))]
                d_eq = len(eq_hom_space(a, b))
                d_mod = len(module_hom_basis(to_module(a, monad=monad),
                                             to_module(b, monad=monad)))
                assert d_eq == d_mod


def test_criterion_4_maschke_and_sigma_pipeline(act_z2_q, act_z3_q, act_z3_qw,
                                                c1_q, cw_q, eqcat_z2_q, adj_z2_q,
                                                eqcat_z3_q, adj_z3_q):
    with Budget(4, "ε∘ξ = Id everywhere and σ = GξF matches the direct solve", 2.0):
        # raw sections at every fixture equivariant object with |G| invertible
        for act, cat in ((act_z2_q, c1_q), (act_z3_q, c1_q), (act_z3_qw, cw_q)):
            objs = [free_equivariant(act, cat.obj(cat.objects[0]))]
            objs += [to_equivariant(m, act) for m in character_modules(act)]
            for z in objs:
                xi_forgetful(z)   # re-verifies ε∘ξ = Id internally
        # adjunction-level σ pipeline with matching feasibility verdicts
        for eqc, adj in ((eqcat_z2_q, adj_z2_q), (eqcat_z3_q, adj_z3_q)):
            monad = monad_from_adjunction(adj)
            xi = xi_section(eqc, adj)
            w = sigma_from_xi(adj, xi, monad=monad)
            assert w.verify().passed
            assert isinstance(monad_separability_solve(monad), MonadSepWitness)


def test_criterion_5_comparison_report(tmp_path):
    with Budget(5, "em-report: K fully faithful and retracts of free modules", 5.0):
        for adj_name in ("adj_z2_q", "adj_z3_q"):
            code = run(["-w", FIXTURE, "--out", str(tmp_path), "em-report", adj_name])
            assert code == 0, adj_name
            report = json.loads((tmp_path / "report.json").read_text())
            ff = [c for c in report["checks"] if "fully faithful" in c["check"]]
            retr = [c for c in report["checks"] if "retract of free" in c["check"]]
            assert ff and all(c["status"] == "pass" for c in ff)
            assert retr and all(c["status"] == "pass" for c in retr)
        # the Z/2 report covers both character modules
        code = run(["-w", FIXTURE, "--out", str(tmp_path), "em-report", "adj_z2_q"])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        names = " ".join(c["check"] for c in report["checks"])
        assert "char(pt; 1)" in names and "char(pt; -1)" in names


def test_criterion_6_essential_preimages(adj_z2_q, act_z2_q, adj_z3_q, act_z3_q,
                                         act_z3_qw):
    with Budget(6, "essential preimages split with identity composites", 2.0):
        cases = [(adj_z2_q, act_z2_q), (adj_z3_q, act_z3_q)]
        # include the cyclotomic Z/3 fixture so nontrivial characters are exercised
        eqw = equivariant_category(act_z3_qw, extra={
            f"chi{i}": to_equivariant(m, act_z3_qw)
            for i, m in enumerate(character_modules(act_z3_qw))})
        cases.append((induce_adjunction(eqw), act_z3_qw))
        n_modules = 0
        for adj, act in cases:
            monad = monad_from_adjunction(adj)
            sw = monad_separability_solve(monad)
            assert isinstance(sw, MonadSepWitness)
            for m in character_modules(act, monad=monad):
                mod = MModule(monad, m.carrier, m.action, name=m.name)
                small, i_to, i_from = essential_preimage(adj, sw, mod)
                assert (i_to @ i_from).mor == mod.carrier.identity()
                assert (i_from @ i_to).mor == i_from.dst.carrier.identity()
                n_modules += 1
        assert n_modules >= 6


def test_criterion_7_derived_comparison(act_z2_q, monad_z2_q, chars_z2_q, c1_q):
    with Budget(7, "hom-level comparison d₁ = d₂ with retract witnesses", 10.0):
        sw = monad_separability_solve(monad_z2_q)
        stalk_t = ModuleComplex(monad_z2_q, {0: chars_z2_q["triv"]}, {}, name="stalk(triv)")
        stalk_s = ModuleComplex(monad_z2_q, {0: chars_z2_q["sign"]}, {}, name="stalk(sign)")
        assert module_chain_hom_dim(stalk_t, stalk_s) == 0
        assert lifted_module_hom_dim(stalk_t, stalk_s) == 0
        assert module_chain_hom_dim(stalk_t, stalk_t) == 1
        assert lifted_module_hom_dim(stalk_t, stalk_t) == 1
        rng = random.Random(2024)
        pool = [chars_z2_q["triv"], chars_z2_q["sign"],
                free_module(monad_z2_q, c1_q.obj("pt"))]
        samples = [stalk_t, stalk_s]
        for i in range(3):
            samples.append(random_module_complex(monad_z2_q, pool, rng.randint(2, 4),
                                                 rng, name=f"r{i}"))
        rep = derived_comparison_check(act_z2_q, samples, monad=monad_z2_q, sigma=sw)
        assert rep.passed
        d_checks = [n for n, _, _ in rep.checks if "d₁ = d₂" in n]
        assert len(d_checks) >= 5


def test_criterion_8_negative_control_error_path(tmp_path, act_z2_f2, c1_f2):
    with Budget(8, "NotInvertible over F₂ and MonadNotSeparable in complex-report", 1.0):
        z = free_equivariant(act_z2_f2, c1_f2.obj("pt"))
        with pytest.raises(NotInvertibleError):
            xi_forgetful(z)
        code = run(["-w", FIXTURE, "--out", str(tmp_path),
                    "complex-report", "triv_z2_f2"])
        assert code == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert any("MonadNotSeparable" in c["details"] for c in report["checks"])


def test_criterion_9_witness_calculus_coherence(adj_z2_q, adj_z3_q, act_swap_q):
    with Budget(9, "extract-section/from-xi round trip and compose/left-factor", 3.0):
        for adj in (adj_z2_q, adj_z3_q):
            w = separability_solve(adj.G)
            assert isinstance(w, SepWitness)
            xi = extract_section(adj, w)
            w2 = transfer_witness("from-xi", adj, xi)
            assert w2.verify().passed
        # compose and left-factor on composed fixture functors
        adj_swap = induce_adjunction(equivariant_category(act_swap_q))
        u = adj_swap.G
        phi = act_swap_q.functors["g"]
        w_u = separability_solve(u)
        w_phi = transfer_witness("fully-faithful", phi)
        w_comp = transfer_witness("compose", w_u, w_phi)
        assert w_comp.verify().passed
        composite = compose_functors(phi, u)
        w_direct = separability_solve(composite)
        assert isinstance(w_direct, SepWitness)
        w_left = transfer_witness("left-factor", w_direct, phi, u)
        assert w_left.verify().passed


def test_criterion_10_report_determinism(tmp_path):
    out1 = tmp_path / "a"
    code = run(["-w", FIXTURE, "--seed", "123", "--out", str(out1),
                "equivariant-report", "triv_z2_q"])
    assert code == 0
    first = (out1 / "report.json").read_bytes()
    # the repeated run is the measured overhead
    with Budget(10, "byte-identical report.json under a fixed seed", 1.0):
        out2 = tmp_path / "b"
        code = run(["-w", FIXTURE, "--seed", "123", "--out", str(out2),
                    "equivariant-report", "triv_z2_q"])
        assert code == 0
        assert (out2 / "report.json").read_bytes() == first

"""Monad laws and separable-monad sections, cross-checked against an
independent group-algebra oracle.

The oracle: a section of the group monad over a one-object category with
End = k corresponds exactly to an element z ∈ kG⊗kG with g·z = z·g for all g
and m(z) = 1 (m the multiplication).  The oracle enumerates or exhibits such
elements with dictionary arithmetic only, never touching the linear solver.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from sepcat import (Field, Functor, Infeasible, Monad, MonadSepWitness,
                    NatTrans, PreconditionError, compose_functors,
                    equivariant_monad, monad_from_adjunction,
                    monad_separability_solve, section_feasibility,
                    sigma_from_xi, validate_monad, xi_section)
from sepcat.monads import MonadSepWitness


# ---------------------------------------------------------------- oracle

def group_algebra_mult(group, a, b):
    """Convolution product in kG for dicts g -> coefficient."""
    out = {}
    for g, ca in a.items():
        for h, cb in b.items():
            k = group.mult(g, h)
            out[k] = out.get(k, 0) + ca * cb
    return {g: c for g, c in out.items() if c}


def is_separability_element(group, z, one):
    """z: dict (g, h) -> coeff.  Checks m(z) = 1 and g·z = z·g for all g."""
    m = {}
    for (g, h), c in z.items():
        k = group.mult(g, h)
        m[k] = m.get(k, 0) + c
    if {g: c for g, c in m.items() if c} != {group.unit: one}:
        return False
    for a in group.elements:
        left = {}
        right = {}
        for (g, h), c in z.items():
            if not c:
                continue
            lk = (group.mult(a, g), h)
            left[lk] = left.get(lk, 0) + c
            rk = (g, group.mult(h, a))
            right[rk] = right.get(rk, 0) + c
        left = {k: c for k, c in left.items() if c}
        right = {k: c for k, c in right.items() if c}
        if left != right:
            return False
    return True


def bruteforce_separability_element_fp(group, p):
    """Enumerate all of (F_p G)⊗(F_p G); True iff some separability element exists."""
    pairs = [(g, h) for g in group.elements for h in group.elements]
    f = Field.prime(p)
    for cand in product(range(p), repeat=len(pairs)):
        z = {pairs[i]: f.from_int(cand[i]) for i in range(len(pairs)) if cand[i]}
        if is_separability_element(group, z, f.one()):
            return True
    return False


def classical_separability_element_q(group):
    """The classical element (1/|G|)·Σ_g g⊗g^{-1}, checked by dictionary arithmetic."""
    n = group.order
    z = {(g, group.inv(g)): Fraction(1, n) for g in group.elements}
    return is_separability_element(group, z, Fraction(1))


# ---------------------------------------------------------------- tests

class TestValidateMonad:
    def test_identity_monad(self, c1_q):
        m = Monad.identity_monad(c1_q)
        assert validate_monad(m).passed

    def test_group_monad_z2(self, monad_z2_q):
        assert validate_monad(monad_z2_q).passed

    def test_corrupted_mult_fails_unit_law(self, act_z2_q, monad_z2_q):
        m = monad_z2_q
        mu = m.mult.components["pt"]
        # permute the mult blocks wrongly: swap the two target rows
        bad_blocks = (mu.blocks[1], mu.blocks[0])
        bad_mu = type(mu)(mu.cat, mu.dom, mu.cod, bad_blocks)
        bad = Monad(m.functor, m.unit,
                    NatTrans(m.mult.src, m.mult.dst, {"pt": bad_mu}), name="bad")
        rep = validate_monad(bad)
        assert not rep.passed
        assert any("unit" in name or "naturality" in name for name, _ in rep.failures())


class TestMonadFromAdjunction:
    def test_identity_adjunction(self, c1_q):
        from sepcat.functors import Adjunction
        idf = Functor.identity(c1_q)
        ident = {"pt": c1_q.obj("pt").identity()}
        adj = Adjunction(idf, idf,
                         NatTrans(idf, compose_functors(idf, idf), dict(ident)),
                         NatTrans(compose_functors(idf, idf), idf, dict(ident)))
        m = monad_from_adjunction(adj)
        assert m.components_equal(Monad.identity_monad(c1_q))

    def test_equivariant_adjunction_doubles_the_point(self, adj_z2_q, monad_z2_q):
        m = monad_from_adjunction(adj_z2_q)
        assert m.functor.object_map["pt"].summands == ("pt", "pt")
        assert m.components_equal(monad_z2_q)

    def test_em_adjunction_roundtrip(self, monad_z2_q):
        from sepcat import EmAdjunction
        em = EmAdjunction(monad_z2_q)
        rebuilt = em.defined_monad()
        assert rebuilt.components_equal(monad_z2_q)


class TestSeparabilitySolve:
    def test_identity_monad_sigma_is_identity(self, c1_q):
        w = monad_separability_solve(Monad.identity_monad(c1_q))
        assert isinstance(w, MonadSepWitness)
        assert w.sigma.components["pt"] == c1_q.obj("pt").identity()

    def test_z2_over_q_feasible(self, monad_z2_q):
        w = monad_separability_solve(monad_z2_q)
        assert isinstance(w, MonadSepWitness)
        mx = monad_z2_q.functor.object_map["pt"]
        assert monad_z2_q.mult.components["pt"] @ w.sigma.components["pt"] == mx.identity()

    def test_z2_over_f2_infeasible(self, act_z2_f2):
        res = monad_separability_solve(equivariant_monad(act_z2_f2))
        assert isinstance(res, Infeasible)
        assert res.rank_augmented == res.rank + 1
        assert res.subsystem is not None

    def test_oracle_agreement_fp(self, z2, z3, act_z2_f2, act_z3_f3):
        # the solver's verdict matches exhaustive group-algebra enumeration
        assert bruteforce_separability_element_fp(z2, 2) is False
        assert isinstance(monad_separability_solve(equivariant_monad(act_z2_f2)), Infeasible)
        assert bruteforce_separability_element_fp(z3, 3) is False
        assert isinstance(monad_separability_solve(equivariant_monad(act_z3_f3)), Infeasible)

    def test_oracle_agreement_q(self, z2, z3, s3, monad_z2_q, act_z3_q, act_s3_q):
        # over Q the classical element certifies feasibility independently
        assert classical_separability_element_q(z2)
        assert classical_separability_element_q(z3)
        assert classical_separability_element_q(s3)
        assert isinstance(monad_separability_solve(monad_z2_q), MonadSepWitness)
        assert isinstance(monad_separability_solve(equivariant_monad(act_z3_q)), MonadSepWitness)
        assert isinstance(monad_separability_solve(equivariant_monad(act_s3_q)), MonadSepWitness)

    def test_sigma_unique_for_z2(self, monad_z2_q):
        # over Q the Z/2 section is pinned completely: the coset is a point
        w = monad_separability_solve(monad_z2_q)
        assert w.solution.kernel == []

    def test_coset_stability(self, act_swap_q):
        # adding kernel vectors of the constraint system to σ preserves the laws
        monad = equivariant_monad(act_swap_q)
        w = monad_separability_solve(monad)
        sol = w.solution
        assert sol.kernel, "expected a positive-dimensional solution coset"
        rng = random.Random(11)
        cat = monad.cat
        from sepcat.category import Morphism, hom_coord_dim
        mf = monad.functor
        m2 = monad.squared
        for _ in range(3):
            shift = [cat.field.zero()] * sol.n_vars
            for k in sol.kernel:
                c = cat.field.from_int(rng.randint(-2, 2))
                shift = [s + c * v for s, v in zip(shift, k)]
            moved = [a + b for a, b in zip(sol.particular, shift)]
            comps = {}
            offset = 0
            for x in cat.objects:
                n = hom_coord_dim(cat, mf.object_map[x], m2.object_map[x])
                comps[x] = Morphism.from_coords(cat, mf.object_map[x], m2.object_map[x],
                                                moved[offset:offset + n])
                offset += n
            shifted = MonadSepWitness(monad, NatTrans(mf, m2, comps, name="σ'"))
            assert shifted.verify().passed


@pytest.mark.parametrize("action, squares, places", [
    ("act_z3_q", 1, ["pt"]), ("act_swap_q", 2, ["x", "y"])], ids=["z3_q", "swap_q"])
@pytest.mark.parametrize("side", ["eta_M", "M_eta"])
def test_one_sided_section_fails_only_the_bimodule_law(request, action, squares, places, side):
    # ηM and Mη are natural sections of μ, each a bimodule map on one side only; the
    # law restricted along the units must still reject each on the side it lacks
    monad = equivariant_monad(request.getfixturevalue(action))
    mf = monad.functor
    comps = {x: monad.unit.at(mf.object_map[x]) if side == "eta_M"
             else mf.on_morphism(monad.unit.components[x]) for x in monad.cat.objects}
    rep = MonadSepWitness(monad, NatTrans(mf, monad.squared, comps, name="σ")).verify()
    failure = {"eta_M": "σ∘μ ≠ μM∘Mσ at {}", "M_eta": "Mμ∘σM ≠ σ∘μ at {}"}[side]
    assert rep.checks == [
        ("natural transformation σ: components have the right endpoints", True, ""),
        (f"natural transformation σ: naturality ({squares} squares)", True, ""),
        ("section law μ∘σ = Id_M", True, ""),
        ("bimodule law Mμ∘σM = σ∘μ = μM∘Mσ", False, "; ".join(map(failure.format, places))),
    ]


class TestSigmaFromXi:
    def test_identity_monad(self, c1_q):
        from sepcat.functors import Adjunction
        idf = Functor.identity(c1_q)
        ident = {"pt": c1_q.obj("pt").identity()}
        adj = Adjunction(idf, idf,
                         NatTrans(idf, compose_functors(idf, idf), dict(ident)),
                         NatTrans(compose_functors(idf, idf), idf, dict(ident)))
        xi = NatTrans(Functor.identity(c1_q), compose_functors(idf, idf), dict(ident))
        w = sigma_from_xi(adj, xi)
        assert w.sigma.components["pt"] == c1_q.obj("pt").identity()

    def test_z2_over_q(self, adj_z2_q, eqcat_z2_q):
        xi = xi_section(eqcat_z2_q, adj_z2_q)
        w = sigma_from_xi(adj_z2_q, xi)
        assert w.verify().passed

    def test_z3_over_q(self, adj_z3_q, eqcat_z3_q):
        xi = xi_section(eqcat_z3_q, adj_z3_q)
        w = sigma_from_xi(adj_z3_q, xi)
        assert w.verify().passed

    def test_precondition_checked(self, adj_z2_q, eqcat_z2_q):
        xi = xi_section(eqcat_z2_q, adj_z2_q)
        doubled = NatTrans(xi.src, xi.dst,
                           {k: m.scale(Fraction(2)) for k, m in xi.components.items()})
        with pytest.raises(PreconditionError):
            sigma_from_xi(adj_z2_q, doubled)

    def test_feasibility_routes_agree(self, adj_z2_q, adj_z3_q, adj_z2_f2):
        # the ξ-route and the direct σ-solve must agree on feasibility
        for adj in (adj_z2_q, adj_z3_q, adj_z2_f2):
            monad = monad_from_adjunction(adj)
            direct = monad_separability_solve(monad)
            sec, xi = section_feasibility(adj)
            assert isinstance(direct, MonadSepWitness) == sec.feasible
            if sec.feasible:
                w = sigma_from_xi(adj, xi, monad=monad)
                assert w.verify().passed

"""Functor/adjunction validation and the separability witness calculus."""

import os
import random
import re
from fractions import Fraction

import pytest

from sepcat import (Functor, Infeasible,
                    LinearCategory, Morphism, MorSystem, NatTrans, NotFullyFaithfulError,
                    PreconditionError,
                    SepWitness, compose_functors, direct_sum, extract_section,
                    fully_faithful_on, hom_space_basis, section_feasibility,
                    separability_solve, compose_witnesses, fully_faithful_witness,
                    left_factor_witness, retract_witness, witness_from_section,
                    validate_adjunction, validate_functor, zero_morphism)
from sepcat.category import CatObject, unit_morphisms
from sepcat.functors import Adjunction, hom_matrix
from sepcat.linalg import LinForm
from sepcat.workspace import parse_workspace

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures", "workspace.json")


@pytest.fixture(scope="module")
def swap_functor(c3_q):
    one = c3_q.field.one()
    return Functor(
        c3_q, c3_q,
        {"x": c3_q.obj("y"), "y": c3_q.obj("x")},
        {("x", "x"): (c3_q.obj("y").identity(),),
         ("y", "y"): (c3_q.obj("x").identity(),)},
        name="swap")


@pytest.fixture(scope="module")
def double_hom_category(QQ):
    """Two objects with a 2-dimensional hom space and only unit compositions."""
    one = QQ.one()
    return LinearCategory(
        QQ, ["x", "y"],
        {("x", "x"): 1, ("y", "y"): 1, ("x", "y"): 2},
        {
            ("x", "x", "x"): [[(one,)]],
            ("y", "y", "y"): [[(one,)]],
            ("x", "x", "y"): [[(one, QQ.zero())], [(QQ.zero(), one)]],
            ("x", "y", "y"): [[(one, QQ.zero()), (QQ.zero(), one)]],
        },
        {"x": (one,), "y": (one,)},
        name="C4")


class TestValidateFunctor:
    def test_identity_passes(self, c2_q):
        assert validate_functor(Functor.identity(c2_q)).passed

    def test_swap_automorphism_passes(self, swap_functor):
        assert validate_functor(swap_functor).passed

    def test_arrow_to_zero_passes_on_a2(self, c2_q):
        # a composes only with identities, so sending it to 0 is a functor
        f = Functor(
            c2_q, c2_q,
            {x: c2_q.obj(x) for x in c2_q.objects},
            {("1", "1"): (c2_q.obj("1").identity(),),
             ("2", "2"): (c2_q.obj("2").identity(),),
             ("1", "2"): (Morphism(c2_q, c2_q.obj("1"), c2_q.obj("2"), (((c2_q.field.zero(),),),)),)},
            name="collapse-a")
        assert validate_functor(f).passed

    def test_an_identity_image_off_its_endpoints_fails_identity_preservation(self, c3_q):
        """F(id_y) = id_x: placed by the object map, its one block would read as id_{F y}."""
        x, y = c3_q.obj("x"), c3_q.obj("y")
        f = Functor(c3_q, c3_q, {"x": x, "y": y},
                    {("x", "x"): (x.identity(),), ("y", "y"): (x.identity(),)})
        assert validate_functor(f).checks == [
            ("hom images have the right endpoints", False, ""),
            ("identity preservation (2 objects)", False, "y"),
            ("composition preservation (2 pairs)", False, "(y->y[0], y->y[0])")]

    def test_zero_on_homs_fails_identity_preservation(self, c1_q):
        f = Functor(
            c1_q, c1_q,
            {"pt": c1_q.obj("pt")},
            {("pt", "pt"): (Morphism(c1_q, c1_q.obj("pt"), c1_q.obj("pt"),
                                     (((c1_q.field.zero(),),),)),)},
            name="zero-on-homs")
        rep = validate_functor(f)
        assert not rep.passed
        assert any("identity" in name for name, _ in rep.failures())
        with pytest.raises(PreconditionError):
            separability_solve(f)


class TestValidateAdjunction:
    def test_identity_adjunction(self, c1_q):
        idf = Functor.identity(c1_q)
        ident = NatTrans(idf, idf, {"pt": c1_q.obj("pt").identity()})
        unit = NatTrans(idf, compose_functors(idf, idf), {"pt": c1_q.obj("pt").identity()})
        counit = NatTrans(compose_functors(idf, idf), idf, {"pt": c1_q.obj("pt").identity()})
        adj = Adjunction(idf, idf, unit, counit)
        assert validate_adjunction(adj).passed

    def test_equivariant_adjunction(self, adj_z2_q):
        assert validate_adjunction(adj_z2_q).passed

    def test_scaled_counit_fails(self, adj_z2_q):
        two = Fraction(2)
        scaled = NatTrans(adj_z2_q.counit.src, adj_z2_q.counit.dst,
                          {k: m.scale(two) for k, m in adj_z2_q.counit.components.items()})
        bad = Adjunction(adj_z2_q.F, adj_z2_q.G, adj_z2_q.unit, scaled)
        assert not validate_adjunction(bad).passed


class TestSeparabilitySolve:
    def test_identity_functor_witness_is_identity(self, c1_q):
        w = separability_solve(Functor.identity(c1_q))
        assert isinstance(w, SepWitness)
        assert w.maps[("pt", "pt")] == [[c1_q.field.one()]]

    def test_identity_functor_witness_is_the_identity_on_sums(self, c2_q):
        # on sums H acts part by part; on the A2 quiver Hom(1, 2) ≠ 0 = Hom(2, 1), so a
        # part read with its two summands swapped does not go unnoticed
        w = separability_solve(Functor.identity(c2_q))
        one, two = c2_q.obj("1"), c2_q.obj("2")
        for a, b in ((direct_sum([one, two]), direct_sum([two, one, two])),
                     (direct_sum([two, one]), direct_sum([one, two]))):
            g = zero_morphism(a, b)
            for i, m in enumerate(hom_space_basis(c2_q, a, b)):
                g = g + m.scale(c2_q.field.from_int(i + 2))
            assert not g.is_zero() and w.apply(a, b, g) == g

    def test_forgetful_over_f2_infeasible(self, adj_z2_f2):
        res = separability_solve(adj_z2_f2.G)
        assert isinstance(res, Infeasible)
        assert res.rank_augmented == res.rank + 1

    def test_forgetful_over_q_feasible_and_reverified(self, adj_z2_q):
        w = separability_solve(adj_z2_q.G)
        assert isinstance(w, SepWitness)
        assert w.verify().passed

    def test_witness_and_section_feasibility_agree(self, adj_z2_q, adj_z3_q, adj_z2_f2):
        # separability_solve(G) feasible ⇔ a ξ with ε∘ξ = Id exists; G carries its
        # adjunction, so both read the ξ system, and tests/test_binaturality_oracle.py
        # checks separability_solve against eliminating the H system
        for adj in (adj_z2_q, adj_z3_q, adj_z2_f2):
            solved = separability_solve(adj.G)
            sec, xi = section_feasibility(adj)
            assert isinstance(solved, SepWitness) == sec.feasible
            if sec.feasible:
                assert xi is not None


LEFT_LAW = "H(Fv∘g) = v∘H(g)"
RIGHT_LAW = "H(g∘Fu) = H(g)∘u"


def _precomposed(w, psi, side):
    """H'(g) = H(ψ_y∘g) if side is "left", else H(g∘ψ_x), for target endomorphisms ψ.

    H(ψ_y∘g∘Fu) = H(ψ_y∘g)∘u keeps the right law, and H(Fv∘g∘ψ_x) = v∘H(g∘ψ_x)
    the left one; a ψ that is not natural breaks the other law.
    """
    f, tgt = w.functor, w.functor.target
    maps = {}
    for x, y in w.maps:
        fx, fy = f.object_map[x], f.object_map[y]
        fn = (lambda m: psi[y] @ m) if side == "left" else (lambda m: m @ psi[x])
        a, b = f.source.obj(x), f.source.obj(y)
        maps[(x, y)] = hom_matrix(lambda m: w.apply(a, b, fn(m)), unit_morphisms(tgt, fx, fy),
                                  tgt.field)
    return SepWitness(f, maps)


class TestBinaturalityFailures:
    @pytest.fixture(scope="class")
    def ws(self):
        return parse_workspace(FIXTURE)

    @pytest.mark.parametrize("side,broken,kept,var", [
        ("left", LEFT_LAW, RIGHT_LAW, "v"),
        ("right", RIGHT_LAW, LEFT_LAW, "u"),
    ])
    @pytest.mark.parametrize("functor", ["forget_z2_q", "adj_swap_q"])
    def test_tampered_witness_fails_exactly_one_one_sided_law(self, ws, functor, side, broken,
                                                               kept, var):
        f = ws.adjunction(functor).G if functor.startswith("adj") else ws.functor(functor)
        w = separability_solve(f)
        assert w.verify().passed
        # the first summand's projection at the first object is not natural
        x0 = f.source.objects[0]
        psi = {x: f.object_map[x].identity() for x in f.source.objects}
        psi[x0] = unit_morphisms(f.target, f.object_map[x0], f.object_map[x0])[0]
        rep = _precomposed(w, psi, side).verify()
        assert not rep.passed
        [(name, detail)] = [(n, d) for n, d in rep.failures() if "binaturality" in n]
        assert broken in name and kept not in name
        # the basis label of v or u, then g's index and the constraint's hom pairs
        assert re.match(rf"{var} = \S+->\S+\[\d+\], g\d+ in binaturality \(", detail), detail
        assert "None" not in detail
        assert any(kept in n and ok for n, ok, _ in rep.checks)

    def test_swap_g_one_sided_laws_are_vacuous(self, ws):
        # every basis morphism of C3 is an identity and F(id) = id, so no choice
        # of matrices breaks a one-sided law; a wrong scale breaks the retraction
        f = ws.functor("swap_g")
        w = separability_solve(f)
        two = f.source.field.from_int(2)
        rep = SepWitness(f, {k: [[two * v for v in col] for col in h]
                             for k, h in w.maps.items()}).verify()
        failed = dict(rep.failures())
        assert list(failed) == ["retraction H(F(f)) = f (2 checks)"]
        assert "None" not in failed["retraction H(F(f)) = f (2 checks)"]


class TestTransferRules:
    def test_compose_of_identity_witnesses(self, c1_q):
        idw = separability_solve(Functor.identity(c1_q))
        w = compose_witnesses(idw, idw)
        assert w.maps[("pt", "pt")] == [[c1_q.field.one()]]

    def test_retract_with_identity_transformations(self, adj_z2_q):
        w = separability_solve(adj_z2_q.G)
        g = adj_z2_q.G
        ident = NatTrans(g, g, {l: g.object_map[l].identity() for l in g.source.objects})
        w2 = retract_witness(w, ident, ident)
        assert w2.maps == w.maps or w2.verify().passed

    def test_from_xi_on_equivariant_fixture(self, adj_z2_q, eqcat_z2_q):
        from sepcat import xi_section
        xi = xi_section(eqcat_z2_q, adj_z2_q)
        w = witness_from_section(adj_z2_q, xi)
        assert w.verify().passed
        # H(U(f)) = f on every presentation basis morphism
        pcat = eqcat_z2_q.cat
        for (l1, l2), mors in sorted(adj_z2_q.G.hom_map.items()):
            d = pcat.hom_dim(l1, l2)
            for i in range(d):
                coords = [pcat.field.zero()] * d
                coords[i] = pcat.field.one()
                f = Morphism.from_coords(pcat, pcat.obj(l1), pcat.obj(l2), coords)
                assert w.apply(pcat.obj(l1), pcat.obj(l2), mors[i]) == f

    def test_fully_faithful_rule_on_swap(self, swap_functor):
        w = fully_faithful_witness(swap_functor)
        assert w.verify().passed

    def test_compose_with_automorphism_and_left_factor(self, act_swap_q, c3_q):
        from sepcat import equivariant_category, induce_adjunction
        eq = equivariant_category(act_swap_q)
        adj = induce_adjunction(eq)
        u = adj.G
        phi = act_swap_q.functors["g"]
        w_u = separability_solve(u)
        assert isinstance(w_u, SepWitness)
        w_phi = fully_faithful_witness(phi)
        composite = compose_functors(phi, u)
        w_comp = compose_witnesses(w_u, w_phi)
        assert w_comp.functor.equals(composite)
        # from a composite witness, recover one for the left factor
        w_direct = separability_solve(composite)
        assert isinstance(w_direct, SepWitness)
        w_left = left_factor_witness(w_direct, phi, u)
        assert w_left.verify().passed


class TestExtractSection:
    def test_identity_adjunction_gives_identity(self, c1_q):
        idf = Functor.identity(c1_q)
        ident = {"pt": c1_q.obj("pt").identity()}
        adj = Adjunction(idf, idf,
                         NatTrans(idf, compose_functors(idf, idf), dict(ident)),
                         NatTrans(compose_functors(idf, idf), idf, dict(ident)))
        w = separability_solve(idf)
        xi = extract_section(adj, w)
        assert xi.components["pt"] == c1_q.obj("pt").identity()

    def test_z2_section_matches_maschke_formula(self, adj_z2_q, eqcat_z2_q):
        from sepcat import xi_section
        w = separability_solve(adj_z2_q.G)
        xi = extract_section(adj_z2_q, w)
        maschke = xi_section(eqcat_z2_q, adj_z2_q)
        for l in eqcat_z2_q.labels:
            assert xi.components[l] == maschke.components[l]

    def test_z3_section_satisfies_law(self, adj_z3_q, eqcat_z3_q):
        w = separability_solve(adj_z3_q.G)
        xi = extract_section(adj_z3_q, w)
        for l in eqcat_z3_q.labels:
            lhs = adj_z3_q.counit.components[l] @ xi.components[l]
            assert lhs == eqcat_z3_q.cat.obj(l).identity()


@pytest.fixture
def collapse(double_hom_category):
    """Identity on objects; both basis arrows x→y go to the first one."""
    c4 = double_hom_category
    basis_xy = hom_space_basis(c4, c4.obj("x"), c4.obj("y"))
    return Functor(
        c4, c4,
        {x: c4.obj(x) for x in c4.objects},
        {("x", "x"): (c4.obj("x").identity(),),
         ("y", "y"): (c4.obj("y").identity(),),
         ("x", "y"): (basis_xy[0], basis_xy[0])},
        name="collapse")


class TestFullyFaithfulOn:
    def test_identity_bijective(self, c2_q):
        idf = Functor.identity(c2_q)
        pairs = [(c2_q.obj(x), c2_q.obj(y)) for x in c2_q.objects for y in c2_q.objects]
        for rec in fully_faithful_on(idf, pairs):
            assert rec["bijective"]

    def test_collapse_on_double_hom_reports_rank_one(self, double_hom_category, collapse):
        c4 = double_hom_category
        assert validate_functor(collapse).passed
        rec = fully_faithful_on(collapse, [(c4.obj("x"), c4.obj("y"))])[0]
        assert not rec["bijective"]
        assert rec["rank"] == 1
        assert rec["dim_source"] == 2

    def test_collapse_has_no_fully_faithful_witness(self, collapse):
        with pytest.raises(NotFullyFaithfulError):
            fully_faithful_witness(collapse)


def test_witness_roundtrip_from_xi(adj_z2_q):
    # extract a section from a solved witness, rebuild a witness from it,
    # and check the rebuilt one satisfies the same laws
    w = separability_solve(adj_z2_q.G)
    xi = extract_section(adj_z2_q, w)
    w2 = witness_from_section(adj_z2_q, xi)
    assert w2.verify().passed


def _defining_sum(f, x, y, vec):
    """Σ_t c_t·F(b_t) over every hom-basis index, starting from the zero morphism."""
    out = zero_morphism(f.object_map[x], f.object_map[y])
    for t, c in enumerate(vec):
        out = out + f.hom_map[(x, y)][t].scale(c)
    return out


def test_on_hom_vec_is_the_defining_sum(QQ, monad_z2_q, act_swap_q, adj_z2_q, cw_q):
    rng = random.Random(11)
    pt = cw_q.obj("pt")
    # Galois conjugation w ↦ w² = -1 - w: basis images share coordinates
    conj = Functor(cw_q, cw_q, {"pt": pt},
                   {("pt", "pt"): (pt.identity(),
                                   Morphism.from_coords(cw_q, pt, pt, [-QQ.one(), -QQ.one()]))},
                   name="conj")
    assert validate_functor(conj).passed
    functors = [monad_z2_q.functor, act_swap_q.monad_functor,
                adj_z2_q.F, adj_z2_q.G, Functor.identity(cw_q), conj]
    for f in functors:
        src = f.source
        for x in src.objects:
            for y in src.objects:
                d = src.hom_dim(x, y)
                if not d:
                    continue
                vecs = [[QQ.zero()] * d]
                for t in range(d):
                    vecs.append([QQ.one() if s == t else QQ.zero() for s in range(d)])
                for _ in range(3):
                    vecs.append([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)])
                for vec in vecs:
                    assert f.on_hom_vec(x, y, vec) == _defining_sum(f, x, y, vec)
                # unknown coordinates, and all-zero forms
                unknown = MorSystem(QQ).unknown(src.obj(x), src.obj(y))
                for vec in (list(unknown.blocks[0][0]), [LinForm(QQ.zero())] * d):
                    assert f.on_hom_vec(x, y, vec) == _defining_sum(f, x, y, vec)


def test_component_at_a_sum_is_diagonal_and_checks_endpoints(c3_q):
    idf = Functor.identity(c3_q)
    x, y = c3_q.obj("x"), c3_q.obj("y")
    ident = NatTrans(idf, idf, {"x": x.identity(), "y": y.identity()})
    half, xx = Fraction(1, 2), c3_q.obj("x", "x")
    for a in (c3_q.obj("x", "y"), c3_q.obj("y", "x", "y"),
              CatObject(c3_q, xx.summands,
                        Morphism(c3_q, xx, xx, [[(half,), (half,)], [(half,), (half,)]]))):
        assert ident.at(a) == a.identity()
    # End(x) and End(y) have the same dimension, so only the endpoints tell them apart
    swapped = NatTrans(idf, idf, {"x": x.identity(), "y": x.identity()})
    assert swapped.at(x) == x.identity()
    with pytest.raises(ValueError, match="component at y"):
        swapped.at(c3_q.obj("x", "y"))

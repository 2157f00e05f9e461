"""Groups, strict actions, equivariant objects, the induced adjunction, the
group monad with its Kronecker multiplication, the dictionary, and the
Maschke section."""

import random
from fractions import Fraction

import pytest

from sepcat import (EquivariantObject, FiniteGroup, Functor, GroupAction,
                    Infeasible, Monad, MonadSepWitness,
                    Morphism, NonInvertibleComponentError,
                    NotInvertibleError, eq_hom_space,
                    equivariant_category, equivariant_monad, express_in_basis,
                    free_equivariant, induce_adjunction,
                    monad_from_adjunction, monad_separability_solve,
                    separability_solve, sigma_from_xi, to_equivariant,
                    to_module, transfer_witness, validate_action,
                    validate_adjunction, validate_monad, xi_forgetful,
                    xi_section, zero_morphism)
from sepcat.category import LinearCategory, random_hom, validate_presentation
from sepcat.equivariant import character_modules, group_monad_functor
from sepcat.functors import SepWitness
from sepcat.standard import dual_numbers_category


def character_object(action, values, name=""):
    """An equivariant object on the point carrier with scalar α values."""
    cat = action.base
    pt = cat.obj("pt")
    alpha = {}
    for g, v in values.items():
        alpha[g] = pt.identity().scale(Fraction(v))
    return EquivariantObject(action, pt, alpha, name=name)


class TestGroups:
    def test_cyclic_and_symmetric_validate(self, z2, z3, s3):
        for g in (z2, z3, s3):
            assert g.validate().passed
        assert s3.order == 6

    def test_broken_table_fails(self):
        bad = FiniteGroup(["e", "g"], {("e", "e"): "e", ("e", "g"): "g",
                                       ("g", "e"): "g", ("g", "g"): "g"}, unit="e")
        rep = bad.validate()
        assert not rep.passed

    def test_inverses_and_orders(self, s3):
        for g in s3.elements:
            assert s3.mult(g, s3.inv(g)) == s3.unit
        assert sorted({s3.element_order(g) for g in s3.elements}) == [1, 2, 3]


class TestValidateAction:
    def test_trivial_action_passes(self, act_z2_q):
        assert validate_action(act_z2_q).passed

    def test_swap_action_passes(self, act_swap_q):
        assert validate_action(act_swap_q).passed

    def test_non_involution_fails_strictness(self, QQ, z2):
        cd = dual_numbers_category(QQ)
        double_eps = Functor(
            cd, cd, {"pt": cd.obj("pt")},
            {("pt", "pt"): (cd.obj("pt").identity(),
                            Morphism(cd, cd.obj("pt"), cd.obj("pt"),
                                     (((QQ.zero(), Fraction(2)),),)))},
            name="eps↦2eps")
        act = GroupAction(z2, cd, {"e": Functor.identity(cd), "g": double_eps})
        rep = validate_action(act)
        assert not rep.passed
        assert any("Φ_g∘Φ_h" in name for name, _ in rep.failures())


class TestEqHomSpaces:
    def test_trivial_to_trivial_dimension_one(self, act_z2_q):
        plus = character_object(act_z2_q, {"e": 1, "g": 1}, "triv")
        assert len(eq_hom_space(plus, plus)) == 1

    def test_trivial_to_sign_dimension_zero(self, act_z2_q):
        plus = character_object(act_z2_q, {"e": 1, "g": 1}, "triv")
        minus = character_object(act_z2_q, {"e": 1, "g": -1}, "sign")
        assert eq_hom_space(plus, minus) == []

    def test_identity_is_equivariant(self, act_z2_q, act_swap_q, c1_q, c3_q):
        for act, cat in ((act_z2_q, c1_q), (act_swap_q, c3_q)):
            z = free_equivariant(act, cat.obj(cat.objects[0]))
            basis = eq_hom_space(z, z)
            express_in_basis(z.carrier.identity(), basis)


class TestInduceAdjunction:
    def test_unit_is_id_then_zeros(self, adj_z2_q):
        eta = adj_z2_q.unit.components["pt"]
        assert eta.blocks == (((Fraction(1),),), ((Fraction(0),),))

    def test_counit_realizes_inverse_row(self, adj_z2_q, eqcat_z2_q):
        # U(ε at the sign object) = [β_e^{-1}, β_g^{-1}] = [1, −1]
        u = adj_z2_q.G
        eps_p = adj_z2_q.counit.components["sign"]
        realized = u.on_morphism(eps_p)
        assert realized.blocks == (((Fraction(1),), (Fraction(-1),)),)

    def test_triangle_identities_on_the_fixture_matrix(
            self, z2, z3, s3, c1_q, c3_q, act_z2_q, act_z3_q, act_s3_q, act_swap_q):
        from sepcat import GroupAction
        triv_z3_c3 = GroupAction.trivial(z3, c3_q, name="Z3 on C3")
        for act in (act_z2_q, act_z3_q, act_swap_q, triv_z3_c3, act_s3_q):
            adj = induce_adjunction(equivariant_category(act))
            assert validate_adjunction(adj).passed

    def test_swap_free_objects_validate(self, act_swap_q, c3_q):
        fx = free_equivariant(act_swap_q, c3_q.obj("x"))
        assert fx.carrier.summands == ("x", "y")
        assert fx.validate().passed


class TestGroupMonad:
    def test_z2_mult_blocks_follow_kronecker_delta(self, monad_z2_q, z2):
        # block (h', (h, g)) is δ_{hg,h'}·Id; the flattening is (g outer, h inner)
        mu = monad_z2_q.mult.components["pt"]
        els = z2.elements
        n = 2
        one, zero = Fraction(1), Fraction(0)
        for t in range(n):
            for j in range(n):
                for i in range(n):
                    want = one if z2.mult(els[i], els[j]) == els[t] else zero
                    assert mu.blocks[t][j * n + i] == (want,)

    def test_monad_laws_for_fixture_groups(self, act_z2_q, act_z3_q, act_s3_q):
        for act in (act_z2_q, act_z3_q, act_s3_q):
            assert validate_monad(equivariant_monad(act)).passed

    def test_identity_group_gives_identity_monad(self, c1_q):
        e_grp = FiniteGroup.cyclic(1)
        act = GroupAction.trivial(e_grp, c1_q)
        m = equivariant_monad(act)
        assert m.components_equal(Monad.identity_monad(c1_q))

    def test_matches_adjunction_defined_monad(self, adj_z2_q, monad_z2_q, act_swap_q):
        assert monad_from_adjunction(adj_z2_q).components_equal(monad_z2_q)
        adj_swap = induce_adjunction(equivariant_category(act_swap_q))
        assert monad_from_adjunction(adj_swap).components_equal(
            equivariant_monad(act_swap_q))


class TestDictionary:
    def test_sign_character_maps_to_inverted_row(self, act_z2_q, monad_z2_q):
        minus = character_object(act_z2_q, {"e": 1, "g": -1}, "sign")
        assert minus.validate().passed
        mod = to_module(minus, monad=monad_z2_q)
        assert mod.action.blocks == (((Fraction(1),), (Fraction(-1),)),)

    def test_roundtrip_is_identity_on_data(self, act_z2_q, act_swap_q, act_s3_q,
                                            monad_z2_q, c1_q, c3_q):
        fixtures = [
            character_object(act_z2_q, {"e": 1, "g": 1}, "triv"),
            character_object(act_z2_q, {"e": 1, "g": -1}, "sign"),
            free_equivariant(act_z2_q, c1_q.obj("pt")),
            free_equivariant(act_swap_q, c3_q.obj("x")),
            free_equivariant(act_swap_q, c3_q.obj("y")),
            free_equivariant(act_s3_q, c1_q.obj("pt")),
        ]
        for z in fixtures:
            mod = to_module(z)
            back = to_equivariant(mod, z.action)
            assert back.carrier == z.carrier
            assert back.alpha == z.alpha

    def test_hom_dimensions_agree_on_random_pairs(self, act_z2_q, monad_z2_q, c1_q):
        from sepcat import module_hom_basis
        rng = random.Random(42)
        pool = [
            character_object(act_z2_q, {"e": 1, "g": 1}, "triv"),
            character_object(act_z2_q, {"e": 1, "g": -1}, "sign"),
            free_equivariant(act_z2_q, c1_q.obj("pt")),
        ]
        for _ in range(5):
            a = pool[rng.randrange(len(pool))]
            b = pool[rng.randrange(len(pool))]
            d_eq = len(eq_hom_space(a, b))
            d_mod = len(module_hom_basis(to_module(a, monad=monad_z2_q),
                                         to_module(b, monad=monad_z2_q)))
            assert d_eq == d_mod


class TestXiForgetful:
    def test_sign_object_formula(self, act_z2_q):
        minus = character_object(act_z2_q, {"e": 1, "g": -1}, "sign")
        xi = xi_forgetful(act_z2_q, minus)
        half = Fraction(1, 2)
        assert xi.blocks == (((half,),), ((-half,),))

    def test_trivial_group_gives_identity(self, c1_q):
        act = GroupAction.trivial(FiniteGroup.cyclic(1), c1_q)
        z = free_equivariant(act, c1_q.obj("pt"))
        xi = xi_forgetful(act, z)
        assert xi.blocks == ((( Fraction(1),),),)

    def test_f2_raises_not_invertible(self, act_z2_f2, c1_f2):
        z = free_equivariant(act_z2_f2, c1_f2.obj("pt"))
        with pytest.raises(NotInvertibleError):
            xi_forgetful(act_z2_f2, z)

    def test_naturality_against_sampled_equivariant_morphisms(self, act_z2_q, c1_q):
        mf = group_monad_functor(act_z2_q)
        triv = character_object(act_z2_q, {"e": 1, "g": 1}, "triv")
        free = free_equivariant(act_z2_q, c1_q.obj("pt"))
        rng = random.Random(9)
        for a, b in ((triv, free), (free, triv), (free, free), (triv, triv)):
            basis = eq_hom_space(a, b)
            if not basis:
                continue
            theta = basis[rng.randrange(len(basis))]
            lhs = mf.on_morphism(theta) @ xi_forgetful(act_z2_q, a)
            rhs = xi_forgetful(act_z2_q, b) @ theta
            assert lhs == rhs


class TestAdjunctionBijection:
    def test_equivariance_condition_matches_solved_constraints(self, act_z2_q, c1_q):
        # a block row F(X) → (Y, β) is a morphism of equivariant objects iff
        # ^g(θ_h) = β_g∘θ_{gh} for all g, h; both characterizations agree
        act = act_z2_q
        group = act.group
        free = free_equivariant(act, c1_q.obj("pt"))
        sign = character_object(act, {"e": 1, "g": -1}, "sign")
        basis = eq_hom_space(free, sign)
        rng = random.Random(13)
        for _ in range(12):
            theta = random_hom(c1_q, free.carrier, sign.carrier, rng)
            blocks = {h: theta.blocks[0][group.index(h)][0] for h in group.elements}
            direct = all(
                blocks[h] == Fraction(-1 if g == "g" else 1) * blocks[group.mult(g, h)]
                for g in group.elements for h in group.elements)
            try:
                express_in_basis(theta, basis)
                in_span = True
            except ValueError:
                in_span = not any(theta.coords()) if not basis else False
            assert direct == in_span


class TestMaschkePipeline:
    def test_from_xi_yields_witness_for_forgetful(self, adj_z2_q, eqcat_z2_q):
        xi = xi_section(eqcat_z2_q, adj_z2_q)
        w = transfer_witness("from-xi", adj_z2_q, xi)
        assert isinstance(w, SepWitness)
        assert w.functor is adj_z2_q.G

    def test_sigma_from_xi_matches_direct_solve(self, adj_z2_q, eqcat_z2_q,
                                                adj_z3_q, eqcat_z3_q):
        for adj, eqc in ((adj_z2_q, eqcat_z2_q), (adj_z3_q, eqcat_z3_q)):
            monad = monad_from_adjunction(adj)
            xi = xi_section(eqc, adj)
            via_xi = sigma_from_xi(adj, xi, monad=monad)
            direct = monad_separability_solve(monad)
            assert isinstance(direct, MonadSepWitness)
            assert via_xi.verify().passed

    def test_f2_both_routes_fail(self, act_z2_f2, adj_z2_f2):
        assert isinstance(monad_separability_solve(equivariant_monad(act_z2_f2)),
                          Infeasible)
        assert isinstance(separability_solve(adj_z2_f2.G), Infeasible)


class TestCharacterEnumeration:
    def test_z2_over_q(self, act_z2_q, monad_z2_q):
        names = sorted(m.name for m in character_modules(act_z2_q, monad=monad_z2_q))
        assert names == ["char(pt; -1)", "char(pt; 1)"]

    def test_z3_over_plain_q_only_trivial(self, act_z3_q):
        mods = character_modules(act_z3_q)
        assert [m.name for m in mods] == ["char(pt; 1)"]

    def test_z3_over_cyclotomic_finds_all_three(self, act_z3_qw):
        mods = character_modules(act_z3_qw)
        assert len(mods) == 3

    def test_rejected_over_prime_fields(self, act_z2_f2):
        with pytest.raises(ValueError):
            character_modules(act_z2_f2)

    def test_isolated_points_beside_a_family(self, QQ, z2):
        # End(pt) = M_2(Q), basis E11, E12, E21, E22: t² = Id is solved by ±Id
        # and by a 2-dimensional family of reflections
        one, zero = QQ.one(), QQ.zero()
        table = [[tuple(one if (g % 2 == f // 2 and c == 2 * (g // 2) + f % 2) else zero
                        for c in range(4)) for f in range(4)] for g in range(4)]
        m2 = LinearCategory(QQ, ["pt"], {("pt", "pt"): 4}, {("pt", "pt", "pt"): table},
                            {"pt": (one, zero, zero, one)}, name="M2")
        assert validate_presentation(m2).passed
        names = {m.name for m in character_modules(GroupAction.trivial(z2, m2))}
        assert {"char(pt; 1,0,0,1)", "char(pt; -1,0,0,-1)"} <= names


def test_cocycle_implies_alpha_e_identity(act_z2_q, act_swap_q, c1_q, c3_q):
    for act, cat in ((act_z2_q, c1_q), (act_swap_q, c3_q)):
        for x in cat.objects:
            z = free_equivariant(act, cat.obj(x))
            assert z.alpha[act.group.unit] == z.carrier.identity()
            assert z.validate().passed


def test_to_module_rejects_non_invertible_alpha_on_every_call(act_z2_q, monad_z2_q, c1_q):
    pt = c1_q.obj("pt")
    # never validated: α_g = 0 has no inverse
    z = EquivariantObject(act_z2_q, pt, {"e": pt.identity(), "g": zero_morphism(pt, pt)},
                          name="singular")
    for _ in range(2):
        with pytest.raises(NonInvertibleComponentError):
            to_module(z, monad=monad_z2_q)
    with pytest.raises(NonInvertibleComponentError):
        xi_forgetful(act_z2_q, z)

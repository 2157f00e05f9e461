"""Modules over a monad, the comparison functor, retracts and essential preimages."""

from fractions import Fraction

import pytest

from sepcat import (Comparison, EmAdjunction, Functor, Infeasible, MModule, ModuleMor, Monad,
                    MonadSepWitness, Morphism, NatTrans, check_equiv_up_to_retracts,
                    compose_functors, essential_preimage,
                    equivariant_monad, free_module, module_hom_basis,
                    monad_from_adjunction,
                    monad_separability_solve, xi_em_from_sigma)
from sepcat.category import CatObject
from sepcat.equivariant import character_modules
from sepcat.errors import LawViolationError
from sepcat.functors import Adjunction
from sepcat.modules import validate_module


def identity_adjunction(cat):
    idf = Functor.identity(cat)
    ident = {x: cat.obj(x).identity() for x in cat.objects}
    return Adjunction(idf, idf, NatTrans(idf, compose_functors(idf, idf), dict(ident)),
                      NatTrans(compose_functors(idf, idf), idf, dict(ident)))


def row_module(monad, values, name=""):
    """A module on the point carrier given by its row of scalars over G."""
    cat = monad.cat
    mx = monad.functor.object_map["pt"]
    row = tuple((Fraction(v),) for v in values)
    lam = Morphism(cat, mx, cat.obj("pt"), (row,))
    return MModule(monad, cat.obj("pt"), lam, name=name)


@pytest.fixture(scope="module")
def sigma_z2(monad_z2_q):
    w = monad_separability_solve(monad_z2_q)
    assert isinstance(w, MonadSepWitness)
    return w


class TestValidateModule:
    def test_free_module_always_validates(self, monad_z2_q, c1_q):
        for x in (c1_q.obj("pt"),):
            assert validate_module(free_module(monad_z2_q, x)).passed

    def test_sign_character_validates(self, monad_z2_q):
        sign = row_module(monad_z2_q, [1, -1], name="sign")
        assert validate_module(sign).passed

    def test_wrong_row_fails_associativity(self, monad_z2_q):
        bad = row_module(monad_z2_q, [1, 2], name="bad")
        rep = validate_module(bad)
        assert not rep.passed
        assert any("associativity" in name for name, _ in rep.failures())


class TestModuleHomBasis:
    def test_free_free_dimension_two(self, monad_z2_q, c1_q):
        # Hom(free(pt), free(pt)) ≅ Hom_C(pt, M(pt)), which is 2-dimensional
        f = free_module(monad_z2_q, c1_q.obj("pt"))
        basis = module_hom_basis(f, f)
        assert len(basis) == 2
        for b in basis:
            assert b.verify().passed

    def test_trivial_to_sign_dimension_zero(self, chars_z2_q):
        assert module_hom_basis(chars_z2_q["triv"], chars_z2_q["sign"]) == []

    def test_endomorphisms_contain_identity(self, chars_z2_q, monad_z2_q, c1_q):
        for m in (chars_z2_q["triv"], chars_z2_q["sign"],
                  free_module(monad_z2_q, c1_q.obj("pt"))):
            basis = module_hom_basis(m, m)
            assert len(basis) >= 1
            ident = m.carrier.identity()
            from sepcat.linalg import coordinate_map
            # raises if not in span
            coordinate_map([b.mor.coords() for b in basis], ident.cat.field)(ident.coords())


class TestEmAdjunction:
    def test_identity_monad_free_is_identity(self, c1_q):
        em = EmAdjunction(Monad.identity_monad(c1_q))
        fm = em.free(c1_q.obj("pt"))
        assert fm.carrier == c1_q.obj("pt")
        assert fm.action == c1_q.obj("pt").identity()

    def test_counit_at_sign_is_the_action_row(self, monad_z2_q, chars_z2_q):
        em = EmAdjunction(monad_z2_q)
        eps = em.counit_at(chars_z2_q["sign"])
        want = tuple((Fraction(v),) for v in (1, -1))
        assert eps.mor.blocks == (want,)

    def test_triangles_on_samples(self, monad_z2_q, chars_z2_q, c1_q):
        em = EmAdjunction(monad_z2_q)
        samples = [chars_z2_q["triv"], chars_z2_q["sign"],
                   free_module(monad_z2_q, c1_q.obj("pt"))]
        assert em.validate(samples).passed

    def test_defined_monad_componentwise(self, monad_z2_q):
        em = EmAdjunction(monad_z2_q)
        assert em.defined_monad().components_equal(monad_z2_q)


class TestComparison:
    def test_identity_adjunction_comparison_is_identity(self, c1_q):
        k = Comparison(identity_adjunction(c1_q))
        mod = k.on_object(c1_q.obj("pt"))
        assert mod.carrier == c1_q.obj("pt")
        assert mod.action == c1_q.obj("pt").identity()

    def test_dictionary_object_maps_to_inverted_row(self, adj_z2_q, eqcat_z2_q):
        # K(•, α with α_g = −1) = (•, λ with λ_g = −1)
        monad = monad_from_adjunction(adj_z2_q)
        k = Comparison(adj_z2_q, monad)
        mod = k.on_object(eqcat_z2_q.cat.obj("sign"))
        want = tuple((Fraction(v),) for v in (1, -1))
        assert mod.action.blocks == (want,)

    def test_comparison_of_free_is_free(self, adj_z2_q):
        monad = monad_from_adjunction(adj_z2_q)
        k = Comparison(adj_z2_q, monad)
        for x in monad.cat.objects:
            fx = adj_z2_q.F.object_map[x]
            mod = k.on_object(fx)
            fm = free_module(monad, monad.cat.obj(x))
            assert mod.carrier == fm.carrier and mod.action == fm.action

    def test_fully_faithful_on_image_pairs(self, adj_z2_q):
        # the comparison functor is bijective on homs between F-images
        monad = monad_from_adjunction(adj_z2_q)
        k = Comparison(adj_z2_q, monad)
        fobjs = [adj_z2_q.F.object_map[x] for x in monad.cat.objects]
        for rec in k.fully_faithful_on([(a, b) for a in fobjs for b in fobjs]):
            assert rec["bijective"]

    def test_comparison_on_morphisms_and_dispatcher(self, adj_z2_q, eqcat_z2_q):
        k = Comparison(adj_z2_q, monad_from_adjunction(adj_z2_q))
        pcat = eqcat_z2_q.cat
        f = pcat.obj("F(pt)").identity()
        km = k.on_morphism(f)
        assert km.verify().passed
        assert km.mor == adj_z2_q.G.on_morphism(f)   # G_M∘K = G on morphisms
        mod = k.on_object(pcat.obj("sign"))
        assert mod.carrier == adj_z2_q.G.object_map["sign"]

    def test_fully_faithful_on_validates_each_distinct_image_once(self, c1_q, monkeypatch):
        # pt⊕pt split by an idempotent holding 1, and the equal object holding Fraction(1):
        # K keys its images as the functors' caches do, so the two stay apart
        import sepcat.modules
        adj = identity_adjunction(c1_q)
        pt2 = c1_q.obj("pt", "pt")
        split = [CatObject(c1_q, pt2.summands, Morphism(c1_q, pt2, pt2, (((one,), (0,)),
                                                                          ((0,), (0,)))))
                 for one in (1, Fraction(1))]
        assert split[0] == split[1] and split[0].key != split[1].key
        objects = [c1_q.obj("pt"), pt2, *split]
        validated, real = [], sepcat.modules.validate_module
        monkeypatch.setattr(sepcat.modules, "validate_module",
                            lambda m: validated.append(m) or real(m))
        k = Comparison(adj)
        recs = k.fully_faithful_on([(a, b) for a in objects for b in objects])
        assert all(rec["bijective"] for rec in recs)
        assert [m.carrier.key for m in validated] == [d.key for d in objects]
        assert [type(k.on_object(d).carrier.idem.blocks[0][0][0]) for d in split] == [int, Fraction]
        assert len(validated) == len(objects)

    def test_a_failing_image_raises_on_every_call(self, c1_q):
        adj = identity_adjunction(c1_q)
        m = monad_from_adjunction(adj)
        doubled = NatTrans(m.unit.src, m.unit.dst,
                           {"pt": m.unit.components["pt"].scale(Fraction(2))}, name="2η")
        k = Comparison(adj, Monad(m.functor, doubled, m.mult))
        for _ in range(2):
            with pytest.raises(LawViolationError, match="comparison image"):
                k.on_object(c1_q.obj("pt"))

    def test_comparison_agrees_with_dictionary_on_all_objects(self, adj_z2_q, eqcat_z2_q):
        # K applied to a presented equivariant object equals its dictionary image
        from sepcat import to_module
        monad = monad_from_adjunction(adj_z2_q)
        k = Comparison(adj_z2_q, monad)
        for label in eqcat_z2_q.labels:
            km = k.on_object(eqcat_z2_q.cat.obj(label))
            dm = to_module(eqcat_z2_q.objects[label], monad=monad)
            assert km.carrier == dm.carrier and km.action == dm.action


class TestXiEm:
    def test_identity_monad_gives_identity_section(self, c1_q):
        m = Monad.identity_monad(c1_q)
        w = monad_separability_solve(m)
        mod = MModule(m, c1_q.obj("pt"), c1_q.obj("pt").identity())
        s = xi_em_from_sigma(w, mod)
        assert s.mor == c1_q.obj("pt").identity()

    def test_sign_module_section_law(self, sigma_z2, chars_z2_q):
        s = xi_em_from_sigma(sigma_z2, chars_z2_q["sign"])
        assert chars_z2_q["sign"].action @ s.mor == chars_z2_q["sign"].carrier.identity()

    def test_trivial_module_section_value(self, sigma_z2, chars_z2_q):
        # the law always holds; for the pinned Z/2 σ the section is (1/2)(1,1)^t
        s = xi_em_from_sigma(sigma_z2, chars_z2_q["triv"])
        assert chars_z2_q["triv"].action @ s.mor == chars_z2_q["triv"].carrier.identity()
        half = Fraction(1, 2)
        assert s.mor.blocks == (((half,),), ((half,),))


class TestEquivUpToRetracts:
    def test_z2_over_q_passes(self, adj_z2_q, eqcat_z2_q, chars_z2_q, c1_q):
        monad = monad_from_adjunction(adj_z2_q)
        sw = monad_separability_solve(monad)
        objects = [eqcat_z2_q.cat.obj(l) for l in eqcat_z2_q.labels]
        modules = [chars_z2_q["triv"], chars_z2_q["sign"],
                   free_module(monad, c1_q.obj("pt"))]
        modules = [MModule(monad, m.carrier, m.action, name=m.name) for m in modules]
        rep = check_equiv_up_to_retracts(adj_z2_q, sw, objects, modules)
        assert rep.passed

    def test_f2_has_no_sigma_so_the_check_cannot_run(self, adj_z2_f2):
        # contrapositive of the only-if direction: no σ exists over F_2
        monad = monad_from_adjunction(adj_z2_f2)
        assert isinstance(monad_separability_solve(monad), Infeasible)


class TestEssentialPreimage:
    def test_identity_adjunction_free_module(self, c1_q):
        idf = Functor.identity(c1_q)
        ident = {"pt": c1_q.obj("pt").identity()}
        adj = Adjunction(idf, idf,
                         NatTrans(idf, compose_functors(idf, idf), dict(ident)),
                         NatTrans(compose_functors(idf, idf), idf, dict(ident)))
        monad = monad_from_adjunction(adj)
        sw = monad_separability_solve(monad)
        mod = free_module(monad, c1_q.obj("pt"))
        small, i_to, i_from = essential_preimage(adj, sw, mod)
        assert small == c1_q.obj("pt")
        assert i_to.mor == c1_q.obj("pt").identity()
        assert i_from.mor == c1_q.obj("pt").identity()

    def test_z2_characters(self, adj_z2_q, chars_z2_q):
        monad = monad_from_adjunction(adj_z2_q)
        sw = monad_separability_solve(monad)
        for name in ("triv", "sign"):
            src = chars_z2_q[name]
            mod = MModule(monad, src.carrier, src.action, name=src.name)
            small, i_to, i_from = essential_preimage(adj_z2_q, sw, mod)
            assert (i_to @ i_from).mor == mod.carrier.identity()
            assert (i_from @ i_to).mor == i_from.dst.carrier.identity()
            # the split lives on F(pt) and carries a rank-one idempotent
            assert small.summands == ("F(pt)",)
            assert small.idem is not None

    def test_preimages_do_not_depend_on_the_module_basis(self, adj_z2_q, chars_z2_q,
                                                         monkeypatch):
        # every fixture's K is the identity matrix on Hom(F X, F X) in the chosen bases;
        # reversing and doubling the module basis makes it not, and ê must not move
        import sepcat.modules
        monad = monad_from_adjunction(adj_z2_q)
        sw = monad_separability_solve(monad)
        mods = [free_module(monad, monad.cat.obj("pt"))] + [
            MModule(monad, m.carrier, m.action, name=m.name) for m in chars_z2_q.values()]

        def preimages():
            return [(small, i_to.mor, i_from.mor)
                    for small, i_to, i_from in (essential_preimage(adj_z2_q, sw, m) for m in mods)]

        def k_matrix(m):
            fx = adj_z2_q.F.on_object(m.carrier)
            return Comparison(adj_z2_q, monad).hom_matrix(fx, fx)[0]

        want, identities = preimages(), [k_matrix(m) for m in mods]
        assert all(cols == [[int(i == j) for i in range(len(cols))] for j in range(len(cols))]
                   for cols in identities)
        basis = sepcat.modules.module_hom_basis
        two = monad.cat.field.from_int(2)
        monkeypatch.setattr(sepcat.modules, "module_hom_basis", lambda a, b: [
            ModuleMor(a, b, m.mor.scale(two)) for m in reversed(basis(a, b))])
        assert all(k_matrix(m) != cols for m, cols in zip(mods, identities))
        assert preimages() == want

    def test_z3_cyclotomic_characters(self, act_z3_qw):
        from sepcat import equivariant_category, induce_adjunction, to_equivariant
        monad0 = equivariant_monad(act_z3_qw)
        chars = character_modules(act_z3_qw, monad=monad0)
        assert len(chars) == 3
        extras = {f"chi{i}": to_equivariant(m, act_z3_qw) for i, m in enumerate(chars)}
        eq = equivariant_category(act_z3_qw, extra=extras)
        adj = induce_adjunction(eq)
        monad = monad_from_adjunction(adj)
        sw = monad_separability_solve(monad)
        assert isinstance(sw, MonadSepWitness)
        nontrivial = 0
        for m in chars:
            mod = MModule(monad, m.carrier, m.action, name=m.name)
            small, i_to, i_from = essential_preimage(adj, sw, mod)
            assert (i_to @ i_from).mor == mod.carrier.identity()
            if small.idem is not None:
                nontrivial += 1
        assert nontrivial >= 2  # the two nontrivial characters split off genuinely

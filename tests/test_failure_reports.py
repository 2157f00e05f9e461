"""Failing law checks, pinned: check names, counts and failure details.

The golden reports of the fixture commands hold only passing checks, so they
never show what a check says when its law fails.  Each case below breaks one
law family on purpose and pins the whole report it gives: one check per law
family, its count where the name carries one, and the places where it fails,
in order.  The texts were recorded before the checks were rewritten to read
law lists; only the `validate_section` report is new with that rewrite.
"""

import pytest

from sepcat import (Adjunction, BoundedComplex, ChainMap, EquivariantObject, Field, FiniteGroup,
                    Functor, GroupAction, LawViolationError, LiftedMonad, Monad, MonadSepWitness,
                    ModuleComplex, NatTrans, PreconditionError, SepWitness, equivariant_category,
                    equivariant_monad, extract_section, induce_adjunction,
                    monad_separability_solve, separability_solve, sigma_from_xi,
                    transfer_witness)
from sepcat.category import LinearCategory, Morphism, validate_presentation
from sepcat.complexes import module_complex_retract, validate_complex
from sepcat.equivariant import character_modules, validate_action
from sepcat.functors import validate_adjunction, validate_functor, validate_nat, validate_section
from sepcat.modules import EmAdjunction, MModule
from sepcat.monads import validate_monad
from sepcat.standard import a2_quiver_category, point_category

QQ = Field.rationals()
TWO = QQ.from_int(2)


def doubled(comps):
    return {x: c.scale(TWO) for x, c in comps.items()}


def bumped(m: Morphism, k: int = 0) -> Morphism:
    """m plus the unit morphism at ambient coordinate k."""
    coords = [QQ.one() if i == k else QQ.zero() for i in range(len(m.coords()))]
    return m + Morphism.from_coords(m.cat, m.dom, m.cod, coords)


def z2_action():
    return GroupAction.trivial(FiniteGroup.cyclic(2), point_category(QQ), name="Z2 on C1")


def z2_adjunction():
    return induce_adjunction(equivariant_category(z2_action()))


def bumped_witness(n, columns):
    """The solved witness for the Z/n forgetful functor on C1, moved at (0, j) for j in columns."""
    g = induce_adjunction(equivariant_category(
        GroupAction.trivial(FiniteGroup.cyclic(n), point_category(QQ)))).G
    maps = dict(separability_solve(g).maps)
    cols = [list(col) for col in maps[("F(pt)", "F(pt)")]]
    for j in columns:
        cols[j][0] += QQ.one()
    maps[("F(pt)", "F(pt)")] = cols
    return SepWitness(g, maps)


def z2_monad_and_characters():
    act = z2_action()
    m = equivariant_monad(act)
    chars = {("triv" if "; 1" in c.name else "sign"): c for c in character_modules(act, monad=m)}
    return m, chars


def bumped_monad(m):
    """m with one entry of μ moved: associativity and both unit laws fail."""
    mult = NatTrans(m.mult.src, m.mult.dst, {"pt": bumped(m.mult.components["pt"])}, name="μ'")
    return Monad(m.functor, m.unit, mult, name="μ'")


def doubled_unit_monad(m):
    """m with η doubled: both unit laws fail, and so do both free/forgetful triangles."""
    unit = NatTrans(m.unit.src, m.unit.dst, doubled(m.unit.components), name="2η")
    return Monad(m.functor, unit, m.mult, name="2η")


def bumped_sigma(m):
    """The solved σ with one entry moved: the section and bimodule laws fail."""
    w = monad_separability_solve(m)
    sigma = NatTrans(w.sigma.src, w.sigma.dst, {"pt": bumped(w.sigma.components["pt"])}, name="σ")
    return MonadSepWitness(m, sigma)


def case_presentation():
    # End(pt) with basis {1, e} and e∘1 = 1: a unit law and associativity fail
    one, zero = QQ.one(), QQ.zero()
    table = [[(one, zero), (zero, one)], [(one, zero), (zero, zero)]]
    cat = LinearCategory(QQ, ["pt"], {("pt", "pt"): 2}, {("pt", "pt", "pt"): table},
                         {"pt": (one, zero)},
                         basis_labels={("pt", "pt", 0): "1", ("pt", "pt", 1): "e"}, name="broken")
    return validate_presentation(cat)


def doubled_identity_functor(cat):
    idf = Functor.identity(cat)
    return Functor(cat, cat, idf.object_map,
                   {k: tuple(m.scale(TWO) for m in v) for k, v in idf.hom_map.items()}, name="2·Id")


def case_functor():
    return validate_functor(doubled_identity_functor(a2_quiver_category(QQ)))


def case_nat():
    c2 = a2_quiver_category(QQ)
    idf = Functor.identity(c2)
    comps = {"1": c2.obj("1").identity(), "2": c2.obj("2").identity().scale(QQ.zero())}
    return validate_nat(NatTrans(idf, idf, comps, name="τ"))


def case_nat_not_parallel():
    c1, c2 = point_category(QQ), a2_quiver_category(QQ)
    return validate_nat(NatTrans(Functor.identity(c1), Functor.identity(c2), {}, name="τ"))


def case_nat_missing_component():
    c2 = a2_quiver_category(QQ)
    idf = Functor.identity(c2)
    return validate_nat(NatTrans(idf, idf, {"1": c2.obj("1").identity()}, name="τ"))


def case_adjunction():
    adj = z2_adjunction()
    counit = NatTrans(adj.counit.src, adj.counit.dst, doubled(adj.counit.components), name="2ε")
    return validate_adjunction(Adjunction(adj.F, adj.G, adj.unit, counit, name="doubled"))


def case_monad():
    return validate_monad(bumped_monad(equivariant_monad(z2_action())))


def case_monad_witness():
    return bumped_sigma(equivariant_monad(z2_action())).verify()


def case_monad_witness_not_natural():
    act = GroupAction.trivial(FiniteGroup.cyclic(2), a2_quiver_category(QQ), name="Z2 on C2")
    m = equivariant_monad(act)
    w = monad_separability_solve(m)
    comps = dict(w.sigma.components)
    comps["1"] = comps["1"].scale(TWO)
    return MonadSepWitness(m, NatTrans(w.sigma.src, w.sigma.dst, comps, name="σ")).verify()


def case_functor_witness():
    return bumped_witness(2, [0]).verify()


def case_functor_witness_many_failures():
    # H(Fv∘g) = v∘H(g) fails at four places, all at the one generator v
    return bumped_witness(3, [0, 1]).verify()


def case_functor_witness_truncated():
    # H(Fv∘g) = v∘H(g) fails at eight places; its check names the first six
    return bumped_witness(4, [0, 1, 2, 3]).verify()


def case_equivariant_object():
    act = z2_action()
    pt = act.base.obj("pt")
    g = next(h for h in act.group.elements if h != act.group.unit)
    return EquivariantObject(act, pt, {act.group.unit: pt.identity(),
                                       g: pt.identity().scale(TWO)}, name="2α").validate()


def case_equivariant_object_missing_component():
    act = z2_action()
    pt = act.base.obj("pt")
    return EquivariantObject(act, pt, {act.group.unit: pt.identity()}, name="α_e").validate()


def case_action():
    c2 = a2_quiver_category(QQ)
    z3 = FiniteGroup.cyclic(3)
    idf, twice = Functor.identity(c2), doubled_identity_functor(c2)
    functors = {h: (idf if h == z3.unit else twice) for h in z3.elements}
    return validate_action(GroupAction(z3, c2, functors, name="not strict"))


def case_complex():
    c1 = point_category(QQ)
    pt = c1.obj("pt")
    return validate_complex(BoundedComplex(c1, {0: pt, 1: pt, 2: pt},
                                           {0: pt.identity(), 1: pt.identity()}, name="pt³"))


def case_chain_map():
    c1 = point_category(QQ)
    pt = c1.obj("pt")
    x = BoundedComplex(c1, {0: pt, 1: pt}, {0: pt.identity()}, name="cone")
    y = BoundedComplex(c1, {0: pt, 1: pt}, {0: pt.identity().scale(TWO)}, name="cone2")
    return ChainMap(x, y, {0: pt.identity(), 1: pt.identity()}).verify()


def case_lifted_monad():
    m, chars = z2_monad_and_characters()
    c = BoundedComplex(m.cat, {0: chars["triv"].carrier}, {}, name="triv[0]")
    return LiftedMonad(bumped_monad(m)).validate_on(c)


def case_lifted_monad_section():
    m, chars = z2_monad_and_characters()
    c = BoundedComplex(m.cat, {0: chars["triv"].carrier}, {}, name="triv[0]")
    return LiftedMonad(m).validate_on(c, bumped_sigma(m))


def case_module_complex():
    m, chars = z2_monad_and_characters()
    d = chars["triv"].carrier.identity()
    return ModuleComplex(m, {0: chars["triv"], 1: chars["sign"]}, {0: d},
                         name="triv→sign").validate()


def case_module_complex_retract():
    m, chars = z2_monad_and_characters()
    mc = ModuleComplex(m, {0: chars["triv"]}, {}, name="triv[0]")
    return module_complex_retract(bumped_sigma(m), mc)[2]


def case_em_adjunction():
    m, chars = z2_monad_and_characters()
    bad = doubled_unit_monad(m)
    mods = [MModule(bad, c.carrier, c.action, name=k) for k, c in sorted(chars.items())]
    return EmAdjunction(bad).validate(mods)


EXPECTED = {
    "action": [
        ('group Z/3: closed multiplication table', True, ''),
        ('group Z/3: associativity', True, ''),
        ('group Z/3: unit element', True, ''),
        ('group Z/3: inverses', True, ''),
        ('functor Id: hom images have the right endpoints', True, ''),
        ('functor Id: identity preservation (2 objects)', True, ''),
        ('functor Id: composition preservation (4 pairs)', True, ''),
        ('functor 2·Id: hom images have the right endpoints', True, ''),
        ('functor 2·Id: identity preservation (2 objects)', False, '1; 2'),
        ('functor 2·Id: composition preservation (4 pairs)',
         False,
         '(1->1[0], 1->1[0]); (a, 1->1[0]); (2->2[0], a); (2->2[0], 2->2[0])'),
        ('functor 2·Id: hom images have the right endpoints', True, ''),
        ('functor 2·Id: identity preservation (2 objects)', False, '1; 2'),
        ('functor 2·Id: composition preservation (4 pairs)',
         False,
         '(1->1[0], 1->1[0]); (a, 1->1[0]); (2->2[0], a); (2->2[0], 2->2[0])'),
        ('Φ_g permutes the base objects', True, ''),
        ('Φ_e is the identity presentation', True, ''),
        ('Φ_g∘Φ_h = Φ_gh', False, '(g,g); (g,g2); (g2,g); (g2,g2)'),
    ],
    "adjunction": [
        ('εF∘Fη = Id_F', False, 'pt'),
        ('Gε∘ηG = Id_G', False, 'F(pt)'),
    ],
    "chain_map": [
        ('commutes with differentials', False, '0'),
    ],
    "complex": [
        ('differentials have the right endpoints', True, ''),
        ('d∘d = 0', False, '0'),
    ],
    "em_adjunction": [
        ('ε_M F_M ∘ F_M η = Id', False, 'pt'),
        ('G_M ε_M ∘ η G_M = Id (2 modules)', False, "<MModule 'sign'>; <MModule 'triv'>"),
    ],
    "equivariant_object": [
        ('components α_g: X → ^gX present', True, ''),
        ('α_e = Id', True, ''),
        ("cocycle ^g(α_g')∘α_g = α_gg'", False, '(g,g)'),
        ('α_g invertible', False, 'g'),
    ],
    "equivariant_object_missing_component": [
        ('components α_g: X → ^gX present', False, 'g'),
    ],
    "functor": [
        ('hom images have the right endpoints', True, ''),
        ('identity preservation (2 objects)', False, '1; 2'),
        ('composition preservation (4 pairs)',
         False,
         '(1->1[0], 1->1[0]); (a, 1->1[0]); (2->2[0], a); (2->2[0], 2->2[0])'),
    ],
    "functor_witness": [
        ('retraction H(F(f)) = f (2 checks)', False, 'F(pt)->F(pt)[1]'),
        ('binaturality H(Fv∘g) = v∘H(g) (4 checks)',
         False,
         'v = F(pt)->F(pt)[0], g0 in binaturality (F(pt),F(pt))→(F(pt),F(pt)); v = '
         'F(pt)->F(pt)[0], g2 in binaturality (F(pt),F(pt))→(F(pt),F(pt))'),
        ('binaturality H(g∘Fu) = H(g)∘u (4 checks)',
         False,
         'u = F(pt)->F(pt)[0], g0 in binaturality (F(pt),F(pt))→(F(pt),F(pt)); u = '
         'F(pt)->F(pt)[0], g1 in binaturality (F(pt),F(pt))→(F(pt),F(pt))'),
    ],
    "functor_witness_many_failures": [
        ('retraction H(F(f)) = f (3 checks)', False, 'F(pt)->F(pt)[0]; F(pt)->F(pt)[2]'),
        ('binaturality H(Fv∘g) = v∘H(g) (9 checks)',
         False,
         'v = F(pt)->F(pt)[0], g0 in binaturality (F(pt),F(pt))→(F(pt),F(pt)); v = '
         'F(pt)->F(pt)[0], g1 in binaturality (F(pt),F(pt))→(F(pt),F(pt)); v = '
         'F(pt)->F(pt)[0], g3 in binaturality (F(pt),F(pt))→(F(pt),F(pt)); v = '
         'F(pt)->F(pt)[0], g4 in binaturality (F(pt),F(pt))→(F(pt),F(pt))'),
        ('binaturality H(g∘Fu) = H(g)∘u (9 checks)',
         False,
         'u = F(pt)->F(pt)[0], g0 in binaturality (F(pt),F(pt))→(F(pt),F(pt)); u = '
         'F(pt)->F(pt)[0], g1 in binaturality (F(pt),F(pt))→(F(pt),F(pt)); u = '
         'F(pt)->F(pt)[0], g2 in binaturality (F(pt),F(pt))→(F(pt),F(pt))'),
    ],
    "functor_witness_truncated": [
        ('retraction H(F(f)) = f (4 checks)',
         False,
         'F(pt)->F(pt)[0]; F(pt)->F(pt)[1]; F(pt)->F(pt)[2]; F(pt)->F(pt)[3]'),
        ('binaturality H(Fv∘g) = v∘H(g) (16 checks)',
         False,
         'v = F(pt)->F(pt)[0], g0 in binaturality (F(pt),F(pt))→(F(pt),F(pt)); v = '
         'F(pt)->F(pt)[0], g1 in binaturality (F(pt),F(pt))→(F(pt),F(pt)); v = '
         'F(pt)->F(pt)[0], g2 in binaturality (F(pt),F(pt))→(F(pt),F(pt)); v = '
         'F(pt)->F(pt)[0], g3 in binaturality (F(pt),F(pt))→(F(pt),F(pt)); v = '
         'F(pt)->F(pt)[0], g4 in binaturality (F(pt),F(pt))→(F(pt),F(pt)); v = '
         'F(pt)->F(pt)[0], g5 in binaturality (F(pt),F(pt))→(F(pt),F(pt))'),
        ('binaturality H(g∘Fu) = H(g)∘u (16 checks)',
         False,
         'u = F(pt)->F(pt)[0], g0 in binaturality (F(pt),F(pt))→(F(pt),F(pt)); u = '
         'F(pt)->F(pt)[0], g1 in binaturality (F(pt),F(pt))→(F(pt),F(pt)); u = '
         'F(pt)->F(pt)[0], g2 in binaturality (F(pt),F(pt))→(F(pt),F(pt)); u = '
         'F(pt)->F(pt)[0], g3 in binaturality (F(pt),F(pt))→(F(pt),F(pt))'),
    ],
    "lifted_monad": [
        ('complex M(triv[0]): differentials have the right endpoints', True, ''),
        ('complex M(triv[0]): d∘d = 0', True, ''),
        ('associativity degreewise', False, '0'),
        ('unit laws degreewise', False, '0; 0'),
    ],
    "lifted_monad_section": [
        ('complex M(triv[0]): differentials have the right endpoints', True, ''),
        ('complex M(triv[0]): d∘d = 0', True, ''),
        ('associativity degreewise', True, ''),
        ('unit laws degreewise', True, ''),
        ('μ∘σ = Id degreewise', False, '0'),
        ('chain map: commutes with differentials', True, ''),
    ],
    "module_complex": [
        ('complex triv→sign: differentials have the right endpoints', True, ''),
        ('complex triv→sign: d∘d = 0', True, ''),
        ('module char(pt; 1): action endpoints M(X) → X', True, ''),
        ('module char(pt; 1): associativity λ∘Mλ = λ∘μ_X', True, ''),
        ('module char(pt; 1): unit λ∘η_X = Id_X', True, ''),
        ('module char(pt; -1): action endpoints M(X) → X', True, ''),
        ('module char(pt; -1): associativity λ∘Mλ = λ∘μ_X', True, ''),
        ('module char(pt; -1): unit λ∘η_X = Id_X', True, ''),
        ('differentials are module morphisms', False, '0'),
    ],
    "module_complex_retract": [
        ('chain map: commutes with differentials', True, ''),
        ('chain map: commutes with differentials', True, ''),
        ('λ∘s = Id degreewise', False, '0'),
    ],
    "monad": [
        ('unit/mult components have the right endpoints', True, ''),
        ('associativity μ∘Mμ = μ∘μM', False, 'pt'),
        ('unit laws μ∘Mη = Id = μ∘ηM', False, 'μ∘Mη at pt; μ∘ηM at pt'),
    ],
    "monad_witness": [
        ('natural transformation σ: components have the right endpoints', True, ''),
        ('natural transformation σ: naturality (1 squares)', True, ''),
        ('section law μ∘σ = Id_M', False, 'pt'),
        ('bimodule law Mμ∘σM = σ∘μ = μM∘Mσ', False, 'Mμ∘σM ≠ σ∘μ at pt; σ∘μ ≠ μM∘Mσ at pt'),
    ],
    "monad_witness_not_natural": [
        ('natural transformation σ: components have the right endpoints', True, ''),
        ('natural transformation σ: naturality (3 squares)', False, 'a'),
        ('section law μ∘σ = Id_M', False, '1'),
        ('bimodule law Mμ∘σM = σ∘μ = μM∘Mσ', True, ''),
    ],
    "nat": [
        ('components have the right endpoints', True, ''),
        ('naturality (3 squares)', False, 'a'),
    ],
    "nat_missing_component": [
        ('components have the right endpoints', False, '2'),
    ],
    "nat_not_parallel": [
        ('parallel functors', False, ''),
    ],
    "presentation": [
        ('unit laws (4 checks)', False, 'e∘id_pt'),
        ('associativity (8 triples)', False, '(e, e, 1); (e, 1, e)'),
    ],
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_failing_checks_are_pinned(name):
    assert globals()[f"case_{name}"]().checks == EXPECTED[name]


def doubled_section():
    adj = z2_adjunction()
    w = separability_solve(adj.G)
    xi = extract_section(adj, w)
    return adj, w, NatTrans(xi.src, xi.dst, doubled(xi.components), name="2ξ")


def test_section_checks_are_pinned():
    adj, _, xi2 = doubled_section()
    assert validate_section(adj, xi2).checks == [
        ("components have the right endpoints", True, ""),
        ("naturality (2 squares)", True, ""),
        ("ε∘ξ = Id", False, "F(pt)")]


def test_section_preconditions_name_the_failing_law():
    adj, _, xi2 = doubled_section()
    with pytest.raises(PreconditionError, match=r"^σ = GξF needs a section of ε: ε∘ξ = Id \(F\(pt\)\)$"):
        sigma_from_xi(adj, xi2)
    with pytest.raises(PreconditionError,
                       match=r"^from-xi transfer needs a section of ε: ε∘ξ = Id \(F\(pt\)\)$"):
        transfer_witness("from-xi", adj, xi2)


def test_extracted_section_is_rechecked():
    adj, w, _ = doubled_section()
    broken = SepWitness(w.functor, {k: [[TWO * v for v in col] for col in h]
                                    for k, h in w.maps.items()})
    with pytest.raises(LawViolationError, match=r"^extracted section: ε∘ξ = Id \(F\(pt\)\)$"):
        extract_section(adj, broken)

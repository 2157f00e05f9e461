"""Inverses and free hom spaces from the induction/forgetful adjunction, against the
solves they replaced.

`EquivariantObject.alpha_inverse` takes α_g⁻¹ = ^g(α_{g⁻¹}), and `eq_hom_space` from a
free source F(x) takes λ_Z∘M(φ) over a basis φ of Hom(x, UZ), reduced (`equivariant`
module docstring).  The solves they replaced are kept here as oracles:
`invert_morphism` per α_g, and `reference_eq_hom_space`, the equivariance system
β_g∘θ = ^gθ∘α_g solved for θ.  A reduced echelon basis is unique, so the two must
agree morphism for morphism and scalar type for scalar type, on every standard
category and action, over Q and F_p, from free sources on single objects and on sums
to free, character and Karoubi targets.
"""

from fractions import Fraction

import pytest

import sepcat.category
import sepcat.equivariant
import sepcat.functors
import sepcat.linalg
from sepcat import (EquivariantObject, Field, FiniteGroup, Functor, GroupAction,
                    NonInvertibleComponentError, character_modules, eq_hom_space,
                    free_equivariant, to_equivariant, validate_action)
from sepcat.category import CatObject, Morphism, MorSystem, invert_morphism
from sepcat.standard import (a2_quiver_category, cyclotomic_point_category, point_category,
                             two_point_category)


def reference_eq_hom_space(a, b):
    """The basis of Hom^G(a, b) by one solve of the equivariance system."""
    act = a.action
    sysm = MorSystem(act.base.field)
    th = sysm.unknown(a.carrier, b.carrier)
    for g in act.group.elements:
        sysm.require_equal(b.alpha[g] @ th, act.functors[g].on_morphism(th) @ a.alpha[g],
                           f"equivariance at {g}")
    return sysm.kernel_basis(th)


def sign_action_on_a2(field):
    """Z/2 on the A2 quiver, fixing both objects and sending the arrow a to −a."""
    cat = a2_quiver_category(field)
    z2 = FiniteGroup.cyclic(2)
    ident = Functor.identity(cat)
    hom_map = dict(ident.hom_map)
    hom_map[("1", "2")] = tuple(-m for m in hom_map[("1", "2")])
    sign = Functor(cat, cat, ident.object_map, hom_map, name="sign")
    act = GroupAction(z2, cat, {"e": ident, "g": sign}, name="sign Z/2 on A2")
    assert validate_action(act).passed
    return act


def scalar_characters(act):
    """The validated objects (x, α_g = χ(g)·Id) on every fixed base object with End = k.

    χ runs over the powers of a generator's image t with tⁿ = 1 for a cyclic group,
    and over the trivial and sign characters of S_3."""
    field, group = act.base.field, act.group
    one = field.one()
    if group.name == "S_3":
        def parity(s):
            p = s[1:]
            return sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p))) % 2
        chars = [{h: one for h in group.elements}, {h: -one if parity(h) else one
                                                     for h in group.elements}]
    else:
        gen = next(h for h in group.elements if group.element_order(h) == group.order)
        units = ([one, -one] if field.is_rational
                 else [field.from_int(c) for c in range(1, field.char)])
        chars = []
        for t in units:
            chi, h, power = {}, group.unit, one
            for _ in range(group.order):
                chi[h], h, power = power, group.mult(h, gen), power * t
            if power == one:
                chars.append(chi)
    out = []
    for x in act.base.objects:
        if act.base.hom_dim(x, x) != 1 or any(act.on_object_name(h, x) != x
                                               for h in group.elements):
            continue
        pt = act.base.obj(x)
        for chi in chars:
            z = EquivariantObject(act, pt, {h: pt.identity().scale(c) for h, c in chi.items()},
                                  name=f"char({x})")
            if z.validate().passed:
                out.append(z)
    return out


def karoubi_extra(act):
    """(pt⊕pt, e) with e the projection to the first summand and α = Id, validated."""
    field = act.base.field
    one, zero = field.one(), field.zero()
    pt2 = act.base.obj("pt", "pt")
    carrier = CatObject(act.base, pt2.summands,
                        Morphism(act.base, pt2, pt2, [[(one,), (zero,)], [(zero,), (zero,)]]))
    z = EquivariantObject(act, carrier, {h: carrier.identity() for h in act.group.elements},
                          name="K")
    assert z.validate().passed
    return z


QQ, F2, F3, F5, F7 = (Field.rationals(), Field.prime(2), Field.prime(3), Field.prime(5),
                      Field.prime(7))


def build_case(name, field):
    """(action, free sources, targets) of a case: the targets are the free objects, the
    character objects and, on the point, the Karoubi extra."""
    if name == "Z/2 swap on C3":
        z2 = FiniteGroup.cyclic(2)
        act = GroupAction.from_permutation(z2, two_point_category(field),
                                           {"e": {"x": "x", "y": "y"}, "g": {"x": "y", "y": "x"}})
        sums = [("x",), ("y",), ("x", "y")]
    elif name == "sign Z/2 on A2":
        act = sign_action_on_a2(field)
        sums = [("1",), ("2",), ("1", "2")]
    else:
        group = (FiniteGroup.symmetric(3) if name.startswith("S_3")
                 else FiniteGroup.cyclic(int(name[2])))
        cat = cyclotomic_point_category(field) if name.endswith("Cw") else point_category(field)
        act = GroupAction.trivial(group, cat)
        sums = [("pt",), ("pt", "pt")]
    free = [free_equivariant(act, act.base.obj(*s)) for s in sums]
    if name.endswith("Cw"):
        chars = [to_equivariant(m, act) for m in character_modules(act)]
    else:
        chars = scalar_characters(act)
    extra = [karoubi_extra(act)] if "on C1" in name else []
    return act, free, free + chars + extra


CASES = ([(f"Z/{n} on C1", k) for n in (2, 3, 4, 5) for k in (QQ, F2, F3, F5, F7)]
         + [("S_3 on C1", k) for k in (QQ, F2, F3, F5)]
         + [("Z/2 swap on C3", k) for k in (QQ, F2, F3)]
         + [("Z/3 on Cw", QQ)]
         + [("sign Z/2 on A2", k) for k in (QQ, F3)])


def case_id(case):
    return f"{case[0]} over {case[1].spec_str()}"


def types(m):
    return [type(c) for c in m.coords()]


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_free_hom_spaces_are_the_solved_bases(case):
    act, free, targets = build_case(*case)
    for a in free:
        for b in targets:
            assert a.free_on is not None and b.valid  # the formula's path, not the solve
            got, want = eq_hom_space(a, b), reference_eq_hom_space(a, b)
            assert got == want, (a, b)
            assert [types(m) for m in got] == [types(m) for m in want], (a, b)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_inverses_are_the_solved_inverses(case):
    act, _, targets = build_case(*case)
    for z in targets:
        inv = z.alpha_inverse()
        for g in act.group.elements:
            want = invert_morphism(z.alpha[g])
            assert inv[g] == want, (z, g)
            assert types(inv[g]) == types(want), (z, g)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_counit_columns_are_the_inverted_alphas(case):
    """λ_Z: ⊕_j ⊕_h ^h(X_j) → X, summand-major, has invert_morphism(α_h) as its h-th
    block column: the columns at the slots (j, h) for j = 0, 1, …"""
    act, _, targets = build_case(*case)
    els = act.group.elements
    for z in targets:
        lam, nsum = z.counit, len(z.carrier.summands)
        assert lam.dom is act.monad_functor.on_object(z.carrier) and lam.cod == z.carrier
        assert z.counit is lam
        for i, h in enumerate(els):
            want = invert_morphism(z.alpha[h])
            got = [tuple(lam.blocks[t][j * len(els) + i] for j in range(nsum))
                   for t in range(nsum)]
            assert got == [tuple(row) for row in want.blocks], (z, h)
            assert [type(c) for row in got for b in row for c in b] == types(want), (z, h)


@pytest.fixture
def solves(monkeypatch):
    """Counts of `solve_sparse` and `invert_morphism` calls, wherever they are looked up."""
    counts = {"solve": 0, "invert": 0}
    solve, invert = sepcat.linalg.solve_sparse, sepcat.category.invert_morphism

    def counting_solve(*args, **kwargs):
        counts["solve"] += 1
        return solve(*args, **kwargs)

    def counting_invert(f):
        counts["invert"] += 1
        return invert(f)

    for mod in (sepcat.linalg, sepcat.category, sepcat.functors):
        monkeypatch.setattr(mod, "solve_sparse", counting_solve)
    for mod in (sepcat.category, sepcat.equivariant):
        monkeypatch.setattr(mod, "invert_morphism", counting_invert)
    return counts


@pytest.mark.parametrize("group", [FiniteGroup.symmetric(3), FiniteGroup.cyclic(5)],
                         ids=lambda g: g.name)
def test_free_objects_invert_and_map_out_without_a_solve(solves, group):
    act = GroupAction.trivial(group, point_category(F5))
    pt = act.base.obj("pt")
    z, w = free_equivariant(act, pt), free_equivariant(act, act.base.obj("pt", "pt"))
    z.alpha_inverse()
    w.alpha_inverse()
    basis = eq_hom_space(z, w)
    assert eq_hom_space(w, z) and eq_hom_space(z, z)
    assert solves == {"solve": 0, "invert": 0}

    # the same α, built by hand: no mark, so the hom space is solved, to the same basis
    hand = EquivariantObject(act, z.carrier, z.alpha)
    assert hand.validate().passed and hand.free_on is None
    assert eq_hom_space(hand, w) == basis
    assert solves == {"solve": 1, "invert": 0}


def test_the_mark_is_set_only_after_validation(monkeypatch):
    act = GroupAction.trivial(FiniteGroup.cyclic(3), point_category(QQ))
    marks = []
    validate = EquivariantObject.validate

    def spying(self):
        marks.append(self.free_on)
        return validate(self)

    monkeypatch.setattr(EquivariantObject, "validate", spying)
    pt = act.base.obj("pt")
    z = free_equivariant(act, pt)
    assert marks == [None]
    assert z.free_on == pt


def z3_scalar_object(act, a, b):
    """(pt, α) with α_g = a·Id and α_{g²} = b·Id, never validated."""
    pt = act.base.obj("pt")
    return EquivariantObject(act, pt, {"e": pt.identity(), "g": pt.identity().scale(Fraction(a)),
                                       "g2": pt.identity().scale(Fraction(b))}, name="hand")


def test_an_inverse_that_breaks_the_cocycle_law_at_g_and_g_inverse_raises():
    act = GroupAction.trivial(FiniteGroup.cyclic(3), point_category(QQ))
    # α_g = 2 is invertible, but ^g(α_{g²}) = 1 is not its inverse: the cocycle law fails
    z = z3_scalar_object(act, 2, 1)
    assert invert_morphism(z.alpha["g"]) == z.alpha["e"].scale(Fraction(1, 2))
    for _ in range(2):
        with pytest.raises(NonInvertibleComponentError,
                           match="singular or the cocycle law fails"):
            z.alpha_inverse()
    # a singular α_g raises the same way
    with pytest.raises(NonInvertibleComponentError):
        z3_scalar_object(act, 0, 1).alpha_inverse()


def test_an_unvalidated_target_is_solved(solves):
    act = GroupAction.trivial(FiniteGroup.cyclic(3), point_category(QQ))
    free = free_equivariant(act, act.base.obj("pt"))
    # (2, 1/2): α_g·α_{g²} = 1, so the inverses exist, but α_g² = 4 ≠ α_{g²}, not a cocycle;
    # (2, 1) breaks the cocycle law at (g, g⁻¹) as well
    for z in (z3_scalar_object(act, 2, Fraction(1, 2)), z3_scalar_object(act, 2, 1)):
        before = solves["solve"]
        assert eq_hom_space(free, z) == reference_eq_hom_space(free, z)
        assert not z.validate().passed and not z.valid
        assert eq_hom_space(free, z) == reference_eq_hom_space(free, z)
        assert solves["solve"] == before + 4
    assert solves["invert"] == 0

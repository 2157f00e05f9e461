"""Module hom spaces out of a free module from the free–forgetful adjunction, against the
solve they replaced.

`module_hom_basis` from a = (M(x), μ_x) into a module b that passes its laws, over a monad
that passes its laws, takes λ_b∘M(φ) over a basis φ of Hom(x, b), reduced (`modules`
module docstring).  The solve it replaced is kept here as the oracle,
`reference_module_hom_basis`: f∘λ_a = λ_b∘M(f) solved for f.  A reduced echelon basis is
unique, so the two must agree morphism for morphism and scalar type for scalar type:
for the group monads of every standard action, for the comparison images K(d) of induced
and identity adjunctions, Karoubi images from `split_idempotent` among them, and for
the monads of those adjunctions.  A source that is free only by its carrier, and a
target that fails its laws, take the solve.
"""

from fractions import Fraction

import pytest

import sepcat.modules
from sepcat import (Comparison, FiniteGroup, GroupAction, MModule, MonadSepWitness, Morphism,
                    character_modules, equivariant_category, essential_preimage, free_module,
                    induce_adjunction, module_hom_basis, monad_from_adjunction,
                    monad_separability_solve, to_module, validate_module)
from sepcat.category import MorSystem
from sepcat.standard import point_category, two_point_category
from test_adjunction_formula_oracle import CASES, QQ, F3, build_case, case_id, types
from test_modules import identity_adjunction


def reference_module_hom_basis(a, b):
    """The basis of Hom_M(a, b) by one solve of the module morphism law."""
    sysm = MorSystem(a.carrier.cat.field)
    f = sysm.unknown(a.carrier, b.carrier)
    sysm.require_equal(f @ a.action, b.action @ a.monad.functor.on_morphism(f),
                       "module morphism law")
    return sysm.kernel_basis(f)


@pytest.fixture
def formula(monkeypatch):
    """(x, λ_b) for each basis that `module_hom_basis` reads off the adjunction."""
    pairs, real = [], sepcat.modules.free_hom_basis

    def recording(mf, x, action):
        pairs.append((x, action))
        return real(mf, x, action)

    monkeypatch.setattr(sepcat.modules, "free_hom_basis", recording)
    return pairs


def assert_reference(a, b):
    got, want = [f.mor for f in module_hom_basis(a, b)], reference_module_hom_basis(a, b)
    assert got == want, (a, b)
    assert [types(m) for m in got] == [types(m) for m in want], (a, b)
    return got


def assert_by_formula(formula, a, b):
    before = len(formula)
    assert_reference(a, b)
    assert len(formula) == before + 1, (a, b)


def assert_by_solve(formula, a, b):
    before = len(formula)
    assert_reference(a, b)
    assert len(formula) == before, (a, b)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_group_monad_free_hom_spaces_are_the_solved_bases(case, formula):
    act, free, targets = build_case(*case)
    m = act.group_monad
    base = [free_module(m, act.base.obj(x)) for x in act.base.objects]
    images = [to_module(z) for z in targets]
    for z in free:
        if len(z.free_on.summands) > 1:  # free on a sum, not on a base object: solved
            for b in images:
                assert_by_solve(formula, to_module(z), b)
            continue
        for a in (to_module(z), free_module(m, z.free_on)):
            for b in base + images:
                assert_by_formula(formula, a, b)


def comparison_case(name):
    """(action or None, adjunction): an induced adjunction on the free objects and the
    character and Karoubi objects of `build_case`, or an identity adjunction."""
    if name.startswith("identity"):
        cat = point_category(QQ) if name.endswith("C1") else two_point_category(QQ)
        return None, identity_adjunction(cat)
    action_name, field = name.rsplit(" over ", 1)
    act, _, targets = build_case(action_name, {"Q": QQ, "F3": F3}[field])
    extra = {f"E{i}": z for i, z in enumerate(z for z in targets if z.free_on is None)}
    return act, induce_adjunction(equivariant_category(act, extra))


COMPARISONS = ["Z/2 on C1 over Q", "S_3 on C1 over Q", "Z/3 on C1 over F3",
               "Z/2 swap on C3 over Q", "identity on C1", "identity on C3"]


@pytest.mark.parametrize("name", COMPARISONS)
def test_comparison_images_out_of_free_images_are_the_solved_bases(name, formula):
    _, adj = comparison_case(name)
    k = Comparison(adj)
    monad, dcat, ccat = k.monad, adj.G.source, adj.F.source
    objects = [dcat.obj(d) for d in dcat.objects]
    free = [k.on_object(adj.F.object_map[x]) for x in ccat.objects]  # K(F x) = (M x, μ_x)
    images = [k.on_object(d) for d in objects]
    if "on C1 over" in name:  # the Karoubi extra (pt⊕pt, e)
        assert any(b.carrier.idem is not None for b in images)
    for a in free:
        for b in images + [free_module(monad, ccat.obj(x)) for x in ccat.objects]:
            assert_by_formula(formula, a, b)
    # the comparison's own hom spaces read the same bases
    for x in ccat.objects:
        fx = adj.F.object_map[x]
        for d in objects:
            before = len(formula)
            _, _, mbasis = k.hom_matrix(fx, d)
            assert len(formula) == before + 1
            assert [f.mor for f in mbasis] == reference_module_hom_basis(k.on_object(fx),
                                                                         k.on_object(d))


@pytest.mark.parametrize("name", ["Z/2 on C1 over Q", "Z/3 on C1 over Q"])
def test_karoubi_images_from_split_idempotents_are_the_solved_bases(name, formula):
    act, adj = comparison_case(name)
    k = Comparison(adj)
    sw = monad_separability_solve(k.monad)
    assert isinstance(sw, MonadSepWitness)
    a = k.on_object(adj.F.object_map["pt"])
    samples = character_modules(act, monad=k.monad)
    assert samples
    for m in samples:
        small, _, _ = essential_preimage(adj, sw, m)  # split by `split_idempotent`
        b = k.on_object(small)
        assert small.idem is not None and b.carrier.idem is not None
        assert_by_formula(formula, a, b)
        assert_by_solve(formula, b, a)  # K(split) is not free
        assert_by_solve(formula, b, b)


def test_a_monad_of_an_adjunction_maps_out_of_its_free_modules_by_the_formula(formula):
    _, adj = comparison_case("Z/2 swap on C3 over Q")
    m = monad_from_adjunction(adj)
    cat = m.cat
    free = [free_module(m, cat.obj(x)) for x in cat.objects]
    for a in free:
        for b in free:
            assert_by_formula(formula, a, b)
        assert_by_solve(formula, free_module(m, cat.obj(*cat.objects)), a)  # free on a sum


def test_a_target_that_fails_its_laws_is_solved(formula):
    act = GroupAction.trivial(FiniteGroup.cyclic(2), point_category(QQ))
    m = act.group_monad
    pt = act.base.obj("pt")
    a = free_module(m, pt)
    triv = next(c for c in character_modules(act, monad=m) if "; 1)" in c.name)
    for scale in (Fraction(2), Fraction(-1)):  # 2λ and −λ break the unit law
        b = MModule(m, pt, triv.action.scale(scale), name="broken")
        for _ in range(2):  # a failing report is never kept, and the path is the same again
            got = assert_reference(a, b)
            assert b.report is None
        assert len(got) == 0 and formula == []
    # the same data, passing: the formula
    b = MModule(m, pt, triv.action)
    assert_by_formula(formula, a, b)
    assert b.report is not None


@pytest.mark.parametrize("case", [("Z/2 on C1", QQ), ("Z/3 on C1", F3), ("S_3 on C1", QQ),
                                  ("Z/2 swap on C3", QQ), ("Z/2 swap on C3", F3)], ids=case_id)
def test_a_source_free_only_by_its_carrier_is_solved(case, formula):
    """(M x, T∘μ_x∘M(T)) for T = T⁻¹ the identity of M(x) with its first coordinate negated:
    a module on the carrier M(x), isomorphic to the free one by T, whose action is not μ_x."""
    act, _, targets = build_case(*case)
    m, cat = act.group_monad, act.base
    images = [to_module(z) for z in targets]
    for x in cat.objects:
        mx = m.functor.object_map[x]
        coords = mx.identity().coords()
        t = Morphism.from_coords(cat, mx, mx, [-coords[0], *coords[1:]])
        assert t @ t == mx.identity()
        a = MModule(m, mx, t @ m.mult.components[x] @ m.functor.on_morphism(t))
        assert validate_module(a).passed and a.action != m.mult.components[x]
        for b in images:
            assert_by_solve(formula, a, b)

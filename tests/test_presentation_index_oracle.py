"""The index and slot-map decisions of presentation building, against the vector paths they
stand for.

A monomial presentation (`category` module docstring) decides its unit and associativity
laws on basis indices; a functor out of one whose hom images are identity placements
decides its laws on slot maps (`category.slot_map`'s lemma); and `equivariant_category`
reads a table entry off a basis morphism's slot map where the composite is one.  The
vector paths are the oracle: each report is made once as the code makes it and once with
the index paths switched off (`_prod` cleared on the categories, `functors._slot_images`
returning None), and the two must have equal checks (name, verdict, detail).  The compiled
tables must equal those that composition and `coordinate_map` give, in value and type.

The cases are every `sepcat.standard` category and every equivariant presentation of
`test_slot_laws_oracle.CASES`, over Q, F2, F3, F5 and F7, with the functors F, U, each
distinct Φ_g and M.  Broken copies, at fixed places and at places a hypothesis strategy
draws: a basis product sent to another basis morphism or to zero (in a presentation, and in
the source of a functor), and a hom image with a permuted slot or the zero image.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepcat.functors
from sepcat import (FiniteGroup, Functor, GroupAction, LinearCategory, equivariant_category,
                    induce_adjunction)
from sepcat.category import slot_map, slot_placement, validate_presentation, zero_morphism
from sepcat.functors import _slot_images, validate_functor
from sepcat.standard import (a2_quiver_category, cyclotomic_point_category,
                             dual_numbers_category, point_category, two_point_category)
from test_composition_oracle import strict_scalar
from test_slot_laws_oracle import CASES, FIELDS, QQ, build, case_id

STANDARD = ([(b, k) for b in (point_category, a2_quiver_category, two_point_category,
                              dual_numbers_category) for k in FIELDS]
            + [(cyclotomic_point_category, QQ)])

# the equivariant presentations whose functors F, U, Φ_g and M all take the slot path
SLOT_CASES = [c for c in CASES if c[0].endswith("on C1") or c[0] == "Z/2 swap on C3"]


def standard_id(case):
    return f"{case[0].__name__} over {case[1].spec_str()}"


_BUILT = {}


def built(case):
    """(equivariant presentation, [F, U, the distinct Φ_g, M]) of a case, built once."""
    key = case_id(case)
    if key not in _BUILT:
        act = build(case)[0]
        eq = equivariant_category(act)
        adj = induce_adjunction(eq)
        phis = list(dict.fromkeys(act.functors[g] for g in act.group.elements))
        _BUILT[key] = eq, [adj.F, adj.G, *phis, act.monad_functor]
    return _BUILT[key]


def reports(validate, subject, cats):
    """(the report as the code makes it, the report with every index path switched off)."""
    fast = validate(subject)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sepcat.functors, "_slot_images", lambda f: None)
        for cat in cats:
            mp.setattr(cat, "_prod", None)
        full = validate(subject)
    return fast, full


def assert_presentation_agrees(cat):
    fast, full = reports(validate_presentation, cat, [cat])
    assert fast.checks == full.checks
    return full


def assert_functor_agrees(f):
    fast, full = reports(validate_functor, f, [f.source])
    assert fast.checks == full.checks
    return full


# ---------------------------------------------------------------- broken data

def raw_tables(cat):
    """The composition tables of cat as coordinate vectors, read back off `_comp`."""
    out = {}
    for (x, y, z), table in cat._comp.items():
        d = cat.hom_dim(x, z)
        out[(x, y, z)] = [[[next((cat.one if c is None else c for t2, c in entry if t2 == t),
                                 cat.zero) for t in range(d)] for entry in row] for row in table]
    return out


def with_tables(cat, tables):
    return LinearCategory(cat.field, cat.objects, cat._dims, tables, cat._ids,
                          basis_labels=cat._labels, name=cat.name)


def broken_presentation(cat, kind, i, j):
    """cat with its i-th nonzero basis product (in table order, modulo their number) sent
    to the j-th other basis morphism ("swapped") or to zero ("dropped"); None where cat has
    no such product."""
    tables = raw_tables(cat)
    places = [(key, q, p) for key, table in tables.items() for q, row in enumerate(table)
              for p, vec in enumerate(row) if any(vec)]
    if not places:
        return None
    key, q, p = places[i % len(places)]
    vec = tables[key][q][p]
    if kind == "dropped":
        tables[key][q][p] = [cat.zero] * len(vec)
    else:
        t = next(t for t, c in enumerate(vec) if c)
        others = [s for s in range(len(vec)) if s != t]
        if not others:
            return None
        tables[key][q][p] = [vec[t] if s == others[j % len(others)] else cat.zero
                             for s in range(len(vec))]
    return with_tables(cat, tables)


def broken_image(f, kind, i, j):
    """f with its i-th basis image (in hom_map order) given a permuted slot map, the j-th
    move of one block to another row of the same summand ("permuted"), or replaced by
    zero ("zero"); None where f's image there is not an identity placement or has no such
    move."""
    images = [(key, t, m) for key, mors in f.hom_map.items() for t, m in enumerate(mors)]
    key, t, m = images[i % len(images)]
    slots = slot_map(m)
    if slots is None:
        return None
    if kind == "zero":
        new = zero_morphism(m.dom, m.cod)
    else:
        moves = [(c, r) for c, s in enumerate(slots) if s is not None
                 for r, u in enumerate(m.cod.summands) if r != s and u == m.cod.summands[s]]
        if not moves:
            return None
        c, r = moves[j % len(moves)]
        perm = {slots[c]: r, r: slots[c]}  # swap rows slots[c] and r
        new = slot_placement(m.dom, m.cod, [None if s is None else perm.get(s, s) for s in slots],
                             [m.blocks[s][c] if s is not None else () for c, s in enumerate(slots)])
    mors = list(f.hom_map[key])
    mors[t] = new
    return Functor(f.source, f.target, f.object_map, {**f.hom_map, key: tuple(mors)},
                   name=f.name)


def on_broken_source(f, kind, i, j):
    """f's presentation data read as a functor out of a broken copy of its source."""
    src = broken_presentation(f.source, kind, i, j)
    return None if src is None else Functor(src, f.target, f.object_map, f.hom_map, name=f.name)


# ---------------------------------------------------------------- the tests

@pytest.mark.parametrize("case", STANDARD, ids=standard_id)
def test_standard_presentations_agree(case):
    builder, field = case
    cat = builder(field)
    assert (cat._prod is not None) == (builder is not cyclotomic_point_category)
    assert assert_presentation_agrees(cat).passed


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_equivariant_presentations_and_functors_agree(case):
    eq, functors = built(case)
    assert assert_presentation_agrees(eq.cat).passed
    for f in functors:
        assert (_slot_images(f) is not None) == (case in SLOT_CASES), f.name
        assert assert_functor_agrees(f).passed


def assert_compiled_as_composed(eq):
    """`_comp` equals the tables that `v @ u` and `coordinate_map` give, with each
    coefficient's type, and so do the monomial flag and product indices compiled from it."""
    cat, comp = eq.cat, {}
    for l1, l2, l3 in itertools.product(eq.labels, repeat=3):
        if eq.bases[(l1, l2)] and eq.bases[(l2, l3)] and eq.bases[(l1, l3)]:
            comp[(l1, l2, l3)] = tuple(tuple(tuple(eq.coords[(l1, l3)]((v @ u).coords()))
                                             for u in eq.bases[(l1, l2)])
                                       for v in eq.bases[(l2, l3)])
    want = with_tables(cat, comp)

    def typed(c):
        return [(key, [[[(t, None if a is None else strict_scalar(a)) for t, a in e]
                        for e in row] for row in table]) for key, table in c._comp.items()]

    assert typed(cat) == typed(want)
    assert (cat._prod, cat._id_index) == (want._prod, want._id_index)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_compiled_tables_are_the_composed_ones(case):
    assert_compiled_as_composed(built(case)[0])


def test_a_base_whose_one_is_a_fraction_keeps_the_composed_table():
    """The point with its identity and its one structure constant held as Fraction(1) is C1
    in value but not monomial.  The basis of End(F pt) holds int ones and has slot maps,
    but its composites hold Fraction(1), so the table must not be read off the slot maps."""
    one = Fraction(1)
    base = LinearCategory(QQ, ["pt"], {("pt", "pt"): 1}, {("pt", "pt", "pt"): [[(one,)]]},
                          {"pt": (one,)}, name="C1 with Fraction(1)")
    eq = equivariant_category(GroupAction.trivial(FiniteGroup.cyclic(3), base))
    assert base._prod is None and all(slot_map(b) is not None for b in eq.bases[("F(pt)", "F(pt)")])
    assert eq.cat._prod is None
    assert_compiled_as_composed(eq)


@pytest.mark.parametrize("kind", ["swapped", "dropped"])
@pytest.mark.parametrize("case", STANDARD, ids=standard_id)
def test_broken_standard_presentations_agree(case, kind):
    """A break need not break the laws (g·g = 0 on k[Z/2] gives the dual numbers), so only
    some must fail; each stays monomial or not, as the category was."""
    cat, verdicts = case[0](case[1]), []
    for i in range(3):
        b = broken_presentation(cat, kind, i, i)
        if b is not None:
            assert (b._prod is None) == (cat._prod is None)
            verdicts.append(assert_presentation_agrees(b).passed)
    assert verdicts == [] or not all(verdicts)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_broken_equivariant_presentations_and_functors_agree(case):
    """Each kind at the first and at a middle place; a break of a functor's source or of
    one of its images keeps it on the slot path where it was on it."""
    eq, functors = built(case)
    verdicts = [assert_presentation_agrees(b).passed
                for kind, i in itertools.product(("swapped", "dropped"), (0, 7))
                if (b := broken_presentation(eq.cat, kind, i, 1)) is not None]
    assert not all(verdicts)
    for f in functors:
        verdicts = []
        for kind, i in itertools.product(("swapped", "dropped", "permuted", "zero"), (0, 1)):
            b = (on_broken_source if kind in ("swapped", "dropped") else broken_image)(f, kind, i, 1)
            if b is not None:
                assert (_slot_images(b) is None) == (_slot_images(f) is None)
                verdicts.append(assert_functor_agrees(b).passed)
        assert not all(verdicts)  # g ↦ 1 is a functor on k[Z/2]: a moved slot may be one


def test_a_dropped_product_fails_composition_on_the_slot_path():
    """b_q∘b_p = 0 in the source, while U(b_q)∘U(b_p) is a basis placement."""
    eq, (_, u, *_) = built(("Z/3 on C1", QQ))
    b = on_broken_source(u, "dropped", 4, 0)
    assert _slot_images(b) is not None
    full = assert_functor_agrees(b)
    assert [(name, ok) for name, ok, _ in full.checks] == [
        ("hom images have the right endpoints", True), ("identity preservation (1 objects)", True),
        ("composition preservation (9 pairs)", False)]


def test_a_zero_identity_image_fails_the_identity_law_on_the_slot_path():
    eq, (_, u, *_) = built(("S_3 on C1", QQ))
    key = ("F(pt)", "F(pt)")
    b = broken_image(u, "zero", eq.cat._id_index["F(pt)"], 0)
    assert b.hom_map[key][eq.cat._id_index["F(pt)"]].is_zero() and _slot_images(b) is not None
    full = assert_functor_agrees(b)
    assert not full.checks[1][1]


def test_an_image_with_the_wrong_endpoints_takes_the_vector_path():
    """F: C1 → C1 sends pt to pt ⊕ pt but id_pt to the 1 × 1 identity.  That image has a
    slot map, which composes like a right one, so only the endpoints check keeps the
    laws on vectors, where F(id)∘F(id) is not F(id∘id)."""
    cat = point_category(QQ)
    pt = cat.obj("pt")
    f = Functor(cat, cat, {"pt": cat.obj("pt", "pt")}, {("pt", "pt"): (pt.identity(),)})
    assert _slot_images(f) == {("pt", "pt"): [(0,)]}
    full = assert_functor_agrees(f)
    assert [ok for _, ok, _ in full.checks] == [False, False, False]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_drawn_breaks_agree(data):
    i, j = data.draw(st.integers(0, 60), label="i"), data.draw(st.integers(0, 60), label="j")
    if data.draw(st.booleans(), label="standard"):
        builder, field = data.draw(st.sampled_from(STANDARD), label="category")
        kind = data.draw(st.sampled_from(("swapped", "dropped")), label="kind")
        b = broken_presentation(builder(field), kind, i, j)
        if b is not None:
            assert_presentation_agrees(b)
        return
    eq, functors = built(data.draw(st.sampled_from(CASES), label="case"))
    target = data.draw(st.sampled_from(["presentation", *range(len(functors))]), label="target")
    if target == "presentation":
        kind = data.draw(st.sampled_from(("swapped", "dropped")), label="kind")
        b = broken_presentation(eq.cat, kind, i, j)
        if b is not None:
            assert_presentation_agrees(b)
        return
    kind = data.draw(st.sampled_from(("swapped", "dropped", "permuted", "zero")), label="kind")
    f = functors[target]
    b = (on_broken_source if kind in ("swapped", "dropped") else broken_image)(f, kind, i, j)
    if b is not None:
        assert_functor_agrees(b)

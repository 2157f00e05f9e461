"""The sparse composition kernel against the dense loops it replaced.

`reference_accum_compose`, `reference_raw_mul` and `reference_absorbed` are the
earlier dense kernel, kept here as the oracle: it visits every (row, middle,
column) summand triple and reads the raw structure-constant tables, which each
category built here records beside its compiled ones.  Both kernels add the
same terms in the same order into each output block, so every coordinate must
agree in value and type, and a `LinForm` coordinate in the order of its
variables too.

The per-block builders that the category's layouts and shared zero rows
replaced are kept the same way: `reference_from_coords`,
`reference_zero_blocks`, `reference_on_morphism` (nested per-block images
joined by an index loop) and `reference_require_equal` (rows by `LinForm`
subtraction as `a + (-b)`).

The three accumulating loops (composition, functor images, witness images) skip
products by an exact one and sums into the untouched shared zero; their oracles
keep the plain `acc + c·a`, so a skip that changes a value or a type shows here.
`reference_witness_image` and `reference_apply` are that oracle for
`SepWitness.apply`.

A scalar category (every nonzero hom 1-dimensional, every table the unit one) composes
on its own path, `_scalar_mul`.  The builders hold scalar categories (C1, C2, C3 and
Cz, whose composites through the other object are omitted) and others (Cd, Cw), so both
paths meet the same oracle.
"""

import contextlib
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepcat.category
from sepcat import (Field, FiniteGroup, GroupAction, equivariant_category, equivariant_monad,
                    induce_adjunction, monad_separability_solve, separability_solve)
from sepcat.category import (CatObject, LinearCategory, Morphism, MorSystem, _nonzero_rows,
                             hom_coord_dim, hom_space_basis, identity_blocks, is_one,
                             slot_placement, unit_morphisms, validate_presentation, zero_morphism)
from sepcat.functors import Functor, NatTrans, SepWitness, validate_functor
from sepcat.linalg import LinForm
from sepcat.standard import (a2_quiver_category, dual_numbers_category, point_category,
                             two_point_category)

_init = LinearCategory.__init__


def _recording_init(self, field, objects, hom_dims, composition, *args, **kwargs):
    _init(self, field, objects, hom_dims, composition, *args, **kwargs)
    self.oracle_tables = {key: tuple(tuple(tuple(vec) for vec in row) for row in table)
                          for key, table in composition.items()}


def recording():
    """Categories built inside keep their raw tables as `oracle_tables`."""
    return mock.patch.object(LinearCategory, "__init__", _recording_init)


def reference_accum_compose(cat, x, y, z, g_vec, f_vec, acc):
    table = cat.oracle_tables.get((x, y, z))
    if table is None:
        return
    for q, gq in enumerate(g_vec):
        if not gq:
            continue
        rowq = table[q]
        for p, fp in enumerate(f_vec):
            if not fp:
                continue
            coef = gq * fp
            for t, c in enumerate(rowq[p]):
                if c:
                    acc[t] = acc[t] + coef * c


def reference_raw_mul(cat, dst, mid, src, a_blocks, b_blocks, zero):
    a_nz = [[any(vec) for vec in row] for row in a_blocks]
    b_nz = [[any(vec) for vec in row] for row in b_blocks]
    out = []
    for i, ti in enumerate(dst):
        arow, arow_nz = a_blocks[i], a_nz[i]
        row = []
        for k, sk in enumerate(src):
            acc = [zero] * cat.hom_dim(sk, ti)
            for j, mj in enumerate(mid):
                if arow_nz[j] and b_nz[j][k]:
                    reference_accum_compose(cat, sk, mj, ti, arow[j], b_blocks[j][k], acc)
            row.append(tuple(acc))
        out.append(tuple(row))
    return tuple(out)


def reference_identity(cat, summands):
    zero = cat.field.zero()
    return tuple(tuple(cat.id_vec(sj) if i == j else tuple([zero] * cat.hom_dim(sj, ti))
                       for j, sj in enumerate(summands))
                 for i, ti in enumerate(summands))


def reference_compose(g, f):
    return reference_raw_mul(g.cat, g.cod.summands, g.dom.summands, f.dom.summands,
                             g.blocks, f.blocks, g.cat.field.zero())


def reference_absorbed(f):
    if f.dom.idem is None and f.cod.idem is None:
        return f.blocks
    cat, zero = f.cat, f.cat.field.zero()
    left = f.cod.idem.blocks if f.cod.idem is not None else reference_identity(cat, f.cod.summands)
    right = f.dom.idem.blocks if f.dom.idem is not None else reference_identity(cat, f.dom.summands)
    return reference_raw_mul(cat, f.cod.summands, f.dom.summands, f.dom.summands,
                             reference_raw_mul(cat, f.cod.summands, f.cod.summands,
                                               f.dom.summands, left, f.blocks, zero),
                             right, zero)


def strict_scalar(a):
    """A coordinate with its type, and a LinForm's variable order, made visible."""
    if isinstance(a, LinForm):
        return ("form", strict_scalar(a.const),
                tuple((i, strict_scalar(v)) for i, v in a.coeffs.items()))
    return (type(a).__name__, a)


def strict(blocks):
    return [[[strict_scalar(a) for a in vec] for vec in row] for row in blocks]


def assert_same(got: Morphism, want_blocks):
    assert strict(got.blocks) == strict(want_blocks)
    assert got.blocks == want_blocks
    assert all(isinstance(row, tuple) and all(isinstance(v, tuple) for v in row)
               for row in got.blocks)


def cyclotomic_table_category(field):
    """One object with End = k[w]/(w² + w + 1): the constants −1 are not units."""
    one, zero = field.one(), field.zero()
    table = [[(one, zero), (zero, one)], [(zero, one), (-one, -one)]]
    return LinearCategory(field, ["pt"], {("pt", "pt"): 2}, {("pt", "pt", "pt"): table},
                          {"pt": (one, zero)}, name="Cw")


def zero_composite_category(field):
    """x ⇄ y with every hom 1-dimensional and the composites x → y → x and y → x → y
    omitted, that is zero: every table it has is the unit one, and two triples have none."""
    one = field.one()
    unit = [[(one,)]]
    pairs = [("x", "x"), ("y", "y"), ("x", "y"), ("y", "x")]
    comp = {**{(a, a, b): unit for a, b in pairs}, **{(a, b, b): unit for a, b in pairs}}
    return LinearCategory(field, ["x", "y"], {pair: 1 for pair in pairs}, comp,
                          {"x": (one,), "y": (one,)}, name="Cz")


FIELDS = [Field.rationals(), Field.prime(2), Field.prime(3), Field.prime(7)]
BUILDERS = {"C1": point_category, "C2": a2_quiver_category, "C3": two_point_category,
            "Cd": dual_numbers_category, "Cw": cyclotomic_table_category,
            "Cz": zero_composite_category}
SCALAR_KINDS = ("C1", "C2", "C3", "Cz")
_CATS = {}


def category(kind, field):
    key = (kind, field.char)
    if key not in _CATS:
        with recording():
            _CATS[key] = BUILDERS[kind](field)
    return _CATS[key]


def scalars(field):
    """Field scalars, units often: over Q the int 1 and `Fraction(1)`, which is no unit."""
    if field.is_rational:
        return st.one_of(st.just(1), st.just(Fraction(1)),
                         st.fractions(min_value=-4, max_value=4, max_denominator=3))
    return st.one_of(st.just(field.one()), st.integers(0, field.char - 1).map(field.from_int))


def sparse_vec(draw, field, n):
    """Mostly zero coordinates: a whole block is zero about half the time."""
    if draw(st.booleans()):
        return (field.zero(),) * n
    zero = st.just(field.zero())
    return tuple(draw(st.lists(st.one_of(zero, zero, scalars(field)), min_size=n, max_size=n)))


def objects(draw, cat):
    """A plain or Karoubi object: idempotent [[1, A], [0, 0]] on kept/dropped summands."""
    summands = draw(st.lists(st.sampled_from(cat.objects), max_size=3))
    if not summands or draw(st.booleans()):
        return CatObject(cat, summands)
    kept = draw(st.lists(st.booleans(), min_size=len(summands), max_size=len(summands)))
    zero = cat.field.zero()
    idem = []
    for i, ti in enumerate(summands):
        row = []
        for j, sj in enumerate(summands):
            if kept[i] and i == j:
                row.append(cat.id_vec(sj))
            elif kept[i] and not kept[j]:
                row.append(sparse_vec(draw, cat.field, cat.hom_dim(sj, ti)))
            else:
                row.append(tuple([zero] * cat.hom_dim(sj, ti)))
        idem.append(row)
    return karoubi(cat, summands, idem)


def karoubi(cat, summands, idem):
    """The Karoubi object on the plain sum of `summands` whose idempotent has this grid."""
    plain = CatObject(cat, summands)
    return CatObject(cat, summands, Morphism(cat, plain, plain, idem))


def morphisms(draw, dom, cod, forms=False):
    """A sparse block grid; with forms, each nonzero coordinate becomes an affine form."""
    cat = dom.cat
    blocks = [[sparse_vec(draw, cat.field, cat.hom_dim(sj, ti)) for sj in dom.summands]
              for ti in cod.summands]
    if forms:
        var = st.integers(0, 4)
        blocks = [[tuple(LinForm(a, {draw(var): a, draw(var): cat.field.one()}) if a else a
                         for a in vec) for vec in row] for row in blocks]
    return Morphism(cat, dom, cod, blocks)


@st.composite
def composable_pairs(draw):
    field = draw(st.sampled_from(FIELDS))
    cat = category(draw(st.sampled_from(sorted(BUILDERS))), field)
    a, b, c = objects(draw, cat), objects(draw, cat), objects(draw, cat)
    forms = draw(st.sampled_from([None, "g", "f"]))
    return morphisms(draw, b, c, forms == "g"), morphisms(draw, a, b, forms == "f")


@settings(max_examples=150, deadline=None)
@given(composable_pairs())
def test_composition_matches_dense_kernel(pair):
    g, f = pair
    assert_same(g @ f, reference_compose(g, f))


@settings(max_examples=100, deadline=None)
@given(composable_pairs())
def test_absorbed_matches_dense_kernel(pair):
    g, f = pair
    assert_same(f.absorbed(), reference_absorbed(f))
    assert_same(g.absorbed(), reference_absorbed(g))


@pytest.mark.parametrize("field", FIELDS, ids=lambda k: k.spec_str())
@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_basis_products_match_dense_kernel(kind, field):
    """Every product of two unit-coordinate morphisms, the identity and zero."""
    cat = category(kind, field)
    x = cat.obj(*cat.objects, cat.objects[0])
    pool = unit_morphisms(cat, x, x) + [x.identity(), zero_morphism(x, x)]
    for g in pool:
        for f in pool:
            assert_same(g @ f, reference_compose(g, f))


def _actions():
    q, f3 = Field.rationals(), Field.prime(3)
    z2, z3 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(3)
    swap = {z2.unit: {"x": "x", "y": "y"},
            next(g for g in z2.elements if g != z2.unit): {"x": "y", "y": "x"}}
    return {
        "Z/2 on C1 over Q": lambda: GroupAction.trivial(z2, point_category(q)),
        "Z/3 on C1 over F3": lambda: GroupAction.trivial(z3, point_category(f3)),
        "Z/2 swap on C3 over Q": lambda: GroupAction.from_permutation(
            z2, two_point_category(q), swap),
        "Z/2 on Cw over Q": lambda: GroupAction.trivial(z2, cyclotomic_table_category(q)),
    }


def _presentation(act):
    return equivariant_category(act).cat


@pytest.mark.parametrize("field", FIELDS, ids=lambda k: k.spec_str())
def test_the_scalar_path_is_chosen_from_the_presentation(field):
    """C1, A2, C3 and Cz are scalar; Cd and Cw are not, nor is the presentation of a
    trivial action of a group of order ≥ 2, whose End(F x) is k[G]; the presentation of
    the Z/2 swap on C3, whose free objects have End = k, is."""
    for kind in BUILDERS:
        assert category(kind, field)._scalar == (kind in SCALAR_KINDS), kind
    assert validate_presentation(category("Cz", field)).passed
    z2 = FiniteGroup.cyclic(2)
    for group in (z2, FiniteGroup.cyclic(3), FiniteGroup.symmetric(3)):
        assert not _presentation(GroupAction.trivial(group, point_category(field)))._scalar
    for kind in ("C2", "C3", "Cz"):
        assert not _presentation(GroupAction.trivial(z2, BUILDERS[kind](field)))._scalar
    swap = {z2.unit: {"x": "x", "y": "y"},
            next(g for g in z2.elements if g != z2.unit): {"x": "y", "y": "x"}}
    assert _presentation(GroupAction.from_permutation(z2, two_point_category(field), swap))._scalar


@pytest.mark.parametrize("name", list(_actions()))
def test_separability_compositions_match_dense_kernel(name):
    """Every product and absorption that monad and functor separability compute; the
    scalar path runs in the C1 and C3 cases, and never in the Cw case."""
    seen, scalar = [], []
    matmul, absorbed = Morphism.__matmul__, Morphism.absorbed
    scalar_mul = sepcat.category._scalar_mul

    def spied_scalar_mul(cat, *args):
        scalar.append(cat)
        return scalar_mul(cat, *args)

    def checked_matmul(g, f):
        got = matmul(g, f)
        if isinstance(got, Morphism):
            assert_same(got, reference_compose(g, f))
            seen.append(got)
        return got

    def checked_absorbed(f):
        got = absorbed(f)
        assert_same(got, reference_absorbed(f))
        return got

    with contextlib.ExitStack() as stack:
        stack.enter_context(recording())
        stack.enter_context(mock.patch.object(Morphism, "__matmul__", checked_matmul))
        stack.enter_context(mock.patch.object(Morphism, "absorbed", checked_absorbed))
        stack.enter_context(mock.patch.object(sepcat.category, "_scalar_mul", spied_scalar_mul))
        act = _actions()[name]()
        monad_separability_solve(equivariant_monad(act))
        separability_solve(induce_adjunction(equivariant_category(act)).G)
    assert any(any(isinstance(a, LinForm) for a in m.coords()) for m in seen)
    assert bool(scalar) == ("Cw" not in name)
    assert all(cat._scalar for cat in scalar)


class TestPublicConstructorChecks:
    def setup_method(self):
        self.q = Field.rationals()
        self.cat = category("C2", self.q)
        self.x = self.cat.obj("1", "2")
        self.one = self.q.one()

    def blocks(self):
        # Hom(1, 1), Hom(2, 1) = 0, Hom(1, 2), Hom(2, 2)
        return [[(self.one,), ()], [(self.one,), (self.one,)]]

    def test_well_shaped_grid_is_accepted(self):
        assert Morphism(self.cat, self.x, self.x, self.blocks()).blocks[1][0] == (self.one,)

    def test_wrong_grid_is_rejected(self):
        with pytest.raises(ValueError, match="block grid"):
            Morphism(self.cat, self.x, self.x, self.blocks()[:1])
        with pytest.raises(ValueError, match="block grid"):
            Morphism(self.cat, self.x, self.x, [row[:1] for row in self.blocks()])

    def test_wrong_block_length_is_rejected(self):
        bad = self.blocks()
        bad[0][1] = (self.one,)
        with pytest.raises(ValueError, match=r"block \(0,1\) has wrong length"):
            Morphism(self.cat, self.x, self.x, bad)

    def test_objects_of_another_category_are_rejected(self):
        other = a2_quiver_category(self.q)
        with pytest.raises(ValueError, match="different category"):
            Morphism(self.cat, other.obj("1", "2"), self.x, self.blocks())
        with pytest.raises(ValueError, match="different category"):
            Morphism(self.cat, self.x, other.obj("1", "2"), self.blocks())

    def test_composition_keeps_its_checks(self):
        m = Morphism(self.cat, self.x, self.x, self.blocks())
        other = a2_quiver_category(self.q)
        with pytest.raises(ValueError, match="different categories"):
            m @ other.obj("1", "2").identity()
        with pytest.raises(ValueError, match="object mismatch"):
            m @ self.cat.obj("1").identity()

    @pytest.mark.parametrize("n", [0, 2, 4])
    def test_from_coords_needs_exactly_the_ambient_dimension(self, n):
        assert hom_coord_dim(self.cat, self.x, self.x) == 3
        with pytest.raises(ValueError, match="coordinates"):
            Morphism.from_coords(self.cat, self.x, self.x, [self.one] * n)
        m = Morphism.from_coords(self.cat, self.x, self.x, [self.one] * 3)
        assert m == Morphism(self.cat, self.x, self.x, self.blocks())


# ------------------------------------------ layouts, shared zero rows, functor images

def reference_coord_dim(cat, dom, cod):
    return sum(cat.hom_dim(sj, ti) for ti in cod.summands for sj in dom.summands)


def reference_from_coords(cat, dom, cod, coords):
    coords, blocks, pos = tuple(coords), [], 0
    for ti in cod.summands:
        row = []
        for sj in dom.summands:
            d = cat.hom_dim(sj, ti)
            row.append(coords[pos:pos + d])
            pos += d
        blocks.append(tuple(row))
    return tuple(blocks)


def reference_zero_blocks(dom, cod):
    cat = dom.cat
    return tuple(tuple(cat.zero_block(sj, ti) for sj in dom.summands) for ti in cod.summands)


def reference_on_hom_vec(fn, x, y, vec):
    fx, fy = fn.object_map[x], fn.object_map[y]
    if not any(vec):
        return reference_zero_blocks(fx, fy)
    acc = [fn.target.field.zero()] * reference_coord_dim(fn.target, fx, fy)
    for t, c in enumerate(vec):
        if c:
            for p, a in enumerate(fn.hom_map[(x, y)][t].coords()):
                if a:
                    acc[p] = acc[p] + c * a
    return reference_from_coords(fn.target, fx, fy, acc)


def reference_assemble_grid(nested, cod_parts, dom_parts):
    nrows = sum(len(p.summands) for p in cod_parts)
    ncols = sum(len(p.summands) for p in dom_parts)
    flat = [[None] * ncols for _ in range(nrows)]
    roff = 0
    for bi, pi in enumerate(cod_parts):
        coff = 0
        for bj, pj in enumerate(dom_parts):
            for r in range(len(pi.summands)):
                for c in range(len(pj.summands)):
                    flat[roff + r][coff + c] = nested[bi][bj][r][c]
            coff += len(pj.summands)
        roff += len(pi.summands)
    return tuple(map(tuple, flat))


def reference_on_blocks(fn, dom, cod, blocks):
    nested = [[reference_on_hom_vec(fn, sj, ti, blocks[i][j]) for j, sj in enumerate(dom.summands)]
              for i, ti in enumerate(cod.summands)]
    return reference_assemble_grid(nested, [fn.object_map[s] for s in cod.summands],
                                   [fn.object_map[s] for s in dom.summands])


def reference_on_morphism(fn, f):
    return reference_on_blocks(fn, f.dom, f.cod, f.blocks)


def reference_require_equal(lhs, rhs, label):
    rows, consts, labels = [], [], []
    for a, b in zip(lhs.coords(), rhs.coords()):
        d = (a if isinstance(a, LinForm) else LinForm(a)) + (
            -(b if isinstance(b, LinForm) else LinForm(b)))
        rows.append(d.coeffs)
        consts.append(-d.const)
        labels.append(label)
    return rows, consts, labels


def strict_rows(rows):
    return [tuple((i, strict_scalar(v)) for i, v in r.items()) for r in rows]


IMAGE_KINDS = ["C2", "C3", "Cd"]
_FUNCTORS = {}


def functors(kind, field):
    """The identity functor and the group monad functor of the trivial Z/2 and Z/3 actions."""
    key = (kind, field.char)
    if key not in _FUNCTORS:
        cat = category(kind, field)
        _FUNCTORS[key] = [Functor.identity(cat)] + [
            GroupAction.trivial(FiniteGroup.cyclic(n), cat).monad_functor for n in (2, 3)]
    return _FUNCTORS[key]


@st.composite
def parallel_grids(draw, kinds=sorted(BUILDERS)):
    """A category, dom and cod objects (plain or Karoubi), and two morphisms dom → cod."""
    field = draw(st.sampled_from(FIELDS))
    kind = draw(st.sampled_from(kinds))
    cat = category(kind, field)
    dom, cod = objects(draw, cat), objects(draw, cat)
    forms = draw(st.sampled_from([None, "f", "g", "both"]))
    f = morphisms(draw, dom, cod, forms in ("f", "both"))
    g = morphisms(draw, dom, cod, forms in ("g", "both"))
    return kind, field, f, g


@settings(max_examples=150, deadline=None)
@given(parallel_grids())
def test_layouts_match_per_block_slicing(case):
    _, _, f, _ = case
    cat, dom, cod = f.cat, f.dom, f.cod
    assert hom_coord_dim(cat, dom, cod) == reference_coord_dim(cat, dom, cod)
    coords = f.coords()
    assert_same(Morphism.from_coords(cat, dom, cod, coords),
                reference_from_coords(cat, dom, cod, coords))
    assert_same(zero_morphism(dom, cod), reference_zero_blocks(dom, cod))
    n, rows = cat.layout(dom.summands, cod.summands)
    assert n == len(coords) and len(rows) == len(cod.summands)
    assert all(len(row) == len(dom.summands) for row in rows)


@settings(max_examples=150, deadline=None)
@given(parallel_grids(IMAGE_KINDS), st.integers(0, 2))
def test_functor_images_match_nested_images(case, which):
    kind, field, f, _ = case
    fn = functors(kind, field)[which]
    assert_same(fn.on_morphism(f), reference_on_morphism(fn, f))
    for a in (f.dom, f.cod):
        if a.idem is not None:
            assert strict(fn.on_object(a).idem.blocks) == strict(
                reference_on_blocks(fn, a, a, a.idem.blocks))
    for i, ti in enumerate(f.cod.summands):
        for j, sj in enumerate(f.dom.summands):
            assert_same(fn.on_hom_vec(sj, ti, f.blocks[i][j]),
                        reference_on_hom_vec(fn, sj, ti, f.blocks[i][j]))


def test_caches_keep_scalar_types_of_equal_objects():
    """Equal Karoubi objects whose idempotents hold 1 and Fraction(1) meet in no cache:
    each result carries the scalar types of its own object, also when the other came first."""
    cat = category("C1", Field.rationals())
    idem = [[(1,), (0,)], [(0,), (0,)]]
    ints = karoubi(cat, ("pt", "pt"), idem)
    fracs = karoubi(cat, ("pt", "pt"),
                    [[tuple(Fraction(a) if a else a for a in v) for v in r] for r in idem])
    assert ints == fracs and strict(ints.idem.blocks) != strict(fracs.idem.blocks)
    fn = Functor.identity(cat)
    eta = NatTrans(fn, fn, {x: cat.obj(x).identity() for x in cat.objects})
    for a in (ints, fracs):
        assert strict(fn.on_object(a).idem.blocks) == strict(a.idem.blocks)
        assert strict(eta.at(a).blocks) == strict(reference_on_blocks(fn, a, a, a.idem.blocks))
        assert all(strict(b.dom.idem.blocks) == strict(a.idem.blocks)
                   for b in hom_space_basis(cat, a, a))


@settings(max_examples=150, deadline=None)
@given(parallel_grids())
def test_require_equal_matches_form_subtraction(case):
    _, field, f, g = case
    sysm = MorSystem(field)
    sysm.require_equal(f, g, "f = g")
    sysm.require_equal(g, f, ("g = f", 1))
    rows, consts, labels = reference_require_equal(f, g, "f = g")
    more = reference_require_equal(g, f, ("g = f", 1))
    assert strict_rows(sysm.rows) == strict_rows(rows + more[0])
    assert [strict_scalar(c) for c in sysm.consts] == [strict_scalar(c) for c in consts + more[1]]
    assert sysm.labels == labels + more[2]
    for a, b in zip(f.coords(), g.coords()):
        for x, y in ((a, b), (b, a)):
            if isinstance(x, LinForm) or isinstance(y, LinForm):
                want = (x if isinstance(x, LinForm) else LinForm(x)) + (
                    -(y if isinstance(y, LinForm) else LinForm(y)))
                assert strict_scalar(x - y) == strict_scalar(want)


@pytest.mark.parametrize("field", FIELDS, ids=lambda k: k.spec_str())
def test_shared_rows_stay_zero_and_identities_stay_identity(field):
    """After compositions, sums and functor images, every cached zero block, zero row
    and identity grid still holds what it held when built, and each functor's cached
    support of a basis image F(b_t) is exactly its nonzero blocks and coordinates, a
    unit stored as None."""
    for kind in IMAGE_KINDS:
        cat = category(kind, field)
        x = cat.obj(*cat.objects, cat.objects[0])
        pool = unit_morphisms(cat, x, x) + [x.identity(), zero_morphism(x, x)]
        total = zero_morphism(x, x)
        for g in pool:
            for f in pool:
                total = total + g @ f - f
                for fn in functors(kind, field):
                    image = fn.on_morphism(g @ f)
                    image @ fn.on_morphism(f) + fn.on_morphism(total)
    zero = field.zero()
    for kind in IMAGE_KINDS:
        cat = category(kind, field)
        for (x, y), block in cat._zero_blocks.items():
            assert strict([[block]]) == strict([[(zero,) * cat.hom_dim(x, y)]])
        for (y, xs), row in cat._zero_rows.items():
            assert strict([row]) == strict([[(zero,) * cat.hom_dim(x, y) for x in xs]])
        for summands, grid in cat._identities.items():
            assert strict(grid) == strict(reference_identity(cat, summands))
            assert identity_blocks(cat, summands) is grid
        for (xs, ys), (n, rows) in cat._layouts.items():
            assert n == reference_coord_dim(cat, CatObject(cat, xs), CatObject(cat, ys))
            assert [[s.stop - s.start for s in row] for row in rows] == [
                [cat.hom_dim(x, y) for x in xs] for y in ys]
        for fn in functors(kind, field):
            tgt = fn.target
            one = tgt.one
            for (x, y), support in fn._images.items():
                basis = fn.hom_map.get((x, y), ())
                assert len(support) == len(basis)
                for blocks, fb in zip(support, basis):
                    want = [(r, c, [(p, strict_scalar(a)) for p, a in enumerate(b) if a])
                            for r, row in enumerate(_nonzero_rows(fb.blocks)) for c, b in row]
                    assert [(r, c, [(p, strict_scalar(one if a is None else a)) for p, a in cell])
                            for r, c, cell in blocks] == want
                    assert all(a is None or not is_one(a, one)
                               for _, _, cell in blocks for _, a in cell)
            assert all(all(not any(b) for b in row) for row in tgt._zero_rows.values())


# ------------------------------------------- producers hand over their nonzero rows

def _augmentation(field):
    """k[ε] → k, ε ↦ 0: a nonzero block (0, c) has the zero image."""
    cd, c1 = category("Cd", field), category("C1", field)
    pt = c1.obj("pt")
    return Functor(cd, c1, {"pt": pt}, {("pt", "pt"): (pt.identity(), zero_morphism(pt, pt))})


def _projection(field):
    """C3 → C1, x ↦ pt and y ↦ 0: the image of y has no summands."""
    c3, c1 = category("C3", field), category("C1", field)
    pt, zero = c1.obj("pt"), c1.zero_object()
    return Functor(c3, c1, {"x": pt, "y": zero},
                   {("x", "x"): (pt.identity(),), ("y", "y"): (zero_morphism(zero, zero),)})


PRODUCERS = ["slot_placement", "zero_morphism", "NatTrans.at", "Functor.on_morphism",
             "Functor.on_object"]


@st.composite
def produced(draw, producer):
    """(m, handed): a morphism from the producer, over Q, F2 or F3 and with `LinForm`
    coordinates often, and whether the producer must have handed over its rows."""
    field = draw(st.sampled_from(FIELDS[:3]))
    forms = draw(st.booleans())
    kind = draw(st.sampled_from(IMAGE_KINDS))
    cat = category(kind, field)
    if producer == "Functor.on_morphism":
        extra = {"Cd": [_augmentation(field)], "C3": [_projection(field)]}.get(kind, [])
        fn = draw(st.sampled_from(functors(kind, field) + extra))
        dom, cod = objects(draw, cat), objects(draw, cat)
        return fn.on_morphism(morphisms(draw, dom, cod, forms)), True
    if producer == "Functor.on_object":  # a Karoubi image's identity is its idempotent
        image = draw(st.sampled_from(functors(kind, field))).on_object(objects(draw, cat))
        return image.identity(), image.idem is not None
    if producer == "NatTrans.at":
        src, dst = (draw(st.sampled_from(functors(kind, field))) for _ in range(2))
        t = NatTrans(src, dst, {x: morphisms(draw, src.object_map[x], dst.object_map[x], forms)
                                for x in cat.objects})
        a = objects(draw, cat)
        return t.at(a), a.idem is None and len(a.summands) != 1
    dom, cod = objects(draw, cat), objects(draw, cat)
    if producer == "zero_morphism":
        return zero_morphism(dom, cod), True
    grid = morphisms(draw, dom, cod, forms).blocks  # about half its blocks are zero
    slots = [draw(st.sampled_from((None, *range(len(cod.summands))))) for _ in dom.summands]
    blocks = [() if r is None else grid[r][c] for c, r in enumerate(slots)]
    return slot_placement(dom, cod, slots, blocks), dom.idem is None and cod.idem is None


@pytest.mark.parametrize("producer", PRODUCERS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_handed_rows_are_the_scanned_rows(producer, data):
    m, handed = data.draw(produced(producer))
    assert m._rows is not None or not handed
    assert m.nonzero_rows() == _nonzero_rows(m.blocks)


def test_the_z7_group_monad_is_built_and_validated_without_a_scan(monkeypatch):
    """μ, η and M's hom images come from `slot_placement`, and every other operand from
    `NatTrans.at` or a functor image: no block grid is scanned for its nonzero rows."""
    scanned = []

    def counting(blocks):
        scanned.append(len(blocks))
        return _nonzero_rows(blocks)

    monkeypatch.setattr(sepcat.category, "_nonzero_rows", counting)
    act = GroupAction.trivial(FiniteGroup.cyclic(7), point_category(Field.prime(2)))
    assert equivariant_monad(act).report.passed
    assert scanned == []


def _cancelling(field):
    """k[ε] → k, pt ↦ pt ⊕ pt, 1 ↦ I and ε ↦ N = [[1, 1], [−1, −1]] (N² = 0): the
    images of 1 and ε share the diagonal blocks, so c·1 + (−c)·ε cancels where N has a
    one there, at (0, 0) and over F2 also at (1, 1)."""
    cd, c1 = category("Cd", field), category("C1", field)
    pt2, one = c1.obj("pt", "pt"), field.one()
    nil = Morphism(c1, pt2, pt2, [[(one,), (one,)], [(-one,), (-one,)]])
    return Functor(cd, c1, {"pt": pt2}, {("pt", "pt"): (pt2.identity(), nil)})


def _assert_image_rows(fn, f):
    m = fn.on_morphism(f)
    assert m.nonzero_rows() == _nonzero_rows(m.blocks)
    assert_same(m, reference_on_morphism(fn, f))
    for i, row in enumerate(f.blocks):
        for j, vec in enumerate(row):
            m = fn.on_hom_vec(f.dom.summands[j], f.cod.summands[i], vec)
            assert m.nonzero_rows() == _nonzero_rows(m.blocks)
            assert_same(m, reference_on_hom_vec(fn, f.dom.summands[j], f.cod.summands[i], vec))


@pytest.mark.parametrize("forms", [False, True], ids=["scalars", "forms"])
@pytest.mark.parametrize("field", FIELDS[:3], ids=lambda k: k.spec_str())
def test_a_cancelled_image_cell_is_not_handed_over(field, forms):
    """(1, −1) and (x₀, −x₀) sum to zero on the cells of I − N that both basis images
    reached, (0, 0) and over F2 also (1, 1): they are tested and left out of the rows."""
    fn = _cancelling(field)
    assert validate_functor(fn).passed
    c = LinForm.variable(0, field) if forms else field.one()
    pt = fn.source.obj("pt")
    m = fn.on_hom_vec("pt", "pt", (c, -c))
    want = [[1], [0]] if field.char == 2 else [[1], [0, 1]]  # I − N = I + N over F2
    assert [[j for j, _ in row] for row in m.nonzero_rows()] == want
    _assert_image_rows(fn, Morphism(fn.source, pt, pt, [[(c, -c)]]))


@st.composite
def cancelling_images(draw):
    """A morphism of plain sums in k[ε], over Q, F2 or F3 and with `LinForm` entries
    often, whose blocks are often (c, −c), so that its image has cancelled cells."""
    field = draw(st.sampled_from(FIELDS[:3]))
    cat, forms = category("Cd", field), draw(st.booleans())
    coeff = scalars(field) if not forms else st.integers(0, 3).map(
        lambda i: LinForm.variable(i, field))
    dom, cod = (cat.obj(*["pt"] * draw(st.integers(1, 3))) for _ in range(2))

    def block():
        c = draw(coeff)
        return draw(st.sampled_from([(c, -c), (c, c), (c, field.zero()), (field.zero(),) * 2]))
    return field, Morphism(cat, dom, cod, [[block() for _ in dom.summands] for _ in cod.summands])


@settings(max_examples=100, deadline=None)
@given(cancelling_images())
def test_cancelled_cells_are_tested_in_every_image(case):
    field, f = case
    _assert_image_rows(_cancelling(field), f)


# ------------------------------------------- accumulation keeps the scalar types

DRIFT_FIELDS = [Field.rationals(), Field.prime(2), Field.prime(7)]


def _one_not_shared(field):
    """A one that is not the category's: `Fraction(1)` over Q, which is no unit, and a
    fresh `Fp(1)` over F_p, which is."""
    return Fraction(1) if field.is_rational else field.from_int(1)


def _drift_case(case, field, kind="C1"):
    """(g, f) on the point of C1, or of k[ε] with each scalar a times the identity
    (a, 0): endomorphisms, or g: pt³ → pt and f: pt → pt³ whose composite sums three
    terms into one slot, the first two cancelling."""
    cat = category(kind, field)
    one, three = field.one(), field.from_int(3)
    pt, pad = cat.obj("pt"), (field.zero(),) * (cat.hom_dim("pt", "pt") - 1)
    if case == "fraction one times int form":
        form = LinForm(field.zero(), {0: one, 3: field.from_int(2)})
        return (Morphism(cat, pt, pt, [[(_one_not_shared(field), *pad)]]),
                Morphism(cat, pt, pt, [[(form, *pad)]]))
    half = field.inv_int(2) if field.invertible(2) else one
    first = {"cancelled scalar plus int": half,
             "cancelled form plus scalar": LinForm.variable(0, field)}[case]
    x = cat.obj("pt", "pt", "pt")
    return (Morphism(cat, x, pt, [[(first, *pad), (first, *pad), (three, *pad)]]),
            Morphism(cat, pt, x, [[(one, *pad)], [(-one, *pad)], [(one, *pad)]]))


def _assert_drift(case, field, kind):
    g, f = _drift_case(case, field, kind)
    assert_same(g @ f, reference_compose(g, f))
    if case == "fraction one times int form":
        assert_same(f @ g, reference_compose(f, g))
        want = type(_one_not_shared(field) * field.one())
        assert {type(v) for v in (g @ f).coords()[0].coeffs.values()} == {want}
    else:
        first, three = g.blocks[0][0][0], g.blocks[0][2][0]
        want = (first + first * -field.one()) + three
        assert strict_scalar((g @ f).coords()[0]) == strict_scalar(want)


DRIFT_CASES = ["fraction one times int form", "cancelled scalar plus int",
               "cancelled form plus scalar"]


@pytest.mark.parametrize("field", DRIFT_FIELDS, ids=lambda k: k.spec_str())
@pytest.mark.parametrize("case", DRIFT_CASES)
def test_accumulation_keeps_scalar_types(case, field):
    """A `Fraction(1)` factor is multiplied out, and a slot that cancelled to a zero
    (a `Fraction(0)`, a residue 0 or the zero form) is added to, as the arithmetic does."""
    _assert_drift(case, field, "C1")


@pytest.mark.parametrize("field", DRIFT_FIELDS, ids=lambda k: k.spec_str())
@pytest.mark.parametrize("case", DRIFT_CASES)
def test_accumulation_keeps_scalar_types_off_the_scalar_path(case, field):
    """The same products in k[ε], which is not scalar: `accum_compose` keeps the rule."""
    _assert_drift(case, field, "Cd")


@pytest.mark.parametrize("field", DRIFT_FIELDS, ids=lambda k: k.spec_str())
@pytest.mark.parametrize("kind", ["C1", "Cd"])
def test_a_product_by_an_exact_one_is_the_other_factor(kind, field):
    """id∘f and f∘id hold f's own coordinate object, not a product equal to it, on the
    scalar path (C1) and through `accum_compose` (Cd)."""
    cat = category(kind, field)
    pt = cat.obj("pt")
    form = LinForm(field.zero(), {0: field.from_int(3)})
    f = Morphism(cat, pt, pt, [[(form, *(field.zero(),) * (cat.hom_dim("pt", "pt") - 1))]])
    for m in (pt.identity() @ f, f @ pt.identity()):
        assert m.blocks[0][0][0] is form


# ------------------------------------------------------------------ witness images

def reference_witness_image(w, x, y, coords):
    """Σ_k g_k·H(e_k) over the nonzero g_k, each term added as out[i] + h*g."""
    src = w.functor.source
    out = [src.field.zero()] * src.hom_dim(x, y)
    for g, col in zip(coords, w.maps[(x, y)] if out else ()):
        if g:
            for i, h in enumerate(col):
                if h:
                    out[i] = out[i] + h * g
    return out


def reference_apply(w, a, b, g):
    """H(g): a → b, block (i, j) the image of g's part F(b_i) ← F(a_j), then absorbed."""
    fn = w.functor
    rows = [len(fn.object_map[t].summands) for t in b.summands]
    cols = [len(fn.object_map[s].summands) for s in a.summands]
    raw, r0 = [], 0
    for ti, nr in zip(b.summands, rows):
        row, c0 = [], 0
        for sj, nc in zip(a.summands, cols):
            part = [c for r in g.blocks[r0:r0 + nr] for v in r[c0:c0 + nc] for c in v]
            row.append(tuple(reference_witness_image(w, sj, ti, part)))
            c0 += nc
        raw.append(tuple(row))
        r0 += nr
    return reference_absorbed(Morphism(fn.source, a, b, raw))


def symbolic_maps(fn):
    """The unknown witness that `separability_solve` builds: columns of variables."""
    sysm, maps = MorSystem(fn.source.field), {}
    for x, y in fn.source.hom_pairs():
        n = hom_coord_dim(fn.target, fn.object_map[x], fn.object_map[y])
        xs = sysm.variables(fn.source.hom_dim(x, y) * n)
        maps[(x, y)] = [xs[k::n] for k in range(n)]
    return maps


@st.composite
def witness_applications(draw, maps_kind, shape):
    """(witness, a, b, g): concrete image columns (units often) or scaled unknowns, and
    g: F(a) → F(b) between single base objects or sums and Karoubi objects."""
    field = draw(st.sampled_from(FIELDS))
    fn = draw(st.sampled_from(functors(draw(st.sampled_from(IMAGE_KINDS)), field)))
    cat, zero = fn.source, field.zero()
    if maps_kind == "forms":
        scale = st.one_of(st.just(field.one()), scalars(field))
        maps = {key: [[v * draw(scale) for v in col] for col in cols]
                for key, cols in symbolic_maps(fn).items()}
    else:
        entry = st.one_of(st.just(zero), scalars(field))
        maps = {(x, y): [draw(st.lists(entry, min_size=cat.hom_dim(x, y),
                                       max_size=cat.hom_dim(x, y)))
                         for _ in range(hom_coord_dim(fn.target, fn.object_map[x],
                                                      fn.object_map[y]))]
                for x, y in cat.hom_pairs()}
    if shape == "plain":
        pick = st.sampled_from(cat.objects)
        a, b = cat.obj(draw(pick)), cat.obj(draw(pick))
    else:
        a, b = objects(draw, cat), objects(draw, cat)
    forms = maps_kind == "concrete" and draw(st.booleans())
    return SepWitness(fn, maps), a, b, morphisms(draw, fn.on_object(a), fn.on_object(b), forms)


@pytest.mark.parametrize("shape", ["plain", "sums and Karoubi"])
@pytest.mark.parametrize("maps_kind", ["forms", "concrete"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_witness_images_match_plain_sums(maps_kind, shape, data):
    w, a, b, g = data.draw(witness_applications(maps_kind, shape))
    assert_same(w.apply(a, b, g), reference_apply(w, a, b, g))


def _karoubi_21(cat):
    """(2 ⊕ 1, e) on A2 with e = [[id, a], [0, 0]]: a retract of the sum, not plain."""
    one, zero = cat.field.one(), cat.field.zero()
    return karoubi(cat, ("2", "1"), [[(one,), (one,)], [(), (zero,)]])


@pytest.mark.parametrize("field", DRIFT_FIELDS, ids=lambda k: k.spec_str())
@pytest.mark.parametrize("maps_kind", ["forms", "concrete"])
@pytest.mark.parametrize("shape", ["plain", "sum", "Karoubi"])
def test_witness_images_on_fixed_data(shape, maps_kind, field):
    """The group monad functor of trivial Z/2 on A2; the image columns and g's
    coordinates cycle through 0, 1, 2 (and 3), so most terms multiply two non-units."""
    cat = category("C2", field)
    fn = functors("C2", field)[1]
    if maps_kind == "forms":
        maps = symbolic_maps(fn)
    else:
        maps = {key: [[field.from_int((k + i) % 3) for i in range(cat.hom_dim(*key))]
                      for k in range(hom_coord_dim(fn.target, fn.object_map[key[0]],
                                                   fn.object_map[key[1]]))]
                for key in cat.hom_pairs()}
    a, b = {"plain": (cat.obj("1"), cat.obj("2")), "sum": (cat.obj("1", "2"), cat.obj("2", "1")),
            "Karoubi": (_karoubi_21(cat), _karoubi_21(cat))}[shape]
    fa, fb = fn.on_object(a), fn.on_object(b)
    coords = [field.from_int(k % 4) for k in range(hom_coord_dim(fn.target, fa, fb))]
    g = Morphism.from_coords(fn.target, fa, fb, coords)
    w = SepWitness(fn, maps)
    got = w.apply(a, b, g)
    assert_same(got, reference_apply(w, a, b, g))
    assert not got.is_zero()

"""The sparse composition kernel against the dense loops it replaced.

`reference_accum_compose`, `reference_raw_mul` and `reference_absorbed` are the
earlier dense kernel, kept here as the oracle: it visits every (row, middle,
column) summand triple and reads the raw structure-constant tables, which each
category built here records beside its compiled ones.  Both kernels add the
same terms in the same order into each output block, so every coordinate must
agree in value and type, and a `LinForm` coordinate in the order of its
variables too.
"""

import contextlib
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepcat import (Field, FiniteGroup, GroupAction, equivariant_category, equivariant_monad,
                    induce_adjunction, monad_separability_solve, separability_solve)
from sepcat.category import (CatObject, LinearCategory, Morphism, hom_coord_dim, unit_morphisms,
                             zero_morphism)
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
    left = f.cod.idem if f.cod.idem is not None else reference_identity(cat, f.cod.summands)
    right = f.dom.idem if f.dom.idem is not None else reference_identity(cat, f.dom.summands)
    return reference_raw_mul(cat, f.cod.summands, f.dom.summands, f.dom.summands,
                             reference_raw_mul(cat, f.cod.summands, f.cod.summands,
                                               f.dom.summands, left, f.blocks, zero),
                             right, zero)


def strict(blocks):
    """Blocks with each coordinate's type, and a LinForm's variable order, made visible."""
    def one(a):
        if isinstance(a, LinForm):
            return ("form", one(a.const), tuple((i, one(v)) for i, v in a.coeffs.items()))
        return (type(a).__name__, a)
    return [[[one(a) for a in vec] for vec in row] for row in blocks]


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


FIELDS = [Field.rationals(), Field.prime(2), Field.prime(3), Field.prime(7)]
BUILDERS = {"C1": point_category, "C2": a2_quiver_category, "C3": two_point_category,
            "Cd": dual_numbers_category, "Cw": cyclotomic_table_category}
_CATS = {}


def category(kind, field):
    key = (kind, field.char)
    if key not in _CATS:
        with recording():
            _CATS[key] = BUILDERS[kind](field)
    return _CATS[key]


def scalars(field):
    if field.is_rational:
        return st.fractions(min_value=-4, max_value=4, max_denominator=3)
    return st.integers(0, field.char - 1).map(field.from_int)


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
    return CatObject(cat, summands, idem)


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


@pytest.mark.parametrize("name", list(_actions()))
def test_separability_compositions_match_dense_kernel(name):
    """Every product and absorption that monad and functor separability compute."""
    seen = []
    matmul, absorbed = Morphism.__matmul__, Morphism.absorbed

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
        act = _actions()[name]()
        monad_separability_solve(equivariant_monad(act))
        separability_solve(induce_adjunction(equivariant_category(act)).G)
    assert any(any(isinstance(a, LinForm) for a in m.coords()) for m in seen)


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

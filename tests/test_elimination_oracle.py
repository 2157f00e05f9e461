"""The integer eliminator against the field-arithmetic loop it replaced.

`reference_solve_sparse` and `reference_rank_extension` are the earlier
`Fraction`/`Fp` forward and backward loops, kept here as the oracle; they turn
rational inputs into `Fraction`s first (`field_scalar`), so int entries are
divided in field arithmetic.  Elimination on integers keeps every row a
nonzero multiple of the field row, so rank, particular solution, kernel basis
and the first contradicting label must all be identical, not merely
equivalent, and every returned rational is an int exactly when it is integral.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sepcat.category
from sepcat import (Field, FiniteGroup, GroupAction, equivariant_category, equivariant_monad,
                    induce_adjunction, monad_separability_solve, separability_solve)
from sepcat.linalg import (AffineSolution, Infeasible, coordinate_map, rank_extension,
                           reduced_form, solve_sparse)
from sepcat.scalars import Fp
from sepcat.standard import point_category, two_point_category


def field_scalar(v, field):
    """A rational entry as a Fraction, so `/` on it is field division."""
    return Fraction(v) if field.is_rational else v


def reference_solve_sparse(rows, consts, n_vars, field, labels=None):
    pivots = {}
    bad_label = None
    n_bad = 0
    for idx in range(len(rows)):
        row = {j: field_scalar(v, field) for j, v in rows[idx].items()}
        cst = field_scalar(consts[idx], field)
        while row:
            c = min(row)
            if c not in pivots:
                break
            coef = row.pop(c)
            prow, pcst = pivots[c]
            for j, v in prow.items():
                nv = row.get(j)
                nv = -coef * v if nv is None else nv - coef * v
                if nv:
                    row[j] = nv
                elif j in row:
                    del row[j]
            cst = cst - coef * pcst
        if not row:
            if cst:
                n_bad += 1
                if bad_label is None and labels is not None:
                    bad_label = labels[idx]
            continue
        c = min(row)
        coef = row.pop(c)
        if coef != field.one():
            row = {j: v / coef for j, v in row.items()}
            cst = cst / coef
        pivots[c] = (row, cst)
    rank = len(pivots)
    if n_bad:
        return Infeasible(rank, rank + 1, n_vars, len(rows), bad_label)

    for c in sorted(pivots, reverse=True):
        prow, pcst = pivots[c]
        for j in sorted(prow):
            if j in pivots:
                coef = prow.pop(j)
                qrow, qcst = pivots[j]
                for t, v in qrow.items():
                    nv = prow.get(t)
                    nv = -coef * v if nv is None else nv - coef * v
                    if nv:
                        prow[t] = nv
                    elif t in prow:
                        del prow[t]
                pcst = pcst - coef * qcst
        pivots[c] = (prow, pcst)

    zero = field.zero()
    particular = [zero] * n_vars
    for c, (_, pcst) in pivots.items():
        particular[c] = pcst
    kernel = []
    for f in range(n_vars):
        if f in pivots:
            continue
        vec = [zero] * n_vars
        vec[f] = field.one()
        for c, (prow, _) in pivots.items():
            if f in prow:
                vec[c] = -prow[f]
        kernel.append(vec)
    return rank, particular, kernel


def _reference_echelon_insert(pivots, vec, field):
    row = {i: field_scalar(v, field) for i, v in enumerate(vec) if v}
    while row:
        c = min(row)
        if c not in pivots:
            break
        coef = row.pop(c)
        for j, v in pivots[c].items():
            nv = row.get(j)
            nv = -coef * v if nv is None else nv - coef * v
            if nv:
                row[j] = nv
            elif j in row:
                del row[j]
    if not row:
        return False
    c = min(row)
    coef = row.pop(c)
    if coef != field.one():
        row = {j: v / coef for j, v in row.items()}
    pivots[c] = row
    return True


def reference_rank_extension(base_vectors, candidates, field):
    pivots = {}
    for v in base_vectors:
        _reference_echelon_insert(pivots, v, field)
    base_rank = len(pivots)
    chosen = [i for i, v in enumerate(candidates)
              if _reference_echelon_insert(pivots, v, field)]
    return base_rank, chosen


def assert_same(got, want, field):
    if isinstance(want, Infeasible):
        assert isinstance(got, Infeasible)
        assert (got.rank, got.rank_augmented, got.n_vars, got.n_rows, got.subsystem) == \
            (want.rank, want.rank_augmented, want.n_vars, want.n_rows, want.subsystem)
        return
    rank, particular, kernel = want
    assert isinstance(got, AffineSolution)
    assert got.rank == rank
    assert got.particular == particular
    assert got.kernel == kernel
    assert_scalar_types([got.particular, *got.kernel], field)


def assert_scalar_types(vectors, field):
    """Over Q an int exactly when integral, else a Fraction; over F_p an Fp."""
    for a in (a for vec in vectors for a in vec):
        if not field.is_rational:
            assert type(a) is Fp
        else:
            assert type(a) is (int if a.denominator == 1 else Fraction), repr(a)


FIELDS = [Field.rationals(), Field.prime(2), Field.prime(3), Field.prime(7)]


def scalars(field):
    if field.is_rational:
        # denominators up to 7, signs of both kinds, so leads are often negative;
        # integral entries come both as ints and as Fractions
        return st.fractions(min_value=-9, max_value=9, max_denominator=7) | st.integers(-9, 9)
    return st.integers(0, field.char - 1).map(field.from_int)


@st.composite
def systems(draw):
    """Sparse rows with zero rows, duplicates and combinations of earlier rows.

    The constants are those of a drawn point, so the system is feasible, unless
    some are redrawn at random, which usually makes it infeasible.
    """
    field = draw(st.sampled_from(FIELDS))
    scal = scalars(field)
    n_vars = draw(st.integers(1, 6))
    n_rows = draw(st.integers(0, 9))
    fresh = st.dictionaries(st.integers(0, n_vars - 1), scal, max_size=n_vars)
    rows = []
    for _ in range(n_rows):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "duplicate", "combination"]))
        if kind == "zero":
            row = {}
        elif kind == "fresh" or not rows:
            row = draw(fresh)
        elif kind == "duplicate":
            row = dict(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(scal), draw(scal)
            row = {j: s * a.get(j, field.zero()) + t * b.get(j, field.zero())
                   for j in set(a) | set(b)}
        rows.append({j: v for j, v in row.items() if v})
    point = draw(st.lists(scal, min_size=n_vars, max_size=n_vars))
    consts = [sum((v * point[j] for j, v in row.items()), field.zero()) for row in rows]
    if rows:
        for i in draw(st.lists(st.integers(0, n_rows - 1), max_size=2)):
            consts[i] = draw(scal)
    labels = draw(st.none() | st.just([f"row {i}" for i in range(n_rows)]))
    return rows, consts, n_vars, field, labels


@settings(max_examples=200, deadline=None)
@given(systems())
def test_solve_sparse_matches_field_elimination(system):
    rows, consts, n_vars, field, labels = system
    want = reference_solve_sparse([dict(r) for r in rows], list(consts), n_vars, field, labels)
    assert_same(solve_sparse(rows, consts, n_vars, field, labels), want, field)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(FIELDS), st.integers(1, 6))
def test_rank_extension_matches_field_elimination(data, field, dim):
    """The same vectors, dense and as sparse rows {position: nonzero scalar}, both match."""
    vectors = st.lists(scalars(field), min_size=dim, max_size=dim)
    base = data.draw(st.lists(vectors, max_size=4))
    candidates = data.draw(st.lists(vectors, max_size=5))
    pool = base + candidates
    if pool:  # duplicates of vectors already seen
        candidates += data.draw(st.lists(st.sampled_from(pool), max_size=2))
    want = reference_rank_extension(base, candidates, field)
    assert rank_extension(base, candidates, field) == want

    def sparse(vectors):
        return [{i: v for i, v in enumerate(vec) if v} for vec in vectors]

    assert rank_extension(sparse(base), sparse(candidates), field) == want


@st.composite
def invertible_matrices(draw, k, field):
    """A k×k matrix P·L·U: a permutation, unit lower and invertible upper triangular."""
    scal, zero, one = scalars(field), field.zero(), field.one()
    lower = [[draw(scal) if j < i else one if j == i else zero for j in range(k)]
             for i in range(k)]
    upper = [[draw(scal.filter(bool)) if j == i else draw(scal) if j > i else zero
              for j in range(k)] for i in range(k)]
    lu = [[sum((lower[i][t] * upper[t][j] for t in range(k)), zero) for j in range(k)]
          for i in range(k)]
    return [lu[i] for i in draw(st.permutations(range(k)))]


@settings(max_examples=200, deadline=None)
@given(st.data(), systems())
def test_reduced_form_recovers_the_reduced_solution(data, system):
    """Any description of a solution set reduces to the one `solve_sparse` returns.

    The kernel is recombined by an invertible matrix and the particular solution
    moved by a kernel combination; `reduced_form` must undo both exactly.
    """
    rows, consts, n_vars, field, _ = system
    want = solve_sparse(rows, consts, n_vars, field)
    assume(want.feasible)
    k, zero = len(want.kernel), field.zero()

    def combination(coefficients):
        return [sum((c * vec[j] for c, vec in zip(coefficients, want.kernel)), zero)
                for j in range(n_vars)]

    kernel = [combination(row) for row in data.draw(invertible_matrices(k, field))]
    shift = combination(data.draw(st.lists(scalars(field), min_size=k, max_size=k)))
    particular = [a + b for a, b in zip(want.particular, shift)]
    got = reduced_form(particular, kernel, field)
    assert (got.particular, got.kernel, got.free, got.rank, got.n_vars) == \
        (want.particular, want.kernel, want.free, want.rank, want.n_vars)
    assert_scalar_types([got.particular, *got.kernel], field)


def test_reduced_form_rejects_a_dependent_kernel():
    q = Field.rationals()
    with pytest.raises(ValueError, match="dependent"):
        reduced_form([0, 0], [[1, 2], [Fraction(1, 2), 1]], q)


def _actions():
    q, f3, f5 = Field.rationals(), Field.prime(3), Field.prime(5)
    z2, z3 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(3)
    swap = {z2.unit: {"x": "x", "y": "y"},
            next(g for g in z2.elements if g != z2.unit): {"x": "y", "y": "x"}}
    return {
        "Z/3 on C1 over Q": GroupAction.trivial(z3, point_category(q)),
        "Z/3 on C1 over F3": GroupAction.trivial(z3, point_category(f3)),
        "Z/4 on C1 over Q": GroupAction.trivial(FiniteGroup.cyclic(4), point_category(q)),
        "Z/5 on C1 over F5": GroupAction.trivial(FiniteGroup.cyclic(5), point_category(f5)),
        "Z/2 swap on C3 over Q": GroupAction.from_permutation(z2, two_point_category(q), swap),
    }


@pytest.mark.parametrize("name", list(_actions()))
def test_separability_systems_match_field_elimination(name, monkeypatch):
    """Every system that a monad and a functor separability solve assembles."""
    seen = []

    def checked(rows, consts, n_vars, field, labels=None):
        got = solve_sparse(rows, consts, n_vars, field, labels)
        assert_same(got, reference_solve_sparse(rows, consts, n_vars, field, labels), field)
        seen.append(len(rows))
        return got

    monkeypatch.setattr(sepcat.category, "solve_sparse", checked)
    act = _actions()[name]
    monad_separability_solve(equivariant_monad(act))
    separability_solve(induce_adjunction(equivariant_category(act)).G)
    assert seen


@pytest.mark.parametrize("entry", [Fp(1, 3), Fp(0, 3), Fraction(1, 2), 1])
def test_scalar_of_another_field_is_rejected(entry):
    f2 = Field.prime(2)
    with pytest.raises(ValueError, match="not a scalar of F2"):
        solve_sparse([{0: f2.one(), 1: entry}], [f2.zero()], 2, f2)
    with pytest.raises(ValueError, match="not a scalar of F2"):
        solve_sparse([{0: f2.one()}], [entry], 1, f2)
    with pytest.raises(ValueError, match="not a scalar of F2"):
        rank_extension([[f2.one(), entry if entry else Fp(1, 3)]], [], f2)


@pytest.mark.parametrize("entry", [Fp(1, 2), Fp(3, 5), 0.5, True])
def test_prime_field_scalar_in_a_rational_system_is_rejected(entry):
    q = Field.rationals()
    with pytest.raises(ValueError, match="not a scalar of Q"):
        solve_sparse([{0: q.one(), 1: entry}], [q.zero()], 2, q)
    with pytest.raises(ValueError, match="not a scalar of Q"):
        solve_sparse([{0: q.one()}], [entry], 1, q)
    with pytest.raises(ValueError, match="not a scalar of Q"):
        rank_extension([[q.one(), entry]], [], q)


@pytest.mark.parametrize("n", [1, -3, 0, 6])
def test_int_entry_in_a_rational_system_solves_as_its_fraction(n):
    q = Field.rationals()
    cases = [lambda e: solve_sparse([{0: q.one(), 1: e}], [q.zero()], 2, q),
             lambda e: solve_sparse([{0: 2 * q.one()}], [e], 1, q),
             lambda e: solve_sparse([{0: e, 1: 3}, {1: e}], [e, 4], 2, q)]
    for solve in cases:
        got, want = solve(n), solve(Fraction(n))
        assert got.feasible == want.feasible
        if got.feasible:
            assert (got.rank, got.free, got.particular, got.kernel) == \
                (want.rank, want.free, want.particular, want.kernel)
            assert_scalar_types([got.particular, *got.kernel], q)
            assert_scalar_types([want.particular, *want.kernel], q)
        else:
            assert (got.rank, got.n_vars, got.n_rows) == (want.rank, want.n_vars, want.n_rows)
    assert rank_extension([[q.one(), n]], [[n, n]], q) == \
        rank_extension([[q.one(), Fraction(n)]], [[Fraction(n), Fraction(n)]], q)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(FIELDS), st.integers(1, 5), st.integers(0, 4))
def test_coordinate_map_is_unique_coordinates(data, field, n, k):
    """Coordinates from one elimination agree with solving each target afresh."""
    vectors = st.lists(scalars(field), min_size=n, max_size=n)
    columns = data.draw(st.lists(vectors, max_size=k))
    target = data.draw(vectors)
    rows = [{j: col[i] for j, col in enumerate(columns)} for i in range(n)]
    direct = solve_sparse(rows, target, len(columns), field)
    coords = coordinate_map(columns, field)
    if direct.feasible and not direct.kernel:
        assert coords(target) == direct.particular
    else:
        with pytest.raises(ValueError):
            coords(target)

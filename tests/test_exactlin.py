"""Exact scalars and the affine-feasibility kernel, cross-checked against
brute-force enumeration over small prime fields."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepcat import (Field, Infeasible, Matrix, NotInvertibleError, div_by_int,
                    solve_affine)


def mat(field, rows):
    return Matrix(field, [[field.from_int(v) for v in row] for row in rows],
                  cols=len(rows[0]) if rows else 0)


def vec(field, entries):
    return [field.from_int(v) for v in entries]


class TestScalars:
    def test_rational_canonical_form(self):
        q = Field.rationals()
        assert q.parse("6/4") == Fraction(3, 2)
        assert q.fmt(q.parse("-3/9")) == "-1/3"
        assert q.fmt(q.parse("5")) == "5"

    def test_prime_field_canonical_form(self):
        f5 = Field.prime(5)
        x = f5.parse("12")
        assert f5.fmt(x) == "2"
        assert f5.parse("4") + f5.parse("3") == f5.parse("2")

    def test_field_spec_roundtrip(self):
        for s in ("Q", "F2", "F97"):
            assert Field.from_spec(s).spec_str() == s
        with pytest.raises(ValueError):
            Field.from_spec("F4")
        with pytest.raises(ValueError):
            Field(6)

    def test_mixed_prime_fields_rejected(self):
        a = Field.prime(2).one()
        b = Field.prime(3).one()
        with pytest.raises(ValueError):
            a + b


class TestDivByInt:
    def test_inverse_of_two_mod_three(self):
        f3 = Field.prime(3)
        assert div_by_int(f3.one(), 2) == f3.from_int(2)

    def test_char_divides_n(self):
        f2 = Field.prime(2)
        with pytest.raises(NotInvertibleError):
            div_by_int(f2.one(), 2)

    def test_rational_division(self):
        assert div_by_int(Fraction(3, 4), 3) == Fraction(1, 4)

    def test_matrix_division(self):
        f3 = Field.prime(3)
        m = mat(f3, [[1, 2], [0, 1]])
        assert div_by_int(m, 2) == mat(f3, [[2, 1], [0, 2]])

    @given(st.integers(-50, 50), st.integers(1, 12))
    def test_division_undoes_multiplication(self, num, n):
        x = Fraction(num, 7)
        assert div_by_int(n * x, n) == x


class TestSolveAffine:
    def test_scalar_division(self):
        q = Field.rationals()
        res = solve_affine(mat(q, [[2]]), vec(q, [1]))
        assert res.feasible
        assert res.particular == [Fraction(1, 2)]
        assert res.kernel == []

    def test_zero_times_x_is_one_infeasible(self):
        f2 = Field.prime(2)
        res = solve_affine(mat(f2, [[0]]), vec(f2, [1]))
        assert isinstance(res, Infeasible)
        assert res.rank_augmented == res.rank + 1

    def test_one_relation_two_unknowns(self):
        q = Field.rationals()
        res = solve_affine(mat(q, [[1, 1]]), vec(q, [0]))
        assert res.feasible
        assert res.particular == [Fraction(0), Fraction(0)]
        assert len(res.kernel) == 1

    def test_dimension_mismatch(self):
        q = Field.rationals()
        with pytest.raises(ValueError):
            solve_affine(mat(q, [[1, 1]]), vec(q, [0, 0]))

    def test_mixed_fields(self):
        q = Field.rationals()
        f2 = Field.prime(2)
        b = Matrix(f2, [[f2.one()]], cols=1)
        with pytest.raises(ValueError):
            solve_affine(mat(q, [[1]]), b)


def brute_force_feasible(a: Matrix, b) -> bool:
    """Oracle: enumerate every candidate vector over the prime field."""
    p = a.field.char
    assert p in (2, 3)
    for cand in product(range(p), repeat=a.cols):
        x = [a.field.from_int(v) for v in cand]
        if a.apply(x) == list(b):
            return True
    return False


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from([2, 3]),
       st.integers(1, 3), st.integers(1, 3))
def test_feasibility_matches_bruteforce_oracle(data, p, rows, cols):
    field = Field.prime(p)
    entries = data.draw(st.lists(st.integers(0, p - 1), min_size=rows * cols,
                                 max_size=rows * cols))
    rhs = data.draw(st.lists(st.integers(0, p - 1), min_size=rows, max_size=rows))
    a = Matrix(field, [[field.from_int(entries[i * cols + j]) for j in range(cols)]
                       for i in range(rows)], cols=cols)
    b = vec(field, rhs)
    res = solve_affine(a, b)
    assert res.feasible == brute_force_feasible(a, b)
    if res.feasible:
        assert a.apply(res.particular) == b
        for k in res.kernel:
            assert all(not v for v in a.apply(k))


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 4))
def test_rational_solutions_are_exact(data, rows, cols):
    q = Field.rationals()
    fracs = st.fractions(min_value=-9, max_value=9, max_denominator=5)
    entries = data.draw(st.lists(fracs, min_size=rows * cols, max_size=rows * cols))
    rhs = data.draw(st.lists(fracs, min_size=rows, max_size=rows))
    a = Matrix(q, [[entries[i * cols + j] for j in range(cols)] for i in range(rows)],
               cols=cols)
    res = solve_affine(a, list(rhs))
    if res.feasible:
        assert a.apply(res.particular) == list(rhs)
        for k in res.kernel:
            assert all(v == 0 for v in a.apply(k))
        assert len(res.kernel) == cols - res.rank
    else:
        # checked against sympy's rank, not against this solver; imported here so that
        # collecting the tests does not load sympy before the acceptance budgets run
        import sympy

        def sympy_rank(matrix_rows):
            return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in r]
                                 for r in matrix_rows]).rank()
        aug = [row + [rhs[i]] for i, row in enumerate(a.data)]
        assert sympy_rank(aug) == sympy_rank(a.data) + 1
        assert res.rank == sympy_rank(a.data)


def test_solver_pivots_deterministically():
    q = Field.rationals()
    a = mat(q, [[0, 1, 1], [0, 0, 1]])
    r1 = solve_affine(a, vec(q, [1, 1]))
    r2 = solve_affine(a, vec(q, [1, 1]))
    assert r1.particular == r2.particular == [Fraction(0), Fraction(0), Fraction(1)]
    assert r1.kernel == r2.kernel

"""The sparse affine-feasibility core: exact elimination over Q and F_p.

Every separability decision in the library reduces to exact feasibility of an
affine system A·x = b.  The solver row-reduces sparse rows in input order,
pivoting on the smallest remaining column; there are no tolerances anywhere.

Elimination runs on Python ints.  Over F_p a row holds the residues of its `Fp`
entries, reduced mod p against monic pivot rows.  Over Q a row's denominators
are cleared, a pivot row keeps its integer lead, and a row is updated
fraction-free as lead·row − a·pivot_row, then divided by the gcd of its entries
and constant.  Every row held is thus a nonzero multiple of the row that field
elimination would hold, with the same support, so the pivots, reduced form and
first contradicting row are exactly those of field elimination.  Field scalars
are minted again only for the returned particular solution and kernel basis,
over Q through `rational`, so an integral entry comes back as an int.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import Field, Fp, rational


class AffineSolution:
    """A particular solution of A·x = b together with a kernel basis of A.

    kernel[i] is 1 at the free column free[i] and 0 at every other free column, and
    the particular solution is 0 at all of them: in a given column order, a unique form.
    """

    __slots__ = ("particular", "kernel", "free", "rank", "n_vars")
    feasible = True

    def __init__(self, particular, kernel, free, rank, n_vars):
        self.particular = particular
        self.kernel = kernel
        self.free = free
        self.rank = rank
        self.n_vars = n_vars

    def __repr__(self):
        return f"<AffineSolution rank={self.rank} kernel_dim={len(self.kernel)}>"


class Infeasible:
    """Certificate that A·x = b has no solution: augmenting b raises the rank."""

    __slots__ = ("rank", "rank_augmented", "n_vars", "n_rows", "subsystem")
    feasible = False

    def __init__(self, rank, rank_augmented, n_vars, n_rows, subsystem=None):
        self.rank = rank
        self.rank_augmented = rank_augmented
        self.n_vars = n_vars
        self.n_rows = n_rows
        self.subsystem = subsystem

    def __repr__(self):
        tag = f" at {self.subsystem!r}" if self.subsystem else ""
        return (f"<Infeasible rank={self.rank} augmented={self.rank_augmented}"
                f" vars={self.n_vars}{tag}>")


def _primitive(row: dict, cst: int) -> int:
    """Divide an integer row and its constant by their gcd, in place; returns the constant."""
    g = gcd(cst, *row.values())
    if g > 1:
        for j in row:
            row[j] //= g
        cst //= g
    return cst


def _int_row(entries: dict, cst, p: int):
    """The row as ints: residues over F_p, a primitive multiple over Q; zeros dropped.

    A scalar not of the field (over Q: exactly an int or a Fraction) raises ValueError.
    """
    if not all(isinstance(v, Fp) and v.p == p if p else type(v) in (int, Fraction)
               for v in (cst, *entries.values())):
        raise ValueError(f"a coefficient is not a scalar of {'F%d' % p if p else 'Q'}")
    if p:
        return {j: v.v for j, v in entries.items() if v.v}, cst.v
    den = lcm(cst.denominator, *(v.denominator for v in entries.values()))
    row = {j: v.numerator * (den // v.denominator) for j, v in entries.items() if v}
    return row, _primitive(row, cst.numerator * (den // cst.denominator))


def _eliminate(row: dict, cst: int, c: int, pivot, p: int) -> int:
    """row ← lead·row − a·pivot_row, clearing column c, in place; returns the constant.

    Over F_p the lead is 1 and entries are reduced mod p; over Q the row is made primitive.
    """
    a = row.pop(c)
    lead, prow, pcst = pivot
    if p:
        for j, v in prow.items():
            nv = (row.get(j, 0) - a * v) % p
            if nv:
                row[j] = nv
            else:
                del row[j]
        return (cst - a * pcst) % p
    if lead != 1:
        for j in row:
            row[j] *= lead
    for j, v in prow.items():
        nv = row.get(j, 0) - a * v
        if nv:
            row[j] = nv
        else:
            del row[j]
    return _primitive(row, lead * cst - a * pcst)


def _insert(pivots: dict, row: dict, cst: int, p: int):
    """Reduce an integer row, in place, while its leading column has a pivot row.

    A nonzero remainder becomes the pivot row (lead, rest, const) of its leading
    column, monic over F_p, and None is returned; else the constant left over.
    """
    while row:
        c = min(row)
        pivot = pivots.get(c)
        if pivot is None:
            lead = row.pop(c)
            if p and lead != 1:
                inv = pow(lead, -1, p)
                for j in row:
                    row[j] = row[j] * inv % p
                cst, lead = cst * inv % p, 1
            pivots[c] = (lead, row, cst)
            return None
        cst = _eliminate(row, cst, c, pivot, p)
    return cst


def _back_substitute(pivots: dict, p: int):
    """Clear each pivot column from the other pivot rows, in place; the lead rides along."""
    for c in sorted(pivots, reverse=True):
        lead, prow, pcst = pivots[c]
        prow[c] = lead
        for j in sorted(prow):
            if j != c and j in pivots:
                pcst = _eliminate(prow, pcst, j, pivots[j], p)
        pivots[c] = (prow.pop(c), prow, pcst)


def solve_sparse(rows, consts, n_vars, field: Field, labels=None):
    """Solve the sparse affine system given as (dict col->coeff, const) rows.

    Rows are taken in input order; each is reduced against the pivot rows so
    far until its smallest column is new, and pivots there.  The work is done
    on ints (module docstring): each int row is a nonzero multiple of the field
    row, so pivots, rank, particular solution and kernel basis are those of
    field elimination.  Returns an AffineSolution or an Infeasible certificate
    naming the first contradicting row's label, if labels are supplied.  A
    coefficient or constant that is not a scalar of `field` raises ValueError.
    """
    p = field.char
    pivots: dict[int, tuple[int, dict, int]] = {}
    bad = []
    for idx in range(len(rows)):
        if _insert(pivots, *_int_row(rows[idx], consts[idx], p), p):
            bad.append(idx)
    rank = len(pivots)
    if bad:
        return Infeasible(rank, rank + 1, n_vars, len(rows),
                          None if labels is None else labels[bad[0]])
    _back_substitute(pivots, p)
    zero, one = field.zero(), field.one()
    free = [f for f in range(n_vars) if f not in pivots]
    particular = [zero] * n_vars
    kernel = {f: [one if i == f else zero for i in range(n_vars)] for f in free}
    for c, (lead, prow, pcst) in pivots.items():
        particular[c] = Fp(pcst, p) if p else rational(pcst, lead)
        for f, v in prow.items():
            kernel[f][c] = Fp(-v, p) if p else rational(-v, lead)
    return AffineSolution(particular, list(kernel.values()), free, rank, n_vars)


def extends_pivots(pivots: dict, vec, field) -> bool:
    """Whether vec, a sequence or a sparse row {position: scalar}, is independent of the
    vectors inserted into `pivots` so far; an independent vec joins them.  A zero vec is not."""
    entries = vec if isinstance(vec, dict) else {i: v for i, v in enumerate(vec) if v}
    row, _ = _int_row(entries, field.zero(), field.char)
    return _insert(pivots, row, 0, field.char) is None


def reduced_form(particular, kernel, field: Field) -> AffineSolution:
    """What `solve_sparse` returns for any system solved by particular + span(kernel):
    the reduced echelon basis, pivoting on last nonzero entries, of the span of
    (particular, 1) and the (kernel_i, 0), which must be independent.  It is
    eliminated with the columns reversed, so the appended coordinate comes first."""
    p, n, zero, one = field.char, len(particular), field.zero(), field.one()
    pivots: dict[int, tuple[int, dict, int]] = {}
    for vec in [[one, *particular[::-1]]] + [[zero, *k[::-1]] for k in kernel]:
        if not extends_pivots(pivots, vec, field):
            raise ValueError("the kernel vectors are linearly dependent")
    _back_substitute(pivots, p)
    vectors = []  # by pivot column, so the kernel vectors come first, the particular last
    for c in sorted(pivots, reverse=True):
        lead, prow, _ = pivots[c]
        vec = [zero] * (n + 1)
        for j, v in [(c, lead), *prow.items()]:
            vec[n - j] = Fp(v, p) if p else rational(v, lead)
        vectors.append(vec[:n])
    free = [n - c for c in sorted(pivots, reverse=True) if c]
    return AffineSolution(vectors[-1], vectors[:-1], free, n - len(free), n)


def transfer(sol, forms, slack, label, field: Field):
    """The outcome of eliminating a big system, from `sol`, that of a small one.

    The big unknowns, in order, are the affine `forms` in the small ones.  The caller
    proves that the forms, and their linear parts, map the small solutions, and the
    homogeneous ones, injectively onto the big ones modulo the `slack`, independent of
    that image.  So the big rank is len(forms) − (n_small − rank_small) − len(slack),
    feasible or not; the slack moves only the kernel and the rank.  `reduced_form` writes
    a feasible outcome as elimination would; a "no" uses only len(forms), and `label`.
    """
    if not sol.feasible:
        rank = len(forms) - (sol.n_vars - sol.rank) - len(slack)
        return Infeasible(rank, rank + 1, len(forms), sol.n_rows, label)
    vecs = [[a.eval(v, c) if isinstance(a, LinForm) else a if c else field.zero() for a in forms]
            for v, c in [(sol.particular, True), *((k, False) for k in sol.kernel)]]
    return reduced_form(vecs[0], vecs[1:] + slack, field)


def rank_extension(base_vectors, candidates, field):
    """Rank of the base family, plus indices of candidates extending it independently."""
    pivots: dict = {}
    for v in base_vectors:
        extends_pivots(pivots, v, field)
    return len(pivots), [i for i, v in enumerate(candidates) if extends_pivots(pivots, v, field)]


def coordinate_map(columns, field):
    """Eliminate a family of vectors once; returns t ↦ the coordinates of t in it.

    Solves B·x − t = 0 with x ordered before t.  For independent columns each x
    column is a pivot, and a t in the span has x = the x part of Σ_f t_f·kernel_f
    over the free (t) columns.  The map raises ValueError for a t outside the
    span, and for every t when the family is dependent.
    """
    k, n = len(columns), len(columns[0]) if columns else 0
    zero = field.zero()
    rows = [{k + i: -field.one()} for i in range(n)]
    for j, col in enumerate(columns):
        for i, v in enumerate(col):
            if v:
                rows[i][j] = v
    sol = solve_sparse(rows, [zero] * n, k + n, field)
    dependent = bool(sol.free) and sol.free[0] < k
    combos = [(f - k, [(i, v) for i, v in enumerate(vec) if v])
              for f, vec in zip(sol.free, sol.kernel)]

    def coords(t) -> list:
        if dependent:
            raise ValueError("the given family is linearly dependent")
        w = {}
        for f, entries in combos:
            if t[f]:
                for i, v in entries:
                    w[i] = w.get(i, zero) + t[f] * v
        if any(w.get(k + i, zero) != v for i, v in enumerate(t)):
            raise ValueError("morphism does not lie in the span of the basis")
        return [w.get(j, zero) for j in range(k)]

    return coords


class LinForm:
    """Affine form const + Σ coeff_i·x_i with exact scalar coefficients, immutable.

    Field scalars defer to it in arithmetic and comparison, so a form can sit in
    any coordinate of a Morphism or of a witness column as one more scalar.
    """

    __slots__ = ("const", "coeffs")

    def __init__(self, const, coeffs=None):
        self.const = const
        self.coeffs = coeffs if coeffs is not None else {}

    @staticmethod
    def variable(i: int, field: Field) -> "LinForm":
        return LinForm(field.zero(), {i: field.one()})

    def _as_form(self, other):
        if isinstance(other, LinForm):
            return other
        return LinForm(other)

    def __add__(self, other):
        o = self._as_form(other)
        coeffs = dict(self.coeffs)
        for i, v in o.coeffs.items():
            nv = coeffs.get(i)
            nv = v if nv is None else nv + v
            if nv:
                coeffs[i] = nv
            elif i in coeffs:
                del coeffs[i]
        return LinForm(self.const + o.const, coeffs)

    __radd__ = __add__

    def __neg__(self):
        return LinForm(-self.const, {i: -v for i, v in self.coeffs.items()})

    @staticmethod
    def difference(a, b) -> tuple:
        """(const, coeffs) of a − b for forms or scalars a, b; one copy of the coefficients."""
        const, coeffs = (a.const, dict(a.coeffs)) if isinstance(a, LinForm) else (a, {})
        if not isinstance(b, LinForm):
            return const - b, coeffs
        for i, v in b.coeffs.items():
            nv = coeffs[i] - v if i in coeffs else -v
            if nv:
                coeffs[i] = nv
            elif i in coeffs:
                del coeffs[i]
        return const - b.const, coeffs

    def __sub__(self, other):
        return LinForm(*LinForm.difference(self, other))

    def __rsub__(self, other):
        return LinForm(*LinForm.difference(other, self))

    def __mul__(self, other):
        if isinstance(other, LinForm):
            if other.coeffs and self.coeffs:
                raise TypeError("product of two non-constant linear forms")
            if other.coeffs:
                return other * self.const
            other = other.const
        if not other:
            return LinForm(self.const * other)
        return LinForm(self.const * other,
                       {i: v * other for i, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.coeffs) or bool(self.const)

    def __eq__(self, other):
        o = self._as_form(other)
        return self.const == o.const and self.coeffs == o.coeffs

    def eval(self, values, with_const: bool = True):
        acc = self.const if with_const else self.const - self.const
        for i, v in self.coeffs.items():
            if values[i]:
                acc = acc + v * values[i]
        return acc

    def __repr__(self):
        terms = " + ".join(f"{v}*x{i}" for i, v in sorted(self.coeffs.items()))
        return f"LinForm({self.const}{' + ' + terms if terms else ''})"

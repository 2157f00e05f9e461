"""Dense exact matrices and the sparse affine-feasibility core.

Every separability decision in the library reduces to exact feasibility of an
affine system A·x = b.  The solver row-reduces sparse rows, pivoting on the
first nonzero entry in column order; there are no tolerances anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Field, Fp


class AffineSolution:
    """A particular solution of A·x = b together with a kernel basis of A."""

    __slots__ = ("particular", "kernel", "rank", "n_vars")
    feasible = True

    def __init__(self, particular, kernel, rank, n_vars):
        self.particular = particular
        self.kernel = kernel
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


def solve_sparse(rows, consts, n_vars, field: Field, labels=None):
    """Solve the sparse affine system given as (dict col->coeff, const) rows.

    Pivot rows are stored without their (normalized) pivot entry.  Returns an
    AffineSolution or an Infeasible certificate naming the first contradicting
    row's label, if labels are supplied.
    """
    pivots: dict[int, tuple[dict, object]] = {}
    bad_label = None
    n_bad = 0
    for idx in range(len(rows)):
        row = dict(rows[idx])
        cst = consts[idx]
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

    # back-substitution to full reduced form
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
    return AffineSolution(particular, kernel, rank, n_vars)


def _echelon_insert(pivots: dict, vec, field) -> bool:
    """Reduce vec against the echelon rows; insert and return True if independent."""
    row = {i: v for i, v in enumerate(vec) if v}
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


def rank_extension(base_vectors, candidates, field):
    """Rank of the base family, plus indices of candidates extending it independently."""
    pivots: dict = {}
    for v in base_vectors:
        _echelon_insert(pivots, v, field)
    base_rank = len(pivots)
    chosen = [i for i, v in enumerate(candidates) if _echelon_insert(pivots, v, field)]
    return base_rank, chosen


class Matrix:
    """Dense matrix over an exact field."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, data, cols: int | None = None):
        self.field = field
        self.data = [list(r) for r in data]
        self.rows = len(self.data)
        if self.rows:
            self.cols = len(self.data[0])
            if any(len(r) != self.cols for r in self.data):
                raise ValueError("ragged rows")
        else:
            if cols is None:
                raise ValueError("empty matrix needs an explicit column count")
            self.cols = cols

    @classmethod
    def zeros(cls, field, rows, cols):
        z = field.zero()
        return cls(field, [[z] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero(), field.one()
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def from_columns(cls, field, columns, rows: int):
        m = cls.zeros(field, rows, len(columns))
        for j, col in enumerate(columns):
            if len(col) != rows:
                raise ValueError("column length mismatch")
            for i, v in enumerate(col):
                m.data[i][j] = v
        return m

    @classmethod
    def parse(cls, field, string_rows, cols=None):
        return cls(field, [[field.parse(s) for s in row] for row in string_rows], cols=cols)

    def to_strings(self):
        return [[self.field.fmt(v) for v in row] for row in self.data]

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i):
        return list(self.data[i])

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def _check_same(self, other):
        if self.field != other.field:
            raise ValueError("mixed fields")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __add__(self, other):
        self._check_same(other)
        return Matrix(self.field,
                      [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
                      cols=self.cols)

    def __sub__(self, other):
        self._check_same(other)
        return Matrix(self.field,
                      [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
                      cols=self.cols)

    def __neg__(self):
        return Matrix(self.field, [[-a for a in r] for r in self.data], cols=self.cols)

    def scale(self, s):
        return Matrix(self.field, [[s * a for a in r] for r in self.data], cols=self.cols)

    def __matmul__(self, other):
        if self.field != other.field:
            raise ValueError("mixed fields")
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        zero = self.field.zero()
        out = []
        for i in range(self.rows):
            ri = self.data[i]
            orow = []
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    a = ri[k]
                    if a:
                        b = other.data[k][j]
                        if b:
                            acc = acc + a * b
                orow.append(acc)
            out.append(orow)
        return Matrix(self.field, out, cols=other.cols)

    def apply(self, vec):
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        zero = self.field.zero()
        nonzero = [(k, v) for k, v in enumerate(vec) if v]
        out = []
        for ri in self.data:
            acc = zero
            for k, v in nonzero:
                if ri[k]:
                    acc = acc + ri[k] * v
            out.append(acc)
        return out

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.rows == other.rows and self.cols == other.cols
                and self.data == other.data)

    def is_zero(self):
        return all(not v for row in self.data for v in row)

    def _sparse_rows(self):
        rows = []
        for r in self.data:
            rows.append({j: v for j, v in enumerate(r) if v})
        return rows

    def solve(self, b):
        """Solve self·x = b; returns AffineSolution or Infeasible."""
        if isinstance(b, Matrix):
            if b.cols != 1:
                raise ValueError("right-hand side must be a column")
            if b.field != self.field:
                raise ValueError("mixed fields")
            b = b.column(0)
        if len(b) != self.rows:
            raise ValueError(f"dimension mismatch: {self.rows} rows vs {len(b)} entries")
        return solve_sparse(self._sparse_rows(), list(b), self.cols, self.field)

    def rank(self) -> int:
        res = self.solve([self.field.zero()] * self.rows)
        return res.rank

    def __repr__(self):
        return f"<Matrix {self.rows}x{self.cols} over {self.field.spec_str()}>"


def solve_affine(a: Matrix, b):
    """Exact feasibility of A·x = b with particular solution and kernel basis."""
    return a.solve(b)


def div_by_int(x, n: int):
    """Divide a scalar or Matrix by a positive integer, exactly.

    Raises NotInvertibleError when the field characteristic divides n.
    """
    if n == 0:
        raise ZeroDivisionError("division by zero")
    if isinstance(x, Matrix):
        return x.scale(x.field.inv_int(n))
    if isinstance(x, Fraction):
        return x / n
    if isinstance(x, Fp):
        return x * Field(x.p).inv_int(n)
    raise TypeError(f"cannot divide {type(x).__name__} by an integer")


class LinForm:
    """Affine form const + Σ coeff_i·x_i with exact scalar coefficients.

    Field scalars defer to it in arithmetic and comparison, so a form can sit in
    any coordinate of a Morphism or a Matrix as one more scalar.
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

    def __sub__(self, other):
        return self + (-self._as_form(other))

    def __rsub__(self, other):
        return self._as_form(other) + (-self)

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

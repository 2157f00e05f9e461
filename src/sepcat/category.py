"""Finitely presented k-linear categories and their additive/Karoubi calculus.

A category is presented by hom-space dimensions, composition structure
constants and identity vectors.  Objects of the additive closure are ordered
formal sums of base objects; Karoubi (idempotent-completion) objects carry an
idempotent on the sum.  One block-matrix morphism calculus serves the base
category, the additive closure and the idempotent completion: a morphism
between (X, e) and (Y, e') is a block matrix f with f = e'∘f∘e.

Composition visits nonzero A-blocks × nonzero B-blocks only, through structure
constants compiled once to their nonzero entries (units marked, so they add
without a multiply); untouched output blocks are the category's shared zero
blocks.  The public `Morphism(...)` checks category, block grid and block
lengths; producers whose shapes are right by construction (composition, sums,
scaling, absorption, `from_coords`, functor images) use `Morphism._new`.
"""

from __future__ import annotations

import itertools

from .errors import NotIdempotentError
from .linalg import LinForm, coordinate_map, solve_sparse
from .reports import ValidationReport
from .scalars import Field


def _freeze_blocks(blocks):
    return tuple(tuple(tuple(vec) for vec in row) for row in blocks)


class LinearCategory:
    """A k-linear category given by hom bases and composition structure constants."""

    def __init__(self, field: Field, objects, hom_dims, composition, identities,
                 basis_labels=None, name: str = ""):
        self.field = field
        self.objects = tuple(objects)
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate object names")
        self._oindex = {x: i for i, x in enumerate(self.objects)}
        self._dims = {}
        for (x, y), d in hom_dims.items():
            if x not in self._oindex or y not in self._oindex:
                raise ValueError(f"hom_dims mentions unknown object in ({x}, {y})")
            if d:
                self._dims[(x, y)] = int(d)
        # per (x, y, z) and basis pair (q, p): the nonzero (t, c), c None for a unit
        self._comp = {}
        one = field.one()
        for (x, y, z), table in composition.items():
            dxy, dyz, dxz = self.hom_dim(x, y), self.hom_dim(y, z), self.hom_dim(x, z)
            if len(table) != dyz or any(len(row) != dxy for row in table):
                raise ValueError(f"composition table shape mismatch at ({x}, {y}, {z})")
            if any(len(vec) != dxz for row in table for vec in row):
                raise ValueError(f"composition vector length mismatch at ({x}, {y}, {z})")
            self._comp[(x, y, z)] = tuple(
                tuple(tuple((t, None if c == one else c) for t, c in enumerate(vec) if c)
                      for vec in row) for row in table)
        self._ids = {}
        for x in self.objects:
            if self.hom_dim(x, x) < 1:
                raise ValueError(f"object {x} has no endomorphisms to hold its identity")
            if x not in identities:
                raise ValueError(f"missing identity vector for {x}")
            vec = tuple(identities[x])
            if len(vec) != self.hom_dim(x, x):
                raise ValueError(f"identity vector length mismatch at {x}")
            self._ids[x] = vec
        self._labels = dict(basis_labels or {})
        self.name = name
        self._hom_basis_cache: dict = {}
        self._zero_blocks: dict = {}

    def hom_dim(self, x, y) -> int:
        return self._dims.get((x, y), 0)

    def hom_pairs(self) -> list:
        """The pairs (x, y) with Hom(x, y) nonzero, x-major in object order."""
        return [(x, y) for x in self.objects for y in self.objects if (x, y) in self._dims]

    def zero_block(self, x, y) -> tuple:
        """The zero coordinate vector of Hom(x, y), one shared tuple per pair."""
        z = self._zero_blocks.get((x, y))
        if z is None:
            z = self._zero_blocks[(x, y)] = (self.field.zero(),) * self.hom_dim(x, y)
        return z

    def id_vec(self, x):
        return self._ids[x]

    def basis_label(self, x, y, i) -> str:
        return self._labels.get((x, y, i), f"{x}->{y}[{i}]")

    def obj(self, *names) -> "CatObject":
        return CatObject(self, names)

    def zero_object(self) -> "CatObject":
        return CatObject(self, ())

    def accum_compose(self, x, y, z, g_vec, f_vec, acc):
        """Accumulate the composite (g: y→z)∘(f: x→y) into acc (length d_xz)."""
        table = self._comp.get((x, y, z))
        if table is None:
            return
        f_nz = [(p, fp) for p, fp in enumerate(f_vec) if fp]
        for q, gq in enumerate(g_vec):
            if not gq:
                continue
            rowq = table[q]
            for p, fp in f_nz:
                entries = rowq[p]
                if entries:
                    coef = gq * fp
                    for t, c in entries:
                        acc[t] = acc[t] + (coef if c is None else coef * c)

    def compose_vec(self, x, y, z, g_vec, f_vec, zero=None):
        if zero is None:
            zero = self.field.zero()
        acc = [zero] * self.hom_dim(x, z)
        self.accum_compose(x, y, z, g_vec, f_vec, acc)
        return acc

    def __repr__(self):
        return f"<LinearCategory {self.name or id(self)} over {self.field.spec_str()}: {len(self.objects)} objects>"


def identity_blocks(cat: LinearCategory, summands):
    return tuple(tuple(cat.id_vec(sj) if i == j else cat.zero_block(sj, ti)
                       for j, sj in enumerate(summands))
                 for i, ti in enumerate(summands))


def _check_endo_shape(cat, summands, blocks):
    if len(blocks) != len(summands) or any(len(r) != len(summands) for r in blocks):
        raise ValueError("idempotent block grid does not match the summand profile")
    for i, ti in enumerate(summands):
        for j, sj in enumerate(summands):
            if len(blocks[i][j]) != cat.hom_dim(sj, ti):
                raise ValueError(f"idempotent block ({i},{j}) has wrong length")


class CatObject:
    """An object of the additive/Karoubi closure: ordered summands plus an idempotent.

    Plain objects (idem is None) carry the identity idempotent implicitly.
    """

    __slots__ = ("cat", "summands", "idem", "_id")

    def __init__(self, cat: LinearCategory, summands, idem=None):
        summands = tuple(summands)
        for s in summands:
            if s not in cat._oindex:
                raise ValueError(f"unknown base object {s!r}")
        if idem is not None:
            idem = _freeze_blocks(idem)
            _check_endo_shape(cat, summands, idem)
            if idem == identity_blocks(cat, summands):
                idem = None
        self.cat = cat
        self.summands = summands
        self.idem = idem
        self._id = None

    def plain(self) -> "CatObject":
        return self if self.idem is None else CatObject(self.cat, self.summands)

    def identity(self) -> "Morphism":
        if self._id is None:
            blocks = self.idem if self.idem is not None else identity_blocks(self.cat, self.summands)
            self._id = Morphism._new(self.cat, self, self, blocks)
        return self._id

    def __eq__(self, other):
        return self is other or (isinstance(other, CatObject) and self.cat is other.cat
                and self.summands == other.summands and self.idem == other.idem)

    def __hash__(self):
        return hash((id(self.cat), self.summands, self.idem))

    def __repr__(self):
        tag = "" if self.idem is None else ", e"
        return f"<Obj {'⊕'.join(self.summands) or '0'}{tag}>"


def _nonzero_rows(blocks):
    return tuple(tuple((j, v) for j, v in enumerate(row) if any(v)) for row in blocks)


def _raw_mul(cat, dst, mid, src, a_rows, b_rows):
    """Blocks of A∘B (dst ← mid ← src) from the nonzero block rows of A and B."""
    zero = cat.field.zero()
    accum = cat.accum_compose
    out = []
    for i, ti in enumerate(dst):
        accs = {}
        for j, g in a_rows[i]:
            mj = mid[j]
            for k, f in b_rows[j]:
                acc = accs.get(k)
                if acc is None:
                    acc = accs[k] = [zero] * cat.hom_dim(src[k], ti)
                accum(src[k], mj, ti, g, f, acc)
        out.append(tuple(tuple(accs[k]) if k in accs else cat.zero_block(sk, ti)
                         for k, sk in enumerate(src)))
    return tuple(out)


class Morphism:
    """A block-matrix morphism of the additive/Karoubi closure.

    Coordinates are field scalars, or `LinForm`s when the morphism carries the
    unknowns of a `MorSystem`; the operators serve both alike.
    """

    __slots__ = ("cat", "dom", "cod", "blocks", "_rows")

    def __init__(self, cat, dom: CatObject, cod: CatObject, blocks):
        if dom.cat is not cat or cod.cat is not cat:
            raise ValueError("objects from a different category")
        blocks = _freeze_blocks(blocks)
        if len(blocks) != len(cod.summands) or any(len(r) != len(dom.summands) for r in blocks):
            raise ValueError("block grid does not match dom/cod profiles")
        for i, ti in enumerate(cod.summands):
            for j, sj in enumerate(dom.summands):
                if len(blocks[i][j]) != cat.hom_dim(sj, ti):
                    raise ValueError(f"block ({i},{j}) has wrong length")
        self.cat, self.dom, self.cod, self.blocks, self._rows = cat, dom, cod, blocks, None

    @classmethod
    def _new(cls, cat, dom: CatObject, cod: CatObject, blocks) -> "Morphism":
        """Unchecked construction from a tuple grid whose shape is right by construction."""
        m = object.__new__(cls)
        m.cat, m.dom, m.cod, m.blocks, m._rows = cat, dom, cod, blocks, None
        return m

    def nonzero_rows(self):
        """Per block row, the (column, block) pairs of its nonzero blocks; computed once."""
        if self._rows is None:
            self._rows = _nonzero_rows(self.blocks)
        return self._rows

    def __matmul__(self, other):
        """Composition self∘other."""
        if not isinstance(other, Morphism):
            return NotImplemented
        if other.cat is not self.cat:
            raise ValueError("morphisms from different categories")
        if other.cod != self.dom:
            raise ValueError(f"object mismatch: cod {other.cod!r} vs dom {self.dom!r}")
        blocks = _raw_mul(self.cat, self.cod.summands, self.dom.summands, other.dom.summands,
                          self.nonzero_rows(), other.nonzero_rows())
        return Morphism._new(self.cat, other.dom, self.cod, blocks)

    def _check_parallel(self, other):
        if other.cat is not self.cat or other.dom != self.dom or other.cod != self.cod:
            raise ValueError("morphisms are not parallel")

    def __add__(self, other):
        self._check_parallel(other)
        blocks = tuple(tuple(tuple(a + b for a, b in zip(va, vb))
                             for va, vb in zip(ra, rb))
                       for ra, rb in zip(self.blocks, other.blocks))
        return Morphism._new(self.cat, self.dom, self.cod, blocks)

    def __sub__(self, other):
        self._check_parallel(other)
        blocks = tuple(tuple(tuple(a - b for a, b in zip(va, vb))
                             for va, vb in zip(ra, rb))
                       for ra, rb in zip(self.blocks, other.blocks))
        return Morphism._new(self.cat, self.dom, self.cod, blocks)

    def __neg__(self):
        blocks = tuple(tuple(tuple(-a for a in v) for v in r) for r in self.blocks)
        return Morphism._new(self.cat, self.dom, self.cod, blocks)

    def scale(self, s):
        blocks = tuple(tuple(tuple(s * a for a in v) for v in r) for r in self.blocks)
        return Morphism._new(self.cat, self.dom, self.cod, blocks)

    def __rmul__(self, s):
        return self.scale(s)

    def div_int(self, n: int) -> "Morphism":
        return self.scale(self.cat.field.inv_int(n))

    def __eq__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        return (self.cat is other.cat and self.dom == other.dom
                and self.cod == other.cod and self.blocks == other.blocks)

    def __hash__(self):
        return hash((id(self.cat), self.dom, self.cod, self.blocks))

    def is_zero(self) -> bool:
        return not any(any(v) for r in self.blocks for v in r)

    def coords(self) -> list:
        return [a for r in self.blocks for v in r for a in v]

    @staticmethod
    def from_coords(cat, dom: CatObject, cod: CatObject, coords) -> "Morphism":
        if dom.cat is not cat or cod.cat is not cat:
            raise ValueError("objects from a different category")
        coords, n = tuple(coords), hom_coord_dim(cat, dom, cod)
        if len(coords) != n:
            raise ValueError(f"{len(coords)} coordinates for an ambient hom dimension of {n}")
        blocks = []
        pos = 0
        for ti in cod.summands:
            row = []
            for sj in dom.summands:
                d = cat.hom_dim(sj, ti)
                row.append(coords[pos:pos + d])
                pos += d
            blocks.append(tuple(row))
        return Morphism._new(cat, dom, cod, tuple(blocks))

    def absorbed(self) -> "Morphism":
        """e_cod ∘ self ∘ e_dom, the canonical Karoubi representative."""
        if self.dom.idem is None and self.cod.idem is None:
            return self
        cat, dst, src = self.cat, self.cod.summands, self.dom.summands
        left = _raw_mul(cat, dst, dst, src, self.cod.identity().nonzero_rows(), self.nonzero_rows())
        blocks = _raw_mul(cat, dst, src, src, _nonzero_rows(left), self.dom.identity().nonzero_rows())
        return Morphism._new(cat, self.dom, self.cod, blocks)

    def __repr__(self):
        return f"<Mor {self.dom!r}→{self.cod!r}>"


def hom_coord_dim(cat, dom: CatObject, cod: CatObject) -> int:
    return sum(cat.hom_dim(sj, ti) for ti in cod.summands for sj in dom.summands)


def zero_morphism(dom: CatObject, cod: CatObject) -> Morphism:
    cat = dom.cat
    if cod.cat is not cat:
        raise ValueError("objects from a different category")
    blocks = tuple(tuple(cat.zero_block(sj, ti) for sj in dom.summands) for ti in cod.summands)
    return Morphism._new(cat, dom, cod, blocks)


def morphism(cat, dom: CatObject, cod: CatObject, blocks) -> Morphism:
    """Build a morphism from raw blocks, absorbing through the idempotents."""
    m = Morphism(cat, dom, cod, blocks)
    if dom.idem is None and cod.idem is None:
        return m
    return m.absorbed()


def direct_sum(objs) -> CatObject:
    objs = list(objs)
    if not objs:
        raise ValueError("empty direct sum needs a category; use cat.zero_object()")
    cat = objs[0].cat
    if any(o.cat is not cat for o in objs):
        raise ValueError("summands from different categories")
    summands = tuple(s for o in objs for s in o.summands)
    if all(o.idem is None for o in objs):
        return CatObject(cat, summands)
    blocks = [[cat.zero_block(sj, ti) for sj in summands] for ti in summands]
    roff = 0
    for o in objs:
        e = o.idem if o.idem is not None else identity_blocks(cat, o.summands)
        n = len(o.summands)
        for i in range(n):
            for j in range(n):
                blocks[roff + i][roff + j] = e[i][j]
        roff += n
    return CatObject(cat, summands, blocks)


def biproduct(objs):
    """Direct sum together with its injections and projections."""
    objs = list(objs)
    total = direct_sum(objs)
    cat = total.cat
    injections, projections = [], []
    offset = 0
    for o in objs:
        n = len(o.summands)
        inc = [[cat.zero_block(sj, ti) for sj in o.summands] for ti in total.summands]
        prj = [[cat.zero_block(sj, ti) for sj in total.summands] for ti in o.summands]
        for i, s in enumerate(o.summands):
            inc[offset + i][i] = cat.id_vec(s)
            prj[i][offset + i] = cat.id_vec(s)
        injections.append(morphism(cat, o, total, inc))
        projections.append(morphism(cat, total, o, prj))
        offset += n
    return total, injections, projections


def extract_block(f: Morphism, dom_parts, cod_parts, i: int, j: int) -> Morphism:
    """Extract the (i, j) part-block of f for the given summand partitions."""
    cat = f.cat
    row_off = sum(len(p.summands) for p in cod_parts[:i])
    col_off = sum(len(p.summands) for p in dom_parts[:j])
    nr = len(cod_parts[i].summands)
    nc = len(dom_parts[j].summands)
    sub = tuple(tuple(f.blocks[row_off + r][col_off + c] for c in range(nc))
                for r in range(nr))
    return Morphism(cat, dom_parts[j], cod_parts[i], sub)


class MorSystem:
    """Affine constraint systems whose unknowns are morphism coordinates.

    An unknown is a Morphism (or a witness's image columns) whose coordinates
    are `LinForm` variables; composing it with concrete morphisms gives
    morphisms with `LinForm` coordinates, and each `require_equal` adds one row
    per coordinate.
    """

    def __init__(self, field: Field):
        self.field = field
        self.n = 0
        self.rows: list[dict] = []
        self.consts: list = []
        self.labels: list = []

    def variables(self, k: int) -> list[LinForm]:
        """k fresh variables, numbered after those already allocated."""
        start = self.n
        self.n += k
        return [LinForm.variable(i, self.field) for i in range(start, self.n)]

    def unknown(self, dom: CatObject, cod: CatObject) -> Morphism:
        """An unknown morphism dom→cod, constrained to be absorbed by the idempotents."""
        cat = dom.cat
        f = Morphism.from_coords(cat, dom, cod, self.variables(hom_coord_dim(cat, dom, cod)))
        if dom.idem is not None or cod.idem is not None:
            self.require_equal(f.absorbed(), f, label="absorption")
        return f

    def require_equal(self, lhs: Morphism, rhs: Morphism, label=None):
        if lhs.dom != rhs.dom or lhs.cod != rhs.cod:
            raise ValueError("constraint sides are not parallel")
        for a, b in zip(lhs.coords(), rhs.coords()):
            d = (a if isinstance(a, LinForm) else LinForm(a)) - b
            self.rows.append(d.coeffs)
            self.consts.append(-d.const)
            self.labels.append(label)

    def impose(self, laws):
        """Require lhs = rhs for each (label, place, lhs, rhs) of a law list, in order."""
        for label, _, lhs, rhs in laws:
            self.require_equal(lhs, rhs, label)

    def solve(self):
        return solve_sparse(self.rows, self.consts, self.n, self.field, self.labels)

    @staticmethod
    def eval_at(m: Morphism, values, with_const: bool = True) -> Morphism:
        """m at a solution; without the constants, at a kernel vector."""
        coords = [a.eval(values, with_const) if isinstance(a, LinForm) else a for a in m.coords()]
        return Morphism.from_coords(m.cat, m.dom, m.cod, coords)


def unit_morphisms(cat: LinearCategory, a: CatObject, b: CatObject) -> list[Morphism]:
    """The unit-coordinate morphisms a→b, absorbed through the idempotents.

    They span Hom(a, b); for plain objects they are its coordinate basis.
    """
    return [Morphism.from_coords(cat, a, b, e).absorbed()
            for e in unit_vectors(cat.field, hom_coord_dim(cat, a, b))]


def hom_space_basis(cat: LinearCategory, a: CatObject, b: CatObject) -> list[Morphism]:
    """A basis of Hom(a, b) in the closure, deterministic in coordinate order."""
    key = (a, b)
    cached = cat._hom_basis_cache.get(key)
    if cached is not None:
        return cached
    if a.idem is None and b.idem is None:
        basis = unit_morphisms(cat, a, b)
    else:
        sysm = MorSystem(cat.field)
        f = sysm.unknown(a, b)
        sol = sysm.solve()
        basis = [MorSystem.eval_at(f, k, with_const=False) for k in sol.kernel]
    cat._hom_basis_cache[key] = basis
    return basis


def basis_coordinates(basis, field):
    """f ↦ coordinates of f in an independent family of parallel morphisms, eliminated once."""
    to_coords = coordinate_map([b.coords() for b in basis], field)
    return lambda f: to_coords(f.coords())


def express_in_basis(f: Morphism, basis) -> list:
    """Coordinates of f in the given independent spanning set; exact."""
    return basis_coordinates(basis, f.cat.field)(f)


class RetractWitness:
    """u: small→big and v: big→small with v∘u = Id_small and u∘v idempotent."""

    __slots__ = ("big", "small", "section", "retraction")

    def __init__(self, big: CatObject, small: CatObject, section: Morphism, retraction: Morphism):
        self.big = big
        self.small = small
        self.section = section
        self.retraction = retraction

    def verify(self) -> ValidationReport:
        rep = ValidationReport("retract witness")
        rep.record("v∘u = Id_small", self.retraction @ self.section == self.small.identity())
        uv = self.section @ self.retraction
        rep.record("u∘v idempotent", uv @ uv == uv)
        return rep

    def __repr__(self):
        return f"<RetractWitness {self.small!r} ↪ {self.big!r}>"


def split_idempotent(x: CatObject, e: Morphism) -> RetractWitness:
    """Split a verified idempotent e on x inside the Karoubi closure."""
    if e.dom != x or e.cod != x:
        raise ValueError("e is not an endomorphism of x")
    if e @ e != e:
        raise NotIdempotentError("e∘e differs from e")
    small = CatObject(x.cat, x.summands, e.blocks)
    u = Morphism(x.cat, small, x, e.blocks)
    v = Morphism(x.cat, x, small, e.blocks)
    return RetractWitness(x, small, u, v)


def int_invertible(cat: LinearCategory, n: int) -> bool:
    """Whether every morphism divides uniquely by n (char 0, or char ∤ n)."""
    if n <= 0:
        raise ValueError("n must be positive")
    return cat.field.invertible(n)


def invert_morphism(f: Morphism) -> Morphism:
    """Two-sided inverse of f, or ValueError when none exists."""
    sysm = MorSystem(f.cat.field)
    g = sysm.unknown(f.cod, f.dom)
    sysm.require_equal(g @ f, f.dom.identity(), "left inverse")
    sysm.require_equal(f @ g, f.cod.identity(), "right inverse")
    sol = sysm.solve()
    if not sol.feasible:
        raise ValueError("morphism has no two-sided inverse")
    return MorSystem.eval_at(g, sol.particular)


def random_hom(cat, a: CatObject, b: CatObject, rng, lo: int = -2, hi: int = 2) -> Morphism:
    """A random morphism a→b with small integer coordinates in the hom basis."""
    basis = hom_space_basis(cat, a, b)
    out = zero_morphism(a, b)
    for m in basis:
        c = rng.randint(lo, hi)
        if c:
            out = out + m.scale(cat.field.from_int(c))
    return out


def unit_vectors(field, n: int) -> list:
    """The coordinate unit vectors of k^n, as lists."""
    zero, one = field.zero(), field.one()
    return [[one if j == i else zero for j in range(n)] for i in range(n)]


def _presentation_laws(cat: LinearCategory):
    """id∘a = a = a∘id per basis morphism a, then (c∘b)∘a = c∘(b∘a) per basis triple."""
    for (x, y), d in sorted(cat._dims.items(), key=lambda kv: (cat._oindex[kv[0][0]], cat._oindex[kv[0][1]])):
        for i, a in enumerate(unit_vectors(cat.field, d)):
            yield "left unit", (x, y, i), cat.compose_vec(x, y, y, cat.id_vec(y), a), a
            yield "right unit", (x, y, i), cat.compose_vec(x, x, y, a, cat.id_vec(x)), a
    for w, x, y, z in itertools.product(cat.objects, repeat=4):
        dwx, dxy, dyz = cat.hom_dim(w, x), cat.hom_dim(x, y), cat.hom_dim(y, z)
        if not (dwx and dxy and dyz):
            continue
        cs = unit_vectors(cat.field, dyz)
        for ia, a in enumerate(unit_vectors(cat.field, dwx)):
            for ib, b in enumerate(unit_vectors(cat.field, dxy)):
                ba = cat.compose_vec(w, x, y, b, a)
                for ic, c in enumerate(cs):
                    yield ("associativity", (w, x, y, z, ia, ib, ic),
                           cat.compose_vec(w, x, z, cat.compose_vec(x, y, z, c, b), a),
                           cat.compose_vec(w, y, z, c, ba))


def validate_presentation(cat: LinearCategory) -> ValidationReport:
    """Check the category axioms on all basis data: unit laws and associativity."""
    label = cat.basis_label
    rep = ValidationReport(f"category {cat.name}" if cat.name else "category")
    return rep.record_laws(_presentation_laws(cat), {
        "left unit": ("unit laws ({n} checks)", lambda x, y, i: f"id_{y}∘{label(x, y, i)}"),
        "right unit": ("unit laws ({n} checks)", lambda x, y, i: f"{label(x, y, i)}∘id_{x}"),
        "associativity": ("associativity ({n} triples)", lambda w, x, y, z, ia, ib, ic:
                          f"({label(y, z, ic)}, {label(x, y, ib)}, {label(w, x, ia)})")})

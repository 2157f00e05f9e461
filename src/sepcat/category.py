"""Finitely presented k-linear categories and their additive/Karoubi calculus.

A category is presented by hom-space dimensions, composition structure
constants and identity vectors.  Objects of the additive closure are ordered
formal sums of base objects; Karoubi (idempotent-completion) objects carry an
idempotent on the sum.  One block-matrix morphism calculus serves the base
category, the additive closure and the idempotent completion: a morphism
between (X, e) and (Y, e') is a block matrix f with f = e'∘f∘e.
"""

from __future__ import annotations

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
        self._comp = {}
        for (x, y, z), table in composition.items():
            dxy, dyz, dxz = self.hom_dim(x, y), self.hom_dim(y, z), self.hom_dim(x, z)
            table = tuple(tuple(tuple(vec) for vec in row) for row in table)
            if len(table) != dyz or any(len(row) != dxy for row in table):
                raise ValueError(f"composition table shape mismatch at ({x}, {y}, {z})")
            if any(len(vec) != dxz for row in table for vec in row):
                raise ValueError(f"composition vector length mismatch at ({x}, {y}, {z})")
            self._comp[(x, y, z)] = table
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

    def hom_dim(self, x, y) -> int:
        return self._dims.get((x, y), 0)

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

    def compose_vec(self, x, y, z, g_vec, f_vec, zero=None):
        if zero is None:
            zero = self.field.zero()
        acc = [zero] * self.hom_dim(x, z)
        self.accum_compose(x, y, z, g_vec, f_vec, acc)
        return acc

    def __repr__(self):
        return f"<LinearCategory {self.name or id(self)} over {self.field.spec_str()}: {len(self.objects)} objects>"


def identity_blocks(cat: LinearCategory, summands):
    zero = cat.field.zero()
    out = []
    for i, ti in enumerate(summands):
        row = []
        for j, sj in enumerate(summands):
            if i == j:
                row.append(cat.id_vec(sj))
            else:
                row.append(tuple([zero] * cat.hom_dim(sj, ti)))
        out.append(tuple(row))
    return tuple(out)


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

    __slots__ = ("cat", "summands", "idem")

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

    def plain(self) -> "CatObject":
        return self if self.idem is None else CatObject(self.cat, self.summands)

    def identity(self) -> "Morphism":
        blocks = self.idem if self.idem is not None else identity_blocks(self.cat, self.summands)
        return Morphism(self.cat, self, self, blocks)

    def __eq__(self, other):
        return (isinstance(other, CatObject) and self.cat is other.cat
                and self.summands == other.summands and self.idem == other.idem)

    def __hash__(self):
        return hash((id(self.cat), self.summands, self.idem))

    def __repr__(self):
        tag = "" if self.idem is None else ", e"
        return f"<Obj {'⊕'.join(self.summands) or '0'}{tag}>"


def _raw_mul(cat, dst, mid, src, a_blocks, b_blocks, zero):
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
                    cat.accum_compose(sk, mj, ti, arow[j], b_blocks[j][k], acc)
            row.append(tuple(acc))
        out.append(tuple(row))
    return tuple(out)


class Morphism:
    """A block-matrix morphism of the additive/Karoubi closure.

    Coordinates are field scalars, or `LinForm`s when the morphism carries the
    unknowns of a `MorSystem`; the operators serve both alike.
    """

    __slots__ = ("cat", "dom", "cod", "blocks")

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
        self.cat = cat
        self.dom = dom
        self.cod = cod
        self.blocks = blocks

    def __matmul__(self, other):
        """Composition self∘other."""
        if not isinstance(other, Morphism):
            return NotImplemented
        if other.cat is not self.cat:
            raise ValueError("morphisms from different categories")
        if other.cod != self.dom:
            raise ValueError(f"object mismatch: cod {other.cod!r} vs dom {self.dom!r}")
        blocks = _raw_mul(self.cat, self.cod.summands, self.dom.summands,
                          other.dom.summands, self.blocks, other.blocks, self.cat.field.zero())
        return Morphism(self.cat, other.dom, self.cod, blocks)

    def _check_parallel(self, other):
        if other.cat is not self.cat or other.dom != self.dom or other.cod != self.cod:
            raise ValueError("morphisms are not parallel")

    def __add__(self, other):
        self._check_parallel(other)
        blocks = tuple(tuple(tuple(a + b for a, b in zip(va, vb))
                             for va, vb in zip(ra, rb))
                       for ra, rb in zip(self.blocks, other.blocks))
        return Morphism(self.cat, self.dom, self.cod, blocks)

    def __sub__(self, other):
        self._check_parallel(other)
        blocks = tuple(tuple(tuple(a - b for a, b in zip(va, vb))
                             for va, vb in zip(ra, rb))
                       for ra, rb in zip(self.blocks, other.blocks))
        return Morphism(self.cat, self.dom, self.cod, blocks)

    def __neg__(self):
        blocks = tuple(tuple(tuple(-a for a in v) for v in r) for r in self.blocks)
        return Morphism(self.cat, self.dom, self.cod, blocks)

    def scale(self, s):
        blocks = tuple(tuple(tuple(s * a for a in v) for v in r) for r in self.blocks)
        return Morphism(self.cat, self.dom, self.cod, blocks)

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
        it = iter(coords)
        blocks = []
        for ti in cod.summands:
            row = []
            for sj in dom.summands:
                row.append(tuple(next(it) for _ in range(cat.hom_dim(sj, ti))))
            blocks.append(tuple(row))
        return Morphism(cat, dom, cod, blocks)

    def absorbed(self) -> "Morphism":
        """e_cod ∘ self ∘ e_dom, the canonical Karoubi representative."""
        if self.dom.idem is None and self.cod.idem is None:
            return self
        cat = self.cat
        zero = cat.field.zero()
        left = self.cod.idem if self.cod.idem is not None else identity_blocks(cat, self.cod.summands)
        right = self.dom.idem if self.dom.idem is not None else identity_blocks(cat, self.dom.summands)
        blocks = _raw_mul(cat, self.cod.summands, self.dom.summands, self.dom.summands,
                          _raw_mul(cat, self.cod.summands, self.cod.summands, self.dom.summands,
                                   left, self.blocks, zero),
                          right, zero)
        return Morphism(cat, self.dom, self.cod, blocks)

    def __repr__(self):
        return f"<Mor {self.dom!r}→{self.cod!r}>"


def hom_coord_dim(cat, dom: CatObject, cod: CatObject) -> int:
    return sum(cat.hom_dim(sj, ti) for ti in cod.summands for sj in dom.summands)


def zero_morphism(dom: CatObject, cod: CatObject) -> Morphism:
    cat = dom.cat
    zero = cat.field.zero()
    blocks = tuple(tuple(tuple([zero] * cat.hom_dim(sj, ti)) for sj in dom.summands)
                   for ti in cod.summands)
    return Morphism(cat, dom, cod, blocks)


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
    zero = cat.field.zero()
    blocks = [[tuple([zero] * cat.hom_dim(sj, ti)) for sj in summands] for ti in summands]
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
    zero = cat.field.zero()
    injections, projections = [], []
    offset = 0
    for o in objs:
        n = len(o.summands)
        inc = [[tuple([zero] * cat.hom_dim(sj, ti)) for sj in o.summands]
               for ti in total.summands]
        prj = [[tuple([zero] * cat.hom_dim(sj, ti)) for sj in total.summands]
               for ti in o.summands]
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

    An unknown is a Morphism (or a Matrix) whose coordinates are `LinForm`
    variables; composing it with concrete morphisms gives morphisms with
    `LinForm` coordinates, and each `require_equal` adds one row per coordinate.
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

    def solve(self):
        return solve_sparse(self.rows, self.consts, self.n, self.field, self.labels)

    @staticmethod
    def eval_at(m: Morphism, values) -> Morphism:
        coords = [a.eval(values) if isinstance(a, LinForm) else a for a in m.coords()]
        return Morphism.from_coords(m.cat, m.dom, m.cod, coords)

    @staticmethod
    def eval_kernel(m: Morphism, kernel_vec) -> Morphism:
        coords = [a.eval(kernel_vec, with_const=False) if isinstance(a, LinForm) else a
                  for a in m.coords()]
        return Morphism.from_coords(m.cat, m.dom, m.cod, coords)


def unit_morphisms(cat: LinearCategory, a: CatObject, b: CatObject) -> list[Morphism]:
    """The unit-coordinate morphisms a→b, absorbed through the idempotents.

    They span Hom(a, b); for plain objects they are its coordinate basis.
    """
    n = hom_coord_dim(cat, a, b)
    zero, one = cat.field.zero(), cat.field.one()
    return [Morphism.from_coords(cat, a, b, [one if j == i else zero for j in range(n)]).absorbed()
            for i in range(n)]


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
        basis = [MorSystem.eval_kernel(f, k) for k in sol.kernel]
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


def validate_presentation(cat: LinearCategory) -> ValidationReport:
    """Check the category axioms on all basis data: unit laws and associativity."""
    rep = ValidationReport(f"category {cat.name}" if cat.name else "category")
    unit_bad = []
    n_unit = 0
    for (x, y), d in sorted(cat._dims.items(), key=lambda kv: (cat._oindex[kv[0][0]], cat._oindex[kv[0][1]])):
        idx_ = cat.id_vec(x)
        idy = cat.id_vec(y)
        zero = cat.field.zero()
        for i in range(d):
            a = [zero] * d
            a[i] = cat.field.one()
            n_unit += 2
            left = cat.compose_vec(x, y, y, idy, a)
            if list(left) != list(a):
                unit_bad.append(f"id_{y}∘{cat.basis_label(x, y, i)}")
            right = cat.compose_vec(x, x, y, a, idx_)
            if list(right) != list(a):
                unit_bad.append(f"{cat.basis_label(x, y, i)}∘id_{x}")
    rep.record(f"unit laws ({n_unit} checks)", not unit_bad, "; ".join(unit_bad))

    assoc_bad = []
    n_assoc = 0
    objects = cat.objects
    zero = cat.field.zero()
    one = cat.field.one()
    for w in objects:
        for x in objects:
            dwx = cat.hom_dim(w, x)
            if not dwx:
                continue
            for y in objects:
                dxy = cat.hom_dim(x, y)
                if not dxy:
                    continue
                for z in objects:
                    dyz = cat.hom_dim(y, z)
                    if not dyz:
                        continue
                    for ia in range(dwx):
                        a = [zero] * dwx
                        a[ia] = one
                        for ib in range(dxy):
                            b = [zero] * dxy
                            b[ib] = one
                            ba = cat.compose_vec(w, x, y, b, a)
                            for ic in range(dyz):
                                c = [zero] * dyz
                                c[ic] = one
                                n_assoc += 1
                                cb = cat.compose_vec(x, y, z, c, b)
                                lhs = cat.compose_vec(w, x, z, cb, a)
                                rhs = cat.compose_vec(w, y, z, c, ba)
                                if lhs != rhs:
                                    assoc_bad.append(
                                        f"({cat.basis_label(y, z, ic)}, {cat.basis_label(x, y, ib)},"
                                        f" {cat.basis_label(w, x, ia)})")
    rep.record(f"associativity ({n_assoc} triples)", not assoc_bad, "; ".join(assoc_bad))
    return rep

"""Finitely presented k-linear categories and their additive/Karoubi calculus.

A category is presented by hom-space dimensions, composition structure
constants and identity vectors.  Objects of the additive closure are ordered
formal sums of base objects; Karoubi (idempotent-completion) objects carry an
idempotent on the sum.  One block-matrix morphism calculus serves the base
category, the additive closure and the idempotent completion: a morphism
between (X, e) and (Y, e') is a block matrix f with f = e'∘f∘e.

Block shapes are known in one place: the category's layouts (a grid's coordinate
count and block slices) and shared zero rows, each built once per summand profile.
Composition visits nonzero A-blocks × nonzero B-blocks only, through structure
constants compiled once to their nonzero entries (units marked, so they add
without a multiply); an output row is the shared zero row, patched where anything
accumulated.  Its operands' nonzero blocks (`Morphism.nonzero_rows`) come from the
producers that know them: `slot_placement` tests only its cells, `zero_morphism` has none,
`NatTrans.at` on a sum shifts each component's rows to its columns, and a functor
image tests only its cells that two or more terms reached.  A composite, sum or
`from_coords` grid is scanned on its first use as an operand instead, as few are ever
used so (about 6% of the composites in a pass over the separability sweep).  The
public `Morphism(...)` checks category, block grid and block lengths; producers whose
shapes are right by construction (composition, sums, scaling, absorption,
`from_coords`, functor images) use `Morphism._new`.

Every loop that accumulates acc + c·a on hom coordinates (composition, functor and
witness images) keeps one exact rule: a product with a factor that is exactly the
field's one (`is_one`: same type and equal; a `Fraction(1)` is not) is the other factor,
and a slot still holding the category's shared zero (`LinearCategory.zero`, tested by
identity, not truthiness) takes the term.  1·x and 0 + x are x in value, type and
variable order for an int, `Fraction`, `Fp`, `LinForm` or sympy expression, and none
of them changes once built, so sharing the factor is safe.

A category is *scalar* when every nonzero hom space is 1-dimensional and every compiled
table is the unit table, basis∘basis = basis: the point, the two points and the A2
quiver, not Cw, the dual numbers or an equivariant presentation with End(F x) = k[G].
`LinearCategory.__init__` decides it once from the presentation, and composition there
(`_scalar_mul`) multiplies each pair of nonzero 1-blocks inline: the table's one entry
is (0, unit), so `accum_compose` would add exactly the term g·f, by the same rule, into
the same slot in the same j-order, and a triple without a table (an omitted composite)
adds nothing.  The result is the same in value, type and order; only the call, the
nonzero-coordinate list and the table walk per pair are gone.

A category is *monomial* when every compiled table entry is empty or one unit entry and
every identity vector is a unit vector holding exactly the field's one: each product
b_q∘b_p of basis morphisms is a basis morphism b_t or zero (a multiplicative basis), as in
the scalar categories, the dual numbers and k[G] for a trivial action on the point.
`LinearCategory.__init__` decides it once and keeps t, None for zero (`product`).  Unit
vectors differ from each other and from zero, so comparing indices decides what comparing
the vectors e_t = e_q∘e_p does: presentation laws are read on indices, and functor laws and
equivariant tables on slot maps (`slot_map`'s lemma).
"""

from __future__ import annotations

import itertools

from .errors import NotIdempotentError
from .linalg import LinForm, extends_pivots, solve_sparse
from .reports import ValidationReport
from .scalars import Field


def _freeze_blocks(blocks):
    return tuple(tuple(map(tuple, row)) for row in blocks)


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
        self.zero, self.one = field.zero(), field.one()
        # per (x, y, z) and basis pair (q, p): the nonzero (t, c), c None for a unit
        self._comp = {}
        for (x, y, z), table in composition.items():
            dxy, dyz, dxz = self.hom_dim(x, y), self.hom_dim(y, z), self.hom_dim(x, z)
            if len(table) != dyz or any(len(row) != dxy for row in table):
                raise ValueError(f"composition table shape mismatch at ({x}, {y}, {z})")
            if any(len(vec) != dxz for row in table for vec in row):
                raise ValueError(f"composition vector length mismatch at ({x}, {y}, {z})")
            self._comp[(x, y, z)] = tuple(
                tuple(tuple((t, None if is_one(c, self.one) else c) for t, c in enumerate(vec) if c)
                      for vec in row) for row in table)
        # scalar: every nonzero hom is k, and each table says basis∘basis = basis
        self._scalar = (all(d == 1 for d in self._dims.values())
                        and all(t == ((((0, None),),),) for t in self._comp.values()))
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
        # monomial: each table entry a unit one or none, each identity a basis morphism
        ids = {x: [(t, c) for t, c in enumerate(v) if c] for x, v in self._ids.items()}
        monomial = (all(len(e) == 1 and is_one(e[0][1], self.one) for e in ids.values())
                    and all(len(e) < 2 and all(c is None for _, c in e)
                            for table in self._comp.values() for row in table for e in row))
        self._id_index = {x: e[0][0] for x, e in ids.items()} if monomial else None
        self._prod = {key: tuple(tuple(e[0][0] if e else None for e in row) for row in table)
                      for key, table in self._comp.items()} if monomial else None
        self._labels = dict(basis_labels or {})
        self.name = name
        self._hom_basis_cache: dict = {}
        self._zero_blocks: dict = {}
        self._zero_rows: dict = {}
        self._layouts: dict = {}
        self._identities: dict = {}
        self._generators = None
        self._zero_object = CatObject(self, ())
        # the objects whose identity vector squares to itself, as `slot_map` needs
        self._unital = frozenset(x for x, i in self._ids.items()
                                 if self.compose_vec(x, x, x, i, i) == list(i))

    def hom_dim(self, x, y) -> int:
        return self._dims.get((x, y), 0)

    def hom_pairs(self) -> list:
        """The pairs (x, y) with Hom(x, y) nonzero, x-major in object order."""
        return [(x, y) for x in self.objects for y in self.objects if (x, y) in self._dims]

    def zero_block(self, x, y) -> tuple:
        """The zero coordinate vector of Hom(x, y), one shared tuple per pair."""
        z = self._zero_blocks.get((x, y))
        if z is None:
            z = self._zero_blocks[(x, y)] = (self.zero,) * self.hom_dim(x, y)
        return z

    def zero_row(self, y, xs) -> tuple:
        """The zero blocks of Hom(x, y) for x in xs, one shared tuple per (y, xs)."""
        row = self._zero_rows.get((y, xs))
        if row is None:
            row = self._zero_rows[(y, xs)] = tuple(self.zero_block(x, y) for x in xs)
        return row

    def layout(self, xs, ys) -> tuple:
        """(n, rows): the coordinate count of the grid ys ← xs and, per block row,
        each block's slice of the row-major coordinates; built once per (xs, ys)."""
        lay = self._layouts.get((xs, ys))
        if lay is None:
            ends = [0, *itertools.accumulate(len(b) for y in ys for b in self.zero_row(y, xs))]
            cuts = map(slice, ends, ends[1:])
            rows = tuple(tuple(itertools.islice(cuts, len(xs))) for _ in ys)
            lay = self._layouts[(xs, ys)] = (ends[-1], rows)
        return lay

    def generators(self) -> dict:
        """Per hom pair (y, z), the indices of the basis morphisms that generate the
        category under composition, picked once, greedily in `hom_pairs()` and basis
        order: one not in the span W of the composites of identities and generators so
        far becomes a generator, and W is closed again under left composition with
        every generator.  So at the end every basis morphism lies in W by construction."""
        if self._generators is None:
            pivots = {pair: {} for pair in self.hom_pairs()}
            ending, leaving = {x: [] for x in self.objects}, {x: [] for x in self.objects}
            todo = []  # (x, y, w, z, g): w in W by codomain, g a generator by domain; g∘w joins W
            gens = self._generators = {pair: [] for pair in self.hom_pairs()}

            def join(x, y, vec) -> bool:
                # a zero-dimensional Hom(x, y) has no pivots, and nothing joins it
                if not vec or not extends_pivots(pivots[(x, y)], vec, self.field):
                    return False
                ending[y].append((x, vec))
                todo.extend((x, y, vec, z, g) for z, g in leaving[y])
                return True

            for x in self.objects:
                join(x, x, self.id_vec(x))
            for y, z in self.hom_pairs():
                for i, e in enumerate(unit_vectors(self.field, self.hom_dim(y, z))):
                    if join(y, z, e):
                        gens[(y, z)].append(i)
                        leaving[y].append((z, e))
                        todo.extend((x, y, w, z, e) for x, w in ending[y])
                        while todo:
                            a, b, w, c, g = todo.pop()
                            join(a, c, self.compose_vec(a, b, c, g, w))
        return self._generators

    def id_vec(self, x):
        return self._ids[x]

    def basis_label(self, x, y, i) -> str:
        return self._labels.get((x, y, i), f"{x}->{y}[{i}]")

    def obj(self, *names) -> "CatObject":
        return CatObject(self, names)

    def zero_object(self) -> "CatObject":
        """The zero object, the empty sum: one shared object per category."""
        return self._zero_object

    def accum_compose(self, x, y, z, g_vec, f_vec, acc):
        """Accumulate the composite (g: y→z)∘(f: x→y) into acc (length d_xz), by the rule."""
        table = self._comp.get((x, y, z))
        if table is None:
            return
        zero, one = self.zero, self.one
        f_nz = [(p, fp, is_one(fp, one)) for p, fp in enumerate(f_vec) if fp]
        for q, gq in enumerate(g_vec):
            if not gq:
                continue
            rowq, g_one = table[q], is_one(gq, one)
            for p, fp, f_one in f_nz:
                entries = rowq[p]
                if entries:
                    coef = fp if g_one else gq if f_one else gq * fp
                    for t, c in entries:
                        term = coef if c is None else coef * c
                        acc[t] = term if acc[t] is zero else acc[t] + term

    def product(self, x, y, z, q, p):
        """In a monomial category, the index t with b_q∘b_p = b_t for b_p: x→y and b_q: y→z,
        or None where the product is zero, as it is when q or p is None."""
        table = self._prod.get((x, y, z))
        return None if table is None or q is None or p is None else table[q][p]

    def compose_vec(self, x, y, z, g_vec, f_vec):
        acc = list(self.zero_block(x, z))
        self.accum_compose(x, y, z, g_vec, f_vec, acc)
        return acc

    def __repr__(self):
        return f"<LinearCategory {self.name or id(self)} over {self.field.spec_str()}: {len(self.objects)} objects>"


def is_one(a, one) -> bool:
    """Whether a is exactly the field's one: of its type and equal (a Fraction(1) is not)."""
    return type(a) is type(one) and a == one


def identity_blocks(cat: LinearCategory, summands):
    """The identity grid on a summand profile, built once from the shared zero rows."""
    grid = cat._identities.get(summands)
    if grid is None:
        rows = [list(cat.zero_row(ti, summands)) for ti in summands]
        for i, ti in enumerate(summands):
            rows[i][i] = cat.id_vec(ti)
        grid = cat._identities[summands] = tuple(map(tuple, rows))
    return grid


def _check_block_lengths(cat, xs, ys, blocks, what):
    """Raise naming the first block (i, j) whose length is not dim Hom(xs[j], ys[i])."""
    for i, (y, row) in enumerate(zip(ys, blocks)):
        want = cat.zero_row(y, xs)
        if list(map(len, row)) != list(map(len, want)):
            j = next(j for j, (b, z) in enumerate(zip(row, want)) if len(b) != len(z))
            raise ValueError(f"{what} ({i},{j}) has wrong length")


def _check_endo_shape(cat, summands, blocks):
    if len(blocks) != len(summands) or any(len(r) != len(summands) for r in blocks):
        raise ValueError("idempotent block grid does not match the summand profile")
    _check_block_lengths(cat, summands, summands, blocks, "idempotent block")


class CatObject:
    """An object of the additive/Karoubi closure: ordered summands plus an idempotent.

    Plain objects (idem is None) carry the identity idempotent implicitly.
    """

    __slots__ = ("cat", "summands", "idem", "key", "_id")

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
        # caches key by this, not by ==, which takes an idem holding Fraction(1) for one holding 1
        self.key = summands, idem, idem and tuple(type(a) for r in idem for v in r for a in v)
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
    return tuple(tuple(itertools.compress(enumerate(row), map(any, row))) for row in blocks)


def _raw_mul(cat, dst, mid, src, a_rows, b_rows):
    """Blocks of A∘B (dst ← mid ← src) from the nonzero block rows of A and B."""
    if cat._scalar:
        return _scalar_mul(cat, dst, mid, src, a_rows, b_rows)
    accum = cat.accum_compose
    out = []
    for i, ti in enumerate(dst):
        zrow = cat.zero_row(ti, src)
        accs = {}
        for j, g in a_rows[i]:
            mj = mid[j]
            for k, f in b_rows[j]:
                acc = accs.get(k)
                if acc is None:
                    acc = accs[k] = list(zrow[k])
                accum(src[k], mj, ti, g, f, acc)
        if accs:
            row = list(zrow)
            for k, acc in accs.items():
                row[k] = tuple(acc)
            zrow = tuple(row)
        out.append(zrow)
    return tuple(out)


def _scalar_mul(cat, dst, mid, src, a_rows, b_rows):
    """`_raw_mul` in a scalar category: each pair of nonzero blocks composes as the one
    product g·f, a triple without a table contributing nothing, by the same rule."""
    tables, zero, one = cat._comp, cat.zero, cat.one
    out = []
    for i, ti in enumerate(dst):
        zrow = cat.zero_row(ti, src)
        accs = {}
        for j, (gq,) in a_rows[i]:
            mj, g_one = mid[j], is_one(gq, one)
            for k, (fp,) in b_rows[j]:
                if (src[k], mj, ti) in tables:
                    term = fp if g_one else gq if is_one(fp, one) else gq * fp
                    acc = accs.get(k, zero)
                    accs[k] = term if acc is zero else acc + term
        if accs:
            row = list(zrow)
            for k, acc in accs.items():
                row[k] = (acc,)
            zrow = tuple(row)
        out.append(zrow)
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
        _check_block_lengths(cat, dom.summands, cod.summands, blocks, "block")
        self.cat, self.dom, self.cod, self.blocks, self._rows = cat, dom, cod, blocks, None

    @classmethod
    def _new(cls, cat, dom: CatObject, cod: CatObject, blocks, rows=None) -> "Morphism":
        """Unchecked construction from a tuple grid whose shape is right by construction;
        a producer that knows the grid's `nonzero_rows()` hands them over as rows."""
        m = object.__new__(cls)
        m.cat, m.dom, m.cod, m.blocks, m._rows = cat, dom, cod, blocks, rows
        return m

    def nonzero_rows(self):
        """Per block row, the (column, block) pairs of its nonzero blocks, in column
        order; handed over by the producer, or else scanned once."""
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
        coords = tuple(coords)
        n, rows = cat.layout(dom.summands, cod.summands)
        if len(coords) != n:
            raise ValueError(f"{len(coords)} coordinates for an ambient hom dimension of {n}")
        return Morphism._new(cat, dom, cod, _sliced(rows, coords))

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


def _sliced(rows, coords: tuple) -> tuple:
    """The block grid of a coordinate tuple, cut by a layout's rows of slices."""
    return tuple(tuple(map(coords.__getitem__, row)) for row in rows)


def hom_coord_dim(cat, dom: CatObject, cod: CatObject) -> int:
    return cat.layout(dom.summands, cod.summands)[0]


def zero_morphism(dom: CatObject, cod: CatObject) -> Morphism:
    cat = dom.cat
    if cod.cat is not cat:
        raise ValueError("objects from a different category")
    return Morphism._new(cat, dom, cod, tuple(cat.zero_row(t, dom.summands) for t in cod.summands),
                         ((),) * len(cod.summands))


def morphism(cat, dom: CatObject, cod: CatObject, blocks) -> Morphism:
    """Build a morphism from raw blocks, absorbing through the idempotents."""
    m = Morphism(cat, dom, cod, blocks)
    if dom.idem is None and cod.idem is None:
        return m
    return m.absorbed()


def slot_map(m: Morphism):
    """The slot map of m, column ↦ row (None at a zero column), if m is an identity
    placement; None otherwise.  m is one when its objects are plain and each block
    column c holds at most one nonzero block, in a row r with cod.summands[r] =
    dom.summands[c] = s, and that block is id_vec(s) with id_s∘id_s = id_s in the base.

    The lemma that lets `validate_monad` and `EquivariantObject.validate` decide laws on
    these integer tuples:
    - Identity placements compose as their slot maps do (`compose_slots`): block (i, k)
      of A∘B is Σ_j A_ij∘B_jk, which is id∘id = id at i = a(b(k)) and zero elsewhere.
      Two of them between the same objects are equal iff their slot maps are, and the
      identity of a plain object is the one with slot map c ↦ c.
    - A functor F with F(id_s) = id_{F s}, F s plain, for the summands s of m's objects
      (`Functor.keeps_identities`) sends m to the identity placement with slot map
      (c, t) ↦ (a(c), t), t running over the summands of F(dom.summands[c])
      (`Functor.on_slots`): F(m) is F of m's blocks, placed blockwise.
    - `NatTrans.at` on a plain sum is block-diagonal in the components
      (`NatTrans.at_slots`).
    - In a monomial source F(b_q∘b_p) is F(b_t) or zero, so where every F(b) is an identity
      placement with the right endpoints, `validate_functor` compares F(b_t)'s slot map, or
      the all-None one for zero, with compose_slots of F(b_q)'s and F(b_p)'s, and F(id_x)'s
      with slot_map(id_{F x}).  `equivariant_category` reads the table entry of basis
      morphisms v∘u off the basis morphism w with compose_slots(v, u) as slot map: over a
      monomial base, with every nonzero coordinate of v, u and w exactly one, v∘u's nonzero
      coordinates are w's in value and type, and `coordinate_map` reads only those.
    """
    cat, dom, cod = m.cat, m.dom, m.cod
    if dom.idem is not None or cod.idem is not None:
        return None
    out = [None] * len(dom.summands)
    for r, row in enumerate(m.nonzero_rows()):
        s = cod.summands[r]
        for c, block in row:
            if (out[c] is not None or dom.summands[c] != s or block != cat.id_vec(s)
                    or s not in cat._unital):
                return None
            out[c] = r
    return tuple(out)


def compose_slots(a: tuple, b: tuple) -> tuple:
    """The slot map of A∘B from those of A and B (`slot_map`'s lemma)."""
    return tuple(None if j is None else a[j] for j in b)


def slot_placement(dom: CatObject, cod: CatObject, slots: tuple, blocks) -> Morphism:
    """The morphism dom → cod whose column c holds the tuple blocks[c] in row slots[c] (none
    where that is None) and zeros elsewhere, absorbed through the idempotents; between plain
    objects its nonzero blocks are handed over.  For identity blocks, the identity placement
    with slot map `slots`."""
    cat = dom.cat
    cells = [[] for _ in cod.summands]
    for c, (r, block) in enumerate(zip(slots, blocks)):
        if r is not None:
            cells[r].append((c, block))
    grid = []
    for t, row in zip(cod.summands, cells):
        zrow = cat.zero_row(t, dom.summands)
        if row:
            zrow = list(zrow)
            for c, block in row:
                zrow[c] = block
            zrow = tuple(zrow)
        grid.append(zrow)
    rows = tuple(tuple((c, b) for c, b in row if any(b)) for row in cells)
    return Morphism._new(cat, dom, cod, tuple(grid), rows).absorbed()


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
    blocks = [list(cat.zero_row(ti, summands)) for ti in summands]
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
    injections, projections, offset = [], [], 0
    ids = [total.cat.id_vec(s) for s in total.summands]
    for o in objs:
        n = len(o.summands)
        injections.append(slot_placement(o, total, range(offset, offset + n), ids[offset:]))
        projections.append(slot_placement(total, o, [c - offset if offset <= c < offset + n else None
                                                     for c in range(len(ids))], ids))
        offset += n
    return total, injections, projections


def partwise(f: Morphism, dom_parts, cod_parts, dom: CatObject, cod: CatObject, fn) -> Morphism:
    """The morphism dom → cod, absorbed through the idempotents, whose block (i, j) is
    fn(dom.summands[j], cod.summands[i], the coordinates of f's (i, j) part), where
    f's domain and codomain summands are those of dom_parts and cod_parts, in order."""
    if (tuple(s for p in dom_parts for s in p.summands) != f.dom.summands
            or tuple(s for p in cod_parts for s in p.summands) != f.cod.summands):
        raise ValueError("the parts do not partition the summands of f")
    cuts = [0, *itertools.accumulate(len(p.summands) for p in dom_parts)]
    raw, rows = [], iter(f.blocks)
    for ti, part in zip(cod.summands, cod_parts):
        block_rows = list(itertools.islice(rows, len(part.summands)))
        raw.append([fn(sj, ti, [a for r in block_rows for v in r[c0:c1] for a in v])
                    for sj, c0, c1 in zip(dom.summands, cuts, cuts[1:])])
    return morphism(dom.cat, dom, cod, raw)


class MorSystem:
    """Affine constraint systems whose unknowns are morphism coordinates.

    An unknown is a Morphism (or a witness's image columns) whose coordinates
    are `LinForm` variables; composing it with concrete morphisms gives
    morphisms with `LinForm` coordinates, and each `require_equal` adds one row
    per coordinate.  `solve` is its one entry point to elimination: its kernel
    vectors list the variables in the order they were allocated, so a caller that
    only counts reads them as they are.  `kernel_basis(f)` reads a basis of
    morphisms off a homogeneous system, the unknown f at each kernel vector.
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
            const, coeffs = LinForm.difference(a, b)
            self.rows.append(coeffs)
            self.consts.append(-const)
            self.labels.append(label)

    def impose(self, laws):
        """Require lhs = rhs for each (label, place, lhs, rhs) of a law list, in order."""
        for label, _, lhs, rhs in laws:
            self.require_equal(lhs, rhs, label)

    def solve(self):
        return solve_sparse(self.rows, self.consts, self.n, self.field, self.labels)

    def kernel_basis(self, f: Morphism) -> list[Morphism]:
        """One solve of the homogeneous system; the unknown f at each kernel vector.
        When f holds every unknown, a basis of the morphisms that satisfy the rows."""
        return [MorSystem.eval_at(f, k, with_const=False) for k in self.solve().kernel]

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
    key = (a.key, b.key)
    cached = cat._hom_basis_cache.get(key)
    if cached is not None:
        return cached
    if a.idem is None and b.idem is None:
        basis = unit_morphisms(cat, a, b)
    else:
        sysm = MorSystem(cat.field)
        basis = sysm.kernel_basis(sysm.unknown(a, b))
    cat._hom_basis_cache[key] = basis
    return basis


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
    """id∘a = a = a∘id per basis morphism a, then (c∘b)∘a = c∘(b∘a) per basis triple; in a
    monomial category on basis indices (module docstring), else on coordinate vectors."""
    if cat._prod is None:
        compose, ident, basis = cat.compose_vec, cat.id_vec, lambda d: unit_vectors(cat.field, d)
    else:
        compose, ident, basis = cat.product, cat._id_index.__getitem__, range
    for (x, y), d in sorted(cat._dims.items(), key=lambda kv: (cat._oindex[kv[0][0]], cat._oindex[kv[0][1]])):
        for i, a in enumerate(basis(d)):
            yield "left unit", (x, y, i), compose(x, y, y, ident(y), a), a
            yield "right unit", (x, y, i), compose(x, x, y, a, ident(x)), a
    for w, x, y, z in itertools.product(cat.objects, repeat=4):
        dwx, dxy, dyz = cat.hom_dim(w, x), cat.hom_dim(x, y), cat.hom_dim(y, z)
        if not (dwx and dxy and dyz):
            continue
        cs = basis(dyz)
        for ia, a in enumerate(basis(dwx)):
            for ib, b in enumerate(basis(dxy)):
                ba = compose(w, x, y, b, a)
                for ic, c in enumerate(cs):
                    yield ("associativity", (w, x, y, z, ia, ib, ic),
                           compose(w, x, z, compose(x, y, z, c, b), a), compose(w, y, z, c, ba))


def validate_presentation(cat: LinearCategory) -> ValidationReport:
    """Check the category axioms on all basis data: unit laws and associativity."""
    label = cat.basis_label
    rep = ValidationReport(f"category {cat.name}" if cat.name else "category")
    return rep.record_laws(_presentation_laws(cat), {
        "left unit": ("unit laws ({n} checks)", lambda x, y, i: f"id_{y}∘{label(x, y, i)}"),
        "right unit": ("unit laws ({n} checks)", lambda x, y, i: f"{label(x, y, i)}∘id_{x}"),
        "associativity": ("associativity ({n} triples)", lambda w, x, y, z, ia, ib, ic:
                          f"({label(y, z, ic)}, {label(x, y, ib)}, {label(w, x, ia)})")})

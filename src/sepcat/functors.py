"""Functor presentations, natural transformations, adjunctions and the
separability witness calculus.

A functor is presented by its action on base objects and on hom bases; it
extends canonically to the additive/Karoubi closure (blockwise on summands,
and (X, e) ↦ (F(X), F(e))).  A separability witness for F: C → D is a family
of linear maps H_{X,Y}: Hom_D(F X, F Y) → Hom_C(X, Y), each held as its images
of the unit morphisms of Hom_D(F X, F Y), satisfying the retraction law
H(F(f)) = f and binaturality; existence is decided by one affine solve over
the coordinates of those images.  Binaturality is imposed as its two
one-sided laws H(F v∘g) = v∘H(g) and H(g∘F u) = H(g)∘u for v, u in the source's
generating set (`LinearCategory.generators`).  The joint law H(F v∘g∘F u) =
v∘H(g)∘u gives each with u or v an identity, and H(F v∘(g∘F u)) = v∘H(g)∘u gives
it back from them.  As F is a functor, the laws for v₁ and v₂ give
H(F(v₁v₂)∘g) = v₁∘v₂∘H(g); for identities they hold trivially.

A right adjoint G carrying its validated adjunction (`Functor.adjunction`) is decided
through a section ξ of the counit (Rafael), |G|² unknowns on the point for H's |G|³:
ξ ↦ H_ξ(g) = ε_Y∘F(g)∘ξ_X and H ↦ H(η_G) are inverse bijections of the solution sets
and of the homogeneous ones up to the slack, H's ambient directions vanishing on the hom
spaces (only at a Karoubi G X), and `linalg.transfer` maps across.  εF∘Fη = Id gives
H_ξ(η_{GX}) = ξ_X; Gε∘ηG = Id, binaturality and naturality of η give H(g) =
ε_Y∘H(GF(g)∘η_{GX}) = ε_Y∘F(g)∘H(η_{GX}), and H's laws make H(η_G) a natural section.

Each law family is written once, as a generator of (label, place, lhs, rhs)
that a solver imposes on unknowns and a checker reads with
`ValidationReport.record_laws`: `naturality_laws`, `section_laws` for a section
ξ of the counit, and `SepWitness._laws`, which keys by law and starts each
place with the finer label of its rows.
"""

from __future__ import annotations

import itertools

from .category import (CatObject, LinearCategory, Morphism, MorSystem, _nonzero_rows,
                       compose_slots, direct_sum, hom_coord_dim, hom_space_basis, is_one, partwise,
                       slot_map, unit_morphisms, unit_vectors)
from .errors import LawViolationError, NotFullyFaithfulError, PreconditionError
from .linalg import coordinate_map, rank_extension, solve_sparse, transfer
from .reports import ValidationReport


class Functor:
    """A k-linear functor given on base objects and hom bases."""

    def __init__(self, source: LinearCategory, target: LinearCategory,
                 object_map: dict, hom_map: dict, name: str = ""):
        self.source = source
        self.target = target
        self.object_map = dict(object_map)
        self.hom_map = {k: tuple(v) for k, v in hom_map.items()}
        self.name = name
        self.adjunction = None  # the validated adjunction this is the right adjoint of
        self._ocache: dict = {}
        self._images: dict = {}
        for x in source.objects:
            if x not in self.object_map:
                raise ValueError(f"object_map misses {x!r}")
        for x, y in source.hom_pairs():
            if len(self.hom_map.get((x, y), ())) != source.hom_dim(x, y):
                raise ValueError(f"hom_map misses the basis of Hom({x}, {y})")

    @staticmethod
    def identity(cat: LinearCategory, name: str = "Id") -> "Functor":
        object_map = {x: cat.obj(x) for x in cat.objects}
        hom_map = {(x, y): tuple(hom_space_basis(cat, cat.obj(x), cat.obj(y)))
                   for x, y in cat.hom_pairs()}
        return Functor(cat, cat, object_map, hom_map, name=name)

    def on_object(self, a: CatObject) -> CatObject:
        if a.cat is not self.source:
            raise ValueError("object not in the source category")
        res = self._ocache.get(a.key)
        if res is not None:
            return res
        parts = [self.object_map[s] for s in a.summands]
        if not parts:
            res = self.target.zero_object()
        elif a.idem is None:
            res = direct_sum(parts)
        else:
            summands = tuple(s for p in parts for s in p.summands)
            raw, _ = self._image_blocks(a.summands, a.summands, _nonzero_rows(a.idem), summands)
            res = CatObject(self.target, summands, raw)
        self._ocache[a.key] = res
        return res

    def _support(self, x, y) -> tuple:
        """Per basis morphism b_t of Hom(x, y), the nonzero blocks of F(b_t) as
        (r, c, ((p, a), …)), each with its nonzero coordinates, a None for one."""
        support = self._images.get((x, y))
        if support is None:
            one = self.target.one
            support = self._images[(x, y)] = tuple(
                tuple((r, c, tuple((p, None if is_one(a, one) else a) for p, a in enumerate(b) if a))
                      for r, row in enumerate(m.nonzero_rows()) for c, b in row)
                for m in self.hom_map.get((x, y), ()))
        return support

    def _cells(self, x, y, vec) -> dict:
        """The image Σ c_t·F(b_t): F(x) → F(y) of a hom-basis coefficient vector on the
        union of the F(b_t)'s nonzero blocks: (r, c) ↦ [coordinates, terms summed in]."""
        cat, fx, fy = self.target, self.object_map[x].summands, self.object_map[y].summands
        zero, one, support, cells = cat.zero, cat.one, self._support(x, y), {}
        for t, c in enumerate(vec):  # by the rule of the `category` module docstring
            if c:
                c_one = is_one(c, one)
                for r, k, block in support[t]:
                    cell = cells.get((r, k))
                    if cell is None:
                        cell = cells[(r, k)] = [list(cat.zero_block(fx[k], fy[r])), 0]
                    acc = cell[0]
                    cell[1] += 1
                    for p, a in block:
                        term = c if a is None else a if c_one else c * a
                        acc[p] = term if acc[p] is zero else acc[p] + term
        return cells

    def _image_blocks(self, xs, ys, nonzero_rows, fxs) -> tuple:
        """Raw blocks of F on the grid ys ← xs with these nonzero block rows, F(xs) = fxs,
        and the image's nonzero block rows.  Each nonzero block's image is summed on its
        cells (`_cells`) and spliced into the shared zero rows at its column offset.  A
        cell that one term reached is a nonzero c times a nonzero block of F(b_t), so
        nonzero over a field; only a cell that more terms reached can have cancelled,
        and only such a cell is tested."""
        cat = self.target
        cuts = tuple(itertools.accumulate((len(self.object_map[x].summands) for x in xs), initial=0))
        out, rows = [], []
        for y, row in zip(ys, nonzero_rows):
            fy = self.object_map[y].summands
            spliced = [{} for _ in fy]  # per image row: column ↦ cell
            for j, vec in row:
                for (r, c), cell in self._cells(xs[j], y, vec).items():
                    spliced[r][cuts[j] + c] = cell
            for t, cells in zip(fy, spliced):
                grid, nonzero = cat.zero_row(t, fxs), []
                if cells:
                    grid = list(grid)
                    for col in sorted(cells):
                        acc, terms = cells[col]
                        block = grid[col] = tuple(acc)
                        if terms == 1 or any(block):
                            nonzero.append((col, block))
                    grid = tuple(grid)
                out.append(grid)
                rows.append(tuple(nonzero))
        return tuple(out), tuple(rows)

    def on_hom_vec(self, x, y, vec) -> Morphism:
        """Image Σ c_t·F(b_t) of a hom-basis coefficient vector, a morphism F(x) → F(y)."""
        fx = self.object_map[x]
        raw, rows = self._image_blocks((x,), (y,), (((0, vec),),), fx.summands)
        return Morphism._new(self.target, fx, self.object_map[y], raw, rows)

    def on_morphism(self, f: Morphism) -> Morphism:
        if f.cat is not self.source:
            raise ValueError("morphism not in the source category")
        dom, cod = self.on_object(f.dom), self.on_object(f.cod)
        raw, rows = self._image_blocks(f.dom.summands, f.cod.summands, f.nonzero_rows(), dom.summands)
        return Morphism._new(self.target, dom, cod, raw, rows)

    def keeps_identities(self, objects) -> bool:
        """Whether each base object s of `objects` goes to a plain F s with F(id_s) = id_{F s}."""
        return all(self.object_map[s].idem is None and self.on_hom_vec(
            s, s, self.source.id_vec(s)) == self.object_map[s].identity() for s in objects)

    def on_slots(self, f: Morphism, a: tuple) -> tuple:
        """The slot map (c, t) ↦ (a(c), t) of F(f) for an identity placement f with slot map
        a, by `category.slot_map`'s lemma; F must keep the identities of f's summands."""
        sizes = [len(self.object_map[s].summands) for s in f.cod.summands]
        starts = tuple(itertools.accumulate(sizes, initial=0))
        return tuple(None if r is None else starts[r] + t for r, s in zip(a, f.dom.summands)
                     for t in range(len(self.object_map[s].summands)))

    def equals(self, other: "Functor") -> bool:
        return (self.source is other.source and self.target is other.target
                and self.object_map == other.object_map and self.hom_map == other.hom_map)

    def __repr__(self):
        return f"<Functor {self.name or 'F'}: {self.source.name or 'C'} → {self.target.name or 'D'}>"


def compose_functors(outer: Functor, inner: Functor, name: str = "") -> Functor:
    """The composite outer∘inner, materialized on all presentation data."""
    if inner.target is not outer.source:
        raise ValueError("functors are not composable")
    object_map = {x: outer.on_object(inner.object_map[x]) for x in inner.source.objects}
    hom_map = {}
    for key, mors in inner.hom_map.items():
        hom_map[key] = tuple(outer.on_morphism(m) for m in mors)
    return Functor(inner.source, outer.target, object_map, hom_map,
                   name=name or f"{outer.name}∘{inner.name}")


def _functor_laws(f: Functor, slots=None):
    """F(id_x) = id_{F x}, then F(b∘a) = F(b)∘F(a) on basis pairs, as (key, place, lhs, rhs);
    on basis indices and the images' slot maps when given them (`category.slot_map`'s
    lemma), the all-None slot map standing for the zero morphism."""
    src = f.source
    for x in src.objects:
        if slots is None:
            yield "identity", (x,), f.on_hom_vec(x, x, src.id_vec(x)), f.object_map[x].identity()
        else:
            yield "identity", (x,), slots[(x, x)][src._id_index[x]], slot_map(f.object_map[x].identity())
    for x, y, z in itertools.product(src.objects, repeat=3):
        dxy, dyz = src.hom_dim(x, y), src.hom_dim(y, z)
        if not (dxy and dyz):
            continue
        if slots is not None:
            zero = (None,) * len(f.object_map[x].summands)
            for ib, ia in itertools.product(range(dyz), range(dxy)):
                t = src.product(x, y, z, ib, ia)
                yield ("composition", (x, y, z, ia, ib), zero if t is None else slots[(x, z)][t],
                       compose_slots(slots[(y, z)][ib], slots[(x, y)][ia]))
            continue
        for ib, b in enumerate(unit_vectors(src.field, dyz)):
            fb = f.hom_map[(y, z)][ib]
            for ia, a in enumerate(unit_vectors(src.field, dxy)):
                yield ("composition", (x, y, z, ia, ib),
                       f.on_hom_vec(x, z, src.compose_vec(x, y, z, b, a)), fb @ f.hom_map[(x, y)][ia])


def _slot_images(f: Functor):
    """Per source hom pair, the slot maps of F's basis images, when the source is monomial
    and every image is an identity placement; else None."""
    if f.source._prod is None:
        return None
    slots = {key: [slot_map(m) for m in mors] for key, mors in f.hom_map.items()}
    return None if any(None in s for s in slots.values()) else slots


def validate_functor(f: Functor) -> ValidationReport:
    """Identity and composition preservation on all basis data, exactly."""
    rep = ValidationReport(f"functor {f.name}" if f.name else "functor")
    label = f.source.basis_label
    ok_shapes = all(m.dom == f.object_map[x] and m.cod == f.object_map[y]
                    for (x, y), mors in f.hom_map.items() for m in mors)
    rep.record("hom images have the right endpoints", ok_shapes)
    # on slot maps where the images have them, and the right endpoints as the lemma needs
    rep.record_laws(_functor_laws(f, _slot_images(f) if ok_shapes else None), {
        "identity": ("identity preservation ({n} objects)", str),
        "composition": ("composition preservation ({n} pairs)",
                        lambda x, y, z, ia, ib: f"({label(y, z, ib)}, {label(x, y, ia)})")})
    return rep


class NatTrans:
    """A natural transformation given by components at base objects."""

    def __init__(self, src: Functor, dst: Functor, components: dict, name: str = ""):
        self.src = src
        self.dst = dst
        self.components = dict(components)
        self.name = name
        self._at_cache: dict = {}

    def at(self, a: CatObject) -> Morphism:
        """Component at a closure object: diagonal on summands, conjugated by idempotents."""
        if len(a.summands) == 1 and a.idem is None:
            return self.components[a.summands[0]]
        res = self._at_cache.get(a.key)
        if res is not None:
            return res
        tgt, plain = self.src.target, a.plain()
        dom = self.src.on_object(plain)
        raw, rows, off = [], [], 0  # each component's block rows, shifted to its columns
        for s in a.summands:
            c, sp, dp = self.components[s], self.src.object_map[s], self.dst.object_map[s]
            if c.dom != sp or c.cod != dp:
                raise ValueError(f"component at {s} does not run {sp!r} -> {dp!r}")
            n = len(sp.summands)
            for t, crow, nz in zip(dp.summands, c.blocks, c.nonzero_rows()):
                zrow = tgt.zero_row(t, dom.summands)
                raw.append(zrow[:off] + crow + zrow[off + n:])
                rows.append(tuple((j + off, b) for j, b in nz))
            off += n
        res = Morphism._new(tgt, dom, self.dst.on_object(plain), tuple(raw), tuple(rows))
        if a.idem is not None:
            e = Morphism._new(a.cat, plain, plain, a.idem)
            m = self.dst.on_morphism(e) @ res @ self.src.on_morphism(e)
            res = Morphism._new(tgt, self.src.on_object(a), self.dst.on_object(a), m.blocks, m._rows)
        self._at_cache[a.key] = res
        return res

    def at_slots(self, a: CatObject):
        """(dom, cod, slot map) of `at(a)` for a plain a, read off the components' slot maps
        as `at` is block-diagonal there (`category.slot_map`'s lemma); None when a component
        has no slot map or does not fit, where `at` would raise on a sum."""
        slots = {s: slot_map(self.components[s]) for s in set(a.summands)}
        if any(p is None or self.components[s].dom != self.src.object_map[s]
               or self.components[s].cod != self.dst.object_map[s] for s, p in slots.items()):
            return None
        out, off = [], 0
        for s in a.summands:
            out.extend(None if r is None else off + r for r in slots[s])
            off += len(self.dst.object_map[s].summands)
        return self.src.on_object(a), self.dst.on_object(a), tuple(out)

    def __repr__(self):
        return f"<NatTrans {self.name or 'τ'}: {self.src.name or 'F'} → {self.dst.name or 'G'}>"


def naturality_laws(t: NatTrans):
    """Naturality of t on basis morphisms b: x→y, G(b)∘t_x = t_y∘F(b), as (label, place, lhs, rhs).

    The place is b's basis index (x, y, i).  The components may be unknowns.
    """
    for (x, y), mors in sorted(t.src.hom_map.items()):
        for i, m in enumerate(mors):
            yield ("naturality", (x, y, i), t.dst.hom_map[(x, y)][i] @ t.components[x],
                   t.components[y] @ m)


def validate_nat(t: NatTrans, laws=None, checks=None, into=None) -> ValidationReport:
    """Component endpoints of t, then, when they fit, naturality and `checks` in one
    pass over `laws` (by default `naturality_laws(t)`).

    Recorded into the report `into` when one is given, with t's own checks named
    under t's subject, as `ValidationReport.merge` would name them.
    """
    subject = f"natural transformation {t.name}" if t.name else "natural transformation"
    rep, prefix = (ValidationReport(subject), "") if into is None else (into, f"{subject}: ")
    if t.src.source is not t.dst.source or t.src.target is not t.dst.target:
        rep.record(f"{prefix}parallel functors", False)
        return rep
    bad = [x for x in t.src.source.objects if (c := t.components.get(x)) is None
           or c.dom != t.src.object_map[x] or c.cod != t.dst.object_map[x]]
    if rep.record(f"{prefix}components have the right endpoints", not bad, "; ".join(map(str, bad))):
        rep.record_laws(naturality_laws(t) if laws is None else laws, {
            "naturality": (f"{prefix}naturality ({{n}} squares)", t.src.source.basis_label),
            **(checks or {})})
    return rep


class Adjunction:
    """An adjoint pair (F, G; η, ε) with F left adjoint to G."""

    def __init__(self, F: Functor, G: Functor, unit: NatTrans, counit: NatTrans, name: str = ""):
        self.F = F
        self.G = G
        self.unit = unit
        self.counit = counit
        self.name = name

    def __repr__(self):
        return f"<Adjunction {self.name or '(F, G)'}>"


def validate_adjunction(adj: Adjunction) -> ValidationReport:
    """The two triangle identities, checked exactly at every base object."""
    return ValidationReport(f"adjunction {adj.name}" if adj.name else "adjunction").record_laws(
        _triangle_laws(adj), {"left": ("εF∘Fη = Id_F", str), "right": ("Gε∘ηG = Id_G", str)})


def _triangle_laws(adj: Adjunction):
    for x in adj.F.source.objects:
        fx = adj.F.object_map[x]
        yield ("left", (x,), adj.counit.at(fx) @ adj.F.on_morphism(adj.unit.components[x]),
               fx.identity())
    for d in adj.G.source.objects:
        gd = adj.G.object_map[d]
        yield ("right", (d,), adj.G.on_morphism(adj.counit.components[d]) @ adj.unit.at(gd),
               gd.identity())


RETRACTION, LEFT_NATURALITY, RIGHT_NATURALITY = (
    "retraction H(F(f)) = f", "binaturality H(Fv∘g) = v∘H(g)", "binaturality H(g∘Fu) = H(g)∘u")


class SepWitness:
    """A separability witness: per base pair, a retraction of F's hom action.

    maps[(x, y)] lists the coordinates of H(e_k) in Hom(x, y) for the unit
    morphisms e_k of Hom(F x, F y), one per ambient block coordinate; on
    closure objects the witness extends blockwise and by conjugation with the
    idempotents.  Coordinates may be `LinForm` unknowns: `separability_solve`
    imposes the laws on such a symbolic witness.
    """

    def __init__(self, functor: Functor, maps: dict):
        self.functor = functor
        self.maps = dict(maps)

    def _image(self, x, y, coords) -> list:
        """Coordinates of H(g) = Σ_k g_k·H(e_k), summed over the nonzero g_k; none
        when Hom(x, y) = 0.  By the rule of the `category` module docstring."""
        src = self.functor.source
        zero, one = src.zero, src.one
        out = [zero] * src.hom_dim(x, y)
        for g, col in zip(coords, self.maps[(x, y)] if out else ()):
            if g:
                g_one = is_one(g, one)
                for i, h in enumerate(col):
                    if h:
                        term = h if g_one else g if is_one(h, one) else h * g
                        out[i] = term if out[i] is zero else out[i] + term
        return out

    def apply(self, a: CatObject, b: CatObject, g: Morphism) -> Morphism:
        f = self.functor
        src = f.source
        if len(a.summands) == 1 and a.idem is None and len(b.summands) == 1 and b.idem is None:
            image = self._image(a.summands[0], b.summands[0], g.coords())
            return Morphism.from_coords(src, a, b, image)
        return partwise(g, [f.object_map[s] for s in a.summands],
                        [f.object_map[s] for s in b.summands], a, b, self._image)

    def _laws(self):
        """Every law on basis data, in a fixed order, as (law, place, lhs, rhs).

        First the retraction H(F b_t) = b_t per pair (x, y).  Then binaturality,
        as two one-sided laws for each g of the basis of Hom(F x, F y):
        H(F v∘g) = v∘H(g) for v: y→z and H(g∘F u) = H(g)∘u for u: z→x in the
        source's generating set.  As F is a functor (`separability_solve` checks
        it) and the laws hold trivially for identities, every all-basis row is a
        combination of these rows, constants included (module docstring): the
        row space is that of all basis morphisms, and of the joint law.
        The place starts with the label that names the constraint for the
        solver, then the basis morphism b_t, v or u as (dom, cod, index),
        then g's index.
        """
        f = self.functor
        src, tgt = f.source, f.target
        obj = {x: src.obj(x) for x in src.objects}
        pairs = [(x, y) for x in src.objects for y in src.objects]
        for (x, y) in pairs:
            for t, b in enumerate(hom_space_basis(src, obj[x], obj[y])):
                yield (RETRACTION, (f"retraction ({x},{y})", x, y, t),
                       self.apply(obj[x], obj[y], f.hom_map[(x, y)][t]), b)
        for (x, y) in pairs:
            gbasis = hom_space_basis(tgt, f.object_map[x], f.object_map[y])
            if not gbasis:
                continue
            images = [self.apply(obj[x], obj[y], g) for g in gbasis]
            for z in src.objects:
                label = f"binaturality ({x},{y})→({x},{z})"
                for iv in src.generators().get((y, z), ()):
                    v, fv = hom_space_basis(src, obj[y], obj[z])[iv], f.hom_map[(y, z)][iv]
                    for gi, g in enumerate(gbasis):
                        yield (LEFT_NATURALITY, (label, y, z, iv, gi),
                               self.apply(obj[x], obj[z], fv @ g), v @ images[gi])
                label = f"binaturality ({x},{y})→({z},{y})"
                for iu in src.generators().get((z, x), ()):
                    u, fu = hom_space_basis(src, obj[z], obj[x])[iu], f.hom_map[(z, x)][iu]
                    for gi, g in enumerate(gbasis):
                        yield (RIGHT_NATURALITY, (label, z, x, iu, gi),
                               self.apply(obj[z], obj[y], g @ fu), images[gi] @ u)

    def verify(self) -> ValidationReport:
        """Re-check the retraction law and both one-sided laws on all basis data.

        One check per law; a failing one names up to six places where it fails.
        """
        bl = self.functor.source.basis_label
        return ValidationReport("separability witness").record_laws(self._laws(), {
            RETRACTION: (f"{RETRACTION} ({{n}} checks)", lambda _, x, y, t: bl(x, y, t)),
            LEFT_NATURALITY: (f"{LEFT_NATURALITY} ({{n}} checks)",
                              lambda label, y, z, i, gi: f"v = {bl(y, z, i)}, g{gi} in {label}"),
            RIGHT_NATURALITY: (f"{RIGHT_NATURALITY} ({{n}} checks)",
                               lambda label, z, x, i, gi: f"u = {bl(z, x, i)}, g{gi} in {label}")},
            limit=6)

    def __repr__(self):
        return f"<SepWitness for {self.functor!r}>"


def separability_solve(f: Functor):
    """Decide separability of f by exact affine feasibility; witness or Infeasible.

    The unknowns of H_{x,y} are numbered by source object pair, then row-major
    in (coordinate of Hom(x, y), unit morphism k): the image column H(e_k) is
    every a-th of them from the k-th.  The witness laws are imposed on that
    symbolic witness, and the returned witness is the solver's first solution,
    re-verified; for a marked right adjoint, through ξ (module docstring).
    """
    if f.adjunction is None:  # the mark is set only after the right adjoint is validated
        validate_functor(f).require(PreconditionError, "separability_solve needs a functor")
    layout, n_h = [], 0  # per source pair: (pair, dim Hom(x, y), a, first unknown)
    for x, y in f.source.hom_pairs():
        d, a = f.source.hom_dim(x, y), hom_coord_dim(f.target, f.object_map[x], f.object_map[y])
        layout.append(((x, y), d, a, n_h))
        n_h += d * a

    def columns(vec):
        return {pair: [vec[s + k:s + d * a:a] for k in range(a)] for pair, d, a, s in layout}

    sol = None if f.adjunction is None else _section_route(f, layout, n_h)
    if sol is None:
        sysm = MorSystem(f.source.field)
        for _, (label, *_), lhs, rhs in SepWitness(f, columns(sysm.variables(n_h)))._laws():
            sysm.require_equal(lhs, rhs, label)
        sol = sysm.solve()
    if not sol.feasible:
        return sol
    return _verified_witness(f, columns(sol.particular), "solver-produced witness")


def _section_route(f: Functor, layout, n_h):
    """The H system's outcome from one solve for ξ; None for a "no" on several objects."""
    adj, src, tgt, field = f.adjunction, f.source, f.target, f.source.field
    sol, xi = _section_solve(adj)
    if not sol.feasible and len(src.objects) > 1:
        return None
    slack = []  # per row of H_{x,y}, the directions vanishing on Hom(G x, G y)
    for (x, y), d, a, start in layout:
        basis = hom_space_basis(tgt, f.object_map[x], f.object_map[y])
        rows = [{j: v for j, v in enumerate(b.coords()) if v} for b in basis]
        for w in solve_sparse(rows, [field.zero()] * len(rows), a, field).kernel if len(rows) < a else ():
            slack.extend([field.zero()] * i + w + [field.zero()] * (n_h - i - a)
                         for i in range(start, start + d * a, a))
    if sol.feasible:  # H_ξ(e_k) = (ε_y∘F(e_k))∘ξ_x on the symbolic ξ, row-major as H's unknowns
        label, forms = None, [c for (x, y), *_ in layout for row in zip(*(
            (adj.counit.components[y] @ adj.F.on_morphism(e) @ xi.components[x]).coords()
            for e in unit_morphisms(tgt, f.object_map[x], f.object_map[y]))) for c in row]
    else:  # a "no" reads only the number of H's unknowns
        (l,) = src.objects  # retraction rows come first; consistent iff G injective on End(l)
        faithful = rank_extension([g.coords() for g in f.hom_map[(l, l)]], (), field)[0] == src.hom_dim(l, l)
        label = f"binaturality ({l},{l})→({l},{l})" if faithful else f"retraction ({l},{l})"
        forms = [None] * n_h
    return transfer(sol, forms, slack, label, field)


def hom_matrix(fn, inputs, field, basis=None) -> list:
    """A linear map on hom spaces as its image columns: column j is fn(inputs[j]).

    The inputs are a hom basis, or `unit_morphisms` for a map on ambient
    coordinates.  Columns hold the coordinates of each image, or its
    coordinates in `basis` when one is given.
    """
    if basis is None:
        return [fn(m).coords() for m in inputs]
    coords = coordinate_map([b.coords() for b in basis], field)
    return [coords(fn(m).coords()) for m in inputs]


def _verified_witness(f: Functor, maps: dict, what: str) -> SepWitness:
    """The witness for f with the given image columns, re-verified."""
    w = SepWitness(f, maps)
    w.verify().require(LawViolationError, what)
    return w


def _tabulated_witness(f: Functor, h, what: str) -> SepWitness:
    """The witness for f with H_{x,y}(g) = h(x, y, g), tabulated on unit morphisms, re-verified."""
    units = {(x, y): unit_morphisms(f.target, f.object_map[x], f.object_map[y])
             for x, y in f.source.hom_pairs()}
    return _verified_witness(f, {(x, y): hom_matrix(lambda g: h(x, y, g), es, f.source.field)
                                 for (x, y), es in units.items()}, what)


def compose_witnesses(h_f: SepWitness, h_g: SepWitness) -> SepWitness:
    """A witness for the composite G∘F from witnesses for F and G: g ↦ H_F(H_G(g))."""
    f, g = h_f.functor, h_g.functor
    if f.target is not g.source:
        raise PreconditionError("witness functors are not composable")

    def h(x, y, m):
        fx, fy = f.object_map[x], f.object_map[y]
        return h_f.apply(f.source.obj(x), f.source.obj(y), h_g.apply(fx, fy, m))

    return _tabulated_witness(compose_functors(g, f), h, "compose transfer")


def left_factor_witness(h_gf: SepWitness, g: Functor, f: Functor) -> SepWitness:
    """A witness for the left factor F extracted from one for G∘F: g ↦ H_{GF}(G(g))."""
    if not compose_functors(g, f).equals(h_gf.functor):
        raise PreconditionError("witness is not for the composite of the given functors")

    def h(x, y, m):
        return h_gf.apply(f.source.obj(x), f.source.obj(y), g.on_morphism(m))

    return _tabulated_witness(f, h, "left-factor transfer")


def retract_witness(h_f2: SepWitness, phi: NatTrans, psi: NatTrans) -> SepWitness:
    """Transfer along φ: F'→F, ψ: F→F' with ψ∘φ = Id_{F'}: g ↦ H_{F'}(ψ_y∘g∘φ_x)."""
    f2 = h_f2.functor
    f = phi.dst
    src = f.source
    for x in src.objects:
        if psi.components[x] @ phi.components[x] != f2.object_map[x].identity():
            raise PreconditionError(f"ψ∘φ is not the identity at {x}")

    def h(x, y, m):
        return h_f2.apply(src.obj(x), src.obj(y), psi.components[y] @ m @ phi.components[x])

    return _tabulated_witness(f, h, "retract transfer")


def fully_faithful_witness(f: Functor) -> SepWitness:
    """The inverse hom bijections of a fully faithful functor, as a witness."""
    src, tgt = f.source, f.target
    maps = {}
    for x in src.objects:
        for y in src.objects:
            d = src.hom_dim(x, y)
            fx, fy = f.object_map[x], f.object_map[y]
            tbasis = hom_space_basis(tgt, fx, fy)
            if not d:
                if tbasis:
                    raise NotFullyFaithfulError(f"Hom({x},{y}) = 0 but Hom(F{x},F{y}) is not")
                continue
            if len(tbasis) != d:
                raise NotFullyFaithfulError(
                    f"hom dimensions differ at ({x},{y}): {d} vs {len(tbasis)}")
            # each ambient coordinate in the basis {F(b_t)}: the inverse hom bijection
            try:
                maps[(x, y)] = hom_matrix(lambda m: m, unit_morphisms(tgt, fx, fy), src.field,
                                          basis=f.hom_map[(x, y)])
            except ValueError:
                raise NotFullyFaithfulError(f"hom action at ({x},{y}) is not bijective")
    return _verified_witness(f, maps, "fully-faithful witness")


def witness_from_section(adj: Adjunction, xi: NatTrans) -> SepWitness:
    """H(g) = ε_Y∘F(g)∘ξ_X: a witness for the right adjoint from a counit section."""
    validate_section(adj, xi).require(PreconditionError, "from-xi transfer needs a section of ε")

    def h(x, y, g):
        return adj.counit.components[y] @ adj.F.on_morphism(g) @ xi.components[x]

    return _tabulated_witness(adj.G, h, "from-xi transfer")


def transfer_witness(rule: str, *args) -> SepWitness:
    """Dispatch the witness-transfer rules; every result is re-verified."""
    if rule == "compose":
        return compose_witnesses(*args)
    if rule == "left-factor":
        return left_factor_witness(*args)
    if rule == "retract":
        return retract_witness(*args)
    if rule == "fully-faithful":
        return fully_faithful_witness(*args)
    if rule == "from-xi":
        return witness_from_section(*args)
    raise ValueError(f"unknown transfer rule {rule!r}")


def section_laws(adj: Adjunction, xi: NatTrans):
    """The laws of a section ξ: Id → FG of the counit: naturality, then ε∘ξ = Id per object."""
    yield from naturality_laws(xi)
    dcat = adj.G.source
    for x in dcat.objects:
        yield "section law", (x,), adj.counit.components[x] @ xi.components[x], dcat.obj(x).identity()


def validate_section(adj: Adjunction, xi: NatTrans) -> ValidationReport:
    """ξ's component endpoints, then, when they fit, one pass over `section_laws`."""
    return validate_nat(xi, section_laws(adj, xi), {"section law": ("ε∘ξ = Id", str)})


def extract_section(adj: Adjunction, w: SepWitness) -> NatTrans:
    """ξ_X = H_{X, FG X}(η_{G X}), verified to satisfy ε∘ξ = Id and naturality."""
    if not w.functor.equals(adj.G):
        raise PreconditionError("witness is not for the right adjoint")
    dcat = adj.G.source
    fg = compose_functors(adj.F, adj.G, name="FG")
    comps = {x: w.apply(dcat.obj(x), fg.object_map[x], adj.unit.at(adj.G.object_map[x]))
             for x in dcat.objects}
    xi = NatTrans(Functor.identity(dcat), fg, comps, name="ξ")
    validate_section(adj, xi).require(LawViolationError, "extracted section")
    return xi


def _section_solve(adj: Adjunction):
    """One solve of `section_laws` imposed on an unknown ξ: Id → FG; (result, ξ?)."""
    dcat, fg = adj.G.source, compose_functors(adj.F, adj.G, name="FG")
    sysm = MorSystem(dcat.field)
    xi = NatTrans(Functor.identity(dcat), fg, {x: sysm.unknown(dcat.obj(x), fg.object_map[x])
                                               for x in dcat.objects}, name="ξ?")
    sysm.impose(section_laws(adj, xi))
    return sysm.solve(), xi


def section_feasibility(adj: Adjunction):
    """Independent affine solve for a ξ obeying `section_laws`; returns (result, ξ or None)."""
    sol, xi = _section_solve(adj)
    if not sol.feasible:
        return sol, None
    xi = NatTrans(xi.src, xi.dst, {x: MorSystem.eval_at(u, sol.particular)
                                   for x, u in xi.components.items()}, name="ξ")
    validate_section(adj, xi).require(LawViolationError, "solved section")
    return sol, xi


def bijectivity_record(pair, cols, dim_target: int, field) -> dict:
    """The rank of a hom map given by its image columns of a source basis, in
    coordinates of a target basis, and whether the map is bijective."""
    rank = rank_extension(cols, (), field)[0]
    return {"pair": pair, "dim_source": len(cols), "dim_target": dim_target, "rank": rank,
            "bijective": rank == len(cols) == dim_target}


def fully_faithful_on(f: Functor, pairs) -> list[dict]:
    """Per pair: the rank of the induced hom map and whether it is bijective."""
    out = []
    for a, b in pairs:
        if a.cat is not f.source or b.cat is not f.source:
            raise ValueError("pair objects are not in the functor's source closure")
        tbasis = hom_space_basis(f.target, f.on_object(a), f.on_object(b))
        cols = hom_matrix(f.on_morphism, hom_space_basis(f.source, a, b), f.source.field,
                          basis=tbasis)
        out.append(bijectivity_record((a, b), cols, len(tbasis), f.source.field))
    return out

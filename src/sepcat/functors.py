"""Functor presentations, natural transformations, adjunctions and the
separability witness calculus.

A functor is presented by its action on base objects and on hom bases; it
extends canonically to the additive/Karoubi closure (blockwise on summands,
and (X, e) ↦ (F(X), F(e))).  A separability witness for F: C → D is a family
of linear maps H_{X,Y}: Hom_D(F X, F Y) → Hom_C(X, Y), each held as its images
of the unit morphisms of Hom_D(F X, F Y), satisfying the retraction law
H(F(f)) = f and binaturality; existence is decided by one affine solve over
the coordinates of those images.  Binaturality is imposed as its two
one-sided laws H(F v∘g) = v∘H(g) and H(g∘F u) = H(g)∘u on basis morphisms:
the joint law H(F v∘g∘F u) = v∘H(g)∘u gives each with u or v an identity,
and H(F v∘(g∘F u)) = v∘H(g∘F u) = v∘H(g)∘u gives it back from them.

Each law family is written once, as a generator of (label, place, lhs, rhs)
that a solver imposes on unknowns and a checker reads with
`ValidationReport.record_laws`: `naturality_laws`, `section_laws` for a section
ξ of the counit, and `SepWitness._laws`, which keys by law and starts each
place with the finer label of its rows.
"""

from __future__ import annotations

import itertools

from .category import (CatObject, LinearCategory, Morphism, MorSystem, basis_coordinates,
                       direct_sum, extract_block, hom_coord_dim, hom_space_basis, morphism,
                       unit_morphisms, unit_vectors, zero_morphism)
from .errors import LawViolationError, NotFullyFaithfulError, PreconditionError
from .linalg import rank_extension
from .reports import ValidationReport


def _assemble_grid(nested, cod_parts, dom_parts):
    """Flatten a grid of part-morphisms into raw blocks over concatenated summands."""
    nrows = sum(len(p.summands) for p in cod_parts)
    ncols = sum(len(p.summands) for p in dom_parts)
    flat = [[None] * ncols for _ in range(nrows)]
    roff = 0
    for bi, pi in enumerate(cod_parts):
        coff = 0
        for bj, pj in enumerate(dom_parts):
            m = nested[bi][bj]
            for r in range(len(pi.summands)):
                for c in range(len(pj.summands)):
                    flat[roff + r][coff + c] = m.blocks[r][c]
            coff += len(pj.summands)
        roff += len(pi.summands)
    return tuple(map(tuple, flat))


class Functor:
    """A k-linear functor given on base objects and hom bases."""

    def __init__(self, source: LinearCategory, target: LinearCategory,
                 object_map: dict, hom_map: dict, name: str = ""):
        self.source = source
        self.target = target
        self.object_map = dict(object_map)
        self.hom_map = {k: tuple(v) for k, v in hom_map.items()}
        self.name = name
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
        res = self._ocache.get(a)
        if res is not None:
            return res
        parts = [self.object_map[s] for s in a.summands]
        if not parts:
            res = self.target.zero_object()
        elif a.idem is None:
            res = direct_sum(parts)
        else:
            nested = [[self.on_hom_vec(sj, ti, a.idem[i][j])
                       for j, sj in enumerate(a.summands)]
                      for i, ti in enumerate(a.summands)]
            raw = _assemble_grid(nested, parts, parts)
            summands = tuple(s for p in parts for s in p.summands)
            res = CatObject(self.target, summands, raw)
        self._ocache[a] = res
        return res

    def on_hom_vec(self, x, y, vec) -> Morphism:
        """Image Σ c_t·F(b_t) of a hom-basis coefficient vector, a morphism F(x) → F(y)."""
        cached = self._images.get((x, y))
        if cached is None:
            # the zero image, its coordinate count, and the nonzero coordinates of each F(b_t)
            fx, fy = self.object_map[x], self.object_map[y]
            sparse = [[(p, a) for p, a in enumerate(m.coords()) if a]
                      for m in self.hom_map.get((x, y), ())]
            cached = self._images[(x, y)] = (zero_morphism(fx, fy),
                                             hom_coord_dim(self.target, fx, fy), sparse)
        zero_image, n, images = cached
        if not any(vec):
            return zero_image
        acc = [self.target.field.zero()] * n
        for t, c in enumerate(vec):
            if c:
                for p, a in images[t]:
                    acc[p] = acc[p] + c * a
        return Morphism.from_coords(self.target, zero_image.dom, zero_image.cod, acc)

    def on_morphism(self, f: Morphism) -> Morphism:
        if f.cat is not self.source:
            raise ValueError("morphism not in the source category")
        dom_parts = [self.object_map[s] for s in f.dom.summands]
        cod_parts = [self.object_map[s] for s in f.cod.summands]
        nested = [[self.on_hom_vec(sj, ti, f.blocks[i][j])
                   for j, sj in enumerate(f.dom.summands)]
                  for i, ti in enumerate(f.cod.summands)]
        raw = _assemble_grid(nested, cod_parts, dom_parts)
        return Morphism._new(self.target, self.on_object(f.dom), self.on_object(f.cod), raw)

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


def _functor_laws(f: Functor):
    """F(id_x) = id_{F x}, then F(b∘a) = F(b)∘F(a) on basis pairs, as (key, place, lhs, rhs)."""
    src = f.source
    for x in src.objects:
        yield "identity", (x,), f.on_hom_vec(x, x, src.id_vec(x)), f.object_map[x].identity()
    for x, y, z in itertools.product(src.objects, repeat=3):
        dxy, dyz = src.hom_dim(x, y), src.hom_dim(y, z)
        if not (dxy and dyz):
            continue
        for ib, b in enumerate(unit_vectors(src.field, dyz)):
            fb = f.hom_map[(y, z)][ib]
            for ia, a in enumerate(unit_vectors(src.field, dxy)):
                yield ("composition", (x, y, z, ia, ib),
                       f.on_hom_vec(x, z, src.compose_vec(x, y, z, b, a)), fb @ f.hom_map[(x, y)][ia])


def validate_functor(f: Functor) -> ValidationReport:
    """Identity and composition preservation on all basis data, exactly."""
    rep = ValidationReport(f"functor {f.name}" if f.name else "functor")
    label = f.source.basis_label
    ok_shapes = all(m.dom == f.object_map[x] and m.cod == f.object_map[y]
                    for (x, y), mors in f.hom_map.items() for m in mors)
    rep.record("hom images have the right endpoints", ok_shapes)
    rep.record_laws(_functor_laws(f), {
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
        res = self._at_cache.get(a)
        if res is not None:
            return res
        src_parts = [self.src.object_map[s] for s in a.summands]
        dst_parts = [self.dst.object_map[s] for s in a.summands]
        nested = [[self.components[si] if i == j else zero_morphism(src_parts[j], dst_parts[i])
                   for j in range(len(a.summands))]
                  for i, si in enumerate(a.summands)]
        raw = _assemble_grid(nested, dst_parts, src_parts)
        plain = a.plain()
        m = Morphism(self.src.target, self.src.on_object(plain), self.dst.on_object(plain), raw)
        if a.idem is not None:
            e = Morphism(a.cat, plain, plain, a.idem)
            m = self.dst.on_morphism(e) @ m @ self.src.on_morphism(e)
        res = Morphism(self.src.target, self.src.on_object(a), self.dst.on_object(a), m.blocks)
        self._at_cache[a] = res
        return res

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
        """Coordinates of H(g) = Σ_k g_k·H(e_k), summed over the nonzero g_k."""
        src = self.functor.source
        out = [src.field.zero()] * src.hom_dim(x, y)
        for g, col in zip(coords, self.maps[(x, y)]):
            if g:
                for i, h in enumerate(col):
                    if h:
                        out[i] = out[i] + h * g
        return out

    def apply(self, a: CatObject, b: CatObject, g: Morphism) -> Morphism:
        f = self.functor
        src = f.source
        if len(a.summands) == 1 and a.idem is None and len(b.summands) == 1 and b.idem is None:
            x, y = a.summands[0], b.summands[0]
            d = src.hom_dim(x, y)
            if not d:
                return zero_morphism(a, b)
            return Morphism.from_coords(src, a, b, self._image(x, y, g.coords()))
        dom_parts = [f.object_map[s] for s in a.summands]
        cod_parts = [f.object_map[s] for s in b.summands]
        raw = []
        for i, ti in enumerate(b.summands):
            row = []
            for j, sj in enumerate(a.summands):
                d = src.hom_dim(sj, ti)
                if not d:
                    row.append(())
                    continue
                sub = extract_block(g, dom_parts, cod_parts, i, j)
                row.append(tuple(self._image(sj, ti, sub.coords())))
            raw.append(tuple(row))
        return morphism(src, a, b, raw)

    def _laws(self):
        """Every law on basis data, in a fixed order, as (law, place, lhs, rhs).

        First the retraction H(F b_t) = b_t per pair (x, y).  Then binaturality,
        as two one-sided laws for each g of the basis of Hom(F x, F y):
        H(F v∘g) = v∘H(g) for basis v: y→z, and H(g∘F u) = H(g)∘u for basis u: z→x.
        They hold exactly when the joint law H(F v∘g∘F u) = v∘H(g)∘u does: the
        joint law with u or v an identity (a combination of basis morphisms) is
        a one-sided law, and H(F v∘(g∘F u)) = v∘H(g∘F u) = v∘H(g)∘u.
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
                for iv, v in enumerate(hom_space_basis(src, obj[y], obj[z])):
                    fv = f.hom_map[(y, z)][iv]
                    for gi, g in enumerate(gbasis):
                        yield (LEFT_NATURALITY, (label, y, z, iv, gi),
                               self.apply(obj[x], obj[z], fv @ g), v @ images[gi])
                label = f"binaturality ({x},{y})→({z},{y})"
                for iu, u in enumerate(hom_space_basis(src, obj[z], obj[x])):
                    fu = f.hom_map[(z, x)][iu]
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
    re-verified.
    """
    validate_functor(f).require(PreconditionError, "separability_solve needs a functor")
    src, tgt = f.source, f.target
    sysm = MorSystem(src.field)
    unknowns = {}
    for x, y in src.hom_pairs():
        a = hom_coord_dim(tgt, f.object_map[x], f.object_map[y])
        xs = sysm.variables(src.hom_dim(x, y) * a)
        unknowns[(x, y)] = [xs[k::a] for k in range(a)]
    for _, (label, *_), lhs, rhs in SepWitness(f, unknowns)._laws():
        sysm.require_equal(lhs, rhs, label)
    sol = sysm.solve()
    if not sol.feasible:
        return sol
    return _verified_witness(f, {key: [[e.eval(sol.particular) for e in col] for col in cols]
                                 for key, cols in unknowns.items()}, "solver-produced witness")


def hom_matrix(fn, inputs, field, basis=None) -> list:
    """A linear map on hom spaces as its image columns: column j is fn(inputs[j]).

    The inputs are a hom basis, or `unit_morphisms` for a map on ambient
    coordinates.  Columns hold the coordinates of each image, or its
    coordinates in `basis` when one is given.
    """
    if basis is None:
        return [fn(m).coords() for m in inputs]
    coords = basis_coordinates(basis, field)
    return [coords(fn(m)) for m in inputs]


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


def section_feasibility(adj: Adjunction):
    """Independent affine solve for a ξ obeying `section_laws`; returns (result, ξ or None)."""
    dcat = adj.G.source
    fg = compose_functors(adj.F, adj.G, name="FG")
    sysm = MorSystem(dcat.field)
    idf = Functor.identity(dcat)
    unknowns = {x: sysm.unknown(dcat.obj(x), fg.object_map[x]) for x in dcat.objects}
    sysm.impose(section_laws(adj, NatTrans(idf, fg, unknowns, name="ξ?")))
    sol = sysm.solve()
    if not sol.feasible:
        return sol, None
    comps = {x: MorSystem.eval_at(unknowns[x], sol.particular) for x in dcat.objects}
    xi = NatTrans(idf, fg, comps, name="ξ")
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

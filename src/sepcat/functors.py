"""Functor presentations, natural transformations, adjunctions and the
separability witness calculus.

A functor is presented by its action on base objects and on hom bases; it
extends canonically to the additive/Karoubi closure (blockwise on summands,
and (X, e) ↦ (F(X), F(e))).  A separability witness for F: C → D is a family
of exact matrices H_{X,Y}: Hom_D(F X, F Y) → Hom_C(X, Y) satisfying the
retraction law H(F(f)) = f and binaturality; existence is decided by one
affine solve over the matrix entries.
"""

from __future__ import annotations

import itertools

from .category import (CatObject, LinearCategory, Morphism, MorSystem, basis_coordinates,
                       direct_sum, extract_block, hom_coord_dim, hom_space_basis, morphism,
                       unit_morphisms, unit_vectors, zero_morphism)
from .errors import LawViolationError, NotFullyFaithfulError, PreconditionError
from .linalg import Matrix
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
        for x in source.objects:
            for y in source.objects:
                d = source.hom_dim(x, y)
                if d and len(self.hom_map.get((x, y), ())) != d:
                    raise ValueError(f"hom_map misses the basis of Hom({x}, {y})")

    @staticmethod
    def identity(cat: LinearCategory, name: str = "Id") -> "Functor":
        object_map = {x: cat.obj(x) for x in cat.objects}
        hom_map = {}
        for x in cat.objects:
            for y in cat.objects:
                if cat.hom_dim(x, y):
                    hom_map[(x, y)] = tuple(hom_space_basis(cat, cat.obj(x), cat.obj(y)))
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


def validate_functor(f: Functor) -> ValidationReport:
    """Identity and composition preservation on all basis data, exactly."""
    rep = ValidationReport(f"functor {f.name}" if f.name else "functor")
    src = f.source
    ok_shapes = True
    for (x, y), mors in f.hom_map.items():
        for m in mors:
            if m.dom != f.object_map[x] or m.cod != f.object_map[y]:
                ok_shapes = False
    rep.record("hom images have the right endpoints", ok_shapes)
    id_bad = []
    for x in src.objects:
        img = f.on_hom_vec(x, x, src.id_vec(x))
        if img != f.object_map[x].identity():
            id_bad.append(x)
    rep.record(f"identity preservation ({len(src.objects)} objects)", not id_bad,
               "; ".join(map(str, id_bad)))
    comp_bad = []
    n = 0
    for x, y, z in itertools.product(src.objects, repeat=3):
        dxy, dyz = src.hom_dim(x, y), src.hom_dim(y, z)
        if not (dxy and dyz):
            continue
        for ib, b in enumerate(unit_vectors(src.field, dyz)):
            fb = f.hom_map[(y, z)][ib]
            for ia, a in enumerate(unit_vectors(src.field, dxy)):
                n += 1
                ba = src.compose_vec(x, y, z, b, a)
                if f.on_hom_vec(x, z, ba) != fb @ f.hom_map[(x, y)][ia]:
                    comp_bad.append(f"({src.basis_label(y, z, ib)}, {src.basis_label(x, y, ia)})")
    rep.record(f"composition preservation ({n} pairs)", not comp_bad, "; ".join(comp_bad))
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


def validate_nat(t: NatTrans) -> ValidationReport:
    rep = ValidationReport(f"natural transformation {t.name}" if t.name else "natural transformation")
    src = t.src.source
    if t.src.source is not t.dst.source or t.src.target is not t.dst.target:
        rep.record("parallel functors", False)
        return rep
    shape_bad = []
    for x in src.objects:
        c = t.components.get(x)
        if c is None or c.dom != t.src.object_map[x] or c.cod != t.dst.object_map[x]:
            shape_bad.append(x)
    rep.record("components have the right endpoints", not shape_bad, "; ".join(map(str, shape_bad)))
    if shape_bad:
        return rep
    nat_bad = []
    n = 0
    for (x, y), mors in sorted(t.src.hom_map.items()):
        for i in range(len(mors)):
            n += 1
            lhs = t.dst.hom_map[(x, y)][i] @ t.components[x]
            rhs = t.components[y] @ mors[i]
            if lhs != rhs:
                nat_bad.append(src.basis_label(x, y, i))
    rep.record(f"naturality ({n} squares)", not nat_bad, "; ".join(nat_bad))
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
    rep = ValidationReport(f"adjunction {adj.name}" if adj.name else "adjunction")
    bad1 = []
    for x in adj.F.source.objects:
        fx = adj.F.object_map[x]
        lhs = adj.counit.at(fx) @ adj.F.on_morphism(adj.unit.components[x])
        if lhs != fx.identity():
            bad1.append(x)
    rep.record("εF∘Fη = Id_F", not bad1, "; ".join(map(str, bad1)))
    bad2 = []
    for d in adj.G.source.objects:
        gd = adj.G.object_map[d]
        lhs = adj.G.on_morphism(adj.counit.components[d]) @ adj.unit.at(gd)
        if lhs != gd.identity():
            bad2.append(d)
    rep.record("Gε∘ηG = Id_G", not bad2, "; ".join(map(str, bad2)))
    return rep


class SepWitness:
    """A separability witness: per base pair, an exact matrix retraction of F's hom action.

    The matrix at (x, y) acts on ambient block coordinates of Hom(F x, F y); on
    closure objects the witness extends blockwise and by conjugation with the
    idempotents.  Entries may be `LinForm` unknowns: `separability_solve`
    imposes the laws on such a symbolic witness.
    """

    def __init__(self, functor: Functor, maps: dict):
        self.functor = functor
        self.maps = dict(maps)

    def apply(self, a: CatObject, b: CatObject, g: Morphism) -> Morphism:
        f = self.functor
        src = f.source
        if len(a.summands) == 1 and a.idem is None and len(b.summands) == 1 and b.idem is None:
            x, y = a.summands[0], b.summands[0]
            d = src.hom_dim(x, y)
            if not d:
                return zero_morphism(a, b)
            return Morphism.from_coords(src, a, b, self.maps[(x, y)].apply(g.coords()))
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
                row.append(tuple(self.maps[(sj, ti)].apply(sub.coords())))
            raw.append(tuple(row))
        return morphism(src, a, b, raw)

    def _laws(self):
        """Every law on basis data, in a fixed order, as (law, where, at, lhs, rhs).

        First the retraction H(F b_t) = b_t per pair (x, y), then binaturality
        H(F v∘g∘F u) = v∘H(g)∘u for basis u: x2→x, v: y→y2 and g of Hom(F x, F y).
        `at` holds the basis indices, (x, y, t) or (x, y, x2, y2, iu, iv, gi).
        """
        f = self.functor
        src, tgt = f.source, f.target
        obj = {x: src.obj(x) for x in src.objects}
        pairs = [(x, y) for x in src.objects for y in src.objects]
        for (x, y) in pairs:
            for t, b in enumerate(hom_space_basis(src, obj[x], obj[y])):
                yield ("retraction", f"({x},{y})", (x, y, t),
                       self.apply(obj[x], obj[y], f.hom_map[(x, y)][t]), b)
        for (x, y) in pairs:
            gbasis = hom_space_basis(tgt, f.object_map[x], f.object_map[y])
            if not gbasis:
                continue
            images = [self.apply(obj[x], obj[y], g) for g in gbasis]
            for (x2, y2) in pairs:
                where = f"({x},{y})→({x2},{y2})"
                for iu, u in enumerate(hom_space_basis(src, obj[x2], obj[x])):
                    fu = f.hom_map[(x2, x)][iu]
                    for iv, v in enumerate(hom_space_basis(src, obj[y], obj[y2])):
                        fv = f.hom_map[(y, y2)][iv]
                        for gi, g in enumerate(gbasis):
                            yield ("binaturality", where, (x, y, x2, y2, iu, iv, gi),
                                   self.apply(obj[x2], obj[y2], fv @ g @ fu), v @ images[gi] @ u)

    def verify(self) -> ValidationReport:
        """Re-check the retraction law and binaturality on all basis data."""
        src = self.functor.source
        count = {"retraction": 0, "binaturality": 0}
        bad = {"retraction": [], "binaturality": []}
        for law, _, at, lhs, rhs in self._laws():
            count[law] += 1
            if lhs != rhs:
                bad[law].append(at)
        retr_bad = [src.basis_label(x, y, t) for x, y, t in bad["retraction"]]
        nat_bad = [f"H({src.basis_label(y, y2, iv)}∘g{gi}∘{src.basis_label(x2, x, iu)})"
                   f" at ({x},{y})→({x2},{y2})"
                   for x, y, x2, y2, iu, iv, gi in bad["binaturality"]]
        rep = ValidationReport("separability witness")
        rep.record(f"retraction H(F(f)) = f ({count['retraction']} checks)", not retr_bad,
                   "; ".join(retr_bad))
        rep.record(f"binaturality ({count['binaturality']} checks)", not nat_bad,
                   "; ".join(nat_bad[:6]))
        return rep

    def __repr__(self):
        return f"<SepWitness for {self.functor!r}>"


def separability_solve(f: Functor):
    """Decide separability of f by exact affine feasibility; witness or Infeasible.

    Each H_{x,y} is a matrix of unknowns, numbered by (source object pair,
    row-major matrix position); the witness laws are imposed on that symbolic
    witness, and the returned witness is the solver's first solution, re-verified.
    """
    validate_functor(f).require(PreconditionError, "separability_solve needs a functor")
    src, tgt = f.source, f.target
    sysm = MorSystem(src.field)
    unknowns = {}
    for x in src.objects:
        for y in src.objects:
            d = src.hom_dim(x, y)
            if d:
                a = hom_coord_dim(tgt, f.object_map[x], f.object_map[y])
                unknowns[(x, y)] = Matrix(src.field, [sysm.variables(a) for _ in range(d)], cols=a)
    for law, where, _, lhs, rhs in SepWitness(f, unknowns)._laws():
        sysm.require_equal(lhs, rhs, f"{law} {where}")
    sol = sysm.solve()
    if not sol.feasible:
        return sol
    maps = {key: Matrix(src.field, [[e.eval(sol.particular) for e in row] for row in h.data],
                        cols=h.cols)
            for key, h in unknowns.items()}
    w = SepWitness(f, maps)
    w.verify().require(LawViolationError, "solver-produced witness")
    return w


def hom_matrix(fn, inputs, n_out: int, field, basis=None) -> Matrix:
    """Matrix of a linear map on hom spaces: column j is fn(inputs[j]).

    The inputs are a hom basis, or `unit_morphisms` for a map on ambient
    coordinates.  Columns hold the coordinates of each image, or its
    coordinates in `basis` when one is given.
    """
    if basis is None:
        cols = [fn(m).coords() for m in inputs]
    else:
        coords = basis_coordinates(basis, field)
        cols = [coords(fn(m)) for m in inputs]
    return Matrix.from_columns(field, cols, n_out)


def compose_witnesses(h_f: SepWitness, h_g: SepWitness) -> SepWitness:
    """A witness for the composite G∘F from witnesses for F and G."""
    f, g = h_f.functor, h_g.functor
    if f.target is not g.source:
        raise PreconditionError("witness functors are not composable")
    gf = compose_functors(g, f)
    src = f.source
    maps = {}
    for x in src.objects:
        for y in src.objects:
            if not src.hom_dim(x, y):
                continue
            fx, fy = f.object_map[x], f.object_map[y]
            m_g = hom_matrix(lambda m: h_g.apply(fx, fy, m),
                             unit_morphisms(g.target, g.on_object(fx), g.on_object(fy)),
                             hom_coord_dim(g.source, fx, fy), src.field)
            maps[(x, y)] = h_f.maps[(x, y)] @ m_g
    w = SepWitness(gf, maps)
    w.verify().require(LawViolationError, "compose transfer")
    return w


def left_factor_witness(h_gf: SepWitness, g: Functor, f: Functor) -> SepWitness:
    """A witness for the left factor F extracted from one for G∘F."""
    if not compose_functors(g, f).equals(h_gf.functor):
        raise PreconditionError("witness is not for the composite of the given functors")
    src, mid = f.source, f.target
    maps = {}
    for x in src.objects:
        for y in src.objects:
            if not src.hom_dim(x, y):
                continue
            fx, fy = f.object_map[x], f.object_map[y]
            gfx, gfy = g.on_object(fx), g.on_object(fy)
            m = hom_matrix(g.on_morphism, unit_morphisms(mid, fx, fy),
                           hom_coord_dim(g.target, gfx, gfy), src.field)
            maps[(x, y)] = h_gf.maps[(x, y)] @ m
    w = SepWitness(f, maps)
    w.verify().require(LawViolationError, "left-factor transfer")
    return w


def retract_witness(h_f2: SepWitness, phi: NatTrans, psi: NatTrans) -> SepWitness:
    """Transfer along φ: F'→F, ψ: F→F' with ψ∘φ = Id_{F'}."""
    f2 = h_f2.functor
    f = phi.dst
    src, tgt = f.source, f.target
    for x in src.objects:
        if psi.components[x] @ phi.components[x] != f2.object_map[x].identity():
            raise PreconditionError(f"ψ∘φ is not the identity at {x}")
    maps = {}
    for x in src.objects:
        for y in src.objects:
            if not src.hom_dim(x, y):
                continue
            fx, fy = f.object_map[x], f.object_map[y]
            f2x, f2y = f2.object_map[x], f2.object_map[y]
            delta = hom_matrix(lambda m: psi.components[y] @ m @ phi.components[x],
                               unit_morphisms(tgt, fx, fy), hom_coord_dim(tgt, f2x, f2y), src.field)
            maps[(x, y)] = h_f2.maps[(x, y)] @ delta
    w = SepWitness(f, maps)
    w.verify().require(LawViolationError, "retract transfer")
    return w


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
                maps[(x, y)] = hom_matrix(lambda m: m, unit_morphisms(tgt, fx, fy), d, src.field,
                                          basis=f.hom_map[(x, y)])
            except ValueError:
                raise NotFullyFaithfulError(f"hom action at ({x},{y}) is not bijective")
    w = SepWitness(f, maps)
    w.verify().require(LawViolationError, "fully-faithful witness")
    return w


def witness_from_section(adj: Adjunction, xi: NatTrans) -> SepWitness:
    """H(g) = ε_Y∘F(g)∘ξ_X: a witness for the right adjoint from a counit section."""
    src = adj.G.source
    for x in src.objects:
        if adj.counit.components[x] @ xi.components[x] != src.obj(x).identity():
            raise PreconditionError(f"ε∘ξ is not the identity at {x}")
    csrc = adj.G.target
    maps = {}
    for x in src.objects:
        for y in src.objects:
            d = src.hom_dim(x, y)
            if not d:
                continue
            gx, gy = adj.G.object_map[x], adj.G.object_map[y]

            def h(g):
                return adj.counit.components[y] @ adj.F.on_morphism(g) @ xi.components[x]

            maps[(x, y)] = hom_matrix(h, unit_morphisms(csrc, gx, gy), d, src.field)
    w = SepWitness(adj.G, maps)
    w.verify().require(LawViolationError, "from-xi transfer")
    return w


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


def extract_section(adj: Adjunction, w: SepWitness) -> NatTrans:
    """ξ_X = H_{X, FG X}(η_{G X}), verified to satisfy ε∘ξ = Id and naturality."""
    if not w.functor.equals(adj.G):
        raise PreconditionError("witness is not for the right adjoint")
    dcat = adj.G.source
    fg = compose_functors(adj.F, adj.G, name="FG")
    comps = {}
    for x in dcat.objects:
        gx = adj.G.object_map[x]
        fgx = fg.object_map[x]
        comps[x] = w.apply(dcat.obj(x), fgx, adj.unit.at(gx))
    xi = NatTrans(Functor.identity(dcat), fg, comps, name="ξ")
    validate_nat(xi).require(LawViolationError, "extracted section")
    for x in dcat.objects:
        if adj.counit.components[x] @ comps[x] != dcat.obj(x).identity():
            raise LawViolationError(f"ε∘ξ differs from the identity at {x}")
    return xi


def section_feasibility(adj: Adjunction):
    """Independent affine solve for a ξ with ε∘ξ = Id; returns (result, ξ or None)."""
    dcat = adj.G.source
    fg = compose_functors(adj.F, adj.G, name="FG")
    sysm = MorSystem(dcat.field)
    unknowns = {x: sysm.unknown(dcat.obj(x), fg.object_map[x]) for x in dcat.objects}
    for (x, y), mors in sorted(fg.hom_map.items()):
        for m, base in zip(mors, hom_space_basis(dcat, dcat.obj(x), dcat.obj(y))):
            sysm.require_equal(m @ unknowns[x], unknowns[y] @ base, "naturality")
    for x in dcat.objects:
        sysm.require_equal(adj.counit.components[x] @ unknowns[x],
                           dcat.obj(x).identity(), "section law")
    sol = sysm.solve()
    if not sol.feasible:
        return sol, None
    comps = {x: MorSystem.eval_at(unknowns[x], sol.particular) for x in dcat.objects}
    xi = NatTrans(Functor.identity(dcat), fg, comps, name="ξ")
    validate_nat(xi).require(LawViolationError, "solved section")
    return sol, xi


def fully_faithful_on(f: Functor, pairs) -> list[dict]:
    """Per pair: the rank of the induced hom map and whether it is bijective."""
    out = []
    for a, b in pairs:
        if a.cat is not f.source or b.cat is not f.source:
            raise ValueError("pair objects are not in the functor's source closure")
        sbasis = hom_space_basis(f.source, a, b)
        tbasis = hom_space_basis(f.target, f.on_object(a), f.on_object(b))
        rank = hom_matrix(f.on_morphism, sbasis, len(tbasis), f.source.field, basis=tbasis).rank()
        out.append({
            "pair": (a, b),
            "dim_source": len(sbasis),
            "dim_target": len(tbasis),
            "rank": rank,
            "bijective": rank == len(sbasis) == len(tbasis),
        })
    return out

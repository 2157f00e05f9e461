"""Finite groups acting strictly on a presented category, equivariant objects,
the induction/forgetful adjunction, the group monad, and the Maschke section.

Direct sums over the group use the element order of the group; every
reindexing "identity" is an explicit permutation block matrix.  The finite
equivariant category is materialized as a presentation on a chosen set of
equivariant objects (the free objects on all base objects, plus extras), so
the whole functor/adjunction/monad calculus applies to it verbatim.
"""

from __future__ import annotations

from fractions import Fraction

from .category import (CatObject, LinearCategory, Morphism, MorSystem,
                       basis_coordinates, direct_sum, extract_block,
                       hom_space_basis, int_invertible, invert_morphism,
                       morphism)
from .errors import (LawViolationError, NonInvertibleComponentError,
                     NotInvertibleError, PreconditionError)
from .functors import (Adjunction, Functor, NatTrans, compose_functors,
                       validate_adjunction, validate_functor, validate_nat, validate_section)
from .monads import Monad, validate_monad
from .reports import ValidationReport


class FiniteGroup:
    """A finite group as an ordered element list and a multiplication table."""

    def __init__(self, elements, table: dict, unit=None, name: str = ""):
        self.elements = tuple(elements)
        self.table = dict(table)
        self.name = name
        if unit is None:
            unit = self._find_unit()
        self.unit = unit
        self._index = {g: i for i, g in enumerate(self.elements)}
        self._inv = {}
        for g in self.elements:
            for h in self.elements:
                if self.table.get((g, h)) == self.unit and self.table.get((h, g)) == self.unit:
                    self._inv[g] = h
                    break

    def _find_unit(self):
        for e in self.elements:
            if all(self.table.get((e, g)) == g and self.table.get((g, e)) == g
                   for g in self.elements):
                return e
        raise ValueError("multiplication table has no unit")

    @property
    def order(self) -> int:
        return len(self.elements)

    def mult(self, g, h):
        return self.table[(g, h)]

    def inv(self, g):
        return self._inv[g]

    def index(self, g) -> int:
        return self._index[g]

    def element_order(self, g) -> int:
        k, x = 1, g
        while x != self.unit:
            x = self.mult(x, g)
            k += 1
        return k

    def validate(self) -> ValidationReport:
        rep = ValidationReport(f"group {self.name}" if self.name else "group")
        els = self.elements
        closed = all((g, h) in self.table and self.table[(g, h)] in self._index
                     for g in els for h in els)
        rep.record("closed multiplication table", closed)
        if not closed:
            return rep
        rep.record("associativity", all(
            self.mult(self.mult(g, h), k) == self.mult(g, self.mult(h, k))
            for g in els for h in els for k in els))
        rep.record("unit element", all(
            self.mult(self.unit, g) == g and self.mult(g, self.unit) == g for g in els))
        rep.record("inverses", all(g in self._inv for g in els))
        return rep

    @staticmethod
    def cyclic(n: int, name: str = "") -> "FiniteGroup":
        names = ["e"] + [("g" if i == 1 else f"g{i}") for i in range(1, n)]
        table = {(names[i], names[j]): names[(i + j) % n] for i in range(n) for j in range(n)}
        return FiniteGroup(names, table, unit="e", name=name or f"Z/{n}")

    @staticmethod
    def symmetric(n: int, name: str = "") -> "FiniteGroup":
        from itertools import permutations
        perms = list(permutations(range(n)))
        def pname(p):
            return "s" + "".join(map(str, p))
        table = {}
        for p in perms:
            for q in perms:
                pq = tuple(p[q[i]] for i in range(n))
                table[(pname(p), pname(q))] = pname(pq)
        return FiniteGroup([pname(p) for p in perms], table,
                           unit=pname(tuple(range(n))), name=name or f"S_{n}")

    def __repr__(self):
        return f"<FiniteGroup {self.name or ''} order {self.order}>"


class GroupAction:
    """A strict action: a group homomorphism into the automorphisms of a category."""

    def __init__(self, group: FiniteGroup, base: LinearCategory, functors: dict, name: str = ""):
        self.group = group
        self.base = base
        self.functors = dict(functors)
        self.name = name

    def functor(self, g) -> Functor:
        return self.functors[g]

    def on_object_name(self, g, x) -> str:
        obj = self.functors[g].object_map[x]
        if len(obj.summands) != 1 or obj.idem is not None:
            raise ValueError(f"action of {g} does not send {x} to a base object")
        return obj.summands[0]

    @staticmethod
    def trivial(group: FiniteGroup, cat: LinearCategory, name: str = "") -> "GroupAction":
        idf = Functor.identity(cat)
        return GroupAction(group, cat, {g: idf for g in group.elements},
                           name=name or f"trivial {group.name} on {cat.name}")

    @staticmethod
    def from_permutation(group: FiniteGroup, cat: LinearCategory, perms: dict,
                         name: str = "") -> "GroupAction":
        """Build an action from object permutations; hom bases map index-wise."""
        functors = {}
        for g in group.elements:
            p = perms[g]
            object_map = {x: cat.obj(p[x]) for x in cat.objects}
            hom_map = {}
            for x, y in cat.hom_pairs():
                if cat.hom_dim(p[x], p[y]) != cat.hom_dim(x, y):
                    raise ValueError(f"hom dimensions differ along the permutation of {g}")
                hom_map[(x, y)] = tuple(hom_space_basis(cat, cat.obj(p[x]), cat.obj(p[y])))
            functors[g] = Functor(cat, cat, object_map, hom_map, name=f"Φ_{g}")
        return GroupAction(group, cat, functors, name=name)

    def __repr__(self):
        return f"<GroupAction {self.name or ''}>"


def validate_action(a: GroupAction) -> ValidationReport:
    """Strictness: Φ_e = Id and Φ_g∘Φ_h = Φ_{gh} as exact presentation data."""
    rep = ValidationReport(f"action {a.name}" if a.name else "action")
    rep.merge(a.group.validate())
    for g in a.group.elements:
        rep.merge(validate_functor(a.functors[g]))
    perm_ok = True
    for g in a.group.elements:
        seen = set()
        for x in a.base.objects:
            obj = a.functors[g].object_map[x]
            if len(obj.summands) != 1 or obj.idem is not None:
                perm_ok = False
            else:
                seen.add(obj.summands[0])
        if len(seen) != len(a.base.objects):
            perm_ok = False
    rep.record("Φ_g permutes the base objects", perm_ok)
    rep.record("Φ_e is the identity presentation",
               a.functors[a.group.unit].equals(Functor.identity(a.base)))
    els = a.group.elements
    bad = [f"({g},{h})" for g in els for h in els if not compose_functors(
        a.functors[g], a.functors[h]).equals(a.functors[a.group.mult(g, h)])]
    rep.record("Φ_g∘Φ_h = Φ_gh", not bad, "; ".join(bad))
    return rep


class EquivariantObject:
    """A pair (X, α) with isomorphisms α_g: X → ^gX satisfying the cocycle law."""

    def __init__(self, action: GroupAction, carrier: CatObject, alpha: dict, name: str = ""):
        self.action = action
        self.carrier = carrier
        self.alpha = dict(alpha)
        self.name = name
        self._alpha_inv = None

    def alpha_inverse(self) -> dict:
        """The inverses (α_g)^{-1}: ^gX → X, each found once by an exact solve.

        Raises NonInvertibleComponentError, on every call, when some α_g has
        no two-sided inverse.
        """
        if self._alpha_inv is None:
            inv = {}
            for g in self.action.group.elements:
                try:
                    inv[g] = invert_morphism(self.alpha[g])
                except ValueError as exc:
                    raise NonInvertibleComponentError(str(exc)) from exc
            self._alpha_inv = inv
        return dict(self._alpha_inv)

    def validate(self) -> ValidationReport:
        rep = ValidationReport(f"equivariant object {self.name}" if self.name else "equivariant object")
        a = self.action
        g0 = a.group.unit
        bad = [g for g in a.group.elements if (m := self.alpha.get(g)) is None
               or m.dom != self.carrier or m.cod != a.functors[g].on_object(self.carrier)]
        if rep.record("components α_g: X → ^gX present", not bad, "; ".join(map(str, bad))):
            rep.record("α_e = Id", self.alpha[g0] == self.carrier.identity())
            rep.record_laws(self._laws(), {"cocycle": ("cocycle ^g(α_g')∘α_g = α_gg'", "({},{})".format),
                                           "inverse": ("α_g invertible", str)})
        return rep

    def _laws(self):
        """The cocycle law per pair (g, g'), then α_g∘^g(α_{g⁻¹}) = Id per g."""
        a = self.action
        els = a.group.elements
        for g in els:
            for g2 in els:
                yield ("cocycle", (g, g2), a.functors[g].on_morphism(self.alpha[g2]) @ self.alpha[g],
                       self.alpha[a.group.mult(g, g2)])
        for g in els:
            left = a.functors[g].on_morphism(self.alpha[a.group.inv(g)])
            yield "inverse", (g,), self.alpha[g] @ left, self.alpha[g].cod.identity()

    def __repr__(self):
        return f"<EquivObject {self.name or self.carrier!r}>"


def eq_hom_space(a: EquivariantObject, b: EquivariantObject) -> list[Morphism]:
    """Basis of {θ: X → Y with β_g∘θ = ^gθ∘α_g for all g}, by one exact solve."""
    if a.action is not b.action:
        raise ValueError("equivariant objects under different actions")
    act = a.action
    sysm = MorSystem(act.base.field)
    th = sysm.unknown(a.carrier, b.carrier)
    for g in act.group.elements:
        sysm.require_equal(b.alpha[g] @ th,
                           act.functors[g].on_morphism(th) @ a.alpha[g],
                           f"equivariance at {g}")
    sol = sysm.solve()
    return [MorSystem.eval_at(th, k, with_const=False) for k in sol.kernel]


def _inverse_action(z: EquivariantObject, dom: CatObject) -> Morphism:
    """λ: ⊕_h ^hX → X with λ_h = (α_h)^{-1}, in group-element order."""
    alpha_inv = z.alpha_inverse()
    els = z.action.group.elements
    nsum = len(z.carrier.summands)
    raw = [tuple(alpha_inv[h].blocks[t][j] for j in range(nsum) for h in els)
           for t in range(nsum)]
    return morphism(z.action.base, dom, z.carrier, raw)


def group_monad_functor(action: GroupAction) -> Functor:
    """The endofunctor X ↦ ⊕_{h∈G} ^hX, θ ↦ ⊕_h ^hθ, in group-element order."""
    cat = action.base
    els = action.group.elements
    object_map = {x: direct_sum([cat.obj(action.on_object_name(h, x)) for h in els])
                  for x in cat.objects}
    hom_map = {}
    for x, y in cat.hom_pairs():
        mors = []
        for i in range(cat.hom_dim(x, y)):
            blocks = []
            for hi, h in enumerate(els):
                row = []
                img = action.functors[h].hom_map[(x, y)][i]
                for hj in range(len(els)):
                    if hi == hj:
                        row.append(img.blocks[0][0])
                    else:
                        sx = action.on_object_name(els[hj], x)
                        ty = action.on_object_name(h, y)
                        row.append(cat.zero_block(sx, ty))
                blocks.append(tuple(row))
            mors.append(Morphism(cat, object_map[x], object_map[y], blocks))
        hom_map[(x, y)] = tuple(mors)
    return Functor(cat, cat, object_map, hom_map, name="M")


def free_equivariant(action: GroupAction, x: CatObject, name: str = "") -> EquivariantObject:
    """F(X) = (⊕_h ^hX, α) with α_g the left-multiplication permutation blocks."""
    if x.idem is not None:
        raise ValueError("free equivariant objects are built on plain carriers")
    cat = action.base
    group = action.group
    els = group.elements
    n = len(els)
    mf = group_monad_functor(action)
    carrier = mf.on_object(x)
    nsum = len(x.summands)
    alpha = {}
    for g in els:
        target = action.functors[g].on_object(carrier)
        blocks = [[cat.zero_block(carrier.summands[c], target.summands[r])
                   for c in range(nsum * n)]
                  for r in range(nsum * n)]
        for j in range(nsum):
            for i, h in enumerate(els):
                for i2 in range(n):
                    # the summand ^hX at slot i maps identically to slot i2 of
                    # ^g(⊕_h ^hX) exactly when g·h_{i2} = h
                    if group.mult(g, els[i2]) == h:
                        blocks[j * n + i2][j * n + i] = cat.id_vec(carrier.summands[j * n + i])
        alpha[g] = Morphism(cat, carrier, target, blocks)
    z = EquivariantObject(action, carrier, alpha, name=name or f"F({'⊕'.join(x.summands)})")
    z.validate().require(LawViolationError, "free equivariant object")
    return z


def _group_unit(action: GroupAction, m: Functor) -> NatTrans:
    """η: Id → M with η_x = (id, 0, …, 0)^t onto the unit element's summand of M x = ⊕_h ^hx."""
    cat, group = action.base, action.group
    e_idx = group.index(group.unit)
    comps = {}
    for x in cat.objects:
        mx = m.object_map[x]
        col = [(cat.id_vec(x),) if i == e_idx else (cat.zero_block(x, mx.summands[i]),)
               for i in range(len(group.elements))]
        comps[x] = Morphism(cat, cat.obj(x), mx, col)
    return NatTrans(Functor.identity(cat), m, comps, name="η")


def equivariant_monad(action: GroupAction, name: str = "") -> Monad:
    """The group monad with unit (Id, 0, …, 0)^t and Kronecker-delta multiplication."""
    cat = action.base
    group = action.group
    els = group.elements
    n = len(els)
    mf = group_monad_functor(action)
    mult_comps = {}
    for x in cat.objects:
        mx = mf.object_map[x]
        m2x = mf.on_object(mx)
        blocks = []
        for t in range(n):
            row = []
            for j in range(n):
                for i in range(n):
                    src_name = m2x.summands[j * n + i]
                    if group.mult(els[i], els[j]) == els[t]:
                        row.append(cat.id_vec(src_name))
                    else:
                        row.append(cat.zero_block(src_name, mx.summands[t]))
            blocks.append(tuple(row))
        mult_comps[x] = Morphism(cat, m2x, mx, blocks)
    m2 = compose_functors(mf, mf, name="M²")
    monad = Monad(mf, _group_unit(action, mf), NatTrans(m2, mf, mult_comps, name="μ"),
                  name=name or f"group monad {action.name}")
    validate_monad(monad).require(LawViolationError, "group monad")
    return monad


class EquivariantCategory:
    """A presentation of the full subcategory on finitely many equivariant objects."""

    def __init__(self, action: GroupAction, labels, objects: dict, bases: dict,
                 coords: dict, cat: LinearCategory, free_label_map: dict):
        self.action = action
        self.labels = tuple(labels)
        self.objects = objects
        self.bases = bases
        self.coords = coords
        self.cat = cat
        self.free_label_map = free_label_map

    def free_label(self, x) -> str:
        return self.free_label_map[x]

    def to_pres_mor(self, p_dom: CatObject, p_cod: CatObject, f: Morphism) -> Morphism:
        """Express a base-closure morphism between realizations as a presentation morphism."""
        dom_parts = [self.objects[l].carrier for l in p_dom.summands]
        cod_parts = [self.objects[l].carrier for l in p_cod.summands]
        raw = []
        for i, li in enumerate(p_cod.summands):
            row = []
            for j, lj in enumerate(p_dom.summands):
                sub = extract_block(f, dom_parts, cod_parts, i, j)
                row.append(tuple(self.coords[(lj, li)](sub)))
            raw.append(tuple(row))
        return morphism(self.cat, p_dom, p_cod, raw)

    def __repr__(self):
        return f"<EquivariantCategory {self.cat.name}: {len(self.labels)} objects>"


def equivariant_category(action: GroupAction, extra: dict | None = None,
                         name: str = "") -> EquivariantCategory:
    """Present the full subcategory on the free objects plus the given extras."""
    base = action.base
    extra = dict(extra or {})
    objects = {}
    free_label_map = {}
    for x in base.objects:
        label = f"F({x})"
        free_label_map[x] = label
        objects[label] = free_equivariant(action, base.obj(x))
    for label, z in extra.items():
        if label in objects:
            raise ValueError(f"duplicate equivariant object label {label!r}")
        z.validate().require(PreconditionError, f"equivariant object {label}")
        objects[label] = z
    labels = list(free_label_map.values()) + list(extra.keys())
    bases = {}
    for l1 in labels:
        for l2 in labels:
            bases[(l1, l2)] = eq_hom_space(objects[l1], objects[l2])
    coords = {key: basis_coordinates(basis, base.field) for key, basis in bases.items()}
    dims = {(l1, l2): len(bases[(l1, l2)]) for l1 in labels for l2 in labels}
    comp = {}
    for l1 in labels:
        for l2 in labels:
            if not dims[(l1, l2)]:
                continue
            for l3 in labels:
                if not dims[(l2, l3)] or not dims[(l1, l3)]:
                    continue
                table = []
                for v in bases[(l2, l3)]:
                    row = []
                    for u in bases[(l1, l2)]:
                        row.append(tuple(coords[(l1, l3)](v @ u)))
                    table.append(tuple(row))
                comp[(l1, l2, l3)] = tuple(table)
    idents = {l: tuple(coords[(l, l)](objects[l].carrier.identity())) for l in labels}
    cat = LinearCategory(base.field, labels, dims, comp, idents,
                         name=name or f"({base.name})^{action.group.name}")
    from .category import validate_presentation
    validate_presentation(cat).require(LawViolationError, "equivariant category presentation")
    return EquivariantCategory(action, labels, objects, bases, coords, cat, free_label_map)


def induce_adjunction(eqcat: EquivariantCategory) -> Adjunction:
    """The induction/forgetful adjoint pair (F, U; η, ε) with its explicit formulas."""
    action = eqcat.action
    base = action.base
    pcat = eqcat.cat
    mf = group_monad_functor(action)

    u_object_map = {l: eqcat.objects[l].carrier for l in eqcat.labels}
    u_hom_map = {}
    for (l1, l2), basis in eqcat.bases.items():
        if basis:
            u_hom_map[(l1, l2)] = tuple(basis)
    forgetful = Functor(pcat, base, u_object_map, u_hom_map, name="U")

    f_object_map = {x: pcat.obj(eqcat.free_label(x)) for x in base.objects}
    f_hom_map = {}
    for x, y in base.hom_pairs():
        lx, ly = eqcat.free_label(x), eqcat.free_label(y)
        coords = eqcat.coords[(lx, ly)]
        f_hom_map[(x, y)] = tuple(
            Morphism(pcat, f_object_map[x], f_object_map[y], ((tuple(coords(m)),),))
            for m in mf.hom_map[(x, y)])
    induction = Functor(base, pcat, f_object_map, f_hom_map, name="F")

    unit = _group_unit(action, compose_functors(forgetful, induction, name="UF"))

    fu = compose_functors(induction, forgetful, name="FU")
    eps_comps = {}
    for l in eqcat.labels:
        z = eqcat.objects[l]
        rho = _inverse_action(z, mf.on_object(z.carrier))
        eps_comps[l] = eqcat.to_pres_mor(fu.object_map[l], pcat.obj(l), rho)
    counit = NatTrans(fu, Functor.identity(pcat), eps_comps, name="ε")

    adj = Adjunction(induction, forgetful, unit, counit,
                     name=f"(F, U) for {action.name}")
    rep = ValidationReport("induced adjunction")
    rep.merge(validate_functor(induction))
    rep.merge(validate_functor(forgetful))
    rep.merge(validate_nat(unit))
    rep.merge(validate_nat(counit))
    rep.merge(validate_adjunction(adj))
    rep.require(LawViolationError, "induced adjunction")
    return adj


def to_module(z: EquivariantObject, monad: Monad | None = None):
    """The dictionary (X, α) ↦ (X, λ) with λ_h = (α_h)^{-1}."""
    from .modules import MModule, validate_module
    action = z.action
    if monad is None:
        monad = equivariant_monad(action)
    lam = _inverse_action(z, monad.functor.on_object(z.carrier))
    mod = MModule(monad, z.carrier, lam, name=z.name or "dictionary image")
    validate_module(mod).require(LawViolationError, "dictionary to-module")
    return mod


def to_equivariant(m, action: GroupAction) -> EquivariantObject:
    """Inverse dictionary: (X, λ) ↦ (X, α) with α_h = (λ_h)^{-1}."""
    els = action.group.elements
    n = len(els)
    carrier = m.carrier
    nsum = len(carrier.summands)
    alpha = {}
    for i, h in enumerate(els):
        hx = action.functors[h].on_object(carrier)
        raw = []
        for t in range(nsum):
            row = []
            for j in range(nsum):
                row.append(m.action.blocks[t][j * n + i])
            raw.append(tuple(row))
        lam_h = morphism(action.base, hx, carrier, raw)
        try:
            alpha[h] = invert_morphism(lam_h)
        except ValueError:
            raise NonInvertibleComponentError(f"λ_{h} is not invertible")
    z = EquivariantObject(action, carrier, alpha, name=m.name or "dictionary image")
    z.validate().require(LawViolationError, "dictionary to-equivariant")
    return z


def xi_forgetful(action: GroupAction, z: EquivariantObject) -> Morphism:
    """The Maschke section ξ_(X,α) = (1/|G|)·(α_h)_{h∈G}: X → ⊕_h ^hX.

    Raises NotInvertibleError when the characteristic divides |G|; the
    postcondition ε∘ξ = Id is re-verified exactly.
    """
    group = action.group
    base = action.base
    if not int_invertible(base, group.order):
        raise NotInvertibleError(
            f"|G| = {group.order} is not invertible over {base.field.spec_str()}")
    els = group.elements
    n = len(els)
    carrier = z.carrier
    mf = group_monad_functor(action)
    target = mf.on_object(carrier)
    raw = []
    for j in range(len(carrier.summands)):
        for i, h in enumerate(els):
            row = []
            for t in range(len(carrier.summands)):
                row.append(z.alpha[h].blocks[j][t])
            raw.append(tuple(row))
    xi = morphism(base, carrier, target, raw).div_int(n)
    eps = _inverse_action(z, target)
    if eps @ xi != carrier.identity():
        raise LawViolationError("ε∘ξ differs from the identity")
    return xi


def xi_section(eqcat: EquivariantCategory, adj: Adjunction) -> NatTrans:
    """ξ: Id → F∘U on the equivariant presentation, from the Maschke sections."""
    pcat = eqcat.cat
    fu = compose_functors(adj.F, adj.G, name="FU")
    comps = {l: eqcat.to_pres_mor(pcat.obj(l), fu.object_map[l],
                                  xi_forgetful(eqcat.action, eqcat.objects[l]))
             for l in eqcat.labels}
    xi = NatTrans(Functor.identity(pcat), fu, comps, name="ξ")
    validate_section(adj, xi).require(LawViolationError, "Maschke section")
    return xi


def _find_generator(group: FiniteGroup):
    for g in group.elements:
        if group.element_order(g) == group.order:
            return g
    return None


def _rational_points(eqs, syms) -> list[dict] | None:
    """The rational solutions of a polynomial system over Q, back-substituted
    through a lex Gröbner basis from the last unknown on.  None when a branch
    leaves an unknown free: the system then has a positive-dimensional family
    of solutions, and an isolated point lying over its projection is missed."""
    import sympy
    basis = sympy.groebner(eqs, *syms, order="lex").exprs
    points = [{}]
    for k in reversed(range(len(syms))):
        grown = []
        for point in points:
            roots = None
            for g in basis:
                g = sympy.expand(g.subs(point)) if g.free_symbols <= set(syms[k:]) else 0
                if g != 0:
                    found = set(sympy.Poly(g, syms[k]).ground_roots())
                    roots = found if roots is None else roots & found
            if roots is None:
                return None
            grown.extend({**point, syms[k]: r} for r in roots)
        points = grown
    return points


def character_modules(action: GroupAction, monad: Monad | None = None) -> list:
    """All modules carried by a single action-fixed base object, for cyclic G over Q.

    Solves the polynomial closure condition t·^g(t)·…·^{g^{n-1}}(t) = Id for
    λ_g = t exactly, keeping rational solutions; each returned module is
    validated.
    """
    from .modules import MModule, validate_module
    base = action.base
    if not base.field.is_rational:
        raise ValueError("character enumeration is implemented over the rationals")
    group = action.group
    gen = _find_generator(group)
    if gen is None:
        raise ValueError(f"{group.name} is not cyclic")
    import sympy  # costs about 0.4 s, so only this enumeration pays it
    n = group.order
    if monad is None:
        monad = equivariant_monad(action)
    powers = [group.unit]
    for _ in range(1, n):
        powers.append(group.mult(powers[-1], gen))
    out = []
    for x in base.objects:
        if any(action.on_object_name(h, x) != x for h in group.elements):
            continue
        d = base.hom_dim(x, x)
        syms = list(sympy.symbols(f"c0:{d}"))

        def twist(g, vec, zero):
            """^g(vec): the action of g on the coefficient vector of an endomorphism of x."""
            imgs = [action.functors[g].hom_map[(x, x)][i].blocks[0][0] for i in range(d)]
            out_vec = []
            for c in range(d):
                acc = zero
                for i in range(d):
                    if vec[i] and imgs[i][c]:
                        acc = acc + vec[i] * imgs[i][c]
                out_vec.append(acc)
            return out_vec

        prod = list(syms)
        for k in range(1, n):
            tw = twist(powers[k], syms, sympy.Integer(0))
            prod = base.compose_vec(x, x, x, prod, tw, zero=sympy.Integer(0))
        id_vec = base.id_vec(x)
        eqs = [sympy.expand(prod[c] - sympy.Rational(id_vec[c].numerator, id_vec[c].denominator))
               for c in range(d)]
        points = _rational_points(eqs, syms)
        if points is None:
            points = [p for p in sympy.solve(eqs, syms, dict=True)
                      if all(getattr(p.get(c), "is_rational", False) for c in syms)]
        rational = sorted({tuple(Fraction(int(p[c].p), int(p[c].q)) for c in syms)
                           for p in points})

        for t_val in rational:
            lam_by_elem = {group.unit: list(base.id_vec(x)), gen: list(t_val)}
            for k in range(2, n):
                prev = lam_by_elem[powers[k - 1]]
                lam_by_elem[powers[k]] = base.compose_vec(
                    x, x, x, prev, twist(powers[k - 1], t_val, base.field.zero()))
            row = [tuple(lam_by_elem[h]) for h in group.elements]
            lam = Morphism(base, monad.functor.object_map[x], base.obj(x), (tuple(row),))
            mod = MModule(monad, base.obj(x), lam,
                          name=f"char({x}; {','.join(str(c) for c in t_val)})")
            rep = validate_module(mod)
            if rep.passed:
                out.append(mod)
    return out

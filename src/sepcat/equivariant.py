"""Finite groups acting strictly on a presented category, equivariant objects,
the induction/forgetful adjunction, the group monad, and the Maschke section.

Direct sums over the group use the element order of the group; every
reindexing "identity" is an explicit permutation block matrix.  The finite
equivariant category is materialized as a presentation on a chosen set of
equivariant objects (the free objects on all base objects, plus extras), so
the whole functor/adjunction/monad calculus applies to it verbatim.  Each action
builds its M = UF (`GroupAction.monad_functor`) and its group monad once, and each
equivariant object its counit λ_Z (`EquivariantObject.counit`) once; every builder
shares them.

The adjunction F ⊣ U replaces two solves.  The cocycle law at (g, g⁻¹) gives
^g(α_{g⁻¹})∘α_g = α_e = Id and the inverse law α_g∘^g(α_{g⁻¹}) = Id, so α_g⁻¹ =
^g(α_{g⁻¹}), composed only on an object that has not passed its validation.
Hom(x, UZ) ≅ Hom^G(F x, Z) sends φ to ε_Z∘F(φ) = λ_Z∘M(φ), with the counit λ_Z =
(β_h⁻¹)_h: ⊕_h ^hY → Y at Z = (Y, β).  So a basis of Hom(x, Y) maps to one of
Hom^G(F x, Z), which `monads.free_hom_basis` writes in the reduced echelon form that the
equivariance solve returns; `modules.module_hom_basis` reads its free sources the same way.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property

from .category import (CatObject, LinearCategory, Morphism, MorSystem, compose_slots,
                       direct_sum, hom_space_basis, int_invertible, is_one, invert_morphism,
                       morphism, partwise, slot_map, slot_placement)
from .errors import (LawViolationError, NonInvertibleComponentError,
                     NotInvertibleError, PreconditionError)
from .functors import (Adjunction, Functor, NatTrans, compose_functors,
                       validate_adjunction, validate_functor, validate_nat, validate_section)
from .linalg import coordinate_map
from .monads import Monad, free_hom_basis, validate_monad
from .reports import ValidationReport, checked
from .scalars import rational


class FiniteGroup:
    """A finite group as an ordered element list and a multiplication table."""

    def __init__(self, elements, table: dict, unit=None, name: str = ""):
        self.elements = tuple(elements)
        self.table = dict(table)
        self.name = name
        self.report = None  # the passing `validate` report (`reports.checked`)
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
        self.report = None  # the passing `validate_action` report (`reports.checked`)

    @cached_property
    def monad_functor(self) -> Functor:
        """M: X ↦ ⊕_{h∈G} ^hX, θ ↦ ⊕_h ^hθ, in group-element order, built once."""
        cat, els = self.base, self.group.elements
        object_map = {x: direct_sum([cat.obj(self.on_object_name(h, x)) for h in els])
                      for x in cat.objects}
        hom_map = {}
        for x, y in cat.hom_pairs():
            images = [self.functors[h].hom_map[(x, y)] for h in els]
            hom_map[(x, y)] = tuple(slot_placement(object_map[x], object_map[y], range(len(els)),
                                                   [im[t].blocks[0][0] for im in images])
                                    for t in range(cat.hom_dim(x, y)))
        return Functor(cat, cat, object_map, hom_map, name="M")

    @cached_property
    def group_monad(self) -> Monad:
        """The group monad of this action, built and validated once."""
        return equivariant_monad(self)

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
    rep.merge(checked(a.group, FiniteGroup.validate))
    for g in a.group.elements:
        rep.merge(checked(a.functors[g], validate_functor))
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
    els, fs = a.group.elements, a.functors
    strict = cache(lambda f, g, fg: compose_functors(f, g).equals(fg))  # once per distinct triple
    bad = [f"({g},{h})" for g in els for h in els
           if not strict(fs[g], fs[h], fs[a.group.mult(g, h)])]
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
        self._modules = {}
        self.report = None  # the passing `validate` report (`reports.checked`)
        self.free_on = None  # x, once this is a validated F(x)

    def alpha_inverse(self) -> dict:
        """The inverses (α_g)^{-1} = ^g(α_{g⁻¹}): ^gX → X, built once.

        An object without a passing report composes both sides (module docstring) and
        raises NonInvertibleComponentError, on every call, when one is not the identity.
        """
        if self._alpha_inv is None:
            act, inv = self.action, {}
            for g in act.group.elements:
                a, inv[g] = self.alpha[g], act.functors[g].on_morphism(self.alpha[act.group.inv(g)])
                if self.report is None and (inv[g] @ a != a.dom.identity()
                                            or a @ inv[g] != a.cod.identity()):
                    raise NonInvertibleComponentError(f"α_{g} is not inverted by ^g(α_{{g⁻¹}}): "
                                                      "α_g is singular or the cocycle law fails")
            self._alpha_inv = inv
        return dict(self._alpha_inv)

    @cached_property
    def counit(self) -> Morphism:
        """λ: M(X) = ⊕_h ^hX → X with λ_h = (α_h)^{-1}, in group-element order, built once;
        like `alpha_inverse`, a non-invertible α raises on every call."""
        alpha_inv, act = self.alpha_inverse(), self.action
        nsum = len(self.carrier.summands)
        raw = [tuple(alpha_inv[h].blocks[t][j] for j in range(nsum) for h in act.group.elements)
               for t in range(nsum)]
        return morphism(act.base, act.monad_functor.on_object(self.carrier), self.carrier, raw)

    def validate(self) -> ValidationReport:
        """The components' endpoints, α_e = Id, then the cocycle and inverse laws in one pass
        over `_laws`: on slot maps where `category.slot_map`'s lemma applies at the law's
        place, composed elsewhere, the same verdict either way."""
        rep = ValidationReport(f"equivariant object {self.name}" if self.name else "equivariant object")
        a = self.action
        g0 = a.group.unit
        bad = [g for g in a.group.elements if (m := self.alpha.get(g)) is None
               or m.dom != self.carrier or m.cod != a.functors[g].on_object(self.carrier)]
        if rep.record("components α_g: X → ^gX present", not bad, "; ".join(map(str, bad))):
            rep.record("α_e = Id", self.alpha[g0] == self.carrier.identity())
            rep.record_laws(self._laws(), {
                "cocycle": ("cocycle ^g(α_g')∘α_g = α_gg'", "({},{})".format),
                "inverse": ("α_g invertible", str)})
        return rep

    def _laws(self):
        """The cocycle law ^g(α_g')∘α_g = α_gg' per pair (g, g'), then α_g∘^g(α_{g⁻¹}) = Id
        per g, as (key, place, lhs, rhs).  Where every α_g is an identity placement and every
        Φ_g keeps the identities of the base objects in their objects, a law whose objects
        agree (^g(^g'X) with ^gg'X, ^g(^{g⁻¹}X) with X) compares slot maps, ^g(α_g') taking
        its slot map from `Functor.on_slots` (`category.slot_map`'s lemma)."""
        a, alpha = self.action, self.alpha
        els, fs = a.group.elements, a.functors
        slots = {g: slot_map(alpha[g]) for g in els}
        objects = set(self.carrier.summands).union(*(alpha[g].cod.summands for g in els))
        lemma = None not in slots.values() and all(phi.keeps_identities(objects)
                                                   for phi in set(fs.values()))
        for g in els:
            for g2 in els:
                gg2 = a.group.mult(g, g2)
                if lemma and fs[g].on_object(alpha[g2].cod) == alpha[gg2].cod:
                    yield ("cocycle", (g, g2),
                           compose_slots(fs[g].on_slots(alpha[g2], slots[g2]), slots[g]), slots[gg2])
                else:
                    yield "cocycle", (g, g2), fs[g].on_morphism(alpha[g2]) @ alpha[g], alpha[gg2]
        for g in els:
            gi = a.group.inv(g)
            if lemma and fs[g].on_object(alpha[gi].cod) == self.carrier:
                image = fs[g].on_slots(alpha[gi], slots[gi])
                yield "inverse", (g,), compose_slots(slots[g], image), tuple(range(len(image)))
            else:
                yield "inverse", (g,), alpha[g] @ fs[g].on_morphism(alpha[gi]), alpha[g].cod.identity()

    def __repr__(self):
        return f"<EquivObject {self.name or self.carrier!r}>"


def eq_hom_space(a: EquivariantObject, b: EquivariantObject) -> list[Morphism]:
    """Basis of {θ: X → Y with β_g∘θ = ^gθ∘α_g for all g}, in reduced echelon form: from
    a = F(x) into a b that passes its laws by the adjunction (module docstring), else by one
    solve, as no formula covers other sources, such as workspace extras and characters."""
    if a.action is not b.action:
        raise ValueError("equivariant objects under different actions")
    act = a.action
    if a.free_on is not None and checked(b, EquivariantObject.validate).passed:
        return free_hom_basis(act.monad_functor, a.free_on, b.counit)
    sysm = MorSystem(act.base.field)
    th = sysm.unknown(a.carrier, b.carrier)
    for g in act.group.elements:
        sysm.require_equal(b.alpha[g] @ th,
                           act.functors[g].on_morphism(th) @ a.alpha[g],
                           f"equivariance at {g}")
    return sysm.kernel_basis(th)


def free_equivariant(action: GroupAction, x: CatObject, name: str = "") -> EquivariantObject:
    """F(X) = (⊕_h ^hX, α) with α_g the left-multiplication permutation blocks."""
    if x.idem is not None:
        raise ValueError("free equivariant objects are built on plain carriers")
    group = action.group
    els, n = group.elements, group.order
    carrier = action.monad_functor.on_object(x)
    ids = [action.base.id_vec(s) for s in carrier.summands]
    alpha = {}
    for g in els:
        # the summand ^hX_j at slot (j, h) maps identically to slot (j, g⁻¹h) of ^g(⊕_h ^hX)
        gi = group.inv(g)
        slots = [j * n + group.index(group.mult(gi, h)) for j in range(len(x.summands)) for h in els]
        alpha[g] = slot_placement(carrier, action.functors[g].on_object(carrier), slots, ids)
    z = EquivariantObject(action, carrier, alpha, name=name or f"F({'⊕'.join(x.summands)})")
    checked(z, EquivariantObject.validate).require(LawViolationError, "free equivariant object")
    z.free_on = x  # set only once validation has passed
    return z


def _group_unit(action: GroupAction, m: Functor) -> NatTrans:
    """η: Id → M with η_x = (id, 0, …, 0)^t onto the unit element's summand of M x = ⊕_h ^hx."""
    cat, group = action.base, action.group
    e_idx = group.index(group.unit)
    comps = {x: slot_placement(cat.obj(x), m.object_map[x], (e_idx,), (cat.id_vec(x),))
             for x in cat.objects}
    return NatTrans(Functor.identity(cat), m, comps, name="η")


def equivariant_monad(action: GroupAction) -> Monad:
    """The group monad on the action's M, with unit (Id, 0, …, 0)^t and Kronecker-delta
    multiplication; `GroupAction.group_monad` keeps one."""
    cat, group, mf = action.base, action.group, action.monad_functor
    els, mult_comps = group.elements, {}
    for x in cat.objects:
        mx = mf.object_map[x]
        m2x = mf.on_object(mx)
        # slot (j, i) of M²x = ⊕_j ⊕_i ^{h_i}(^{h_j}x) goes identically to slot h_i·h_j of Mx
        slots = [group.index(group.mult(hi, hj)) for hj in els for hi in els]
        mult_comps[x] = slot_placement(m2x, mx, slots, [cat.id_vec(s) for s in m2x.summands])
    m2 = compose_functors(mf, mf, name="M²")
    monad = Monad(mf, _group_unit(action, mf), NatTrans(m2, mf, mult_comps, name="μ"),
                  name=f"group monad {action.name}")
    checked(monad, validate_monad).require(LawViolationError, "group monad")
    return monad


class EquivariantCategory:
    """A presentation of the full subcategory on finitely many equivariant objects."""

    def __init__(self, action: GroupAction, labels, objects: dict, bases: dict,
                 coords: dict, cat: LinearCategory):
        self.action = action
        self.labels = tuple(labels)
        self.objects = objects
        self.bases = bases
        self.coords = coords
        self.cat = cat

    def free_label(self, x) -> str:
        return f"F({x})"

    def to_pres_mor(self, p_dom: CatObject, p_cod: CatObject, f: Morphism) -> Morphism:
        """Express a base-closure morphism between realizations as a presentation morphism."""
        return partwise(f, [self.objects[l].carrier for l in p_dom.summands],
                        [self.objects[l].carrier for l in p_cod.summands], p_dom, p_cod,
                        lambda lj, li, coords: self.coords[(lj, li)](coords))

    def __repr__(self):
        return f"<EquivariantCategory {self.cat.name}: {len(self.labels)} objects>"


def equivariant_category(action: GroupAction, extra: dict | None = None,
                         name: str = "") -> EquivariantCategory:
    """Present the full subcategory on the free objects plus the given extras."""
    base = action.base
    extra = dict(extra or {})
    objects = {f"F({x})": free_equivariant(action, base.obj(x)) for x in base.objects}
    for label, z in extra.items():
        if label in objects:
            raise ValueError(f"duplicate equivariant object label {label!r}")
        checked(z, EquivariantObject.validate).require(PreconditionError,
                                                      f"equivariant object {label}")
        objects[label] = z
    labels = list(objects)
    bases = {}
    for l1 in labels:
        for l2 in labels:
            bases[(l1, l2)] = eq_hom_space(objects[l1], objects[l2])
    coords = {key: coordinate_map([b.coords() for b in basis], base.field)
              for key, basis in bases.items()}
    dims = {(l1, l2): len(bases[(l1, l2)]) for l1 in labels for l2 in labels}
    # a basis morphism's slot map where the table may read entries off it (`slot_map`'s lemma)
    slots = {key: [slot_map(b) if base._prod is not None
                   and all(is_one(c, base.one) for c in b.coords() if c) else None for b in basis]
             for key, basis in bases.items()}
    entries = {key: {s: tuple(coords[key](b.coords())) for b, s in zip(basis, slots[key])
                     if s is not None} for key, basis in bases.items()}
    comp = {}
    for l1 in labels:
        for l2 in labels:
            if not dims[(l1, l2)]:
                continue
            for l3 in labels:
                if not dims[(l2, l3)] or not dims[(l1, l3)]:
                    continue
                table, found = [], entries[(l1, l3)]
                for v, sv in zip(bases[(l2, l3)], slots[(l2, l3)]):
                    row = []
                    for u, su in zip(bases[(l1, l2)], slots[(l1, l2)]):
                        entry = None if sv is None or su is None else found.get(compose_slots(sv, su))
                        if entry is None:  # not a basis placement: compose and solve
                            entry = tuple(coords[(l1, l3)]((v @ u).coords()))
                        row.append(entry)
                    table.append(tuple(row))
                comp[(l1, l2, l3)] = tuple(table)
    idents = {l: tuple(coords[(l, l)](objects[l].carrier.identity().coords())) for l in labels}
    cat = LinearCategory(base.field, labels, dims, comp, idents,
                         name=name or f"({base.name})^{action.group.name}")
    from .category import validate_presentation
    validate_presentation(cat).require(LawViolationError, "equivariant category presentation")
    return EquivariantCategory(action, labels, objects, bases, coords, cat)


def induce_adjunction(eqcat: EquivariantCategory) -> Adjunction:
    """The induction/forgetful adjoint pair (F, U; η, ε) with its explicit formulas."""
    action = eqcat.action
    base = action.base
    pcat = eqcat.cat

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
            Morphism(pcat, f_object_map[x], f_object_map[y], ((tuple(coords(m.coords())),),))
            for m in action.monad_functor.hom_map[(x, y)])
    induction = Functor(base, pcat, f_object_map, f_hom_map, name="F")

    unit = _group_unit(action, compose_functors(forgetful, induction, name="UF"))

    fu = compose_functors(induction, forgetful, name="FU")
    eps_comps = {}
    for l in eqcat.labels:
        eps_comps[l] = eqcat.to_pres_mor(fu.object_map[l], pcat.obj(l), eqcat.objects[l].counit)
    counit = NatTrans(fu, Functor.identity(pcat), eps_comps, name="ε")

    adj = Adjunction(induction, forgetful, unit, counit,
                     name=f"(F, U) for {action.name}")
    rep = ValidationReport("induced adjunction")
    for s, validate in ((induction, validate_functor), (forgetful, validate_functor),
                        (unit, validate_nat), (counit, validate_nat), (adj, validate_adjunction)):
        rep.merge(checked(s, validate))
    rep.require(LawViolationError, "induced adjunction")
    forgetful.adjunction = adj  # set only once every check above has passed
    return adj


def to_module(z: EquivariantObject, monad: Monad | None = None):
    """The dictionary (X, α) ↦ (X, λ) with λ_h = (α_h)^{-1} = ^h(α_{h⁻¹}), over the
    action's group monad by default, with λ = `z.counit`.  The validated module is built
    once per monad and kept on z, like `alpha_inverse`; a failure is raised again on every
    call."""
    from .modules import MModule, validate_module
    if monad is None:
        monad = z.action.group_monad
    mod = z._modules.get(monad)
    if mod is None:
        mod = MModule(monad, z.carrier, z.counit, name=z.name or "dictionary image")
        checked(mod, validate_module).require(LawViolationError, "dictionary to-module")
        z._modules[monad] = mod
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
    checked(z, EquivariantObject.validate).require(LawViolationError, "dictionary to-equivariant")
    return z


def xi_forgetful(z: EquivariantObject) -> Morphism:
    """The Maschke section ξ_(X,α) = (1/|G|)·(α_h)_{h∈G}: X → ⊕_h ^hX.

    Raises NotInvertibleError when the characteristic divides |G|; the
    postcondition ε∘ξ = Id is re-verified exactly.
    """
    action = z.action
    group = action.group
    base = action.base
    if not int_invertible(base, group.order):
        raise NotInvertibleError(
            f"|G| = {group.order} is not invertible over {base.field.spec_str()}")
    els = group.elements
    n = len(els)
    carrier = z.carrier
    target = action.monad_functor.on_object(carrier)
    raw = [z.alpha[h].blocks[j] for j in range(len(carrier.summands)) for h in els]  # row (j, h)
    xi = morphism(base, carrier, target, raw).div_int(n)
    if z.counit @ xi != carrier.identity():
        raise LawViolationError("ε∘ξ differs from the identity")
    return xi


def xi_section(eqcat: EquivariantCategory, adj: Adjunction) -> NatTrans:
    """ξ: Id → F∘U on the equivariant presentation, from the Maschke sections."""
    pcat = eqcat.cat
    fu = compose_functors(adj.F, adj.G, name="FU")
    comps = {l: eqcat.to_pres_mor(pcat.obj(l), fu.object_map[l],
                                  xi_forgetful(eqcat.objects[l]))
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


def _rational_roots(a, n: int) -> list:
    """The rationals r with r**n == a, sorted: ± the integer n-th roots (floors, by integer
    Newton steps) of a's numerator and denominator, each kept only if r**n == a exactly."""
    a, floors = Fraction(a), []
    for m in (abs(a.numerator), a.denominator):
        r = 1 << -(-m.bit_length() // n)
        while r and (step := ((n - 1) * r + m // r ** (n - 1)) // n) < r:
            r = step
        floors.append(r)
    r = rational(*floors)
    return sorted({c for c in (r, -r) if c ** n == a})


def character_modules(action: GroupAction, monad: Monad | None = None) -> list:
    """The modules on single action-fixed base objects, for cyclic G over Q: one per
    rational point that the enumeration finds of the closure condition
    t·^g(t)·…·^{g^{n-1}}(t) = Id for λ_g = t.  A positive-dimensional family of
    solutions is not enumerated: for Z/2 acting on Q(ω) by w ↦ −1 − w the condition
    is a conic, and none of its points (λ_g = ±1 among them) is returned.  Each
    returned module is validated, over the action's group monad unless another is
    given.  For dim End(x) = 1 the condition is K·t^n = c (K: the product at t = 1,
    c: Id's coordinate), solved by exact n-th roots; else by sympy, imported only
    then (about 0.4 s).
    """
    from .modules import MModule, validate_module
    base = action.base
    if not base.field.is_rational:
        raise ValueError("character enumeration is implemented over the rationals")
    group = action.group
    gen = _find_generator(group)
    if gen is None:
        raise ValueError(f"{group.name} is not cyclic")
    n = group.order
    if monad is None:
        monad = action.group_monad
    powers = [group.unit]
    for _ in range(1, n):
        powers.append(group.mult(powers[-1], gen))
    out = []
    for x in base.objects:
        if any(action.on_object_name(h, x) != x for h in group.elements):
            continue
        d = base.hom_dim(x, x)
        if d == 1:
            t = [base.field.one()]
        else:
            import sympy
            t = list(sympy.symbols(f"c0:{d}"))
        prod = list(t)
        for k in range(1, n):  # ^g(t) is g's action on t's coefficient vector
            prod = base.compose_vec(x, x, x, prod,
                                    action.functors[powers[k]].on_hom_vec(x, x, t).blocks[0][0])
        id_vec = base.id_vec(x)
        if d == 1:
            scale = prod[0]
            roots = [(r,) for r in _rational_roots(Fraction(id_vec[0]) / scale, n)] if scale else []
        else:
            eqs = [sympy.expand(prod[c] - sympy.Rational(id_vec[c].numerator,
                                                         id_vec[c].denominator))
                   for c in range(d)]
            points = _rational_points(eqs, t)
            if points is None:
                points = [p for p in sympy.solve(eqs, t, dict=True)
                          if all(getattr(p.get(c), "is_rational", False) for c in t)]
            roots = sorted({tuple(rational(int(p[c].p), int(p[c].q)) for c in t) for p in points})

        for t_val in roots:
            lam_by_elem = {group.unit: list(base.id_vec(x)), gen: list(t_val)}
            for k in range(2, n):
                prev = lam_by_elem[powers[k - 1]]
                twisted = action.functors[powers[k - 1]].on_hom_vec(x, x, t_val).blocks[0][0]
                lam_by_elem[powers[k]] = base.compose_vec(x, x, x, prev, twisted)
            row = [tuple(lam_by_elem[h]) for h in group.elements]
            lam = Morphism(base, monad.functor.object_map[x], base.obj(x), (tuple(row),))
            mod = MModule(monad, base.obj(x), lam,
                          name=f"char({x}; {','.join(str(c) for c in t_val)})")
            if checked(mod, validate_module).passed:
                out.append(mod)
    return out

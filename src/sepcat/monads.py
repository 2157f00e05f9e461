"""Monads with verified laws and separable-monad sections found by exact feasibility.

The monad laws are written once, in `_monad_laws`, which `validate_monad` and
`LiftedMonad.validate_on` read in one pass; at a base object where `category.slot_map`'s
lemma applies, they compare slot maps instead of composites.  A section σ: M → M² has its
naturality on σ's own `validate_nat` report, and the laws of `MonadSepWitness._laws`, which
`MonadSepWitness.verify` checks in one pass after it.  With e = σ∘η, the bimodule
law Mμ∘σM = σ∘μ = μM∘Mσ is stated restricted along the units: Mμ_x∘e_{Mx} = σ_x
(left, at η_{Mx}) and σ_x = μ_{Mx}∘M(e_x) (right, at M(η_x)).  For a natural σ,
associativity and naturality of e at μ_x, resp. of μ at e_x, give it back:
    Mμ∘σM = Mμ∘MμM∘eM² = Mμ∘M²μ∘eM² = Mμ∘eM∘μ = σ∘μ,
    μM∘Mσ = μM∘MμM∘M²e = μM∘μM²∘M²e = μM∘Me∘μ = σ∘μ.

`monad_separability_solve` solves for the separability idempotent e: Id → M²
(DeMeyer–Ingraham) instead: e natural, μ∘e = η, Mμ∘eM = μM∘Me; |G|² unknowns
per object of a group monad on the point, where σ has |G|³.  By the lines above
and μM∘Me∘η = μM∘ηM²∘e = e, σ ↦ σ∘η and e ↦ μM∘Me are inverse linear bijections of
the solution sets and of the homogeneous ones, and `linalg.transfer` maps across.  When
no e exists, the σ system's first contradiction is a right row: σ = ηM satisfies every
other row, and `_laws` lists every object's section and left rows before any right row.
"""

from __future__ import annotations

from functools import cached_property

from .category import (CatObject, Morphism, MorSystem, compose_slots, hom_coord_dim,
                       hom_space_basis, slot_map, slot_placement)
from .errors import LawViolationError, PreconditionError
from .functors import (Adjunction, Functor, NatTrans, compose_functors, naturality_laws,
                       validate_nat, validate_section)
from .linalg import reduced_form, transfer
from .reports import ValidationReport, checked


class Monad:
    """An endofunctor with unit and multiplication subject to the monad laws."""

    def __init__(self, functor: Functor, unit: NatTrans, mult: NatTrans, name: str = ""):
        if functor.source is not functor.target:
            raise ValueError("a monad needs an endofunctor")
        self.functor = functor
        self.unit = unit
        self.mult = mult
        self.name = name
        self.report = None  # the passing `validate_monad` report (`reports.checked`)

    @property
    def cat(self):
        return self.functor.source

    @cached_property
    def squared(self) -> Functor:
        return compose_functors(self.functor, self.functor, name=f"{self.functor.name}²")

    @cached_property
    def mult_images(self) -> dict:
        """M(μ_x): M³x → M²x per base object x, built once.  Where μ_x is an identity
        placement and M keeps the identities of its summands, M(μ_x) is the identity
        placement with slot map `Functor.on_slots` (`category.slot_map`'s lemma), each
        block the diagonal block of M(id_s) that `Functor.on_morphism` would place there;
        any other μ_x goes through `on_morphism`."""
        mf, out = self.functor, {}
        for x, mu in self.mult.components.items():
            a, summands = slot_map(mu), {*mu.dom.summands, *mu.cod.summands}
            if a is None or not mf.keeps_identities(summands):
                out[x] = mf.on_morphism(mu)
                continue
            ids = {s: mf.on_hom_vec(s, s, self.cat.id_vec(s)).blocks for s in summands}
            diag = [ids[s][t][t] for s in mu.dom.summands for t in range(len(ids[s]))]
            out[x] = slot_placement(mf.on_object(mu.dom), mf.on_object(mu.cod),
                                    mf.on_slots(mu, a), diag)
        return out

    @staticmethod
    def identity_monad(cat, name: str = "Id") -> "Monad":
        idf = Functor.identity(cat)
        comps = {x: cat.obj(x).identity() for x in cat.objects}
        return Monad(idf, NatTrans(idf, idf, comps, name="η"),
                     NatTrans(compose_functors(idf, idf), idf, comps, name="μ"),
                     name=name)

    def components_equal(self, other: "Monad") -> bool:
        """Componentwise equality of (M, η, μ) data."""
        return (self.functor.equals(other.functor)
                and self.unit.components == other.unit.components
                and self.mult.components == other.mult.components)

    def __repr__(self):
        return f"<Monad {self.name or self.functor.name or 'M'}>"


def validate_monad(m: Monad) -> ValidationReport:
    """Associativity and both unit laws, exactly at every base object, in one pass over
    `_monad_laws`: on slot maps where `category.slot_map`'s lemma applies at the object,
    composed elsewhere, the same verdict either way."""
    rep = ValidationReport(f"monad {m.name}" if m.name else "monad")
    if rep.record("unit/mult components have the right endpoints",
                  all(_fits(m, x) for x in m.cat.objects)):
        rep.record_laws(_monad_laws(m), {
            "associativity": ("associativity μ∘Mμ = μ∘μM", str),
            "left unit": ("unit laws μ∘Mη = Id = μ∘ηM", "μ∘Mη at {}".format),
            "right unit": ("unit laws μ∘Mη = Id = μ∘ηM", "μ∘ηM at {}".format)})
    return rep


def _fits(m: Monad, x) -> bool:
    """Whether η_x: x → Mx and μ_x: M²x → Mx are given with these endpoints."""
    mx, eta, mu = m.functor.object_map[x], m.unit.components.get(x), m.mult.components.get(x)
    return (eta is not None and mu is not None and eta.dom == m.cat.obj(x) and eta.cod == mx
            and mu.dom == m.functor.on_object(mx) and mu.cod == mx)


def _monad_laws(m: Monad, places=None):
    """Associativity, then the left and right unit law, at each place, as (key, (place,),
    lhs, rhs): at every base object, named, or at each of the given closure objects.

    At a base object x where M keeps identities, η_x and μ_x fit and are identity placements,
    and the objects that the laws compose and compare agree, each side is a slot map
    (`category.slot_map`'s lemma): M(μ_x) and M(η_x) from `Functor.on_slots`, μ_{Mx} and
    η_{Mx} from `NatTrans.at_slots`.  Elsewhere each side is composed, M(μ_x) at a base
    object being the cached `Monad.mult_images`.
    """
    mf, cat = m.functor, m.cat
    keeps = mf.keeps_identities(cat.objects)
    for place in cat.objects if places is None else places:
        t = cat.obj(place) if places is None else place
        x = t.summands[0] if t.idem is None and len(t.summands) == 1 else None
        sides = keeps and x is not None and _slot_sides(m, x)
        if not sides:
            mu, mt = m.mult.at(t), mf.on_object(t)
            m_mu = mf.on_morphism(mu) if x is None else m.mult_images[x]
            sides = ((mu @ m_mu, mu @ m.mult.at(mt)),
                     (mu @ mf.on_morphism(m.unit.at(t)), mt.identity()),
                     (mu @ m.unit.at(mt), mt.identity()))
        for key, (lhs, rhs) in zip(("associativity", "left unit", "right unit"), sides):
            yield key, (place,), lhs, rhs


def _slot_sides(m: Monad, x):
    """The sides of `_monad_laws` at the base object x as slot maps, or None where the lemma
    does not apply there; M must keep identities."""
    if not _fits(m, x):
        return None
    mf, eta, mu = m.functor, m.unit.components[x], m.mult.components[x]
    mx = mf.object_map[x]
    e, u, at_mu, at_eta = slot_map(eta), slot_map(mu), m.mult.at_slots(mx), m.unit.at_slots(mx)
    if None in (e, u, at_mu, at_eta):
        return None
    (m3x, cod_mu, mu_m), (dom_eta, cod_eta, eta_m) = at_mu, at_eta
    if cod_mu != mu.dom or cod_eta != mu.dom or m3x != mf.on_object(mu.dom) or dom_eta != mx:
        return None
    ident = tuple(range(len(mx.summands)))
    return ((compose_slots(u, mf.on_slots(mu, u)), compose_slots(u, mu_m)),
            (compose_slots(u, mf.on_slots(eta, e)), ident), (compose_slots(u, eta_m), ident))


def free_hom_basis(mf: Functor, x: CatObject, action: Morphism) -> list[Morphism]:
    """The maps λ∘M(φ): M(x) → B, φ over `hom_space_basis(x, B)`, for an action λ: M(B) → B, in
    the reduced echelon form of `linalg.reduced_form`.  Out of the free module (M(x), μ_x) into
    a module (B, λ) they are a basis of the module maps (`modules` docstring), and out of a
    free equivariant object F(x) into Z = (B, β), with λ = λ_Z, of the equivariant maps
    (`equivariant` docstring)."""
    cat, b = mf.source, action.cod
    src = mf.on_object(x)
    images = [(action @ mf.on_morphism(phi)).coords() for phi in hom_space_basis(cat, x, b)]
    zero = [cat.field.zero()] * hom_coord_dim(cat, src, b)
    return [Morphism.from_coords(cat, src, b, k) for k in reduced_form(zero, images, cat.field).kernel]


def monad_from_adjunction(adj: Adjunction, name: str = "") -> Monad:
    """The monad (G F, η, G ε F) defined by an adjoint pair."""
    mf = compose_functors(adj.G, adj.F, name=name or "GF")
    unit = NatTrans(Functor.identity(mf.source), mf, dict(adj.unit.components), name="η")
    mu_comps = {x: adj.G.on_morphism(adj.counit.at(adj.F.object_map[x])) for x in mf.source.objects}
    mult = NatTrans(compose_functors(mf, mf), mf, mu_comps, name="μ")
    m = Monad(mf, unit, mult, name=name)
    checked(m, validate_monad).require(LawViolationError, "monad defined by adjunction")
    return m


class MonadSepWitness:
    """A natural section σ: M → M² of μ satisfying the bimodule compatibilities."""

    def __init__(self, monad: Monad, sigma: NatTrans):
        self.monad = monad
        self.sigma = sigma

    def _laws(self):
        """The laws of σ beside naturality, as (label, place, lhs, rhs): per base object
        μ∘σ = Id_M and Mμ_x∘e_{Mx} = σ_x with e = σ∘η, then per base object
        σ_x = μ_{Mx}∘M(e_x)."""
        m, sigma = self.monad, self.sigma
        mf = m.functor
        e = NatTrans(m.unit.src, m.squared,
                     {x: sigma.components[x] @ m.unit.components[x] for x in m.cat.objects})
        for x in m.cat.objects:
            mx = mf.object_map[x]
            yield "section law", (x,), m.mult.components[x] @ sigma.components[x], mx.identity()
            yield "bimodule left", (x,), m.mult_images[x] @ e.at(mx), sigma.components[x]
        for x in m.cat.objects:
            yield ("bimodule right", (x,), sigma.components[x],
                   m.mult.at(mf.object_map[x]) @ mf.on_morphism(e.components[x]))

    def verify(self) -> ValidationReport:
        """σ's own naturality report (`reports.checked`), then, when σ's components fit, the
        laws of `_laws` in one pass."""
        rep, nat = ValidationReport("monad separability witness"), checked(self.sigma, validate_nat)
        rep.merge(nat)
        if nat.checks[0][1]:  # parallel functors and fitting components come first
            rep.record_laws(self._laws(), _SIGMA_CHECKS)
        return rep

    def __repr__(self):
        return f"<MonadSepWitness for {self.monad!r}>"


_BIMODULE = "bimodule law Mμ∘σM = σ∘μ = μM∘Mσ"
_SIGMA_CHECKS = {"section law": ("section law μ∘σ = Id_M", str),
                 "bimodule left": (_BIMODULE, "Mμ∘σM ≠ σ∘μ at {}".format),
                 "bimodule right": (_BIMODULE, "σ∘μ ≠ μM∘Mσ at {}".format)}


def monad_separability_solve(m: Monad):
    """Find a section σ = μM∘Me of μ by solving for e = σ∘η; witness or Infeasible.

    Raises PreconditionError when m fails its monad laws.  A monad from a builder
    (`equivariant_monad`, `monad_from_adjunction`, a workspace declaration) carries
    the report that passed, and an unmarked one is validated once (`reports.checked`).
    """
    checked(m, validate_monad).require(PreconditionError, "monad_separability_solve needs a monad")
    cat, mf, m2 = m.cat, m.functor, m.squared
    sysm = MorSystem(cat.field)
    e = NatTrans(m.unit.src, m2, {x: sysm.unknown(cat.obj(x), m2.object_map[x])
                                  for x in cat.objects}, name="e?")
    sysm.impose(naturality_laws(e))
    sysm.impose(("section law", (x,), m.mult.components[x] @ e.components[x],
                 m.unit.components[x]) for x in cat.objects)
    sigma = {x: m.mult.at(mf.object_map[x]) @ mf.on_morphism(ex) for x, ex in e.components.items()}
    sysm.impose(("bimodule", (x,), m.mult_images[x] @ e.at(mf.object_map[x]), sigma[x])
                for x in cat.objects)
    red = transfer(sysm.solve(), [c for s in sigma.values() for c in s.coords()], [],
                   "bimodule right", cat.field)
    if not red.feasible:
        return red
    values = iter(red.particular)
    comps = {x: Morphism.from_coords(cat, s.dom, s.cod, [next(values) for _ in s.coords()])
             for x, s in sigma.items()}
    w = MonadSepWitness(m, NatTrans(mf, m2, comps, name="σ"))
    w.verify().require(LawViolationError, "solver-produced monad witness")
    w.solution = red
    return w


def sigma_from_xi(adj: Adjunction, xi: NatTrans, monad: Monad | None = None) -> MonadSepWitness:
    """σ = G ξ F for a counit section ξ; all witness laws are re-verified."""
    validate_section(adj, xi).require(PreconditionError, "σ = GξF needs a section of ε")
    if monad is None:
        monad = monad_from_adjunction(adj)
    comps = {x: adj.G.on_morphism(xi.at(adj.F.object_map[x])) for x in monad.cat.objects}
    sigma = NatTrans(monad.functor, monad.squared, comps, name="σ")
    w = MonadSepWitness(monad, sigma)
    w.verify().require(LawViolationError, "σ = GξF")
    return w

"""Monads with verified laws and separable-monad sections found by exact feasibility.

The laws of a section σ: M → M² are written once, in `MonadSepWitness._laws`,
which `MonadSepWitness.verify` checks in one pass.  With e = σ∘η, the bimodule
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

from .category import Morphism, MorSystem, compose_slots, slot_map, slot_placement
from .errors import LawViolationError, PreconditionError
from .functors import (Adjunction, Functor, NatTrans, compose_functors, naturality_laws,
                       validate_nat, validate_section)
from .linalg import transfer
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
    """Associativity and both unit laws, exactly at every base object.

    When every η_x and μ_x is an identity placement and M(id_x) = id_{Mx} on base objects,
    the laws are decided on slot maps (`_slot_laws_hold`, by `category.slot_map`'s
    lemma), a pass recording the same checks as the law list; any other monad, and any
    "no", goes through the law list, so a failure reads as it always has.
    """
    rep = ValidationReport(f"monad {m.name}" if m.name else "monad")
    mf = m.functor

    def fits(f, dom, cod):
        return f is not None and f.dom == dom and f.cod == cod

    if rep.record("unit/mult components have the right endpoints", all(
            fits(m.unit.components.get(x), m.cat.obj(x), mf.object_map[x])
            and fits(m.mult.components.get(x), mf.on_object(mf.object_map[x]), mf.object_map[x])
            for x in m.cat.objects)):
        # an empty law list records every check as passed: these names carry no count
        rep.record_laws(() if _slot_laws_hold(m) else _monad_laws(m), {
            "associativity": ("associativity μ∘Mμ = μ∘μM", str),
            "left unit": ("unit laws μ∘Mη = Id = μ∘ηM", "μ∘Mη at {}".format),
            "right unit": ("unit laws μ∘Mη = Id = μ∘ηM", "μ∘ηM at {}".format)})
    return rep


def _slot_laws_hold(m: Monad) -> bool:
    """Whether `_monad_laws` all hold, decided on slot maps (`category.slot_map`'s lemma)
    for components whose endpoints fit; False also where the lemma does not apply.  M(μ_x)
    and M(η_x) take their slot maps from `Functor.on_slots`, μ_{Mx} and η_{Mx} from
    `NatTrans.at_slots`, and the objects the law list composes and compares must agree."""
    mf = m.functor
    if not mf.keeps_identities(m.cat.objects):
        return False
    for x in m.cat.objects:
        mx, eta, mu = mf.object_map[x], m.unit.components[x], m.mult.components[x]
        e, u = slot_map(eta), slot_map(mu)
        at_mu, at_eta = m.mult.at_slots(mx), m.unit.at_slots(mx)
        if None in (e, u, at_mu, at_eta):
            return False
        (m3x, cod_mu, mu_m), (dom_eta, cod_eta, eta_m) = at_mu, at_eta
        ident = tuple(range(len(mx.summands)))
        if (cod_mu != mu.dom or cod_eta != mu.dom or m3x != mf.on_object(mu.dom) or dom_eta != mx
                or compose_slots(u, mf.on_slots(mu, u)) != compose_slots(u, mu_m)
                or compose_slots(u, mf.on_slots(eta, e)) != ident
                or compose_slots(u, eta_m) != ident):
            return False
    return True


def _monad_laws(m: Monad):
    mf = m.functor
    for x in m.cat.objects:
        mx = mf.object_map[x]
        mu_x = m.mult.components[x]
        yield "associativity", (x,), mu_x @ m.mult_images[x], mu_x @ m.mult.at(mx)
        yield "left unit", (x,), mu_x @ mf.on_morphism(m.unit.components[x]), mx.identity()
        yield "right unit", (x,), mu_x @ m.unit.at(mx), mx.identity()


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
        """Every law of σ, as (label, place, lhs, rhs): naturality on basis morphisms,
        per base object μ∘σ = Id_M and Mμ_x∘e_{Mx} = σ_x with e = σ∘η, then per base
        object σ_x = μ_{Mx}∘M(e_x).  σ may have unknown components."""
        m, sigma = self.monad, self.sigma
        mf = m.functor
        yield from naturality_laws(sigma)
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
        """Component endpoints of σ, then, when they fit, every law of `_laws` in one pass."""
        return validate_nat(self.sigma, self._laws(), _SIGMA_CHECKS,
                            into=ValidationReport("monad separability witness"))

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

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
and μM∘Me∘η = μM∘ηM²∘e = e, σ ↦ σ∘η and e ↦ μM∘Me are inverse linear bijections
of the solution sets and of the homogeneous ones, so the σ system has rank
n_σ − n_e + rank_e.  The e solutions are mapped to σ and reduced as eliminating
the σ system would (`reduced_form`).  When no e exists, the σ system's first
contradiction is a right row: σ = ηM satisfies every other row, and `_laws`
lists every object's section and left rows before any right row.
"""

from __future__ import annotations

from functools import cached_property

from .category import Morphism, MorSystem
from .errors import LawViolationError, PreconditionError
from .functors import (Adjunction, Functor, NatTrans, compose_functors, naturality_laws,
                       validate_nat, validate_section)
from .linalg import Infeasible, reduced_form
from .reports import ValidationReport


class Monad:
    """An endofunctor with unit and multiplication subject to the monad laws."""

    def __init__(self, functor: Functor, unit: NatTrans, mult: NatTrans, name: str = ""):
        if functor.source is not functor.target:
            raise ValueError("a monad needs an endofunctor")
        self.functor = functor
        self.unit = unit
        self.mult = mult
        self.name = name
        self._squared = None

    @property
    def cat(self):
        return self.functor.source

    def squared(self) -> Functor:
        if self._squared is None:
            self._squared = compose_functors(self.functor, self.functor,
                                             name=f"{self.functor.name}²")
        return self._squared

    @cached_property
    def mult_images(self) -> dict:
        """M(μ_x): M³x → M²x per base object x, built once."""
        return {x: self.functor.on_morphism(mu) for x, mu in self.mult.components.items()}

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
    """Associativity and both unit laws, exactly at every base object."""
    rep = ValidationReport(f"monad {m.name}" if m.name else "monad")
    mf = m.functor

    def fits(f, dom, cod):
        return f is not None and f.dom == dom and f.cod == cod

    if rep.record("unit/mult components have the right endpoints", all(
            fits(m.unit.components.get(x), m.cat.obj(x), mf.object_map[x])
            and fits(m.mult.components.get(x), mf.on_object(mf.object_map[x]), mf.object_map[x])
            for x in m.cat.objects)):
        rep.record_laws(_monad_laws(m), {
            "associativity": ("associativity μ∘Mμ = μ∘μM", str),
            "left unit": ("unit laws μ∘Mη = Id = μ∘ηM", "μ∘Mη at {}".format),
            "right unit": ("unit laws μ∘Mη = Id = μ∘ηM", "μ∘ηM at {}".format)})
    return rep


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
    validate_monad(m).require(LawViolationError, "monad defined by adjunction")
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
        e = NatTrans(m.unit.src, m.squared(),
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

    The monad must come from a validated builder (`equivariant_monad`,
    `monad_from_adjunction` or a workspace declaration): its laws are not
    re-checked here, and on a non-monad an "infeasible" verdict means nothing.
    """
    cat, mf, m2 = m.cat, m.functor, m.squared()
    sysm = MorSystem(cat.field)
    e = NatTrans(m.unit.src, m2, {x: sysm.unknown(cat.obj(x), m2.object_map[x])
                                  for x in cat.objects}, name="e?")
    sysm.impose(naturality_laws(e))
    sysm.impose(("section law", (x,), m.mult.components[x] @ e.components[x],
                 m.unit.components[x]) for x in cat.objects)
    sigma = {x: m.mult.at(mf.object_map[x]) @ mf.on_morphism(ex) for x, ex in e.components.items()}
    sysm.impose(("bimodule", (x,), m.mult_images[x] @ e.at(mf.object_map[x]), sigma[x])
                for x in cat.objects)
    sol = sysm.solve()
    n_sigma = sum(len(s.coords()) for s in sigma.values())
    if not sol.feasible:
        rank = n_sigma - sysm.n + sol.rank
        return Infeasible(rank, rank + 1, n_sigma, sol.n_rows, "bimodule right")
    flat = [[c for s in sigma.values() for c in MorSystem.eval_at(s, v, const).coords()]
            for v, const in [(sol.particular, True), *((k, False) for k in sol.kernel)]]
    red = reduced_form(flat[0], flat[1:], cat.field)
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
    sigma = NatTrans(monad.functor, monad.squared(), comps, name="σ")
    w = MonadSepWitness(monad, sigma)
    w.verify().require(LawViolationError, "σ = GξF")
    return w

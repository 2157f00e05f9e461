"""Monads with verified laws and separable-monad sections found by exact feasibility.

The laws of a section σ: M → M² are written once, in `MonadSepWitness._laws`:
`monad_separability_solve` imposes them on unknown components, and
`MonadSepWitness.verify` re-checks a witness against them in one pass.

The bimodule law Mμ∘σM = σ∘μ = μM∘Mσ is imposed restricted along the units,
with e = σ∘η: Id → M² (the separability idempotent σ(1)): Mμ_x∘e_{Mx} = σ_x is
the left equation at η_{Mx}, σ_x = μ_{Mx}∘M(e_x) the right one at M(η_x), so
each restricted row is a full row composed with a fixed morphism.  Conversely,
for a natural σ (checked beside them), associativity with naturality of e at
μ_x, resp. of μ at e_x, gives the full law back:
    Mμ∘σM = Mμ∘MμM∘eM² = Mμ∘M²μ∘eM² = Mμ∘eM∘μ = σ∘μ,
    μM∘Mσ = μM∘MμM∘M²e = μM∘μM²∘M²e = μM∘Me∘μ = σ∘μ.
Both systems have the same row space of [A | b]; over a group monad the
bimodule rows are |G| times fewer.
"""

from __future__ import annotations

from .category import MorSystem
from .errors import LawViolationError, PreconditionError
from .functors import (Adjunction, Functor, NatTrans, compose_functors, naturality_laws,
                       validate_nat, validate_section)
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
        yield "associativity", (x,), mu_x @ mf.on_morphism(mu_x), mu_x @ m.mult.at(mx)
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
        then per base object μ∘σ = Id_M and, with e = σ∘η, the bimodule law as
        Mμ_x∘e_{Mx} = σ_x and σ_x = μ_{Mx}∘M(e_x).  σ may have unknown components."""
        m, sigma = self.monad, self.sigma
        mf = m.functor
        yield from naturality_laws(sigma)
        e = NatTrans(m.unit.src, m.squared(),
                     {x: sigma.components[x] @ m.unit.components[x] for x in m.cat.objects})
        for x in m.cat.objects:
            mx = mf.object_map[x]
            sig_x = sigma.components[x]
            mu_x = m.mult.components[x]
            yield "section law", (x,), mu_x @ sig_x, mx.identity()
            yield "bimodule left", (x,), mf.on_morphism(mu_x) @ e.at(mx), sig_x
            yield "bimodule right", (x,), sig_x, m.mult.at(mx) @ mf.on_morphism(e.components[x])

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
    """Find a section σ of μ by exact affine feasibility; witness or Infeasible.

    The monad must come from a validated builder (`equivariant_monad`,
    `monad_from_adjunction` or a workspace declaration): its laws are not
    re-checked here, and on a non-monad an "infeasible" verdict means nothing.
    """
    cat = m.cat
    mf = m.functor
    m2 = m.squared()
    sysm = MorSystem(cat.field)
    unknowns = {x: sysm.unknown(mf.object_map[x], m2.object_map[x]) for x in cat.objects}
    sysm.impose(MonadSepWitness(m, NatTrans(mf, m2, unknowns, name="σ?"))._laws())
    sol = sysm.solve()
    if not sol.feasible:
        return sol
    comps = {x: MorSystem.eval_at(unknowns[x], sol.particular) for x in cat.objects}
    w = MonadSepWitness(m, NatTrans(mf, m2, comps, name="σ"))
    w.verify().require(LawViolationError, "solver-produced monad witness")
    w.solution = sol
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

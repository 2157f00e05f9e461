"""Monads with verified laws and separable-monad sections found by exact feasibility."""

from __future__ import annotations

from .category import MorSystem
from .errors import LawViolationError, PreconditionError
from .functors import (Adjunction, Functor, NatTrans, compose_functors,
                       validate_nat)
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
    cat = m.cat
    shape_ok = True
    for x in cat.objects:
        mx = mf.object_map[x]
        eta = m.unit.components.get(x)
        mu = m.mult.components.get(x)
        if eta is None or eta.dom != cat.obj(x) or eta.cod != mx:
            shape_ok = False
        if mu is None or mu.dom != mf.on_object(mx) or mu.cod != mx:
            shape_ok = False
    rep.record("unit/mult components have the right endpoints", shape_ok)
    if not shape_ok:
        return rep
    assoc_bad, unit_bad = [], []
    for x in cat.objects:
        mx = mf.object_map[x]
        mu_x = m.mult.components[x]
        lhs = mu_x @ mf.on_morphism(mu_x)
        rhs = mu_x @ m.mult.at(mx)
        if lhs != rhs:
            assoc_bad.append(x)
        left_unit = mu_x @ mf.on_morphism(m.unit.components[x])
        right_unit = mu_x @ m.unit.at(mx)
        if left_unit != mx.identity():
            unit_bad.append(f"μ∘Mη at {x}")
        if right_unit != mx.identity():
            unit_bad.append(f"μ∘ηM at {x}")
    rep.record("associativity μ∘Mμ = μ∘μM", not assoc_bad, "; ".join(map(str, assoc_bad)))
    rep.record("unit laws μ∘Mη = Id = μ∘ηM", not unit_bad, "; ".join(unit_bad))
    return rep


def monad_from_adjunction(adj: Adjunction, name: str = "") -> Monad:
    """The monad (G F, η, G ε F) defined by an adjoint pair."""
    mf = compose_functors(adj.G, adj.F, name=name or "GF")
    unit = NatTrans(Functor.identity(mf.source), mf, dict(adj.unit.components), name="η")
    mu_comps = {}
    for x in mf.source.objects:
        fx = adj.F.object_map[x]
        mu_comps[x] = adj.G.on_morphism(adj.counit.at(fx))
    mult = NatTrans(compose_functors(mf, mf), mf, mu_comps, name="μ")
    m = Monad(mf, unit, mult, name=name)
    validate_monad(m).require(LawViolationError, "monad defined by adjunction")
    return m


class MonadSepWitness:
    """A natural section σ: M → M² of μ satisfying the bimodule compatibilities."""

    def __init__(self, monad: Monad, sigma: NatTrans):
        self.monad = monad
        self.sigma = sigma

    def verify(self) -> ValidationReport:
        m = self.monad
        cat = m.cat
        mf = m.functor
        rep = ValidationReport("monad separability witness")
        rep.merge(validate_nat(self.sigma))
        sec_bad, bim_bad = [], []
        for x in cat.objects:
            mx = mf.object_map[x]
            sig_x = self.sigma.components[x]
            mu_x = m.mult.components[x]
            if mu_x @ sig_x != mx.identity():
                sec_bad.append(x)
            left = mf.on_morphism(mu_x) @ self.sigma.at(mx)
            mid = sig_x @ mu_x
            right = m.mult.at(mx) @ mf.on_morphism(sig_x)
            if left != mid:
                bim_bad.append(f"Mμ∘σM ≠ σ∘μ at {x}")
            if mid != right:
                bim_bad.append(f"σ∘μ ≠ μM∘Mσ at {x}")
        rep.record("section law μ∘σ = Id_M", not sec_bad, "; ".join(map(str, sec_bad)))
        rep.record("bimodule law Mμ∘σM = σ∘μ = μM∘Mσ", not bim_bad, "; ".join(bim_bad))
        return rep

    def __repr__(self):
        return f"<MonadSepWitness for {self.monad!r}>"


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
    # naturality of σ on basis morphisms
    for (x, y), mors in sorted(mf.hom_map.items()):
        for i in range(len(mors)):
            m2_f = m2.hom_map[(x, y)][i]
            sysm.require_equal(m2_f @ unknowns[x], unknowns[y] @ mors[i], "naturality")
    # σ laws; the whiskered components extend the unknowns additively
    sigma_forms = NatTrans(mf, m2, unknowns, name="σ?")
    for x in cat.objects:
        mx = mf.object_map[x]
        mu_x = m.mult.components[x]
        sysm.require_equal(mu_x @ unknowns[x], mx.identity(), "section law")
        left = mf.on_morphism(mu_x) @ sigma_forms.at(mx)
        mid = unknowns[x] @ mu_x
        right = m.mult.at(mx) @ mf.on_morphism(unknowns[x])
        sysm.require_equal(left, mid, "bimodule left")
        sysm.require_equal(mid, right, "bimodule right")
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
    dcat = adj.G.source
    for x in dcat.objects:
        if adj.counit.components[x] @ xi.components[x] != dcat.obj(x).identity():
            raise PreconditionError(f"ε∘ξ is not the identity at {x}")
    if monad is None:
        monad = monad_from_adjunction(adj)
    comps = {}
    for x in monad.cat.objects:
        fx = adj.F.object_map[x]
        comps[x] = adj.G.on_morphism(xi.at(fx))
    sigma = NatTrans(monad.functor, monad.squared(), comps, name="σ")
    w = MonadSepWitness(monad, sigma)
    w.verify().require(LawViolationError, "σ = GξF")
    return w

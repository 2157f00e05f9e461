"""Modules over a monad, the free/forgetful adjunction, the comparison functor,
and the equivalence-up-to-retracts machinery.

The module category is never enumerated: modules are concrete witnesses
(X, λ), and every "for all modules" statement is exercised through samples
plus the constructive retract argument.

Module maps out of a free module are read off the free–forgetful adjunction
(Eilenberg–Moore): for a base object x and a module (B, λ), φ ↦ λ∘M(φ) is a linear
bijection Hom(x, B) → Hom_M((M x, μ_x), (B, λ)), inverse to f ↦ f∘η_x.  With M a functor,
η and μ natural (each checked on basis morphisms, hence natural on the closure, where M, η
and μ act blockwise), the unit laws μ∘Mη = Id = μ∘ηM and the module laws of (B, λ):
  - λ∘M(φ) is a module map: λ∘M(φ)∘μ_x = λ∘μ_B∘M²(φ) = λ∘M(λ)∘M²(φ) = λ∘M(λ∘M(φ)), by
    naturality of μ, then associativity of λ;
  - every module map f is one: λ∘M(f∘η_x) = λ∘M(f)∘M(η_x) = f∘μ_x∘M(η_x) = f, by the
    module-map law and the unit law;
  - φ ↦ λ∘M(φ) is injective: λ∘M(φ)∘η_x = λ∘η_B∘φ = φ, by naturality of η and λ's unit law.
On a carrier B = (X, e) with an idempotent, η_B = η_X∘e and μ_B = μ_X∘M²(e), and Hom(x, B)
holds the φ = e∘φ.  An image g = λ∘M(φ) is such a map too: g = g∘μ_x∘η_{Mx} =
λ∘M(g)∘η_{Mx} = P∘g for P = λ∘η_X, and P∘P = λ∘M(λ)∘η_{MX}∘η_X = λ∘μ_B∘η_{MX}∘η_X = P∘e = e,
so e∘g = P∘P∘g = g; and λ∘η_B∘φ = P∘e∘φ = e∘φ = φ.
So `module_hom_basis` writes the images of a basis of Hom(x, B) in the reduced echelon form
of the solve (`monads.free_hom_basis`) where a = (M(x), μ_x) as data, the monad passes these
laws and b its module laws, each read off its kept report (`reports.checked`), and solves
otherwise.
"""

from __future__ import annotations

from .category import CatObject, Morphism, MorSystem, hom_space_basis, split_idempotent
from .errors import LawViolationError, NotFullyFaithfulError, PreconditionError
from .functors import (Adjunction, NatTrans, bijectivity_record, hom_matrix, validate_functor,
                       validate_nat)
from .linalg import coordinate_map
from .monads import Monad, MonadSepWitness, free_hom_basis, monad_from_adjunction, validate_monad
from .reports import ValidationReport, checked


class MModule:
    """A module (X, λ) over a monad: λ: M(X) → X with the two module axioms."""

    def __init__(self, monad: Monad, carrier: CatObject, action: Morphism, name: str = ""):
        self.monad = monad
        self.carrier = carrier
        self.action = action
        self.name = name
        self.report = None  # the passing `validate_module` report (`reports.checked`)

    def __eq__(self, other):
        return (isinstance(other, MModule) and self.monad is other.monad
                and self.carrier == other.carrier and self.action == other.action)

    def __hash__(self):
        return hash((id(self.monad), self.carrier, self.action))

    def __repr__(self):
        return f"<MModule {self.name or self.carrier!r}>"


class ModuleMor:
    """A morphism of modules: f with f∘λ = λ'∘M(f)."""

    def __init__(self, src: MModule, dst: MModule, mor: Morphism):
        self.src = src
        self.dst = dst
        self.mor = mor

    def verify(self) -> ValidationReport:
        rep = ValidationReport("module morphism")
        mf = self.src.monad.functor
        rep.record("endpoints", self.mor.dom == self.src.carrier and self.mor.cod == self.dst.carrier)
        rep.record("f∘λ = λ'∘M(f)",
                   self.mor @ self.src.action == self.dst.action @ mf.on_morphism(self.mor))
        return rep

    def __matmul__(self, other):
        if not isinstance(other, ModuleMor):
            return NotImplemented
        return ModuleMor(other.src, self.dst, self.mor @ other.mor)

    def __eq__(self, other):
        return (isinstance(other, ModuleMor) and self.src == other.src
                and self.dst == other.dst and self.mor == other.mor)

    def __repr__(self):
        return f"<ModuleMor {self.src!r} → {self.dst!r}>"


def validate_module(m: MModule) -> ValidationReport:
    """The module axioms λ∘Mλ = λ∘μ_X and λ∘η_X = Id_X, exactly."""
    rep = ValidationReport(f"module {m.name}" if m.name else "module")
    monad = m.monad
    mf = monad.functor
    x = m.carrier
    mx = mf.on_object(x)
    lam = m.action
    if lam.dom != mx or lam.cod != x:
        rep.record("action endpoints M(X) → X", False,
                   f"got {lam.dom!r} → {lam.cod!r}")
        return rep
    rep.record("action endpoints M(X) → X", True)
    rep.record("associativity λ∘Mλ = λ∘μ_X",
               lam @ mf.on_morphism(lam) == lam @ monad.mult.at(x))
    rep.record("unit λ∘η_X = Id_X", lam @ monad.unit.at(x) == x.identity())
    return rep


def free_module(monad: Monad, x: CatObject, name: str = "") -> MModule:
    """The free module (M(X), μ_X)."""
    return MModule(monad, monad.functor.on_object(x), monad.mult.at(x),
                   name=name or f"free({x!r})")


def _free_on(a: MModule) -> CatObject | None:
    """The base object x with a = (M(x), μ_x), over a monad whose functor, unit, multiplication
    and laws pass their checks (module docstring); None for any other a."""
    m = a.monad
    x = next((x for x in m.cat.objects if m.functor.object_map[x] == a.carrier
              and m.mult.components.get(x) == a.action), None)
    if x is None or not all(checked(s, v).passed for s, v in (
            (m.functor, validate_functor), (m.unit, validate_nat), (m.mult, validate_nat),
            (m, validate_monad))):
        return None
    return m.cat.obj(x)


def module_hom_basis(a: MModule, b: MModule) -> list[ModuleMor]:
    """A basis of the space of module morphisms a → b, in the reduced echelon form of one
    exact solve: out of a free module into a b that passes its laws by the adjunction
    (module docstring), else by that solve."""
    if a.monad is not b.monad:
        raise ValueError("modules over different monads")
    mf, x = a.monad.functor, _free_on(a)
    if x is not None and checked(b, validate_module).passed:
        return [ModuleMor(a, b, f) for f in free_hom_basis(mf, x, b.action)]
    sysm = MorSystem(a.carrier.cat.field)
    f = sysm.unknown(a.carrier, b.carrier)
    sysm.require_equal(f @ a.action, b.action @ mf.on_morphism(f), "module morphism law")
    return [ModuleMor(a, b, m) for m in sysm.kernel_basis(f)]


class EmAdjunction:
    """The free/forgetful adjunction of a monad, as callable data."""

    def __init__(self, monad: Monad):
        self.monad = monad

    def free(self, x: CatObject) -> MModule:
        return free_module(self.monad, x)

    def unit_at(self, x: CatObject) -> Morphism:
        return self.monad.unit.at(x)

    def counit_at(self, m: MModule) -> ModuleMor:
        return ModuleMor(self.free(m.carrier), m, m.action)

    def defined_monad(self) -> Monad:
        """The monad defined by this adjunction, rebuilt componentwise."""
        monad = self.monad
        cat = monad.cat
        mu_comps = {x: self.counit_at(self.free(cat.obj(x))).mor for x in cat.objects}
        return Monad(monad.functor,
                     NatTrans(monad.unit.src, monad.unit.dst, dict(monad.unit.components)),
                     NatTrans(monad.mult.src, monad.mult.dst, mu_comps),
                     name=monad.name)

    def validate(self, sample_modules=()) -> ValidationReport:
        """Triangle identities on base objects and sampled modules."""
        return ValidationReport("free/forgetful adjunction").record_laws(
            self._triangle_laws(sample_modules), {"free": ("ε_M F_M ∘ F_M η = Id", str),
                                                  "module": ("G_M ε_M ∘ η G_M = Id ({n} modules)", repr)})

    def _triangle_laws(self, sample_modules):
        monad = self.monad
        cat = monad.cat
        for x in cat.objects:
            ob = cat.obj(x)
            fm = self.free(ob)
            yield ("free", (x,), self.counit_at(fm).mor @ monad.functor.on_morphism(self.unit_at(ob)),
                   fm.carrier.identity())
        for m in sample_modules:
            yield "module", (m,), self.counit_at(m).mor @ self.unit_at(m.carrier), m.carrier.identity()


class Comparison:
    """The comparison functor K(D) = (G(D), G(ε_D)), K(f) = G(f)."""

    def __init__(self, adj: Adjunction, monad: Monad | None = None):
        self.adj = adj
        self.monad = monad if monad is not None else monad_from_adjunction(adj)
        self._ocache: dict = {}

    def on_object(self, d: CatObject) -> MModule:
        """K(d), built and validated once per `d.key` (as `Functor` keys its caches); a K(d)
        that fails its module laws is not kept and raises on every call."""
        g = self.adj.G
        carrier = g.on_object(d)  # raises for an object outside G's source
        mod = self._ocache.get(d.key)
        if mod is None:
            mod = MModule(self.monad, carrier, g.on_morphism(self.adj.counit.at(d)),
                          name=f"K({d!r})")
            checked(mod, validate_module).require(LawViolationError, "comparison image")
            self._ocache[d.key] = mod
        return mod

    def on_morphism(self, f: Morphism) -> ModuleMor:
        km = ModuleMor(self.on_object(f.dom), self.on_object(f.cod),
                       self.adj.G.on_morphism(f))
        km.verify().require(LawViolationError, "comparison image morphism")
        return km

    def hom_matrix(self, d1: CatObject, d2: CatObject):
        """The induced map Hom_D(d1, d2) → Hom_modules(K d1, K d2) as its image
        columns in chosen bases; returns (columns, D basis, module basis)."""
        dcat = self.adj.G.source
        dbasis = hom_space_basis(dcat, d1, d2)
        mbasis = module_hom_basis(self.on_object(d1), self.on_object(d2))
        cols = hom_matrix(self.adj.G.on_morphism, dbasis, dcat.field, basis=[m.mor for m in mbasis])
        return cols, dbasis, mbasis

    def fully_faithful_on(self, pairs) -> list[dict]:
        out = []
        for d1, d2 in pairs:
            cols, _, mbasis = self.hom_matrix(d1, d2)
            out.append(bijectivity_record((d1, d2), cols, len(mbasis), self.adj.G.source.field))
        return out


def xi_em_from_sigma(sw: MonadSepWitness, m: MModule) -> ModuleMor:
    """The section ξ_{(X,λ)} = M(λ)∘σ_X∘η_X of ε_M, verified on the nose."""
    monad = sw.monad
    if m.monad is not monad:
        raise PreconditionError("module is over a different monad")
    mf = monad.functor
    x = m.carrier
    s = mf.on_morphism(m.action) @ sw.sigma.at(x) @ monad.unit.at(x)
    fm = free_module(monad, x)
    out = ModuleMor(m, fm, s)
    rep = out.verify()
    rep.record("λ∘s = Id_X", m.action @ s == x.identity())
    rep.require(LawViolationError, "module section from σ")
    return out


def module_retract_of_free(sw: MonadSepWitness, m: MModule):
    """Exhibit m as a retract of the free module on its carrier."""
    s = xi_em_from_sigma(sw, m)
    r = ModuleMor(s.dst, m, m.action)
    rep = r.verify()
    rep.record("retraction ∘ section = Id", (r @ s).mor == m.carrier.identity())
    rep.require(LawViolationError, "retract of free module")
    return s, r


def check_equiv_up_to_retracts(adj: Adjunction, sw: MonadSepWitness,
                               object_samples, module_samples) -> ValidationReport:
    """Sampled content of the equivalence-up-to-retracts statement.

    (a) K is fully faithful on every sampled pair of D-objects;
    (b) every sampled module is a verified retract of a free module.
    """
    rep = ValidationReport("equivalence up to retracts")
    k = Comparison(adj, sw.monad)
    pairs = [(a, b) for a in object_samples for b in object_samples]
    for rec in k.fully_faithful_on(pairs):
        a, b = rec["pair"]
        rep.record(f"K fully faithful on ({a!r}, {b!r})", rec["bijective"],
                   f"dims {rec['dim_source']}/{rec['dim_target']}, rank {rec['rank']}")
    for m in module_samples:
        try:
            module_retract_of_free(sw, m)
            rep.record(f"retract of free: {m!r}", True)
        except LawViolationError as exc:
            rep.record(f"retract of free: {m!r}", False, str(exc))
    return rep


def essential_preimage(adj: Adjunction, sw: MonadSepWitness, m: MModule):
    """A Karoubi object of D whose comparison image is isomorphic to m.

    Splits the pulled-back idempotent ê on F(X) and returns
    (split object, iso K(split) → m, iso m → K(split)); both composites are
    verified to be identities.
    """
    monad = sw.monad
    k = Comparison(adj, monad)
    x = m.carrier
    fx = adj.F.on_object(x)
    s, r = module_retract_of_free(sw, m)
    e_mod = s @ r  # idempotent module endomorphism of the free module on X
    cols, dbasis, mbasis = k.hom_matrix(fx, fx)
    rec = bijectivity_record((fx, fx), cols, len(mbasis), fx.cat.field)
    if not rec["bijective"]:
        raise NotFullyFaithfulError(f"K is not bijective on Hom(F(X), F(X)): dims "
                                    f"{len(dbasis)}/{len(mbasis)}, rank {rec['rank']}")
    # bijective: the images G(f) of the D-basis are a basis of the module
    # endomorphisms, so ê's coordinates in them exist and are unique
    images = [adj.G.on_morphism(f).coords() for f in dbasis]
    e_hat = None
    for c, f in zip(coordinate_map(images, fx.cat.field)(e_mod.mor.coords()), dbasis):
        term = f.scale(c)
        e_hat = term if e_hat is None else e_hat + term
    if e_hat @ e_hat != e_hat:
        raise LawViolationError("pulled-back endomorphism is not idempotent")
    witness = split_idempotent(fx, e_hat)
    k_small = k.on_object(witness.small)
    iso_to = ModuleMor(k_small, m, r.mor @ adj.G.on_morphism(witness.section))
    iso_from = ModuleMor(m, k_small, adj.G.on_morphism(witness.retraction) @ s.mor)
    rep = ValidationReport("essential preimage")
    rep.merge(iso_to.verify())
    rep.merge(iso_from.verify())
    rep.record("iso_to ∘ iso_from = Id_m",
               (iso_to @ iso_from).mor == m.carrier.identity())
    rep.record("iso_from ∘ iso_to = Id_K(split)",
               (iso_from @ iso_to).mor == k_small.carrier.identity())
    rep.require(LawViolationError, "essential preimage isomorphisms")
    return witness.small, iso_to, iso_from

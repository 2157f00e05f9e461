"""Bounded complexes over the additive closure, homotopy-category hom spaces,
componentwise lifting of monads, and the comparison check between module
complexes and complexes-of-modules at the hom level.

Everything is exact linear algebra: chain-map spaces and null-homotopic
subspaces are kernels and images of explicit matrices over the base field.
"""

from __future__ import annotations

from .category import CatObject, Morphism, MorSystem, hom_space_basis, zero_morphism
from .errors import MonadNotSeparableError
from .linalg import rank_extension
from .monads import Monad, MonadSepWitness, monad_separability_solve
from .reports import ValidationReport

DEFAULT_SUPPORT_CAP = 8


class BoundedComplex:
    """A bounded complex of closure objects with d∘d = 0."""

    def __init__(self, cat, terms: dict, diffs: dict, support_cap: int = DEFAULT_SUPPORT_CAP,
                 name: str = ""):
        self.cat = cat
        self.terms = {int(n): t for n, t in terms.items() if t.summands}
        self.diffs = {int(n): d for n, d in diffs.items()}
        self.name = name
        if self.terms:
            self.lo = min(self.terms)
            self.hi = max(self.terms)
            if self.hi - self.lo + 1 > support_cap:
                raise ValueError(f"support length {self.hi - self.lo + 1} exceeds the cap {support_cap}")
        else:
            self.lo, self.hi = 0, -1

    def term(self, n: int) -> CatObject:
        return self.terms.get(n, self.cat.zero_object())

    def diff(self, n: int) -> Morphism:
        d = self.diffs.get(n)
        if d is None:
            return zero_morphism(self.term(n), self.term(n + 1))
        return d

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def __repr__(self):
        return f"<Complex {self.name or ''} [{self.lo}, {self.hi}]>"


def validate_complex(c: BoundedComplex) -> ValidationReport:
    rep = ValidationReport(f"complex {c.name}" if c.name else "complex")
    shape_bad = []
    for n, d in c.diffs.items():
        if d.dom != c.term(n) or d.cod != c.term(n + 1):
            shape_bad.append(n)
    rep.record("differentials have the right endpoints", not shape_bad,
               "; ".join(map(str, shape_bad)))
    if shape_bad:
        return rep
    dd_bad = []
    for n in range(c.lo - 1, c.hi + 1):
        if not (c.diff(n + 1) @ c.diff(n)).is_zero():
            dd_bad.append(n)
    rep.record("d∘d = 0", not dd_bad, "; ".join(map(str, dd_bad)))
    return rep


class ChainMap:
    """A degreewise morphism commuting with the differentials."""

    def __init__(self, src: BoundedComplex, dst: BoundedComplex, parts: dict):
        self.src = src
        self.dst = dst
        self.parts = {int(n): p for n, p in parts.items()}

    def part(self, n: int) -> Morphism:
        p = self.parts.get(n)
        if p is None:
            return zero_morphism(self.src.term(n), self.dst.term(n))
        return p

    def verify(self) -> ValidationReport:
        rep = ValidationReport("chain map")
        bad = []
        lo = min(self.src.lo, self.dst.lo) - 1
        hi = max(self.src.hi, self.dst.hi)
        for n in range(lo, hi + 1):
            if self.part(n + 1) @ self.src.diff(n) != self.dst.diff(n) @ self.part(n):
                bad.append(n)
        rep.record("commutes with differentials", not bad, "; ".join(map(str, bad)))
        return rep

    def __eq__(self, other):
        if not isinstance(other, ChainMap):
            return NotImplemented
        degs = set(self.parts) | set(other.parts)
        return all(self.part(n) == other.part(n) for n in degs)

    def __repr__(self):
        return f"<ChainMap [{self.src.lo},{self.src.hi}] → [{self.dst.lo},{self.dst.hi}]>"


def _span_degrees(x: BoundedComplex, y: BoundedComplex):
    lo = min(x.lo, y.lo)
    hi = max(x.hi, y.hi)
    return range(lo, hi + 1)


def chain_map_space(x: BoundedComplex, y: BoundedComplex) -> list[ChainMap]:
    """A basis of the space of chain maps x → y."""
    if x.cat is not y.cat:
        raise ValueError("complexes over different presentations")
    sysm = MorSystem(x.cat.field)
    unknowns = {n: sysm.unknown(x.term(n), y.term(n)) for n in _span_degrees(x, y)}

    def u(n):
        return unknowns.get(n) or zero_morphism(x.term(n), y.term(n))

    for n in range(x.lo - 1, x.hi + 1):
        sysm.require_equal(u(n + 1) @ x.diff(n), y.diff(n) @ u(n), f"chain square {n}")
    sol = sysm.solve()
    out = []
    for k in sol.kernel:
        parts = {n: MorSystem.eval_at(unknowns[n], k, with_const=False) for n in unknowns}
        out.append(ChainMap(x, y, parts))
    return out


def _homotopy_output_coords(x: BoundedComplex, y: BoundedComplex, h_parts) -> list:
    """Coordinates of dh + hd in the flattened chain-map coordinate space."""
    out = []
    for n in _span_degrees(x, y):
        m = (y.diff(n - 1) @ h_parts[n]) + (h_parts[n + 1] @ x.diff(n))
        out.extend(m.coords())
    return out


def null_homotopic_space(x: BoundedComplex, y: BoundedComplex):
    """(rank, image coordinate vectors) of h ↦ dh + hd into chain-map coordinates."""
    cat = x.cat
    field = cat.field
    degs = list(_span_degrees(x, y))
    h_bases = {n: hom_space_basis(cat, x.term(n), y.term(n - 1))
               for n in range(degs[0], degs[-1] + 2)}
    vectors = []
    for n in sorted(h_bases):
        for b in h_bases[n]:
            h_parts = {m: (b if m == n else zero_morphism(x.term(m), y.term(m - 1)))
                       for m in range(degs[0], degs[-1] + 2)}
            vectors.append(_homotopy_output_coords(x, y, h_parts))
    rank, _ = rank_extension(vectors, [], field)
    return rank, vectors


class HomotopyHom:
    """Hom space in the homotopy category: dimension and representatives."""

    def __init__(self, dim, chain_dim, null_dim, representatives):
        self.dim = dim
        self.chain_dim = chain_dim
        self.null_dim = null_dim
        self.representatives = representatives

    def __repr__(self):
        return f"<HomotopyHom dim={self.dim} (chain {self.chain_dim}, null {self.null_dim})>"


def kb_hom_basis(x: BoundedComplex, y: BoundedComplex) -> HomotopyHom:
    """Hom in the homotopy category: chain maps modulo null-homotopic, exactly."""
    chain_basis = chain_map_space(x, y)
    null_rank, null_vectors = null_homotopic_space(x, y)
    chain_vectors = []
    for cm in chain_basis:
        coords = []
        for n in _span_degrees(x, y):
            coords.extend(cm.part(n).coords())
        chain_vectors.append(coords)
    base_rank, chosen = rank_extension(null_vectors, chain_vectors, x.cat.field)
    reps = [chain_basis[i] for i in chosen]
    return HomotopyHom(len(chain_basis) - null_rank, len(chain_basis), null_rank, reps)


def apply_functor_to_complex(f, c: BoundedComplex, name: str = "") -> BoundedComplex:
    terms = {n: f.on_object(c.term(n)) for n in c.degrees()}
    diffs = {n: f.on_morphism(c.diff(n)) for n in c.degrees() if n + 1 <= c.hi}
    return BoundedComplex(f.target, terms, diffs, name=name or f"M({c.name})")


class LiftedMonad:
    """A monad acting degreewise on bounded complexes."""

    def __init__(self, monad: Monad):
        self.monad = monad

    def on_complex(self, c: BoundedComplex) -> BoundedComplex:
        return apply_functor_to_complex(self.monad.functor, c)

    def unit(self, c: BoundedComplex) -> ChainMap:
        parts = {n: self.monad.unit.at(c.term(n)) for n in c.degrees()}
        return ChainMap(c, self.on_complex(c), parts)

    def mult(self, c: BoundedComplex) -> ChainMap:
        mc = self.on_complex(c)
        parts = {n: self.monad.mult.at(c.term(n)) for n in c.degrees()}
        return ChainMap(apply_functor_to_complex(self.monad.functor, mc), mc, parts)

    def section(self, sw: MonadSepWitness, c: BoundedComplex) -> ChainMap:
        mc = self.on_complex(c)
        parts = {n: sw.sigma.at(c.term(n)) for n in c.degrees()}
        return ChainMap(mc, apply_functor_to_complex(self.monad.functor, mc), parts)

    def validate_on(self, c: BoundedComplex, sw: MonadSepWitness | None = None) -> ValidationReport:
        """Monad (and optionally section) laws, degreewise on the sample complex."""
        rep = ValidationReport(f"lifted monad on {c.name or 'complex'}")
        m = self.monad
        mf = m.functor
        mc = self.on_complex(c)
        rep.merge(validate_complex(mc))
        assoc_bad, unit_bad, sec_bad = [], [], []
        for n in c.degrees():
            t = c.term(n)
            mt = mf.on_object(t)
            mu = m.mult.at(t)
            if mu @ mf.on_morphism(mu) != mu @ m.mult.at(mt):
                assoc_bad.append(n)
            if mu @ mf.on_morphism(m.unit.at(t)) != mt.identity():
                unit_bad.append(n)
            if mu @ m.unit.at(mt) != mt.identity():
                unit_bad.append(n)
            if sw is not None:
                sig = sw.sigma.at(t)
                if mu @ sig != mt.identity():
                    sec_bad.append(n)
        rep.record("associativity degreewise", not assoc_bad, "; ".join(map(str, assoc_bad)))
        rep.record("unit laws degreewise", not unit_bad, "; ".join(map(str, unit_bad)))
        if sw is not None:
            rep.record("μ∘σ = Id degreewise", not sec_bad, "; ".join(map(str, sec_bad)))
            rep.merge(self.section(sw, c).verify())
        return rep


def lift_monad(m: Monad) -> LiftedMonad:
    return LiftedMonad(m)


class ModuleComplex:
    """A bounded complex of modules: terms carry actions, differentials are module maps."""

    def __init__(self, monad: Monad, modules: dict, diffs: dict, name: str = ""):
        self.monad = monad
        self.modules = {int(n): m for n, m in modules.items()}
        self.name = name
        cat = monad.cat
        terms = {n: m.carrier for n, m in self.modules.items()}
        self.underlying = BoundedComplex(cat, terms, diffs, name=name)

    def module(self, n: int):
        return self.modules.get(n)

    def action_at(self, n: int) -> Morphism:
        m = self.modules.get(n)
        if m is not None:
            return m.action
        t = self.underlying.term(n)
        return zero_morphism(self.monad.functor.on_object(t), t)

    def validate(self) -> ValidationReport:
        from .modules import validate_module
        rep = ValidationReport(f"module complex {self.name}" if self.name else "module complex")
        rep.merge(validate_complex(self.underlying))
        mf = self.monad.functor
        for n, m in sorted(self.modules.items()):
            rep.merge(validate_module(m))
        bad = []
        for n in self.underlying.degrees():
            d = self.underlying.diff(n)
            if d @ self.action_at(n) != self.action_at(n + 1) @ mf.on_morphism(d):
                bad.append(n)
        rep.record("differentials are module morphisms", not bad, "; ".join(map(str, bad)))
        return rep

    def degrees(self):
        return self.underlying.degrees()

    def __repr__(self):
        return f"<ModuleComplex {self.name or ''} [{self.underlying.lo}, {self.underlying.hi}]>"


def module_chain_hom_dim(a: ModuleComplex, b: ModuleComplex) -> int:
    """Hom dimension in the homotopy category of module complexes.

    Chain maps that are degreewise module morphisms, modulo homotopies whose
    components are module morphisms.
    """
    monad = a.monad
    mf = monad.functor
    x, y = a.underlying, b.underlying
    field = x.cat.field
    degs = list(_span_degrees(x, y))
    sysm = MorSystem(field)
    unknowns = {n: sysm.unknown(x.term(n), y.term(n)) for n in degs}

    def u(n):
        return unknowns.get(n) or zero_morphism(x.term(n), y.term(n))

    for n in range(x.lo - 1, x.hi + 1):
        sysm.require_equal(u(n + 1) @ x.diff(n), y.diff(n) @ u(n), f"chain {n}")
    for n in degs:
        sysm.require_equal(u(n) @ a.action_at(n), b.action_at(n) @ mf.on_morphism(u(n)),
                           f"module law {n}")
    k1 = len(sysm.solve().kernel)

    sys_h = MorSystem(field)
    h_unknowns = {n: sys_h.unknown(x.term(n), y.term(n - 1))
                  for n in range(degs[0], degs[-1] + 2)}
    for n, hn in h_unknowns.items():
        sys_h.require_equal(hn @ a.action_at(n), b.action_at(n - 1) @ mf.on_morphism(hn),
                            f"module homotopy {n}")
    n_modh = len(sys_h.solve().kernel)

    sys_h0 = MorSystem(field)
    h0 = {n: sys_h0.unknown(x.term(n), y.term(n - 1))
          for n in range(degs[0], degs[-1] + 2)}
    for n, hn in h0.items():
        sys_h0.require_equal(hn @ a.action_at(n), b.action_at(n - 1) @ mf.on_morphism(hn),
                             f"module homotopy {n}")
    for n in degs:
        zero_map = zero_morphism(x.term(n), y.term(n))
        hd = h0.get(n + 1)
        dh = h0.get(n)
        expr = (y.diff(n - 1) @ dh) + (hd @ x.diff(n))
        sys_h0.require_equal(expr, zero_map, f"vanishing image {n}")
    k0 = len(sys_h0.solve().kernel)
    null_dim = n_modh - k0
    return k1 - null_dim


def lifted_module_hom_dim(a: ModuleComplex, b: ModuleComplex) -> int:
    """Hom dimension of module objects over the lifted monad in the homotopy category.

    Chain maps f with f∘λ − λ'∘M(f) null-homotopic, modulo null-homotopic
    chain maps; the quotient is well defined because null-homotopic maps
    satisfy the condition via the transported homotopy.
    """
    monad = a.monad
    mf = monad.functor
    x, y = a.underlying, b.underlying
    field = x.cat.field
    mx = apply_functor_to_complex(mf, x)
    degs = list(_span_degrees(x, y))

    sysm = MorSystem(field)
    f_unknowns = {n: sysm.unknown(x.term(n), y.term(n)) for n in degs}
    h_unknowns = {n: sysm.unknown(mx.term(n), y.term(n - 1))
                  for n in range(degs[0], degs[-1] + 2)}

    def fu(n):
        return f_unknowns.get(n) or zero_morphism(x.term(n), y.term(n))

    for n in range(x.lo - 1, x.hi + 1):
        sysm.require_equal(fu(n + 1) @ x.diff(n), y.diff(n) @ fu(n), f"chain {n}")
    for n in degs:
        lhs = (fu(n) @ a.action_at(n)) - (b.action_at(n) @ mf.on_morphism(fu(n)))
        rhs = (y.diff(n - 1) @ h_unknowns[n]) + (h_unknowns[n + 1] @ mx.diff(n))
        sysm.require_equal(lhs, rhs, f"module-up-to-homotopy {n}")
    k_joint = len(sysm.solve().kernel)

    sys_h = MorSystem(field)
    h0 = {n: sys_h.unknown(mx.term(n), y.term(n - 1))
          for n in range(degs[0], degs[-1] + 2)}
    for n in degs:
        expr = (y.diff(n - 1) @ h0[n]) + (h0[n + 1] @ mx.diff(n))
        sys_h.require_equal(expr, zero_morphism(mx.term(n), y.term(n)), f"vanishing {n}")
    k_h = len(sys_h.solve().kernel)
    dim_s2 = k_joint - k_h

    null_rank, _ = null_homotopic_space(x, y)
    return dim_s2 - null_rank


def module_complex_retract(sw: MonadSepWitness, a: ModuleComplex):
    """Exhibit a module complex as an on-the-nose retract of its free cover."""
    monad = sw.monad
    mf = monad.functor
    x = a.underlying
    lifted = LiftedMonad(monad)
    mx = lifted.on_complex(x)
    s_parts, r_parts = {}, {}
    for n in x.degrees():
        lam = a.action_at(n)
        s_parts[n] = mf.on_morphism(lam) @ sw.sigma.at(x.term(n)) @ monad.unit.at(x.term(n))
        r_parts[n] = lam
    s = ChainMap(x, mx, s_parts)
    r = ChainMap(mx, x, r_parts)
    rep = ValidationReport("complex-level retract of the free cover")
    rep.merge(s.verify())
    rep.merge(r.verify())
    bad = [n for n in x.degrees() if r_parts[n] @ s_parts[n] != x.term(n).identity()]
    rep.record("λ∘s = Id degreewise", not bad, "; ".join(map(str, bad)))
    return s, r, rep


def derived_comparison_check(action, samples, pairs=None, monad: Monad | None = None,
                             sigma: MonadSepWitness | None = None) -> ValidationReport:
    """Compare the two hom dimensions d₁ and d₂ on sampled module complexes.

    d₁ is computed in the homotopy category of module complexes, d₂ for module
    objects over the lifted monad; the report also carries a verified
    retract-of-free witness per sample.  Raises MonadNotSeparableError when no
    section σ exists.
    """
    from .equivariant import equivariant_monad
    if monad is None:
        monad = equivariant_monad(action)
    if sigma is None:
        res = monad_separability_solve(monad)
        if not isinstance(res, MonadSepWitness):
            raise MonadNotSeparableError(f"no section of μ exists: {res!r}")
        sigma = res
    rep = ValidationReport(f"comparison check for {getattr(action, 'name', '')}")
    samples = list(samples)
    for mc in samples:
        v = mc.validate()
        rep.record(f"sample {mc.name or mc!r} validates", v.passed,
                   "; ".join(n for n, _ in v.failures()))
    lifted = LiftedMonad(monad)
    for mc in samples:
        rep.merge(lifted.validate_on(mc.underlying, sigma))
    if pairs is None:
        pairs = [(i, j) for i in range(len(samples)) for j in range(len(samples))]
    for i, j in pairs:
        d1 = module_chain_hom_dim(samples[i], samples[j])
        d2 = lifted_module_hom_dim(samples[i], samples[j])
        rep.record(f"d₁ = d₂ for ({samples[i].name or i}, {samples[j].name or j})",
                   d1 == d2, f"d₁={d1}, d₂={d2}")
    for mc in samples:
        _, _, rw = module_complex_retract(sigma, mc)
        rep.record(f"retract of free cover: {mc.name or mc!r}", rw.passed,
                   "; ".join(n for n, _ in rw.failures()))
    return rep


def random_module_complex(monad: Monad, pool, length: int, rng, name: str = "") -> ModuleComplex:
    """A random bounded complex of modules from the pool, with d² = 0 by construction."""
    from .modules import module_hom_basis
    if not pool:
        raise ValueError("empty module pool")
    field = monad.cat.field
    mods = {n: pool[rng.randrange(len(pool))] for n in range(length)}
    diffs = {}
    prev = None
    for n in range(length - 1):
        if prev is None:
            basis = [b.mor for b in module_hom_basis(mods[n], mods[n + 1])]
        else:
            sysm = MorSystem(field)
            f = sysm.unknown(mods[n].carrier, mods[n + 1].carrier)
            mf = monad.functor
            sysm.require_equal(f @ mods[n].action, mods[n + 1].action @ mf.on_morphism(f),
                               "module law")
            sysm.require_equal(f @ prev, zero_morphism(prev.dom, mods[n + 1].carrier),
                               "d²=0")
            sol = sysm.solve()
            basis = [MorSystem.eval_at(f, k, with_const=False) for k in sol.kernel]
        d = zero_morphism(mods[n].carrier, mods[n + 1].carrier)
        for b in basis:
            c = rng.randint(-2, 2)
            if c:
                d = d + b.scale(field.from_int(c))
        diffs[n] = d
        prev = d
    return ModuleComplex(monad, mods, diffs, name=name or f"random[{length}]")

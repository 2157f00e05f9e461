"""Bounded complexes over the additive closure, homotopy-category hom spaces,
componentwise lifting of monads, and the comparison check between module
complexes and complexes-of-modules at the hom level.

Every hom space in a homotopy category here is one quotient, maps modulo
null-homotopic maps, and every hom dimension is computed the same way:
  - one exact solve gives span vectors of the maps;
  - homotopies h give null vectors dh + hd;
  - the dimension is the number of span vectors that `rank_extension` picks
    as extending the null vectors independently.
Both families are flattened chain-map coordinates, degree by degree over
`_span_degrees` in `coords()` order.  The count is dim(span + null) − dim null,
which is dim span − dim null because each caller's null vectors lie in its span.
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
        self._zero_diffs: dict = {}
        self.name = name
        if self.terms:
            self.lo = min(self.terms)
            self.hi = max(self.terms)
            if self.hi - self.lo + 1 > support_cap:
                raise ValueError(f"support length {self.hi - self.lo + 1} exceeds the cap {support_cap}")
        else:
            self.lo, self.hi = 0, -1

    def term(self, n: int) -> CatObject:
        return self.terms.get(n) or self.cat.zero_object()

    def diff(self, n: int) -> Morphism:
        d = self.diffs.get(n) or self._zero_diffs.get(n)
        if d is None:
            d = self._zero_diffs[n] = zero_morphism(self.term(n), self.term(n + 1))
        return d

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def __repr__(self):
        return f"<Complex {self.name or ''} [{self.lo}, {self.hi}]>"


def validate_complex(c: BoundedComplex) -> ValidationReport:
    rep = ValidationReport(f"complex {c.name}" if c.name else "complex")
    bad = [n for n, d in c.diffs.items() if d.dom != c.term(n) or d.cod != c.term(n + 1)]
    if rep.record("differentials have the right endpoints", not bad, "; ".join(map(str, bad))):
        rep.record_laws((("d∘d", (n,), c.diff(n + 1) @ c.diff(n),
                          zero_morphism(c.term(n), c.term(n + 2))) for n in range(c.lo - 1, c.hi + 1)),
                        {"d∘d": ("d∘d = 0", str)})
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
        degrees = range(min(self.src.lo, self.dst.lo) - 1, max(self.src.hi, self.dst.hi) + 1)
        return ValidationReport("chain map").record_laws(
            (("chain", (n,), self.part(n + 1) @ self.src.diff(n), self.dst.diff(n) @ self.part(n))
             for n in degrees), {"chain": ("commutes with differentials", str)})

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


def _homotopy_degrees(x: BoundedComplex, y: BoundedComplex):
    """The degrees n of the homotopy components h_n: x_n → y_{n−1}."""
    degs = _span_degrees(x, y)
    return range(degs.start, degs.stop + 1)


def _chain_unknowns(sysm: MorSystem, x: BoundedComplex, y: BoundedComplex) -> dict:
    """Unknowns f_n: x_n → y_n over the span degrees, required to commute with d."""
    unknowns = {n: sysm.unknown(x.term(n), y.term(n)) for n in _span_degrees(x, y)}

    def u(n):
        return unknowns.get(n) or zero_morphism(x.term(n), y.term(n))

    for n in range(x.lo - 1, x.hi + 1):
        sysm.require_equal(u(n + 1) @ x.diff(n), y.diff(n) @ u(n), f"chain square {n}")
    return unknowns


def chain_map_space(x: BoundedComplex, y: BoundedComplex) -> list[ChainMap]:
    """A basis of the space of chain maps x → y."""
    if x.cat is not y.cat:
        raise ValueError("complexes over different presentations")
    sysm = MorSystem(x.cat.field)
    unknowns = _chain_unknowns(sysm, x, y)
    return [ChainMap(x, y, {n: MorSystem.eval_at(u, k, with_const=False)
                            for n, u in unknowns.items()})
            for k in sysm.solve().kernel]


def _homotopy_output_coords(x: BoundedComplex, y: BoundedComplex, h_parts) -> list:
    """Coordinates of dh + hd in the flattened chain-map coordinate space."""
    out = []
    for n in _span_degrees(x, y):
        m = (y.diff(n - 1) @ h_parts[n]) + (h_parts[n + 1] @ x.diff(n))
        out.extend(m.coords())
    return out


def null_homotopic_space(x: BoundedComplex, y: BoundedComplex) -> list:
    """Null vectors spanning the null-homotopic chain maps x → y.

    One vector dh + hd per homotopy h that is a `hom_space_basis` element in
    one degree and zero in the others.
    """
    degs = _homotopy_degrees(x, y)
    zeros = {m: zero_morphism(x.term(m), y.term(m - 1)) for m in degs}
    return [_homotopy_output_coords(x, y, {**zeros, n: b})
            for n in degs for b in hom_space_basis(x.cat, x.term(n), y.term(n - 1))]


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
    """Hom in the homotopy category: chain maps modulo null-homotopic, exactly.

    The representatives are the chain-map basis elements that extend the null
    vectors; null-homotopic maps are chain maps, so their number is
    chain_dim − null_dim.
    """
    chain_basis = chain_map_space(x, y)
    chain_vectors = [[c for n in _span_degrees(x, y) for c in cm.part(n).coords()]
                     for cm in chain_basis]
    null_rank, chosen = rank_extension(null_homotopic_space(x, y), chain_vectors, x.cat.field)
    reps = [chain_basis[i] for i in chosen]
    return HomotopyHom(len(reps), len(chain_basis), null_rank, reps)


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

    def _laws_at(self, t: CatObject, sw: MonadSepWitness | None):
        """The monad (and section) laws at one closure object, (key, lhs, rhs) each."""
        m = self.monad
        mf = m.functor
        mt = mf.on_object(t)
        mu = m.mult.at(t)
        yield "associativity", mu @ mf.on_morphism(mu), mu @ m.mult.at(mt)
        yield "unit", mu @ mf.on_morphism(m.unit.at(t)), mt.identity()
        yield "unit", mu @ m.unit.at(mt), mt.identity()
        if sw is not None:
            yield "section", mu @ sw.sigma.at(t), mt.identity()

    def validate_on(self, c: BoundedComplex, sw: MonadSepWitness | None = None) -> ValidationReport:
        """Monad (and optionally section) laws, degreewise on the sample complex.

        M, η, μ and σ act blockwise on a plain sum, so each law is evaluated once
        per distinct place, a base summand of a plain term or a whole term with
        an idempotent, and a degree fails a law exactly when one of its places does.
        """
        rep = ValidationReport(f"lifted monad on {c.name or 'complex'}")
        rep.merge(validate_complex(self.on_complex(c)))
        verdicts = {}

        def at(place):
            if place not in verdicts:
                verdicts[place] = [(key, lhs == rhs) for key, lhs, rhs in self._laws_at(place, sw)]
            return verdicts[place]

        def laws():
            for n in c.degrees():
                t = c.term(n)
                # a zero term is one place of its own
                places = map(c.cat.obj, t.summands) if t.idem is None and t.summands else [t]
                for law in zip(*map(at, places)):  # one law's verdicts at every place
                    yield law[0][0], (n,), all(ok for _, ok in law), True

        checks = {"associativity": ("associativity degreewise", str),
                  "unit": ("unit laws degreewise", str)}
        if sw is not None:
            checks["section"] = ("μ∘σ = Id degreewise", str)
        rep.record_laws(laws(), checks)
        if sw is not None:
            rep.merge(self.section(sw, c).verify())
        return rep


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
        distinct = {id(m): m for m in self.modules.values()}  # a module may recur
        reports = {k: validate_module(m) for k, m in distinct.items()}
        for _, m in sorted(self.modules.items()):
            rep.merge(reports[id(m)])
        diff = self.underlying.diff
        rep.record_laws((("module map", (n,), diff(n) @ self.action_at(n),
                          self.action_at(n + 1) @ mf.on_morphism(diff(n)))
                         for n in self.underlying.degrees()),
                        {"module map": ("differentials are module morphisms", str)})
        return rep

    def degrees(self):
        return self.underlying.degrees()

    def __repr__(self):
        return f"<ModuleComplex {self.name or ''} [{self.underlying.lo}, {self.underlying.hi}]>"


def module_chain_hom_dim(a: ModuleComplex, b: ModuleComplex) -> int:
    """d₁: hom dimension in the homotopy category of module complexes.

    Span: chain maps that are degreewise module morphisms, one solve.  Null:
    dh + hd over a kernel basis of the homotopies whose components are module
    morphisms, a second solve.  Such a dh + hd is a chain map and, as a sum of
    composites of module morphisms, a module map, so null ⊆ span.
    """
    if a.monad is not b.monad:
        raise ValueError("modules over different monads")
    mf = a.monad.functor
    x, y = a.underlying, b.underlying
    field = x.cat.field
    sysm = MorSystem(field)
    unknowns = _chain_unknowns(sysm, x, y)
    for n, u in unknowns.items():
        sysm.require_equal(u @ a.action_at(n), b.action_at(n) @ mf.on_morphism(u),
                           f"module law {n}")
    span = sysm.solve().kernel

    sys_h = MorSystem(field)
    h = {n: sys_h.unknown(x.term(n), y.term(n - 1)) for n in _homotopy_degrees(x, y)}
    for n, hn in h.items():
        sys_h.require_equal(hn @ a.action_at(n), b.action_at(n - 1) @ mf.on_morphism(hn),
                            f"module homotopy {n}")
    null = [_homotopy_output_coords(x, y, {n: MorSystem.eval_at(hn, k, with_const=False)
                                           for n, hn in h.items()})
            for k in sys_h.solve().kernel]
    return len(rank_extension(null, span, field)[1])


def lifted_module_hom_dim(a: ModuleComplex, b: ModuleComplex) -> int:
    """d₂: hom dimension of module objects over the lifted monad in the homotopy category.

    Span: the chain maps f with f∘λ − λ'∘M(f) = dh + hd for some homotopy h,
    one solve of the joint (f, h) system.  The f unknowns come first, in
    chain-map coordinate order, so each kernel vector's first entries are its
    f.  Null: `null_homotopic_space`.  A null-homotopic f = dk + kd satisfies
    the condition with the transported homotopy h = kλ − λ'M(k), so null ⊆ span.
    """
    if a.monad is not b.monad:
        raise ValueError("modules over different monads")
    mf = a.monad.functor
    x, y = a.underlying, b.underlying
    field = x.cat.field
    mx = apply_functor_to_complex(mf, x)
    sysm = MorSystem(field)
    f = _chain_unknowns(sysm, x, y)
    n_f = sysm.n
    h = {n: sysm.unknown(mx.term(n), y.term(n - 1)) for n in _homotopy_degrees(x, y)}
    for n, fn in f.items():
        lhs = (fn @ a.action_at(n)) - (b.action_at(n) @ mf.on_morphism(fn))
        rhs = (y.diff(n - 1) @ h[n]) + (h[n + 1] @ mx.diff(n))
        sysm.require_equal(lhs, rhs, f"module-up-to-homotopy {n}")
    span = [k[:n_f] for k in sysm.solve().kernel]
    return len(rank_extension(null_homotopic_space(x, y), span, field)[1])


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
    rep.record_laws((("retraction", (n,), r_parts[n] @ s_parts[n], x.term(n).identity())
                     for n in x.degrees()), {"retraction": ("λ∘s = Id degreewise", str)})
    return s, r, rep


def derived_comparison_check(action, samples, pairs=None, monad: Monad | None = None,
                             sigma: MonadSepWitness | None = None) -> ValidationReport:
    """Compare the two hom dimensions d₁ and d₂ on sampled module complexes.

    d₁ is computed in the homotopy category of module complexes, d₂ for module
    objects over the lifted monad; the report also carries a verified
    retract-of-free witness per sample.  The monad defaults to the action's
    group monad.  Raises MonadNotSeparableError when no section σ exists.
    """
    if monad is None:
        monad = action.group_monad()
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

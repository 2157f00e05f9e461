"""Bounded complexes over the additive closure, homotopy-category hom spaces,
componentwise lifting of monads, and the comparison check between module
complexes and complexes-of-modules at the hom level.

Every hom space in a homotopy category here is one quotient, maps modulo
null-homotopic maps, and is counted the same way:
  - one exact solve gives span vectors of the maps;
  - a basis of homotopies h gives null vectors dh + hd;
  - `rank_extension` picks the span vectors that extend the null vectors
    independently, dim(span + null) − dim null of them.
Both families are flattened chain-map coordinates, degree by degree over
`_span_degrees` in `coords()` order, as sparse rows {position: nonzero scalar}
but for `kb_hom_basis`'s span, the solve's dense kernel vectors.  A sparse
family is read off the `LinForm` coefficients of one composition per degree on
Σ vᵢ·bᵢ over its maps bᵢ, however many there are.  For `kb_hom_basis` and d₁
the null vectors lie in the span, so the count is dim span − dim null, the hom
dimension.  d₁ takes its unknowns and its homotopies over module-hom bases,
solved per module pair within the call, so its solve holds only the chain
squares.  d₂ is the kernel of a map K(x, y) → K(Mx, y): the span is the images
of the `kb_hom_basis` representatives, and the count is the rank of the map.
"""

from __future__ import annotations

import itertools

from .category import (CatObject, Morphism, MorSystem, hom_coord_dim, hom_space_basis,
                       zero_morphism)
from .errors import MonadNotSeparableError
from .functors import Functor, validate_functor, validate_nat
from .linalg import LinForm, rank_extension
from .modules import MModule, module_hom_basis
from .monads import Monad, MonadSepWitness, _monad_laws, monad_separability_solve
from .reports import ValidationReport, checked

SUPPORT_CAP = 8


class BoundedComplex:
    """A bounded complex of closure objects with d∘d = 0, its support at most SUPPORT_CAP long."""

    def __init__(self, cat, terms: dict, diffs: dict, name: str = ""):
        self.cat = cat
        self.terms = {int(n): t for n, t in terms.items() if t.summands}
        self.diffs = {int(n): d for n, d in diffs.items()}
        self._zero_diffs: dict = {}
        self.name = name
        if self.terms:
            self.lo = min(self.terms)
            self.hi = max(self.terms)
            if self.hi - self.lo + 1 > SUPPORT_CAP:
                raise ValueError(f"support length {self.hi - self.lo + 1} exceeds the cap {SUPPORT_CAP}")
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
        return _chain_report(("chain", (n,), self.part(n + 1) @ self.src.diff(n),
                              self.dst.diff(n) @ self.part(n)) for n in degrees)

    def __eq__(self, other):
        if not isinstance(other, ChainMap):
            return NotImplemented
        degs = set(self.parts) | set(other.parts)
        return all(self.part(n) == other.part(n) for n in degs)

    def __repr__(self):
        return f"<ChainMap [{self.src.lo},{self.src.hi}] → [{self.dst.lo},{self.dst.hi}]>"


def _chain_report(laws=()) -> ValidationReport:
    """A chain map's report on its law list; an empty list records the check as passed."""
    return ValidationReport("chain map").record_laws(
        laws, {"chain": ("commutes with differentials", str)})


def _span_degrees(x: BoundedComplex, y: BoundedComplex):
    lo = min(x.lo, y.lo)
    hi = max(x.hi, y.hi)
    return range(lo, hi + 1)


def _homotopy_degrees(x: BoundedComplex, y: BoundedComplex):
    """The degrees n of the homotopy components h_n: x_n → y_{n−1}."""
    degs = _span_degrees(x, y)
    return range(degs.start, degs.stop + 1)


def _chain_unknowns(sysm: MorSystem, x: BoundedComplex, y: BoundedComplex, unknown=None) -> dict:
    """Unknowns f_n: x_n → y_n over the span degrees, required to commute with d;
    f_n is `unknown(n)`, by default a free unknown of sysm."""
    unknowns = {n: unknown(n) if unknown else sysm.unknown(x.term(n), y.term(n))
                for n in _span_degrees(x, y)}

    def u(n):
        return unknowns.get(n) or zero_morphism(x.term(n), y.term(n))

    for n in range(x.lo - 1, x.hi + 1):
        sysm.require_equal(u(n + 1) @ x.diff(n), y.diff(n) @ u(n), f"chain square {n}")
    return unknowns


def _chain_map_solve(x: BoundedComplex, y: BoundedComplex):
    """One solve for the chain maps x → y: its kernel vectors, which are the maps'
    coordinates flattened over `_span_degrees` in `coords()` order, as the unknowns
    f_n are allocated in that order, and k ↦ the chain map of a kernel vector."""
    if x.cat is not y.cat:
        raise ValueError("complexes over different presentations")
    sysm = MorSystem(x.cat.field)
    unknowns = _chain_unknowns(sysm, x, y)

    def chain_map(k) -> ChainMap:
        return ChainMap(x, y, {n: MorSystem.eval_at(u, k, with_const=False)
                               for n, u in unknowns.items()})

    return sysm.solve().kernel, chain_map


def chain_map_space(x: BoundedComplex, y: BoundedComplex) -> list[ChainMap]:
    """A basis of the space of chain maps x → y."""
    kernel, chain_map = _chain_map_solve(x, y)
    return list(map(chain_map, kernel))


def _combination(basis: list, dom: CatObject, cod: CatObject, first: int = 0) -> Morphism:
    """Σ v_{first+i}·basis[i] as one morphism dom → cod with `LinForm` coordinates, read off
    the elements' nonzero blocks; a coordinate zero in every element is the field's zero."""
    cat = dom.cat
    n, layout = cat.layout(dom.summands, cod.summands)
    coeffs = {}  # position ↦ {variable: nonzero coefficient}
    for i, b in enumerate(basis, first):
        for slices, row in zip(layout, b.nonzero_rows()):
            for j, block in row:
                for pos, c in enumerate(block, slices[j].start):
                    if c:
                        coeffs.setdefault(pos, {})[i] = c
    coords = [LinForm(cat.zero, coeffs[pos]) if pos in coeffs else cat.zero for pos in range(n)]
    return Morphism.from_coords(cat, dom, cod, coords)


def _offsets(x: BoundedComplex, y: BoundedComplex) -> dict:
    """Each span degree's first position in the flattened chain-map coordinates."""
    degs = _span_degrees(x, y)
    widths = (hom_coord_dim(x.cat, x.term(m), y.term(m)) for m in degs)
    return dict(zip(degs, itertools.accumulate(widths, initial=0)))


def _read_rows(part: Morphism, offset: int, rows: list):
    """Enter the coefficient of vᵢ at the p-th of part's `coords()` as rows[i][offset + p]."""
    for pos, a in enumerate(part.coords(), offset):
        if a:
            for i, c in a.coeffs.items():
                rows[i][pos] = c


def _null_vectors(x: BoundedComplex, y: BoundedComplex, bases: dict) -> list:
    """The vectors dh + hd of the homotopies in `bases`, {n: a family of maps x_n → y_{n−1}},
    in order, as sparse rows over the chain-map coordinates flattened over `_span_degrees`.

    h ↦ dh + hd is linear, so each degree's family b_0, b_1, … is composed once, as
    h = Σ vᵢ·bᵢ with `LinForm` coordinates: the coefficients of vᵢ in h∘d_x(n−1) and in
    d_y(n−1)∘h are bᵢ's vector in degrees n−1 and n (both span degrees, as x_n and
    y_{n−1} are nonzero), and it is zero in every other degree.  A coefficient is the
    scalar that composing bᵢ itself gives there, in value and type.
    """
    offsets = _offsets(x, y)
    out = []
    for n, basis in bases.items():
        if not basis:
            continue
        h = _combination(basis, x.term(n), y.term(n - 1))
        vecs = [{} for _ in basis]
        _read_rows(h @ x.diff(n - 1), offsets[n - 1], vecs)
        _read_rows(y.diff(n - 1) @ h, offsets[n], vecs)
        out.extend(vecs)
    return out


def null_homotopic_space(x: BoundedComplex, y: BoundedComplex) -> list:
    """Null vectors spanning the null-homotopic chain maps x → y.

    One vector dh + hd per homotopy h that is a `hom_space_basis` element in
    one degree and zero in the others.
    """
    return _null_vectors(x, y, {n: hom_space_basis(x.cat, x.term(n), y.term(n - 1))
                                for n in _homotopy_degrees(x, y)})


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
    vectors, built as chain maps only once chosen; null-homotopic maps are chain
    maps, so their number is chain_dim − null_dim.
    """
    kernel, chain_map = _chain_map_solve(x, y)
    null_rank, chosen = rank_extension(null_homotopic_space(x, y), kernel, x.cat.field)
    return HomotopyHom(len(chosen), len(kernel), null_rank, [chain_map(kernel[i]) for i in chosen])


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

    def mult(self, c: BoundedComplex) -> ChainMap:
        mc = self.on_complex(c)
        parts = {n: self.monad.mult.at(c.term(n)) for n in c.degrees()}
        return ChainMap(apply_functor_to_complex(self.monad.functor, mc), mc, parts)

    def section(self, sw: MonadSepWitness, c: BoundedComplex) -> ChainMap:
        mc = self.on_complex(c)
        parts = {n: sw.sigma.at(c.term(n)) for n in c.degrees()}
        return ChainMap(mc, apply_functor_to_complex(self.monad.functor, mc), parts)

    def validate_on(self, c: BoundedComplex, sw: MonadSepWitness | None = None) -> ValidationReport:
        """Monad (and optionally section) laws, degreewise on the sample complex.

        M, η, μ and σ act blockwise on a plain sum, so the laws are evaluated once per
        distinct place, a base summand of a plain term or a whole term with an idempotent,
        in one pass over `monads._monad_laws` (on slot maps at a base summand where
        `category.slot_map`'s lemma applies) and μ∘σ = Id; a degree fails a law exactly
        when one of its places does.  σ's chain-map law Mc → M²c is composed here;
        `derived_comparison_check` decides it by its lemma where that applies, and composes
        it where not.
        """
        return self._validate_on(c, sw)

    def _validate_on(self, c: BoundedComplex, sw: MonadSepWitness | None,
                     natural: bool = False) -> ValidationReport:
        """`validate_on`; σ's chain-map law holds by `derived_comparison_check`'s lemma if natural."""
        m = self.monad
        rep = ValidationReport(f"lifted monad on {c.name or 'complex'}")
        rep.merge(validate_complex(self.on_complex(c)))

        def places_of(t):  # a plain term's base summands; any other term, zero too, is one
            return [c.cat.obj(s) for s in t.summands] if t.idem is None and t.summands else [t]

        at = {n: places_of(c.term(n)) for n in c.degrees()}
        places = list(dict.fromkeys(p for ps in at.values() for p in ps))
        verdicts = {p: [] for p in places}
        for key, (p,), lhs, rhs in _monad_laws(m, places):
            verdicts[p].append((key, lhs == rhs))
        checks = {"associativity": ("associativity degreewise", str),
                  "left unit": ("unit laws degreewise", str),
                  "right unit": ("unit laws degreewise", str)}
        if sw is not None:
            checks["section"] = ("μ∘σ = Id degreewise", str)
            for p in places:
                verdicts[p].append(("section", m.mult.at(p) @ sw.sigma.at(p)
                                    == m.functor.on_object(p).identity()))
        laws = ((law[0][0], (n,), all(ok for _, ok in law), True)  # one law at n's places
                for n in c.degrees() for law in zip(*(verdicts[p] for p in at[n])))
        rep.record_laws(laws, checks)
        if sw is not None:
            rep.merge(_chain_report() if natural else self.section(sw, c).verify())
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
        reports = {k: checked(m, validate_module) for k, m in distinct.items()}
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

    Span: chain maps that are degreewise module morphisms, one solve with one
    unknown per element of `module_hom_basis(a_n, b_n)` in each degree, so only
    the chain squares are rows.  Null: dh + hd over the module homotopies, whose
    degree-n part runs over `module_hom_basis(a_n, b_{n−1})`.  Such a dh + hd is
    a chain map and, as a sum of composites of module morphisms, a module map, so
    null ⊆ span.  The bases are solved once per module pair, for this call only.
    """
    if a.monad is not b.monad:
        raise ValueError("modules over different monads")
    x, y = a.underlying, b.underlying
    field = x.cat.field
    bases = {}

    def basis(n, m) -> list:
        """The module morphisms a_n → b_m, as maps x_n → y_m; none if either is absent."""
        ma, mb = a.module(n), b.module(m)
        if ma is None or mb is None:
            return []
        key = id(ma), id(mb)
        if key not in bases:
            # module maps for the complexes' monad, whichever monad object a module names
            src, dst = (mod if mod.monad is a.monad else MModule(a.monad, mod.carrier, mod.action)
                        for mod in (ma, mb))
            bases[key] = [f.mor for f in module_hom_basis(src, dst)]
        return bases[key]

    sysm = MorSystem(field)

    def unknown(n):
        bs, first = basis(n, n), sysm.n
        if not bs:
            return zero_morphism(x.term(n), y.term(n))
        sysm.variables(len(bs))
        return _combination(bs, x.term(n), y.term(n), first)

    f, offsets = _chain_unknowns(sysm, x, y, unknown), _offsets(x, y)
    cols = [{} for _ in range(sysm.n)]  # per variable, its coefficients in the unknowns
    for n, u in f.items():
        _read_rows(u, offsets[n], cols)
    span = [_column_combination(cols, k) for k in sysm.solve().kernel]
    null = _null_vectors(x, y, {n: basis(n, n - 1) for n in _homotopy_degrees(x, y)})
    return len(rank_extension(null, span, field)[1])


def _column_combination(cols: list, k) -> dict:
    """Σ_j k_j·cols[j] as a sparse row, entries summed over j in order as `LinForm.eval` sums."""
    row = {}
    for kj, col in zip(k, cols):
        for pos, c in col.items() if kj else ():
            row[pos] = row[pos] + c * kj if pos in row else c * kj
    return {pos: v for pos, v in sorted(row.items()) if v}


def lifted_module_hom_dim(a: ModuleComplex, b: ModuleComplex) -> int:
    """d₂: hom dimension of module objects over the lifted monad in the homotopy category.

    The kernel of [f] ↦ [f∘λ − λ'∘M(f)], K(x, y) → K(Mx, y), which is well defined
    as a null-homotopic f = dk + kd maps to d(kλ − λ'M(k)) + (kλ − λ'M(k))d.  Its
    dimension is dim K(x, y) less the rank of the map: the number of defects of the
    `kb_hom_basis` representatives, flattened over (Mx, y), that `rank_extension`
    picks as extending `null_homotopic_space(Mx, y)`.  Each degree is composed once, on
    F = Σ vᵢ·repᵢ: the defect is linear, so repᵢ's is the coefficient row of vᵢ.
    """
    if a.monad is not b.monad:
        raise ValueError("modules over different monads")
    mf = a.monad.functor
    x, y = a.underlying, b.underlying
    reps = kb_hom_basis(x, y).representatives
    if not reps:
        return 0
    mx = apply_functor_to_complex(mf, x)
    defects = [{} for _ in reps]
    for n, offset in _offsets(mx, y).items():
        f = _combination([rep.part(n) for rep in reps], x.term(n), y.term(n))
        _read_rows(f @ a.action_at(n) - b.action_at(n) @ mf.on_morphism(f), offset, defects)
    return len(reps) - len(rank_extension(null_homotopic_space(mx, y), defects, x.cat.field)[1])


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


def _lemma_applies(monad: Monad, sw: MonadSepWitness) -> bool:
    """The call-wide preconditions of `derived_comparison_check`'s lemma: σ: M → M² and
    η: Id → M over this monad, M a functor and η, σ natural on basis morphisms, each
    validated once (`reports.checked`)."""
    mf = monad.functor
    return (sw.monad is monad and sw.sigma.src.equals(mf) and sw.sigma.dst.equals(monad.squared)
            and monad.unit.dst.equals(mf) and monad.unit.src.equals(Functor.identity(monad.cat))
            and checked(mf, validate_functor).passed and checked(monad.unit, validate_nat).passed
            and checked(sw.sigma, validate_nat).passed)


def derived_comparison_check(action, samples, monad: Monad | None = None,
                             sigma: MonadSepWitness | None = None) -> ValidationReport:
    """Compare the two hom dimensions d₁ and d₂ on every ordered pair of sampled
    module complexes.

    d₁ is computed in the homotopy category of module complexes, d₂ for module
    objects over the lifted monad; the report also carries a verified
    retract-of-free witness per sample.  A sample that fails validation is
    recorded as failed and takes part in no hom or retract check.  The monad
    defaults to the action's group monad.  Raises MonadNotSeparableError when
    no section σ exists.

    The lemma that decides σ's chain-map law Mx → M²x and the sample's "retract of
    free cover" without composing either:
    - σ natural on basis morphisms is natural on every morphism of plain sums, as M,
      M² and σ act on a plain sum blockwise and M is linear: σ∘M(d) = M²(d)∘σ.
    - With s = M(λ)∘σ∘η and r = λ, s commutes with d: M(d)∘s_n = M(d∘λ_n)∘σ∘η =
      M(λ_{n+1})∘M²(d)∘σ∘η = M(λ_{n+1})∘σ∘M(d)∘η = s_{n+1}∘d, by functoriality, the
      module-map law d∘λ = λ∘M(d), and the naturality of σ and η.  r commutes with d
      by the module-map law itself.  λ∘s = λ∘M(λ)∘σ∘η = λ∘μ∘σ∘η = λ∘η = Id by the
      module laws and μ∘σ = Id at every place of the sample.
    It applies to a sample whose module complex validated, whose terms are all plain
    sums, whose complex and modules are over this monad, and whose lifted laws passed,
    in a call where M is a functor and η and σ are natural (`_lemma_applies`).  Every
    other sample, and every sample of a call where a precondition fails, composes
    both checks, so a failure reads exactly as the composed checks give it.
    """
    if monad is None:
        monad = action.group_monad
    if sigma is None:
        res = monad_separability_solve(monad)
        if not isinstance(res, MonadSepWitness):
            raise MonadNotSeparableError(f"no section of μ exists: {res!r}")
        sigma = res
    rep = ValidationReport(f"comparison check for {getattr(action, 'name', '')}")
    samples = list(samples)
    valid = []
    for mc in samples:
        v = mc.validate()
        rep.record(f"sample {mc.name or repr(mc)} validates", v.passed,
                   "; ".join(n for n, _ in v.failures()))
        valid.append(v.passed)
    lifted, natural, by_lemma = LiftedMonad(monad), _lemma_applies(monad, sigma), []
    for mc, ok in zip(samples, valid):
        lemma = (natural and ok and mc.monad is monad
                 and all(m.monad is monad for m in mc.modules.values())
                 and all(t.idem is None for t in mc.underlying.terms.values()))
        v = lifted._validate_on(mc.underlying, sigma, lemma)
        rep.merge(v)
        by_lemma.append(lemma and v.passed)
    for i, j in itertools.product(range(len(samples)), repeat=2):
        if not (valid[i] and valid[j]):
            continue  # a hom and a retract need module complexes; the failed sample is recorded
        d1 = module_chain_hom_dim(samples[i], samples[j])
        d2 = lifted_module_hom_dim(samples[i], samples[j])
        rep.record(f"d₁ = d₂ for ({samples[i].name or i}, {samples[j].name or j})",
                   d1 == d2, f"d₁={d1}, d₂={d2}")
    for mc, ok in itertools.compress(zip(samples, by_lemma), valid):
        detail = ""
        if not ok:
            rw = module_complex_retract(sigma, mc)[2]
            ok, detail = rw.passed, "; ".join(n for n, _ in rw.failures())
        rep.record(f"retract of free cover: {mc.name or repr(mc)}", ok, detail)
    return rep


def random_module_complex(monad: Monad, pool, length: int, rng, name: str = "") -> ModuleComplex:
    """A random bounded complex of modules from the pool, with d² = 0 by construction:
    each differential is a random combination of a basis of the module maps that
    vanish after the previous differential."""
    if not pool:
        raise ValueError("empty module pool")
    field, mf = monad.cat.field, monad.functor
    mods = {n: pool[rng.randrange(len(pool))] for n in range(length)}
    diffs = {}
    prev = None
    for n in range(length - 1):
        sysm = MorSystem(field)
        f = sysm.unknown(mods[n].carrier, mods[n + 1].carrier)
        sysm.require_equal(f @ mods[n].action, mods[n + 1].action @ mf.on_morphism(f),
                           "module law")
        if prev is not None:
            sysm.require_equal(f @ prev, zero_morphism(prev.dom, mods[n + 1].carrier), "d²=0")
        d = zero_morphism(mods[n].carrier, mods[n + 1].carrier)
        for b in sysm.kernel_basis(f):
            c = rng.randint(-2, 2)
            if c:
                d = d + b.scale(field.from_int(c))
        diffs[n] = d
        prev = d
    return ModuleComplex(monad, mods, diffs, name=name or f"random[{length}]")

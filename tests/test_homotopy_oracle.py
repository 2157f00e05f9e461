"""Homotopy-category hom dimensions as one quotient, against the kernel counts it replaced.

`module_chain_hom_dim` (d₁), `lifted_module_hom_dim` (d₂) and `kb_hom_basis`
each count the span vectors that extend the null-homotopic vectors.
`reference_d1` and `reference_d2` are the earlier formulas, kept here verbatim
as the oracle:
  - d₁ = k1 − (n_modh − k0), three kernel dimensions;
  - d₂ = k_joint − k_h − null_rank, two kernel dimensions and a rank.
The vectors d₁ and d₂ hand to `rank_extension` are sparse rows, each family read
off one composition per degree on `LinForm` coordinates.  Each must be exactly
the nonzero entries, scalar types and order included, of the vectors the earlier
code built concretely, one map at a time:
  - `reference_null_vectors` composes dh + hd per basis homotopy;
  - `reference_d1_span` puts each kernel vector into d₁'s unknowns with
    `MorSystem.eval_at`, the unknowns built by `reference_combination`;
  - `reference_defects` composes f∘λ − λ'∘M(f) per chain map.
d₂ rests on two facts checked here as well: each chain-map kernel vector is its
map's coordinates, and f ↦ f∘λ − λ'∘M(f) sends null-homotopic maps to
null-homotopic ones.  Random module complexes of length 1–4 are compared over
several monads, with the second complex shifted against the first, on semisimple
bases and on the A2 quiver over Q, F_3 and F_5, where the homotopy category is
D^b(mod kA₂), and with terms that are Karoubi objects, the summands of a free
module split off by an idempotent.  On A2 a hypothesis test also draws complexes
under the trivial and the sign Z/2 action and requires d₁ = d₂ outright.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepcat.complexes
from sepcat import (Field, FiniteGroup, GroupAction, MModule, MonadNotSeparableError, Morphism,
                    derived_comparison_check, equivariant_monad, free_module, kb_hom_basis,
                    lifted_module_hom_dim, module_chain_hom_dim, random_module_complex)
from sepcat.category import MorSystem, hom_space_basis, morphism, split_idempotent, zero_morphism
from sepcat.complexes import (ChainMap, ModuleComplex, _chain_map_solve, _chain_unknowns,
                              _homotopy_degrees, _span_degrees, apply_functor_to_complex,
                              chain_map_space, null_homotopic_space)
from sepcat.equivariant import character_modules
from sepcat.linalg import LinForm, rank_extension
from sepcat.modules import module_hom_basis, validate_module
from sepcat.standard import a2_quiver_category
from test_adjunction_formula_oracle import sign_action_on_a2


def homotopy_output_coords(x, y, h_parts):
    """Coordinates of dh + hd in the flattened chain-map coordinate space."""
    out = []
    for n in _span_degrees(x, y):
        m = (y.diff(n - 1) @ h_parts[n]) + (h_parts[n + 1] @ x.diff(n))
        out.extend(m.coords())
    return out


def reference_null_vectors(x, y, basis=None):
    """One vector dh + hd per homotopy h that is a basis element in one degree and
    zero in the others, composed concretely, one homotopy at a time; basis(n) is the
    family of maps x_n → y_{n−1}, by default `hom_space_basis`."""
    degs = _homotopy_degrees(x, y)
    zeros = {m: zero_morphism(x.term(m), y.term(m - 1)) for m in degs}
    basis = basis or (lambda n: hom_space_basis(x.cat, x.term(n), y.term(n - 1)))
    return [homotopy_output_coords(x, y, {**zeros, n: b}) for n in degs for b in basis(n)]


def assert_rows_are(rows, vectors):
    """The sparse rows are the dense vectors' nonzero entries in value, scalar type and order."""
    want = [[(i, v) for i, v in enumerate(vec) if v] for vec in vectors]
    assert [list(row.items()) for row in rows] == want
    assert [[type(v) for v in row.values()] for row in rows] == \
        [[type(v) for _, v in entries] for entries in want]


def reference_combination(basis, dom, cod, first=0):
    """Σ v_{first+i}·basis[i] with `LinForm` coordinates, scanned coordinate by coordinate."""
    cat = dom.cat
    zero = cat.zero
    coords = [LinForm(zero, {first + i: c for i, c in enumerate(col) if c}) if any(col) else zero
              for col in zip(*(b.coords() for b in basis))]
    return Morphism.from_coords(cat, dom, cod, coords)


def module_maps(a, b, n, m):
    """A basis of the module maps a_n → b_m, as maps of carriers; none if either is absent."""
    ma, mb = a.module(n), b.module(m)
    if ma is None or mb is None:
        return []
    src, dst = (MModule(a.monad, mod.carrier, mod.action) for mod in (ma, mb))
    return [f.mor for f in module_hom_basis(src, dst)]


def reference_d1_span(a, b):
    """d₁'s span vectors as built concretely: the chain-square kernel vectors put into
    the module-hom unknowns by `MorSystem.eval_at`, flattened over `_span_degrees`."""
    x, y = a.underlying, b.underlying
    sysm = MorSystem(x.cat.field)

    def unknown(n):
        bs, first = module_maps(a, b, n, n), sysm.n
        sysm.variables(len(bs))
        return (reference_combination(bs, x.term(n), y.term(n), first) if bs
                else zero_morphism(x.term(n), y.term(n)))

    unknowns = _chain_unknowns(sysm, x, y, unknown).values()
    return [[c for u in unknowns for c in MorSystem.eval_at(u, k, with_const=False).coords()]
            for k in sysm.solve().kernel]


def reference_defects(a, b, maps):
    """The defect f∘λ − λ'∘M(f) of each chain map x → y, composed concretely, one map
    at a time, flattened over (Mx, y)."""
    span = _span_degrees(apply_functor_to_complex(a.monad.functor, a.underlying), b.underlying)
    return [[c for n in span for c in _defect(a, b, f.part(n), n).coords()] for f in maps]


def reference_null_rank(x, y):
    rank, _ = rank_extension(reference_null_vectors(x, y), [], x.cat.field)
    return rank


def reference_d1(a, b):
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


def reference_d2(a, b):
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
    return k_joint - k_h - reference_null_rank(x, y)


def _characters_f3(monad):
    """Trivial and sign modules of Z/2 over F_3: λ = (1, ±1) on M(pt) = pt ⊕ pt."""
    cat = monad.cat
    pt, one = cat.obj("pt"), cat.field.one()
    mods = [MModule(monad, pt, Morphism(cat, monad.functor.on_object(pt), pt,
                                        (((one,), (sign * one,)),)), name=name)
            for name, sign in (("triv", 1), ("sign", -1))]
    assert all(validate_module(m).passed for m in mods)
    return mods


def _karoubi_summands(monad):
    """The summands of F(pt) that e = (1 + g)/2 and 1 − e split off, g the swap of
    M(pt) = pt ⊕ pt; each acts by the blocks of F(pt)'s action μ."""
    cat, field = monad.cat, monad.cat.field
    free = free_module(monad, cat.obj("pt"))
    x, zero, one = free.carrier, field.zero(), field.one()
    g = Morphism(cat, x, x, (((zero,), (one,)), ((one,), (zero,))))
    e = (x.identity() + g).scale(field.inv_int(2))
    mods = []
    for name, idem in (("e", e), ("1 - e", x.identity() - e)):
        small = split_idempotent(x, idem).small
        mods.append(MModule(monad, small, morphism(cat, monad.functor.on_object(small), small,
                                                   free.action.blocks), name=name))
    assert all(validate_module(m).passed and m.carrier.idem is not None for m in mods)
    return mods


def _setup(act, extra=None):
    monad = equivariant_monad(act)
    pool = [free_module(monad, act.base.obj(x)) for x in act.base.objects]
    pool += extra(monad) if extra else character_modules(act, monad=monad)
    return monad, pool


def trivial_z2_on_a2(field):
    return GroupAction.trivial(FiniteGroup.cyclic(2), a2_quiver_category(field),
                               name="Z2 on A2")


def free_only(monad):
    return []


@pytest.fixture(scope="module")
def setups(act_z2_q, act_z3_q, act_z3_qw, act_swap_q, c1_f3, QQ, F3):
    act_z2_f3 = GroupAction.trivial(FiniteGroup.cyclic(2), c1_f3, name="Z2 on C1/F3")
    return {
        "Z2 on C1/Q": _setup(act_z2_q),
        "Z3 on C1/Q": _setup(act_z3_q),
        "Z2 on C1/F3": _setup(act_z2_f3, _characters_f3),
        "Z3 on Cw/Q": _setup(act_z3_qw),
        "swap Z2 on C3/Q": _setup(act_swap_q, free_only),
        # over F_3 the pool is the free modules: `character_modules` enumerates over Q only
        "Z2 on A2/Q": _setup(trivial_z2_on_a2(QQ)),
        "sign Z2 on A2/Q": _setup(sign_action_on_a2(QQ)),
        "Z2 on A2/F3": _setup(trivial_z2_on_a2(F3), free_only),
        "sign Z2 on A2/F3": _setup(sign_action_on_a2(F3), free_only),
        "Z2 on A2/F5": _setup(trivial_z2_on_a2(Field.prime(5)), free_only),
        "sign Z2 on A2/F5": _setup(sign_action_on_a2(Field.prime(5)), free_only),
        "Z2 on C1/Q, Karoubi": _setup(act_z2_q, _karoubi_summands),
    }


CASES = ["Z2 on C1/Q", "Z3 on C1/Q", "Z2 on C1/F3", "Z3 on Cw/Q", "swap Z2 on C3/Q",
         "Z2 on A2/Q", "sign Z2 on A2/Q", "Z2 on A2/F3", "sign Z2 on A2/F3", "Z2 on A2/F5",
         "Z2 on C1/Q, Karoubi"]


def shifted(c, s):
    return ModuleComplex(c.monad, {n + s: m for n, m in c.modules.items()},
                         {n + s: d for n, d in c.underlying.diffs.items()}, name=f"{c.name}[{s}]")


def sample_pairs(monad, pool, seed, count=12):
    """Random pairs (A, B[s]) of lengths 1–4, B shifted by s ∈ [−2, 2]."""
    rng = random.Random(seed)
    for _ in range(count):
        a = random_module_complex(monad, pool, rng.randint(1, 4), rng, name="A")
        b = random_module_complex(monad, pool, rng.randint(1, 4), rng, name="B")
        yield a, shifted(b, rng.randint(-2, 2))


@pytest.mark.parametrize("case", CASES)
def test_d1_and_d2_match_kernel_difference_formulas(setups, case):
    monad, pool = setups[case]
    for a, b in sample_pairs(monad, pool, seed=CASES.index(case)):
        want1, want2 = reference_d1(a, b), reference_d2(a, b)
        assert module_chain_hom_dim(a, b) == want1, (a, b)
        assert lifted_module_hom_dim(a, b) == want2, (a, b)


@pytest.mark.parametrize("case", CASES)
def test_null_vectors_are_the_concrete_compositions(setups, case):
    """Each null vector is the per-basis-homotopy dh + hd, in value, scalar type and order."""
    monad, pool = setups[case]
    for a, b in sample_pairs(monad, pool, seed=CASES.index(case)):
        for x, y in ((a.underlying, b.underlying), (b.underlying, a.underlying)):
            assert_rows_are(null_homotopic_space(x, y), reference_null_vectors(x, y))


@pytest.mark.parametrize("case", CASES)
def test_handed_rows_are_the_concrete_compositions(setups, case, monkeypatch):
    """What d₁ and d₂ hand to `rank_extension`, read off one composition per degree, is
    what composing map by map gives: d₁'s null vectors over the module homotopies and its
    span vectors, and d₂'s null vectors over (Mx, y) and the defects of the `kb_hom_basis`
    representatives, each in value, scalar type and order."""
    monad, pool = setups[case]
    calls, real = [], sepcat.complexes.rank_extension

    def recording(base, candidates, field):
        calls.append((base, candidates))
        return real(base, candidates, field)

    monkeypatch.setattr(sepcat.complexes, "rank_extension", recording)
    spans = defects = 0
    for a, b in sample_pairs(monad, pool, seed=CASES.index(case)):
        x, y = a.underlying, b.underlying
        calls.clear()
        module_chain_hom_dim(a, b)
        ((null, span),) = calls
        assert_rows_are(null, reference_null_vectors(x, y, lambda n: module_maps(a, b, n, n - 1)))
        assert_rows_are(span, reference_d1_span(a, b))
        reps = kb_hom_basis(x, y).representatives
        calls.clear()
        lifted_module_hom_dim(a, b)
        assert len(calls) == 1 + bool(reps)  # kb_hom_basis's, then the defects' if any
        if reps:
            mx = apply_functor_to_complex(monad.functor, x)
            assert_rows_are(calls[1][0], reference_null_vectors(mx, y))
            assert_rows_are(calls[1][1], reference_defects(a, b, reps))
        spans += len(span)
        defects += sum(map(bool, calls[-1][1])) if reps else 0
    assert spans and defects


def test_cases_cover_nonzero_homs_and_null_spaces(setups):
    """The oracle comparisons above are not vacuous: every case has a pair with d₁ = d₂ > 0,
    and some pairs have null maps and homs between shifted complexes."""
    seen = []
    for case in CASES:
        monad, pool = setups[case]
        pairs = [(reference_d1(a, b), reference_d2(a, b), a, b)
                 for a, b in sample_pairs(monad, pool, seed=CASES.index(case))]
        assert any(d1 == d2 > 0 for d1, d2, _, _ in pairs), case
        seen += [(d1, reference_null_rank(a.underlying, b.underlying),
                  b.underlying.lo - a.underlying.lo) for d1, _, a, b in pairs]
    assert any(null for _, null, _ in seen)
    assert any(d and shift for d, _, shift in seen)


def test_karoubi_stalks_count_module_maps(setups):
    """On stalks, d₁ and d₂ are module-hom dimensions: F(pt) ≅ e ⊕ (1 − e), with
    non-isomorphic summands, though each summand's carrier is isomorphic to pt."""
    monad, pool = setups["Z2 on C1/Q, Karoubi"]
    stalks = [ModuleComplex(monad, {0: m}, {}, name=m.name) for m in pool]
    want = [[2, 1, 1], [1, 1, 0], [1, 0, 1]]
    assert [[reference_d1(a, b) for b in stalks] for a in stalks] == want
    assert [[reference_d2(a, b) for b in stalks] for a in stalks] == want
    assert [[module_chain_hom_dim(a, b) for b in stalks] for a in stalks] == want
    assert [[lifted_module_hom_dim(a, b) for b in stalks] for a in stalks] == want


@pytest.mark.parametrize("case", CASES)
def test_kb_representatives_are_independent_chain_maps(setups, case):
    monad, pool = setups[case]
    for a, b in sample_pairs(monad, pool, seed=10 + CASES.index(case)):
        x, y = a.underlying, b.underlying
        hom = kb_hom_basis(x, y)
        assert all(rep.verify().passed for rep in hom.representatives)
        assert hom.dim == hom.chain_dim - reference_null_rank(x, y)
        rep_vectors = [[c for n in _span_degrees(x, y) for c in rep.part(n).coords()]
                       for rep in hom.representatives]
        _, chosen = rank_extension(null_homotopic_space(x, y), rep_vectors, x.cat.field)
        assert chosen == list(range(hom.dim))


@pytest.mark.parametrize("case", CASES)
def test_chain_map_kernel_vectors_are_their_maps_coordinates(setups, case):
    """`kb_hom_basis` ranks the kernel vectors of the chain-map solve as they come: each
    is its chain map's coordinates flattened over `_span_degrees`, in `coords()` order,
    and `chain_map_space` builds exactly those maps from the same solve."""
    monad, pool = setups[case]
    seen = 0
    for a, b in sample_pairs(monad, pool, seed=20 + CASES.index(case)):
        for x, y in ((a.underlying, b.underlying), (b.underlying, a.underlying)):
            kernel, chain_map = _chain_map_solve(x, y)
            maps = chain_map_space(x, y)
            assert len(maps) == len(kernel)
            for k, f in zip(kernel, maps):
                assert f == chain_map(k) and f.verify().passed
                assert [c for n in _span_degrees(x, y) for c in f.part(n).coords()] == k
            seen += len(kernel)
    assert seen


def _defect(a, b, f, n):
    """The defect f∘λ − λ'∘M(f) of f: x_n → y_n."""
    return f @ a.action_at(n) - b.action_at(n) @ a.monad.functor.on_morphism(f)


@pytest.mark.parametrize("case", CASES)
def test_defect_map_is_well_defined_on_homotopy_classes(setups, case):
    """d₂ ranks defects of representatives only: the defect of every chain map x → y is a
    chain map Mx → y, and the defect of a null-homotopic dk + kd is exactly dk' + k'd
    for k' = kλ − λ'M(k), so [f] ↦ [f∘λ − λ'∘M(f)] is a map K(x, y) → K(Mx, y)."""
    monad, pool = setups[case]
    mf, nonzero = monad.functor, 0
    for a, b in sample_pairs(monad, pool, seed=30 + CASES.index(case)):
        x, y = a.underlying, b.underlying
        mx, span = apply_functor_to_complex(mf, x), _span_degrees(x, y)
        for f in chain_map_space(x, y):
            assert ChainMap(mx, y, {n: _defect(a, b, f.part(n), n) for n in span}).verify().passed
        degs = _homotopy_degrees(x, y)
        zeros = {m: zero_morphism(x.term(m), y.term(m - 1)) for m in degs}
        for n in degs:
            for k in hom_space_basis(x.cat, x.term(n), y.term(n - 1)):
                h = {**zeros, n: k}
                kd = {m: h[m] @ a.action_at(m) - b.action_at(m - 1) @ mf.on_morphism(h[m])
                      for m in degs}
                for m in span:
                    f_m = (y.diff(m - 1) @ h[m]) + (h[m + 1] @ x.diff(m))
                    got = _defect(a, b, f_m, m)
                    assert got == (y.diff(m - 1) @ kd[m]) + (kd[m + 1] @ mx.diff(m))
                    nonzero += any(got.coords())
    assert nonzero


@pytest.mark.parametrize("action", [trivial_z2_on_a2, sign_action_on_a2])
def test_a2_over_f2_has_no_section_of_mu(action):
    """The negative control: char 2 divides |Z/2|, so no σ exists and nothing is compared."""
    act = action(Field.prime(2))
    monad, pool = _setup(act, free_only)
    samples = [random_module_complex(monad, pool, 2, random.Random(seed)) for seed in range(2)]
    with pytest.raises(MonadNotSeparableError):
        derived_comparison_check(act, samples, monad=monad)


A2_CASES = ["Z2 on A2/Q", "sign Z2 on A2/Q", "Z2 on A2/F3", "sign Z2 on A2/F3", "Z2 on A2/F5",
            "sign Z2 on A2/F5"]


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(A2_CASES), rng=st.randoms(use_true_random=False),
       lengths=st.tuples(st.integers(1, 4), st.integers(1, 4)), shift=st.integers(-2, 2))
def test_random_a2_complexes_validate_and_d1_equals_d2(setups, case, rng, lengths, shift):
    """Random module complexes on A2, where the homotopy category is D^b(mod kA₂), under
    the trivial and the sign Z/2 action: over Q from the character pool, over F_3 and F_5
    from the free modules.  Each validates, and d₁ = d₂ both ways."""
    monad, pool = setups[case]
    a = random_module_complex(monad, pool, lengths[0], rng, name="A")
    b = shifted(random_module_complex(monad, pool, lengths[1], rng, name="B"), shift)
    for c in (a, b):
        assert c.validate().passed, c
    for x, y in ((a, b), (b, a)):
        assert module_chain_hom_dim(x, y) == lifted_module_hom_dim(x, y), (x, y)

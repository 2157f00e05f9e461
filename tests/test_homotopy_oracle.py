"""Homotopy-category hom dimensions as one quotient, against the kernel counts it replaced.

`module_chain_hom_dim` (d₁), `lifted_module_hom_dim` (d₂) and `kb_hom_basis`
each count the span vectors that extend the null-homotopic vectors.
`reference_d1` and `reference_d2` are the earlier formulas, kept here verbatim
as the oracle:
  - d₁ = k1 − (n_modh − k0), three kernel dimensions;
  - d₂ = k_joint − k_h − null_rank, two kernel dimensions and a rank.
`reference_null_vectors` composes dh + hd concretely, one basis homotopy at a
time; `null_homotopic_space`, which composes each degree once on `LinForm`
homotopies, must return exactly its vectors, scalar types included.
Random module complexes of length 1–4 are compared over several monads, with
the second complex shifted against the first, on semisimple bases and on the
A2 quiver, where the homotopy category is D^b(mod kA₂).  On the same complexes,
each span system's kernel in reversed column order (`MorSystem.kernel_span`)
must span what `solve().kernel` spans.
"""

import random

import pytest

from sepcat import (Field, FiniteGroup, GroupAction, MModule, MonadNotSeparableError, Morphism,
                    derived_comparison_check, equivariant_monad, free_module, kb_hom_basis,
                    lifted_module_hom_dim, module_chain_hom_dim, random_module_complex)
from sepcat.category import MorSystem, hom_space_basis, zero_morphism
from sepcat.complexes import (ModuleComplex, _homotopy_degrees, _span_degrees,
                              apply_functor_to_complex, null_homotopic_space)
from sepcat.equivariant import character_modules
from sepcat.linalg import rank_extension
from sepcat.modules import validate_module
from sepcat.standard import a2_quiver_category
from test_adjunction_formula_oracle import sign_action_on_a2


def homotopy_output_coords(x, y, h_parts):
    """Coordinates of dh + hd in the flattened chain-map coordinate space."""
    out = []
    for n in _span_degrees(x, y):
        m = (y.diff(n - 1) @ h_parts[n]) + (h_parts[n + 1] @ x.diff(n))
        out.extend(m.coords())
    return out


def reference_null_vectors(x, y):
    """One vector dh + hd per homotopy h that is a `hom_space_basis` element in one
    degree and zero in the others, composed concretely, one homotopy at a time."""
    degs = _homotopy_degrees(x, y)
    zeros = {m: zero_morphism(x.term(m), y.term(m - 1)) for m in degs}
    return [homotopy_output_coords(x, y, {**zeros, n: b})
            for n in degs for b in hom_space_basis(x.cat, x.term(n), y.term(n - 1))]


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
    }


CASES = ["Z2 on C1/Q", "Z3 on C1/Q", "Z2 on C1/F3", "Z3 on Cw/Q", "swap Z2 on C3/Q",
         "Z2 on A2/Q", "sign Z2 on A2/Q", "Z2 on A2/F3", "sign Z2 on A2/F3"]


def shifted(c, s):
    return ModuleComplex(c.monad, {n + s: m for n, m in c.modules.items()},
                         {n + s: d for n, d in c.underlying.diffs.items()}, name=f"{c.name}[{s}]")


def sample_pairs(monad, pool, seed, count=8):
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
            got, want = null_homotopic_space(x, y), reference_null_vectors(x, y)
            assert got == want
            assert [list(map(type, v)) for v in got] == [list(map(type, v)) for v in want]


@pytest.mark.parametrize("case", CASES)
def test_reversed_span_kernels_span_the_solved_kernels(setups, case, monkeypatch):
    """Each span system of d₁ and d₂, eliminated in reversed column order, gives back
    a kernel that spans what `solve().kernel` spans, in both directions."""
    systems = []
    real = MorSystem.kernel_span

    def recording(sysm):
        systems.append(sysm)
        return real(sysm)

    monkeypatch.setattr(MorSystem, "kernel_span", recording)
    monad, pool = setups[case]
    for a, b in sample_pairs(monad, pool, seed=CASES.index(case)):
        module_chain_hom_dim(a, b), lifted_module_hom_dim(a, b)
    monkeypatch.undo()
    # one chain-square system for d₁ and one joint system for d₂ per pair
    assert len(systems) == 2 * 8
    field = monad.cat.field
    for sysm in systems:
        reordered, solved = sysm.kernel_span(), sysm.solve().kernel
        assert len(reordered) == len(solved)
        assert rank_extension(solved, reordered, field)[1] == []
        assert rank_extension(reordered, solved, field)[1] == []
    assert any(sysm.solve().kernel for sysm in systems)


def test_cases_cover_nonzero_homs_and_null_spaces(setups):
    """The oracle comparisons above are not vacuous: some pairs have homs, null maps and offsets."""
    seen = []
    for case in CASES:
        monad, pool = setups[case]
        for a, b in sample_pairs(monad, pool, seed=CASES.index(case)):
            seen.append((reference_d1(a, b), reference_null_rank(a.underlying, b.underlying),
                         b.underlying.lo - a.underlying.lo))
    assert any(d for d, _, _ in seen)
    assert any(null for _, null, _ in seen)
    assert any(d and shift for d, _, shift in seen)


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


@pytest.mark.parametrize("action", [trivial_z2_on_a2, sign_action_on_a2])
def test_a2_over_f2_has_no_section_of_mu(action):
    """The negative control: char 2 divides |Z/2|, so no σ exists and nothing is compared."""
    act = action(Field.prime(2))
    monad, pool = _setup(act, free_only)
    samples = [random_module_complex(monad, pool, 2, random.Random(seed)) for seed in range(2)]
    with pytest.raises(MonadNotSeparableError):
        derived_comparison_check(act, samples, monad=monad)

"""Oracle for `derived_comparison_check`'s lemma path: σ's chain-map law and the
retract of the free cover, recorded as holding without composing, give the same
report as composing them.

`reference` is the check as it was composed before the lemma: `validate_on`,
which composes σ's chain-map law Mx → M²x, and `module_complex_retract`, which
composes s, r and λ∘s on the whole free cover, for every sample.  The two must
agree on every check, its name, its count and its failure detail:
  - on random module complexes over Z/2 and Z/3 on C1, over Q and over F_p with
    p ∤ |G|, where the lemma applies to every sample;
  - on Z/3 on Cw and the trivial and sign Z/2 actions on the A2 quiver, where σ's
    and η's naturality squares are not only identities;
  - on a σ that is not natural but keeps μ∘σ = Id, on a broken η and on an M that
    breaks a functor law, where the whole call composes;
  - on terms with an idempotent, and on a sample that fails validation, which
    compose whatever the call.
Each sample's path is counted: σ's chain-map law and the retract are composed
exactly for the samples the lemma's preconditions exclude.
"""

import itertools
import random

import pytest

import sepcat.complexes
from sepcat import (Field, FiniteGroup, Functor, GroupAction, LiftedMonad, MModule,
                    ModuleComplex, Monad, MonadSepWitness, Morphism, NatTrans, compose_functors,
                    free_module, lifted_module_hom_dim, module_chain_hom_dim,
                    module_complex_retract, monad_separability_solve, random_module_complex)
from sepcat.complexes import derived_comparison_check
from sepcat.equivariant import character_modules
from sepcat.functors import validate_functor, validate_nat
from sepcat.reports import ValidationReport
from test_adjunction_formula_oracle import sign_action_on_a2
from test_failure_reports import bumped
from test_homotopy_oracle import _karoubi_summands, trivial_z2_on_a2
from test_lifted_laws_oracle import pool

QQ = Field.rationals()


def reference(action, samples, monad, sigma):
    """The derived check with σ's chain-map law and every retract composed."""
    rep = ValidationReport(f"comparison check for {getattr(action, 'name', '')}")
    valid = []
    for mc in samples:
        v = mc.validate()
        rep.record(f"sample {mc.name or repr(mc)} validates", v.passed,
                   "; ".join(n for n, _ in v.failures()))
        valid.append(v.passed)
    lifted = LiftedMonad(monad)
    for mc in samples:
        rep.merge(lifted.validate_on(mc.underlying, sigma))
    for i, j in itertools.product(range(len(samples)), repeat=2):
        if valid[i] and valid[j]:
            d1 = module_chain_hom_dim(samples[i], samples[j])
            d2 = lifted_module_hom_dim(samples[i], samples[j])
            rep.record(f"d₁ = d₂ for ({samples[i].name or i}, {samples[j].name or j})",
                       d1 == d2, f"d₁={d1}, d₂={d2}")
    for mc in itertools.compress(samples, valid):
        _, _, rw = module_complex_retract(sigma, mc)
        rep.record(f"retract of free cover: {mc.name or repr(mc)}", rw.passed,
                   "; ".join(n for n, _ in rw.failures()))
    return rep


def by_lemma(monad, sigma, mc) -> bool:
    """Whether the lemma decides mc's σ chain-map law: M a functor, η and σ natural,
    mc validated, over this monad and with plain terms."""
    mf = monad.functor
    fits = all(f.dom == mf.object_map[x] and f.cod == mf.object_map[y]
               for (x, y), fs in mf.hom_map.items() for f in fs)
    return (fits and validate_functor(mf).passed and validate_nat(monad.unit).passed
            and validate_nat(sigma.sigma).passed and mc.validate().passed
            and mc.monad is monad and all(m.monad is monad for m in mc.modules.values())
            and all(t.idem is None for t in mc.underlying.terms.values()))


def assert_agrees(monkeypatch, action, samples, monad, sigma):
    """The derived report is the reference's, check by check, and each sample composes
    σ's chain-map law and its retract exactly where the lemma does not decide them."""
    composed = {"section": [], "retract": []}
    section, retract = LiftedMonad.section, sepcat.complexes.module_complex_retract

    def counted_section(self, sw, c):
        composed["section"].append(c.name)
        return section(self, sw, c)

    def counted_retract(sw, a):
        composed["retract"].append(a.name)
        return retract(sw, a)

    with monkeypatch.context() as mp:
        mp.setattr(LiftedMonad, "section", counted_section)
        mp.setattr(sepcat.complexes, "module_complex_retract", counted_retract)
        got = derived_comparison_check(action, samples, monad=monad, sigma=sigma)
    want = reference(action, samples, monad, sigma)
    assert got.checks == want.checks
    lemma = {mc.name: by_lemma(monad, sigma, mc) for mc in samples}
    lifted = {mc.name: LiftedMonad(monad).validate_on(mc.underlying, sigma).passed
              for mc in samples}
    assert composed["section"] == [mc.name for mc in samples if not lemma[mc.name]]
    assert composed["retract"] == [mc.name for mc in samples if mc.validate().passed
                                   and not (lemma[mc.name] and lifted[mc.name])]
    return got


def random_samples(monad, mods, rng, count=3, lengths=(1, 2, 3, 4)):
    """count random module complexes from the pool, of lengths drawn from `lengths`."""
    return [random_module_complex(monad, mods, rng.choice(lengths), rng, name=f"r{i}")
            for i in range(count)]


def witness(monad):
    w = monad_separability_solve(monad)
    assert isinstance(w, MonadSepWitness)
    return w


C1_CASES = [("Z/2", 2, 0), ("Z/3", 3, 0), ("Z/2", 2, 3), ("Z/3", 3, 2), ("Z/3", 3, 5)]


@pytest.mark.parametrize("group, order, char", C1_CASES)
def test_random_complexes_on_the_point_take_the_lemma(monkeypatch, group, order, char):
    from sepcat.standard import point_category
    field = QQ if char == 0 else Field.prime(char)
    act = GroupAction.trivial(FiniteGroup.cyclic(order), point_category(field), name=group)
    monad = act.group_monad
    sigma, mods = witness(monad), pool(act, monad)
    rng = random.Random(f"derived:{group}:{char}")
    for _ in range(4):
        samples = random_samples(monad, mods, rng)
        assert all(by_lemma(monad, sigma, mc) for mc in samples)
        assert assert_agrees(monkeypatch, act, samples, monad, sigma).passed


def cw_action():
    from sepcat.standard import cyclotomic_point_category
    return GroupAction.trivial(FiniteGroup.cyclic(3), cyclotomic_point_category(),
                               name="Z3 on Cw")


def a2_pool(act, monad):
    mods = [free_module(monad, act.base.obj(x)) for x in act.base.objects]
    return mods + character_modules(act, monad=monad)


BASES = {
    "Z3 on Cw": (cw_action, lambda act, monad: pool(act, monad)),
    "Z2 on A2": (lambda: trivial_z2_on_a2(QQ), a2_pool),
    "sign Z2 on A2": (lambda: sign_action_on_a2(QQ), a2_pool),
}


@pytest.mark.parametrize("base", list(BASES))
def test_bases_with_nontrivial_squares_take_the_lemma(monkeypatch, base):
    make, mods_of = BASES[base]
    act = make()
    monad = act.group_monad
    sigma, mods = witness(monad), mods_of(act, monad)
    rng = random.Random(f"derived:{base}")
    for _ in range(3):
        samples = random_samples(monad, mods, rng)
        assert all(by_lemma(monad, sigma, mc) for mc in samples)
        assert assert_agrees(monkeypatch, act, samples, monad, sigma).passed


def non_natural_section(monad, sigma, x):
    """σ moved at x by δ = k − σ_x∘μ_x∘k, k a unit morphism: μ∘δ = 0, so μ∘σ = Id
    still holds, while M²(b)∘δ ≠ 0 breaks naturality at a b out of x."""
    s, mu = sigma.sigma.components[x], monad.mult.components[x]
    k = bumped(s.scale(QQ.zero()))
    comps = dict(sigma.sigma.components, **{x: s + k - s @ mu @ k})
    moved = MonadSepWitness(monad, NatTrans(sigma.sigma.src, sigma.sigma.dst, comps, name="σ'"))
    assert all(monad.mult.components[y] @ c == monad.functor.object_map[y].identity()
               for y, c in comps.items())
    assert not validate_nat(moved.sigma).passed
    return moved


@pytest.mark.parametrize("base", ["Z2 on A2", "sign Z2 on A2"])
def test_a_non_natural_section_composes(monkeypatch, base):
    make, mods_of = BASES[base]
    act = make()
    monad = act.group_monad
    sigma = non_natural_section(monad, witness(monad), "1")
    mods = [free_module(monad, act.base.obj(x)) for x in act.base.objects]
    rng = random.Random(f"derived:not natural:{base}")
    failed = []
    for _ in range(4):
        samples = random_samples(monad, mods, rng, lengths=(2, 3))
        rep = assert_agrees(monkeypatch, act, samples, monad, sigma)
        failed += [name for name, _ in rep.failures()]
    # the composed checks see the moved σ: the lemma would have passed them
    assert any(name.endswith("chain map: commutes with differentials") for name in failed)
    assert any(name.startswith("retract of free cover") for name in failed)


def test_a_broken_unit_composes(monkeypatch):
    # η moved at 1, so its square at a fails; modules on 2 keep their laws
    act = sign_action_on_a2(QQ)
    m = act.group_monad
    unit = NatTrans(m.unit.src, m.unit.dst, dict(m.unit.components, **{"1": bumped(
        m.unit.components["1"])}), name="η'")
    monad = Monad(m.functor, unit, m.mult, name="η'")
    assert not validate_nat(monad.unit).passed
    sigma = MonadSepWitness(monad, witness(m).sigma)
    mods = [MModule(monad, md.carrier, md.action, name=md.name) for md in a2_pool(act, m)
            if set(md.carrier.summands) == {"2"}]
    samples = random_samples(monad, mods, random.Random("derived:broken unit"))
    assert all(mc.validate().passed for mc in samples)
    assert assert_agrees(monkeypatch, act, samples, monad, sigma).passed


def doubled_identity(m):
    """M's image of id_2 doubled: M breaks identity preservation."""
    (f,) = m.functor.hom_map[("2", "2")]
    return {("2", "2"): (f.scale(QQ.from_int(2)),)}


def image_off_its_endpoints(m):
    """M's image of a: 1 → 2 given as a map M(1) → M(1), which does not chain with M(id_2):
    `validate_functor` records the pair as a failing composition place."""
    (f,) = m.functor.hom_map[("1", "2")]
    m1 = m.functor.object_map["1"]
    return {("1", "2"): (Morphism(m.cat, m1, m1, f.blocks),)}


def test_images_that_do_not_chain_fail_composition_preservation():
    m = trivial_z2_on_a2(QQ).group_monad
    mf = Functor(m.cat, m.cat, m.functor.object_map,
                 {**m.functor.hom_map, **image_off_its_endpoints(m)}, name="M'")
    failed = dict(validate_functor(mf).failures())
    assert failed == {"hom images have the right endpoints": "",
                      "composition preservation (4 pairs)": "(a, 1->1[0]); (2->2[0], a)"}


@pytest.mark.parametrize("edit", [doubled_identity, image_off_its_endpoints])
def test_an_m_that_is_no_functor_composes(monkeypatch, edit):
    # the samples live on the object 1 and keep every law there
    act = trivial_z2_on_a2(QQ)
    m = act.group_monad
    mf = Functor(m.cat, m.cat, m.functor.object_map, {**m.functor.hom_map, **edit(m)}, name="M'")
    monad = Monad(mf, NatTrans(m.unit.src, mf, m.unit.components, name="η"),
                  NatTrans(compose_functors(mf, mf), mf, m.mult.components, name="μ"))
    sigma = MonadSepWitness(monad, NatTrans(mf, monad.squared, witness(m).sigma.components))
    mods = [free_module(monad, act.base.obj("1"))]
    samples = random_samples(monad, mods, random.Random("derived:broken M"), lengths=(2, 3))
    assert all(mc.validate().passed for mc in samples)
    assert assert_agrees(monkeypatch, act, samples, monad, sigma).passed


def test_idempotent_terms_compose(monkeypatch, act_z2_q):
    monad = act_z2_q.group_monad
    sigma = witness(monad)
    split = _karoubi_summands(monad)
    mods = split + [free_module(monad, monad.cat.obj("pt"))]
    rng = random.Random("derived:karoubi")
    for _ in range(3):
        samples = random_samples(monad, mods, rng)
        samples.append(ModuleComplex(monad, {0: split[0], 1: split[0]}, {}, name="split"))
        assert not by_lemma(monad, sigma, samples[-1])
        assert assert_agrees(monkeypatch, act_z2_q, samples, monad, sigma).passed


def test_a_sample_that_fails_validation_composes(monkeypatch, act_z2_q):
    monad = act_z2_q.group_monad
    sigma = witness(monad)
    chars = {("triv" if "; 1" in c.name else "sign"): c
             for c in character_modules(act_z2_q, monad=monad)}
    pt = monad.cat.obj("pt")
    bad = ModuleComplex(monad, {0: chars["triv"], 1: chars["sign"]}, {0: pt.identity()},
                        name="triv→sign")
    samples = random_samples(monad, list(chars.values()), random.Random("derived:bad"), 2)
    rep = assert_agrees(monkeypatch, act_z2_q, [samples[0], bad, samples[1]], monad, sigma)
    assert [name for name, _ in rep.failures()] == ["sample triv→sign validates"]

"""Bounded complexes, homotopy-category hom spaces, lifted monads, and the
hom-level comparison between module complexes and complexes of modules."""

import random
from fractions import Fraction

import pytest

import sepcat.modules
from sepcat import (BoundedComplex, GroupAction, LiftedMonad, MModule,
                    MonadNotSeparableError, Monad, MonadSepWitness, Morphism,
                    derived_comparison_check, direct_sum,
                    equivariant_monad, free_module, kb_hom_basis,
                    lifted_module_hom_dim, module_chain_hom_dim,
                    module_complex_retract, monad_separability_solve,
                    random_module_complex, validate_complex)
from sepcat.complexes import ModuleComplex
from sepcat.reports import ValidationReport


def stalk(cat, obj, degree=0, name=""):
    return BoundedComplex(cat, {degree: obj}, {}, name=name or f"stalk[{degree}]")


def interval(cat, obj, lo=0, name=""):
    """obj →(Id)→ obj concentrated in degrees lo, lo+1: a contractible complex."""
    return BoundedComplex(cat, {lo: obj, lo + 1: obj}, {lo: obj.identity()},
                          name=name or "interval")


@pytest.fixture(scope="module")
def sigma_z2(monad_z2_q):
    w = monad_separability_solve(monad_z2_q)
    assert isinstance(w, MonadSepWitness)
    return w


class TestValidateComplex:
    def test_stalk_passes(self, c1_q):
        assert validate_complex(stalk(c1_q, c1_q.obj("pt"))).passed

    def test_interval_passes(self, c1_q):
        assert validate_complex(interval(c1_q, c1_q.obj("pt"))).passed

    def test_dd_nonzero_fails(self, c1_q):
        pt = c1_q.obj("pt")
        c = BoundedComplex(c1_q, {0: pt, 1: pt, 2: pt},
                           {0: pt.identity(), 1: pt.identity()})
        rep = validate_complex(c)
        assert not rep.passed
        assert any("d∘d" in name for name, _ in rep.failures())

    def test_support_cap(self, c1_q):
        pt = c1_q.obj("pt")
        with pytest.raises(ValueError, match="support length 9 exceeds the cap 8"):
            BoundedComplex(c1_q, {n: pt for n in range(9)}, {})
        assert BoundedComplex(c1_q, {n: pt for n in range(1, 9)}, {}).degrees() == range(1, 9)


    def test_recurring_module_is_validated_once(self, monad_z2_q, chars_z2_q, c1_q,
                                                monkeypatch):
        triv, sign = chars_z2_q["triv"], chars_z2_q["sign"]
        pt = c1_q.obj("pt")
        mc = ModuleComplex(monad_z2_q, {0: triv, 1: triv, 2: sign, 3: triv},
                           {0: pt.identity()}, name="recurring")
        # the report as it reads when every degree validates its module afresh
        want = ValidationReport("module complex recurring")
        want.merge(validate_complex(mc.underlying))
        for n in range(4):
            want.merge(sepcat.modules.validate_module(mc.module(n)))
        calls = []
        real = sepcat.modules.validate_module

        def counted(m):
            calls.append(m)
            return real(m)

        monkeypatch.setattr(sepcat.modules, "validate_module", counted)
        rep = mc.validate()
        assert calls == [triv, sign]
        assert rep.passed and rep.checks[:len(want.checks)] == want.checks
        assert [name for name, _, _ in rep.checks[len(want.checks):]] == \
            ["differentials are module morphisms"]


class TestHomotopyHoms:
    def test_stalk_to_stalk_dimension_one(self, c1_q):
        s = stalk(c1_q, c1_q.obj("pt"))
        hom = kb_hom_basis(s, s)
        assert hom.dim == 1
        assert len(hom.representatives) == 1

    def test_contractible_source_gives_zero(self, c1_q):
        cone = interval(c1_q, c1_q.obj("pt"))
        s = stalk(c1_q, c1_q.obj("pt"))
        hom = kb_hom_basis(cone, s)
        assert hom.chain_dim == 1
        assert hom.dim == 0

    def test_shifted_stalks_have_no_maps(self, c1_q):
        s0 = stalk(c1_q, c1_q.obj("pt"), 0)
        s1 = stalk(c1_q, c1_q.obj("pt"), 1)
        assert kb_hom_basis(s0, s1).dim == 0

    def test_zero_complex_has_zero_homs(self, c1_q):
        zero = BoundedComplex(c1_q, {}, {}, name="zero")
        s = stalk(c1_q, c1_q.obj("pt"), 3)
        for a, b in ((zero, zero), (zero, s), (s, zero)):
            assert kb_hom_basis(a, b).dim == 0

    def test_homotopy_invariance_under_contractible_summands(self, c1_q):
        pt = c1_q.obj("pt")
        s = stalk(c1_q, pt)
        base = kb_hom_basis(s, s).dim
        # pad the source with a contractible interval in degrees 0, 1
        padded = BoundedComplex(
            c1_q, {0: direct_sum([pt, pt]), 1: pt},
            {0: Morphism(c1_q, direct_sum([pt, pt]), pt,
                         (((Fraction(0),), (Fraction(1),)),))},
            name="padded")
        assert validate_complex(padded).passed
        assert kb_hom_basis(padded, s).dim == base
        assert kb_hom_basis(s, padded).dim == base


class TestLiftedMonad:
    def test_identity_monad_lifts_to_identity(self, c1_q):
        m = Monad.identity_monad(c1_q)
        lifted = LiftedMonad(m)
        s = stalk(c1_q, c1_q.obj("pt"))
        ms = lifted.on_complex(s)
        assert ms.term(0) == c1_q.obj("pt")

    def test_group_monad_doubles_terms_and_laws_hold(self, monad_z2_q, c1_q, sigma_z2):
        lifted = LiftedMonad(monad_z2_q)
        pt = c1_q.obj("pt")
        c = interval(c1_q, pt)
        mc = lifted.on_complex(c)
        assert mc.term(0).summands == ("pt", "pt")
        rep = lifted.validate_on(c, sigma_z2)
        assert rep.passed

    def test_lifted_sigma_section_law_degreewise(self, monad_z2_q, c1_q, sigma_z2):
        lifted = LiftedMonad(monad_z2_q)
        c = interval(c1_q, direct_sum([c1_q.obj("pt"), c1_q.obj("pt")]))
        s = lifted.section(sigma_z2, c)
        mu = lifted.mult(c)
        for n in c.degrees():
            mx = monad_z2_q.functor.on_object(c.term(n))
            assert mu.part(n) @ s.part(n) == mx.identity()


class TestNullHomotopyTransport:
    def test_transported_homotopy_identity(self, monad_z2_q, chars_z2_q, c1_q):
        # for f = dh + hd, the defect f∘λ − λ'∘M(f) equals d(hλ − λ'M(h)) + (hλ − λ'M(h))d
        rng = random.Random(23)
        mf = monad_z2_q.functor
        pool = [chars_z2_q["triv"], chars_z2_q["sign"],
                free_module(monad_z2_q, c1_q.obj("pt"))]
        for _ in range(6):
            a = random_module_complex(monad_z2_q, pool, 3, rng, name="A")
            b = random_module_complex(monad_z2_q, pool, 3, rng, name="B")
            x, y = a.underlying, b.underlying
            from sepcat.category import random_hom
            h = {n: random_hom(c1_q, x.term(n), y.term(n - 1), rng)
                 for n in range(x.lo, x.hi + 2)}

            def hpart(n):
                return h.get(n) or Morphism.from_coords(
                    c1_q, x.term(n), y.term(n - 1), [])

            for n in x.degrees():
                f_n = (y.diff(n - 1) @ hpart(n)) + (hpart(n + 1) @ x.diff(n))
                defect = (f_n @ a.action_at(n)) - (b.action_at(n) @ mf.on_morphism(f_n))
                k_n = (hpart(n) @ a.action_at(n)) - (b.action_at(n - 1) @ mf.on_morphism(hpart(n)))
                k_n1 = (hpart(n + 1) @ a.action_at(n + 1)) - (b.action_at(n) @ mf.on_morphism(hpart(n + 1)))
                mx_diff = mf.on_morphism(x.diff(n))
                assert defect == (y.diff(n - 1) @ k_n) + (k_n1 @ mx_diff)


class TestDerivedComparison:
    def test_trivial_group_matches_plain_homotopy_homs(self, c1_q):
        from sepcat import FiniteGroup, GroupAction
        act = GroupAction.trivial(FiniteGroup.cyclic(1), c1_q)
        monad = equivariant_monad(act)
        sw = monad_separability_solve(monad)
        pt = c1_q.obj("pt")
        triv = MModule(monad, pt, pt.identity(), name="triv")
        s = ModuleComplex(monad, {0: triv}, {}, name="stalk")
        i = ModuleComplex(monad, {0: triv, 1: triv}, {0: pt.identity()}, name="interval")
        for a, b in ((s, s), (s, i), (i, s), (i, i)):
            d1 = module_chain_hom_dim(a, b)
            d2 = lifted_module_hom_dim(a, b)
            plain = kb_hom_basis(a.underlying, b.underlying).dim
            assert d1 == d2 == plain

    def test_z2_stalk_values(self, monad_z2_q, chars_z2_q):
        st = ModuleComplex(monad_z2_q, {0: chars_z2_q["triv"]}, {}, name="stalk(triv)")
        ss = ModuleComplex(monad_z2_q, {0: chars_z2_q["sign"]}, {}, name="stalk(sign)")
        assert module_chain_hom_dim(st, ss) == 0 == lifted_module_hom_dim(st, ss)
        assert module_chain_hom_dim(st, st) == 1 == lifted_module_hom_dim(st, st)

    def test_z2_random_length_three_pair(self, monad_z2_q, chars_z2_q, c1_q):
        rng = random.Random(31)
        pool = [chars_z2_q["triv"], chars_z2_q["sign"],
                free_module(monad_z2_q, c1_q.obj("pt"))]
        a = random_module_complex(monad_z2_q, pool, 3, rng, name="A")
        b = random_module_complex(monad_z2_q, pool, 3, rng, name="B")
        assert a.validate().passed and b.validate().passed
        assert module_chain_hom_dim(a, b) == lifted_module_hom_dim(a, b)

    def test_full_report_z2(self, act_z2_q, monad_z2_q, chars_z2_q, c1_q, sigma_z2):
        rng = random.Random(8)
        pool = [chars_z2_q["triv"], chars_z2_q["sign"],
                free_module(monad_z2_q, c1_q.obj("pt"))]
        samples = [
            ModuleComplex(monad_z2_q, {0: chars_z2_q["triv"]}, {}, name="stalk(triv)"),
            ModuleComplex(monad_z2_q, {0: chars_z2_q["sign"]}, {}, name="stalk(sign)"),
            random_module_complex(monad_z2_q, pool, 3, rng, name="r0"),
        ]
        rep = derived_comparison_check(act_z2_q, samples, monad=monad_z2_q, sigma=sigma_z2)
        assert rep.passed

    def test_d1_solves_once_plus_once_per_module_pair_and_d2_once(
            self, monad_z2_q, chars_z2_q, c1_q, monkeypatch):
        # d₁ solves once for its chain squares and once per distinct module pair for
        # that pair's module-hom basis; d₂ solves once, for the chain maps of K(x, y)
        import sepcat.complexes
        from sepcat.category import MorSystem, hom_coord_dim
        pool = [chars_z2_q["triv"], chars_z2_q["sign"],
                free_module(monad_z2_q, c1_q.obj("pt"))]
        rng = random.Random(5)
        a = random_module_complex(monad_z2_q, pool, 3, rng, name="A")
        b = random_module_complex(monad_z2_q, pool, 3, rng, name="B")
        module_chain_hom_dim(a, b), lifted_module_hom_dim(a, b)  # fill the hom-basis caches
        solves, bases = [], []
        real_solve, real_basis = MorSystem.solve, sepcat.complexes.module_hom_basis

        def counting_solve(sysm):
            solves.append(sysm)
            return real_solve(sysm)

        def recording_basis(ma, mb):
            bases.append((ma, mb))
            return real_basis(ma, mb)

        def forbidden(*args):
            raise AssertionError("d₂ computes no module maps and no section")

        monkeypatch.setattr(MorSystem, "solve", counting_solve)
        monkeypatch.setattr(sepcat.complexes, "module_hom_basis", recording_basis)
        module_chain_hom_dim(a, b)
        pairs = {(a.module(n), b.module(m)) for n in a.degrees() for m in (n, n - 1)
                 if b.module(m) is not None}
        assert len(pairs) == 4
        assert len(bases) == len(pairs) and set(bases) == pairs
        assert len(solves) == 1 + len(pairs)
        solves.clear()
        for name in ("module_hom_basis", "module_chain_hom_dim", "monad_separability_solve"):
            monkeypatch.setattr(sepcat.complexes, name, forbidden)
        lifted_module_hom_dim(a, b)
        x, y = a.underlying, b.underlying
        assert len(solves) == 1
        assert solves[0].n == sum(hom_coord_dim(c1_q, x.term(n), y.term(n))
                                  for n in set(x.degrees()) | set(y.degrees()))

    def test_d2_composes_each_degree_once_however_many_representatives(
            self, monad_z2_q, chars_z2_q, c1_q, monkeypatch):
        # d₂ composes F∘λ − λ'∘M(F) once per span degree on F = Σ vᵢ·repᵢ: what its call
        # composes beyond kb_hom_basis, M(x) and the null vectors of (Mx, y) is two
        # compositions and one functor image per degree, whatever the number of repᵢ
        from sepcat.complexes import _span_degrees, apply_functor_to_complex, null_homotopic_space
        from sepcat.functors import Functor
        pool = [chars_z2_q["triv"], chars_z2_q["sign"],
                free_module(monad_z2_q, c1_q.obj("pt"))]
        rng = random.Random(5)
        a = random_module_complex(monad_z2_q, pool, 3, rng, name="A")
        b = random_module_complex(monad_z2_q, pool, 3, rng, name="B")
        x, y, mf = a.underlying, b.underlying, monad_z2_q.functor
        assert kb_hom_basis(x, y).dim >= 2
        mx = apply_functor_to_complex(mf, x)
        counts = {}
        real_compose, real_image = Morphism.__matmul__, Functor.on_morphism

        def counted(key, real):
            def wrapper(*args):
                counts[key] += 1
                return real(*args)
            return wrapper

        def calls(fn, *args):
            counts.update({"compose": 0, "image": 0})
            fn(*args)
            return dict(counts)

        monkeypatch.setattr(Morphism, "__matmul__", counted("compose", real_compose))
        monkeypatch.setattr(Functor, "on_morphism", counted("image", real_image))
        whole = calls(lifted_module_hom_dim, a, b)
        steps = [calls(kb_hom_basis, x, y), calls(apply_functor_to_complex, mf, x),
                 calls(null_homotopic_space, mx, y)]
        degrees = len(_span_degrees(mx, y))
        assert {k: n - sum(s[k] for s in steps) for k, n in whole.items()} == \
            {"compose": 2 * degrees, "image": degrees}

    def test_a_sample_that_fails_validation_fails_the_report_without_raising(
            self, act_z2_q, act_z3_q, monad_z2_q, c1_q):
        # a Z/3 module in a Z/2 complex: its action does not compose with the Z/2 functor
        pt = c1_q.obj("pt")
        bad = ModuleComplex(monad_z2_q, {0: free_module(equivariant_monad(act_z3_q), pt)}, {},
                            name="bad")
        good = ModuleComplex(monad_z2_q, {0: free_module(monad_z2_q, pt)}, {}, name="good")
        rep = derived_comparison_check(act_z2_q, [good, bad], monad=monad_z2_q)
        assert not rep.passed
        assert [name for name, _ in rep.failures()] == ["sample bad validates"]
        names = [name for name, _, _ in rep.checks]
        assert "d₁ = d₂ for (good, good)" in names
        assert "retract of free cover: good" in names
        assert not any("bad" in name for name in names if name.startswith(("d₁", "retract")))

    def test_a_module_over_an_equal_monad_object_is_compared(self, c1_q, z2):
        # two trivial Z/2 actions on C1 build two group monads with the same data;
        # d₁ takes module maps for the complex's monad, as the module-law rows did
        act, other = GroupAction.trivial(z2, c1_q), GroupAction.trivial(z2, c1_q)
        monad, pt = act.group_monad, c1_q.obj("pt")
        assert other.group_monad is not monad
        samples = [ModuleComplex(monad, {0: free_module(m, pt)}, {}, name=name)
                   for m, name in ((monad, "own"), (other.group_monad, "other"))]
        rep = derived_comparison_check(act, samples, monad=monad)
        assert rep.passed, rep.failures()
        assert "d₁ = d₂ for (own, other)" in [name for name, _, _ in rep.checks]

    def test_mixed_monads_are_rejected(self, monad_z2_q, chars_z2_q, act_z2_q, act_z3_q, c1_q):
        st = ModuleComplex(monad_z2_q, {0: chars_z2_q["triv"]}, {}, name="stalk(triv)")
        for monad in (equivariant_monad(act_z3_q), equivariant_monad(act_z2_q)):
            other = ModuleComplex(monad, {0: free_module(monad, c1_q.obj("pt"))}, {}, name="free")
            for a, b in ((st, other), (other, st)):
                with pytest.raises(ValueError, match="modules over different monads"):
                    module_chain_hom_dim(a, b)
                with pytest.raises(ValueError, match="modules over different monads"):
                    lifted_module_hom_dim(a, b)

    def test_monad_not_separable_raises(self, act_z2_f2):
        monad = equivariant_monad(act_z2_f2)
        c1f2 = monad.cat
        pt = c1f2.obj("pt")
        triv = MModule(monad, pt,
                       Morphism(c1f2, monad.functor.object_map["pt"], pt,
                                (((c1f2.field.one(),), (c1f2.field.one(),)),)),
                       name="triv")
        s = ModuleComplex(monad, {0: triv}, {}, name="stalk")
        with pytest.raises(MonadNotSeparableError):
            derived_comparison_check(act_z2_f2, [s], monad=monad)


class TestComplexRetracts:
    def test_retract_of_free_cover(self, monad_z2_q, chars_z2_q, c1_q, sigma_z2):
        rng = random.Random(77)
        pool = [chars_z2_q["triv"], chars_z2_q["sign"],
                free_module(monad_z2_q, c1_q.obj("pt"))]
        for name in ("triv", "sign"):
            mc = ModuleComplex(monad_z2_q, {0: chars_z2_q[name]}, {}, name=name)
            s, r, rep = module_complex_retract(sigma_z2, mc)
            assert rep.passed
        mc = random_module_complex(monad_z2_q, pool, 4, rng, name="len4")
        s, r, rep = module_complex_retract(sigma_z2, mc)
        assert rep.passed

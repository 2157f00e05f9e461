"""Oracle for `LiftedMonad.validate_on`: the monad laws checked once per
distinct place give the same report as checking them degree by degree.

`degreewise` is the check as it was first written: every law at every
degree's whole term.  The two must agree on every check, its name, its count
and its failure detail, on random module complexes over Z/2 and Z/3, over Q
and over F_p, on complexes whose terms carry idempotents, and on a broken
monad and a broken section.  Each distinct place must be evaluated exactly
once, also when it recurs in other degrees.
"""

import random

import pytest

from sepcat import (BoundedComplex, CatObject, EquivariantObject, Field, FiniteGroup,
                    GroupAction, LiftedMonad, Monad, MonadSepWitness, NatTrans, free_equivariant,
                    free_module, monad_separability_solve, random_module_complex, to_module)
from sepcat.complexes import validate_complex
from sepcat.equivariant import character_modules
from sepcat.reports import ValidationReport
from sepcat.standard import a2_quiver_category, point_category
from tests.test_failure_reports import (QQ, bumped, bumped_monad, bumped_sigma,
                                        z2_monad_and_characters)


def degreewise(lifted, c, sw=None):
    """The monad (and section) laws evaluated on every degree's whole term."""
    rep = ValidationReport(f"lifted monad on {c.name or 'complex'}")
    m = lifted.monad
    mf = m.functor
    rep.merge(validate_complex(lifted.on_complex(c)))

    def laws():
        for n in c.degrees():
            t = c.term(n)
            mt = mf.on_object(t)
            mu = m.mult.at(t)
            yield "associativity", (n,), mu @ mf.on_morphism(mu), mu @ m.mult.at(mt)
            yield "unit", (n,), mu @ mf.on_morphism(m.unit.at(t)), mt.identity()
            yield "unit", (n,), mu @ m.unit.at(mt), mt.identity()
            if sw is not None:
                yield "section", (n,), mu @ sw.sigma.at(t), mt.identity()

    checks = {"associativity": ("associativity degreewise", str),
              "unit": ("unit laws degreewise", str)}
    if sw is not None:
        checks["section"] = ("μ∘σ = Id degreewise", str)
    rep.record_laws(laws(), checks)
    if sw is not None:
        rep.merge(lifted.section(sw, c).verify())
    return rep


def distinct_places(c):
    """The base summands of the plain terms, and every other term whole."""
    places = set()
    for n in c.degrees():
        t = c.term(n)
        if t.idem is None and t.summands:
            places.update(c.cat.obj(s) for s in t.summands)
        else:
            places.add(t)
    return places


def assert_agrees(monkeypatch, lifted, c, sw=None):
    seen = []
    laws_at = LiftedMonad._laws_at

    def counted(self, t, sw):
        seen.append(t)
        return laws_at(self, t, sw)

    with monkeypatch.context() as mp:
        mp.setattr(LiftedMonad, "_laws_at", counted)
        got = lifted.validate_on(c, sw)
    assert got.checks == degreewise(lifted, c, sw).checks
    assert len(seen) == len(set(seen)) and set(seen) == distinct_places(c)
    return got


def trivial_object(action):
    pt = action.base.obj("pt")
    return EquivariantObject(action, pt, {g: pt.identity() for g in action.group.elements},
                             name="triv")


def pool(action, monad):
    """The trivial and the regular module, the free module on pt, and over Q the characters."""
    pt = action.base.obj("pt")
    mods = [to_module(trivial_object(action), monad=monad),
            to_module(free_equivariant(action, pt), monad=monad), free_module(monad, pt)]
    if action.base.field.is_rational:
        mods += character_modules(action, monad=monad)
    return mods


def split_point(cat):
    """pt⊕pt with the idempotent projecting onto the first summand."""
    one, zero = cat.field.one(), cat.field.zero()
    return CatObject(cat, ("pt", "pt"), (((one,), (zero,)), ((zero,), (zero,))))


def idempotent_complex(cat):
    """Idempotent terms, one of them in two degrees, beside plain terms and a gap."""
    e, pt = split_point(cat), cat.obj("pt")
    return BoundedComplex(cat, {0: e, 1: cat.obj("pt", "pt"), 2: e, 4: pt}, {}, name="split")


CASES = [("Z/2", 2, 0), ("Z/3", 3, 0), ("Z/2", 2, 3), ("Z/3", 3, 2), ("Z/3", 3, 5)]


@pytest.mark.parametrize("group, order, char", CASES)
def test_per_place_check_matches_degreewise(monkeypatch, group, order, char):
    field = Field.rationals() if char == 0 else Field.prime(char)
    act = GroupAction.trivial(FiniteGroup.cyclic(order), point_category(field), name=group)
    monad = act.group_monad
    sigma = monad_separability_solve(monad)
    lifted = LiftedMonad(monad)
    mods = pool(act, monad)
    rng = random.Random(f"lifted:{group}:{char}")
    complexes = [random_module_complex(monad, mods, length, rng).underlying
                 for length in [1, 2, 3, 4, 5, 6] * 2]
    complexes.append(idempotent_complex(act.base))
    for c in complexes:
        assert assert_agrees(monkeypatch, lifted, c).passed
        assert assert_agrees(monkeypatch, lifted, c, sigma).passed


def test_failures_name_every_degree_of_a_failing_place(monkeypatch):
    m, chars = z2_monad_and_characters()
    mods = list(chars.values()) + [free_module(m, m.cat.obj("pt"))]
    rng = random.Random("lifted:bumped")
    complexes = [random_module_complex(m, mods, length, rng).underlying for length in (2, 4, 6)]
    complexes.append(idempotent_complex(m.cat))
    broken_monad, broken_sigma = LiftedMonad(bumped_monad(m)), bumped_sigma(m)
    for c in complexes:
        bad = assert_agrees(monkeypatch, broken_monad, c)
        assert dict(bad.failures()).keys() == {"associativity degreewise", "unit laws degreewise"}
        bad = assert_agrees(monkeypatch, LiftedMonad(m), c, broken_sigma)
        assert [name for name, _ in bad.failures()] == ["μ∘σ = Id degreewise"]


def test_a_place_that_fails_fails_only_its_degrees(monkeypatch):
    # μ and σ moved at the object 1 of the A2 quiver only; 2 keeps every law
    act = GroupAction.trivial(FiniteGroup.cyclic(2), a2_quiver_category(QQ), name="Z2 on C2")
    m = act.group_monad
    mult = dict(m.mult.components, **{"1": bumped(m.mult.components["1"])})
    broken = LiftedMonad(Monad(m.functor, m.unit, NatTrans(m.mult.src, m.mult.dst, mult)))
    w = monad_separability_solve(m)
    sigma = dict(w.sigma.components, **{"1": bumped(w.sigma.components["1"])})
    broken_sigma = MonadSepWitness(m, NatTrans(w.sigma.src, w.sigma.dst, sigma))
    cat = act.base
    c = BoundedComplex(cat, {0: cat.obj("1"), 1: cat.obj("2"), 2: cat.obj("2", "1"),
                             3: cat.obj("2", "2"), 5: cat.obj("1", "1")}, {}, name="mixed")
    assert assert_agrees(monkeypatch, broken, c).failures() == [
        ("associativity degreewise", "0; 2; 5"), ("unit laws degreewise", "0; 0; 2; 2; 5; 5")]
    assert assert_agrees(monkeypatch, LiftedMonad(m), c, broken_sigma).failures() == [
        ("μ∘σ = Id degreewise", "0; 2; 5")]

"""The slot-map decisions of `validate_monad` and `EquivariantObject.validate`, against the
composed laws they stand for.

Both validators read one law list, whose laws compare integer slot maps
(`category.slot_map`'s lemma) where the data are identity placements and composed morphisms
elsewhere.  The composed laws are the oracle: `reports` validates once as the code does and
once with `slot_map` switched off in `sepcat.monads` and `sepcat.equivariant`, and the two
reports must have equal checks (name, verdict, detail).  The data are the group monad, the
monad of the free/forgetful adjunction and the free objects of every standard action, and
broken copies of them: a wrong slot, 2·id or another endomorphism (ω on Cw) as a block, a
dropped block, a block between different summands, random slots, and an M or Φ_g that does
not keep identities, each at fixed places and at places a hypothesis strategy draws.
Where the lemma applies (every component has a slot map and M or every Φ_g keeps
identities), the code's validation must make no composition at all, passing or failing,
so the slot maps decide and do not merely guard.
"""

import contextlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepcat.equivariant
import sepcat.monads
from sepcat import (EquivariantObject, Field, FiniteGroup, Functor, GroupAction, Monad,
                    NatTrans, equivariant_category, free_equivariant, induce_adjunction)
from sepcat.category import Morphism, slot_map, unit_vectors, zero_morphism
from sepcat.cli import run
from sepcat.monads import monad_from_adjunction, validate_monad
from sepcat.reports import checked
from sepcat.standard import (a2_quiver_category, cyclotomic_point_category,
                             dual_numbers_category, point_category, two_point_category)
from sepcat.workspace import parse_workspace
from test_adjunction_formula_oracle import sign_action_on_a2
from test_composition_oracle import strict

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "workspace.json"
QQ, F2, F3, F5, F7 = (Field.rationals(), Field.prime(2), Field.prime(3), Field.prime(5),
                      Field.prime(7))
FIELDS = (QQ, F2, F3, F5, F7)
GROUPS = [f"Z/{n}" for n in range(2, 8)] + ["S_3"]

CASES = ([(f"{g} on C1", k) for g in GROUPS for k in FIELDS]
         + [("Z/2 swap on C3", k) for k in FIELDS]
         + [("Z/2 on Cw", QQ), ("Z/3 on Cw", QQ)]
         + [("Z/2 on A2", k) for k in FIELDS]
         + [("sign Z/2 on A2", k) for k in FIELDS]
         + [("Z/2 on Cd", k) for k in FIELDS])


def case_id(case):
    return f"{case[0]} over {case[1].spec_str()}"


_BUILT = {}


def build(case):
    """(action, group monad, adjunction monad, free objects) of a case, built once."""
    key = case_id(case)
    if key not in _BUILT:
        name, field = case
        if name == "Z/2 swap on C3":
            act = GroupAction.from_permutation(FiniteGroup.cyclic(2), two_point_category(field),
                                               {"e": {"x": "x", "y": "y"},
                                                "g": {"x": "y", "y": "x"}})
        elif name == "sign Z/2 on A2":
            act = sign_action_on_a2(field)
        else:
            group = name.split(" on ")[0]
            group = (FiniteGroup.symmetric(3) if group == "S_3"
                     else FiniteGroup.cyclic(int(group[2:])))
            cat = {"C1": point_category, "Cw": cyclotomic_point_category,
                   "A2": a2_quiver_category, "Cd": dual_numbers_category}[name[-2:]](field)
            act = GroupAction.trivial(group, cat)
        base = act.base
        sums = [(x,) for x in base.objects] + [base.objects * (2 if len(base.objects) == 1 else 1)]
        free = [free_equivariant(act, base.obj(*s)) for s in sums]
        adj_monad = monad_from_adjunction(induce_adjunction(equivariant_category(act)))
        _BUILT[key] = act, act.group_monad, adj_monad, free
    return _BUILT[key]


@contextlib.contextmanager
def composing():
    """The compositions `Morphism.__matmul__` makes inside the block, as a list."""
    composed, matmul = [], Morphism.__matmul__

    def spying(f, g):
        composed.append((f, g))
        return matmul(f, g)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Morphism, "__matmul__", spying)
        yield composed


@contextlib.contextmanager
def composed_laws():
    """The block with every law composed: `slot_map` answers None to the validators."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sepcat.monads, "slot_map", lambda m: None)
        mp.setattr(sepcat.equivariant, "slot_map", lambda m: None)
        yield


def reports(validate, subject):
    """(the report as the code makes it, its number of compositions, the composed report)."""
    with composing() as composed:
        fast = validate(subject)
    with composed_laws():
        full = validate(subject)
    return fast, len(composed), full


def monad_lemma_applies(m):
    return (m.functor.keeps_identities(m.cat.objects)
            and all(slot_map(c) is not None for t in (m.unit, m.mult)
                    for c in t.components.values()))


def object_lemma_applies(z):
    objects = z.action.base.objects
    return (all(slot_map(a) is not None for a in z.alpha.values())
            and all(phi.keeps_identities(objects) for phi in z.action.functors.values()))


def assert_monad_agrees(m):
    fast, composed, full = reports(validate_monad, m)
    assert fast.checks == full.checks
    if monad_lemma_applies(m):
        assert composed == 0
    return full


def assert_object_agrees(z):
    fast, composed, full = reports(EquivariantObject.validate, z)
    assert fast.checks == full.checks
    if object_lemma_applies(z):
        assert composed == 0
    return full


# ---------------------------------------------------------------- broken data

KINDS = ("wrong slot", "2·id", "other endomorphism", "dropped block", "summand mismatch",
         "random slots", "all dropped")


def replaced(f, cells):
    """f with its blocks at the given (row, column)s replaced."""
    grid = [list(row) for row in f.blocks]
    for (r, c), block in cells.items():
        grid[r][c] = tuple(block)
    return Morphism(f.cat, f.dom, f.cod, grid)


def broken(f, kind, i, j):
    """f broken by `kind` at its i-th nonzero block (row-major, modulo their number), or
    None where the kind does not apply; j picks the target row of a move, the endomorphism
    that replaces the block, or the seed of random slots."""
    cat = f.cat
    cells = [(r, c, b) for r, row in enumerate(f.nonzero_rows()) for c, b in row]
    if kind == "all dropped":
        return zero_morphism(f.dom, f.cod)
    if kind == "random slots":
        rng, out = random.Random(j), {}
        for c, s in enumerate(f.dom.summands):
            rows = [r for r, t in enumerate(f.cod.summands) if t == s]
            if rows:
                out[(rng.choice(rows), c)] = cat.id_vec(s)
        return Morphism(cat, f.dom, f.cod, [[out.get((r, c), cat.zero_block(s, t))
                                             for c, s in enumerate(f.dom.summands)]
                                            for r, t in enumerate(f.cod.summands)])
    if not cells:
        return None
    r, c, block = cells[i % len(cells)]
    s, t = f.dom.summands[c], f.cod.summands[r]
    if kind in ("wrong slot", "summand mismatch"):
        rows = [r2 for r2, t2 in enumerate(f.cod.summands) if r2 != r
                and (t2 == s) == (kind == "wrong slot") and cat.hom_dim(s, t2) == len(block)]
        if not rows:
            return None
        return replaced(f, {(r, c): cat.zero_block(s, t), (rows[j % len(rows)], c): block})
    if kind == "2·id":
        return replaced(f, {(r, c): [cat.field.from_int(2) * a for a in block]})
    if kind == "other endomorphism":  # ω·id on Cw, ε on the dual numbers
        others = [e for e in unit_vectors(cat.field, len(block)) if tuple(e) != block]
        return replaced(f, {(r, c): others[j % len(others)]}) if s == t and others else None
    assert kind == "dropped block"
    return replaced(f, {(r, c): cat.zero_block(s, t)})


def scaled(functor, c):
    """The functor's presentation with every hom image scaled by c: F(id) = c·id."""
    return Functor(functor.source, functor.target, functor.object_map,
                   {k: tuple(m.scale(c) for m in v) for k, v in functor.hom_map.items()},
                   name=f"{c}·{functor.name}")


def broken_monad(m, kind, which, x, i, j):
    """m with η_x (which = 0) or μ_x (which = 1) broken, or with M scaled by 2."""
    if kind == "M keeps no identity":
        return Monad(scaled(m.functor, m.cat.field.from_int(2)), m.unit, m.mult, name=m.name)
    t = (m.unit, m.mult)[which]
    f = broken(t.components[x], kind, i, j)
    if f is None:
        return None
    t = NatTrans(t.src, t.dst, {**t.components, x: f}, name=t.name)
    return Monad(m.functor, *((t, m.mult) if which == 0 else (m.unit, t)), name=m.name)


def broken_object(z, kind, g, i, j):
    """z with α_g broken, or re-wrapped over an action whose Φ_g (g ≠ e) is scaled by 2."""
    act = z.action
    if kind == "Φ_g keeps no identity":
        g = next(h for h in act.group.elements if h != act.group.unit)
        functors = {**act.functors, g: scaled(act.functors[g], act.base.field.from_int(2))}
        return EquivariantObject(GroupAction(act.group, act.base, functors, name=act.name),
                                 z.carrier, z.alpha, name=z.name)
    f = broken(z.alpha[g], kind, i, j)
    return None if f is None else EquivariantObject(act, z.carrier, {**z.alpha, g: f},
                                                    name=z.name)


# ---------------------------------------------------------------- the tests

@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_built_monads_and_free_objects_agree_and_take_the_slot_decision(case):
    act, group_monad, adj_monad, free = build(case)
    for m in (group_monad, adj_monad):
        assert monad_lemma_applies(m)
        assert assert_monad_agrees(m).passed
    for z in free:
        assert object_lemma_applies(z)
        assert assert_object_agrees(z).passed


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_mult_images_from_slots_are_the_functor_images(case, monkeypatch):
    """`Monad.mult_images` builds M(μ_x) of the group monad and of the adjunction's monad
    from slot maps, never through `Functor.on_morphism`, and each equals on_morphism(μ_x)
    in value, scalar type and the nonzero rows it hands over."""
    _, group_monad, adj_monad, _ = build(case)
    for m in (group_monad, adj_monad):
        calls, on_morphism = [], Functor.on_morphism
        with monkeypatch.context() as mp:
            mp.setattr(Functor, "on_morphism", lambda fn, f: calls.append(f) or on_morphism(fn, f))
            images = Monad(m.functor, m.unit, m.mult).mult_images
        assert calls == []
        for x, mu in m.mult.components.items():
            got, want = images[x], m.functor.on_morphism(mu)
            assert (got.dom, got.cod) == (want.dom, want.cod)
            assert strict(got.blocks) == strict(want.blocks)
            assert got._rows is not None and got._rows == want._rows
            assert strict([[b for _, b in row] for row in got._rows]) == strict(
                [[b for _, b in row] for row in want._rows])


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_broken_monads_agree(case):
    """Every kind, at the first applicable component in base-object order, η then μ."""
    _, group_monad, adj_monad, _ = build(case)
    for m in (group_monad, adj_monad):
        for kind in KINDS:
            broken_ones = [broken_monad(m, kind, which, x, 1, 1)
                           for x in m.cat.objects for which in (0, 1)]
            b = next((b for b in broken_ones if b is not None), None)
            if b is not None:
                assert not assert_monad_agrees(b).passed or kind == "random slots", kind
        b = broken_monad(m, "M keeps no identity", 0, None, 0, 0)
        assert not monad_lemma_applies(b)
        assert not assert_monad_agrees(b).passed


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_broken_free_objects_agree(case):
    """Every kind at α_g for the first g ≠ e whose α_g it applies to."""
    act, _, _, free = build(case)
    others = [g for g in act.group.elements if g != act.group.unit]
    for z in free:
        for kind in KINDS:
            b = next((b for g in others if (b := broken_object(z, kind, g, 1, 1)) is not None),
                     None)
            if b is not None:
                assert not assert_object_agrees(b).passed or kind == "random slots", kind
        b = broken_object(z, "Φ_g keeps no identity", None, 0, 0)
        assert not object_lemma_applies(b)
        assert not assert_object_agrees(b).passed


def test_zero_alphas_keep_the_cocycle_law_and_break_the_inverse_law():
    """α = 0 satisfies every cocycle law, so only the inverse law tells it apart."""
    act, _, _, free = build(("Z/3 on C1", QQ))
    z = free[0]
    b = EquivariantObject(act, z.carrier, {g: zero_morphism(a.dom, a.cod)
                                           for g, a in z.alpha.items()}, name="0")
    full = assert_object_agrees(b)
    assert [(name, ok) for name, ok, _ in full.checks] == [
        ("components α_g: X → ^gX present", True), ("α_e = Id", False),
        ("cocycle ^g(α_g')∘α_g = α_gg'", True), ("α_g invertible", False)]


def test_a_doubled_block_is_not_a_slot():
    _, m, _, free = build(("Z/3 on C1", QQ))
    mu = m.mult.components["pt"]
    assert slot_map(mu) is not None
    assert slot_map(broken(mu, "2·id", 0, 0)) is None
    assert not assert_monad_agrees(broken_monad(m, "2·id", 1, "pt", 0, 0)).passed
    assert not assert_object_agrees(broken_object(free[0], "2·id", "g", 0, 0)).passed


def test_an_endomorphism_that_is_not_the_identity_is_not_a_slot():
    _, m, _, free = build(("Z/3 on Cw", QQ))
    omega = broken(m.mult.components["pt"], "other endomorphism", 0, 0)
    assert slot_map(omega) is None
    assert not assert_monad_agrees(broken_monad(m, "other endomorphism", 1, "pt", 0, 0)).passed
    assert not assert_object_agrees(
        broken_object(free[0], "other endomorphism", "g", 0, 0)).passed


def test_a_monad_whose_m_keeps_no_identity_takes_the_law_list():
    _, m, _, _ = build(("Z/3 on C1", QQ))
    b = broken_monad(m, "M keeps no identity", 0, None, 0, 0)
    # η and μ are still identity placements: only M(id) = 2·id gives the laws away
    assert all(slot_map(c) is not None for t in (b.unit, b.mult) for c in t.components.values())
    with composing() as composed:
        validate_monad(b)
    assert composed
    assert not assert_monad_agrees(b).passed


def test_a_summand_mismatch_is_not_a_slot():
    """On A2, id_1's coordinates are also those of the arrow a: 1 → 2."""
    act, _, _, free = build(("Z/2 on A2", QQ))
    cat = act.base
    assert slot_map(Morphism(cat, cat.obj("1"), cat.obj("2"), [[cat.id_vec("1")]])) is None
    z = free[-1]  # F(1⊕2), whose carrier holds both objects
    b = broken_object(z, "summand mismatch", "g", 0, 0)
    assert slot_map(b.alpha["g"]) is None
    assert not assert_object_agrees(b).passed


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_drawn_breaks_agree(data):
    case = data.draw(st.sampled_from(CASES), label="case")
    act, group_monad, adj_monad, free = build(case)
    i, j = data.draw(st.integers(0, 50), label="i"), data.draw(st.integers(0, 50), label="j")
    if data.draw(st.booleans(), label="monad"):
        m = data.draw(st.sampled_from((group_monad, adj_monad)), label="which monad")
        kind = data.draw(st.sampled_from(KINDS + ("M keeps no identity",)), label="kind")
        x = data.draw(st.sampled_from(m.cat.objects), label="x")
        b = broken_monad(m, kind, data.draw(st.integers(0, 1), label="η or μ"), x, i, j)
        if b is not None:
            assert_monad_agrees(b)
    else:
        z = data.draw(st.sampled_from(free), label="free object")
        kind = data.draw(st.sampled_from(KINDS + ("Φ_g keeps no identity",)), label="kind")
        b = broken_object(z, kind, data.draw(st.sampled_from(act.group.elements), label="g"),
                          i, j)
        if b is not None:
            assert_object_agrees(b)


# ---------------------------------------------------------------- the marks

@pytest.mark.parametrize("case", [("S_3 on C1", F5), ("Z/2 swap on C3", QQ),
                                  ("sign Z/2 on A2", F3)], ids=case_id)
def test_valid_and_free_on_are_set_as_by_the_law_list(case, monkeypatch):
    act, _, _, _ = build(case)
    decided = []
    laws = EquivariantObject._laws

    def spying(self):
        decided.append((self.free_on, self.report))
        return laws(self)

    monkeypatch.setattr(EquivariantObject, "_laws", spying)
    x = act.base.obj(*act.base.objects)
    with composing() as composed:
        z = free_equivariant(act, x)
    assert decided == [(None, None)] and composed == []  # slot maps decide, before the mark
    assert z.report is not None and z.free_on == x
    hand = EquivariantObject(act, z.carrier, z.alpha)
    assert hand.report is None and hand.free_on is None
    fast = checked(hand, EquivariantObject.validate)
    assert fast.passed and hand.report is fast and hand.free_on is None
    for kind in ("2·id", "dropped block"):
        b = broken_object(z, kind, act.group.elements[1], 0, 0)
        fast = checked(b, EquivariantObject.validate)
        assert not fast.passed and b.report is None and b.free_on is None
        with composed_laws():
            again = checked(b, EquivariantObject.validate)
            assert again.checks == fast.checks and b.report is None


def test_the_workspace_group_monad_reports_are_the_law_lists():
    ws = parse_workspace(str(FIXTURE), validate=False)
    names = [n for n in ws.monads if n.startswith("grpmonad_")]
    assert len(names) == 6
    for name in names:
        m = ws.monad(name)
        assert m.report is not None
        assert m.report.checks == reports(validate_monad, m)[2].checks


def test_validate_writes_the_same_report_without_the_slot_decisions(tmp_path):
    assert run(["-w", str(FIXTURE), "--out", str(tmp_path / "fast"), "validate"]) == 0
    with composed_laws():
        assert run(["-w", str(FIXTURE), "--out", str(tmp_path / "full"), "validate"]) == 0
    assert ((tmp_path / "fast" / "report.json").read_bytes()
            == (tmp_path / "full" / "report.json").read_bytes())

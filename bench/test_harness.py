"""Tests of the harness's own logic.  Run with: python3 -m pytest bench -q"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
from measure import (REFERENCE_KERNEL_S, Normalizer, Tally, beyond,  # noqa: E402
                     hd_quantile, maschke_feasible, p90, p90_supported,
                     prime_dividing, prime_not_dividing)
from run import run_checked  # noqa: E402
from workloads import Op, SweepCase, sweep_cases  # noqa: E402


def test_p90_needs_ten_samples_beyond_it():
    hundred = list(range(1, 101))
    assert beyond(hundred, p90(hundred)) == 10
    assert p90_supported(hundred)
    ninety = list(range(1, 91))
    assert beyond(ninety, p90(ninety)) == 9
    assert not p90_supported(ninety)
    # ties at the quantile do not count as beyond it
    assert not p90_supported([1.0] * 200)


def test_harrell_davis_quantile():
    xs = list(range(1, 101))
    assert hd_quantile(xs, 0.5) == pytest.approx(50.5)
    rng = random.Random(3)
    ys = [rng.random() for _ in range(2000)]
    assert hd_quantile(ys, 0.9) == pytest.approx(p90(ys), abs=0.01)
    # few samples of very different sizes: the estimate lies between the clusters
    mix = [0.1] * 36 + [2.0] * 4
    assert 0.1 < hd_quantile(mix, 0.9) < 2.0
    # too few samples for the Beta weights: the plain inclusive decile
    assert hd_quantile([5, 1, 4, 2, 3], 0.9) == pytest.approx(4.6)
    assert hd_quantile([3.0], 0.5) == 3.0


def test_normalizer_scales_by_the_kernel_time_around_each_batch():
    # kernel runs take 20 ms before the batch and 10 ms after it
    ticks = [0, 0.02, 1, 1.02, 2, 2.02, 3, 3.01, 4, 4.01, 5, 5.01]
    norm = Normalizer(kernel=lambda: None, clock=FakeClock(ticks))
    norm.add(0.1)
    assert norm.scaled == []
    norm.add(0.2)
    assert norm.raw == [0.1, 0.2]
    factor = REFERENCE_KERNEL_S / 0.015
    assert norm.scaled == pytest.approx([0.1 * factor, 0.2 * factor])


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_is_span_time_minus_child_spans(monkeypatch):
    # op [0, 10] ⊃ a [1, 7] ⊃ b [2, 5];  op ⊃ c [8, 9]
    monkeypatch.setattr(spans, "perf_counter", FakeClock([0, 1, 2, 5, 7, 8, 9, 10]))
    rec = spans.Recorder()
    rec.begin_op(1, "op")
    rec.push("linalg.solve")
    rec.push("category.compose")
    rec.pop("b")
    rec.pop("a")
    rec.push("monads.verify")
    rec.pop("c")
    rec.end_op()
    by_name = {s[1]: s for s in rec.spans}
    assert by_name["category.compose:b"][6] == 3
    assert by_name["linalg.solve:a"][6] == 3
    assert by_name["monads.verify:c"][6] == 1
    assert by_name["op:op"][6] == 3
    assert by_name["category.compose:b"][2] == by_name["linalg.solve:a"][0]
    layer = rec.layer_self()
    assert layer["linalg"] == 3 and layer["category"] == 3 and layer["monads"] == 1
    assert layer["remainder"] == 3
    assert sum(layer.values()) == rec.group("op").incl == 10


def test_nested_calls_of_one_group_count_once_in_inclusive_time(monkeypatch):
    # build [0, 10] ⊃ build [2, 6]: two calls, 10 s inclusive, self 6 + 4
    monkeypatch.setattr(spans, "perf_counter", FakeClock([0, 2, 6, 10]))
    rec = spans.Recorder()
    rec.push("equivariant.build")
    rec.push("equivariant.build")
    rec.pop("inner")
    rec.pop("outer")
    tot = rec.group("equivariant.build")
    assert (tot.calls, tot.incl, tot.self_s, tot.max_s) == (2, 10, 10, 10)


def test_assemble_time_excludes_elimination_and_verification(monkeypatch):
    # solve [0, 10] ⊃ eliminate [1, 4], verify [5, 9], invert [9, 10]
    monkeypatch.setattr(spans, "perf_counter", FakeClock([0, 1, 4, 5, 9, 9, 10, 10]))
    rec = spans.Recorder()
    rec.push("monads.solve")
    for group in ("linalg.solve", "monads.verify", "category.invert"):
        rec.push(group)
        rec.pop(group)
    rec.pop("solve")
    assert rec.assemble_s("monads.solve") == 3


def test_failures_are_counted_against_attempts():
    tally = Tally()

    def boom():
        raise ZeroDivisionError("x")

    def bad_check(_):
        raise KeyError("y")

    ops = [Op("good", lambda: 1, lambda r: (r == 1, "")),
           Op("raises", boom, lambda r: (True, "")),
           Op("wrong", lambda: 2, lambda r: (r == 1, "wrong verdict")),
           Op("check raises", lambda: 1, bad_check)]
    oks = [run_checked(op, tally)[2] for op in ops]
    assert oks == [True, False, False, False]
    assert (tally.attempted, tally.failed) == (4, 3)
    assert tally.fail_frac == 0.75
    assert any("ZeroDivisionError" in f for f in tally.failures)


@pytest.mark.parametrize("order,char,feasible", [
    (2, 0, True), (2, 2, False), (2, 3, True), (3, 3, False), (3, 2, True),
    (6, 5, True), (6, 2, False), (6, 3, False), (7, 7, False), (7, 2, True)])
def test_maschke_oracle(order, char, feasible):
    assert maschke_feasible(order, char) is feasible


def test_sweep_fields_cover_both_verdicts():
    for n in range(2, 8):
        assert maschke_feasible(n, prime_not_dividing(n))
        assert not maschke_feasible(n, prime_dividing(n))
    cases = sweep_cases()
    assert len(cases) == 40
    assert sum(not c.expected_feasible() for c in cases) == 12


def test_fabricated_rank_certificate_is_not_trusted():
    import sepcat
    case = SweepCase("monad", "Z/2", 2, "C1", "trivial", 0)
    fake = sepcat.Infeasible(rank=3, rank_augmented=4, n_vars=8, n_rows=44)
    ok, _ = case.check(fake)
    assert not ok
    infeasible_case = SweepCase("monad", "Z/2", 2, "C1", "trivial", 2)
    assert infeasible_case.check(infeasible_case.solve())[0]
    assert not infeasible_case.check(case.solve())[0]


def test_patches_reach_every_from_import_and_restore():
    import sepcat
    import sepcat.category
    import sepcat.equivariant
    original = sepcat.category.invert_morphism
    rec = spans.Recorder()
    patches = spans.Patches(rec)
    patches.install()
    try:
        assert patches.stale() == []
        assert sepcat.equivariant.invert_morphism is not original
        assert sepcat.equivariant.invert_morphism is sepcat.category.invert_morphism
        q = sepcat.Field.rationals()
        pt = sepcat.standard.point_category(q).obj("pt")
        sepcat.equivariant.invert_morphism(pt.identity())
    finally:
        patches.restore()
    assert sepcat.equivariant.invert_morphism is original
    assert rec.group("category.invert").calls == 1
    assert rec.group("linalg.solve").calls == 1
    assert rec.group("category.compose").calls >= 2

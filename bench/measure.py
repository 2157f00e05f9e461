"""Statistics, machine-speed scaling, failure accounting and the verdict
oracle used by the harness.

Nothing here imports sepcat, so the harness's own logic is testable alone.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from math import exp, lgamma, log
from time import perf_counter

MIN_BEYOND = 10
REFERENCE_KERNEL_S = 0.010
# The speed kernel runs again once this much measured time has been added.
SPEED_EVERY_S = 0.25


def decile(samples, q: float) -> float:
    """The q-quantile for q a multiple of 0.1, interpolating between order statistics."""
    xs = list(samples)
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[round(q * 10) - 1]


def p90(samples) -> float:
    return decile(samples, 0.9)


def hd_quantile(samples, q: float) -> float:
    """Harrell–Davis estimate of the q-quantile, q a multiple of 0.1: a
    Beta(q(n+1), (1-q)(n+1))-weighted mean of all order statistics.  It is
    steadier than a single order statistic when a run has few ops of very
    different sizes."""
    xs = sorted(samples)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    if a <= 1 or b <= 1:
        return decile(xs, q)
    log_beta = lgamma(a) + lgamma(b) - lgamma(a + b)

    def density(t):
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return exp((a - 1) * log(t) + (b - 1) * log(1 - t) - log_beta)

    steps = 16
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        inner = sum((4 if k % 2 else 2) * density(lo + k * h) for k in range(1, steps))
        weights.append((density(lo) + inner + density(lo + steps * h)) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def beyond(samples, value: float) -> int:
    """How many samples lie strictly above value."""
    return sum(1 for x in samples if x > value)


def p90_supported(samples) -> bool:
    """Whether p90 has at least MIN_BEYOND samples above it."""
    return beyond(samples, p90(samples)) >= MIN_BEYOND


def maschke_feasible(group_order: int, characteristic: int) -> bool:
    """Maschke's theorem: a section of the group monad exists iff char ∤ |G|."""
    if group_order < 1:
        raise ValueError("a group has positive order")
    return characteristic == 0 or group_order % characteristic != 0


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def prime_not_dividing(n: int) -> int:
    """The smallest prime p with p ∤ n: over F_p the group algebra is semisimple."""
    p = 2
    while not _is_prime(p) or n % p == 0:
        p += 1
    return p


def prime_dividing(n: int) -> int:
    """The smallest prime p with p | n: over F_p Maschke's theorem fails."""
    if n < 2:
        raise ValueError("only n ≥ 2 has a prime divisor")
    return next(p for p in range(2, n + 1) if n % p == 0 and _is_prime(p))


class Tally:
    """Ops attempted and failed; an op fails on an exception or a failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, op_name: str, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{op_name}: {why}")

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def speed_kernel() -> dict:
    """Fixed pure-Python work of the kinds sepcat does, with small fractions:
    sparse row updates as in elimination, then a dense product as in composition."""
    row = {j: Fraction(j % 5 + 1, j % 3 + 1) for j in range(40)}
    acc = {}
    for i in range(1, 30):
        c = Fraction(i % 7 + 1, i % 4 + 1)
        for j, v in row.items():
            nv = acc.get(j)
            acc[j] = -c * v if nv is None else nv - c * v
    n = 10
    a = [[Fraction((i * j) % 7 + 1, (i + j) % 3 + 1) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            acc[(i, j)] = sum((a[i][k] * a[k][j] for k in range(n)), Fraction(0))
    return acc


class Normalizer:
    """Scale measured times by the machine speed around them.

    A shared machine changes speed by tens of percent within seconds.  The
    harness assumes that the change is the same for sepcat's code and for a
    fixed pure-Python kernel; ``calibrate.py`` checks that assumption.  The
    kernel runs before the first time and again once at least SPEED_EVERY_S
    seconds have been added since the last run; each time is scaled by
    REFERENCE_KERNEL_S over the mean kernel time of the two runs around it.
    The result is in kernel-relative units: seconds of a machine on which the
    kernel takes REFERENCE_KERNEL_S, not seconds of wall time.
    """

    def __init__(self, kernel=speed_kernel, clock=perf_counter):
        self.kernel = kernel
        self.clock = clock
        self.raw = []
        self.scaled = []
        self._pending = []
        self._last = self._speed()

    def _speed(self) -> float:
        runs = []
        for _ in range(3):
            t0 = self.clock()
            self.kernel()
            runs.append(self.clock() - t0)
        return statistics.median(runs)

    def add(self, seconds: float) -> None:
        self._pending.append(seconds)
        if sum(self._pending) >= SPEED_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        now = self._speed()
        factor = REFERENCE_KERNEL_S / ((self._last + now) / 2)
        self.raw.extend(self._pending)
        self.scaled.extend(t * factor for t in self._pending)
        self._pending = []
        self._last = now

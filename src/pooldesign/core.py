"""Core quantities for batch screening designs.

Items arrive as an unlimited stream and each one is good independently
with probability q.  A batch of n items is screened with a single test
that comes back clean only if all n items are good, which happens with
probability q**n.  A clean batch is accepted whole; a failed batch is
discarded and a fresh batch of the same size is drawn, so the number of
tests spent per accepted batch is geometric with mean q**-n.

A design that needs N accepted items splits N into batch sizes
n_1 + ... + n_I = N and pays an expected q**-n_1 + ... + q**-n_I tests.
This module owns every price of a batch (q**n, q**-n, the solvers' power
table and balanced-split cost, a design's sum rounded once), the value
types shared by the solvers (Partition holds a design as (size, count)
runs, so the work on a balanced one does not grow with I), and the
optimal batch size when every batch must have the same size, decided
exactly from the defect probability p = 1 - q.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cache, partial
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator

# Absolute/relative tolerances for comparing candidate design costs:
# well above double rounding noise and well below any real gap between
# distinct small candidates.
VALUE_ATOL = 1e-12
VALUE_RTOL = 1e-12


def _cost_limit(best: float) -> float:
    """The largest cost within the shared design-cost tolerance of best."""
    return best + VALUE_ATOL + VALUE_RTOL * abs(best)


def values_close(a: float, b: float) -> bool:
    """True when a and b agree within the shared design-cost tolerance."""
    return a <= _cost_limit(b) and b <= _cost_limit(a)


def _int_power(base: float, exponent: int) -> float:
    # Repeated squaring; squares only while bits remain so the final
    # square cannot overflow spuriously after the result is complete.
    result = 1.0
    b = base
    e = exponent
    while True:
        if e & 1:
            result *= b
        e >>= 1
        if e == 0:
            return result
        b *= b


def _inverse_power_table(q: float, n_max: int) -> list[float]:
    """List t with t[n] = q**-n for n = 0..n_max, as Python floats.

    Each entry is the product _int_power forms, t[n - top] * (1/q)**top
    with top the largest power of two <= n, so it is bit for bit the
    value expected_waiting_time sums, or inf past double range.  No
    search picks an inf batch: singletons cost a finite N / q.
    """
    table = [1.0]
    power = 1.0 / q  # (1/q)**len(table) while len(table) is a power of two
    while len(table) <= n_max:
        table += [t * power for t in table[: n_max + 1 - len(table)]]
        power *= power
    return table


def _check_int(value: int, name: str, minimum: int | None = None) -> int:
    # Accepts any integer-like (numpy ints included), rejects bools/floats.
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        index = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and index < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {index}")
    return index


def _check_q(q: float) -> None:
    if q == 0:
        raise ValueError(
            "per-item pass probability q = 0: no batch can ever pass, "
            "so the expected number of tests is infinite"
        )
    if not 0.0 < q <= 1.0:
        raise ValueError(f"per-item pass probability must be in (0, 1], got {q}")


def batch_pass_probability(n: int, q: float) -> float:
    """Probability q**n that a batch of n items tests clean."""
    n = _check_int(n, "batch size", 1)
    _check_q(q)
    return _int_power(q, n)


def batch_waiting_time(n: int, q: float) -> float:
    """Expected tests q**-n spent until a batch of size n passes."""
    n = _check_int(n, "batch size", 1)
    _check_q(q)
    value = _int_power(1.0 / q, n)
    if math.isinf(value):
        raise OverflowError(
            f"expected waiting time q**-n exceeds double precision "
            f"for n = {n}, q = {q}"
        )
    return value


def mu(n: int, q: float) -> float:
    """Expected items accepted per test, n * q**n, for batches of size n."""
    # checked first; index() keeps the product a Python float for a numpy n
    return batch_pass_probability(n, q) * operator.index(n)


def per_item_cost(n: int, q: float) -> float:
    """Expected tests per accepted item, 1 / (n * q**n); the inverse of mu."""
    return batch_waiting_time(n, q) / n


@dataclass(frozen=True)
class Partition:
    """Batch sizes summing to the demand, held as (size, count) runs, sizes ascending.

    A balanced design is one or two runs, whatever its batch count I;
    iteration yields the I sizes lazily, and sizes is their tuple.
    """

    runs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        merged = Counter()
        for size, count in self.runs:
            merged[_check_int(size, "batch size", 1)] += _check_int(count, "run count", 1)
        if not merged:
            raise ValueError("a design needs at least one batch")
        if (batches := sum(merged.values())) > sys.maxsize:  # len() could not report it
            raise ValueError(f"a design holds at most {sys.maxsize} batches, got {batches}")
        object.__setattr__(self, "runs", tuple(sorted(merged.items())))

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def total(self) -> int:
        return sum(size * count for size, count in self.runs)

    def __len__(self) -> int:
        return sum(count for _, count in self.runs)

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(repeat(size, count) for size, count in self.runs)


def as_partition(sizes: Partition | Iterable[int]) -> Partition:
    """Coerce a Partition or an iterable of batch sizes to a Partition."""
    if isinstance(sizes, Partition):
        return sizes
    return Partition(tuple((n, 1) for n in sizes))


def _runs_cost(runs: Iterable[tuple[float, int]]) -> float:
    """The exact sum of count * cost over (cost, count) runs, rounded once.

    A finite double is an integer over a power of two, so the sum is held
    exactly over the largest denominator and one int / int division rounds
    it; inf when a counted cost is inf or the sum is past double range.
    """
    total, scale = 0, 1
    try:
        for cost, count in runs:
            numerator, denominator = cost.as_integer_ratio() if count else (0, 1)
            if denominator > scale:
                total, scale = total * (denominator // scale), denominator
            total += count * numerator * (scale // denominator)
        return total / scale
    except OverflowError:  # from an inf cost or a sum past double range
        return math.inf


def _balanced_cost(demand: int, q: float) -> Callable[[int], float]:
    """Count I's balanced-split cost (I - r) * q**-floor(N/I) + r * q**-ceil(N/I),
    r = N mod I, rounded once by _runs_cost as expected_waiting_time rounds it.
    """
    power = cache(partial(_int_power, 1.0 / q))

    def cost(count: int) -> float:
        small, bumped = divmod(demand, count)
        return _runs_cost(((power(small), count - bumped), (power(small + 1), bumped)))

    return cost


def expected_waiting_time(partition: Partition | Iterable[int], q: float) -> float:
    """Expected total tests for a design: the sum of q**-n over its batches, rounded once."""
    total = _runs_cost([(batch_waiting_time(n, q), c) for n, c in as_partition(partition).runs])
    if math.isinf(total):
        raise OverflowError(f"expected total tests exceed double precision for q = {q}")
    return total


@dataclass(frozen=True)
class ConstantSizeResult:
    """Optimal batch size(s) when every batch must have the same size.

    n_star_low is the optimal size; n_star_high is the next size up when
    the two tie, which they do exactly at p = 1 - q = 1 / (n + 1): when q
    is the double nearest n / (n + 1) or 1 - p for p the double nearest
    1 / (n + 1).  Any other q is decided exactly, with no tie.
    """

    n_star_low: int
    n_star_high: int | None
    items_per_test: float


def _constant_sizes(p: float) -> tuple[int | None, int | None]:
    """Optimal constant batch size(s) for defect probability p, exact in p.

    Sizes k - 1 and k tie when p is the double nearest 1 / k; otherwise
    floor(1 / p), taken from p's integer ratio, is the one optimum.
    (None, None) when q = 1 - p rounds to 1, which has no finite optimum.
    """
    if 1.0 - p == 1.0:
        return None, None
    k = round(1.0 / p)
    if p == 1.0 / k:
        return k - 1, k
    num, den = p.as_integer_ratio()
    return den // num, None


def optimal_constant_size(q: float) -> ConstantSizeResult:
    """Batch size maximizing expected items accepted per test.

    mu(n + 1, q) / mu(n, q) = q (n + 1) / n, so mu(n, q) = n * q**n
    rises while q > n / (n + 1) and the integer optimum is the n with
    n <= 1 / (1 - q) <= n + 1; sizes n and n + 1 tie exactly when
    q = n / (n + 1).  For q <= 1/2 batches of one item are optimal
    (q = 1/2 ties with pairs).  q = 1 has no finite optimum since mu
    grows without bound.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"constant-size optimum needs q in (0, 1), got {q}")
    if q < 0.5:
        return ConstantSizeResult(1, None, mu(1, q))
    p = 1.0 - q  # exact for q >= 1/2 (Sterbenz)
    k = round(1.0 / p)
    # the double nearest (k - 1) / k, and 1 - p derived from p = 1 / k,
    # both stand for the tie p = 1 / k
    if q in ((k - 1) / k, 1.0 - 1.0 / k):
        p = 1.0 / k
    low, high = _constant_sizes(p)
    return ConstantSizeResult(low, high, mu(low, q))

"""sweep_solve's count search, checked against the full count scan.

sweep_solve finds its batch count with _sweep_count, a ternary search
over a cost convex in the count followed by a bisection for the fewest
count within tolerance.  The reference below is the scan it replaced:
every count from 1 to N priced at once with numpy arrays, from the same
q**-n table and under the same tie rule, with the counts near the
minimum or the tolerance limit re-priced exactly, as sweep prices every
count.  Both must pick the same count
on a seeded grid that crowds the q where the best count jumps: the ties
k / (k + 1), the merge boundaries 2**(-1/x), the odd split boundaries
q**-m = 1 + 1/q, q < 1/2 and q = 1.  Near a boundary a batch the cost
tolerance cannot tell from its split decides the count only at large
demand (at q = 1/2 - 1e-9 a pair costs 8e-9 more than two singletons,
inside the tolerance once N passes about 4000), so the demands reach
8000.  The convexity the search
relies on is checked exactly on the rounded q**-n it prices.
"""

import math
import random
import time
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from pooldesign import sweep_solve
from pooldesign.core import VALUE_ATOL, VALUE_RTOL, _inverse_power
from pooldesign.solvers import _inverse_power_table, _sweep_count

MAX_DEMAND = 8000
# Relative margin, at least 9 ulps at any magnitude, around the minimum
# and the limit inside which reference_count re-prices a count exactly.
NEAR = 2e-15


@lru_cache(maxsize=None)
def inverse_powers(q):
    """q**-n for n = 0..MAX_DEMAND, bit for bit the values sweep prices with."""
    return np.array(_inverse_power_table(q, MAX_DEMAND))


@lru_cache(maxsize=1)
def demand_arrays(demand):
    """Per count I = 1..N, with N = s * I + r: I - r, s, r, and s + 1 where r > 0.

    Where r = 0 the last is 0, so that batch term is 0 * q**-0 = 0, where
    q**-(s + 1) could be inf and 0 * inf is nan.
    """
    counts = np.arange(1, demand + 1)
    small, bumped = np.divmod(demand, counts)
    return counts - bumped, small, bumped, np.where(bumped > 0, small + 1, 0)


def reference_count(demand, q):
    """The fewest batches within tolerance of the best, over every count.

    Every count is priced at once with float arrays, each cost within
    2.5 ulps of its exact value rounded once, the value sweep prices.
    So only counts priced within 5 ulps of the minimum can hold the
    least rounded cost, and only those within 2.5 ulps of the limit can
    fall on the other side of it: counts priced within NEAR of either
    are re-priced exactly, as one ratio of integers.
    """
    assert demand <= MAX_DEMAND
    inv = inverse_powers(q)
    rest, small, bumped, large = demand_arrays(demand)
    with np.errstate(over="ignore"):  # an inf cost is never the minimum
        costs = rest * inv[small] + bumped * inv[large]

    def exact(index):
        # q**-n is num / den exactly and int / int is correctly rounded;
        # a numpy int would overflow the products
        count = int(index) + 1
        s, r = divmod(demand, count)
        num, den = inv[s].as_integer_ratio()
        if not r:
            return count * num / den
        num_up, den_up = inv[s + 1].as_integer_ratio()
        return ((count - r) * num * den_up + r * num_up * den) / (den * den_up)

    near = NEAR * float(costs.min())
    best = min(map(exact, np.flatnonzero(costs <= costs.min() + near)))
    limit = best + VALUE_ATOL + VALUE_RTOL * abs(best)
    sure = np.flatnonzero(costs < limit - near)[0]
    edge = np.flatnonzero(costs[:sure] <= limit + near)
    return int(next((i for i in edge if exact(i) <= limit), sure)) + 1


def odd_split_boundary(m):
    """The q in (1/2, 1) with q**-m = 1 + 1/q, by bisection."""
    lo, hi = 0.5, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid ** -m > 1 + 1 / mid:
            lo = mid
        else:
            hi = mid
    return lo


def q_grid(rng):
    ties = [k / (k + 1) for k in (1, 2, 3, 4, 5, 7, 9, 13, 19, 33, 49, 99, 199)]
    merges = [2.0 ** (-1 / x) for x in (1, 2, 3, 4, 5, 6, 8, 11, 17, 25, 40, 70, 120)]
    odd_splits = [odd_split_boundary(m) for m in (2, 3, 4, 5, 7, 10, 16, 30, 60)]
    grid = {1.0}
    for boundary in ties + merges + odd_splits:
        grid.add(boundary)
        for offset in (1e-13, 1e-12, 1e-10, 1e-9, 1e-8):
            grid.update((boundary - offset, boundary + offset))
    grid.update((1e-7, 0.01, 0.3, 0.49))
    grid.update(rng.uniform(1e-3, 0.5) for _ in range(8))
    grid.update(rng.uniform(0.5, 1.0) for _ in range(25))
    grid.update(1 - 10 ** -rng.uniform(1, 3.5) for _ in range(15))
    return sorted(q for q in grid if 0 < q <= 1)


def demand_grid(rng):
    logs = (rng.uniform(math.log(25), math.log(MAX_DEMAND)) for _ in range(32))
    return [*range(1, 25), *(int(math.exp(x)) for x in logs)]


def test_sweep_picks_the_reference_count():
    rng = random.Random(20171208)
    start = time.perf_counter()
    # each q draws its own demands; taken demand by demand, the pairs
    # build each demand's count arrays once and each q's powers once
    pairs = sorted((demand, q) for q in q_grid(rng) for demand in demand_grid(rng))
    try:
        for demand, q in pairs:
            got = len(sweep_solve(demand, q).partition)
            assert got == reference_count(demand, q), (demand, q)
    finally:
        inverse_powers.cache_clear()  # about 27 MB of powers for some 430 q
    assert len(pairs) >= 20_000
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("q", (1e-300, 1e-7, 0.01, 0.3, 0.49))
@pytest.mark.parametrize("demand", (1, 2, 7, 1000, 10**9))
def test_window_is_all_singletons_below_half(demand, q):
    # named for the count window the search replaced, so the ids stay stable
    assert _sweep_count(demand, q) == demand


@pytest.mark.parametrize("demand", (1, 2, 7, 1000, 10**9))
def test_window_is_one_batch_at_q_one(demand):
    assert _sweep_count(demand, 1.0) == 1


@pytest.mark.parametrize(
    "demand, q, count",
    (
        (10**9, 0.99, 10**7),
        (10**9, 0.5, 5 * 10**8),
        # the full scan's count on a near-flat slope, where probing
        # adjacent counts stops at 13163, 4.4e-8 above the best cost
        # against a tolerance of 3.7e-8
        (18717, 0.499999999999, 14037),
    ),
)
def test_count_at_known_points(demand, q, count):
    assert _sweep_count(demand, q) == count


def test_balanced_cost_is_convex_in_the_count():
    # C(I) = (I - r) * a[s] + r * a[s + 1] for N = s * I + r, summed
    # exactly from the rounded a[n] = q**-n that sweep prices with.
    rng = random.Random(20171209)
    qs = [k / (k + 1) for k in (1, 2, 3, 5, 9, 19, 49, 199)]
    qs += [2.0 ** (-1 / x) for x in (1, 2, 3, 5, 8, 17, 40, 120)]
    qs += [rng.uniform(0.1, 0.5) for _ in range(6)]
    qs += [rng.uniform(0.5, 0.999) for _ in range(10)]
    demands = [*range(3, 40), *rng.sample(range(40, 301), 12)]
    for q in qs:
        a = [Fraction(_inverse_power(q, n)) for n in range(302)]
        for demand in demands:
            costs = [None]
            for count in range(1, demand + 1):
                small, bumped = divmod(demand, count)
                costs.append((count - bumped) * a[small] + bumped * a[small + 1])
            for i in range(2, demand):
                assert costs[i - 1] + costs[i + 1] >= 2 * costs[i], (q, demand, i)


def test_memory_grows_with_the_window_not_the_demand():
    # at q = 1 - 1e-6 the window is one or two counts of huge batches
    for demand, q in ((10**6, 0.99), (10**6, 1 - 1e-6)):
        tracemalloc.start()
        try:
            sweep_solve(demand, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, (demand, q)

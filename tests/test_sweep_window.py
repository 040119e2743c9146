"""sweep_solve's count window, checked against the full count scan.

sweep_solve prices only the batch counts in _sweep_window.  The
reference below is the scan it replaced: every count from 1 to N priced
at once with numpy arrays, under the same tie rule.  Both must pick the
same count on a seeded grid that crowds the q where the window's ends
move: the ties k / (k + 1), the merge boundaries 2**(-1/x), the odd
split boundaries q**-m = 1 + 1/q, q < 1/2 and q = 1.  Near a boundary a
batch the cost tolerance cannot tell from its split decides the count
only at large demand (at q = 1/2 - 1e-9 a pair costs 8e-9 more than two
singletons, inside the tolerance once N passes about 4000), so the
demands reach 8000.
"""

import math
import random
import time
import tracemalloc

import numpy as np
import pytest

from pooldesign import VALUE_ATOL, VALUE_RTOL, sweep_solve
from pooldesign.solvers import _sweep_window


def reference_count(demand, q):
    """The fewest batches within tolerance of the best, over every count."""
    inv = np.empty(demand + 1)
    inv[0] = 1.0
    counts = np.arange(1, demand + 1)
    small = demand // counts
    bumped = demand - small * counts
    large = np.minimum(small + 1, demand)  # unused when bumped == 0
    with np.errstate(over="ignore"):  # an inf cost is never the minimum
        np.cumprod(np.full(demand, 1.0 / q), out=inv[1:])
        costs = (counts - bumped) * inv[small]
        # where bumped == 0, inv[large] may be inf and 0 * inf is nan
        costs += np.multiply(
            bumped, inv[large], out=np.zeros(demand), where=bumped > 0
        )
    best = float(costs.min())
    tolerance = VALUE_ATOL + VALUE_RTOL * abs(best)
    return int(np.flatnonzero(costs <= best + tolerance)[0]) + 1


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
    logs = (rng.uniform(math.log(25), math.log(8000)) for _ in range(32))
    return [*range(1, 25), *(int(math.exp(x)) for x in logs)]


def test_sweep_picks_the_reference_count():
    rng = random.Random(20171208)
    start = time.perf_counter()
    pairs = 0
    for q in q_grid(rng):
        for demand in demand_grid(rng):
            got = len(sweep_solve(demand, q).partition)
            assert got == reference_count(demand, q), (demand, q)
            pairs += 1
    assert pairs >= 20_000
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("q", (1e-300, 1e-7, 0.01, 0.3, 0.49))
@pytest.mark.parametrize("demand", (1, 2, 7, 1000, 10**9))
def test_window_is_all_singletons_below_half(demand, q):
    assert _sweep_window(demand, q) == range(demand, demand + 1)


@pytest.mark.parametrize("demand", (1, 2, 7, 1000, 10**9))
def test_window_is_one_batch_at_q_one(demand):
    assert _sweep_window(demand, 1.0) == range(1, 2)


def test_memory_grows_with_the_window_not_the_demand():
    tracemalloc.start()
    try:
        sweep_solve(10**6, 0.99)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20

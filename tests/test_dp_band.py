"""dp's banded recursion, checked against the full recursion it replaced.

build_dp_table tries only the batch sizes below the first x whose two
halves cost more than a tolerance-wide slack less than it (see its
docstring).  The reference below is the unbanded recursion it replaced,
kept as it was: every batch size 1..n tried for every demand n, with
numpy arrays.  Both must give the same table bit for bit, values and
choices, on a grid that crowds the ties q = k / (k + 1), where the
fewest-batches rule decides, and at q = 1/2 - 1e-9 with N = 4000 and
6000, where a pair costs only 8e-9 more than two singletons and the
band keeps size 2 only because of the slack.
"""

import random
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from pooldesign import sweep_solve, theorem_solve
from pooldesign.core import VALUE_ATOL, VALUE_RTOL, _check_int, _check_q
from pooldesign.solvers import (
    _inverse_power_table,
    _solve_range,
    build_dp_table,
    dp_solve,
)


@dataclass(frozen=True)
class DpTable:
    values: np.ndarray
    choices: np.ndarray

    def __post_init__(self) -> None:
        self.values.setflags(write=False)
        self.choices.setflags(write=False)


def reference_dp_table(demand: int, q: float) -> DpTable:
    """Tabulate optimal costs for every demand up to the one given.

    Recursion: cost(0) = 0 and
    cost(n) = min over x in 1..n of q**-x + cost(n - x),
    where x is the size of one batch and n - x the demand it leaves.
    """
    demand = _check_int(demand, "demand", 1)
    _check_q(q)
    inv = np.array(_inverse_power_table(q, demand))
    values = np.zeros(demand + 1)
    # stored[n] is the cost of the stored design.  It is held within one
    # tolerance of the exact minimum values[n], so the slack a design
    # inherits from its sub-designs never adds up past that.
    stored = np.zeros(demand + 1)
    choices = np.zeros(demand + 1, dtype=np.int64)
    for n in range(1, demand + 1):
        # candidates[j] = cost of one batch of n - j plus the j items left
        batch = inv[n:0:-1]
        candidates = batch + values[:n]
        exact = int(candidates.argmin())
        best = float(candidates[exact])
        within = batch + stored[:n] <= best + VALUE_ATOL + VALUE_RTOL * best
        within[exact] = True  # in case rounding pushes the minimum out
        # the first j within tolerance is the largest batch size
        j = int(within.argmax())
        values[n] = best
        stored[n] = batch[j] + stored[j]
        choices[n] = n - j
    return DpTable(values=values, choices=choices)


TIE_KS = (1, 2, 3, 4, 5, 7, 9, 13, 19, 49, 99, 199)
OFFSETS = (-1e-12, -1e-15, 0.0, 1e-15, 1e-12)
GRID = sorted(
    {k / (k + 1) + offset for k in TIE_KS for offset in OFFSETS}
    | {0.3, 0.5 - 1e-9, 0.7, 0.9, 0.95, 0.99, 0.995, 0.998, 0.999, 1.0}
)


def assert_same_table(demand, q):
    values, choices = build_dp_table(demand, q)
    full = reference_dp_table(demand, q)
    assert [v.hex() for v in values] == [float(v).hex() for v in full.values]
    assert list(choices) == full.choices.tolist()


@pytest.mark.parametrize("q", GRID)
def test_banded_table_equals_the_full_recursion(q):
    assert_same_table(800, q)


# q where a narrower band, one that lets rows try only sizes from a lower
# edge up, moves a value by an ulp, and seeded q across the pooling range
_seeded = random.Random(28)
BIT_GUARD = (
    (1500, 0.5845699808338178),
    (2500, 0.5916489062562797),
    (1500, 0.5943050317412881),
    (2500, 0.7174853622820386),
    *((1500, _seeded.uniform(0.3, 0.999)) for _ in range(40)),
)


@pytest.mark.parametrize("demand,q", BIT_GUARD)
def test_banded_table_equals_the_full_recursion_bit_for_bit(demand, q):
    assert_same_table(demand, q)


@pytest.mark.parametrize("demand", (4000, 6000))
def test_band_keeps_pairs_the_tolerance_cannot_tell_from_singletons(demand):
    # at q = 1/2 - 1e-9 a pair costs 8e-9 more than two singletons; past
    # N = 4000 that is inside the tolerance, so pairs must stay in the band
    assert_same_table(demand, 0.5 - 1e-9)


@pytest.mark.parametrize("seed", range(8))
def test_one_table_gives_each_demand_its_own_solution(seed):
    rng = random.Random(seed)
    q = rng.choice((0.5, 0.7, 0.9, 0.99, 0.999, 2 / 3 + 1e-15, 0.75 - 1e-12, 1.0))
    demands = sorted(rng.sample(range(1, 700), rng.randint(1, 12)))
    solutions = _solve_range("dp", demands, q)
    assert list(solutions) == [dp_solve(demand, q) for demand in demands]


def test_one_table_checks_every_demand():
    with pytest.raises(ValueError, match="demand must be at least 1, got 0"):
        _solve_range("dp", range(0, 10, 5), 0.9)


@pytest.mark.parametrize("demand,q", ((100_000, 0.99), (1500, 0.5), (20_000, 1 - 1e-7)))
def test_dp_sweep_and_theorem_agree_at_scale(demand, q):
    design = dp_solve(demand, q)
    assert sweep_solve(demand, q).partition == design.partition
    assert theorem_solve(demand, q).partition == design.partition


def test_table_memory_per_row():
    # values, stored and choices take one entry per row; the q**-n table is
    # freed once the band is cut, so it no longer adds to the peak
    def peak(demand):
        tracemalloc.start()
        try:
            dp_solve(demand, 0.5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert (peak(10_000) - peak(5000)) / 5000 <= 90

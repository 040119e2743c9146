"""Solvers for splitting a demand of N accepted items into batches.

Four routes to the same question, cheapest expected total tests
sum of q**-n_i over batch sizes n_i summing to N:

- dp_solve: exact O(N^2) dynamic program over the demand.
- sweep_solve: exact scan that exploits a convexity fact: among
  designs with a fixed number of batches, the most balanced one (sizes
  differing by at most one) is optimal.  It prices only the batch
  counts near N / n* that can win, in plain Python.
- theorem_solve: closed-form construction from the constant-size
  optimum; valid for 0 < q < 1.
- brute_force_solve: enumerates every integer partition of the demand.
  Exponentially slow, kept as ground truth for small N.

All solvers return a DesignSolution whose expected_tests is recomputed
from the returned partition with expected_waiting_time, so equal
partitions report bitwise-equal values regardless of the route taken.

The solvers share one tie rule: among designs within the shared cost
tolerance of the optimum, the fewest batches win.  The cost is
Schur-convex, so at a real tie (q = k / (k + 1)) the rule leaves one
design and every solver returns it; brute_force_solve settles rounding
near-ties by the smallest ascending sizes.  Just off a tie the solvers
may return different designs, each within the tolerance of the optimum.
SOLVERS maps each method name to its solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Iterator

from .core import (
    VALUE_ATOL,
    VALUE_RTOL,
    Partition,
    _check_int,
    _check_q,
    as_partition,
    expected_waiting_time,
    optimal_constant_size,
    values_close,
)

if TYPE_CHECKING:
    import numpy as np

# Added to the tie tolerance in _sweep_window's split test, so that the
# rounding of its logarithms can only widen the window.
_SPLIT_SLACK = 1e-9

# Partition counts grow super-polynomially (N = 50 already has ~200k),
# so the exhaustive solver refuses larger demands.
BRUTE_FORCE_CAP = 50


@dataclass(frozen=True)
class DesignSolution:
    """A partition of the demand with its expected test count and origin."""

    partition: Partition
    expected_tests: float
    method: str

    def __post_init__(self) -> None:
        if self.method not in SOLVERS:
            raise ValueError(
                f"method must be one of {tuple(SOLVERS)}, got {self.method!r}"
            )


def _inverse_power_table(q: float, n_max: int) -> list[float]:
    """List t with t[n] = q**-n for n = 0..n_max, as Python floats.

    Left-to-right products, as np.cumprod forms them; a product past
    double range is inf, without a warning.  Singletons always cost a
    finite N / q, so no search picks a batch that large.
    """
    step = 1.0 / q
    table = [1.0]
    for _ in range(n_max):
        table.append(table[-1] * step)
    return table


@dataclass(frozen=True)
class DpTable:
    """Dynamic-programming table over demands 0..N.

    values[n] is the optimal expected test count for demand n
    (values[0] = 0); choices[n] is the size of one batch of the design
    stored for demand n, alongside the one stored for demand
    n - choices[n].  The stored design costs within the shared cost
    tolerance of values[n], and among the choices that keep it there the
    largest is stored.  At a real tie that choice leaves the smallest
    demand, and the fewest batches an optimal design needs never grows
    as the demand shrinks, so the stored design has the fewest batches
    and, among those, the largest batch.  Just off a tie the stored
    design may hold more batches than the fewest within the tolerance.
    """

    values: np.ndarray
    choices: np.ndarray

    def __post_init__(self) -> None:
        self.values.setflags(write=False)
        self.choices.setflags(write=False)


def build_dp_table(demand: int, q: float) -> DpTable:
    """Tabulate optimal costs for every demand up to the one given.

    Recursion: cost(0) = 0 and
    cost(n) = min over x in 1..n of q**-x + cost(n - x),
    where x is the size of one batch and n - x the demand it leaves.
    """
    demand = _check_int(demand, "demand", 1)
    _check_q(q)
    # numpy is imported here, not at module level, so that the other
    # solvers and the CLI's start-up never load it.
    import numpy as np

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


def _walk_choices(table: DpTable) -> Partition:
    sizes = []
    n = len(table.values) - 1
    while n > 0:
        x = int(table.choices[n])
        sizes.append(x)
        n -= x
    return Partition(tuple(sizes))


def dp_solve(demand: int, q: float) -> DesignSolution:
    """Exact optimum by dynamic programming over the demand."""
    table = build_dp_table(demand, q)
    partition = _walk_choices(table)
    return DesignSolution(partition, expected_waiting_time(partition, q), "dp")


def balanced_partition(demand: int, groups: int) -> Partition:
    """Split demand into the given number of batches, sizes within one.

    demand = groups * floor(demand / groups) + r leaves r batches one
    item larger than the rest.
    """
    demand = _check_int(demand, "demand", 1)
    groups = _check_int(groups, "batch count", 1)
    if groups > demand:
        raise ValueError(
            f"cannot split demand {demand} into {groups} nonempty batches"
        )
    small, bumped = divmod(demand, groups)
    sizes = (small,) * (groups - bumped) + (small + 1,) * bumped
    return Partition(sizes)


def _sweep_window(demand: int, q: float) -> range:
    """The batch counts that can hold sweep's answer.

    Two batches below x_min, the least x with q**-x > 2, merge at no
    extra cost, so the answer holds at most one.  A batch above x_max
    splits at a saving past the tie tolerance: an even 2k once a = q**-k
    has a * (a - 2) above it, an odd 2k + 1 once b = q**-(k + 1) has
    q * b**2 - (1 + q) * b above it (at zero tolerance, q**-k > 2 and
    q**-(k + 1) > 1 + 1/q).  So the answer lies in
    [ceil(N / x_max), floor(N / x_min) + 1]: count 1 for q = 1, and
    count N for q < 1/2 unless pairs fall within the tolerance.
    """
    if q == 1.0:
        return range(1, 2)
    # the table's own ratio: q**-x > c  <=>  x * rate > log(c)
    rate = math.log(1.0 / q)
    x_min = int(math.log(2.0) / rate) + 1
    # N singletons cost N / q, which bounds the best cost
    margin = VALUE_ATOL + VALUE_RTOL * demand / q + _SPLIT_SLACK
    # sizes past N do not matter, and capping keeps int() finite
    even_half = int(min(demand, math.log1p(math.sqrt(1.0 + margin)) / rate))
    root = (1.0 + q + math.sqrt((1.0 + q) ** 2 + 4.0 * q * margin)) / 2.0
    odd_half = int(min(demand, 1.0 + math.log(root) / rate))
    x_max = max(2 * even_half, 2 * odd_half - 1)
    return range(-(-demand // x_max), min(demand, demand // x_min + 1) + 1)


def sweep_solve(demand: int, q: float) -> DesignSolution:
    """Exact optimum by scanning batch counts with balanced splits.

    For a fixed batch count the balanced split is optimal, so the
    search space collapses to one candidate per count: cost(I) =
    (I - r) * q**-floor(N/I) + r * q**-ceil(N/I) with r = N mod I.
    Only the counts in _sweep_window can hold the answer.
    """
    demand = _check_int(demand, "demand", 1)
    _check_q(q)
    window = _sweep_window(demand, q)
    # the window's fewest batches are its largest
    inv = _inverse_power_table(q, -(-demand // window.start))
    costs = []
    for count in window:
        small, bumped = divmod(demand, count)
        cost = (count - bumped) * inv[small]
        costs.append(cost + bumped * inv[small + 1] if bumped else cost)
    best = min(costs)
    limit = best + (VALUE_ATOL + VALUE_RTOL * abs(best))
    fewest = window[next(i for i, cost in enumerate(costs) if cost <= limit)]
    partition = balanced_partition(demand, fewest)
    return DesignSolution(partition, expected_waiting_time(partition, q), "sweep")


def theorem_solve(demand: int, q: float) -> DesignSolution:
    """Optimum from the closed-form construction, for 0 < q < 1.

    Let n* be the constant-size optimum (1 for q < 1/2, where singleton
    batches are optimal) and s, theta the quotient and remainder of the
    demand by n*:

    - s = 0 (demand below n*): a single batch holds everything.
    - n* ties with n* + 1 and ceil(N / (n* + 1)) batches of at least n*
      fit: balance over that many, the fewest batches of optimal sizes.
      At q = 1/2 that makes pairs, plus one single for odd N.
    - theta = 0: s batches of n*.
    - anything else: the better of balancing over s or s + 1 batches.

    Equal-cost cases keep the fewer-batches candidate.
    """
    demand = _check_int(demand, "demand", 1)
    if not 0.0 < q < 1.0:
        raise ValueError(
            f"closed-form construction needs q in (0, 1), got {q}"
        )
    pick = optimal_constant_size(q)
    s, theta = divmod(demand, pick.n_star_low)
    fewest = -(-demand // (pick.n_star_low + 1))
    if s == 0:
        partition = Partition((demand,))
    elif pick.n_star_high is not None and fewest * pick.n_star_low <= demand:
        partition = balanced_partition(demand, fewest)
    elif theta == 0:
        partition = Partition((pick.n_star_low,) * s)
    else:
        fewer = balanced_partition(demand, s)
        more = balanced_partition(demand, s + 1)
        cost_fewer = expected_waiting_time(fewer, q)
        cost_more = expected_waiting_time(more, q)
        if cost_fewer < cost_more or values_close(cost_fewer, cost_more):
            partition = fewer
        else:
            partition = more
    return DesignSolution(partition, expected_waiting_time(partition, q), "theorem")


def integer_partitions(total: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield integer partitions of total as descending tuples."""
    if total < 0:
        raise ValueError(f"cannot partition a negative total, got {total}")
    if max_part is None or max_part > total:
        max_part = total
    if total == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in integer_partitions(total - first, first):
            yield (first, *rest)


def brute_force_solve(demand: int, q: float) -> DesignSolution:
    """Exact optimum by enumerating every partition of the demand.

    Ground truth for the fast solvers; refuses demands above
    BRUTE_FORCE_CAP because the partition count explodes.
    """
    demand = _check_int(demand, "demand", 1)
    _check_q(q)
    if demand > BRUTE_FORCE_CAP:
        raise ValueError(f"demand {demand} exceeds the exhaustive-search cap {BRUTE_FORCE_CAP}")
    inv = _inverse_power_table(q, demand)
    best_cost: float | None = None
    best_sizes: tuple[int, ...] | None = None
    for descending in integer_partitions(demand):
        cost = 0.0
        for n in descending:
            cost += inv[n]
        if best_cost is None:
            best_cost = cost
            best_sizes = descending[::-1]
            continue
        if values_close(cost, best_cost):
            ascending = descending[::-1]
            if (len(ascending), ascending) < (len(best_sizes), best_sizes):
                best_sizes = ascending
                best_cost = min(best_cost, cost)
        elif cost < best_cost:
            best_cost = cost
            best_sizes = descending[::-1]
    partition = Partition(best_sizes)
    return DesignSolution(partition, expected_waiting_time(partition, q), "brute")


# Method name -> solver, in the order the CLI lists them.
SOLVERS = {
    "dp": dp_solve,
    "sweep": sweep_solve,
    "theorem": theorem_solve,
    "brute": brute_force_solve,
}


def is_majorized_by(a: Partition | tuple[int, ...], b: Partition | tuple[int, ...]) -> bool:
    """True when a's sizes are majorized by b's (a is at least as balanced).

    Both partitions must have the same length and total.  Majorization
    compares prefix sums of the sizes in descending order; the cost
    sum of q**-n is Schur-convex, so a majorized (more balanced)
    partition never costs more.
    """
    pa = as_partition(a).sizes[::-1]
    pb = as_partition(b).sizes[::-1]
    if len(pa) != len(pb):
        raise ValueError(
            f"majorization compares equal batch counts, got {len(pa)} and {len(pb)}"
        )
    if sum(pa) != sum(pb):
        raise ValueError(
            f"majorization compares equal totals, got {sum(pa)} and {sum(pb)}"
        )
    return all(x <= y for x, y in zip(accumulate(pa), accumulate(pb)))

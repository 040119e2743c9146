"""Solvers for splitting a demand of N accepted items into batches.

Four routes to the same question, cheapest expected total tests
sum of q**-n_i over batch sizes n_i summing to N:

- dp_solve: exact dynamic program over the batch sizes that can win,
  O(N * b) with b ~ 2 ln 2 / ln(1/q) capped at N (see build_dp_table).
- sweep_solve: exact search that exploits two convexity facts: among
  designs with a fixed number of batches, the most balanced one (sizes
  differing by at most one) is optimal, and that design's cost is
  convex in the batch count.  It prices O(log N) counts, in plain Python,
  and builds the design as one or two (size, count) runs in O(1).
- theorem_solve: sweep's search on the closed-form bracket of two counts
  from the constant-size optimum; valid for 0 < q < 1.
- brute_force_solve: enumerates every integer partition of the demand.
  Exponentially slow, kept as ground truth for small N.

Every solver searches with the q**-n that expected_waiting_time sums and
reports that function's cost of its partition: the exact sum, rounded
once.  sweep_solve and theorem_solve choose by that very value.  All four
keep the fewest batches within the cost tolerance of the optimum (then, in
brute_force_solve, the smallest ascending sizes).  The cost is
Schur-convex, so at a real tie (q = k / (k + 1)) one design is left and
every solver returns it; just off one, dp_solve may keep a batch more.
SOLVERS maps each method name to its solver.
"""

from __future__ import annotations

import bisect
import math
import operator
import sys
from dataclasses import dataclass
from functools import cache, partial
from itertools import accumulate, repeat
from typing import Callable, Iterator, Sequence

from .core import (
    Partition,
    _check_int,
    _check_q,
    _cost_limit,
    _int_power,
    _runs_cost,
    as_partition,
    expected_waiting_time,
    optimal_constant_size,
)

# Partition counts grow super-polynomially (N = 50 already has ~200k),
# so the exhaustive solver refuses larger demands.
BRUTE_FORCE_CAP = 50


@dataclass(frozen=True)
class DesignSolution:
    """A partition of the demand with its expected test count and origin."""

    partition: Partition
    expected_tests: float
    method: str


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


def _check_demand(demand: int) -> int:
    demand = _check_int(demand, "demand", 1)
    if demand > sys.maxsize:  # before any table or list of N entries is built
        raise ValueError(f"demand {demand} exceeds {sys.maxsize}: its design could"
                         " need more batches than can be held")
    return demand


def build_dp_table(demand: int, q: float) -> tuple[list[float], list[int]]:
    """Tabulate optimal costs for every demand up to the one given.

    Returns the lists (values, choices) over demands 0..N.  values[n] is
    the optimal expected test count for demand n (values[0] = 0);
    choices[n] is the size of one batch of the design stored for demand
    n, alongside the one stored for demand n - choices[n].  The stored
    design costs within the shared cost tolerance of values[n], and among
    the choices that keep it there the largest is stored.  At a real tie
    that choice leaves the smallest demand, and the fewest batches an
    optimal design needs never grows as the demand shrinks, so the stored
    design has the fewest batches and, among those, the largest batch.
    Just off a tie the stored design may hold more batches than the
    fewest within the tolerance.

    Recursion: cost(0) = 0 and
    cost(n) = min over x in 1..n of q**-x + cost(n - x),
    where x is the size of one batch and n - x the demand it leaves.

    Only x up to a band is tried.  A batch of x costs e(x) = q**-x -
    q**-floor(x/2) - q**-ceil(x/2) more than its halves, and e never
    decreases: each step adds (1/q - 1) q**-k (q**-k - 1) or
    (1/q - 1) q**-k (q**-(k+1) - 1), both >= 0.  The band ends before the
    first x with e(x) > slack, twice the cost tolerance at N / q, which no
    cost up to N exceeds.  So every larger x loses to floor(x/2) by more
    than any tolerance: it is never the first minimum nor within the
    tolerance, and the table is the full recursion's, bit for bit.

    Rows below single, the first n with q**-n >= 2, are one batch of n.
    Every split of such an n has two or more batches, each costing at
    least 1, so its float sum is at least 2 > q**-n: x = n is the unique
    first minimum, and no larger batch is left for the tolerance scan.
    These rows lie in the band, since e(x) < 2 - 1 - 1 = 0 for x <= n.
    So where q**-N < 2 (N <= ln 2 / p, roughly) the table is linear in N;
    a wide band with N past ln 2 / p stays quadratic.
    """
    demand = _check_demand(demand)
    _check_q(q)
    inv = _inverse_power_table(q, demand)
    slack = 2 * (_cost_limit(demand / q) - demand / q)
    band = next((x for x in range(2, demand + 1)
                 if inv[x] - inv[x // 2] - inv[x - x // 2] > slack), demand + 1) - 1
    descending = inv[band:0:-1]  # one batch of band, band - 1, ..., 1
    single = next((n for n in range(1, band + 1) if inv[n] >= 2.0), band + 1)
    # stored[n], the cost of the stored design, is held within one tolerance
    # of the exact minimum values[n], so inherited slack never adds up past it
    values = [0.0, *inv[1:single]]
    stored, choices = values.copy(), list(range(single))
    del inv  # the rows read only descending: free the N + 1 powers before rows grow
    for n in range(single, demand + 1):
        # batch i has size width - i and leaves the demand low + i
        width = min(n, band)
        low = n - width
        batch = descending[band - width :]
        candidates = list(map(operator.add, batch, values[low:]))
        best = min(candidates)
        exact = candidates.index(best)
        limit = _cost_limit(best)
        # the first i within tolerance is the largest batch size; exact
        # is taken in case rounding pushes the minimum out
        costs = map(operator.add, batch, stored[low : low + exact])
        i = next((i for i, cost in enumerate(costs) if cost <= limit), exact)
        values.append(best)
        stored.append(batch[i] + stored[low + i])
        choices.append(width - i)
    return values, choices


def _walk_choices(choices: list[int], demand: int) -> Partition:
    counts = {}  # size -> batches; Partition sorts the runs
    while demand > 0:
        counts[choices[demand]] = counts.get(choices[demand], 0) + 1
        demand -= choices[demand]
    return Partition(tuple(counts.items()))


def _solve_range(method: str, demands: Sequence[int], q: float) -> Iterator[DesignSolution]:
    """Each solution of an ascending demand range, solved as it is consumed.

    The largest demand is checked first, with brute force's cap.  dp walks
    every demand from one table for the largest: choices[n] reads below n.
    """
    (_check_brute_demand if method == "brute" else _check_demand)(demands[-1])
    if method != "dp":
        return map(SOLVERS[method], demands, repeat(q))
    _check_demand(demands[0])
    _, choices = build_dp_table(demands[-1], q)
    partitions = (_walk_choices(choices, demand) for demand in demands)
    return (DesignSolution(p, expected_waiting_time(p, q), "dp") for p in partitions)


def dp_solve(demand: int, q: float) -> DesignSolution:
    """Exact optimum by dynamic programming over the demand."""
    return next(_solve_range("dp", (demand,), q))


def balanced_partition(demand: int, groups: int) -> Partition:
    """Split demand into the given number of batches, sizes within one.

    demand = groups * floor(demand / groups) + r leaves r batches one
    item larger than the rest: one or two runs, built in O(1).
    """
    demand = _check_int(demand, "demand", 1)
    groups = _check_int(groups, "batch count", 1)
    if groups > demand:
        raise ValueError(f"cannot split demand {demand} into {groups} nonempty batches")
    small, bumped = divmod(demand, groups)
    runs = ((small, groups - bumped), (small + 1, bumped))
    return Partition(runs if bumped else runs[:1])


def _balanced_cost(demand: int, q: float) -> Callable[[int], float]:
    """Count I's balanced-split cost (I - r) * q**-floor(N/I) + r * q**-ceil(N/I),
    r = N mod I, rounded once by _runs_cost as expected_waiting_time rounds it.
    """
    power = cache(partial(_int_power, 1.0 / q))

    def cost(count: int) -> float:
        small, bumped = divmod(demand, count)
        return _runs_cost(((power(small), count - bumped), (power(small + 1), bumped)))

    return cost


def _sweep_count(demand: int, q: float, lo: int = 1, hi: int = sys.maxsize) -> int:
    """The fewest batches whose balanced split costs within tolerance of the best count's.

    [lo, hi], clamped to [1, N], must hold a count of least cost; sweep
    passes every count, so it rests on no closed form.  Count I costs
    I * G(N / I), with G interpolating q**-n linearly between integers, so
    the cost is convex in I.  Ternary search narrows the bracket to the
    cheapest count, top: probes a third of the range apart misplace it by
    no more than a cost difference lost to rounding, where adjacent probes
    on a near-flat slope could stray by many tolerances.  The counts
    within tolerance of top's cost run from the fewest such count up to
    top, and bisecting [1, top] finds it.
    """
    cost = _balanced_cost(demand, q)
    lo, hi = max(lo, 1), min(hi, demand)
    while hi - lo > 2:
        third = (hi - lo) // 3
        # an inf cost lies left of the best, and inf >= inf
        if cost(lo + third) >= cost(hi - third):
            lo += third + 1
        else:
            hi -= third + 1
    top = min(range(lo, hi + 1), key=cost)
    limit = _cost_limit(cost(top))
    if math.isinf(limit):
        # even N singletons overflow; expected_waiting_time raises for them
        return demand
    return bisect.bisect_left(range(1, top + 1), True, key=lambda i: cost(i) <= limit) + 1


def sweep_solve(demand: int, q: float) -> DesignSolution:
    """Exact optimum over balanced splits, one per batch count (see _sweep_count)."""
    demand = _check_demand(demand)
    _check_q(q)
    partition = balanced_partition(demand, _sweep_count(demand, q))
    return DesignSolution(partition, expected_waiting_time(partition, q), "sweep")


def theorem_solve(demand: int, q: float) -> DesignSolution:
    """Optimum from the closed-form construction, for 0 < q < 1.

    Let n* be the constant-size optimum (1 for q < 1/2, where singleton
    batches are optimal) and s = floor(N / n*).  The best balanced split
    uses s or s + 1 batches, so theorem is sweep's search on the
    closed-form bracket [s, s + 1], clamped to [1, N]: the fewest batches
    within tolerance of the cheaper count win, which at q = 1/2 makes
    pairs, plus one single for odd N.
    """
    demand = _check_demand(demand)
    _check_q(q)
    s = demand // optimal_constant_size(q).n_star_low
    partition = balanced_partition(demand, _sweep_count(demand, q, s, s + 1))
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


def _check_brute_demand(demand: int) -> int:
    if (demand := _check_demand(demand)) > BRUTE_FORCE_CAP:
        raise ValueError(f"demand {demand} exceeds the exhaustive-search cap {BRUTE_FORCE_CAP}")
    return demand


def brute_force_solve(demand: int, q: float) -> DesignSolution:
    """Exact optimum by enumerating every partition of the demand.

    Ground truth for the fast solvers; refuses demands above
    BRUTE_FORCE_CAP because the partition count explodes.
    """
    demand = _check_brute_demand(demand)
    _check_q(q)
    inv = _inverse_power_table(q, demand)

    def cost(descending: tuple[int, ...]) -> float:
        total = 0.0  # left to right, inf past double range
        for n in descending:
            total += inv[n]
        return total

    # one walk: the limit is monotone in the cost, so a partition within the
    # final limit was within the limit so far; of those, the fewest batches win
    limit, kept = math.inf, []
    for descending in integer_partitions(demand):
        total = cost(descending)
        limit = min(limit, _cost_limit(total))
        if total <= limit:
            kept.append((total, descending))
    _, ascending = min((len(d), d[::-1]) for total, d in kept if total <= limit)
    partition = as_partition(ascending)
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
    a, b = as_partition(a), as_partition(b)
    if len(a) != len(b):
        raise ValueError(f"majorization compares equal batch counts, got {len(a)} and {len(b)}")
    if a.total != b.total:
        raise ValueError(f"majorization compares equal totals, got {a.total} and {b.total}")
    return all(x <= y for x, y in zip(accumulate(a.sizes[::-1]), accumulate(b.sizes[::-1])))

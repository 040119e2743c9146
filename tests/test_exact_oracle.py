"""Every solver's answer against an exact-rational optimum.

The solvers decide ties within a float cost tolerance, and so do the
other oracles (brute force, the unbanded dp, the full count scan), so
none of them can tell a real tie from a rounding artefact.  This oracle
can: it runs the dp over exact rationals.  With q = a / b in lowest
terms, q**-x = b**x / a**x, and scaled by a**N every cost up to demand N
is the integer b**x * a**(N - x), so sums and comparisons are exact.

Each answer must cost exactly the optimum and hold the fewest batches
among the exact optima.  Two grids:

- real ties, q = k / (k + 1), where designs with different batch counts
  cost exactly the same; each solver runs at float(q), the double that
  stands for the tie;
- generic doubles, taken exactly as Fraction(q), where a tie is all but
  impossible and an answer must simply be the optimum for that double.
"""

import random
from fractions import Fraction
from functools import cache

import pytest

from pooldesign import brute_force_solve, dp_solve, sweep_solve, theorem_solve

TIES = tuple(Fraction(k, k + 1) for k in (1, 2, 3, 9, 19, 99))
TIE_DEMAND = 120
BRUTE_DEMAND = 20

_rng = random.Random(1)
GENERIC = tuple(Fraction(_rng.uniform(0.5, 0.995)) for _ in range(12))
GENERIC_DEMAND = 80


@cache
def exact_optima(q, n_max):
    """(power, values, fewest) for demands 0..n_max, every cost scaled by a**n_max.

    power[x] is one batch of x; values[n] is the optimal cost of demand n;
    fewest[n] is the fewest batches among its optimal designs.  An optimal
    design is one batch x plus an optimal design of n - x, so fewest[n] is
    one more than the least fewest[n - x] over the x that reach values[n].
    """
    a, b = q.numerator, q.denominator
    power = [b**x * a ** (n_max - x) for x in range(n_max + 1)]
    values, fewest = [0], [0]
    for n in range(1, n_max + 1):
        costs = [power[x] + values[n - x] for x in range(1, n + 1)]
        best = min(costs)
        values.append(best)
        fewest.append(1 + min(fewest[n - x] for x, c in enumerate(costs, 1) if c == best))
    return power, values, fewest


def misses(solver, q, n_max):
    """The demands up to n_max where solver's answer at float(q) is not an
    exact optimum with the fewest batches, as (demand, reason) pairs."""
    power, values, fewest = exact_optima(q, n_max)
    found = []
    for demand in range(1, n_max + 1):
        partition = solver(demand, float(q)).partition
        cost = sum(count * power[size] for size, count in partition.runs)
        if cost != values[demand]:
            found.append((demand, "cost", float(Fraction(cost - values[demand], values[demand]))))
        elif len(partition) != fewest[demand]:
            found.append((demand, "batches", len(partition), fewest[demand]))
    return found


@pytest.mark.parametrize("solver", (dp_solve, sweep_solve, theorem_solve))
@pytest.mark.parametrize("q", TIES, ids=str)
def test_tie_rates(solver, q):
    assert misses(solver, q, TIE_DEMAND) == []


@pytest.mark.parametrize("q", TIES, ids=str)
def test_tie_rates_brute(q):
    assert misses(brute_force_solve, q, BRUTE_DEMAND) == []


@pytest.mark.parametrize("solver", (dp_solve, sweep_solve, theorem_solve))
@pytest.mark.parametrize("q", GENERIC, ids=lambda q: repr(float(q)))
def test_generic_doubles(solver, q):
    assert misses(solver, q, GENERIC_DEMAND) == []


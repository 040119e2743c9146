"""Designs and prices at small p, against exact powers of the double q.

The finite-N optimum changes from I to I + 1 balanced batches near the
demand N_c = ln(1 + 1/I) I (I + 1) / ln(1/q), where the two cost the
same (I q**-(N/I) = (I + 1) q**-(N/(I + 1)) over real batch sizes).
Near N_c the two counts differ by far less than a price's rounding
wherever that rounding grows with n.  It does when q**-n is formed from
powers of the rounded 1/q, which carry its rounding n times: at p = 1e-8
that is off by about 2e-9 relative, against a tie tolerance of 1e-12,
and sweep and theorem then choose one batch at N = 138,629,435 where two
are optimal.

The scale oracle prices every count exactly, with decimal at 50 digits,
for six demands around each of the first 11 crossovers at five small p,
and requires sweep and theorem to return the fewest batches within the
cost tolerance of the exact best.  The accuracy test requires every
price of a batch to lie within 2**-52 relative of the exact power of the
double q, and to be inf only where that power is past double range.
"""

import math
import random
import sys
from decimal import Decimal, localcontext

from pooldesign import batch_waiting_time, sweep_solve, theorem_solve
from pooldesign.core import VALUE_ATOL, VALUE_RTOL, _inverse_power_table

SMALL_P = (1e-4, 1e-5, 1e-6, 1e-7, 1e-8)
COUNTS = range(1, 12)


def crossover_demands(q):
    """Six demands around the crossover from each count I to I + 1."""
    for count in COUNTS:
        near = round(math.log1p(1 / count) * count * (count + 1) / -math.log(q))
        yield from ((count, demand) for demand in range(near - 3, near + 3))


def exact_fewest(demand, q, top):
    """The fewest batches, up to top, whose balanced split costs within
    the cost tolerance of the best, every price exact to 50 digits."""
    with localcontext() as context:
        context.prec = 50
        inverse = 1 / Decimal(q)
        costs = []
        for count in range(1, top + 1):
            small, bumped = divmod(demand, count)
            costs.append((count - bumped) * inverse**small + bumped * inverse ** (small + 1))
        best = min(costs)
        limit = best + Decimal(VALUE_ATOL) + Decimal(VALUE_RTOL) * best
        return next(count for count, cost in enumerate(costs, 1) if cost <= limit)


def test_sweep_and_theorem_match_exact_prices_at_the_crossovers():
    misses, checked = [], 0
    for p in SMALL_P:
        q = 1.0 - p
        for count, demand in crossover_demands(q):
            want = exact_fewest(demand, q, count + 3)
            for solver in (sweep_solve, theorem_solve):
                got = len(solver(demand, q).partition)
                if got != want:
                    misses.append((solver.__name__, demand, p, got, want))
            checked += 1
    assert checked == 330
    assert misses == []


def relative_error(value, top, bottom):
    """value's error relative to the exact power top / bottom.

    Kept in integers, and divided only once both are cut to 128 bits: a
    Fraction would reduce by a gcd of numbers of about 53 n bits."""
    if math.isinf(value):  # only past double range
        return 0.0 if top > int(sys.float_info.max) * bottom else math.inf
    m, c = value.as_integer_ratio()
    error, scale = abs(m * bottom - c * top), c * top
    cut = max(scale.bit_length() - 128, 0)
    return (error >> cut) / (scale >> cut)


def test_every_price_is_within_an_ulp_of_the_exact_power():
    rng = random.Random(20171209)
    qs = [rng.uniform(0.05, 0.5) for _ in range(8)]
    qs += [1 - 10 ** rng.uniform(-8, -0.3) for _ in range(16)]
    qs += [0.3, 0.5, 0.99, 1 - 1e-8]
    worst = 0.0
    for q in qs:
        a, b = q.as_integer_ratio()  # q**-n = b**n / a**n exactly
        n_max = min(400, math.ceil(1100 / -math.log(q)))  # reaches the inf edge for small q
        top, bottom = 1, 1
        for value in _inverse_power_table(q, n_max):
            worst = max(worst, relative_error(value, top, bottom))
            top, bottom = top * b, bottom * a
        for n in rng.sample(range(1, 3000), 8):
            try:
                value = batch_waiting_time(n, q)
            except OverflowError:  # checked: only past double range
                value = math.inf
            worst = max(worst, relative_error(value, b**n, a**n))
    assert worst <= 2.0**-52, worst

"""Monte Carlo check of expected test counts for batch designs.

Each batch of size n passes a test with probability q**n, so the tests
spent on it follow a geometric law with that success probability.  A
replication draws one geometric count per batch and sums them; the mean
over replications estimates the design's expected total tests, and a
z-score locates the analytic value inside the simulation's error bar.

Draws come from a fixed, documented pipeline so results are exactly
reproducible across runs and platforms: a Philox counter-based
generator keyed by the seed yields raw 64-bit words, word r*J + j
(replication r, batch j of J) becomes a uniform via (raw >> 11) * 2**-53,
and the uniform becomes a geometric count via inverse transform
ceil(log1p(-u) / log1p(-p)), clamped to at least one test.  No numpy
distribution methods are involved, so a numpy upgrade cannot shift the
stream, and the draw for a given (seed, replication, batch) slot never
depends on how many replications are requested by other callers.

The stream is read in chunks of whole replications, about 2**15 words
each, so memory is bounded by the chunk, not by replications x batches;
Philox is counter-based, so consecutive reads yield one large read's
words.  Totals are integers, so a BLAS row sum is exact in any order
below 2**53; a chunk whose top total reaches it is summed in numpy's
fixed order.  Exact integer sums of the totals and their squares give
a correctly rounded mean and variance, independent of the chunking.
Past 2**53 the draws are rounded, and the report says so: exact=False.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import (
    Partition,
    _check_int,
    as_partition,
    batch_pass_probability,
    expected_waiting_time,
)

if TYPE_CHECKING:
    import numpy as np

# Stream words read per chunk, rounded down to whole replications (at
# least one): the working set of one call, whatever its replication count.
_CHUNK_WORDS = 1 << 15
# float64 integers, and so the replication totals, are exact below this.
_EXACT_LIMIT = 2.0**53


@dataclass(frozen=True)
class SimulationReport:
    """Monte Carlo summary of total tests for one design."""

    replications: int
    mean_tests: float
    variance_tests: float
    std_error: float
    analytic_tests: float
    z_score: float
    # False once a replication's total reaches 2**53, where float64
    # counts stop being exact integers.
    exact: bool


def _uniform_stream(generator: np.random.Philox, count: int) -> np.ndarray:
    # Philox is counter-based: the same key always yields the same word
    # sequence, independent of platform, numpy version and of how the
    # sequence is split across calls.  Scaling by -2**-53 returns -u exactly.
    raw = generator.random_raw(count)
    raw >>= 11  # in place, so raw stays uint64
    negated = raw.astype(float)
    negated *= -(2.0**-53)
    return negated


def _integer_sums(totals: np.ndarray, top: float) -> tuple[int, int]:
    """Exact sum and sum of squares of integral, finite float64 totals."""
    if len(totals) * int(top) ** 2 < 2**63:
        ints = totals.astype("int64")
        return int(ints.sum()), int(ints @ ints)
    ints = [int(t) for t in totals.tolist()]
    return sum(ints), sum(t * t for t in ints)


def _moments(total: int, square_total: int, count: int) -> tuple[float, float]:
    # int / int is correctly rounded, so these are the exact sample
    # moments of the totals, rounded once.
    mean = total / count
    if count == 1:
        return mean, 0.0
    try:
        variance = (count * square_total - total * total) / (count * (count - 1))
    except OverflowError:  # counts near q**-n ~ 1e308 spread past double range
        variance = math.inf
    return mean, variance


def simulate_design(
    partition: Partition | tuple[int, ...],
    q: float,
    replications: int,
    seed: int,
) -> SimulationReport:
    """Estimate a design's expected total tests by Monte Carlo.

    Deterministic in (partition, q, replications, seed).  Raises the
    same domain errors as the analytic path, q = 0 included, since a
    design that cannot pass any test has no finite simulation either.
    """
    part = as_partition(partition)
    replications = _check_int(replications, "replications", 1)
    seed = _check_int(seed, "seed")
    analytic = expected_waiting_time(part, q)

    # numpy is imported here, not at module level, so that importing the
    # package or starting the CLI skips it.
    import numpy as np

    batches = len(part)
    rows_per_chunk = max(1, min(replications, _CHUNK_WORDS // batches))
    # log1p(-p) per batch (-inf when it always passes, so its draws clamp to
    # one test), one row per replication so that the divide runs flat
    passes = [batch_pass_probability(n, q) for n in part]
    log_fail = [math.log1p(-p) if p < 1.0 else -math.inf for p in passes]
    divisor = np.tile(log_fail, (rows_per_chunk, 1))
    generator = np.random.Philox(key=np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    total = square_total = 0
    top = 0.0
    for start in range(0, replications, rows_per_chunk):
        rows = min(rows_per_chunk, replications - start)
        counts = _uniform_stream(generator, rows * batches).reshape(rows, batches)
        np.log1p(counts, out=counts)
        with np.errstate(over="ignore"):  # draws past double range are inf
            counts /= divisor[:rows]
        np.ceil(counts, out=counts)
        np.maximum(counts, 1.0, out=counts)
        # whole-number terms: any order sums them exactly below 2**53
        totals = counts @ np.ones(batches)
        if not float(totals.max()) < _EXACT_LIMIT:  # past it, a fixed order
            totals = counts.sum(axis=1)
        chunk_top = float(totals.max())
        top = max(top, chunk_top)
        if top < math.inf:
            chunk_sum, chunk_squares = _integer_sums(totals, chunk_top)
            total += chunk_sum
            square_total += chunk_squares

    if top < math.inf:
        mean, variance = _moments(total, square_total, replications)
    else:  # an infinite count has no finite moments
        mean, variance = math.inf, math.nan if replications > 1 else 0.0
    std_error = math.sqrt(variance / replications)
    if std_error > 0.0:
        z_score = (mean - analytic) / std_error
    elif mean == analytic:
        z_score = 0.0
    else:
        z_score = math.nan
    return SimulationReport(
        replications=replications,
        mean_tests=mean,
        variance_tests=variance,
        std_error=std_error,
        analytic_tests=analytic,
        z_score=z_score,
        exact=top < _EXACT_LIMIT,
    )


def simulate_stream_rate(n: int, q: float, replications: int, seed: int) -> float:
    """Estimated tests per accepted item for constant batches of size n.

    Simulates one batch per replication and divides the mean test
    count by the batch size; converges to 1 / mu(n, q).
    """
    report = simulate_design(Partition(((n, 1),)), q, replications, seed)
    return report.mean_tests / n

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

The stream is read in chunks of whole replications, about 2**16 words
each, so memory is bounded by the chunk rather than by replications x
batches; since Philox is counter-based, consecutive reads yield the same
words as one large read.  Each replication's total is an integer, and
the mean and variance come from exact integer sums of the totals and
their squares, so they are correctly rounded and do not depend on the
chunking.  Totals stay exact while below 2**53; past that the float
draws themselves are rounded, and the report says so with exact=False.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import (
    Partition,
    _check_int,
    _check_q,
    as_partition,
    batch_pass_probability,
    expected_waiting_time,
)

if TYPE_CHECKING:
    import numpy as np

# Stream words read per chunk, rounded down to whole replications (at
# least one): the working set of one call, whatever its replication count.
_CHUNK_WORDS = 1 << 16
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
    # numpy is imported here and in the two functions below, not at module
    # level, so that importing the package or starting the CLI skips it.
    import numpy as np

    # Philox is counter-based: the same key always yields the same word
    # sequence, independent of platform, numpy version and of how the
    # sequence is split across calls.
    raw = generator.random_raw(count)
    raw >>= np.uint64(11)
    uniforms = raw.astype(np.float64)
    uniforms *= 2.0**-53
    return uniforms


def _log_fail(n: int, q: float) -> float:
    # log1p(-p) for one batch; -inf when the batch always passes, so
    # every draw transforms to 0 and is clamped to one test.
    p = batch_pass_probability(n, q)
    return math.log1p(-p) if p < 1.0 else -math.inf


def _integer_sums(totals: np.ndarray, top: float) -> tuple[int, int]:
    """Exact sum and sum of squares of integral, finite float64 totals."""
    import numpy as np

    if len(totals) * int(top) ** 2 < 2**63:
        ints = totals.astype(np.int64)
        return int(ints.sum()), int(np.dot(ints, ints))
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
    _check_q(q)
    replications = _check_int(replications, "replications", 1)
    seed = _check_int(seed, "seed")
    analytic = expected_waiting_time(part, q)

    import numpy as np

    batches = len(part.sizes)
    rows_per_chunk = max(1, _CHUNK_WORDS // batches)
    log_fail = np.array([_log_fail(n, q) for n in part.sizes])
    generator = np.random.Philox(key=np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    total = square_total = 0
    top = 0.0
    for start in range(0, replications, rows_per_chunk):
        rows = min(rows_per_chunk, replications - start)
        counts = _uniform_stream(generator, rows * batches).reshape(rows, batches)
        np.negative(counts, out=counts)
        np.log1p(counts, out=counts)
        with np.errstate(over="ignore"):  # draws past double range are inf
            counts /= log_fail
        np.ceil(counts, out=counts)
        np.maximum(counts, 1.0, out=counts)
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
    report = simulate_design(Partition((n,)), q, replications, seed)
    return report.mean_tests / n

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
each; Philox is counter-based, so consecutive reads yield one large
read's words.  The chunks are split into contiguous spans, one per
worker thread: as many workers as the CPUs the process may run on, at
most _MAX_WORKERS and at most one per chunk.  Each worker keys its own
generator by the seed and advances it to its span's first word, so
memory is bounded by workers x chunk, not by replications x batches.
Totals are integers, so a BLAS row sum is exact in any order below
2**53; a chunk whose top total reaches it is summed in numpy's fixed
order.  Exact integer sums of the totals and their squares give a
correctly rounded mean and variance, independent of the chunking and
of the number of workers.
Past 2**53 the draws are rounded, and the report says so: exact=False.
"""

from __future__ import annotations

import math
import os
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
# Threads reading the stream at once, at most.  Each holds its own chunk
# arrays, so memory is bounded by workers x chunk: this cap keeps it to a
# few MB on a many-core host, as on a small one.
_MAX_WORKERS = 8


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


def _span_sums(key: np.uint64, divisor: np.ndarray, first: int, stop: int) -> tuple:
    """(sum, sum of squares, top) of the totals of replications first..stop-1,
    read with a generator of their own; the sums are void once top is inf."""
    import numpy as np

    rows_per_chunk, batches = divisor.shape
    generator = np.random.Philox(key=key)
    # advance counts blocks of four words; the rest are read and dropped
    generator.advance(first * batches // 4)
    generator.random_raw(first * batches % 4)
    ones = np.ones(batches)
    total = square_total = 0
    top = 0.0
    for start in range(first, stop, rows_per_chunk):
        rows = min(rows_per_chunk, stop - start)
        counts = _uniform_stream(generator, rows * batches).reshape(rows, batches)
        np.log1p(counts, out=counts)
        with np.errstate(over="ignore"):  # draws past double range are inf
            counts /= divisor[:rows]
        np.ceil(counts, out=counts)
        np.maximum(counts, 1.0, out=counts)
        # whole-number terms: any order sums them exactly below 2**53
        totals = counts @ ones
        if not float(totals.max()) < _EXACT_LIMIT:  # past it, a fixed order
            totals = counts.sum(axis=1)
        chunk_top = float(totals.max())
        top = max(top, chunk_top)
        if top < math.inf:
            chunk_sum, chunk_squares = _integer_sums(totals, chunk_top)
            total += chunk_sum
            square_total += chunk_squares
    return total, square_total, top


def _worker_count() -> int:
    """The CPUs this process may run on, at most _MAX_WORKERS."""
    if hasattr(os, "sched_getaffinity"):  # not on every platform
        return min(len(os.sched_getaffinity(0)), _MAX_WORKERS)
    return min(os.cpu_count() or 1, _MAX_WORKERS)


def simulate_design(
    partition: Partition | tuple[int, ...],
    q: float,
    replications: int,
    seed: int,
) -> SimulationReport:
    """Estimate a design's expected total tests by Monte Carlo.

    Deterministic in (partition, q, replications, seed), whatever the
    number of CPUs.  Raises the same domain errors as the analytic path,
    q = 0 included, since a design that cannot pass any test has no
    finite simulation either.
    """
    part = as_partition(partition)
    replications = _check_int(replications, "replications", 1)
    seed = _check_int(seed, "seed")
    analytic = expected_waiting_time(part, q)

    # numpy and threading are imported here, not at module level, so that
    # importing the package or starting the CLI never needs them.
    import threading

    import numpy as np

    batches = len(part)
    rows_per_chunk = max(1, min(replications, _CHUNK_WORDS // batches))
    # log1p(-p) once per run (-inf when it always passes, so its draws clamp
    # to one test), repeated over its batches in iteration order, one row
    # per replication so that the divide runs flat
    sizes, counts = zip(*part.runs)
    passes = [batch_pass_probability(n, q) for n in sizes]
    log_fail = [math.log1p(-p) if p < 1.0 else -math.inf for p in passes]
    divisor = np.tile(np.repeat(log_fail, counts), (rows_per_chunk, 1))
    key = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    # One contiguous span of whole chunks per worker; the calling thread
    # runs the first.  The sums are exact integers, so the report does not
    # depend on how the replications are split.
    chunks = -(-replications // rows_per_chunk)
    workers = min(_worker_count(), chunks)
    bounds = [chunks * i // workers * rows_per_chunk for i in range(workers)] + [replications]
    results: list = [None] * workers

    def run_span(index: int) -> None:
        try:
            results[index] = _span_sums(key, divisor, bounds[index], bounds[index + 1])
        except BaseException as error:  # raised again by the caller
            results[index] = error

    threads = []
    try:
        for index in range(1, workers):
            thread = threading.Thread(target=run_span, args=(index,))
            thread.start()
            threads.append(thread)
        results[0] = _span_sums(key, divisor, bounds[0], bounds[1])
    finally:
        for thread in threads:
            thread.join()
    for result in results[1:]:
        if isinstance(result, BaseException):
            raise result
    sums, squares, tops = zip(*results)
    total, square_total, top = sum(sums), sum(squares), max(tops)

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

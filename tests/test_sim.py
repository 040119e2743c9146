"""Tests for the Monte Carlo validator.

Oracles: closed-form geometric moments (mean 1/p, variance (1-p)/p**2
per batch) bound the sampling error; trivial q = 1 cases are exact; an
unchunked read of the documented pipeline fixes every draw bit for bit.
"""

import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from pooldesign import (
    Partition,
    as_partition,
    balanced_partition,
    batch_pass_probability,
    expected_waiting_time,
    per_item_cost,
    simulate_design,
    simulate_stream_rate,
)
from pooldesign import sim


def total_tests_std(sizes, q, replications):
    """Std error of the mean total tests from geometric moments."""
    variance = 0.0
    for n in sizes:
        p = q**n
        variance += (1 - p) / p**2
    return math.sqrt(variance / replications)


def unchunked_totals(sizes, q, replications, seed):
    """Float64 replication totals from one read of the whole stream.

    The documented pipeline without chunking: a single random_raw of
    replications x batches words, a per-column inverse transform and
    float row sums.
    """
    sizes = sorted(sizes)
    key = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    raw = np.random.Philox(key=key).random_raw(replications * len(sizes))
    uniforms = ((raw >> np.uint64(11)) * np.float64(2.0**-53)).reshape(replications, -1)
    counts = np.empty_like(uniforms)
    for j, n in enumerate(sizes):
        p = batch_pass_probability(n, q)
        if p >= 1.0:
            counts[:, j] = 1.0
        else:
            counts[:, j] = np.ceil(np.log1p(-uniforms[:, j]) / math.log1p(-p))
    np.maximum(counts, 1.0, out=counts)
    return counts.sum(axis=1)


def exact_moments(totals):
    """(mean, variance) of integral totals from exact integer sums."""
    ints = [int(t) for t in totals.tolist()]
    s, s2, r = sum(ints), sum(t * t for t in ints), len(ints)
    variance = (r * s2 - s * s) / (r * (r - 1)) if r > 1 else 0.0
    return s / r, variance


WIDE = tuple(range(1, 251))
# (sizes, q, replications, exact): wide and tall designs, in the exact
# regime and past 2**53 tests per replication; the tall exact ones span
# more than one default chunk.
CHUNK_CASES = [
    pytest.param(WIDE, 0.99, 300, True, id="wide"),
    pytest.param((1,) * 249 + (3700,), 0.99, 40, False, id="wide-inexact"),
    pytest.param((40, 90), 0.99, 33_000, True, id="tall-2"),
    pytest.param((25, 60, 150), 0.995, 22_000, True, id="tall-3"),
    pytest.param((7, 7, 80, 200), 0.99, 17_000, True, id="tall-4"),
    pytest.param((3650, 3700, 3720), 0.99, 500, False, id="tall-inexact"),
    # q**-3655 is just under 2**53, so totals fall on both sides of it and
    # small chunks take both the BLAS row sum and its fixed-order fallback
    pytest.param((5, 3655), 0.99, 400, False, id="straddle"),
]


class TestChunking:
    @pytest.mark.parametrize("sizes,q,reps,exact", CHUNK_CASES)
    def test_chunk_size_never_changes_the_report(self, monkeypatch, sizes, q, reps, exact):
        default = sim._CHUNK_WORDS
        batches = len(sizes)
        for chunk_words in (1, 7, batches - 1, batches, batches + 1, default):
            # one or two replications per chunk is slow: keep those runs short
            runs = reps if chunk_words == default else min(reps, 600)
            totals = unchunked_totals(sizes, q, runs, 5)
            monkeypatch.setattr(sim, "_CHUNK_WORDS", chunk_words)
            report = simulate_design(sizes, q, runs, 5)
            assert (report.mean_tests, report.variance_tests) == exact_moments(totals)
            assert report.exact == (totals.max() < 2**53) == exact

    @pytest.mark.parametrize("first,second", ((1, 1), (7, 250), (65_536, 3), (262 * 250, 999)))
    def test_split_reads_continue_the_stream(self, first, second):
        key = np.uint64(2024)
        split = np.random.Philox(key=key)
        pieces = np.concatenate([split.random_raw(first), split.random_raw(second)])
        whole = np.random.Philox(key=key).random_raw(first + second)
        assert np.array_equal(pieces, whole)

    def test_memory_bounded_by_the_chunk(self):
        # 5e7 draws: holding them all as float64 would take 400 MB
        tracemalloc.start()
        try:
            simulate_design((1,) * 250, 0.99, 200_000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        # 2e6 batches in two runs: each run is priced once and the divisor
        # row repeated from its runs, so no Python float is held per batch
        tracemalloc.start()
        try:
            simulate_design(Partition(((1, 10**6), (2, 10**6))), 0.5, 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2 * 10**6

    @pytest.mark.parametrize("sizes,reps", ((WIDE, 300), ((40, 90), 20_000)))
    def test_mean_equals_float_mean_while_the_grand_total_is_exact(self, sizes, reps):
        # below 2**53 a float sum of the totals is exact too, so the mean
        # is the one a float pipeline (totals.mean()) reports
        totals = unchunked_totals(sizes, 0.99, reps, 9)
        assert totals.sum() < 2**53
        assert simulate_design(sizes, 0.99, reps, 9).mean_tests == float(totals.mean())


class TestWorkers:
    """Each worker reads a contiguous span of whole chunks from its own
    generator; the exact integer sums make the split invisible."""

    @pytest.mark.parametrize("chunk_words", (None, 7))
    @pytest.mark.parametrize("sizes,q,reps,exact", CHUNK_CASES)
    def test_worker_count_never_changes_the_report(
        self, monkeypatch, sizes, q, reps, exact, chunk_words
    ):
        if chunk_words is not None:
            monkeypatch.setattr(sim, "_CHUNK_WORDS", chunk_words)
            reps = min(reps, 600)  # one replication per chunk is slow
        rows_per_chunk = max(1, min(reps, sim._CHUNK_WORDS // len(sizes)))
        chunks = -(-reps // rows_per_chunk)
        spans = []
        span_sums = sim._span_sums

        def recorded(key, divisor, first, stop):
            spans.append((first, stop))
            return span_sums(key, divisor, first, stop)

        monkeypatch.setattr(sim, "_span_sums", recorded)
        totals = unchunked_totals(sizes, q, reps, 5)
        reports = []
        for workers in (1, 2, 3, 5):
            spans.clear()
            monkeypatch.setattr(sim, "_worker_count", lambda workers=workers: workers)
            reports.append(simulate_design(sizes, q, reps, 5))
            # whole chunks, one span per worker, covering every replication
            assert len(spans) == min(workers, chunks)
            bounds = sorted(spans)
            assert [first for first, _ in bounds] == [0, *(stop for _, stop in bounds[:-1])]
            assert bounds[-1][1] == reps
            assert all(first % rows_per_chunk == 0 for first, _ in bounds)
        assert reports == [reports[0]] * 4
        assert (reports[0].mean_tests, reports[0].variance_tests) == exact_moments(totals)
        assert reports[0].exact == exact

    def test_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        # eight threads switching every microsecond still fill their own
        # result slots: a lost or crossed update would change the sums
        monkeypatch.setattr(sim, "_CHUNK_WORDS", 64)
        monkeypatch.setattr(sim, "_worker_count", lambda: 1)
        serial = simulate_design((3, 5, 40), 0.95, 20_000, 8)
        monkeypatch.setattr(sim, "_worker_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            start = time.perf_counter()
            reports = [simulate_design((3, 5, 40), 0.95, 20_000, 8) for _ in range(5)]
            elapsed = time.perf_counter() - start
        finally:
            sys.setswitchinterval(interval)
        assert reports == [serial] * 5
        assert elapsed < 60

    @pytest.mark.parametrize(
        "sizes,first",
        [
            pytest.param((3, 5, 8), 4, id="offset-0"),
            pytest.param((3, 5, 8), 3, id="offset-1"),
            pytest.param((3, 5, 8), 2, id="offset-2"),
            pytest.param((3, 5, 8), 1, id="offset-3"),
            pytest.param(WIDE, 1, id="wide-offset-2"),
            pytest.param((3, 5, 8), 1001, id="far-offset-3"),
        ],
    )
    def test_span_continues_the_serial_stream(self, sizes, first):
        # the span starts at word first * J, at any offset within a
        # four-word Philox block, and reads on across its chunks
        stop = first + 40
        totals = unchunked_totals(sizes, 0.9, stop, 11)[first:]
        log_fail = [math.log1p(-batch_pass_probability(n, 0.9)) for n in sizes]
        divisor = np.tile(log_fail, (3, 1))
        ints = [int(t) for t in totals.tolist()]
        expected = (sum(ints), sum(t * t for t in ints), float(max(ints)))
        assert sim._span_sums(np.uint64(11), divisor, first, stop) == expected

    @staticmethod
    def slowed_stream(monkeypatch, failing_thread):
        """Make the second read of failing_thread(ident) raise MemoryError,
        and every other read slow, so the other spans are still reading."""
        stream = sim._uniform_stream
        reads = {}

        def read(generator, count):
            ident = threading.get_ident()
            reads[ident] = reads.get(ident, 0) + 1
            if failing_thread(ident) and reads[ident] == 2:
                raise MemoryError("injected")
            time.sleep(0.002)
            return stream(generator, count)

        monkeypatch.setattr(sim, "_uniform_stream", read)

    @pytest.mark.parametrize("where", ("worker", "caller", "start"))
    def test_a_failing_span_raises_in_the_caller(self, monkeypatch, capfd, where):
        monkeypatch.setattr(sim, "_CHUNK_WORDS", 64)
        monkeypatch.setattr(sim, "_worker_count", lambda: 3)
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        caller = threading.get_ident()
        if where == "start":  # the second worker thread cannot start
            self.slowed_stream(monkeypatch, lambda ident: False)
            start = threading.Thread.start
            starts = []

            def failing_start(thread):
                starts.append(thread)
                if len(starts) == 2:
                    raise MemoryError("injected")
                start(thread)

            monkeypatch.setattr(threading.Thread, "start", failing_start)
        else:  # mid-span, on its second read
            self.slowed_stream(monkeypatch, lambda ident: (ident == caller) == (where == "caller"))
        before = threading.active_count()
        with pytest.raises(MemoryError, match="injected"):
            simulate_design((3, 5), 0.9, 3_000, 1)
        assert threading.active_count() == before
        assert hooked == []
        assert capfd.readouterr().err == ""


class TestExactness:
    def test_small_counts_are_exact(self):
        assert simulate_design((83, 83, 84), 0.99, 1000, 7).exact

    def test_counts_past_2_53_are_flagged(self):
        # q**-5000 at q = 0.99 is about 6.7e21 tests per replication
        report = simulate_design((5000,), 0.99, 1000, 0)
        assert not report.exact
        assert report.mean_tests > 2.0**53

    def test_spread_past_double_range_reports_infinite_variance(self):
        # counts near 2**1019 ~ 5.6e306: their squares leave double range
        with np.errstate(over="ignore"):
            report = simulate_design((1019,), 0.5, 10, 0)
        assert math.isfinite(report.mean_tests)
        assert report.variance_tests == math.inf
        assert not report.exact

    def test_infinite_count_reports_infinite_mean(self):
        # at q**n = 2**-1022 a draw exceeds double range with chance e**-4
        with np.errstate(over="ignore"):
            report = simulate_design((1022,), 0.5, 100, 0)
        assert report.mean_tests == math.inf
        assert math.isnan(report.variance_tests)
        assert not report.exact


class TestDeterminism:
    def test_identical_runs_identical_reports(self):
        a = simulate_design((3, 5), 0.9, 2000, 42)
        b = simulate_design((3, 5), 0.9, 2000, 42)
        assert a == b

    def test_seed_changes_the_stream(self):
        a = simulate_design((3,), 0.7, 1000, 1)
        b = simulate_design((3,), 0.7, 1000, 2)
        assert a.mean_tests != b.mean_tests

    def test_frozen_stream_regression(self):
        # guards the documented draw pipeline against accidental change
        report = simulate_design((2,), 0.5, 5, 123)
        assert report.mean_tests == 1.6
        assert report.variance_tests == 0.8

    def test_partition_order_is_canonical(self):
        # (5,3) and (3,5) are the same design, so the same draws
        assert simulate_design((5, 3), 0.9, 500, 9) == simulate_design((3, 5), 0.9, 500, 9)

    @pytest.mark.parametrize("seed", (0, 7, 77, 12345))
    def test_replications_extend_the_stream(self, seed):
        # replication r always consumes the same slice of the stream,
        # so a 1-rep mean is the first draw of a 2-rep mean
        one = simulate_design((4,), 0.8, 1, seed).mean_tests
        two = simulate_design((4,), 0.8, 2, seed).mean_tests
        second_draw = 2 * two - one
        assert second_draw == pytest.approx(round(second_draw), abs=1e-9)
        assert second_draw >= 1.0

    def test_negative_seed_accepted(self):
        report = simulate_design((2,), 0.6, 100, -5)
        assert report == simulate_design((2,), 0.6, 100, -5)


class TestReportFields:
    def test_analytic_value_is_exact(self):
        report = simulate_design((83, 83, 84), 0.99, 100, 0)
        assert report.analytic_tests == expected_waiting_time((83, 83, 84), 0.99)

    def test_replications_echoed(self):
        assert simulate_design((1,), 0.5, 321, 0).replications == 321

    def test_mean_at_least_one_test_per_batch(self):
        report = simulate_design((1, 2, 3), 0.9, 500, 3)
        assert report.mean_tests >= 3.0

    def test_std_error_from_variance(self):
        report = simulate_design((4, 4), 0.8, 400, 5)
        assert report.std_error == math.sqrt(report.variance_tests / 400)

    def test_z_score_definition(self):
        report = simulate_design((4, 4), 0.8, 400, 5)
        expected = (report.mean_tests - report.analytic_tests) / report.std_error
        assert report.z_score == expected


class TestTrivialEdges:
    def test_certain_pass_is_exactly_one_test_per_batch(self):
        report = simulate_design((5, 2, 9), 1.0, 50, 8)
        assert report.mean_tests == 3.0
        assert report.variance_tests == 0.0
        assert report.z_score == 0.0

    def test_single_replication_has_no_error_bar(self):
        report = simulate_design((1,), 0.5, 1, 0)
        assert report.variance_tests == 0.0
        assert report.std_error == 0.0
        # a single integer draw cannot hit the analytic 2.0 tests
        assert report.mean_tests != report.analytic_tests
        assert math.isnan(report.z_score)

    def test_single_replication_exact_match_scores_zero(self):
        report = simulate_design((7,), 1.0, 1, 4)
        assert report.mean_tests == report.analytic_tests == 1.0
        assert report.z_score == 0.0

    def test_stream_rate_trivial(self):
        assert simulate_stream_rate(1, 1.0, 10, 0) == 1.0


class TestStatisticalAgreement:
    def test_single_item_coin_flip_mean(self):
        # geometric with p = 1/2: mean 2, variance 2
        reps = 200_000
        report = simulate_design((1,), 0.5, reps, 2024)
        bound = 4 * total_tests_std((1,), 0.5, reps)
        assert abs(report.mean_tests - 2.0) <= bound
        assert abs(report.variance_tests - 2.0) <= 0.25

    @pytest.mark.parametrize("seed", (7, 42))
    def test_pooled_design_z_scores(self, seed):
        report = simulate_design((83, 83, 84), 0.99, 20_000, seed)
        assert abs(report.z_score) <= 4.0

    @pytest.mark.parametrize("sizes,q", [((2, 3), 0.8), ((10,), 0.95), ((1, 1, 4), 0.6)])
    def test_mean_within_four_analytic_sigmas(self, sizes, q):
        reps = 50_000
        report = simulate_design(sizes, q, reps, 11)
        bound = 4 * total_tests_std(sizes, q, reps)
        assert abs(report.mean_tests - report.analytic_tests) <= bound


class TestStreamRate:
    def test_matches_single_batch_simulation(self):
        report = simulate_design(as_partition((10,)), 0.95, 500, 11)
        assert simulate_stream_rate(10, 0.95, 500, 11) == report.mean_tests / 10

    def test_converges_to_per_item_cost(self):
        reps = 50_000
        rate = simulate_stream_rate(10, 0.95, reps, 11)
        bound = 4 * total_tests_std((10,), 0.95, reps) / 10
        assert abs(rate - per_item_cost(10, 0.95)) <= bound


class TestValidation:
    def test_q_zero_rejected(self):
        with pytest.raises(ValueError, match="q = 0"):
            simulate_design((3,), 0.0, 10, 0)

    @pytest.mark.parametrize("bad_q", (-0.5, 1.5))
    def test_q_outside_unit_interval(self, bad_q):
        with pytest.raises(ValueError):
            simulate_design((3,), bad_q, 10, 0)

    @pytest.mark.parametrize("bad_reps", (0, -1, 2.5, True))
    def test_replications_validated(self, bad_reps):
        with pytest.raises(ValueError):
            simulate_design((3,), 0.9, bad_reps, 0)

    @pytest.mark.parametrize("bad_seed", (1.5, "7", None))
    def test_seed_validated(self, bad_seed):
        with pytest.raises(ValueError):
            simulate_design((3,), 0.9, 10, bad_seed)

    def test_partition_validated(self):
        with pytest.raises(ValueError):
            simulate_design((0, 3), 0.9, 10, 0)

    def test_design_past_sys_maxsize_batches_rejected(self):
        # refused by name: len() could not report its batch count
        with pytest.raises(ValueError, match=f"at most {sys.maxsize} batches"):
            simulate_design(balanced_partition(10**20, 10**20), 0.9, 10, 0)

    def test_overflowing_design_rejected_like_analytic_path(self):
        with pytest.raises(OverflowError):
            simulate_design((600,), 0.3, 10, 0)

"""Tests for per-batch arithmetic, value types, and the constant-size optimum.

Oracles: math.pow for the power arithmetic, a plain argmax scan of
n * q**n for the constant-size optimum, and hand-derived closed forms
for the trivial edges.
"""

import dataclasses
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from pooldesign import (
    ConstantSizeResult,
    DesignSolution,
    Partition,
    as_partition,
    batch_pass_probability,
    batch_waiting_time,
    expected_waiting_time,
    mu,
    optimal_constant_size,
    per_item_cost,
    sweep_solve,
    theorem_solve,
    values_close,
)
from pooldesign.core import _constant_sizes, _runs_cost

# Relative slack for comparing computed throughputs of tied sizes.
MU_TIE_RTOL = 1e-12

Q_GRID = (0.01, 0.1, 0.3, 0.5, 0.6, 0.75, 0.9, 0.95, 0.99)
N_GRID = (1, 2, 3, 7, 20, 100)


def scan_constant_optimum(q, n_max=500):
    """Independent argmax of n * q**n by brute scan with math.pow."""
    best_n, best_mu = 1, math.pow(q, 1)
    for n in range(2, n_max + 1):
        m = n * math.pow(q, n)
        if m > best_mu:
            best_n, best_mu = n, m
    return best_n, best_mu


# ---------------------------------------------------------------------------
# per-batch arithmetic against math.pow oracles


class TestBatchArithmetic:
    @pytest.mark.parametrize("q", Q_GRID)
    @pytest.mark.parametrize("n", N_GRID)
    def test_pass_probability_matches_pow(self, n, q):
        assert batch_pass_probability(n, q) == pytest.approx(math.pow(q, n), rel=1e-13)

    @pytest.mark.parametrize("q", Q_GRID)
    @pytest.mark.parametrize("n", N_GRID)
    def test_waiting_time_matches_pow(self, n, q):
        assert batch_waiting_time(n, q) == pytest.approx(math.pow(q, -n), rel=1e-13)

    @pytest.mark.parametrize("q", Q_GRID)
    @pytest.mark.parametrize("n", N_GRID)
    def test_mu_matches_definition(self, n, q):
        assert mu(n, q) == pytest.approx(n * math.pow(q, n), rel=1e-13)

    @pytest.mark.parametrize("q", Q_GRID)
    @pytest.mark.parametrize("n", N_GRID)
    def test_waiting_time_is_reciprocal_of_pass_probability(self, n, q):
        product = batch_waiting_time(n, q) * batch_pass_probability(n, q)
        assert product == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("q", Q_GRID)
    @pytest.mark.parametrize("n", N_GRID)
    def test_per_item_cost_inverts_mu(self, n, q):
        assert per_item_cost(n, q) == pytest.approx(1.0 / mu(n, q), rel=1e-13)

    @pytest.mark.parametrize("n", N_GRID)
    def test_certain_pass_edge(self, n):
        # q = 1: every batch passes its first test
        assert batch_pass_probability(n, 1.0) == 1.0
        assert batch_waiting_time(n, 1.0) == 1.0
        assert mu(n, 1.0) == float(n)

    def test_single_item_coin_flip(self):
        # q = 1/2, n = 1: two tests per accepted item on average
        assert batch_waiting_time(1, 0.5) == 2.0
        assert per_item_cost(1, 0.5) == 2.0

    def test_accepts_numpy_integers(self):
        assert batch_waiting_time(np.int64(2), 0.5) == 4.0


class TestOverflowPolicy:
    # q = 0.3: q**-n crosses the double-precision ceiling between 589 and 590

    def test_last_representable_size(self):
        assert math.isfinite(batch_waiting_time(589, 0.3))

    def test_overflow_raises_with_context(self):
        with pytest.raises(OverflowError, match="exceeds double precision"):
            batch_waiting_time(590, 0.3)

    def test_sizes_past_float_range(self):
        # 10**400 has no float, so pow cannot take it as an exponent: q = 1
        # still prices it at one test, and any q < 1 passes it with probability 0
        n = 10**400
        assert batch_pass_probability(n, 1.0) == batch_waiting_time(n, 1.0) == 1.0
        assert batch_pass_probability(n, 1 - 2**-53) == 0.0
        with pytest.raises(OverflowError, match="exceeds double precision"):
            batch_waiting_time(n, 0.5)

    def test_large_but_safe_values_pass(self):
        assert batch_waiting_time(100, 0.99) == pytest.approx(math.pow(0.99, -100), rel=1e-13)

    def test_overflowing_sum_raises(self):
        # each singleton costs a finite 1e305; ten thousand of them do not,
        # and a solver must not report that sum as a cost
        with pytest.raises(OverflowError, match="exceed double precision"):
            expected_waiting_time([1] * 10**4, 1e-305)
        with pytest.raises(OverflowError, match="exceed double precision"):
            sweep_solve(10**4, 1e-305)


class TestArgumentValidation:
    @pytest.mark.parametrize("bad_n", (0, -1, -100, 2.5, True, None, "3"))
    def test_batch_size_rejected(self, bad_n):
        with pytest.raises(ValueError):
            batch_waiting_time(bad_n, 0.5)

    @pytest.mark.parametrize("bad_q", (-0.1, 1.0001, 2.0, -5.0))
    def test_q_outside_unit_interval_rejected(self, bad_q):
        with pytest.raises(ValueError):
            mu(3, bad_q)

    def test_q_zero_names_the_problem(self):
        with pytest.raises(ValueError, match="q = 0"):
            batch_waiting_time(3, 0.0)

    def test_expected_waiting_time_q_zero(self):
        with pytest.raises(ValueError, match="q = 0"):
            expected_waiting_time((1, 2), 0.0)


# ---------------------------------------------------------------------------
# design cost


class TestExpectedWaitingTime:
    @pytest.mark.parametrize("q", Q_GRID)
    def test_sums_per_batch_waiting_times(self, q):
        # the exact sum of the batch costs rounded once, in any batch order
        rng = random.Random(20171211)
        for _ in range(200):
            sizes = [rng.randint(1, 40) for _ in range(rng.randint(1, 60))]
            oracle = math.fsum(batch_waiting_time(n, q) for n in sizes)
            assert expected_waiting_time(sizes, q) == oracle, sizes

    def test_runs_cost_is_the_exact_sum_rounded_once(self):
        assert _runs_cost(((0.1, 3), (0.7, 1))) == float(3 * Fraction(0.1) + Fraction(0.7))
        assert _runs_cost(((1.0, 1), (2.0**-53, 2))) == 1 + 2.0**-52
        assert _runs_cost(((0.1, 10**20),)) == float(10**20 * Fraction(0.1))
        # a run of no batches counts nothing, even at an inf cost
        assert _runs_cost(((math.inf, 0), (2.0, 3))) == 6.0
        assert _runs_cost(((2.0, 1), (math.inf, 1))) == math.inf
        assert _runs_cost(((1e308, 2),)) == math.inf

    def test_accepts_bare_iterables(self):
        assert expected_waiting_time((1, 1), 0.5) == 4.0
        assert expected_waiting_time([2], 0.5) == 4.0

    def test_all_ones_closed_form(self):
        # N singleton batches cost N / q
        assert expected_waiting_time((1,) * 7, 0.25) == pytest.approx(7 / 0.25, rel=1e-13)

    def test_certain_pass_costs_one_per_batch(self):
        assert expected_waiting_time((5, 2, 9), 1.0) == 3.0


# ---------------------------------------------------------------------------
# value types


class TestPartition:
    def test_sorts_ascending(self):
        assert as_partition((84, 83, 83)).sizes == (83, 83, 84)

    def test_total_len_iter(self):
        part = as_partition((3, 1, 2))
        assert part.total == 6
        assert len(part) == 3
        assert list(part) == [1, 2, 3]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Partition(())

    @pytest.mark.parametrize("bad", ((0,), (-2,), (1.5,), (2, 0), (True,)))
    def test_rejects_bad_sizes(self, bad):
        with pytest.raises(ValueError):
            as_partition(bad)

    def test_frozen(self):
        part = as_partition((1, 2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            part.sizes = (3,)

    def test_numpy_sizes_coerced(self):
        part = as_partition(tuple(np.array([2, 1], dtype=np.int64)))
        assert part.sizes == (1, 2)
        assert all(type(n) is int for n in part.sizes)

    def test_as_partition_passthrough(self):
        part = as_partition((1, 2))
        assert as_partition(part) is part
        assert as_partition([2, 1]).sizes == (1, 2)


    def test_runs_merge_to_the_sizes_design(self):
        part = Partition(((84, 1), (83, 2)))
        assert part == as_partition((83, 84, 83))
        assert hash(part) == hash(as_partition((83, 84, 83)))
        assert part.runs == ((83, 2), (84, 1))

    @pytest.mark.parametrize("bad", (0, -1, True))
    def test_rejects_bad_counts(self, bad):
        with pytest.raises(ValueError):
            Partition(((3, bad),))

    def test_runs_hold_the_sorted_sizes(self):
        rng = random.Random(16)
        for _ in range(200):
            sizes = [rng.randint(1, 9) for _ in range(rng.randint(1, 40))]
            part = as_partition(sizes)
            ascending = sorted(sizes)
            assert part.sizes == tuple(ascending)
            assert list(part) == ascending
            assert len(part) == len(ascending)
            assert part.total == sum(ascending)

    def test_rejects_more_batches_than_len_can_report(self):
        assert len(Partition(((1, sys.maxsize),))) == sys.maxsize
        with pytest.raises(ValueError, match=f"at most {sys.maxsize} batches"):
            Partition(((1, sys.maxsize + 1),))
        with pytest.raises(ValueError, match=f"at most {sys.maxsize} batches"):
            Partition(((1, sys.maxsize), (2, 1)))


class TestDesignSolution:
    def test_holds_fields(self):
        sol = DesignSolution(as_partition((1, 2)), 6.0, "dp")
        assert sol.partition.sizes == (1, 2)
        assert sol.expected_tests == 6.0
        assert sol.method == "dp"


# ---------------------------------------------------------------------------
# tolerance helper


class TestValuesClose:
    def test_exact_equal(self):
        assert values_close(1.0, 1.0)

    def test_tiny_absolute_gap(self):
        assert values_close(0.0, 5e-13)

    def test_relative_gap_at_scale(self):
        assert values_close(1e6, 1e6 * (1 + 5e-13))
        assert not values_close(1e6, 1e6 * (1 + 5e-11))

    def test_clear_gap(self):
        assert not values_close(1.0, 1.001)
        # NaN is apart from everything, itself included, in either order
        assert not values_close(1.0, math.nan)
        assert not values_close(math.nan, 1.0)
        assert not values_close(math.inf, math.nan)
        assert not values_close(math.nan, math.inf)
        assert not values_close(math.nan, math.nan)

    def test_infinity_is_close_only_to_itself(self):
        assert not values_close(math.inf, 1.0)
        assert not values_close(1.0, math.inf)
        assert not values_close(1e308, math.inf)
        assert not values_close(math.inf, 1e308)
        assert values_close(math.inf, math.inf)


# ---------------------------------------------------------------------------
# constant-size optimum against the scan oracle


class TestOptimalConstantSize:
    @pytest.mark.parametrize("q", (0.55, 0.6, 0.7, 0.75, 0.8, 0.9, 0.95, 0.97))
    def test_matches_scan_oracle(self, q):
        scan_n, scan_mu = scan_constant_optimum(q)
        pick = optimal_constant_size(q)
        assert pick.items_per_test == pytest.approx(scan_mu, rel=1e-12)
        assert scan_n in (pick.n_star_low, pick.n_star_high)

    @pytest.mark.parametrize("q", (0.01, 0.2, 0.3, 0.49, 0.499999))
    def test_below_half_single_items_win(self, q):
        pick = optimal_constant_size(q)
        assert pick.n_star_low == 1
        assert pick.n_star_high is None

    def test_exactly_half_ties_with_pairs(self):
        pick = optimal_constant_size(0.5)
        assert (pick.n_star_low, pick.n_star_high) == (1, 2)
        assert mu(1, 0.5) == mu(2, 0.5) == 0.5

    @pytest.mark.parametrize("n", (2, 3, 9, 99, 150))
    def test_tie_exactly_at_boundary_ratio(self, n):
        # mu(n, q) = mu(n + 1, q) exactly when q = n / (n + 1)
        q = n / (n + 1)
        pick = optimal_constant_size(q)
        assert (pick.n_star_low, pick.n_star_high) == (n, n + 1)
        gap = abs(mu(n, q) - mu(n + 1, q))
        assert gap <= MU_TIE_RTOL * mu(n, q)

    @pytest.mark.parametrize("n", (2, 9, 99))
    @pytest.mark.parametrize("sign", (-1.0, 1.0))
    def test_near_boundary_is_not_a_tie(self, n, sign):
        q = n / (n + 1) + sign * 1e-6
        pick = optimal_constant_size(q)
        assert pick.n_star_high is None

    @pytest.mark.parametrize("n", (10**6, 10**7, 2**40 - 1))
    def test_tie_at_large_sizes(self, n):
        # the throughput gap of nearby non-ties is below 1e-12 here, yet
        # q = n / (n + 1) itself must still tie (exactly so for n + 1 = 2**40)
        pick = optimal_constant_size(n / (n + 1))
        assert (pick.n_star_low, pick.n_star_high) == (n, n + 1)

    @pytest.mark.parametrize("p", (1e-7, 1e-8, 1e-9, 1e-10, 1e-12))
    def test_pick_holds_the_exact_optimum_of_the_float_q(self, p):
        # mu(n) >= mu(n +- 1) exactly when n <= 1 / (1 - q) <= n + 1, so
        # floor(1 / (1 - q)) in rational arithmetic is an optimal size.
        # Each 1 / p here is an integer k, so q = 1 - p is the q derived
        # from p = 1 / k and a tie is reported.  From p = 1e-8 on, q can no
        # longer tell p from the doubles around it: 1 - 1e-8 is also the
        # double nearest 99999998 / 99999999, so the pair reported is
        # 99999998|99999999 where --p 1e-8 gives 99999999|100000000; only
        # membership of the exact optimum is asserted there.
        q = 1.0 - p
        exact = math.floor(1 / (1 - Fraction(q)))
        pick = optimal_constant_size(q)
        assert exact in (pick.n_star_low, pick.n_star_high)
        if p == 1e-7:
            assert (pick.n_star_low, pick.n_star_high) == (9999999, 10**7)

    @pytest.mark.parametrize("p", (3e-7, 7e-8, 6e-8, 4.5e-8, 3.5e-8))
    def test_no_false_tie_below_the_resolution_limit(self, p):
        # 1 / p is no integer, and with n* below about 3e7 the ratios
        # n / (n + 1) lie several ulps apart, so q = 1 - p is neither the
        # double nearest one of them nor 1 - 1 / k: no tie is reported and
        # the pick is the exact optimum alone
        q = 1.0 - p
        exact = math.floor(1 / (1 - Fraction(q)))
        pick = optimal_constant_size(q)
        assert (pick.n_star_low, pick.n_star_high) == (exact, None)

    def test_near_tie_with_a_large_optimum_is_decided(self):
        # q = 1 - 3e-7 sits 271 ulps above 3333332/3333333, so mu(n + 1)
        # / mu(n) = q (n + 1) / n > 1 and the larger size wins outright
        q = 1.0 - 3e-7
        assert Fraction(q) > Fraction(3333332, 3333333)
        pick = optimal_constant_size(q)
        assert (pick.n_star_low, pick.n_star_high) == (3333333, None)

    @pytest.mark.parametrize("q", (0.55, 0.7, 0.9, 0.99))
    def test_reported_throughput_is_mu_at_the_pick(self, q):
        pick = optimal_constant_size(q)
        assert pick.items_per_test == mu(pick.n_star_low, q)

    @pytest.mark.parametrize("q", (0.55, 0.7, 0.9, 0.99))
    def test_neighbors_never_beat_the_pick(self, q):
        pick = optimal_constant_size(q)
        best = pick.items_per_test
        slack = MU_TIE_RTOL * best
        if pick.n_star_low > 1:
            assert mu(pick.n_star_low - 1, q) <= best + slack
        assert mu(pick.n_star_low + 1, q) <= best + slack

    def test_heavy_pooling_regime(self):
        # q = 0.99 peaks between 99 and 100 and the two tie exactly
        pick = optimal_constant_size(0.99)
        assert (pick.n_star_low, pick.n_star_high) == (99, 100)
        peak = 1.0 / math.log(1.0 / 0.99)
        assert 99.49 <= peak <= 99.51
        assert mu(99, 0.99) == mu(100, 0.99)

    @pytest.mark.parametrize("bad_q", (0.0, 1.0, 1.5, -0.2))
    def test_requires_open_unit_interval(self, bad_q):
        with pytest.raises(ValueError):
            optimal_constant_size(bad_q)

    def test_result_type(self):
        pick = optimal_constant_size(0.9)
        assert isinstance(pick, ConstantSizeResult)


# ---------------------------------------------------------------------------
# the tie is exact: q stands for p = 1/k only at the two doubles that name it


def _ulps_away(x, steps):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


def _near_tie_grid(k):
    """q within 8 ulps of (k - 1) / k and of 1 - 1/k, as the CLI derives it."""
    centres = ((k - 1) / k, 1.0 - 1.0 / k)
    return sorted({_ulps_away(c, d) for c in centres for d in range(-8, 9)})


TIE_KS = (2, 3, 10, 100, 10**6, 3 * 10**7, *random.Random(17).sample(range(2, 3 * 10**7), 30))


class TestExactTie:
    @pytest.mark.parametrize("k", TIE_KS)
    def test_tie_only_at_the_two_doubles_of_the_ratio(self, k):
        exact_ties = ((k - 1) / k, 1.0 - 1.0 / k)
        for q in _near_tie_grid(k):
            pick = optimal_constant_size(q)
            tie = pick.n_star_high is not None
            assert tie == (q in exact_ties), q
            if tie:
                assert (pick.n_star_low, pick.n_star_high) == (k - 1, k)
                # every tie lies within 4 ulps of the ratio
                assert abs(q - (k - 1) / k) <= 4 * math.ulp((k - 1) / k)
            else:
                assert pick.n_star_low == math.floor(1 / (1 - Fraction(q))), q
            assert pick.items_per_test == mu(pick.n_star_low, q)

    @pytest.mark.parametrize("k", TIE_KS[::4])
    def test_theorem_and_sweep_agree_near_the_tie(self, k):
        for q in _near_tie_grid(k)[::5]:
            for demand in (3 * k + 1, 10**6 + 7):
                theorem = theorem_solve(demand, q)
                swept = sweep_solve(demand, q)
                assert theorem.partition == swept.partition, (q, demand)

    def test_two_ulps_above_a_tie_is_decided(self):
        # two ulps above 99/100 is no tie: 1 - q is 1/100 less 2.2e-16,
        # so 1 / (1 - q) is just above 100
        q = math.nextafter(math.nextafter(0.99, 1.0), 1.0)
        assert q == 0.9900000000000002
        pick = optimal_constant_size(q)
        assert (pick.n_star_low, pick.n_star_high) == (100, None)


# ---------------------------------------------------------------------------
# n* from p against an exact oracle, down to the smallest p the CLI accepts


def _oracle_grid():
    """Seeded p over [2**-54, 1/2], plus 1/k and its two neighbours for k up to 2**61."""
    rng = random.Random(386)
    ps = {2.0 ** -rng.uniform(1, 54) for _ in range(20_000)}
    for e in range(1, 61):
        for _ in range(30):
            k = rng.randrange(2**e, 2 ** (e + 1))
            ps.update((math.nextafter(1 / k, 0.0), 1 / k, math.nextafter(1 / k, 1.0)))
    return sorted(p for p in ps if 1 - p != 1)  # the CLI refuses the rest


def _exact_constant_sizes(p):
    # floor(1/p) in rationals; a tie when one k alone has p as its nearest
    # double 1/k (any such k lies within 2 of 1/p, so 8 is ample)
    low = math.floor(1 / Fraction(p))
    ties = [k for k in range(max(low - 8, 1), low + 9) if float(Fraction(1, k)) == p]
    return (ties[0] - 1, ties[0]) if len(ties) == 1 else (low, None)


class TestConstantSizesFromP:
    def test_matches_the_exact_oracle(self):
        grid = _oracle_grid()
        assert len(grid) > 24_000
        misses = [p for p in grid if _constant_sizes(p) != _exact_constant_sizes(p)]
        assert misses == []

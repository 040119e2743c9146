"""Tests for the four design solvers and the partition utilities.

The exhaustive solver is the ground-truth oracle for every fast route;
small closed-form cases are derived by hand in-line.
"""

import dataclasses
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from pooldesign import (
    Partition,
    balanced_partition,
    batch_waiting_time,
    brute_force_solve,
    dp_solve,
    expected_waiting_time,
    is_majorized_by,
    sweep_solve,
    theorem_solve,
    values_close,
)
from pooldesign import solvers
from pooldesign.solvers import (
    BRUTE_FORCE_CAP,
    _balanced_cost,
    _inverse_power_table,
    build_dp_table,
    integer_partitions,
)

Q_GRID = (0.3, 0.5, 0.6, 0.75, 0.9, 0.95, 0.99)
SOLVERS = (dp_solve, sweep_solve, theorem_solve, brute_force_solve)

# value of p(n), the number of integer partitions of n
PARTITION_COUNTS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 10: 42, 20: 627}


def random_composition(rng, total, parts):
    """Uniformly scatter `total` into `parts` positive integers."""
    extra = rng.multinomial(total - parts, np.full(parts, 1.0 / parts))
    return tuple(int(x) + 1 for x in extra)


# ---------------------------------------------------------------------------
# brute force first: it is the oracle everything else is checked against


class TestIntegerPartitions:
    @pytest.mark.parametrize("n,count", sorted(PARTITION_COUNTS.items()))
    def test_counts(self, n, count):
        assert sum(1 for _ in integer_partitions(n)) == count

    def test_zero_has_the_empty_partition(self):
        assert list(integer_partitions(0)) == [()]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            list(integer_partitions(-1))

    @pytest.mark.parametrize("n", (5, 8, 12))
    def test_each_is_descending_and_sums(self, n):
        seen = set()
        for part in integer_partitions(n):
            assert sum(part) == n
            assert list(part) == sorted(part, reverse=True)
            seen.add(part)
        assert len(seen) == sum(1 for _ in integer_partitions(n))

    def test_max_part_filter(self):
        got = list(integer_partitions(5, max_part=2))
        assert got == [(2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]


class TestBruteForce:
    def test_refuses_beyond_cap(self):
        with pytest.raises(ValueError, match="cap"):
            brute_force_solve(BRUTE_FORCE_CAP + 1, 0.9)

    def test_singleton_demand(self):
        sol = brute_force_solve(1, 0.5)
        assert sol.partition.sizes == (1,)
        assert sol.expected_tests == 2.0

    def test_tie_break_prefers_fewer_batches(self):
        # q = 1/2, N = 4: {2,2}, {1,1,2} and {1,1,1,1} all cost 8
        sol = brute_force_solve(4, 0.5)
        assert sol.partition.sizes == (2, 2)
        assert sol.expected_tests == 8.0

    def test_method_label(self):
        assert brute_force_solve(3, 0.9).method == "brute"

    def test_infinite_batch_costs_lose(self):
        # q**-n passes double range from n = 16 at q = 1e-20, so the first
        # partitions enumerated cost inf; the finite singletons must win
        sol = brute_force_solve(20, 1e-20)
        assert sol.partition.sizes == (1,) * 20
        assert math.isfinite(sol.expected_tests)

    def test_near_tie_is_measured_against_the_optimum(self):
        # 6 x 4 is enumerated first; 7 batches cost within tolerance of it
        # but more than 8 x 3, the optimum, which the 7 batches are also
        # within tolerance of, so they win
        sol = brute_force_solve(24, 0.75 - 1e-12)
        assert sol.partition.sizes == (3, 3, 3, 3, 4, 4, 4)

    def test_agrees_with_sweep_near_ties(self):
        differ = []
        for k in (1, 2, 3, 4, 5, 7, 9, 13, 19):
            for offset in (-1e-15, -1e-14, -1e-13, -1e-12, 0.0, 1e-13, 1e-12):
                q = k / (k + 1) + offset
                for demand in range(1, 21):
                    swept = sweep_solve(demand, q).partition
                    if brute_force_solve(demand, q).partition != swept:
                        differ.append((demand, q))
        assert differ == []

    # q = 1, the ties k / (k + 1), and q = 1e-7, whose table passes
    # double range from n = 45
    @pytest.mark.parametrize("q", (1.0, 1 / 2, 2 / 3, 3 / 4, 9 / 10, 99 / 100, 0.3, 0.85, 1e-7))
    def test_power_list_is_bit_identical_to_the_numpy_table(self, q):
        # the one q**-n builder, whose list dp searches, holds
        # the per-batch values the reported cost sums: hex-equal wherever
        # batch_waiting_time returns, inf exactly where it overflows
        want = [1.0]
        for n in range(1, BRUTE_FORCE_CAP + 1):
            try:
                want.append(batch_waiting_time(n, q))
            except OverflowError:
                want.append(math.inf)
        for n in range(BRUTE_FORCE_CAP + 1):
            got = _inverse_power_table(q, n)
            assert [x.hex() for x in got] == [x.hex() for x in want[: n + 1]]
        if q == 1e-7:
            assert math.isinf(got[-1])

    @pytest.mark.parametrize("n", (1, 4, 9, 15))
    def test_never_beaten_by_any_partition(self, n):
        # the solver's own enumeration re-checked value by value
        q = 0.85
        best = brute_force_solve(n, q).expected_tests
        for part in integer_partitions(n):
            assert expected_waiting_time(part, q) >= best * (1 - 1e-12)


# ---------------------------------------------------------------------------
# dynamic program


class TestDpTable:
    def test_base_cases(self):
        values, choices = build_dp_table(1, 0.8)
        assert values[0] == 0.0
        # one item needs one batch of one: 1/q tests, not 1
        assert values[1] == 1.25
        assert choices[1] == 1

    def test_values_strictly_increase_below_one(self):
        for q in (0.3, 0.6, 0.9, 0.99):
            values, _ = build_dp_table(40, q)
            assert all(values[n] < values[n + 1] for n in range(40))

    def test_values_flat_at_q_one(self):
        # every batch passes immediately, so one batch covers any demand
        values, _ = build_dp_table(12, 1.0)
        assert values[0] == 0.0
        assert all(v == 1.0 for v in values[1:])

    def test_tie_break_stores_largest_batch(self):
        # q = 1/2: batch costs 2, 4, 8, ... tie extensively; the
        # documented tie-break keeps the largest minimizing size
        _, choices = build_dp_table(4, 0.5)
        assert list(choices[1:]) == [1, 2, 2, 2]


class TestDpSolve:
    @pytest.mark.parametrize("q", Q_GRID)
    @pytest.mark.parametrize("n", range(1, 21))
    def test_agrees_with_brute_force(self, n, q):
        fast = dp_solve(n, q)
        truth = brute_force_solve(n, q)
        assert fast.partition.total == n
        assert fast.expected_tests == pytest.approx(truth.expected_tests, rel=1e-12)

    def test_heavy_pooling_regressions(self):
        # frozen full-precision values from this implementation
        sol = dp_solve(250, 0.99)
        assert sol.partition.sizes == (83, 83, 84)
        assert sol.expected_tests == pytest.approx(6.932021768996403, rel=1e-12)

        sol = dp_solve(220, 0.99)
        assert sol.partition.sizes == (110, 110)
        assert sol.expected_tests == pytest.approx(6.041692116470695, rel=1e-12)

    @pytest.mark.parametrize(
        "n,expected",
        [
            (50, (50,)),        # below the constant optimum: one batch
            (198, (99, 99)),    # exact multiple of 99
            (199, (99, 100)),   # remainder 1 absorbed by the 99/100 tie
            (201, (100, 101)),  # two large batches beat three small ones
        ],
    )
    def test_structure_around_the_pooling_optimum(self, n, expected):
        assert dp_solve(n, 0.99).partition.sizes == expected

    def test_value_recomputed_from_partition(self):
        sol = dp_solve(37, 0.9)
        assert sol.expected_tests == expected_waiting_time(sol.partition, 0.9)

    def test_overflow_propagates(self):
        # q**-n overflows from n = 590 on; those batch sizes cost inf in
        # the table and are never picked, so the finite optimum comes back
        assert dp_solve(600, 0.3).partition.sizes == (1,) * 600

    def test_runs_just_below_the_overflow_edge(self):
        sol = dp_solve(589, 0.3)
        assert sol.partition.sizes == (1,) * 589

    @pytest.mark.parametrize("bad", (0, -3, 2.5, True))
    def test_demand_validation(self, bad):
        with pytest.raises(ValueError):
            dp_solve(bad, 0.9)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_q_zero_rejected(self, solver):
        with pytest.raises(ValueError, match="q = 0"):
            solver(5, 0.0)


# ---------------------------------------------------------------------------
# balanced splits and the batch-count sweep


class TestBalancedPartition:
    @pytest.mark.parametrize(
        "demand,groups,expected",
        [
            (10, 3, (3, 3, 4)),
            (10, 1, (10,)),
            (10, 10, (1,) * 10),
            (7, 2, (3, 4)),
            (9, 3, (3, 3, 3)),
            (250, 3, (83, 83, 84)),
        ],
    )
    def test_known_splits(self, demand, groups, expected):
        assert balanced_partition(demand, groups).sizes == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_sizes_within_one_and_sum(self, seed):
        rng = np.random.default_rng(seed)
        demand = int(rng.integers(1, 500))
        groups = int(rng.integers(1, demand + 1))
        part = balanced_partition(demand, groups)
        assert part.total == demand
        assert len(part) == groups
        assert max(part.sizes) - min(part.sizes) <= 1

    def test_more_groups_than_items_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            balanced_partition(10, 11)

    def test_more_batches_than_len_can_report_rejected(self):
        # len() of 10**20 batches would raise OverflowError; refused by name
        with pytest.raises(ValueError, match=f"at most {sys.maxsize} batches"):
            balanced_partition(10**20, 10**20)

    @pytest.mark.parametrize("bad", (0, -1, 1.5, True))
    def test_group_count_validation(self, bad):
        with pytest.raises(ValueError):
            balanced_partition(10, bad)

    def test_holds_at_most_two_runs(self):
        part = balanced_partition(10**15, 7)
        assert len(part.runs) <= 2
        assert part.total == 10**15
        assert len(part) == 7
        assert balanced_partition(10**15, 5).runs == ((2 * 10**14, 5),)


class TestSweepSolve:
    @pytest.mark.parametrize("q", Q_GRID)
    @pytest.mark.parametrize("n", range(1, 21))
    def test_agrees_with_dp(self, n, q):
        assert sweep_solve(n, q).expected_tests == pytest.approx(
            dp_solve(n, q).expected_tests, rel=1e-12
        )

    @pytest.mark.parametrize("n", (500, 1000))
    @pytest.mark.parametrize("q", (0.9, 0.99))
    def test_agrees_with_dp_at_scale(self, n, q):
        assert sweep_solve(n, q).expected_tests == pytest.approx(
            dp_solve(n, q).expected_tests, rel=1e-9
        )

    def test_tie_break_prefers_fewest_batches(self):
        # q = 1/2, N = 3: two batches {1,2} tie with three singletons
        sol = sweep_solve(3, 0.5)
        assert sol.partition.sizes == (1, 2)

    def test_solutions_are_balanced(self):
        for n, q in ((123, 0.9), (250, 0.99), (77, 0.6)):
            sizes = sweep_solve(n, q).partition.sizes
            assert max(sizes) - min(sizes) <= 1

    def test_prices_counts_as_the_report_does(self):
        # sweep and theorem choose by the very value expected_waiting_time
        # reports for the balanced split, bit for bit
        rng = random.Random(20171212)
        qs = [k / (k + 1) + offset for k in (1, 2, 4, 9, 99) for offset in (-1e-12, 0.0)]
        qs += [rng.uniform(0.3, 1.0) for _ in range(10)]
        for q in qs:
            for _ in range(20):
                demand = int(math.exp(rng.uniform(0, math.log(2 * 10**4))))
                cost = _balanced_cost(demand, q)
                swept = len(sweep_solve(demand, q).partition)
                for count in {1, demand, rng.randint(1, demand), swept}:
                    partition = balanced_partition(demand, count)
                    if math.isinf(cost(count)):
                        with pytest.raises(OverflowError):
                            expected_waiting_time(partition, q)
                    else:
                        reported = expected_waiting_time(partition, q)
                        assert cost(count).hex() == reported.hex(), (demand, q, count)

    def test_overflow_propagates(self):
        # counts whose balanced batches cost inf lose to the singletons
        assert sweep_solve(600, 0.3).partition.sizes == (1,) * 600


# ---------------------------------------------------------------------------
# closed-form construction


class TestTheoremSolve:
    @pytest.mark.parametrize("q", (0.2, 0.4, 0.5))
    @pytest.mark.parametrize("n", (1, 2, 7, 12))
    def test_at_or_below_half_uses_singletons(self, n, q):
        # at q = 1/2 pairs tie with singletons and the fewest batches
        # win: ceil(n / 2) of them, e.g. 7 -> 1|2|2|2
        expected = (1,) * n if q < 0.5 else (1,) * (n % 2) + (2,) * (n // 2)
        assert theorem_solve(n, q).partition.sizes == expected

    def test_demand_below_constant_optimum_is_one_batch(self):
        assert theorem_solve(50, 0.99).partition.sizes == (50,)

    def test_exact_multiple_repeats_the_optimum(self):
        assert theorem_solve(198, 0.99).partition.sizes == (99, 99)

    def test_small_remainder_spreads_over_existing_batches(self):
        # 199 = 2 * 99 + 1 and 99 ties with 100, so keep two batches
        assert theorem_solve(199, 0.99).partition.sizes == (99, 100)

    def test_large_remainder_compares_both_batch_counts(self):
        assert theorem_solve(201, 0.99).partition.sizes == (100, 101)
        assert theorem_solve(250, 0.99).partition.sizes == (83, 83, 84)

    @pytest.mark.parametrize("q", Q_GRID)
    @pytest.mark.parametrize("n", range(1, 21))
    def test_agrees_with_brute_force(self, n, q):
        got = theorem_solve(n, q)
        truth = brute_force_solve(n, q)
        assert got.expected_tests == pytest.approx(truth.expected_tests, rel=1e-12)

    def test_rejects_certain_pass(self):
        # q = 1 has no constant-size optimum to build from
        with pytest.raises(ValueError):
            theorem_solve(10, 1.0)

    def test_method_label(self):
        assert theorem_solve(9, 0.9).method == "theorem"

    @pytest.mark.parametrize("q", (0.5, 0.9, 0.99))
    def test_runs_at_a_demand_of_1e18(self, q):
        # about 10**16 batches: read the runs only, never the sizes
        demand = 10**18
        solution = theorem_solve(demand, q)
        runs = solution.partition.runs
        assert len(runs) == 2
        assert sum(n * count for n, count in runs) == demand
        exact = sum(count * Fraction(batch_waiting_time(n, q)) for n, count in runs)
        assert solution.expected_tests == float(exact)
        assert sweep_solve(demand, q) == dataclasses.replace(solution, method="sweep")


# ---------------------------------------------------------------------------
# cross-checks shared by all solvers


class TestSolverContract:
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_partition_sums_to_demand(self, solver):
        sol = solver(17, 0.8)
        assert sol.partition.total == 17

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_value_matches_reevaluation(self, solver):
        sol = solver(23, 0.92)
        assert sol.expected_tests == expected_waiting_time(sol.partition, 0.92)

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_ascending_canonical_order(self, solver):
        sizes = solver(29, 0.97).partition.sizes
        assert sizes == tuple(sorted(sizes))

    @pytest.mark.parametrize("solver", (*SOLVERS, build_dp_table))
    @pytest.mark.parametrize("demand", (sys.maxsize + 1, 10**20))
    def test_demand_past_sys_maxsize_is_refused_before_any_table(self, monkeypatch, solver, demand):
        # were the check missing, dp would grow a list of N + 1 floats until
        # memory ran out; failing the table build keeps that from happening
        def no_table(q, n_max):
            raise AssertionError(f"q**-n table of {n_max + 1} entries requested")

        monkeypatch.setattr(solvers, "_inverse_power_table", no_table)
        with pytest.raises(ValueError, match="more batches than can be held"):
            solver(demand, 0.9)


    @pytest.mark.parametrize(
        "demand,q", [(1500, 0.5), (1100, 0.5), (2000, 0.7)]
    )
    def test_agreement_past_double_range_of_the_power_table(self, demand, q):
        # q**-demand overflows, yet every exact solver finds the optimum
        designs = {solver(demand, q).partition for solver in SOLVERS[:3]}
        assert len(designs) == 1

    def test_sweep_and_theorem_agree_at_large_demand(self):
        # q = 0.99 ties 99 with 100: both pick 1000 batches of 100
        demand, q = 100_000, 0.99
        assert sweep_solve(demand, q).partition.sizes == (100,) * 1000
        assert theorem_solve(demand, q).partition == sweep_solve(demand, q).partition

    @pytest.mark.parametrize("k", (1, 2, 3, 9, 19, 99))
    def test_one_tie_rule_at_tied_constant_sizes(self, k):
        # q = k / (k + 1) ties sizes k and k + 1, so many designs share
        # the optimal cost; every exact solver returns the one with the
        # fewest batches
        q = k / (k + 1)
        for demand in range(1, 301):
            expected = sweep_solve(demand, q).partition
            assert dp_solve(demand, q).partition == expected, demand
            assert theorem_solve(demand, q).partition == expected, demand

    def test_sweep_and_theorem_agree_near_ties(self):
        # just off q = k / (k + 1) designs a little dearer than the
        # optimum fall within the tolerance; sweep and theorem must both
        # pick the fewest batches among them
        rng = random.Random(20171210)
        demands = [*range(1, 60), *(rng.randint(60, 1500) for _ in range(6))]
        offsets = (-1e-15, -1e-14, -1e-13, -1e-12, -1e-10, 0.0, 1e-12)
        differ = []
        for k in (1, 2, 3, 4, 9, 19, 49, 99):
            for offset in offsets:
                q = k / (k + 1) + offset
                for demand in demands:
                    swept = sweep_solve(demand, q).partition
                    if theorem_solve(demand, q).partition != swept:
                        differ.append((demand, q))
        # large demands where the two bisections once stopped at different
        # counts, their costs rounded onto the tolerance limit
        for demand, k in ((695650, 1), (507703, 2), (797647, 2), (294426, 3), (902401, 4)):
            q = k / (k + 1) - 1e-12
            if theorem_solve(demand, q).partition != sweep_solve(demand, q).partition:
                differ.append((demand, q))
        assert differ == []

    @pytest.mark.parametrize(
        "demand,q",
        [
            (1000, 0.5 - 1.25e-10),  # a pair costs about 1e-9 over two singles
            (2000, 0.5 - 1.25e-10),
            (1000, 0.5 + 1.25e-10),
            (1000, 0.9 - 1e-12),
            (3000, 0.99 - 1e-13),
        ],
    )
    def test_near_a_tie_designs_stay_within_one_tolerance(self, demand, q):
        # just off q = k / (k + 1) each tied-looking swap costs a little
        # less than the tolerance; the swaps a design takes must not add
        # up past it
        optimum = theorem_solve(demand, q).expected_tests
        for solver in SOLVERS[:2]:
            assert values_close(solver(demand, q).expected_tests, optimum)


# ---------------------------------------------------------------------------
# majorization


class TestMajorization:
    def test_reflexive(self):
        assert is_majorized_by((3, 3, 4), (3, 3, 4))

    def test_balanced_below_spread(self):
        assert is_majorized_by((5, 5), (2, 8))
        assert not is_majorized_by((2, 8), (5, 5))

    def test_even_split_below_uneven_split(self):
        assert is_majorized_by((4, 4, 4), (2, 5, 5))
        assert not is_majorized_by((2, 5, 5), (4, 4, 4))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="batch counts"):
            is_majorized_by((6,), (3, 3))

    def test_total_mismatch_rejected(self):
        with pytest.raises(ValueError, match="totals"):
            is_majorized_by((3, 3), (3, 4))

    @pytest.mark.parametrize("seed", range(20))
    def test_balanced_is_majorized_by_any_composition(self, seed):
        rng = np.random.default_rng(seed)
        demand = int(rng.integers(2, 120))
        groups = int(rng.integers(1, demand + 1))
        comp = random_composition(rng, demand, groups)
        balanced = balanced_partition(demand, groups)
        assert is_majorized_by(balanced, comp)

    @pytest.mark.parametrize("seed", range(20))
    def test_cost_is_monotone_along_majorization(self, seed):
        # more balanced never costs more: the cost is Schur-convex
        rng = np.random.default_rng(100 + seed)
        demand = int(rng.integers(2, 80))
        groups = int(rng.integers(1, demand + 1))
        a = random_composition(rng, demand, groups)
        b = random_composition(rng, demand, groups)
        q = float(rng.choice([0.6, 0.75, 0.9, 0.99]))
        cost_a = expected_waiting_time(a, q)
        cost_b = expected_waiting_time(b, q)
        if is_majorized_by(a, b):
            assert cost_a <= cost_b * (1 + 1e-12)
        if is_majorized_by(b, a):
            assert cost_b <= cost_a * (1 + 1e-12)


# ---------------------------------------------------------------------------
# internal consistency of table powers


class TestPowerTableConsistency:
    @pytest.mark.parametrize("q", Q_GRID)
    def test_dp_values_match_scalar_powers(self, q):
        # the table must track the scalar arithmetic closely
        values, _ = build_dp_table(1, q)
        assert values[1] == pytest.approx(batch_waiting_time(1, q), rel=1e-13)
        sol = dp_solve(64, q)
        assert sol.expected_tests == pytest.approx(
            sum(batch_waiting_time(n, q) for n in sol.partition.sizes), rel=1e-13
        )

"""Tests for the benchmark's own oracle and workload generator.

Run with ``python3 -m pytest perfbench/test_oracle.py``.  They need
numpy and pytest only; nothing here imports pooldesign.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import pytest

import oracle
import workloads

# Tie values q = n / (n + 1) included on purpose.
Q_GRID = (0.3, 0.5, 2 / 3, 0.7, 0.75, 0.8, 5 / 6, 0.9, 0.95, 0.97, 0.99)


@lru_cache(maxsize=None)
def partitions(total: int, largest: int | None = None) -> tuple[tuple[int, ...], ...]:
    largest = total if largest is None else min(largest, total)
    if total == 0:
        return ((),)
    return tuple(
        (first, *rest)
        for first in range(largest, 0, -1)
        for rest in partitions(total - first, first)
    )


def brute_best(demand: int, q: float) -> tuple[float, int]:
    """Cheapest cost over every partition, and the fewest batches reaching it."""
    costs = [(math.fsum(q**-n for n in sizes), len(sizes)) for sizes in partitions(demand)]
    best = min(cost for cost, _ in costs)
    fewest = min(count for cost, count in costs if cost <= best * (1 + oracle.COST_RTOL))
    return best, fewest


@pytest.mark.parametrize("q", Q_GRID)
def test_balanced_scan_matches_brute_force(q):
    for demand in range(1, 31):
        best, fewest = oracle.best_balanced(demand, q)
        truth, truth_fewest = brute_best(demand, q)
        assert abs(best - truth) <= 1e-12 * truth, (demand, q)
        assert fewest == truth_fewest, (demand, q)


@pytest.mark.parametrize(
    "demand, sizes, tests", [(250, (83, 83, 84), 6.9320), (220, (110, 110), 6.0417)]
)
def test_reproduces_acceptance_designs(demand, sizes, tests):
    best, fewest = oracle.best_balanced(demand, 0.99)
    assert oracle.balanced_sizes(demand, fewest) == sizes
    assert abs(best - tests) <= 5e-4
    assert abs(oracle.design_cost(sizes, 0.99) - best) <= 1e-12 * best


def test_scan_survives_overflowing_batch_counts():
    # at q = 1/2 pairs tie with singletons; the fewest-batches rule picks pairs
    assert oracle.best_balanced(100_000, 0.5) == (200_000.0, 50_000)
    best, _ = oracle.best_balanced(100_000, 0.99)
    assert abs(best - 2732.0) <= 0.5


@pytest.mark.parametrize("q", Q_GRID)
def test_constant_optimum_matches_search(q):
    log_mu = [math.log(n) + n * math.log(q) for n in range(1, 2000)]
    n_star = max(range(len(log_mu)), key=log_mu.__getitem__) + 1
    tie = n_star + 1 if abs(log_mu[n_star] - log_mu[n_star - 1]) <= 1e-12 else None
    oracle.check_constant_optimum(n_star, tie, q)
    with pytest.raises(oracle.OutputError):
        oracle.check_constant_optimum(n_star + 2, None, q)


def test_constant_optimum_ties():
    oracle.check_constant_optimum(99, 100, 0.99)
    oracle.check_constant_optimum(1, 2, 0.5)
    with pytest.raises(oracle.OutputError):
        oracle.check_constant_optimum(32, 33, 0.97)  # 32 and 33 differ by 3e-4


def _solve_json(sizes, cost, n_star=99, tie=100, demand=250, p=0.01):
    row = {
        "n": demand, "p": p, "method": "dp", "partition": list(sizes),
        "expected_tests": cost, "n_star": n_star, "n_star_tie": tie,
    }
    return json.dumps(row, indent=2).encode()


SPEC = {"kind": "solve", "n": 250, "p": 0.01, "method": "dp", "format": "json"}


def test_accepts_a_correct_solve():
    cost = oracle.design_cost((83, 83, 84), 0.99)
    assert oracle.check_output(SPEC, _solve_json((83, 83, 84), cost)) == 1


@pytest.mark.parametrize(
    "sizes, cost_shift, n_star",
    [
        ((83, 83, 84), 1e-9, 99),  # cost off by 1e-9 relative
        ((83, 83, 83), 0.0, 99),  # sizes do not sum to N
        ((125, 125), 0.0, 99),  # a valid but more expensive design
        ((83, 83, 84), 0.0, 97),  # wrong constant optimum
    ],
)
def test_rejects_a_wrong_solve(sizes, cost_shift, n_star):
    cost = oracle.design_cost(sizes, 0.99) * (1 + cost_shift)
    with pytest.raises(oracle.OutputError):
        oracle.check_output(SPEC, _solve_json(sizes, cost, n_star=n_star))


def test_text_cost_is_checked_to_its_printed_digits():
    spec = dict(SPEC, format="text")
    lines = [
        "demand:           250", "defect rate p:    0.01", "method:           dp",
        "batches:          83|83|84", "expected tests:   {}", "constant optimum: 99|100",
    ]
    good = "\n".join(lines).format("6.932022") + "\n"
    assert oracle.check_output(spec, good.encode()) == 1
    with pytest.raises(oracle.OutputError):
        oracle.check_output(spec, ("\n".join(lines).format("6.932024") + "\n").encode())


def test_table_must_cover_the_grid():
    spec = {"kind": "table", "demands": [1, 2], "p_list": [0.01], "method": "dp", "format": "csv"}
    header = "N,p,method,partition,expected_tests,n_star\n"
    rows = [f"{n},0.01,dp,{n},{oracle.design_cost((n,), 0.99)!r},99|100\n" for n in (1, 2)]
    assert oracle.check_output(spec, (header + "".join(rows)).encode()) == 2
    with pytest.raises(oracle.OutputError):
        oracle.check_output(spec, (header + rows[0]).encode())


def test_simulation_z_score_is_bounded():
    sizes, reps = [83, 83, 84], 100
    analytic = oracle.design_cost(sizes, 0.99)
    spec = {"kind": "simulate", "sizes": sizes, "p": 0.01, "reps": reps, "seed": 7}

    def report(mean):
        variance = 4.0
        std_error = math.sqrt(variance / reps)
        return json.dumps({
            "sizes": sizes, "p": 0.01, "method": None, "replications": reps, "seed": 7,
            "mean_tests": mean, "variance_tests": variance, "std_error": std_error,
            "analytic_tests": analytic, "z_score": (mean - analytic) / std_error,
        }).encode()

    assert oracle.check_output(spec, report(analytic + 0.1)) == 1
    with pytest.raises(oracle.OutputError):
        oracle.check_output(spec, report(analytic + 2.0))  # z = 10


@pytest.mark.parametrize("workload", sorted(workloads.ROUND_MAKERS))
def test_rounds_repeat_per_seed_and_keep_their_make_up(workload):
    first = workloads.rounds(workload, 5)
    again = workloads.rounds(workload, 5)
    other = workloads.rounds(workload, 6)
    for _ in range(9):
        ops, same, different = next(first), next(again), next(other)
        assert [op.argv for op in ops] == [op.argv for op in same]
        assert len(ops) == len(different)
        assert sum(op.known_fault for op in ops) == sum(op.known_fault for op in different)
        for op in ops:
            dp_or_sweep = op.spec["kind"] == "solve" and op.spec["method"] in ("dp", "sweep")
            if dp_or_sweep and not op.known_fault:
                assert op.spec["n"] <= workloads.overflow_free_limit(op.spec["p"])


def test_solve_cli_fails_one_request_in_twenty_whatever_the_seed():
    def faults(seed):
        ops = [op for ops, _ in zip(workloads.rounds("solve-cli", seed), range(8)) for op in ops]
        assert sum(op.known_fault for op in ops) * 20 == len(ops)
        return [op.argv for op in ops if op.known_fault]

    assert faults(1) == faults(2)

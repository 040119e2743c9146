"""Independent checks of pooldesign outputs.

Nothing here imports pooldesign.  Every expected value is recomputed
from the request's own parameters, so a wrong answer cannot be checked
against itself:

- a design's cost is the correctly rounded ``math.fsum`` of q**-n;
- the optimal cost is the minimum of a balanced-count scan (for a fixed
  number of batches the balanced split is optimal, because the cost is
  Schur-convex), evaluated in log space so that no batch count overflows;
- the constant-size optimum maximises log(n) + n log(q), which is
  concave in n, so only the integers around its peak need comparing.

Every check raises OutputError with a message naming what disagreed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys

import numpy as np

# One rounding of a double.  The program sums I batch costs one after
# another and raises 1/q to each batch size, so its reported cost may
# sit up to about (I + max size) roundings from the exact sum.
UNIT_ROUNDOFF = 2.0**-53
COST_RTOL = 1e-12
MU_RTOL = 1e-9
Z_LIMIT = 6.0
TEXT_HALF_DIGIT = 0.5e-6  # text output prints costs with 6 decimals

SOLVE_KEYS = {"n", "p", "method", "partition", "expected_tests", "n_star", "n_star_tie"}
SIMULATE_KEYS = {
    "sizes", "p", "method", "replications", "seed", "mean_tests",
    "variance_tests", "std_error", "analytic_tests", "z_score",
}
CSV_HEADER = ["N", "p", "method", "partition", "expected_tests", "n_star"]
csv.field_size_limit(sys.maxsize)  # a partition cell of a large design exceeds the default


class OutputError(Exception):
    """A program output disagrees with the independent computation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OutputError(message)


def design_cost(sizes, q: float) -> float:
    """Correctly rounded sum of q**-n over the batch sizes."""
    powers = {n: q**-n for n in set(sizes)}
    return math.fsum(map(powers.__getitem__, sizes))


def cost_rtol(sizes) -> float:
    """Relative tolerance for a cost the program summed over these batches."""
    return COST_RTOL + (len(sizes) + max(sizes)) * UNIT_ROUNDOFF


def balanced_sizes(demand: int, batches: int) -> tuple[int, ...]:
    """Ascending sizes of the split of demand into batches within one of each other."""
    small, bumped = divmod(demand, batches)
    return (small,) * (batches - bumped) + (small + 1,) * bumped


def best_balanced(demand: int, q: float, max_batches: int | None = None) -> tuple[float, int]:
    """Cheapest balanced design over batch counts 1..max_batches.

    Returns (cost, fewest batch count reaching it within COST_RTOL).
    Counts whose batches would overflow a double cost inf and drop out.
    Every batch costs at least one test, so a design with more batches
    than a known feasible cost can never win; callers pass that cost as
    max_batches to keep the scan short.
    """
    top = demand if max_batches is None else max(1, min(demand, max_batches))
    counts = np.arange(1, top + 1, dtype=np.int64)
    small = demand // counts
    bumped = demand - small * counts
    log_inverse = -math.log(q)
    with np.errstate(over="ignore", invalid="ignore"):
        low = np.exp(small * log_inverse)
        high = np.exp((small + 1) * log_inverse)
        costs = (counts - bumped) * low + np.where(bumped > 0, bumped * high, 0.0)
    best = float(costs.min())
    _require(math.isfinite(best), f"every balanced design of {demand} overflows at q = {q}")
    fewest = int(np.flatnonzero(costs <= best * (1.0 + COST_RTOL))[0]) + 1
    return best, fewest


def _log_mu(n: int, q: float) -> float:
    return math.log(n) + n * math.log(q)


def check_constant_optimum(n_star, tie, q: float) -> None:
    """n_star maximises n * q**n; a reported tie is n_star + 1 and equal to it."""
    if q >= 1.0:
        _require(n_star is None and tie is None, "p = 0 has no constant-size optimum")
        return
    _require(isinstance(n_star, int) and n_star >= 1, f"n_star {n_star!r} is not a size")
    peak = 1.0 / -math.log(q)
    around = range(max(1, math.floor(peak) - 1), math.ceil(peak) + 2)
    best = max(_log_mu(n, q) for n in around)
    _require(
        _log_mu(n_star, q) >= best + math.log1p(-MU_RTOL),
        f"n_star {n_star} does not maximise n q**n at q = {q}",
    )
    if tie is not None:
        _require(tie == n_star + 1, f"tie {tie} is not n_star + 1 = {n_star + 1}")
        _require(
            abs(_log_mu(tie, q) - _log_mu(n_star, q)) <= MU_RTOL,
            f"reported tie {n_star}|{tie} does not hold at q = {q}",
        )


def check_design(demand: int, p: float, sizes, cost: float, printed_slack: float = 0.0) -> None:
    """Sizes split the demand, cost is their exact sum, and no design is cheaper."""
    _require(len(sizes) > 0, "empty design")
    _require(all(type(n) is int and n >= 1 for n in sizes), f"non-positive size in {sizes[:5]}")
    _require(sum(sizes) == demand, f"sizes sum to {sum(sizes)}, not the demand {demand}")
    q = 1.0 - p
    exact = design_cost(sizes, q)
    rtol = cost_rtol(sizes)
    _require(
        abs(cost - exact) <= printed_slack + rtol * exact,
        f"reported cost {cost!r} is not the design's cost {exact!r}",
    )
    best, _ = best_balanced(demand, q, max_batches=math.floor(exact * (1.0 + rtol)) + 1)
    _require(
        exact <= best * (1.0 + rtol),
        f"design costs {exact!r} but a balanced design costs {best!r} (N = {demand}, p = {p})",
    )


def _n_star_cell(cell: str):
    if cell in ("", "n/a"):
        return None, None
    parts = cell.split("|")
    _require(len(parts) in (1, 2), f"bad constant optimum {cell!r}")
    return int(parts[0]), (int(parts[1]) if len(parts) == 2 else None)


def _sizes_cell(cell: str) -> list[int]:
    return [int(piece) for piece in cell.split("|")]


def _check_row(row: dict, demand: int, p: float, method: str, printed_slack: float = 0.0) -> None:
    _require(row["n"] == demand, f"row demand {row['n']} != {demand}")
    _require(row["p"] == p, f"row p {row['p']} != {p}")
    _require(row["method"] == method, f"row method {row['method']} != {method}")
    check_design(demand, p, row["partition"], row["expected_tests"], printed_slack)
    check_constant_optimum(row["n_star"], row["n_star_tie"], 1.0 - p)


def _csv_rows(text: str) -> list[dict]:
    lines = list(csv.reader(io.StringIO(text)))
    _require(bool(lines) and lines[0] == CSV_HEADER, f"bad csv header {lines[:1]}")
    rows = []
    for cells in lines[1:]:
        _require(len(cells) == len(CSV_HEADER), f"bad csv row {cells[:4]}")
        low, high = _n_star_cell(cells[5])
        rows.append({
            "n": int(cells[0]), "p": float(cells[1]), "method": cells[2],
            "partition": _sizes_cell(cells[3]), "expected_tests": float(cells[4]),
            "n_star": low, "n_star_tie": high,
        })
    return rows


def _text_fields(text: str) -> dict:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        _require(bool(sep), f"bad text line {line[:60]!r}")
        fields[key.strip()] = value.strip()
    return fields


def check_solve(spec: dict, stdout: bytes) -> int:
    """Check one `solve` output; returns the number of designs it holds (1)."""
    text = stdout.decode()
    demand, p, method = spec["n"], spec["p"], spec["method"]
    if spec["format"] == "json":
        row = json.loads(text)
        _require(set(row) == SOLVE_KEYS, f"json keys {sorted(row)}")
        _check_row(row, demand, p, method)
    elif spec["format"] == "csv":
        rows = _csv_rows(text)
        _require(len(rows) == 1, f"csv holds {len(rows)} rows, not 1")
        _check_row(rows[0], demand, p, method)
    else:
        fields = _text_fields(text)
        low, high = _n_star_cell(fields["constant optimum"])
        row = {
            "n": int(fields["demand"]), "p": float(fields["defect rate p"]),
            "method": fields["method"], "partition": _sizes_cell(fields["batches"]),
            "expected_tests": float(fields["expected tests"]),
            "n_star": low, "n_star_tie": high,
        }
        _check_row(row, demand, p, method, printed_slack=TEXT_HALF_DIGIT)
    return 1


def check_table(spec: dict, stdout: bytes) -> int:
    """Check one `table` output: rows cover exactly the grid; returns the row count."""
    text = stdout.decode()
    rows = json.loads(text) if spec["format"] == "json" else _csv_rows(text)
    grid = [(p, n) for p in sorted(spec["p_list"]) for n in spec["demands"]]
    _require(
        [(row["p"], row["n"]) for row in rows] == grid,
        f"table rows do not cover the {len(grid)}-cell grid in (p, N) order",
    )
    for row in rows:
        if spec["format"] == "json":
            _require(set(row) == SOLVE_KEYS, f"json keys {sorted(row)}")
        _check_row(row, row["n"], row["p"], spec["method"])
    return len(rows)


def check_simulate(spec: dict, stdout: bytes) -> int:
    """Check one `simulate --format json` output; returns 1 (one design simulated)."""
    report = json.loads(stdout.decode())
    _require(set(report) == SIMULATE_KEYS, f"json keys {sorted(report)}")
    sizes = sorted(spec["sizes"])
    _require(report["sizes"] == sizes, "simulated sizes differ from the request")
    _require(report["p"] == spec["p"] and report["method"] is None, "p or method differs")
    _require(report["replications"] == spec["reps"], "replication count differs")
    _require(report["seed"] == spec["seed"], "seed differs")
    exact = design_cost(sizes, 1.0 - spec["p"])
    _require(
        abs(report["analytic_tests"] - exact) <= cost_rtol(sizes) * exact,
        f"analytic_tests {report['analytic_tests']!r} is not the design's cost {exact!r}",
    )
    mean, se = report["mean_tests"], report["std_error"]
    _require(mean >= len(sizes), f"mean {mean} is below one test per batch")
    _require(
        abs(se - math.sqrt(report["variance_tests"] / spec["reps"])) <= 1e-12 * se,
        "std_error is not sqrt(variance / replications)",
    )
    _require(se > 0.0, "zero standard error from a random design")
    z = (mean - exact) / se
    _require(abs(z) <= Z_LIMIT, f"z-score {z:.2f} exceeds {Z_LIMIT}")
    _require(abs(report["z_score"] - z) <= 1e-6 * max(1.0, abs(z)), "z_score disagrees")
    return 1


CHECKS = {"solve": check_solve, "table": check_table, "simulate": check_simulate}


def check_output(spec: dict, stdout: bytes) -> int:
    """Check an output against the request that produced it; returns designs held."""
    try:
        return CHECKS[spec["kind"]](spec, stdout)
    except (ValueError, KeyError, TypeError, csv.Error) as exc:
        raise OutputError(f"unparseable {spec['kind']} output: {exc!r}") from None

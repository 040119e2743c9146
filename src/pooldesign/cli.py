"""Command-line front end for batch screening designs.

Subcommands: solve (optimal design for one demand), simulate (Monte
Carlo check of a design), table (design grid over demands and defect
rates).  Input is always the defect probability p; the per-item pass
probability q = 1 - p is derived, never supplied, so the two cannot
drift apart.

Exit codes: 0 success, 2 bad flags, 3 domain error from the library
(the message names the violated precondition).
"""

from __future__ import annotations

import csv
import io
import json
import sys

import click

from .core import as_partition
from .sim import simulate_design
from .solvers import SOLVERS, _dp_solutions

CSV_HEADER = ["N", "p", "method", "partition", "expected_tests", "n_star"]


def _split_commas(value: str, item: str) -> list[str]:
    parts = [piece.strip() for piece in value.split(",") if piece.strip()]
    if not parts:
        raise click.BadParameter(f"needs at least one {item}")
    return parts


def _check_probability(ctx, param, value: float) -> float:
    if not 0.0 <= value < 1.0:
        raise click.BadParameter(
            f"defect probability must satisfy 0 <= p < 1, got {value}"
        )
    return value


def _check_probability_list(ctx, param, value: str) -> list[float]:
    probabilities = []
    for piece in _split_commas(value, "probability"):
        try:
            p = float(piece)
        except ValueError:
            raise click.BadParameter(f"{piece!r} is not a number") from None
        probabilities.append(_check_probability(ctx, param, p))
    return probabilities


def _check_demand_range(ctx, param, value):
    pieces = value.split(":")
    if len(pieces) not in (2, 3):
        raise click.BadParameter("expected START:STOP or START:STOP:STEP")
    try:
        numbers = [int(piece) for piece in pieces]
    except ValueError:
        raise click.BadParameter("range bounds must be integers") from None
    start, stop = numbers[0], numbers[1]
    step = numbers[2] if len(numbers) == 3 else 1
    if step < 1:
        raise click.BadParameter(f"step must be at least 1, got {step}")
    demands = list(range(start, stop + 1, step))
    if not demands:
        raise click.BadParameter(f"range {value!r} selects no demands")
    return demands


def _check_sizes(ctx, param, value):
    if value is None:
        return None
    try:
        return tuple(int(piece) for piece in _split_commas(value, "batch size"))
    except ValueError:
        raise click.BadParameter("batch sizes must be integers") from None


def _domain_error(exc: Exception) -> None:
    click.echo(f"error: {exc}", err=True)
    sys.exit(3)


def _constant_size_fields(p: float) -> tuple[int | None, int | None]:
    # Sizes k - 1 and k tie when p = 1/k, else floor(1/p) is optimal.  Both
    # are exact from p; q = 1 - p has lost the bits that tell them apart.
    if 1.0 - p == 1.0:  # q = 1 has no finite constant-size optimum
        return None, None
    k = round(1.0 / p)
    if p == 1.0 / k:  # the double nearest 1/k is the tie
        return k - 1, k
    num, den = p.as_integer_ratio()
    return den // num, None


def _n_star_cell(low: int | None, high: int | None) -> str:
    if low is None:
        return ""
    if high is not None:
        return f"{low}|{high}"
    return str(low)


def _partition_cell(sizes: tuple[int, ...]) -> str:
    return "|".join(str(n) for n in sizes)


def _design_row(demand: int, p: float, method: str, solution, low, high) -> dict:
    return {
        "n": demand,
        "p": p,
        "method": method,
        "partition": list(solution.partition.sizes),
        "expected_tests": solution.expected_tests,
        "n_star": low,
        "n_star_tie": high,
    }


def _echo_design_csv(rows: list[dict]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(
            [
                row["n"],
                row["p"],
                row["method"],
                _partition_cell(tuple(row["partition"])),
                repr(row["expected_tests"]),
                _n_star_cell(row["n_star"], row["n_star_tie"]),
            ]
        )
    click.echo(buffer.getvalue(), nl=False)


@click.group()
def main():
    """Optimal batch designs for screening until N good items are accepted."""


@main.command(name="solve")
@click.option("--n", "demand", type=int, required=True, help="Demand: good items needed.")
@click.option(
    "--p",
    type=float,
    required=True,
    callback=_check_probability,
    help="Per-item defect probability, 0 <= p < 1.",
)
@click.option(
    "--method",
    type=click.Choice(tuple(SOLVERS)),
    default="dp",
    show_default=True,
    help="Solver to run.",
)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(("text", "json", "csv")),
    default="text",
    show_default=True,
    help="Output format.",
)
def cmd_solve(demand: int, p: float, method: str, fmt: str):
    """Compute the cheapest batch design for one demand."""
    q = 1.0 - p
    try:
        solution = SOLVERS[method](demand, q)
    except (ValueError, OverflowError) as exc:
        _domain_error(exc)
    low, high = _constant_size_fields(p)
    row = _design_row(demand, p, method, solution, low, high)
    if fmt == "json":
        click.echo(json.dumps(row, indent=2))
    elif fmt == "csv":
        _echo_design_csv([row])
    else:
        click.echo(f"demand:           {demand}")
        click.echo(f"defect rate p:    {p}")
        click.echo(f"method:           {method}")
        click.echo(f"batches:          {_partition_cell(solution.partition.sizes)}")
        click.echo(f"expected tests:   {solution.expected_tests:.6f}")
        click.echo(f"constant optimum: {_n_star_cell(low, high) or 'n/a'}")


@main.command(name="simulate")
@click.option("--n", "demand", type=int, default=None, help="Demand to solve, then simulate.")
@click.option(
    "--sizes",
    callback=_check_sizes,
    default=None,
    help="Explicit batch sizes to simulate, e.g. 83,83,84.",
)
@click.option(
    "--p",
    type=float,
    required=True,
    callback=_check_probability,
    help="Per-item defect probability, 0 <= p < 1.",
)
@click.option(
    "--method",
    type=click.Choice(tuple(SOLVERS)),
    default="dp",
    show_default=True,
    help="Solver used with --n.",
)
@click.option("--reps", type=int, default=10000, show_default=True, help="Replications.")
@click.option("--seed", type=int, default=0, show_default=True, help="Stream seed.")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(("text", "json")),
    default="text",
    show_default=True,
    help="Output format.",
)
def cmd_simulate(demand, sizes, p, method, reps, seed, fmt):
    """Monte Carlo check of a design's expected total tests."""
    if (demand is None) == (sizes is None):
        raise click.UsageError("pass exactly one of --n or --sizes")
    q = 1.0 - p
    try:
        if demand is not None:
            part = SOLVERS[method](demand, q).partition
        else:
            method = None
            part = as_partition(sizes)
        report = simulate_design(part, q, reps, seed)
    except (ValueError, OverflowError) as exc:
        _domain_error(exc)
    if not report.exact:
        click.echo(
            "warning: a replication needed 2**53 tests or more, past the "
            "exact range of float64 counts, so the moments are not exact",
            err=True,
        )
    if fmt == "json":
        payload = {
            "sizes": list(part.sizes),
            "p": p,
            "method": method,
            "replications": report.replications,
            "seed": seed,
            "mean_tests": report.mean_tests,
            "variance_tests": report.variance_tests,
            "std_error": report.std_error,
            "analytic_tests": report.analytic_tests,
            "z_score": report.z_score,
        }
        click.echo(json.dumps(payload, indent=2))
    else:
        click.echo(f"batches:          {_partition_cell(part.sizes)}")
        click.echo(f"defect rate p:    {p}")
        click.echo(f"method:           {method or 'n/a'}")
        click.echo(f"replications:     {report.replications}")
        click.echo(f"seed:             {seed}")
        click.echo(f"mean tests:       {report.mean_tests:.6f}")
        click.echo(f"std error:        {report.std_error:.6f}")
        click.echo(f"analytic tests:   {report.analytic_tests:.6f}")
        click.echo(f"z-score:          {report.z_score:.6f}")


@main.command(name="table")
@click.option(
    "--n-range",
    "demands",
    required=True,
    callback=_check_demand_range,
    help="Demand grid START:STOP[:STEP], STOP inclusive.",
)
@click.option(
    "--p-list",
    "probabilities",
    required=True,
    callback=_check_probability_list,
    help="Comma-separated defect probabilities.",
)
@click.option(
    "--method",
    type=click.Choice(tuple(SOLVERS)),
    default="dp",
    show_default=True,
    help="Solver to run per row.",
)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(("csv", "json")),
    default="csv",
    show_default=True,
    help="Output format.",
)
def cmd_table(demands, probabilities, method: str, fmt: str):
    """Design table over a demand grid and a list of defect rates."""
    rows = []
    try:
        for p in sorted(probabilities):
            q = 1.0 - p
            low, high = _constant_size_fields(p)
            if method == "dp":  # one table serves every demand
                solutions = _dp_solutions(demands, q)
            else:
                solutions = [SOLVERS[method](demand, q) for demand in demands]
            rows += [_design_row(d, p, method, s, low, high) for d, s in zip(demands, solutions)]
    except (ValueError, OverflowError) as exc:
        _domain_error(exc)
    if fmt == "json":
        click.echo(json.dumps(rows, indent=2))
    else:
        _echo_design_csv(rows)


if __name__ == "__main__":
    main()

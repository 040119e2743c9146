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

import json
import sys

import click

from .core import _constant_sizes, as_partition
from .sim import simulate_design
from .solvers import SOLVERS, _solve_range

CSV_HEADER = "N,p,method,partition,expected_tests,n_star\n"


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
    if value > 0.0 and 1.0 - value == 1.0:  # p <= 2**-54: q = 1 would price every batch at 1
        raise click.BadParameter(f"defect probability {value} is too small: 1 - p rounds to 1")
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
    demands = range(start, stop + 1, step)
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


def _n_star_cell(low: int | None, high: int | None) -> str:
    return "|".join(str(size) for size in (low, high) if size is not None)


def _partition_cell(runs) -> str:
    return "|".join("|".join([str(size)] * count) for size, count in runs)


def _design_row(demand: int, p: float, method: str, solution, low, high) -> dict:
    return {
        "n": demand,
        "p": p,
        "method": method,
        "partition": list(solution.partition),
        "expected_tests": solution.expected_tests,
        "n_star": low,
        "n_star_tie": high,
    }


def _csv_line(demand: int, p: float, method: str, solution, low, high) -> str:
    # No cell needs quoting: they are ints, float reprs (str of a float is
    # its repr), a method name and "|"-joined ints.
    partition = _partition_cell(solution.partition.runs)
    cells = (demand, p, method, partition, solution.expected_tests, _n_star_cell(low, high))
    return ",".join(map(str, cells)) + "\n"


_p_option = click.option(
    "--p",
    type=float,
    required=True,
    callback=_check_probability,
    help="Per-item defect probability, 0 <= p < 1.",
)


def _method_option(help_text: str):
    choice = click.Choice(tuple(SOLVERS))
    return click.option("--method", type=choice, default="dp", show_default=True, help=help_text)


def _format_option(*choices: str):
    """--format over the given choices, the first being the default."""
    return click.option(
        "--format",
        "fmt",
        type=click.Choice(choices),
        default=choices[0],
        show_default=True,
        help="Output format.",
    )


@click.group()
def main():
    """Optimal batch designs for screening until N good items are accepted."""


@main.command(name="solve")
@click.option("--n", "demand", type=int, required=True, help="Demand: good items needed.")
@_p_option
@_method_option("Solver to run.")
@_format_option("text", "json", "csv")
def cmd_solve(demand: int, p: float, method: str, fmt: str):
    """Compute the cheapest batch design for one demand."""
    q = 1.0 - p
    try:
        solution = SOLVERS[method](demand, q)
    except (ValueError, OverflowError) as exc:
        _domain_error(exc)
    low, high = _constant_sizes(p)
    if fmt == "json":
        click.echo(json.dumps(_design_row(demand, p, method, solution, low, high), indent=2))
    elif fmt == "csv":
        sys.stdout.write(CSV_HEADER + _csv_line(demand, p, method, solution, low, high))
    else:
        click.echo(f"demand:           {demand}")
        click.echo(f"defect rate p:    {p}")
        click.echo(f"method:           {method}")
        click.echo(f"batches:          {_partition_cell(solution.partition.runs)}")
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
@_p_option
@_method_option("Solver used with --n.")
@click.option("--reps", type=int, default=10000, show_default=True, help="Replications.")
@click.option("--seed", type=int, default=0, show_default=True, help="Stream seed.")
@_format_option("text", "json")
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
            "sizes": list(part),
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
        click.echo(f"batches:          {_partition_cell(part.runs)}")
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
@_method_option("Solver to run per row.")
@_format_option("csv", "json")
def cmd_table(demands, probabilities, method: str, fmt: str):
    """Design table over a demand grid and a list of defect rates."""
    lead = "[\n  " if fmt == "json" else CSV_HEADER  # goes out with the first row
    try:
        for p in sorted(probabilities):
            low, high = _constant_sizes(p)
            for demand, solution in zip(demands, _solve_range(method, demands, 1.0 - p)):
                design = (demand, p, method, solution, low, high)
                if fmt == "csv":
                    sys.stdout.write(lead + _csv_line(*design))
                else:  # indented as json.dumps indents a list of the rows
                    row = json.dumps(_design_row(*design), indent=2).replace("\n", "\n  ")
                    sys.stdout.write(lead + row)
                lead = "" if fmt == "csv" else ",\n  "
    except (ValueError, OverflowError) as exc:
        _domain_error(exc)
    if fmt == "json":
        sys.stdout.write("\n]\n")


if __name__ == "__main__":
    main()

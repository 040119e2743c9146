"""End-to-end tests of the command-line interface.

Covers output formats, flag validation, the exit-code contract
(0 success, 2 bad flags, 3 domain errors), and byte-level determinism
of the simulate subcommand.
"""

import csv
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import pooldesign
from pooldesign import cli, expected_waiting_time, solvers
from pooldesign.cli import main

CSV_HEADER = "N,p,method,partition,expected_tests,n_star"


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


# ---------------------------------------------------------------------------
# solve


class TestSolve:
    def test_text_report(self, runner):
        result = invoke(runner, "solve", "--n", "250", "--p", "0.01")
        assert result.exit_code == 0
        assert "83|83|84" in result.output
        assert "6.932022" in result.output
        assert "99|100" in result.output

    def test_json_report(self, runner):
        result = invoke(
            runner, "solve", "--n", "220", "--p", "0.01", "--method", "theorem",
            "--format", "json",
        )
        assert result.exit_code == 0
        row = json.loads(result.output)
        assert set(row) == {
            "n", "p", "method", "partition", "expected_tests", "n_star", "n_star_tie",
        }
        assert row["partition"] == [110, 110]
        assert abs(row["expected_tests"] - 6.0417) <= 5e-4
        assert row["n_star"] == 99
        assert row["n_star_tie"] == 100

    def test_trivial_single_item(self, runner):
        result = invoke(runner, "solve", "--n", "1", "--p", "0.5", "--format", "json")
        row = json.loads(result.output)
        assert row["partition"] == [1]
        assert row["expected_tests"] == 2.0

    def test_json_round_trips_through_reevaluation(self, runner):
        result = invoke(
            runner, "solve", "--n", "250", "--p", "0.01", "--format", "json"
        )
        row = json.loads(result.output)
        recomputed = expected_waiting_time(tuple(row["partition"]), 1.0 - row["p"])
        assert recomputed == row["expected_tests"]

    def test_csv_report(self, runner):
        result = invoke(runner, "solve", "--n", "250", "--p", "0.01", "--format", "csv")
        lines = result.output.splitlines()
        assert lines[0] == CSV_HEADER
        fields = lines[1].split(",")
        assert fields[0] == "250"
        assert fields[1] == "0.01"
        assert fields[2] == "dp"
        assert fields[3] == "83|83|84"
        assert abs(float(fields[4]) - 6.9320) <= 5e-4
        assert fields[5] == "99|100"

    def test_no_pooling_without_defects(self, runner):
        # p = 0 means one batch always suffices; no constant optimum exists
        result = invoke(runner, "solve", "--n", "5", "--p", "0", "--format", "json")
        row = json.loads(result.output)
        assert row["partition"] == [5]
        assert row["expected_tests"] == 1.0
        assert row["n_star"] is None
        assert row["n_star_tie"] is None

    @pytest.mark.parametrize("method", ("dp", "sweep", "theorem"))
    def test_demand_past_double_range_of_q_power(self, runner, method):
        # q**-700 overflows at p = 0.7, but singletons cost 700 / 0.3
        result = invoke(
            runner, "solve", "--n", "700", "--p", "0.7", "--method", method,
            "--format", "json",
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["partition"] == [1] * 700

    @pytest.mark.parametrize("method", ("dp", "sweep", "theorem", "brute"))
    def test_pairs_win_the_tie_at_half(self, runner, method):
        result = invoke(runner, "solve", "--n", "10", "--p", "0.5", "--method", method)
        assert result.exit_code == 0
        assert "batches:          2|2|2|2|2\n" in result.output

    @pytest.mark.parametrize("method", ("dp", "sweep", "theorem"))
    def test_one_design_just_below_a_tie(self, runner, method):
        # q = 0.899999999999999 lies just below the 9/10 tie, where ten
        # batches of 9 cost within the tolerance of nine batches of 10
        result = invoke(
            runner, "solve", "--n", "90", "--p", "0.100000000000001", "--method", method
        )
        assert result.exit_code == 0
        assert f"batches:          {'|'.join(['10'] * 9)}\n" in result.output

    def test_brute_past_double_range_leaves_stderr_empty(self):
        # q**-25 is about 1e308 at p = 1 - 4.79e-13, so some partitions
        # sum past double range; they lose quietly to the singletons.
        # A real process, since pytest would capture numpy's warnings.
        src = str(Path(pooldesign.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "pooldesign", "solve", "--method", "brute",
             "--n", "50", "--p", "0.9999999999995214"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0
        assert done.stderr == ""
        assert f"batches:          {'|'.join(['1'] * 50)}\n" in done.stdout

    def test_near_tie_prints_one_constant_optimum(self, runner):
        # p = 3e-7 is close to, but not at, the 3333332/3333333 tie
        result = invoke(runner, "solve", "--n", "10", "--p", "3e-7", "--method", "theorem")
        assert result.exit_code == 0
        assert "constant optimum: 3333333\n" in result.output

    @pytest.mark.parametrize(
        "p, cell",
        (
            # the double nearest 1/10**8 is the tie, though 1 - p cannot show it
            ("1e-8", "99999999|100000000"),
            # 1/p = 2699182.99993: within 4 ulps of a tie in q, but no tie
            ("3.704824756333552e-07", "2699182"),
        ),
    )
    def test_constant_optimum_is_exact_in_p(self, runner, p, cell):
        result = invoke(runner, "solve", "--n", "10", "--p", p, "--method", "theorem")
        assert result.exit_code == 0
        assert f"constant optimum: {cell}\n" in result.output

    @pytest.mark.parametrize("n", (1, 7, 13, 30))
    @pytest.mark.parametrize("p", (0.05, 0.25, 0.5))
    def test_methods_print_identical_values(self, runner, n, p):
        printed = set()
        for method in ("dp", "sweep", "theorem", "brute"):
            result = invoke(
                runner, "solve", "--n", str(n), "--p", str(p),
                "--method", method, "--format", "json",
            )
            assert result.exit_code == 0
            printed.add(round(json.loads(result.output)["expected_tests"], 9))
        assert len(printed) == 1


# ---------------------------------------------------------------------------
# simulate


class TestSimulate:
    def test_explicit_sizes_z_score(self, runner):
        result = invoke(
            runner, "simulate", "--sizes", "83,83,84", "--p", "0.01",
            "--reps", "20000", "--seed", "7", "--format", "json",
        )
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["sizes"] == [83, 83, 84]
        assert report["method"] is None
        assert abs(report["z_score"]) <= 4.0

    def test_defect_free_stream_is_exact(self, runner):
        result = invoke(
            runner, "simulate", "--sizes", "5", "--p", "0",
            "--reps", "10", "--seed", "1", "--format", "json",
        )
        report = json.loads(result.output)
        assert report["mean_tests"] == 1.0
        assert report["z_score"] == 0.0

    def test_solve_then_simulate(self, runner):
        result = invoke(
            runner, "simulate", "--n", "10", "--p", "0.05",
            "--reps", "100000", "--seed", "3", "--format", "json",
        )
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["method"] == "dp"
        gap = abs(report["mean_tests"] - report["analytic_tests"])
        assert gap <= 3 * report["std_error"]

    def test_text_report_fields(self, runner):
        result = invoke(
            runner, "simulate", "--sizes", "2,3", "--p", "0.1",
            "--reps", "100", "--seed", "5",
        )
        assert result.exit_code == 0
        for label in ("batches:", "mean tests:", "std error:", "z-score:"):
            assert label in result.output

    def test_byte_identical_reruns_text(self, runner):
        args = ("simulate", "--sizes", "83,83,84", "--p", "0.01",
                "--reps", "2000", "--seed", "7")
        first = invoke(runner, *args)
        second = invoke(runner, *args)
        assert first.output.encode() == second.output.encode()

    def test_byte_identical_reruns_json(self, runner):
        args = ("simulate", "--n", "30", "--p", "0.1",
                "--reps", "2000", "--seed", "5", "--format", "json")
        first = invoke(runner, *args)
        second = invoke(runner, *args)
        assert first.output.encode() == second.output.encode()

    def test_inexact_counts_warn_on_stderr(self, runner):
        # q**-5000 at p = 0.01 is about 6.7e21 tests, past 2**53
        result = invoke(runner, "simulate", "--sizes", "5000", "--p", "0.01", "--reps", "1000")
        assert result.exit_code == 0
        assert result.stdout.startswith("batches:          5000\n")
        assert "warning" not in result.stdout
        [line] = result.stderr.splitlines()
        assert line.startswith("warning: ")

    def test_overflowing_draws_warn_once(self):
        # q**-1022 at p = 0.5 is about 4.5e307: some draws pass double
        # range, and only the program's own one-line warning appears.
        # A real process, since pytest would capture numpy's warnings.
        src = str(Path(pooldesign.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "pooldesign", "simulate", "--sizes", "1022",
             "--p", "0.5", "--reps", "100"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0
        [line] = done.stderr.splitlines()
        assert line.startswith("warning: ")

    def test_exact_counts_leave_stderr_empty(self, runner):
        result = invoke(runner, "simulate", "--sizes", "83,83,84", "--p", "0.01", "--reps", "1000")
        assert result.exit_code == 0
        assert result.stderr == ""

    def test_sizes_tolerate_spaces(self, runner):
        result = invoke(
            runner, "simulate", "--sizes", "3, 2 ,5", "--p", "0.1",
            "--reps", "10", "--seed", "0", "--format", "json",
        )
        assert json.loads(result.output)["sizes"] == [2, 3, 5]


# ---------------------------------------------------------------------------
# table


class TestTable:
    def test_reproduces_known_designs(self, runner):
        result = invoke(runner, "table", "--n-range", "220:250:30", "--p-list", "0.01")
        lines = result.output.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        first = lines[1].split(",")
        second = lines[2].split(",")
        assert first[0] == "220" and first[3] == "110|110"
        assert abs(float(first[4]) - 6.0417) <= 5e-4
        assert second[0] == "250" and second[3] == "83|83|84"
        assert abs(float(second[4]) - 6.9320) <= 5e-4

    def test_single_cell_grid(self, runner):
        result = invoke(runner, "table", "--n-range", "1:1", "--p-list", "0.5")
        lines = result.output.splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[3] == "1"

    def test_high_defect_rate_never_pools(self, runner):
        # p = 0.75 puts q = 0.25 below the pooling cutoff of 1/2
        result = invoke(runner, "table", "--n-range", "1:30", "--p-list", "0.75")
        lines = result.output.splitlines()
        assert len(lines) == 31
        for n, line in enumerate(lines[1:], start=1):
            cell = line.split(",")[3]
            assert cell.split("|") == ["1"] * n

    def test_low_defect_rate_pools(self, runner):
        # the flag is the defect rate: p = 0.25 leaves q = 0.75, where
        # pooling beats testing items one at a time
        result = invoke(
            runner, "table", "--n-range", "2:2", "--p-list", "0.25",
            "--method", "brute",
        )
        assert result.output.splitlines()[1].split(",")[3] == "2"

    def test_rows_sorted_by_p_then_n(self, runner):
        result = invoke(
            runner, "table", "--n-range", "2:4", "--p-list", "0.05,0.01",
            "--format", "json",
        )
        rows = json.loads(result.output)
        keys = [(row["p"], row["n"]) for row in rows]
        assert keys == sorted(keys)
        assert len(rows) == 6

    def test_json_rows_use_stable_keys(self, runner):
        result = invoke(
            runner, "table", "--n-range", "5:6", "--p-list", "0.1", "--format", "json"
        )
        for row in json.loads(result.output):
            assert set(row) == {
                "n", "p", "method", "partition", "expected_tests",
                "n_star", "n_star_tie",
            }

    def test_method_flag_applies_to_every_row(self, runner):
        result = invoke(
            runner, "table", "--n-range", "3:5", "--p-list", "0.2",
            "--method", "brute", "--format", "json",
        )
        assert all(row["method"] == "brute" for row in json.loads(result.output))


# ---------------------------------------------------------------------------
# csv output read back by a csv parser

# p = 0 has no constant optimum, 0.01 ties sizes 99 and 100, and the last
# value's 1 / p lies just off an integer
CSV_PROBABILITIES = ("0", "0.01", "1e-05", "3.704824756333552e-07")
# theorem needs q < 1, so it is the one method without p = 0
CSV_CASES = [
    (seed, method, p)
    for seed, (method, p) in enumerate(
        itertools.product(("dp", "sweep", "theorem", "brute"), CSV_PROBABILITIES)
    )
    if (method, p) != ("theorem", "0")
]


def csv_cells(row):
    """The six cells a csv row holds for one json row."""
    star = "" if row["n_star"] is None else str(row["n_star"])
    if row["n_star_tie"] is not None:
        star += f"|{row['n_star_tie']}"
    partition = "|".join(str(n) for n in row["partition"])
    return [str(row["n"]), repr(row["p"]), row["method"], partition,
            repr(row["expected_tests"]), star]


class TestCsvParses:
    def read_back(self, runner, *args):
        """The csv output as csv.reader reads it, and the cells its json output implies."""
        parsed = list(csv.reader(invoke(runner, *args, "--format", "csv").output.splitlines()))
        out = invoke(runner, *args, "--format", "json").output
        rows = json.loads(out)
        # a table writes its rows one by one; the bytes stay json.dumps's
        # (compared as lines, so that a failure reports the first that differs)
        expected = json.dumps(rows, indent=2) + "\n"
        assert out.splitlines(keepends=True) == expected.splitlines(keepends=True)
        rows = [rows] if args[0] == "solve" else rows
        return parsed, [CSV_HEADER.split(",")] + [csv_cells(row) for row in rows]

    @pytest.mark.parametrize("seed,method,p", CSV_CASES)
    def test_solve_csv_reads_back_the_json_cells(self, runner, seed, method, p):
        demand = random.Random(seed).randint(1, 50 if method == "brute" else 3000)
        parsed, expected = self.read_back(
            runner, "solve", "--n", str(demand), "--p", p, "--method", method
        )
        assert parsed == expected and len(parsed) == 2

    @pytest.mark.parametrize("seed,method,p", CSV_CASES)
    def test_table_csv_reads_back_the_json_cells(self, runner, seed, method, p):
        rng = random.Random(seed)
        start = rng.randint(1, 40 if method == "brute" else 2000)
        step = rng.randint(1, 5)
        demands = f"{start}:{start + 2 * step}:{step}"
        parsed, expected = self.read_back(
            runner, "table", "--n-range", demands, "--p-list", f"{p},0.3",
            "--method", method,
        )
        assert parsed == expected and len(parsed) == 7


# ---------------------------------------------------------------------------
# exit-code contract


class TestExitCodes:
    @pytest.mark.parametrize(
        "args",
        [
            ("solve", "--n", "5", "--p", "1.5"),
            ("solve", "--n", "5", "--p", "-0.1"),
            ("solve", "--n", "5", "--p", "1"),
            ("solve", "--p", "0.1"),
            ("solve", "--n", "5", "--p", "0.1", "--method", "magic"),
            ("simulate", "--p", "0.1"),
            ("simulate", "--n", "3", "--sizes", "1,2", "--p", "0.1"),
            ("simulate", "--sizes", "1,x", "--p", "0.1"),
            ("table", "--n-range", "5:1", "--p-list", "0.1"),
            ("table", "--n-range", "1:5:0", "--p-list", "0.1"),
            ("table", "--n-range", "abc", "--p-list", "0.1"),
            ("table", "--n-range", "1:2:3:4", "--p-list", "0.1"),
            ("table", "--n-range", "1:5", "--p-list", ""),
            ("table", "--n-range", "1:5", "--p-list", "0.5,oops"),
            ("table", "--n-range", "1:5", "--p-list", "1.2"),
        ],
    )
    def test_usage_errors_exit_2(self, runner, args):
        assert invoke(runner, *args).exit_code == 2

    def test_non_integer_range_bound_exits_2(self, runner):
        result = invoke(runner, "table", "--n-range", "1:x", "--p-list", "0.1")
        assert result.exit_code == 2
        assert "range bounds must be integers" in result.stderr

    @pytest.mark.parametrize(
        "args,needle",
        [
            (("solve", "--n", "0", "--p", "0.1"), "at least 1"),
            (("simulate", "--sizes", "80000", "--p", "0.01"), "double precision"),
            (("solve", "--n", "5", "--p", "0", "--method", "theorem"), "(0, 1)"),
            (("solve", "--n", "51", "--p", "0.1", "--method", "brute"), "cap"),
            (("simulate", "--sizes", "3", "--p", "0.1", "--reps", "0"), "at least 1"),
            (("simulate", "--sizes", "2,600", "--p", "0.7"), "double precision"),
            # a table writes rows as it solves them, so brute's cap is checked
            # before the first; p = 0 sorts first, so theorem fails on row one
            (("table", "--n-range", "1:60", "--p-list", "0.1", "--method", "brute"), "cap"),
            (("table", "--n-range", "1:3", "--p-list", "0,0.1", "--method", "theorem"), "(0, 1)"),
            # dp checks the smallest demand before it builds the table for the largest
            *((("table", "--n-range", "0:5", "--p-list", "0.1", "--method", m), "at least 1")
              for m in ("dp", "sweep")),
        ],
    )
    def test_domain_errors_exit_3_with_reason(self, runner, args, needle):
        result = invoke(runner, *args)
        assert result.exit_code == 3
        assert needle in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "args",
        [
            *(("solve", "--n", "99999999999999999999", "--p", "0.1", "--method", m)
              for m in ("dp", "sweep", "theorem", "brute")),
            ("solve", "--n", "9223372036854775808", "--p", "0.1"),
            ("table", "--n-range", "99999999999999999999:99999999999999999999", "--p-list", "0.1"),
            ("table", "--n-range", "99999999999999999999:99999999999999999999",
             "--p-list", "0.1", "--method", "sweep"),
        ],
    )
    def test_demand_past_sys_maxsize_exits_3_before_any_table(self, runner, monkeypatch, args):
        # the default dp would otherwise grow a list of N + 1 floats until
        # memory ran out; failing the table build keeps that from happening
        def no_table(q, n_max):
            raise AssertionError(f"q**-n table of {n_max + 1} entries requested")

        monkeypatch.setattr(solvers, "_inverse_power_table", no_table)
        result = invoke(runner, *args)
        assert result.exit_code == 3
        assert result.stderr == (
            f"error: demand {args[2].split(':')[0]} exceeds {sys.maxsize}: "
            "its design could need more batches than can be held\n"
        )

    @pytest.mark.parametrize("method", ("theorem", "dp", "sweep"))
    @pytest.mark.parametrize(
        "n_range,largest",
        [
            ("1:99999999999999999999", "99999999999999999999"),
            ("1:9223372036854775808", "9223372036854775808"),
            ("5:99999999999999999999:7", "99999999999999999996"),
        ],
    )
    def test_range_past_sys_maxsize_exits_3_before_any_row(
        self, runner, monkeypatch, method, n_range, largest
    ):
        # the largest demand is checked first: solving from the start of
        # such a range would never reach it
        def no_solve(*args):
            raise AssertionError("a row was solved")

        monkeypatch.setattr(solvers, "build_dp_table", no_solve)
        monkeypatch.setitem(cli.SOLVERS, method, no_solve)
        result = invoke(runner, "table", "--n-range", n_range, "--p-list", "0.1", "--method", method)
        assert result.exit_code == 3
        assert result.stderr == (
            f"error: demand {largest} exceeds {sys.maxsize}: "
            "its design could need more batches than can be held\n"
        )

    @pytest.mark.parametrize(
        "args",
        [
            ("solve", "--n", "10", "--p", "0.1"),
            ("simulate", "--sizes", "2", "--p", "0.1", "--reps", "10", "--seed", "0"),
            ("table", "--n-range", "1:3", "--p-list", "0.1"),
            ("table", "--n-range", "500:700:100", "--p-list", "0.7"),
        ],
    )
    def test_success_exits_0(self, runner, args):
        assert invoke(runner, *args).exit_code == 0

    @pytest.mark.parametrize("command", (None, "solve", "simulate", "table"))
    def test_help_available(self, runner, command):
        args = ["--help"] if command is None else [command, "--help"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert "Usage" in result.output

"""The CLI's stdout on a fixed corpus of requests, byte for byte.

tests/golden/cli.json holds one entry per request: its argv, its exit
code and its exact stdout.  The corpus covers solve (every method and
format over a grid of demands and defect rates), table grids, simulate
requests with small replication counts, usage errors and --help.  It is
the behaviour contract for refactors: a change that alters any entry
changes what users see, and has to say so.  Each entry runs in-process
with a fixed terminal width, so --help does not depend on the terminal.
Every full-precision cost the corpus holds is also checked against the
exact sum of its batch costs, rounded once.
"""

import csv
import json
import math
from pathlib import Path

import pytest
from click.testing import CliRunner

from pooldesign import batch_waiting_time
from pooldesign.cli import main

CORPUS = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())


def output_format(argv):
    if "--format" in argv:
        return argv[argv.index("--format") + 1]
    return "csv" if argv[0] == "table" else "text"


# solve and table entries that print expected_tests at full precision
COSTED = [
    entry
    for entry in CORPUS
    if entry["argv"][0] in ("solve", "table")
    and entry["exit_code"] == 0
    and "--help" not in entry["argv"]
    and output_format(entry["argv"]) in ("json", "csv")
]


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.mark.parametrize("entry", CORPUS, ids=lambda entry: " ".join(entry["argv"]))
def test_stdout_matches_golden(runner, entry):
    result = runner.invoke(main, entry["argv"], terminal_width=80)
    if not isinstance(result.exception, (SystemExit, type(None))):
        raise result.exception
    assert result.exit_code == entry["exit_code"]
    # compared as a flag: pytest's own diff of long outputs takes minutes
    same = result.stdout == entry["stdout"]
    assert same, first_difference(entry["stdout"], result.stdout)


@pytest.mark.parametrize("entry", COSTED, ids=lambda entry: " ".join(entry["argv"]))
def test_reported_cost_is_the_exact_sum_rounded_once(entry):
    if output_format(entry["argv"]) == "json":
        rows = json.loads(entry["stdout"])
        rows = rows if isinstance(rows, list) else [rows]
    else:
        rows = list(csv.DictReader(entry["stdout"].splitlines()))
        for row in rows:
            row["p"] = float(row["p"])
            row["partition"] = [int(n) for n in row["partition"].split("|")]
            row["expected_tests"] = float(row["expected_tests"])
    assert rows
    for row in rows:
        q = 1.0 - row["p"]
        exact = math.fsum(batch_waiting_time(n, q) for n in row["partition"])
        assert row["expected_tests"] == exact, row["partition"]


def first_difference(expected: str, got: str) -> str:
    expected_lines = expected.splitlines(keepends=True)
    got_lines = got.splitlines(keepends=True)
    for number, (want, have) in enumerate(zip(expected_lines, got_lines), start=1):
        if want != have:
            return f"line {number}: expected {want[:200]!r}, got {have[:200]!r}"
    return f"expected {len(expected_lines)} lines, got {len(got_lines)}"

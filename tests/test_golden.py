"""The CLI's stdout on a fixed corpus of requests, byte for byte.

tests/golden/cli.json holds one entry per request: its argv, its exit
code and its exact stdout.  The corpus covers solve (every method and
format over a grid of demands and defect rates), table grids, simulate
requests with small replication counts, usage errors and --help.  It is
the behaviour contract for refactors: a change that alters any entry
changes what users see, and has to say so.  Each entry runs in-process
with a fixed terminal width, so --help does not depend on the terminal.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from pooldesign.cli import main

CORPUS = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())


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


def first_difference(expected: str, got: str) -> str:
    expected_lines = expected.splitlines(keepends=True)
    got_lines = got.splitlines(keepends=True)
    for number, (want, have) in enumerate(zip(expected_lines, got_lines), start=1):
        if want != have:
            return f"line {number}: expected {want[:200]!r}, got {have[:200]!r}"
    return f"expected {len(expected_lines)} lines, got {len(got_lines)}"

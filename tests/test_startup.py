"""Which paths load numpy, checked in fresh interpreters.

Only the simulator computes with arrays, so only `simulate` imports
numpy.  Importing the package, starting the CLI, help, flag and domain
errors, and `solve` and `table` with every solver run without it.
pytest has already imported numpy, so every case runs in its own
`python -m pooldesign` process and reports `sys.modules` at exit.

The memory test also runs fresh processes, to read each one's peak
resident memory from `os.wait4`: a table's must follow one row, not
the whole table, for theorem and for dp.  The last test closes a long
table's stdout part-way, as `| head -c 100` does.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import pooldesign
from pooldesign.cli import main

SRC = str(Path(pooldesign.__file__).resolve().parents[1])

# Runs `python -m pooldesign ARGS...`, then writes whether numpy was
# loaded as the last line of stderr, whatever the exit status.
PROBE = """\
import runpy, sys
try:
    runpy.run_module("pooldesign", run_name="__main__", alter_sys=True)
finally:
    sys.stderr.write(f"\\nnumpy loaded: {'numpy' in sys.modules}\\n")
"""

# Modules a process or thread pool would load; an import of either costs
# start-up time (concurrent.futures pulls in logging).
POOL_MODULES = ("concurrent.futures", "multiprocessing")


def run_fresh(*args):
    """Exit code, stdout, stderr and whether numpy was loaded."""
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    stderr, _, verdict = done.stderr.rstrip("\n").rpartition("\n")
    assert verdict in ("numpy loaded: True", "numpy loaded: False"), done.stderr
    return done.returncode, done.stdout, stderr, verdict == "numpy loaded: True"


@pytest.mark.parametrize("module", ("pooldesign", "pooldesign.cli"))
def test_import_skips_numpy(module):
    code = (
        f"import sys, {module}\n"
        "print('numpy' in sys.modules)\n"
        "print(' '.join(m for m in sys.modules if m.startswith('pooldesign.')))\n"
        f"print([m for m in {POOL_MODULES!r} if m in sys.modules])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.returncode == 0, done.stderr
    loaded, modules, pools = done.stdout.splitlines()
    assert loaded == "False"
    # the numpy import moved, never a module: the CLI still loads them all
    assert {"pooldesign.core", "pooldesign.solvers", "pooldesign.sim"} <= set(modules.split())
    # the simulator's worker threads add no import to start-up
    assert pools == "[]"


def test_simulate_loads_no_pool_module():
    # the simulator runs its workers on plain threads, in every process
    args = ["simulate", "--n", "250", "--p", "0.01", "--reps", "100000", "--format", "json"]
    code = (
        "import sys\n"
        "from pooldesign.cli import main\n"
        f"main({args!r}, standalone_mode=False)\n"
        f"print([m for m in {POOL_MODULES!r} if m in sys.modules], 'numpy' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[] True"


@pytest.mark.parametrize(
    "args,code",
    [
        (("--help",), 0),
        (("solve", "--help"), 0),
        *[
            (("solve", "--n", "250", "--p", "0.01", "--method", "theorem", "--format", fmt), 0)
            for fmt in ("text", "json", "csv")
        ],
        *[
            (("solve", "--n", "20", "--p", "0.1", "--method", "brute", "--format", fmt), 0)
            for fmt in ("text", "json", "csv")
        ],
        (("table", "--n-range", "1:300:7", "--p-list", "0.01,0.5", "--method", "theorem"), 0),
        (("solve", "--n", "5", "--p", "1.5"), 2),
        (("simulate", "--p", "0.1"), 2),
        # domain errors are raised before any array is built, dp included
        (("solve", "--n", "0", "--p", "0.1"), 3),
        (("solve", "--n", "51", "--p", "0.1", "--method", "brute"), 3),
        (("simulate", "--sizes", "80000", "--p", "0.01"), 3),
        # sweep prices the few batch counts that can win in plain Python
        *[
            (("solve", "--n", "1000", "--p", "0.05", "--method", "sweep", "--format", fmt), 0)
            for fmt in ("text", "json", "csv")
        ],
        (("table", "--n-range", "1:300:7", "--p-list", "0.01,0.5", "--method", "sweep"), 0),
        # dp searches a band of batch sizes in plain Python; it is the default
        (("solve", "--n", "250", "--p", "0.01"), 0),
        *[
            (("solve", "--n", "250", "--p", "0.01", "--method", "dp", "--format", fmt), 0)
            for fmt in ("text", "json", "csv")
        ],
        (("table", "--n-range", "10:300:10", "--p-list", "0.01,0.3", "--method", "dp"), 0),
        (("table", "--n-range", "1:300:7", "--p-list", "0.01,0.5"), 0),
    ],
)
def test_paths_without_arrays_skip_numpy(args, code):
    returncode, _, stderr, numpy_loaded = run_fresh(*args)
    assert returncode == code, stderr
    assert not numpy_loaded


@pytest.mark.parametrize(
    "args",
    [
        ("simulate", "--sizes", "83,83,84", "--p", "0.01", "--reps", "1000", "--seed", "3"),
        ("simulate", "--n", "20", "--p", "0.1", "--method", "theorem", "--reps", "500",
         "--format", "json"),
    ],
)
def test_array_paths_load_numpy_and_match_in_process_output(args):
    returncode, stdout, stderr, numpy_loaded = run_fresh(*args)
    assert returncode == 0, stderr
    assert numpy_loaded
    result = CliRunner().invoke(main, list(args))
    assert result.exit_code == 0
    assert stdout == result.stdout


# Runs `python -m pooldesign ARGS...` with stdout discarded, then prints its
# exit code and peak RSS in kB.  A child's peak counts the memory its spawner
# held when it spawned it, so the child is spawned from this small fresh
# interpreter, never from pytest.
PEAK_RSS = """\
import os, subprocess, sys
child = subprocess.Popen([sys.executable, "-m", "pooldesign", *sys.argv[1:]],
                         stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
child.returncode = os.waitstatus_to_exitcode(status)
print(child.returncode, usage.ru_maxrss)
"""


def peak_rss_kb(*args):
    done = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, *args], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    code, kb = map(int, done.stdout.split())
    assert code == 0, (args, done.stderr)
    return kb


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux only")
@pytest.mark.parametrize("method", ("theorem", "dp"))
def test_table_memory_follows_one_row(method):
    # 20,000 rows make 8 MB of csv; a table written row by row peaks where
    # one small solve does, not at a multiple of its output.  dp adds one
    # table's O(N) lists and walks each row from it as the row is written
    baseline = peak_rss_kb("solve", "--n", "250", "--p", "0.01")
    table = peak_rss_kb("table", "--n-range", "1:20000", "--p-list", "0.01", "--method", method)
    assert table - baseline <= 4 * 1024, (table, baseline)


def test_broken_pipe_exits_1_with_an_empty_stderr():
    # click handles the EPIPE of a reader that stops early: the table ends
    # with exit code 1 and no traceback, as the README documents
    table = subprocess.Popen(
        [sys.executable, "-m", "pooldesign", "table", "--n-range", "1:200000",
         "--p-list", "0.01", "--method", "theorem"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    head = table.stdout.read(100)
    table.stdout.close()
    _, stderr = table.communicate(timeout=120)
    assert len(head) == 100
    assert (table.returncode, stderr) == (1, b"")

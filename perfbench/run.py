"""Benchmark for pooldesign: closed-loop CLI requests, cold and warm.

    python3 perfbench/run.py --workload solve-cli --seed 1 --seconds 50 --trace 0

Run from anywhere; the program is taken from ``src/`` beside this
directory.  One client sends one request at a time.  Each request is run
twice: as a fresh ``python -m pooldesign`` process (cold) and through the
click entry point of a long-lived worker interpreter (warm).  Both
outputs must be byte-identical and pass the oracle.  Between requests,
fresh interpreters time ``import pooldesign.cli`` (set-up).  The run
attempts whole rounds of its workload for about --seconds.

--trace 0 prints the end-to-end metrics; --trace 1 replays the same
requests in a traced worker and prints per-layer metrics instead.  The
last stdout line is the JSON result; raw samples and spans are written
under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import selectors
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
PROCESS_TIMEOUT_S = 60.0
SETUP_SAMPLES = 16  # set-up samples spread over a run
IMPORT_SAMPLES = 5  # -X importtime samples in a traced run
IMPORT_CLI = "import pooldesign.cli"


@dataclass
class Completed:
    code: int
    out: bytes
    err: bytes
    seconds: float
    max_rss_kb: int


def run_process(argv: list[str], env: dict) -> Completed:
    """Run argv to exit, draining stdout and stderr; time it and take its rusage."""
    start = perf_counter()
    proc = subprocess.Popen(
        argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=env, cwd=ROOT,
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    drained = False
    try:
        with selectors.DefaultSelector() as selector:
            for stream in chunks:
                selector.register(stream, selectors.EVENT_READ)
            while selector.get_map():
                if perf_counter() - start > PROCESS_TIMEOUT_S:
                    raise oracle.OutputError(f"{argv[1:4]} ran past {PROCESS_TIMEOUT_S} s")
                for key, _ in selector.select(timeout=1.0):
                    data = os.read(key.fd, 1 << 20)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        selector.unregister(key.fileobj)
        drained = True
    finally:
        if not drained:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return Completed(
        proc.returncode, b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]),
        seconds, usage.ru_maxrss,
    )


class Worker:
    """The warm interpreter: perfbench/warm.py behind a pair of pipes."""

    def __init__(self, env: dict, trace: bool) -> None:
        argv = [sys.executable, str(HERE / "warm.py")] + (["--trace"] if trace else [])
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT,
        )
        hello = json.loads(self.proc.stdout.readline() or b"{}")
        if not hello.get("ready"):
            self.close()
            raise oracle.OutputError("warm worker failed to start")
        self.absent = hello["absent"]

    def request(self, argv: tuple[str, ...]) -> tuple[dict, bytes, bytes]:
        self.proc.stdin.write((json.dumps({"argv": list(argv)}) + "\n").encode())
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], PROCESS_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            raise oracle.OutputError(f"warm worker died on {argv[:3]}")
        header = json.loads(line)
        return header, self.proc.stdout.read(header["out"]), self.proc.stdout.read(header["err"])

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> Worker:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def speed_reference() -> dict:
    """Time a fixed pure-Python loop and a fixed numpy loop, in ms."""
    start = perf_counter()
    total = 0
    for i in range(200_000):
        total += i & 7
    python_ms = (perf_counter() - start) * 1e3
    values = np.linspace(0.0, 1.0, 100_000)
    start = perf_counter()
    for _ in range(100):
        values = np.sqrt(values * values + 1.0) - 1.0
    numpy_ms = (perf_counter() - start) * 1e3
    return {"python_ms": round(python_ms, 3), "numpy_ms": round(numpy_ms, 3)}


@dataclass
class Tally:
    """What a run attempted and measured."""

    attempted: int = 0
    failed: int = 0
    designs: int = 0
    draws: int = 0
    cold_s: list = field(default_factory=list)
    warm_s: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    max_rss_kb: int = 0
    speed: dict = field(default_factory=dict)
    traces: list = field(default_factory=list)


def settle(op: workloads.Op, code: int, out: bytes, err: bytes, tally: Tally) -> None:
    """Check one request's outcome against the oracle and count it."""
    tally.attempted += 1
    if code == 0:
        tally.designs += oracle.check_output(op.spec, out)
        if op.spec["kind"] == "simulate":
            tally.draws += len(op.spec["sizes"]) * op.spec["reps"]
    elif op.known_fault and code == 3 and err.startswith(b"error: "):
        tally.failed += 1
    else:
        raise oracle.OutputError(f"{' '.join(op.argv)[:80]} exited {code}: {err[-300:]!r}")


def each_request(workload: str, seed: int, seconds: float, tally: Tally, setup=None):
    """Yield the workload's requests in whole rounds for about --seconds.

    A further round starts only while at least half of it would fit, so
    a run ends within half a round of the requested length.  Between
    requests it calls setup() as often as set-up samples are due and
    takes the mid-run speed reference.
    """
    begin = perf_counter()
    taken = 0
    for ops in workloads.rounds(workload, seed):
        round_start = perf_counter()
        for op in ops:
            yield op
            now = perf_counter()
            due = 1 + int((now - begin) / seconds * SETUP_SAMPLES)
            while setup is not None and taken < due:
                setup()
                taken += 1
            if "middle" not in tally.speed and now - begin >= seconds / 2:
                tally.speed["middle"] = speed_reference()
        now = perf_counter()
        if now - begin + (now - round_start) / 2 >= seconds:
            return


def measure(args, env: dict, tally: Tally) -> None:
    """Untraced run: every request cold and warm, set-up sampled between."""
    python = sys.executable

    def setup_sample() -> None:
        done = run_process([python, "-c", IMPORT_CLI], env)
        if done.code != 0:
            raise oracle.OutputError(f"import pooldesign.cli failed: {done.err[-300:]!r}")
        tally.setup_s.append(done.seconds)

    run_process([python, "-c", IMPORT_CLI], env)  # warms the file cache
    with Worker(env, trace=False) as worker:
        for op in each_request(args.workload, args.seed, args.seconds, tally, setup_sample):
            cold = run_process([python, "-m", "pooldesign", *op.argv], env)
            header, out, err = worker.request(op.argv)
            if (cold.code, cold.out) != (header["code"], out):
                raise oracle.OutputError(f"cold and warm outputs differ for {op.argv[:3]}")
            settle(op, cold.code, cold.out, cold.err, tally)
            tally.cold_s.append(cold.seconds)
            tally.warm_s.append(header["seconds"])
            tally.max_rss_kb = max(tally.max_rss_kb, cold.max_rss_kb)


def import_profile(env: dict) -> dict[str, float]:
    """Median start-up and import costs of fresh interpreters (-X importtime)."""
    samples: dict[str, list[float]] = {
        "cli.import.interpreter_s": [], "cli.import.numpy_s": [],
        "cli.import.click_s": [], "cli.import.pooldesign_s": [],
    }
    for _ in range(IMPORT_SAMPLES):
        samples["cli.import.interpreter_s"].append(
            run_process([sys.executable, "-c", "pass"], env).seconds
        )
        done = run_process([sys.executable, "-X", "importtime", "-c", IMPORT_CLI], env)
        cumulative: dict[str, int] = {}
        own = 0
        for line in done.err.decode().splitlines():
            cells = line.removeprefix("import time:").split("|")
            if len(cells) != 3 or not cells[0].strip().isdigit():
                continue
            name = cells[2].strip()
            cumulative.setdefault(name, int(cells[1]))
            if name == "pooldesign" or name.startswith("pooldesign."):
                own += int(cells[0])
        samples["cli.import.numpy_s"].append(cumulative.get("numpy", 0) * 1e-6)
        samples["cli.import.click_s"].append(cumulative.get("click", 0) * 1e-6)
        samples["cli.import.pooldesign_s"].append(own * 1e-6)
    return {name: statistics.median(values) for name, values in samples.items()}


def measure_traced(args, env: dict, tally: Tally) -> tuple[dict, list[str]]:
    """Traced run: the same requests in one traced warm interpreter."""
    imports = import_profile(env)
    with Worker(env, trace=True) as worker:
        for op in each_request(args.workload, args.seed, args.seconds, tally):
            header, out, err = worker.request(op.argv)
            settle(op, header["code"], out, err, tally)
            tally.warm_s.append(header["seconds"])
            tally.traces.append(header["trace"])
    return imports, worker.absent


def end_to_end(tally: Tally) -> dict:
    return {
        "setup_s": (statistics.median(tally.setup_s), "s"),
        "req_p50_s": (statistics.median(tally.cold_s), "s"),
        "warm_p50_s": (statistics.median(tally.warm_s), "s"),
        "designs_per_s": (tally.designs / sum(tally.cold_s), "1/s"),
        "peak_rss_mb": (tally.max_rss_kb / 1024, "MB"),
    }


def per_layer(imports: dict, tally: Tally) -> dict:
    units = {name: "s" for name in imports}
    units.update({name: "s" for name in tracing.SELF_TIMES})
    units.update({name: "s" for name in tracing.TOTAL_TIMES})
    units.update({name: "1" for name in tracing.COUNTS})
    units.update({"cli.out_bytes": "B", "cli.requests": "1", "sim.peak_traced_mb": "MB"})
    values = {**imports, **tracing.layer_metrics(tally.traces)}
    return {name: (values[name], unit) for name, unit in units.items()}


def write_raw(args, tally: Tally, metrics: dict, absent: list[str]) -> None:
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    raw = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "attempted": tally.attempted, "failed": tally.failed, "speed_reference": tally.speed,
        "cold_s": tally.cold_s, "warm_s": tally.warm_s, "setup_s": tally.setup_s,
        "metrics": metrics, "absent": absent,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(raw, indent=1) + "\n")
    if tally.traces:
        with open(RESULTS / f"trace-{stem}.jsonl", "w") as spans:
            for request, record in enumerate(tally.traces):
                for name, start, end, parent in record["spans"]:
                    spans.write(json.dumps(
                        {"request": request, "name": name, "start": start, "end": end, "parent": parent}
                    ) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUND_MAKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "pooldesign" / "cli.py").is_file():
        print(f"no pooldesign sources under {SRC}", file=sys.stderr)
        return 2
    # Installed packages ship bytecode, so compile the sources once and let
    # no request process write bytecode of its own.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    if run_process([sys.executable, "-m", "compileall", "-q", str(SRC)], env).code != 0:
        print(f"cannot compile {SRC}", file=sys.stderr)
        return 2
    tally = Tally()
    tally.speed["start"] = speed_reference()
    correct, absent, imports = True, [], {}
    try:
        if args.trace:
            imports, absent = measure_traced(args, env, tally)
        else:
            measure(args, env, tally)
    except oracle.OutputError as exc:
        print(f"wrong output: {exc}", file=sys.stderr)
        correct = False
    tally.speed["end"] = speed_reference()
    if not tally.warm_s:
        return 1
    chosen = per_layer(imports, tally) if args.trace else end_to_end(tally)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()}
    write_raw(args, tally, metrics, absent)
    print(f"workload {args.workload} seed {args.seed}: {tally.attempted} requests, "
          f"{tally.failed} known failures, {len(tally.setup_s)} set-up samples")
    print("speed reference: " + json.dumps(tally.speed))
    if args.trace:
        print(f"traced warm median: {statistics.median(tally.warm_s):.6f} s; absent stages: {absent}")
    else:
        if tally.draws:
            print(f"draws_per_s: {tally.draws / sum(tally.cold_s):.6g}")
        if len(tally.cold_s) >= 100:
            p90 = statistics.quantiles(tally.cold_s, n=10)[-1]
            print(f"req_p90_s: {p90:.6f} over {len(tally.cold_s)} cold requests")
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

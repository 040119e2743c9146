"""The benchmark's four request workloads, generated from a seed.

A workload is an endless sequence of rounds.  Round k of a workload has
the same make-up for every seed (the same request kinds, methods and
formats in the same numbers); the seed only draws the demands, defect
rates, designs and simulation seeds.  A run attempts whole rounds, so
the share of known-failing requests is the same in every run.

Each request is an Op: the argv after the program name, and a spec the
oracle checks the output against.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass

FORMATS = ("text", "json", "csv")
SOLVE_METHODS = ("dp", "sweep", "theorem", "brute")
CLI_P = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.3)
CLI_DEMAND_CAP = {"dp": 3000, "sweep": 50_000, "theorem": 100_000, "brute": 20}
CLI_ROUND = 20  # one known-failing request in every round of 20

# Requests that fail today: solvers._inverse_power_table tabulates q**-n
# for every n <= N and raises OverflowError once that overflows, although
# the optimal design is finite.  They exit with code 3 and count as failed;
# their inputs do not depend on the seed.
KNOWN_FAULTS = (
    ("dp", 0.5, 1024),
    ("sweep", 0.5, 3000),
    ("dp", 0.3, 1990),
    ("sweep", 0.3, 2500),
    ("sweep", 0.01, 100_000),
    ("dp", 0.5, 2048),
    ("sweep", 0.5, 1500),
    ("dp", 0.3, 3000),
)

# solve-large: theorem designs of batch sizes 1, 2, 3 and about 100 that
# cost about the same work per request.  Demands are 1 mod 6: at p = 0.3
# and 0.4 the constant-size optimum (3 and 2) then never divides the
# demand, so the solver always builds and costs two candidate designs of
# 1e5 batches, where at p = 0.5 and 0.01 it builds one of 2e5 and 1.5e5.
LARGE_CLASSES = ((0.5, 200_000), (0.4, 200_000), (0.3, 300_000), (0.01, 15_000_000))
LARGE_SPREAD = 0.1  # demands drawn from [base, base * (1 + spread)]

TABLE_P = (0.005, 0.01, 0.02, 0.05, 0.1, 0.2)
TABLE_STEP = 30
TABLE_ROWS_PER_P = 50  # demands up to about 1500

SIM_P = (0.005, 0.01, 0.02)
SIM_DRAWS = 25_000_000
WIDE_BATCHES = 250
TALL_BATCHES = (2, 3, 4)


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    spec: dict
    known_fault: bool = False


def overflow_free_limit(p: float) -> int:
    """Largest demand whose q**-N table stays finite in double precision."""
    return int(math.log(sys.float_info.max) / -math.log1p(-p)) - 1


def _log_uniform(rng: random.Random, high: int) -> int:
    return max(1, min(high, round(math.exp(rng.uniform(0.0, math.log(high))))))


def _solve(method: str, p: float, demand: int, fmt: str, known_fault: bool = False) -> Op:
    argv = ("solve", "--n", str(demand), "--p", repr(p), "--method", method, "--format", fmt)
    spec = {"kind": "solve", "n": demand, "p": p, "method": method, "format": fmt}
    return Op(argv, spec, known_fault)


def solve_cli_round(rng: random.Random, k: int) -> list[Op]:
    ops = []
    for i in range(CLI_ROUND - 1):
        method = SOLVE_METHODS[i % len(SOLVE_METHODS)]
        p = rng.choice(CLI_P)
        cap = min(CLI_DEMAND_CAP[method], overflow_free_limit(p))
        ops.append(_solve(method, p, _log_uniform(rng, cap), FORMATS[(i + k) % 3]))
    method, p, demand = KNOWN_FAULTS[k % len(KNOWN_FAULTS)]
    ops.append(_solve(method, p, demand, FORMATS[k % 3], known_fault=True))
    rng.shuffle(ops)
    return ops


def solve_large_round(rng: random.Random, k: int) -> list[Op]:
    ops = [
        _solve("theorem", p, base + 6 * rng.randrange(round(base * LARGE_SPREAD / 6)) + 1, fmt)
        for p, base in LARGE_CLASSES
        for fmt in FORMATS
    ]
    rng.shuffle(ops)
    return ops


def table_dp_round(rng: random.Random, k: int) -> list[Op]:
    start = rng.randint(1, TABLE_STEP)
    stop = start + TABLE_STEP * (TABLE_ROWS_PER_P - 1)
    p_list = sorted(rng.sample(TABLE_P, 3))
    fmt = ("csv", "json")[k % 2]
    argv = (
        "table", "--n-range", f"{start}:{stop}:{TABLE_STEP}",
        "--p-list", ",".join(map(repr, p_list)), "--method", "dp", "--format", fmt,
    )
    spec = {
        "kind": "table", "demands": list(range(start, stop + 1, TABLE_STEP)),
        "p_list": p_list, "method": "dp", "format": fmt,
    }
    return [Op(argv, spec)]


def _simulate(rng: random.Random, sizes: list[int], reps: int) -> Op:
    p = rng.choice(SIM_P)
    seed = rng.randrange(2**31)
    argv = (
        "simulate", "--sizes", ",".join(map(str, sizes)), "--p", repr(p),
        "--reps", str(reps), "--seed", str(seed), "--format", "json",
    )
    spec = {"kind": "simulate", "sizes": sizes, "p": p, "reps": reps, "seed": seed}
    return Op(argv, spec)


def simulate_wide_round(rng: random.Random, k: int) -> list[Op]:
    wide = [rng.randint(1, 150) for _ in range(WIDE_BATCHES)]
    batches = TALL_BATCHES[k % len(TALL_BATCHES)]
    tall = [rng.randint(20, 200) for _ in range(batches)]
    return [
        _simulate(rng, wide, SIM_DRAWS // WIDE_BATCHES),
        _simulate(rng, tall, SIM_DRAWS // batches),
    ]


ROUND_MAKERS = {
    "solve-cli": solve_cli_round,
    "solve-large": solve_large_round,
    "table-dp": table_dp_round,
    "simulate-wide": simulate_wide_round,
}


def rounds(workload: str, seed: int):
    """Yield the workload's rounds, each a list of Ops, forever."""
    make = ROUND_MAKERS[workload]
    rng = random.Random(f"{workload}/{seed}")
    k = 0
    while True:
        yield make(rng, k)
        k += 1

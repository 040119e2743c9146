"""Optimal batch designs for screening a stream until N good items are accepted.

Each batch of n items is cleared by one test with probability q**n and
retried until it passes, so a design that splits the demand N into batch
sizes n_1 + ... + n_I = N costs an expected q**-n_1 + ... + q**-n_I
tests.  The package finds cost-minimizing splits (dynamic program,
balanced-count sweep, closed-form rule, exhaustive search), analyzes the
constant-batch-size stream problem, and validates designs by seeded
Monte Carlo simulation.
"""

from .core import (
    VALUE_ATOL,
    VALUE_RTOL,
    ConstantSizeResult,
    Partition,
    as_partition,
    batch_pass_probability,
    batch_waiting_time,
    expected_waiting_time,
    mu,
    optimal_constant_size,
    per_item_cost,
    values_close,
)
from .sim import SimulationReport, simulate_design, simulate_stream_rate
from .solvers import (
    DesignSolution,
    balanced_partition,
    brute_force_solve,
    dp_solve,
    is_majorized_by,
    sweep_solve,
    theorem_solve,
)

__version__ = "0.1.0"

__all__ = [
    "VALUE_ATOL",
    "VALUE_RTOL",
    "ConstantSizeResult",
    "DesignSolution",
    "Partition",
    "SimulationReport",
    "as_partition",
    "balanced_partition",
    "batch_pass_probability",
    "batch_waiting_time",
    "brute_force_solve",
    "dp_solve",
    "expected_waiting_time",
    "is_majorized_by",
    "mu",
    "optimal_constant_size",
    "per_item_cost",
    "simulate_design",
    "simulate_stream_rate",
    "sweep_solve",
    "theorem_solve",
    "values_close",
]

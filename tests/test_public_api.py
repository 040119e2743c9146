"""The package's public names, pinned so that any change to them is deliberate."""

import pooldesign

PUBLIC = [
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


def test_all_lists_exactly_the_public_names_and_each_resolves():
    assert sorted(pooldesign.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(pooldesign, name), name

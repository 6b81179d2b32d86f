"""Execution analysis: convergence stats, sweeps, scenario specs, tables."""

from .metrics import (
    convergence_factors,
    honest_value_ranges,
    overall_factor,
)
from .parallel import (
    SWEEP_SCHEMA_VERSION,
    SweepCache,
    SweepReport,
    default_cache_dir,
    get_runner,
    grid_from_axes,
    point_seed,
    register_runner,
    run_grid,
    write_sweep_jsonl,
)
from .spec import (
    BASELINE_PROTOCOL,
    SPEC_RUNNER,
    SPEC_SWEEP_NAME,
    SPEC_VERSION,
    ScenarioSpec,
    SpecError,
    SpecVersionError,
    build_adversary,
    execute_spec_point,
    run_spec,
    spec_cache_key,
)
from .stats import Summary, aggregate, success_rate, summarize
from .sweep import spread_inputs, tree_spec_for
from .tables import format_table, print_table

__all__ = [
    "honest_value_ranges",
    "convergence_factors",
    "overall_factor",
    "spread_inputs",
    "tree_spec_for",
    "SweepCache",
    "SweepReport",
    "default_cache_dir",
    "get_runner",
    "grid_from_axes",
    "point_seed",
    "register_runner",
    "run_grid",
    "write_sweep_jsonl",
    "SWEEP_SCHEMA_VERSION",
    "SPEC_VERSION",
    "SPEC_SWEEP_NAME",
    "SPEC_RUNNER",
    "BASELINE_PROTOCOL",
    "ScenarioSpec",
    "SpecError",
    "SpecVersionError",
    "build_adversary",
    "execute_spec_point",
    "run_spec",
    "spec_cache_key",
    "format_table",
    "print_table",
    "Summary",
    "summarize",
    "aggregate",
    "success_rate",
]

"""Shared Hypothesis strategies for the whole test suite (shim).

The strategies were promoted to :mod:`repro.analysis.strategies` so the
flywheel engine (:mod:`repro.flywheel`) can draw the same scenario space
without importing test code; this module re-exports every public name so
historical ``from ..strategies import …`` test imports keep working.
"""

from __future__ import annotations

from repro.analysis.strategies import (  # noqa: F401
    BACKENDS,
    BATCH_SPEC_ADVERSARIES,
    REFERENCE_ONLY_SPEC_ADVERSARIES,
    SPEC_TREES,
    backends,
    batch_supported_adversaries,
    corruption_sets,
    draw_flywheel_spec,
    fault_plans,
    real_inputs,
    scenario_specs,
    small_trees,
    spec_stream,
    specs_digest,
    trees_with_vertex_choices,
)

"""Meta-tests for the promoted scenario generators.

The flywheel's exactly-once accounting rests on two properties of
:mod:`repro.analysis.strategies`: every generated point is a *valid*,
JSON-round-trippable ScenarioSpec inside the documented bounds, and the
stream is a pure function of its seed — identical across processes.
Both are pinned here, the second across a real process boundary.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.analysis.spec import ScenarioSpec
from repro.analysis.strategies import (
    FLYWHEEL_MAX_N,
    FLYWHEEL_MAX_T,
    REFERENCE_ONLY_SPEC_ADVERSARIES,
    spec_stream,
    specs_digest,
)

STREAM_SEED = 1234
STREAM_COUNT = 300


@pytest.fixture(scope="module")
def stream():
    return list(spec_stream(STREAM_SEED, STREAM_COUNT))


class TestPointValidity:
    def test_specs_construct_and_round_trip_through_json(self, stream):
        for spec in stream:
            # to_dict -> json -> from_dict must reproduce the spec
            # exactly (ScenarioSpec.__post_init__ re-validates on load).
            payload = json.loads(json.dumps(spec.to_dict()))
            assert ScenarioSpec.from_dict(payload) == spec

    def test_specs_stay_inside_the_flywheel_regime(self, stream):
        for spec in stream:
            assert 0 <= spec.t <= FLYWHEEL_MAX_T
            assert 3 * spec.t + 2 <= spec.n <= max(FLYWHEEL_MAX_N, 3 * spec.t + 2)
            assert spec.backend == "reference"
            assert 0 <= spec.seed < 2**31
            if spec.protocol == "real-aa":
                assert spec.tree is None
            else:
                assert spec.tree

    def test_corrupt_sets_respect_the_budget(self, stream):
        for spec in stream:
            assert len(spec.corrupt) <= spec.t
            assert all(0 <= pid < spec.n for pid in spec.corrupt)

    def test_stream_covers_the_interesting_axes(self, stream):
        """300 points must hit every protocol, both trace levels, and
        both the batch-replayable and reference-only adversary halves —
        a collapsed generator would silently gut the campaign's value."""
        protocols = {spec.protocol for spec in stream}
        assert protocols == {"real-aa", "path-aa", "tree-aa"}
        assert {spec.trace_level for spec in stream} == {"full", "aggregate"}
        kinds = {spec.adversary.split(":")[0] for spec in stream}
        assert kinds & {k.split(":")[0] for k in REFERENCE_ONLY_SPEC_ADVERSARIES}
        assert kinds & {"none", "silent", "crash", "chaos"}
        assert any(spec.record for spec in stream)
        assert any(not spec.record for spec in stream)


class TestDeterminism:
    def test_same_seed_same_stream(self, stream):
        again = list(spec_stream(STREAM_SEED, STREAM_COUNT))
        assert again == stream

    def test_prefix_stability(self, stream):
        """Point i is independent of how many points are drawn after it —
        the property that lets a resume re-generate only what it needs."""
        prefix = list(spec_stream(STREAM_SEED, 50))
        assert prefix == stream[:50]

    def test_different_seeds_differ(self, stream):
        assert list(spec_stream(STREAM_SEED + 1, STREAM_COUNT)) != stream

    def test_digest_matches_across_a_process_boundary(self):
        """The digest computed by a *fresh interpreter* must equal ours:
        no ambient state (hash randomization, import order, platform
        dict ordering) may leak into the stream."""
        local = specs_digest(spec_stream(STREAM_SEED, 64))
        script = (
            "from repro.analysis.strategies import spec_stream, specs_digest;"
            f"print(specs_digest(spec_stream({STREAM_SEED}, 64)))"
        )
        import os

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        remote = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        ).stdout.strip()
        assert remote == local

"""What the workload modules share: the run context and a pass's result."""

from __future__ import annotations

import os
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class RunContext:
    """What every workload gets: its seed, size, and scratch directory."""

    seed: int
    seconds: int
    #: Install the layer wrappers (a traced pass) or not.
    traced: bool
    run_dir: str
    started_at: float
    first_op_at: Optional[float] = None
    _dirs: int = 0

    def fresh_dir(self, label: str) -> str:
        """A new, empty directory under the run directory."""
        self._dirs += 1
        path = os.path.join(self.run_dir, f"{self._dirs:02d}-{label}")
        os.makedirs(path)
        return path

    def mark_first_op(self) -> None:
        """Called right before the first timed op (ends set-up)."""
        if self.first_op_at is None:
            self.first_op_at = time.monotonic()

    @property
    def setup_s(self) -> float:
        return (self.first_op_at or time.monotonic()) - self.started_at


@dataclass
class PassResult:
    """One pass over the op list."""

    elapsed_s: float
    attempted: int
    failed: int
    digest: str
    problems: List[str] = field(default_factory=list)
    latencies_ms: List[float] = field(default_factory=list)
    #: Per-layer values (traced passes only).
    layers: Dict[str, float] = field(default_factory=dict)
    #: Exact counts pinned for the default seed (traced passes only).
    counts: Dict[str, float] = field(default_factory=dict)
    #: Peak RSS of the process that did the work, in MB.
    peak_rss_mb: float = 0.0

    @property
    def throughput(self) -> float:
        return self.attempted / self.elapsed_s


def self_peak_rss_mb() -> float:
    """Peak RSS of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Exact counts of a traced pass that ``pinned.json`` holds.
PINNED_COUNTS = ("net.rounds", "net.messages", "net.payload_units")


def record_layers(result: PassResult, dump: Dict[str, Any]) -> None:
    """Fill a traced pass's per-layer values and pinned counts."""
    from metrics import layer_values

    result.layers = layer_values(dump)
    result.counts = {name: dump["counters"].get(name, 0) for name in PINNED_COUNTS}

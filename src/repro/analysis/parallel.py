"""Parallel sweep engine with deterministic result caching.

Every experiment in this repository is a grid of *independent* protocol
executions — the embarrassingly-parallel shape of the paper's own tables
(EXPERIMENTS.md T1–T10).  This module runs such grids through a process
pool and memoises finished grid points on disk, so that

* ``jobs=1`` is a plain in-process loop, bit-identical to the historical
  serial sweeps;
* ``jobs=N`` farms points out to ``N`` worker processes with chunking and
  *ordered* result collection (row ``i`` always corresponds to grid point
  ``i``, whatever order the workers finish in);
* re-running a sweep recomputes only the points missing from the cache,
  which is keyed by ``(sweep name, runner, params, seed, package
  version)`` — a version bump invalidates every cached row.

Grid points are *data*, not closures: a point is a JSON-serialisable
``params`` dict handed to a **registered runner** (a module-level function
``runner(params, seed) -> row``), which keeps every point picklable for
the pool and hashable for the cache.  The built-in runners are
``spec-point`` (:mod:`repro.analysis.spec`, one ScenarioSpec per point)
and ``realaa-point`` (:mod:`repro.analysis.sweep`).
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..jsonlog import read_log, replace_log, write_atomic

#: A point runner: ``(params, seed) -> row`` where both ``params`` and the
#: returned row are JSON-serialisable dicts.
PointRunner = Callable[[Dict[str, Any], int], Dict[str, Any]]

_RUNNERS: Dict[str, PointRunner] = {}


def register_runner(name: str) -> Callable[[PointRunner], PointRunner]:
    """Register a module-level function as a named point runner.

    The function must be importable in a fresh interpreter (worker
    processes resolve it by name), take ``(params, seed)``, and return a
    JSON-serialisable row dict.
    """

    def decorate(func: PointRunner) -> PointRunner:
        _RUNNERS[name] = func
        return func

    return decorate


def get_runner(name: str) -> PointRunner:
    """Resolve a runner by registry name or ``module:function`` path."""
    if name not in _RUNNERS:
        # The built-in runners are registered as a side effect of
        # importing their defining modules — make sure that happened
        # (worker processes import this module first).
        importlib.import_module("repro.analysis.spec")
        importlib.import_module("repro.analysis.sweep")
        importlib.import_module("repro.flywheel.engine")
    if name in _RUNNERS:
        return _RUNNERS[name]
    if ":" in name:
        module_name, _, func_name = name.partition(":")
        module = importlib.import_module(module_name)
        func = getattr(module, func_name, None)
        if callable(func):
            return func
    raise KeyError(f"unknown sweep runner {name!r}")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON used for seeds and cache keys."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def point_seed(sweep_name: str, params: Dict[str, Any], base_seed: int = 0) -> int:
    """The deterministic seed of one grid point.

    An explicit ``params["seed"]`` wins (sweeps that historically seeded
    by grid coordinate stay bit-identical); otherwise the seed is derived
    from a SHA-256 of ``(sweep name, params, base_seed)`` — stable across
    processes, runs, and machines.
    """
    if "seed" in params:
        return int(params["seed"])
    payload = canonical_json([sweep_name, params, base_seed]).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def grid_from_axes(**axes: Sequence[Any]) -> List[Dict[str, Any]]:
    """The cartesian product of named axes, in deterministic order."""
    keys = list(axes)
    return [
        dict(zip(keys, values))
        for values in itertools.product(*(axes[key] for key in keys))
    ]


def default_cache_dir() -> str:
    """``$REPRO_SWEEP_CACHE`` or ``~/.cache/repro-sweeps``."""
    env = os.environ.get("REPRO_SWEEP_CACHE")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-sweeps")


class SweepCache:
    """On-disk JSON memo of finished grid points.

    One file per point, named by the SHA-256 of the canonical key; the
    file stores both the key (for auditability — ``repro sweep`` users can
    inspect what produced a row) and the row itself.  Corrupt or
    unreadable entries are treated as misses.
    """

    def __init__(self, cache_dir: str) -> None:
        self.cache_dir = cache_dir
        os.makedirs(cache_dir, exist_ok=True)

    @staticmethod
    def key(
        sweep_name: str,
        runner: str,
        params: Dict[str, Any],
        seed: int,
        version: Optional[str] = None,
    ) -> Dict[str, Any]:
        if version is None:
            from .. import __version__ as version
        return {
            "sweep": sweep_name,
            "runner": runner,
            "params": params,
            "seed": seed,
            "version": version,
            # A point's backend travels inside its params, which keeps rows
            # of the two engines apart.  This field is a constant, kept so
            # that existing cache entries stay addressable.
            "backend": "reference",
        }

    def _path(self, key: Dict[str, Any]) -> str:
        digest = hashlib.sha256(canonical_json(key).encode()).hexdigest()
        return os.path.join(self.cache_dir, f"{digest}.json")

    def get(self, key: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        path = self._path(key)
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None
        row = entry.get("row")
        return row if isinstance(row, dict) else None

    def put(self, key: Dict[str, Any], row: Dict[str, Any]) -> None:
        # Atomic: concurrent sweeps never see partial files.
        write_atomic(
            self._path(key), json.dumps({"key": key, "row": row}, sort_keys=True)
        )

    def __len__(self) -> int:
        return sum(
            1 for name in os.listdir(self.cache_dir) if name.endswith(".json")
        )


#: Schema version of the sweep JSONL files written by
#: :func:`write_sweep_jsonl` (``sweep_header`` / ``point`` /
#: ``sweep_footer`` records).
SWEEP_SCHEMA_VERSION = 1


def write_sweep_jsonl(
    path: str,
    report: "SweepReport",
    *,
    runner: str,
    grid: Sequence[Dict[str, Any]],
    seeds: Sequence[int],
) -> int:
    """Persist a sweep's rows as machine-readable JSONL; returns the record
    count.

    One ``sweep_header`` record, one ``point`` record per grid point
    (params + derived seed + result row — the full provenance of a table
    row), and one ``sweep_footer`` with the engine summary.  Benchmarks
    write these next to their text tables (``benchmarks/results/*.jsonl``)
    so downstream analyses never re-parse rendered tables.
    """
    records: List[Dict[str, Any]] = [
        {
            "type": "sweep_header",
            "schema_version": SWEEP_SCHEMA_VERSION,
            "sweep": report.name,
            "runner": runner,
            "points": len(report.rows),
        }
    ]
    for index, (params, seed, row) in enumerate(zip(grid, seeds, report.rows)):
        records.append(
            {
                "type": "point",
                "index": index,
                "params": params,
                "seed": seed,
                "row": row,
            }
        )
    records.append(
        {
            "type": "sweep_footer",
            "points": len(report.rows),
            "cache_hits": report.cache_hits,
            "cache_misses": report.cache_misses,
            "jobs": report.jobs,
        }
    )
    replace_log(path, records)
    return len(records)


def read_sweep_points(path: str) -> List[Dict[str, Any]]:
    """The ``point`` records of a sweep JSONL file (under the
    :mod:`repro.jsonlog` contract) — what the scenario service's query
    layer and its crash recovery read back of :func:`write_sweep_jsonl`.
    """
    return [
        record for record in read_log(path) if record.get("type") == "point"
    ]


@dataclass
class SweepReport:
    """Rows plus provenance of one engine invocation."""

    name: str
    rows: List[Dict[str, Any]]
    cache_hits: int = 0
    cache_misses: int = 0
    jobs: int = 1
    elapsed_seconds: float = 0.0

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def summary(self) -> str:
        return (
            f"sweep {self.name!r}: {len(self.rows)} points, "
            f"{self.cache_hits} cached / {self.cache_misses} computed, "
            f"jobs={self.jobs}, {self.elapsed_seconds:.2f}s"
        )


def _execute_point(task: Tuple[str, Dict[str, Any], int]) -> Dict[str, Any]:
    """Worker entry point (top-level so it pickles under every start method)."""
    runner_name, params, seed = task
    return get_runner(runner_name)(params, seed)


def resolve_jobs(jobs: int) -> int:
    """The worker-process count *jobs* asks for: ``0`` means every core."""
    if jobs < 0:
        raise ValueError(f"jobs must be >= 1 (or 0 for cpu_count), got {jobs}")
    return jobs or os.cpu_count() or 1


def run_grid(
    name: str,
    runner: str,
    grid: Sequence[Dict[str, Any]],
    *,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    no_cache: bool = False,
    base_seed: int = 0,
    chunksize: Optional[int] = None,
    version: Optional[str] = None,
    jsonl_path: Optional[str] = None,
) -> SweepReport:
    """Run every grid point through *runner*, in parallel, with caching.

    Parameters
    ----------
    name:
        The sweep's cache namespace (and display name).
    runner:
        A runner name registered via :func:`register_runner` (or a
        ``module:function`` path).
    grid:
        JSON-serialisable ``params`` dicts, one per point.  Rows come back
        in grid order.
    jobs:
        ``1`` (default) executes in-process — the serial path, bit-identical
        to calling the runner in a loop.  ``N > 1`` uses a process pool of
        ``N`` workers.  ``0`` means ``os.cpu_count()``.
    cache_dir / no_cache:
        Where finished points are memoised (:func:`default_cache_dir` when
        ``None``); ``no_cache=True`` disables reads *and* writes.
    base_seed:
        Folded into every derived point seed (ignored for points carrying
        an explicit ``"seed"`` param).
    chunksize:
        Points handed to a worker per dispatch; defaults to
        ``max(1, n_points // (4 * jobs))``.
    version:
        Cache-key version; defaults to ``repro.__version__`` so releases
        invalidate stale rows.
    jsonl_path:
        When given, the finished sweep (params + seeds + rows) is also
        persisted as machine-readable JSONL at this path via
        :func:`write_sweep_jsonl` — the per-point record next to whatever
        table the caller renders.

    A point's execution engine is part of its params (a spec's
    ``backend`` field, or the ``realaa-point`` ``backend`` param), so rows
    computed by one engine are never served to the other.
    """
    jobs = resolve_jobs(jobs)
    started = time.perf_counter()
    grid = [dict(params) for params in grid]
    seeds = [point_seed(name, params, base_seed) for params in grid]

    cache: Optional[SweepCache] = None
    keys: List[Optional[Dict[str, Any]]] = [None] * len(grid)
    rows: List[Optional[Dict[str, Any]]] = [None] * len(grid)
    hits = 0
    if not no_cache:
        cache = SweepCache(cache_dir or default_cache_dir())
        for index, params in enumerate(grid):
            keys[index] = cache.key(name, runner, params, seeds[index], version)
            cached = cache.get(keys[index])
            if cached is not None:
                rows[index] = cached
                hits += 1

    missing = [index for index in range(len(grid)) if rows[index] is None]
    tasks = [(runner, grid[index], seeds[index]) for index in missing]
    if tasks:
        if jobs == 1 or len(tasks) == 1:
            computed = [_execute_point(task) for task in tasks]
        else:
            if chunksize is None:
                chunksize = max(1, len(tasks) // (4 * jobs))
            with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
                computed = list(
                    pool.map(_execute_point, tasks, chunksize=chunksize)
                )
        for index, row in zip(missing, computed):
            rows[index] = row
            if cache is not None and keys[index] is not None:
                cache.put(keys[index], row)

    report = SweepReport(
        name=name,
        rows=[row for row in rows if row is not None],
        cache_hits=hits,
        cache_misses=len(missing),
        jobs=jobs,
        elapsed_seconds=time.perf_counter() - started,
    )
    if jsonl_path is not None:
        write_sweep_jsonl(
            jsonl_path, report, runner=runner, grid=grid, seeds=seeds
        )
    return report

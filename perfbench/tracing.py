"""Spans and counters recorded around ``repro``'s layer boundaries.

The benchmark measures the program from outside: nothing under ``src/``
knows it is being traced.  :class:`Tracer` wraps a function so that each
call becomes a *frame* on a per-thread stack.  When the call returns,
its duration is charged to the caller's frame as child time, and its
self time (duration minus the time its children cover) is added to the
per-name totals.  Boundaries called a handful of times per op also keep
the span itself (name, start, end, parent, op id) in memory; hot
boundaries (hundreds of calls per op) keep totals only, so a traced run
of thousands of ops stays small.

:func:`instrument` installs the wrappers named in ``README.md``'s
layer table.  Nothing here runs on the untraced path: the untraced run
never imports this module.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: One finished span: (name, start_ns, end_ns, parent name, op id, self_ns).
Span = Tuple[str, int, int, Optional[str], Any, int]


class _ThreadState:
    """The stack, totals and spans of one thread (merged at the end)."""

    def __init__(self) -> None:
        self.stack: List[List[Any]] = []
        #: name -> [calls, total_ns, self_ns]
        self.stats: Dict[str, List[int]] = {}
        self.counters: Dict[str, float] = {}
        self.spans: List[Span] = []
        self.op: Any = None
        self.next_op = 0


class Tracer:
    """Records spans and counters in memory; read them out at the end."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    # -- recording -----------------------------------------------------

    def set_op(self, op: Any) -> None:
        """Tag this thread's later spans with *op* (an op id)."""
        self._state().op = op

    def enter(self, name: str) -> List[Any]:
        """Open a frame for *name*; pass it to :meth:`exit`."""
        frame = [name, 0, 0]
        self._state().stack.append(frame)
        frame[1] = self.clock()
        return frame

    def exit(self, frame: List[Any], record: bool = False) -> int:
        """Close *frame*; returns its duration in ns."""
        end = self.clock()
        state = self._state()
        stack = state.stack
        stack.pop()
        name, start, child = frame
        duration = end - start
        own = duration - child
        stats = state.stats.get(name)
        if stats is None:
            state.stats[name] = [1, duration, own]
        else:
            stats[0] += 1
            stats[1] += duration
            stats[2] += own
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        if record:
            state.spans.append(
                (name, start, end, parent[0] if parent else None, state.op, own)
            )
        return duration

    def add_span(self, name: str, start: int, end: int, op: Any = None) -> None:
        """Record a span measured elsewhere (e.g. a queue wait)."""
        state = self._state()
        duration = end - start
        stats = state.stats.setdefault(name, [0, 0, 0])
        stats[0] += 1
        stats[1] += duration
        stats[2] += duration
        state.spans.append((name, start, end, None, op, duration))

    def count(self, name: str, amount: float = 1) -> None:
        """Add *amount* to counter *name*."""
        counters = self._state().counters
        counters[name] = counters.get(name, 0) + amount

    def wrap(
        self,
        func: Callable[..., Any],
        name: Any,
        *,
        record: bool = False,
        new_op: bool = False,
        after: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        """*func* with every call timed as a frame.

        *name* is a span name, or a callable ``(args, kwargs) -> name``
        for boundaries whose layer depends on an argument.  *new_op*
        makes each call a new op (numbered from 0 per thread).  *after*
        sees each successful result (for counts read off the result).
        """
        naming = name if callable(name) else None

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if new_op:
                state = self._state()
                state.op = state.next_op
                state.next_op += 1
            frame = self.enter(naming(args, kwargs) if naming else name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.exit(frame, record)
            if after is not None:
                after(result)
            return result

        return wrapper

    def counted(self, func: Callable[..., Any], name: str) -> Callable[..., Any]:
        """*func* with calls counted but not timed (for the hottest leaves)."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counters = tracer._state().counters
            counters[name] = counters.get(name, 0) + 1
            return func(*args, **kwargs)

        return wrapper

    # -- reading out ---------------------------------------------------

    def stats(self) -> Dict[str, Tuple[int, int, int]]:
        """name -> (calls, total_ns, self_ns), over every thread."""
        merged: Dict[str, List[int]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total, own) in state.stats.items():
                entry = merged.setdefault(name, [0, 0, 0])
                entry[0] += calls
                entry[1] += total
                entry[2] += own
        return {name: tuple(entry) for name, entry in merged.items()}  # type: ignore[misc]

    def counters(self) -> Dict[str, float]:
        """Counter totals over every thread."""
        merged: Dict[str, float] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, value in state.counters.items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def spans(self) -> List[Span]:
        """Every recorded span, over every thread."""
        with self._lock:
            states = list(self._states)
        return [span for state in states for span in state.spans]

    def dump(self) -> Dict[str, Any]:
        """A JSON-ready snapshot (what a traced server writes at exit)."""
        return {
            "stats": {name: list(value) for name, value in self.stats().items()},
            "counters": self.counters(),
            "spans": [list(span) for span in self.spans()],
        }


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------


def _rebind(original: Any, wrapped: Any, attr: str, modules: Optional[Sequence[str]]) -> None:
    """Point every binding of *original* (or those in *modules*) at *wrapped*."""
    if modules is None:
        targets = [
            module
            for module_name, module in list(sys.modules.items())
            if module_name.startswith("repro") and module is not None
        ]
    else:
        targets = [importlib.import_module(name) for name in modules]
    for module in targets:
        if module.__dict__.get(attr) is original:
            setattr(module, attr, wrapped)


def patch_function(
    tracer: Tracer,
    module_name: str,
    attr: str,
    name: Any,
    *,
    modules: Optional[Sequence[str]] = None,
    counted: bool = False,
    **options: Any,
) -> None:
    """Wrap ``module_name.attr`` and rebind it where it was imported.

    *modules* limits the rebinding to those modules' globals (so a
    boundary can be measured "as called from" a given layer); ``None``
    rebinds every ``repro`` module that imported the function.
    """
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    if counted:
        wrapped = tracer.counted(original, name)
    else:
        wrapped = tracer.wrap(original, name, **options)
    _rebind(original, wrapped, attr, modules)


def patch_method(tracer: Tracer, cls: type, attr: str, name: Any, **options: Any) -> None:
    """Wrap a method, classmethod or function attribute of *cls*."""
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(raw.__func__, name, **options)))
    else:
        setattr(cls, attr, tracer.wrap(raw, name, **options))


def _oracle_side_name(args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> str:
    """``_run_side(spec, backend)``: reference is the execution oracle."""
    backend = args[1] if len(args) > 1 else kwargs.get("backend")
    return "flywheel.oracle.execution" if backend == "reference" else "flywheel.oracle.backend-parity"


def instrument(tracer: Tracer) -> None:
    """Install the wrappers of every in-process layer boundary.

    Modules are imported first, so that rebinding reaches every module
    that already holds a reference to a wrapped function.
    """
    for name in (
        "repro.net.network",
        "repro.net.runner",
        "repro.core.api",
        "repro.core.paths_finder",
        "repro.protocols.gradecast",
        "repro.protocols.realaa",
        "repro.engine.backend",
        "repro.engine.kernel",
        "repro.engine.dense",
        "repro.engine.metrics",
        "repro.baselines.iterative_tree",
        "repro.observability.collector",
        "repro.observability.events",
        "repro.analysis.parallel",
        "repro.analysis.spec",
        "repro.flywheel.oracles",
        "repro.flywheel.ledger",
        "repro.flywheel.engine",
    ):
        importlib.import_module(name)
    from repro.analysis.parallel import SweepCache
    from repro.analysis.spec import ScenarioSpec
    from repro.baselines.iterative_tree import IterativeTreeAAParty
    from repro.engine.backend import BatchSynchronousEngine
    from repro.engine.dense import DenseExecution
    from repro.engine.kernel import BatchExecution
    from repro.engine.metrics import BatchMetrics
    from repro.flywheel.ledger import LedgerWriter
    from repro.observability.collector import MetricsCollector
    from repro.protocols.gradecast import ParallelGradecast

    # net: executions and their exact accounting.
    def account(result: Any) -> None:
        trace = result.trace
        tracer.count("net.rounds", trace.rounds_executed)
        tracer.count("net.messages", trace.message_count)
        tracer.count("net.payload_units", trace.payload_unit_count)

    patch_function(tracer, "repro.net.runner", "run_protocol", "net.run_protocol", after=account)
    patch_function(
        tracer, "repro.net.network", "payload_units", "net.payload_units",
        modules=["repro.net.network"],
    )

    # protocols: the gradecast receive steps and the value check they run.
    for attr in ("receive_values", "receive_echoes", "receive_supports"):
        patch_method(tracer, ParallelGradecast, attr, "protocols.gradecast")
    patch_function(
        tracer, "repro.protocols.realaa", "is_real", "protocols.is_real.calls",
        modules=["repro.protocols.realaa", "repro.protocols"], counted=True,
    )

    # trees: spec tree construction and the Euler list.
    patch_method(tracer, ScenarioSpec, "build_tree", "trees.build")
    patch_function(
        tracer, "repro.trees.euler", "list_construction", "trees.euler",
        modules=["repro.core.paths_finder", "repro.engine.backend"],
    )

    # core: output evaluation (both engines call it).
    patch_function(
        tracer, "repro.core.api", "_evaluate_tree_outputs", "core.evaluate",
        modules=["repro.core.api", "repro.engine.backend"],
    )

    # engine: per-run work, the class kernel, the dense engine, metrics.
    for attr in ("run_real_aa", "run_path_aa", "run_tree_aa"):
        patch_method(tracer, BatchSynchronousEngine, attr, "engine.run")
    patch_method(tracer, BatchExecution, "run_realaa_phase", "engine.class_phase")
    patch_method(tracer, DenseExecution, "run_realaa_phase", "engine.dense_phase")
    for attr in ("emit", "finalize"):
        patch_method(tracer, BatchMetrics, attr, "engine.metrics")

    # baselines: the Nowak-Rybicki party run by the cross-protocol oracle.
    for attr in ("messages_for_round", "receive_round"):
        patch_method(tracer, IterativeTreeAAParty, attr, "baselines.cross_protocol")

    # observability: trace export and the round collector.
    patch_function(tracer, "repro.observability.events", "export_run", "observability.export")
    patch_method(tracer, MetricsCollector, "on_round", "observability.collector")

    # analysis: cache, spec codec, grid engine, sweep JSONL.
    def cache_lookup(row: Any) -> None:
        tracer.count("analysis.cache.hits" if row is not None else "analysis.cache.misses")

    patch_method(tracer, SweepCache, "get", "analysis.cache.get", after=cache_lookup)
    patch_method(tracer, SweepCache, "put", "analysis.cache.put")
    for attr in ("to_dict", "from_dict"):
        patch_method(tracer, ScenarioSpec, attr, "analysis.spec_codec")
    patch_function(tracer, "repro.analysis.parallel", "run_grid", "analysis.run_grid")
    for attr in ("write_sweep_jsonl", "read_sweep_points"):
        patch_function(tracer, "repro.analysis.parallel", attr, "analysis.sweep_jsonl")

    # flywheel: points, each oracle, the ledger.
    def point_done(row: Any) -> None:
        if not row.get("ok", False):
            tracer.count("flywheel.divergences")

    patch_function(
        tracer, "repro.flywheel.oracles", "evaluate_point", "flywheel.point",
        record=True, new_op=True, after=point_done,
    )
    patch_function(tracer, "repro.flywheel.oracles", "_run_side", _oracle_side_name)
    patch_function(tracer, "repro.flywheel.oracles", "_trace_records", "flywheel.oracle.metrics-parity")
    patch_function(tracer, "repro.flywheel.oracles", "_check_cross_protocol", "flywheel.oracle.cross-protocol")
    patch_function(tracer, "repro.flywheel.oracles", "_check_round_bound", "flywheel.oracle.round-bound")
    patch_method(tracer, LedgerWriter, "append", "flywheel.ledger.append")

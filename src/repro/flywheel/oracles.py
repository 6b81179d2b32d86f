"""Differential oracles: judge one point from every angle we have.

A point is one :class:`~repro.analysis.spec.ScenarioSpec` instance (a
flywheel or campaign point); :func:`evaluate_point` executes it and
applies the full oracle matrix (see docs/FLYWHEEL.md):

``execution``
    The reference run must keep the AA contract: any
    :mod:`repro.resilience.oracles` finding but ``round-bound`` diverges,
    and the detail names it.  (When the run *raises*, the batch engine
    must raise the identical error — that refusal parity is folded into
    ``backend-parity``.)
``backend-parity``
    The batch engine must reproduce the reference row *exactly* — same
    outputs, rounds, verdicts — for every spec whose protocol and
    adversary the batch engine supports.  This is the Nowak–Rybicki-style
    differential check (arXiv 1908.02743 is the cross-protocol
    comparator; the two engines are the cross-*implementation* pair).
``metrics-parity``
    For recorded points (``record=True``) the embedded JSONL traces must
    agree round-for-round, excluding only the wall clock.
``cross-protocol``
    ``tree-aa`` points (their protocol row's ``compared_with``) are
    re-run as ``tree-aa-baseline`` specs, the
    Nowak–Rybicki baseline (:class:`~repro.baselines.IterativeTreeAAParty`)
    on the same instance, and the baseline's run must pass the same
    invariant oracles.  (TreeAA's own contract is the ``execution``
    oracle's.)  A TreeAA failure the baseline survives is a protocol
    bug, not a model artefact.
``round-bound``
    The round count must respect the theory: at most the resilience
    :func:`~repro.resilience.scenario.round_budget`, and at least the
    :mod:`repro.lowerbound` Theorem-2 bound, which the journal version
    (arXiv 2502.05591) proves tight.

Each oracle returns ``ok`` / ``divergence`` / ``skipped`` — *skipped*
states are first-class data (the oracle matrix in the ledger shows
exactly what was and wasn't checked), never silently green.

``perturb`` is the self-test seam: a ``module:function`` path applied to
the batch row before comparison, so the oracle self-test (and the CI
smoke) can prove that an engine divergence actually turns red.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..analysis.spec import ScenarioSpec, SpecError, execute_spec_point
from ..core.api import TreeAAOutcome
from ..engine.errors import UnsupportedBackendError
from ..engine.spec import resolve_batch_spec
from ..resilience.oracles import Violation, evaluate
from ..resilience.scenario import ScenarioResult, run_scenario

#: Oracle names, in evaluation order.
FLYWHEEL_ORACLES = (
    "execution",
    "backend-parity",
    "metrics-parity",
    "cross-protocol",
    "round-bound",
)

#: One engine's run: ``("ok", row)`` or ``("error", type name, message)``.
Side = Tuple[Any, ...]

#: Row keys excluded from the backend comparison: ``spec``/``backend``
#: name the engine (they differ by construction) and ``trace_jsonl`` is
#: judged separately by the metrics-parity oracle (its rows embed wall
#: clocks).
_INCOMPARABLE_KEYS = frozenset({"spec", "backend", "trace_jsonl"})


def resolve_perturb(path: Optional[str]) -> Optional[Callable[[Dict[str, Any]], Dict[str, Any]]]:
    """Resolve a ``module:function`` perturbation seam (``None`` = none)."""
    if not path:
        return None
    module_name, _, func_name = path.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ValueError(f"perturb seam {path!r} cannot be imported: {exc}") from None
    func = getattr(module, func_name, None)
    if not callable(func):
        raise ValueError(f"perturb seam {path!r} is not callable")
    return func


def batch_replayable(spec: ScenarioSpec) -> bool:
    """Whether the batch engine supports this spec: its protocol row has
    a batch engine and its adversary declares a ``batch_spec()``.  Points
    that are not skip the differential oracles (and say so in the row)."""
    if not spec.entry.batch:
        return False
    try:
        resolve_batch_spec(spec.make_adversary())
    except UnsupportedBackendError:
        return False
    except ValueError:  # both engines refuse to build it alike
        return True
    return True


def _run_side(
    spec: ScenarioSpec, backend: str
) -> Tuple[Side, Optional[ScenarioResult]]:
    """One engine's run of ``spec``, plus the reference side's result.

    The reference side runs through the resilience executor
    (:func:`~repro.resilience.scenario.run_scenario`), so its single
    execution yields both the row the batch engine must reproduce and
    the :class:`~repro.resilience.scenario.ScenarioResult` the invariant
    oracles judge.  The batch side is only compared (``None``).
    """
    spec = replace(spec, backend=backend)
    try:
        if backend == "reference":
            result = run_scenario(spec)
            return ("ok", result.row), result
        return ("ok", execute_spec_point(spec)), None
    except SpecError:  # malformed data: the caller's bug, not an outcome
        raise
    except Exception as exc:  # noqa: BLE001 - the type is the verdict
        return ("error", type(exc).__name__, str(exc)), None


def _comparable(row: Dict[str, Any]) -> Dict[str, Any]:
    """The backend-independent projection of a result row."""
    return {k: v for k, v in row.items() if k not in _INCOMPARABLE_KEYS}


def _diff_description(left: Dict[str, Any], right: Dict[str, Any]) -> str:
    """A one-line digest of which row fields disagree."""
    fields = []
    for key in sorted(set(left) | set(right)):
        if left.get(key) != right.get(key):
            fields.append(f"{key}: {left.get(key)!r} != {right.get(key)!r}")
    return "; ".join(fields) or "rows differ"


def _strip_wall(record: Dict[str, Any]) -> Dict[str, Any]:
    """A trace record minus the fields that name (rather than measure) a run.

    ``wall_seconds`` is the one nondeterministic metric; an embedded
    ``params.spec.backend`` names the engine that wrote the trace, which
    differs between the two sides by construction.
    """
    record = {k: v for k, v in record.items() if k != "wall_seconds"}
    params = record.get("params")
    if isinstance(params, dict) and isinstance(params.get("spec"), dict):
        spec = dict(params["spec"])
        spec["backend"] = "*"
        record["params"] = {**params, "spec": spec}
    return record


def _trace_records(trace_jsonl: str) -> List[Dict[str, Any]]:
    """Parsed trace records, wall clocks stripped (bad lines kept as text)."""
    records: List[Dict[str, Any]] = []
    for line in trace_jsonl.splitlines():
        if not line.strip():
            continue
        try:
            parsed = json.loads(line)
        except ValueError:
            records.append({"unparsable": line})
            continue
        records.append(_strip_wall(parsed) if isinstance(parsed, dict) else {"raw": parsed})
    return records


def _oracle(status: str, detail: Optional[str] = None) -> Dict[str, Any]:
    """One oracle verdict cell (``detail`` only carried when present)."""
    cell: Dict[str, Any] = {"status": status}
    if detail:
        cell["detail"] = detail
    return cell


def _check_backend_parity(reference: Side, batch: Side) -> Dict[str, Any]:
    """The batch run reproduces the reference row, or raises its error."""
    if reference[0] == "error" or batch[0] == "error":
        if reference == batch:
            return _oracle("ok")
        return _oracle("divergence", f"reference={reference!r} batch={batch!r}")
    left, right = _comparable(reference[1]), _comparable(batch[1])
    if left == right:
        return _oracle("ok")
    return _oracle("divergence", _diff_description(left, right))


def _check_metrics_parity(
    reference_row: Dict[str, Any], batch_row: Dict[str, Any]
) -> Dict[str, Any]:
    """The two engines' embedded traces agree record for record."""
    ref_trace = _trace_records(reference_row.get("trace_jsonl", ""))
    bat_trace = _trace_records(batch_row.get("trace_jsonl", ""))
    if ref_trace == bat_trace:
        return _oracle("ok")
    return _oracle(
        "divergence",
        f"{len(ref_trace)} reference vs {len(bat_trace)} "
        "batch trace records (or contents differ)",
    )


def _judge(findings: List[Violation], prefix: str = "") -> Dict[str, Any]:
    """``ok``, or a divergence whose detail names every finding."""
    if not findings:
        return _oracle("ok")
    return _oracle(
        "divergence",
        "; ".join(f"{prefix}{v.oracle}: {v.detail}" for v in findings),
    )


def _check_cross_protocol(spec: ScenarioSpec, baseline: str) -> Dict[str, Any]:
    """Run the spec's ``compared_with`` *baseline* on the same instance; it must hold.

    The comparison is on the AA *contract*, not on outputs: the two
    protocols legitimately pick different vertices, but the baseline must
    satisfy the invariant oracles TreeAA's execution was judged by, on
    the identical (tree, inputs, t, adversary) instance.
    """
    # The baseline always runs unrecorded at full payload accounting,
    # whatever the point's own settings, so its network counts do not
    # depend on them.
    rerun = replace(
        spec, protocol=baseline, backend="reference", trace_level="full", record=False
    )
    try:
        result = run_scenario(rerun)
    except Exception as exc:  # noqa: BLE001 - a crashing baseline is the finding
        return _oracle(
            "divergence", f"baseline crashed: {type(exc).__name__}: {exc}"
        )
    return _judge(evaluate(result), prefix="baseline ")


def _check_round_bound(
    result: ScenarioResult, findings: List[Violation]
) -> Dict[str, Any]:
    """The run's ``round-bound`` findings, plus the Theorem-2 lower bound."""
    from ..lowerbound import theorem2_lower_bound
    from ..trees.paths import diameter

    spec, outcome = result.spec, result.outcome
    problems = [v for v in findings if v.oracle == "round-bound"]
    if not isinstance(outcome, TreeAAOutcome):
        lower = 1 if spec.assumed_t else 0
    else:
        bound = theorem2_lower_bound(
            float(diameter(outcome.tree)), spec.n, spec.assumed_t
        )
        # Theorem 2 binds worst-case executions of *any* protocol; the
        # tree protocols run fixed schedules, so a completed run beating
        # the bound would mean the reproduction contradicts the paper's Ω(·).
        lower = int(bound) if spec.assumed_t else 0
    rounds = result.row["rounds"]
    if rounds < lower:
        problems.append(
            Violation(
                "round-bound",
                f"ran {rounds} rounds, below the Theorem-2 lower "
                f"bound {lower}",
            )
        )
    return _judge(problems)


def evaluate_point(
    spec: ScenarioSpec, perturb: Optional[str] = None
) -> Dict[str, Any]:
    """Execute one point and judge it with every applicable oracle.

    Returns a JSON row: the spec, the reference outcome digest, one
    verdict cell per oracle, and ``ok`` (no oracle diverged).  The row is
    what the ``flywheel-point`` grid runner returns, so it must be (and
    is) a pure function of ``(spec, perturb)`` — cache-safe, replayable.
    """
    perturb_fn = resolve_perturb(perturb)
    oracles: Dict[str, Dict[str, Any]] = {}
    row: Dict[str, Any] = {"spec": spec.to_dict(), "oracles": oracles}
    if perturb is not None:
        row["perturb"] = perturb

    reference, result = _run_side(spec, "reference")
    if result is None:
        findings = [Violation("no-exception", f"{reference[1]}: {reference[2]}")]
    else:
        findings = evaluate(result)
        row["rounds"] = result.row["rounds"]
        row["verdicts"] = result.row["verdicts"]
    # round-bound findings are judged, with the lower bound, in their own cell.
    oracles["execution"] = _judge(
        [v for v in findings if v.oracle != "round-bound"]
    )

    if not batch_replayable(spec):
        oracles["backend-parity"] = _oracle("skipped")
        oracles["metrics-parity"] = _oracle("skipped")
    else:
        batch, _ = _run_side(spec, "batch")
        if batch[0] == "ok" and perturb_fn is not None:
            batch = ("ok", perturb_fn(dict(batch[1])))
        oracles["backend-parity"] = _check_backend_parity(reference, batch)
        if spec.record and reference[0] == batch[0] == "ok":
            oracles["metrics-parity"] = _check_metrics_parity(reference[1], batch[1])
        else:
            oracles["metrics-parity"] = _oracle("skipped")

    baseline = spec.entry.compared_with
    if baseline is None or result is None or spec.fault_plan is not None:
        oracles["cross-protocol"] = _oracle("skipped")
    else:
        oracles["cross-protocol"] = _check_cross_protocol(spec, baseline)

    if result is None:
        oracles["round-bound"] = _oracle("skipped")
    else:
        oracles["round-bound"] = _check_round_bound(result, findings)

    row["ok"] = all(cell["status"] != "divergence" for cell in oracles.values())
    return row


def diverging_oracles(row: Dict[str, Any]) -> Tuple[str, ...]:
    """The sorted oracle names a flywheel row diverged on (empty = green)."""
    return tuple(
        sorted(
            name
            for name, cell in row.get("oracles", {}).items()
            if cell.get("status") == "divergence"
        )
    )

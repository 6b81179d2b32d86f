"""Differential oracles: judge one flywheel point from every angle we have.

A flywheel point is one :class:`~repro.analysis.spec.ScenarioSpec`
instance; :func:`evaluate_point` executes it and applies the full oracle
matrix (see docs/FLYWHEEL.md):

``execution``
    The reference execution must not crash.  (When it *does* raise, the
    batch engine must raise the identical error — that refusal parity is
    folded into ``backend-parity``.)
``backend-parity``
    The batch engine must reproduce the reference row *exactly* — same
    outputs, rounds, verdicts — for every spec whose adversary the batch
    engine supports.  This is the Nowak–Rybicki-style differential check
    (arXiv 1908.02743 is the cross-protocol comparator; the two engines
    are the cross-*implementation* pair).
``metrics-parity``
    For recorded points (``record=True``) the embedded JSONL traces must
    agree round-for-round, excluding only the wall clock.
``cross-protocol``
    Tree points are re-run as ``tree-aa-baseline`` specs, the
    Nowak–Rybicki baseline (:class:`~repro.baselines.IterativeTreeAAParty`)
    on the same instance; both protocols must deliver validity and
    agreement.  A TreeAA failure the baseline survives (or vice versa) is
    a protocol bug, not a model artefact.
``round-bound``
    The round count must respect the theory: at most the empirical
    ``O(log |V| / log log |V|)`` budget (trees) or the RealAA duration
    formula (ℝ), and at least the :mod:`repro.lowerbound` bound, which
    the journal version (arXiv 2502.05591) proves tight.

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

from ..analysis.spec import BASELINE_PROTOCOL, ScenarioSpec, execute_spec_point

#: Oracle names, in evaluation order.
FLYWHEEL_ORACLES = (
    "execution",
    "backend-parity",
    "metrics-parity",
    "cross-protocol",
    "round-bound",
)

#: Adversary kinds only the reference engine accepts — their points skip
#: the differential oracles (and say so in the row).
REFERENCE_ONLY_ADVERSARIES = frozenset({"noise", "asym"})

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
    module = importlib.import_module(module_name)
    func = getattr(module, func_name, None)
    if not callable(func):
        raise ValueError(f"perturb seam {path!r} is not callable")
    return func


def batch_replayable(spec: ScenarioSpec) -> bool:
    """Whether the batch engine supports this spec's adversary."""
    return spec.adversary.split(":")[0] not in REFERENCE_ONLY_ADVERSARIES


def _run_side(spec: ScenarioSpec, backend: str) -> Tuple[str, Any]:
    """``("ok", row)`` or ``("error", type name, message)`` for one engine."""
    try:
        return ("ok", execute_spec_point(replace(spec, backend=backend)))
    except Exception as exc:  # noqa: BLE001 - the type is the verdict
        return ("error", type(exc).__name__, str(exc))


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


def _check_cross_protocol(spec: ScenarioSpec) -> Dict[str, Any]:
    """Run the Nowak–Rybicki baseline on the same instance; both must agree.

    The comparison is on the AA *contract*, not on outputs: the two
    protocols legitimately pick different vertices, but each must deliver
    termination, hull validity, and 1-agreement on the identical
    (tree, inputs, t, adversary) instance.
    """
    # The baseline always runs at full payload accounting, whatever the
    # point's own trace level, so its network counts do not depend on it.
    baseline = replace(
        spec,
        protocol=BASELINE_PROTOCOL,
        backend="reference",
        trace_level="full",
    )
    try:
        outcome = baseline.run()
    except Exception as exc:  # noqa: BLE001 - a crashing baseline is the finding
        return _oracle(
            "divergence", f"baseline crashed: {type(exc).__name__}: {exc}"
        )
    problems = []
    if not outcome.terminated or not outcome.honest_outputs:
        problems.append("baseline failed termination")
    else:
        if not outcome.valid:
            problems.append("baseline violated hull validity")
        if not outcome.agreement:
            problems.append("baseline violated 1-agreement")
    if problems:
        return _oracle("divergence", "; ".join(problems))
    return _oracle("ok")


def _check_round_bound(spec: ScenarioSpec, row: Dict[str, Any]) -> Dict[str, Any]:
    """Rounds within the theory: lower bound ≤ rounds ≤ upper budget."""
    from ..lowerbound import empirical_tree_round_bound, theorem2_lower_bound
    from ..protocols.rounds import realaa_duration
    from ..trees.paths import diameter

    rounds = int(row["rounds"])
    t_assumed = spec.t if spec.t_assumed is None else spec.t_assumed
    if spec.protocol == "real-aa":
        spread = spec.known_range if spec.known_range is not None else 8.0
        upper = realaa_duration(
            max(float(spread), spec.epsilon), spec.epsilon, spec.n, t_assumed
        )
        lower = 1 if t_assumed else 0
    else:
        tree = spec.build_tree()
        upper = empirical_tree_round_bound(tree.n_vertices)
        bound = theorem2_lower_bound(float(diameter(tree)), spec.n, t_assumed)
        # Theorem 2 binds worst-case executions of *any* protocol; TreeAA
        # runs a fixed schedule, so a completed run beating the bound
        # would mean the reproduction contradicts the paper's Ω(·).
        lower = int(bound) if t_assumed else 0
    if rounds > upper:
        return _oracle(
            "divergence", f"ran {rounds} rounds, upper budget {upper}"
        )
    if rounds < lower:
        return _oracle(
            "divergence",
            f"ran {rounds} rounds, below the Theorem-2 lower bound {lower}",
        )
    return _oracle("ok")


def evaluate_point(
    spec: ScenarioSpec, perturb: Optional[str] = None
) -> Dict[str, Any]:
    """Execute one flywheel point and judge it with every applicable oracle.

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

    reference = _run_side(spec, "reference")
    if reference[0] == "error":
        oracles["execution"] = _oracle(
            "divergence", f"{reference[1]}: {reference[2]}"
        )
    else:
        oracles["execution"] = _oracle("ok")
        row["rounds"] = reference[1]["rounds"]
        row["verdicts"] = reference[1]["verdicts"]

    if not batch_replayable(spec):
        oracles["backend-parity"] = _oracle("skipped")
        oracles["metrics-parity"] = _oracle("skipped")
    else:
        batch = _run_side(spec, "batch")
        if batch[0] == "ok" and perturb_fn is not None:
            batch = ("ok", perturb_fn(dict(batch[1])))
        if reference[0] == "error" or batch[0] == "error":
            if reference == batch:
                oracles["backend-parity"] = _oracle("ok")
            else:
                oracles["backend-parity"] = _oracle(
                    "divergence",
                    f"reference={reference!r} batch={batch!r}",
                )
            oracles["metrics-parity"] = _oracle("skipped")
        else:
            left, right = _comparable(reference[1]), _comparable(batch[1])
            if left == right:
                oracles["backend-parity"] = _oracle("ok")
            else:
                oracles["backend-parity"] = _oracle(
                    "divergence", _diff_description(left, right)
                )
            if not spec.record:
                oracles["metrics-parity"] = _oracle("skipped")
            else:
                ref_trace = _trace_records(reference[1].get("trace_jsonl", ""))
                bat_trace = _trace_records(batch[1].get("trace_jsonl", ""))
                if ref_trace == bat_trace:
                    oracles["metrics-parity"] = _oracle("ok")
                else:
                    oracles["metrics-parity"] = _oracle(
                        "divergence",
                        f"{len(ref_trace)} reference vs {len(bat_trace)} "
                        "batch trace records (or contents differ)",
                    )

    if spec.protocol != "tree-aa" or reference[0] == "error":
        oracles["cross-protocol"] = _oracle("skipped")
    elif spec.fault_plan is not None:
        oracles["cross-protocol"] = _oracle("skipped")
    else:
        oracles["cross-protocol"] = _check_cross_protocol(spec)

    if reference[0] == "error":
        oracles["round-bound"] = _oracle("skipped")
    else:
        oracles["round-bound"] = _check_round_bound(spec, reference[1])

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

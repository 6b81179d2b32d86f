"""Shared helpers for the backend conformance tests.

The heart of the suite is :func:`differential_check`: run the same
protocol call on the reference simulator and the batch engine and demand
*identical* observable behaviour — outputs, honest/corrupted partitions,
the full execution trace, AA verdicts, every party's diagnostics (value,
``BAD`` set, iteration history, …), and (for error paths) the exception
type and message.  Any divergence is rendered with both sides' summaries
so a failing case is diagnosable from the pytest output alone.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

#: ``pid -> party_diagnostics(party)`` for every party of one result.
Diagnostics = Dict[int, Dict[str, Any]]


def trace_summary(trace: Any) -> Tuple[Any, ...]:
    """Every counter the trace exposes, as a comparable tuple."""
    return (
        trace.rounds_executed,
        trace.honest_message_count,
        trace.byzantine_message_count,
        trace.honest_payload_units,
        trace.byzantine_payload_units,
        trace.faults_dropped,
        trace.faults_duplicated,
        trace.faults_corrupted,
        tuple(trace.per_round_messages),
        tuple(sorted(trace.corruption_rounds.items())),
    )


def metric_rows(collector: Any) -> list:
    """A collector's rows as dicts, minus the nondeterministic wall clock."""
    rows = []
    for row in collector.rounds:
        as_dict = dict(row.__dict__)
        as_dict.pop("wall_seconds")
        rows.append(as_dict)
    return rows


def outcome_summary(outcome: Any) -> Dict[str, Any]:
    """The full observable state of a protocol outcome, for equality."""
    summary: Dict[str, Any] = {
        "outputs": outcome.execution.outputs,
        "honest": outcome.execution.honest,
        "corrupted": outcome.execution.corrupted,
        "trace": trace_summary(outcome.execution.trace),
        "terminated": outcome.terminated,
        "valid": outcome.valid,
        "agreement": outcome.agreement,
        "rounds": outcome.rounds,
    }
    for field in ("output_spread", "measured_rounds", "output_diameter"):
        if hasattr(outcome, field):
            summary[field] = getattr(outcome, field)
    return summary


def realaa_diagnostics(party: Any) -> Tuple[Any, ...]:
    """A RealAA-style party's diagnostic surface, as a comparable tuple.

    ``history`` records become plain
    ``(iteration, accepted, newly_detected, trimmed_range, new_value)``
    tuples so the reference's ``IterationRecord`` and a batch view's
    compare by content.
    """
    return (
        party.value,
        party.bad,
        party.local_termination_iteration,
        [
            (
                record.iteration,
                record.accepted,
                record.newly_detected,
                record.trimmed_range,
                record.new_value,
            )
            for record in party.history
        ],
        party.output,
    )


def _never_ran(phase: Any) -> bool:
    """Whether a TreeAA sub-phase party still holds its initial state."""
    return (
        not phase.history
        and not phase.bad
        and phase.local_termination_iteration is None
        and phase.output is None
    )


def _phase_diagnostics(
    phase: Any, fields: Tuple[str, ...]
) -> Optional[Tuple[Any, ...]]:
    """One TreeAA sub-phase's diagnostics; ``None`` when it never ran.

    The reference builds a sub-phase party only when its first round is
    driven, while a batch view exposes a PathsFinder view for every party
    of a non-trivial tree, ran or not; a missing sub-party and an
    untouched one are the same observation.
    """
    if phase is None or _never_ran(phase):
        return None
    return realaa_diagnostics(phase) + tuple(
        getattr(phase, name) for name in fields
    )


def party_diagnostics(party: Any) -> Dict[str, Any]:
    """Every diagnostic attribute one party of the result exposes."""
    if hasattr(party, "paths_finder"):  # TreeAA: two RealAA sub-phases
        return {
            "output": party.output,
            "paths_finder": _phase_diagnostics(
                party.paths_finder, ("selected_vertex",)
            ),
            "projection_phase": _phase_diagnostics(
                party.projection_phase, ("path", "projection")
            ),
        }
    diagnostics: Dict[str, Any] = {"realaa": realaa_diagnostics(party)}
    for name in ("path", "input_vertex", "projection"):
        if hasattr(party, name):
            diagnostics[name] = getattr(party, name)
    return diagnostics


def run_one(
    call: Callable[..., Any], kwargs: Dict[str, Any], backend: str
) -> Tuple[Tuple[str, Any], Optional[Diagnostics]]:
    """The verdict and the per-party diagnostics (``None`` on error).

    The verdict is ``("ok", summary)`` or ``("error", type name,
    message)``.  Exceptions are part of the conformance contract: both
    backends must reject an illegal configuration with the *same* error.
    """
    try:
        outcome = call(**kwargs, backend=backend)
    except Exception as error:  # noqa: BLE001 - the type is the assertion
        return ("error", type(error).__name__, str(error)), None
    parties = outcome.execution.parties
    return ("ok", outcome_summary(outcome)), {
        pid: party_diagnostics(parties[pid]) for pid in sorted(parties)
    }


def differential_check(
    call: Callable[..., Any],
    observer_factory: Any = None,
    **kwargs: Any,
) -> Tuple[str, Any]:
    """Assert reference and batch behave identically; return the verdict.

    ``observer_factory`` (when given) builds one fresh observer *per
    backend* — a shared instance would accumulate both runs' rows — and
    the two collectors' metric rows are compared exactly, excluding only
    the wall-clock column.  Party diagnostics are compared party by party;
    a divergence names the first differing pid.
    """
    observers: Dict[str, Any] = {}

    def run(backend: str) -> Tuple[Tuple[str, Any], Optional[Diagnostics]]:
        run_kwargs = dict(kwargs)
        if observer_factory is not None:
            observers[backend] = run_kwargs["observer"] = observer_factory()
        return run_one(call, run_kwargs, backend)

    reference, reference_parties = run("reference")
    batch, batch_parties = run("batch")
    assert reference == batch, (
        f"backend divergence for {call.__name__}:\n"
        f"  reference: {reference!r}\n"
        f"  batch:     {batch!r}"
    )
    if reference_parties is not None and batch_parties is not None:
        assert sorted(reference_parties) == sorted(batch_parties)
        for pid, expected in reference_parties.items():
            got = batch_parties[pid]
            assert expected == got, (
                f"party {pid} diagnostics diverge for {call.__name__}:\n"
                f"  reference: {expected!r}\n"
                f"  batch:     {got!r}"
            )
    if observer_factory is not None:
        reference_rows = metric_rows(observers["reference"])
        batch_rows = metric_rows(observers["batch"])
        assert reference_rows == batch_rows, (
            f"metrics divergence for {call.__name__}:\n"
            f"  reference: {reference_rows!r}\n"
            f"  batch:     {batch_rows!r}"
        )
    return reference

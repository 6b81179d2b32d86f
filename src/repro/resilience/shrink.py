"""Counterexample shrinking: delta-debug a violating spec to a minimum.

Given a :class:`~repro.analysis.spec.ScenarioSpec` that trips at least
one oracle, :func:`shrink` first makes its derived inputs explicit, then
greedily applies size-reducing edits — fewer corrupted parties, fewer
parties overall, a smaller tree, a weaker fault plan, a shorter chaos
script — re-executing after each edit and keeping it only while the
failure *persists* (the candidate must still violate at least one oracle
the original violated).  Passes repeat to a fixpoint, ddmin-style: every
accepted edit strictly decreases :func:`cost`, so termination is
structural, with ``max_checks`` as a belt-and-braces budget on top.

Chaos specs get one extra trick: the first violating execution's
behaviour log is captured into an explicit replay script, after which
shrinking operates on the *script* — the spec stops depending on the
free-running RNG stream and becomes a line-by-line minimal reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Tuple

from ..analysis.spec import ADVERSARIES, ScenarioSpec
from ..trees import parse_tree_spec
from .oracles import check_violations, evaluate
from .scenario import execute_scenario

#: A failure predicate for :func:`shrink`: execute a spec however the
#: caller defines execution and return the *sorted* names of whatever it
#: violates (empty = healthy).  The default is :func:`check_violations`
#: (the resilience lab's invariant oracles); the flywheel plugs in its
#: differential oracles here, which is how backend-parity and
#: cross-protocol divergences ride the same ddmin passes as invariant
#: violations.
ViolationCheck = Callable[[ScenarioSpec], Tuple[str, ...]]


@dataclass
class ShrinkResult:
    """The outcome of one shrink run."""

    original: ScenarioSpec
    minimal: ScenarioSpec
    #: Oracle names the original spec violated.
    original_violations: Tuple[str, ...]
    #: Oracle names the minimal spec violates.
    minimal_violations: Tuple[str, ...]
    #: Accepted reductions.
    steps: int
    #: Spec executions spent (including rejected candidates).
    checks: int

    @property
    def reduced(self) -> bool:
        """Whether any reduction was accepted."""
        return self.steps > 0


class NotViolatingError(ValueError):
    """:func:`shrink` was handed a spec that violates nothing."""


def cost(spec: ScenarioSpec) -> int:
    """The shrinker's size metric: strictly decreases per reduction."""
    total = 100 * spec.n + 10 * len(spec.corrupt)
    if spec.entry.on_tree:
        total += _tree_spec_size(spec.tree or "")
    if spec.chaos_script is not None:
        total += len(spec.chaos_script)
    if spec.fault_plan is not None:
        plan = spec.fault_plan
        for key in ("drop", "duplicate", "corrupt"):
            if float(plan.get(key, 0.0)) > 0.0:
                total += 5
        last = plan.get("last_round")
        total += min(int(last), 50) if last is not None else 50
    return total


def _tree_spec_size(spec: str) -> int:
    """A monotone size estimate of a CLI tree spec (for :func:`cost`)."""
    digits = [int(part) for part in spec.replace("x", ":").split(":")[1:] if part.isdigit()]
    if not digits:
        return 10
    total = 1
    for value in digits:
        total *= max(1, value)
    return min(total, 10_000)


def explicit(spec: ScenarioSpec) -> ScenarioSpec:
    """The same execution with derived inputs and tolerance spelled out.

    Seed-derived inputs become an explicit vector and ``t_assumed`` an
    explicit number, so party and tree edits can truncate and remap them.
    """
    inputs = spec.make_inputs()
    if not spec.entry.on_tree:
        inputs = [float(v) for v in inputs]
    return replace(spec, inputs=tuple(inputs), t_assumed=spec.assumed_t)


def _with_corrupt(spec: ScenarioSpec, **changes: object) -> ScenarioSpec:
    """Apply ``changes``; the network budget stays ``max(t_assumed, |F|)``."""
    edited = replace(spec, **changes)
    return replace(edited, t=max(edited.assumed_t, len(edited.corrupt)))


def _corrupt_candidates(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    """Drop one corrupted id at a time (ddmin over the corrupted set)."""
    for victim in spec.corrupt:
        yield _with_corrupt(
            spec, corrupt=tuple(pid for pid in spec.corrupt if pid != victim)
        )


def _party_candidates(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    """Drop the highest-id party (inputs truncated, corrupt set filtered)."""
    n = spec.n - 1
    if n < 2:
        return
    yield _with_corrupt(
        spec,
        n=n,
        inputs=tuple((spec.inputs or ())[:n]),
        corrupt=tuple(pid for pid in spec.corrupt if pid < n),
        t_assumed=min(spec.assumed_t, max(0, (n - 1) // 3)),
    )


def _shrink_tree_spec(spec: str) -> Optional[str]:
    """A strictly smaller tree spec of the same family, or ``None``."""
    parts = spec.split(":")
    family = parts[0]
    if family in ("path", "star") and len(parts) >= 2:
        size = int(parts[1])
        if size > 2:
            return f"{family}:{max(2, size // 2)}"
        return None
    if family == "random" and len(parts) >= 2:
        size = int(parts[1])
        seed = parts[2] if len(parts) > 2 else "0"
        if size > 2:
            return f"random:{max(2, size // 2)}:{seed}"
        return None
    if family == "caterpillar" and len(parts) >= 2 and "x" in parts[1]:
        spine, legs = (int(x) for x in parts[1].split("x"))
        if legs > 1:
            return f"caterpillar:{spine}x{legs - 1}"
        if spine > 2:
            return f"caterpillar:{max(2, spine // 2)}x{legs}"
        return None
    return None


def _tree_candidates(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    """Shrink the tree spec; each input label is remapped by its vertex
    index, taken modulo the smaller tree's vertex count."""
    if not spec.entry.on_tree:
        return
    smaller = _shrink_tree_spec(spec.tree)
    if smaller is None:
        return
    old = {label: index for index, label in enumerate(spec.build_tree().vertices)}
    vertices = parse_tree_spec(smaller).vertices
    yield replace(
        spec,
        tree=smaller,
        inputs=tuple(vertices[old[label] % len(vertices)] for label in spec.inputs or ()),
    )


def _fault_plan_candidates(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    """Weaken the fault plan: drop it, zero a channel, shorten its window."""
    plan = spec.fault_plan
    if plan is None:
        return
    yield replace(spec, fault_plan=None)
    for key in ("drop", "duplicate", "corrupt"):
        if float(plan.get(key, 0.0)) > 0.0:
            weakened = dict(plan)
            weakened[key] = 0.0
            yield replace(spec, fault_plan=weakened)
    last = plan.get("last_round")
    if last is None:
        bounded = dict(plan)
        bounded["last_round"] = 8
        yield replace(spec, fault_plan=bounded)
    elif int(last) > 0:
        bounded = dict(plan)
        bounded["last_round"] = int(last) // 2
        yield replace(spec, fault_plan=bounded)


def _script_candidates(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    """ddmin over the chaos script: halves first, then single entries."""
    script = spec.chaos_script
    if not script:
        return
    half = len(script) // 2
    if half:
        yield replace(spec, chaos_script=script[:half])
        yield replace(spec, chaos_script=script[half:])
    for index in range(len(script)):
        yield replace(
            spec,
            chaos_script=script[:index] + script[index + 1 :],
        )


_PASSES = (
    _corrupt_candidates,
    _party_candidates,
    _tree_candidates,
    _fault_plan_candidates,
    _script_candidates,
)


def _capture_chaos_script(spec: ScenarioSpec) -> Optional[ScenarioSpec]:
    """Pin a free-running chaos adversary to its recorded behaviour log.

    Returns the scripted spec if the run violates anything, else ``None``
    (an adaptive failure the replay cannot capture).
    """
    if "chaos_script" not in ADVERSARIES[spec.adversary_kind].owns:
        return None
    if spec.chaos_script is not None:
        return None
    result = execute_scenario(spec)
    if not evaluate(result):
        return None
    return replace(
        spec,
        chaos_script=tuple(
            (int(r), int(p), str(b)) for r, p, b in result.chaos_log
        ),
    )


def shrink(
    spec: ScenarioSpec,
    max_checks: int = 400,
    check: ViolationCheck = check_violations,
) -> ShrinkResult:
    """Minimise a violating spec while preserving its failure.

    Raises :class:`NotViolatingError` if the input spec passes every
    oracle (there is nothing to shrink).  The preserved property is a
    non-empty intersection with the original's violated oracle set — the
    minimal spec fails *in the same way*, not merely somehow.  Edits run
    on :func:`explicit` form, so the minimal spec always carries explicit
    inputs and ``t_assumed``.

    ``check`` swaps the failure definition (see :data:`ViolationCheck`):
    anything that maps a spec to violation names can drive the same
    reduction passes.  The chaos-script capture trick stays specific to
    the default check — a custom oracle already defines its own notion of
    reproduction, and scripting under it could change what is being
    preserved.
    """
    checks = 0

    def violating(candidate: ScenarioSpec, against: Tuple[str, ...]) -> Optional[Tuple[str, ...]]:
        nonlocal checks
        checks += 1
        try:
            found = check(candidate)
        except Exception:  # noqa: BLE001 - a crashing candidate is a dead end
            return None
        if set(found) & set(against):
            return found
        return None

    original_violations = check(spec)
    checks += 1
    if not original_violations:
        raise NotViolatingError("spec violates no oracle; nothing to shrink")

    current = explicit(spec)
    current_violations = original_violations
    steps = 0

    scripted = (
        _capture_chaos_script(current) if check is check_violations else None
    )
    if scripted is not None:
        found = violating(scripted, original_violations)
        if found is not None:
            current, current_violations = scripted, found
            # Scripting adds entries, so it is not a "reduction" — but it
            # unlocks the script-truncation pass below.

    improved = True
    while improved and checks < max_checks:
        improved = False
        for make_candidates in _PASSES:
            for candidate in make_candidates(current):
                if checks >= max_checks:
                    break
                if cost(candidate) >= cost(current):
                    continue
                found = violating(candidate, original_violations)
                if found is not None:
                    current, current_violations = candidate, found
                    steps += 1
                    improved = True
                    break  # restart this pass from the smaller spec
            if improved:
                break  # restart the pass cascade from the top

    return ShrinkResult(
        original=spec,
        minimal=current,
        original_violations=original_violations,
        minimal_violations=current_violations,
        steps=steps,
        checks=checks,
    )


def shrink_report(result: ShrinkResult) -> str:
    """A human-readable before/after digest of one shrink run."""
    before, after = result.original, result.minimal
    lines = [
        f"shrunk in {result.steps} reductions ({result.checks} executions):",
        f"  parties: {before.n} -> {after.n}",
        f"  corrupted: {len(before.corrupt)} -> {len(after.corrupt)}",
    ]
    if before.tree is not None:
        lines.append(f"  tree: {before.tree} -> {after.tree}")
    if after.chaos_script is not None:
        lines.append(
            f"  chaos script: {len(after.chaos_script)} scripted actions"
        )
    if before.fault_plan is not None:
        lines.append(
            f"  fault plan: {before.fault_plan} -> {after.fault_plan}"
        )
    lines.append(
        f"  violations: {list(result.original_violations)} -> "
        f"{list(result.minimal_violations)}"
    )
    return "\n".join(lines)

"""Declarative adversary descriptions for the batch backend.

The reference simulator drives adversaries as objects that inspect and
rewrite per-message dicts.  The batch engine cannot afford per-message
Python objects, so each supported strategy instead *describes itself* as a
:class:`BatchAdversarySpec` via :meth:`repro.adversary.base.Adversary
.batch_spec` — a narrow, array-friendly contract.  The kinds in
:data:`CLASS_KINDS` share one crucial property: corrupted parties never
equivocate, so each party (honest or corrupted) either broadcasts its
faithful protocol message to a deterministic recipient set or stays
silent, which is what lets the kernel collapse parties into classes
(:mod:`repro.engine.kernel`).  Every spec also carries a ``fresh``
constructor; the dense engine (:mod:`repro.engine.dense`), which the
equivocating kinds (chaos, burn) and fault plans route to, replays the
instance it builds organically against puppet party objects.

This module is NumPy-free on purpose: adversary modules import it lazily
to build their specs, and must not drag the array stack into executions
that never use it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, FrozenSet, Optional

from .errors import UnsupportedBackendError

#: No adversary at all (also what :class:`~repro.adversary.base.NoAdversary`
#: reduces to): nothing is corrupted, every party is honest.
KIND_NONE = "none"
#: Corrupted parties never send anything (omission at round 0).
KIND_SILENT = "silent"
#: Corrupted parties follow the protocol to the letter.
KIND_PASSIVE = "passive"
#: Faithful until ``crash_round``; mid-send crash in that round (only
#: recipients with ids below ``partial_to`` still served); silent after.
KIND_CRASH = "crash"
#: Seeded per-round behaviour sampling (or a fixed script) per corrupted
#: party — :class:`~repro.adversary.chaos.ChaosAdversary` replayed
#: deterministically.  Dense-engine only: chaos payloads equivocate
#: (stale / junk / mirror), which breaks the class-collapse invariant.
KIND_CHAOS = "chaos"
#: The RealAA burn attack — equivocating value plants per iteration
#: (:class:`~repro.adversary.realaa_attacks.BurnScheduleAdversary`).
#: Dense-engine only, for the same reason as :data:`KIND_CHAOS`.
KIND_BURN = "burn"

_KINDS = (KIND_NONE, KIND_SILENT, KIND_PASSIVE, KIND_CRASH, KIND_CHAOS, KIND_BURN)

#: Kinds whose parties never equivocate — replayable by the class-collapse
#: kernel.  The remaining kinds route to the dense per-party engine.
CLASS_KINDS = frozenset((KIND_NONE, KIND_SILENT, KIND_PASSIVE, KIND_CRASH))


def _no_adversary() -> None:
    return None


@dataclass(frozen=True)
class BatchAdversarySpec:
    """Everything the batch kernel needs to replay a supported adversary.

    ``corrupted`` is the explicitly requested corrupt set, or ``None`` for
    the reference default (the last ``t`` ids, resolved once ``n`` and the
    network budget are known).  ``crash_round`` / ``partial_to`` only
    matter for :data:`KIND_CRASH` and mirror
    :class:`~repro.adversary.strategies.CrashAdversary` exactly.

    ``fresh`` builds a new instance of the strategy from its constructor
    arguments as they were when ``batch_spec()`` was called (``None``
    for :data:`KIND_NONE`).  The dense engine replays that instance —
    the strategy's RNG draws from the seed — instead of sharing the
    caller's (already consumed) instance state.
    """

    kind: str = KIND_NONE
    corrupted: Optional[FrozenSet[int]] = None
    crash_round: int = 0
    partial_to: int = 0
    fresh: Callable[[], Optional[Any]] = field(default=_no_adversary, compare=False, repr=False)

    def requested_corruptions(self, n: int, t: int) -> FrozenSet[int]:
        """The ids this spec corrupts among ``n`` parties under budget ``t``."""
        if self.kind == KIND_NONE:
            return frozenset()
        if self.corrupted is not None:
            return self.corrupted
        return frozenset(range(n - t, n))

    def __post_init__(self) -> None:
        """Reject kinds the kernel does not implement (a harness bug)."""
        if self.kind not in _KINDS:
            raise ValueError(f"unknown batch adversary kind {self.kind!r}")


def resolve_batch_spec(adversary: Optional[Any]) -> Optional[BatchAdversarySpec]:
    """The :class:`BatchAdversarySpec` of *adversary* (``None`` = fault-free).

    Raises :class:`~repro.engine.errors.UnsupportedBackendError` when the
    strategy declares no batch equivalent — the refusal contract of the
    backend: unsupported features fail loudly, never silently diverge.
    """
    if adversary is None:
        return None
    hook = getattr(adversary, "batch_spec", None)
    if hook is None:
        raise UnsupportedBackendError(
            f"{type(adversary).__name__} declares no batch_spec(); "
            "use backend='reference'"
        )
    spec = hook()
    if not isinstance(spec, BatchAdversarySpec):
        raise UnsupportedBackendError(
            f"{type(adversary).__name__}.batch_spec() returned "
            f"{type(spec).__name__}, expected BatchAdversarySpec"
        )
    return spec

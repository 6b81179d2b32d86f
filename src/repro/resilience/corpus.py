"""Regression corpus: minimal reproductions saved as JSON, replayed in CI.

Every spec the shrinker minimises (and every interesting hand-written
case) can be frozen as a :class:`ReproCase` file under ``tests/corpus/``.
A corpus case records the :class:`~repro.analysis.spec.ScenarioSpec`
*and* the violations it is expected to produce — including the empty
set, for regression cases that must stay clean.  The tier-1 test suite
replays every case and asserts the recorded verdict reproduces exactly,
so a behaviour change in any layer the spec touches (protocols, network,
adversaries, fault injection) surfaces as a corpus diff.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Tuple

from ..analysis.spec import ScenarioSpec
from ..jsonlog import write_atomic
from .oracles import check_violations

#: Corpus file schema version (bump on incompatible format changes).
#: Version 2 stores the execution as a ``spec``.
CORPUS_SCHEMA_VERSION = 2

#: Top-level corpus-file keys this reader interprets itself.  Everything
#: else is a forward-compatible *extra* (e.g. the flywheel's oracle
#: metadata) — preserved verbatim through a load/save round trip so an
#: older reader never strips what a newer writer recorded.
_KNOWN_KEYS = frozenset(
    {"schema_version", "name", "description", "spec", "expected_violations"}
)


class CorpusFormatError(ValueError):
    """A corpus file cannot be read as a case of this schema version."""


@dataclass(frozen=True)
class ReproCase:
    """One corpus entry: a spec plus its expected oracle verdict."""

    #: Unique, filename-friendly identifier.
    name: str
    #: Why this case exists (what regression it guards against).
    description: str
    spec: ScenarioSpec
    #: Sorted oracle names the replay must produce (empty = must be clean).
    expected_violations: Tuple[str, ...] = ()
    #: Unrecognised top-level keys of the on-disk file (forward compat):
    #: carried as data, ignored by replay, round-tripped by :meth:`to_dict`.
    extras: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The JSON form stored on disk (extras included, known keys win)."""
        payload: Dict[str, Any] = dict(self.extras)
        payload.update(
            {
                "schema_version": CORPUS_SCHEMA_VERSION,
                "name": self.name,
                "description": self.description,
                "spec": self.spec.to_dict(),
                "expected_violations": list(self.expected_violations),
            }
        )
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ReproCase":
        """Rebuild a case from its :meth:`to_dict` form.

        Forward-compatible: unknown top-level keys (a newer writer's
        metadata, e.g. ``"flywheel"``) land in :attr:`extras` instead of
        being dropped or rejected, so flywheel-filed cases replay on
        readers that predate the flywheel.  Any other ``schema_version``
        raises :class:`CorpusFormatError`.
        """
        version = payload.get("schema_version")
        if version != CORPUS_SCHEMA_VERSION:
            raise CorpusFormatError(
                f"schema_version {version!r} is not supported "
                f"(this reader understands version {CORPUS_SCHEMA_VERSION})"
            )
        return cls(
            name=str(payload["name"]),
            description=str(payload.get("description", "")),
            spec=ScenarioSpec.from_dict(payload["spec"]),
            expected_violations=tuple(
                sorted(payload.get("expected_violations", ()))
            ),
            extras={
                key: value
                for key, value in payload.items()
                if key not in _KNOWN_KEYS
            },
        )


def save_case(case: ReproCase, directory: str) -> str:
    """Write one case as ``<directory>/<name>.json``; returns the path."""
    path = os.path.join(directory, f"{case.name}.json")
    write_atomic(path, json.dumps(case.to_dict(), indent=2, sort_keys=True) + "\n")
    return path


def load_case(path: str) -> ReproCase:
    """Read one corpus file; a malformed one raises :class:`CorpusFormatError`
    naming the file."""
    with open(path) as handle:
        try:
            return ReproCase.from_dict(json.load(handle))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CorpusFormatError(f"{path}: {exc}") from None


def iter_corpus(directory: str) -> List[ReproCase]:
    """Every ``*.json`` case in a corpus directory, sorted by filename."""
    if not os.path.isdir(directory):
        return []
    cases: List[ReproCase] = []
    for filename in sorted(os.listdir(directory)):
        if filename.endswith(".json"):
            cases.append(load_case(os.path.join(directory, filename)))
    return cases


def verify(case: ReproCase) -> bool:
    """Whether the replayed verdict matches the recorded one exactly."""
    return check_violations(case.spec) == tuple(sorted(case.expected_violations))


def case_from_scenario(
    name: str,
    description: str,
    spec: ScenarioSpec,
) -> ReproCase:
    """Freeze a spec with its *current* verdict as the expectation."""
    return ReproCase(
        name=name,
        description=description,
        spec=spec,
        expected_violations=check_violations(spec),
    )


def verify_corpus(directory: str) -> List[str]:
    """Names of corpus cases whose replay no longer matches (empty = good)."""
    failures: List[str] = []
    for case in iter_corpus(directory):
        if not verify(case):
            failures.append(case.name)
    return failures

"""Output digests that ignore what a run cannot reproduce.

A digest is a SHA-256 over the canonical JSON of result rows, with
every field in ``repro.observability.NONDETERMINISTIC_FIELDS`` (the wall
clock) removed at any depth, including inside the JSONL traces that
recorded rows embed as text.  Anything else that changes, a verdict
or a round count, changes the digest.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable

from repro.observability import NONDETERMINISTIC_FIELDS


def _embedded_trace(text: str) -> Any:
    records = []
    for line in text.splitlines():
        if line.strip():
            records.append(strip_nondeterministic(json.loads(line)))
    return records


def strip_nondeterministic(value: Any) -> Any:
    """*value* with nondeterministic fields removed at every depth."""
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if key in NONDETERMINISTIC_FIELDS:
                continue
            if key == "trace_jsonl" and isinstance(item, str):
                out[key] = _embedded_trace(item)
            else:
                out[key] = strip_nondeterministic(item)
        return out
    if isinstance(value, (list, tuple)):
        return [strip_nondeterministic(item) for item in value]
    return value


def rows_digest(rows: Iterable[Any]) -> str:
    """The digest of *rows*, in order."""
    digest = hashlib.sha256()
    for row in rows:
        canonical = json.dumps(
            strip_nondeterministic(row), sort_keys=True, separators=(",", ":")
        )
        digest.update(canonical.encode())
        digest.update(b"\n")
    return digest.hexdigest()

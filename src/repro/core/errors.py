"""Exception types for the paper's protocol layer.

The final-output steps of Sections 4–7 rely on RealAA's *Validity*: the
rounded index ``closestInt(j)`` provably lands inside the path / Euler
list.  If it ever does not, the engine (or the harness wiring) is broken
and the execution must fail loudly.  These guards used to be ``assert``
statements, which ``python -O`` strips — turning a protocol-soundness bug
into a silent ``IndexError`` (or worse, a wrong output).  They are real
exceptions now and regression-tested under ``-O``
(``tests/core/test_validity_guards.py``).
"""

from __future__ import annotations


class ValidityViolationError(RuntimeError):
    """A final value fell outside the range RealAA validity guarantees.

    Reaching this means the underlying AA engine violated Validity (or was
    wired to the wrong public range) — a bug in the implementation or the
    experiment, never a legal Byzantine behaviour.
    """


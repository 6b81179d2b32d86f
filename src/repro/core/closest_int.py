"""``closestInt`` — rounding reals to path positions (Section 4).

The paper defines, for ``z ≤ j < z + 1`` with ``z ∈ ℤ``::

    closestInt(j) = z      if j − z < (z + 1) − j
    closestInt(j) = z + 1  otherwise

i.e. round-half-up.  Two remarks drive the correctness of every reduction
in the paper and are verified by unit and property tests:

* **Remark 1** — if ``j ∈ [i_min, i_max]`` with integer endpoints then
  ``closestInt(j) ∈ [i_min, i_max]`` (validity survives rounding);
* **Remark 2** — ``|j − j'| ≤ 1`` implies
  ``|closestInt(j) − closestInt(j')| ≤ 1`` (1-agreement survives rounding).
"""

from __future__ import annotations

import math

from .errors import ValidityViolationError


def closest_int(j: float) -> int:
    """The closest integer to *j*, rounding ``.5`` up (paper's definition)."""
    if not math.isfinite(j):
        raise ValueError(f"closestInt requires a finite real, got {j!r}")
    z = math.floor(j)
    if j - z < (z + 1) - j:
        return int(z)
    return int(z) + 1


def closest_index(value: float, length: int, what: str) -> int:
    """``closestInt(value)`` as an index into *what* (``length`` entries),
    which Remark 1 keeps in range whenever RealAA's Validity held."""
    index = closest_int(value)
    if not 0 <= index < length:
        raise ValidityViolationError(
            f"closestInt({value}) = {index} fell outside {what} "
            f"(length {length}) — RealAA validity was violated"
        )
    return index

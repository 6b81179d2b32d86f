"""The authenticated setting (t < n/2) — the paper's Section-7 note.

Simulated unforgeable signatures, Dolev–Strong broadcast, the exact-AA
engine it yields, and :class:`AuthTreeAAParty`: a
:class:`~repro.core.tree_aa.TreeAAParty` subclass that swaps in that
engine and the ``t < n/2`` check and changes nothing else —
demonstrating that the paper's reduction is independent of the
corruption threshold.
"""

from .adversary import DSEquivocatorAdversary, SignatureForgeryAdversary
from .dolev_strong import (
    BOTTOM,
    DolevStrongParty,
    ParallelDolevStrong,
)
from .exact_aa import (
    ExactRealAAParty,
    check_authenticated_resilience,
    exact_trimmed_mean,
)
from .signatures import Signature, SignatureAuthority, Signer
from .tree_aa import (
    AuthPathsFinderParty,
    AuthProjectionPhaseParty,
    AuthTreeAAParty,
    run_auth_tree_aa,
)

__all__ = [
    "Signature",
    "SignatureAuthority",
    "Signer",
    "BOTTOM",
    "ParallelDolevStrong",
    "DolevStrongParty",
    "ExactRealAAParty",
    "exact_trimmed_mean",
    "check_authenticated_resilience",
    "AuthPathsFinderParty",
    "AuthProjectionPhaseParty",
    "AuthTreeAAParty",
    "run_auth_tree_aa",
    "DSEquivocatorAdversary",
    "SignatureForgeryAdversary",
]

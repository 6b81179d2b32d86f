"""Campaign generator: seeded resilience scenarios as ScenarioSpecs.

A campaign is a deterministic function of its config: ``CampaignConfig``'s
seed drives a single :class:`random.Random` through scenario generation
(tree shape × adversary × corruption set × scheduler × fault plan), and
every generated :class:`~repro.analysis.spec.ScenarioSpec` carries its
own derived seed — so a campaign re-runs bit-identically, and any single
failing spec replays outside the campaign.

``repro campaign`` runs :func:`generate_scenarios` through the flywheel
engine (:func:`repro.flywheel.run_flywheel` with ``specs=``): the same
ledger, sweep cache, oracle matrix and shrink-and-file path as the
flywheel's own point stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.spec import ADVERSARIES, PROTOCOLS, SCHEDULERS, ScenarioSpec
from ..trees import parse_tree_spec

#: Protocols a campaign samples from: the protocol table's ``campaign``
#: rows (``path-aa`` needs inputs on the commonly known path, which the
#: generator does not draw).
CAMPAIGN_PROTOCOLS = tuple(name for name, entry in PROTOCOLS.items() if entry.campaign)

#: Adversary kinds a campaign samples for synchronous specs: the
#: ``campaign`` rows of the adversary table, in draw-menu order.
SYNC_ADVERSARIES = ("none", "passive", "silent", "noise", "crash", "chaos")

#: Tree families a campaign samples for tree specs: each family's tree
#: spec, sized by the campaign RNG.
TREE_FAMILIES: Dict[str, Callable[[random.Random], str]] = {
    "path": lambda rng: f"path:{rng.randint(3, 20)}",
    "star": lambda rng: f"star:{rng.randint(3, 12)}",
    "caterpillar": lambda rng: f"caterpillar:{rng.randint(2, 8)}x{rng.randint(1, 3)}",
    "random": lambda rng: f"random:{rng.randint(4, 20)}:{rng.randint(0, 999)}",
}


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that determines a campaign (and nothing else).

    With the defaults — legal tolerances, no fault plan — a campaign is a
    *regression* run: every scenario must satisfy every oracle.  Setting
    ``corruption_ratio`` past ``1/3`` or ``max_fault_probability`` past 0
    turns it into a *degradation* run, where violations are the data.
    """

    #: How many scenarios to generate.
    count: int = 200
    #: Master seed; every scenario's own seed derives from it.
    seed: int = 0
    #: Protocols to sample from.
    protocols: Tuple[str, ...] = CAMPAIGN_PROTOCOLS
    #: Adversary kinds to sample from (filtered per protocol).
    adversaries: Tuple[str, ...] = SYNC_ADVERSARIES
    #: Scheduler kinds for async scenarios.
    schedulers: Tuple[str, ...] = tuple(SCHEDULERS)
    #: Tree families for tree-aa scenarios.
    tree_families: Tuple[str, ...] = tuple(TREE_FAMILIES)
    #: Party counts are drawn from this inclusive range.
    min_n: int = 4
    max_n: int = 10
    #: ``None`` keeps every corrupted set legal (``|F| = t < n/3``);
    #: otherwise ``|F| = round(ratio · n)`` (the parties' assumed ``t``
    #: stays legal) — the knob that crosses the impossibility threshold.
    corruption_ratio: Optional[float] = None
    #: Upper bound for each sampled fault probability (0 = no fault plans).
    max_fault_probability: float = 0.0
    #: Required (and forwarded) when ``max_fault_probability > 0``.
    allow_model_violations: bool = False
    #: ε for real-valued scenarios.
    epsilon: float = 0.5
    #: Async step budget.
    max_steps: int = 20_000

    def __post_init__(self) -> None:
        """Reject configs that could not produce a single scenario."""
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.min_n < 2 or self.max_n < self.min_n:
            raise ValueError(
                f"need 2 <= min_n <= max_n, got {self.min_n}..{self.max_n}"
            )
        if not self.protocols:
            raise ValueError("at least one protocol required")
        for field, known in (
            ("protocols", list(CAMPAIGN_PROTOCOLS)),
            ("adversaries", [kind for kind, row in ADVERSARIES.items() if row.campaign]),
            ("schedulers", list(SCHEDULERS)),
            ("tree_families", list(TREE_FAMILIES)),
        ):
            unknown = sorted(set(getattr(self, field)) - set(known))
            if unknown:
                raise ValueError(
                    f"campaigns cannot sample {field} {unknown}; choose from {known}"
                )
        if self.max_fault_probability > 0 and not self.allow_model_violations:
            raise ValueError(
                "fault plans require allow_model_violations=True "
                "(they break the Byzantine model on purpose)"
            )


def _sample_adversary(
    rng: random.Random, kinds: Sequence[str], is_async: bool, n: int
) -> str:
    """An adversary spec string, with seeded parameters where relevant."""
    menu = [
        kind for kind in kinds if not is_async or ADVERSARIES[kind].build_async is not None
    ]
    if not menu:
        return "none"
    kind = rng.choice(menu)
    return ADVERSARIES[kind].spell(kind, rng, n)


def _sample_fault_plan(
    rng: random.Random, config: CampaignConfig
) -> Optional[Dict[str, Any]]:
    """A fault-plan dict within the config's probability cap, or ``None``."""
    cap = config.max_fault_probability
    if cap <= 0:
        return None
    plan = {
        "drop": round(rng.uniform(0, cap), 4),
        "duplicate": round(rng.uniform(0, cap), 4),
        "corrupt": round(rng.uniform(0, cap), 4),
        "seed": rng.randint(0, 9999),
        "allow_model_violations": True,
    }
    if all(plan[key] == 0.0 for key in ("drop", "duplicate", "corrupt")):
        return None
    return plan


def generate_scenarios(config: CampaignConfig) -> List[ScenarioSpec]:
    """The campaign's specs — a pure function of the config.

    The parties run at the drawn legal ``t`` (``t_assumed``); the
    network's budget ``t`` covers the actual corrupted set.  Tree inputs
    are drawn as vertex indices and resolved to labels modulo the tree.
    """
    rng = random.Random(config.seed)
    specs: List[ScenarioSpec] = []
    for index in range(config.count):
        protocol = rng.choice(list(config.protocols))
        is_async = PROTOCOLS[protocol].asynchronous
        n = rng.randint(config.min_n, config.max_n)
        legal_t = (n - 1) // 3
        t = rng.randint(0, legal_t) if legal_t else 0
        if config.corruption_ratio is None:
            n_corrupt = t
        else:
            n_corrupt = min(n - 1, round(config.corruption_ratio * n))
        corrupt = tuple(sorted(rng.sample(range(n), n_corrupt)))
        adversary = _sample_adversary(rng, config.adversaries, is_async, n)
        if not ADVERSARIES[adversary.split(":")[0]].corrupts:
            corrupt = ()
        tree: Optional[str] = None
        inputs: Tuple[Any, ...]
        if PROTOCOLS[protocol].on_tree:
            tree = TREE_FAMILIES[rng.choice(list(config.tree_families))](rng)
            vertices = parse_tree_spec(tree).vertices
            inputs = tuple(
                vertices[rng.randint(0, 10_000) % len(vertices)] for _ in range(n)
            )
        else:
            spread = rng.choice([1.0, 5.0, 20.0])
            inputs = tuple(
                round(rng.uniform(0, spread), 4) for _ in range(n)
            )
        async_fields: Dict[str, Any] = {}
        if is_async:
            async_fields = {
                "scheduler": _sample_scheduler(rng, config.schedulers, n),
                "max_steps": config.max_steps,
            }
        fault_plan = None if is_async else _sample_fault_plan(rng, config)
        specs.append(
            ScenarioSpec(
                protocol=protocol,
                n=n,
                t=max(t, len(corrupt)),
                t_assumed=t,
                tree=tree,
                inputs=inputs,
                adversary=adversary,
                corrupt=corrupt,
                epsilon=config.epsilon,
                fault_plan=fault_plan,
                seed=rng.randint(0, 2**31 - 1),
                **async_fields,
            )
        )
    return specs


def _sample_scheduler(
    rng: random.Random, kinds: Sequence[str], n: int
) -> str:
    """A scheduler spec for an async campaign spec."""
    kind = rng.choice(list(kinds)) if kinds else "fifo"
    return SCHEDULERS[kind].spell(kind, rng, n)

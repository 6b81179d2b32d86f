"""Campaign engine: seeded spec generation, parallel execution, oracles.

A campaign is a deterministic function of its config: ``CampaignConfig``'s
seed drives a single :class:`random.Random` through scenario generation
(tree shape × adversary × corruption set × scheduler × fault plan), and
every generated :class:`~repro.analysis.spec.ScenarioSpec` carries its
own derived seed — so a campaign re-runs bit-identically, and any single
failing spec replays outside the campaign.

Execution goes through :func:`repro.analysis.parallel.run_grid` with the
registered ``resilience-point`` runner: specs are JSON grid points,
workers execute and judge them, and finished points are memoised in the
sweep cache like every other experiment in this repository.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.parallel import SweepReport, register_runner, run_grid
from ..analysis.spec import ASYNC_ADVERSARIES, ASYNC_PROTOCOL, ScenarioSpec
from ..trees import parse_tree_spec
from .oracles import Violation, evaluate, violated_oracles
from .scenario import execute_scenario

#: Protocols a campaign samples from (``path-aa`` needs inputs on the
#: commonly known path, which the generator does not draw).
CAMPAIGN_PROTOCOLS = ("real-aa", "tree-aa", ASYNC_PROTOCOL)

#: Adversary kinds a campaign samples for synchronous specs.
SYNC_ADVERSARIES = ("none", "passive", "silent", "noise", "crash", "chaos")


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
    schedulers: Tuple[str, ...] = ("fifo", "random", "split", "delay")
    #: Tree families for tree-aa scenarios.
    tree_families: Tuple[str, ...] = ("path", "star", "caterpillar", "random")
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
        unknown = sorted(set(self.protocols) - set(CAMPAIGN_PROTOCOLS))
        if unknown:
            raise ValueError(
                f"campaigns cannot sample protocols {unknown}; "
                f"choose from {list(CAMPAIGN_PROTOCOLS)}"
            )
        if self.max_fault_probability > 0 and not self.allow_model_violations:
            raise ValueError(
                "fault plans require allow_model_violations=True "
                "(they break the Byzantine model on purpose)"
            )


def _sample_tree(rng: random.Random, family: str) -> str:
    """A CLI tree spec of the given family, sized by the campaign RNG."""
    if family == "path":
        return f"path:{rng.randint(3, 20)}"
    if family == "star":
        return f"star:{rng.randint(3, 12)}"
    if family == "caterpillar":
        return f"caterpillar:{rng.randint(2, 8)}x{rng.randint(1, 3)}"
    if family == "random":
        return f"random:{rng.randint(4, 20)}:{rng.randint(0, 999)}"
    raise ValueError(f"unknown tree family {family!r}")


def _sample_adversary(
    rng: random.Random, kinds: Sequence[str], is_async: bool
) -> str:
    """An adversary spec string, with seeded parameters where relevant."""
    menu = [
        kind
        for kind in kinds
        if kind in (ASYNC_ADVERSARIES if is_async else SYNC_ADVERSARIES)
    ]
    if not menu:
        return "none"
    kind = rng.choice(menu)
    if kind == "noise":
        return f"noise:{rng.randint(0, 9999)}"
    if kind == "chaos":
        return f"chaos:{rng.randint(0, 9999)}"
    if kind == "crash":
        crash_round = rng.randint(0, 4)
        partial_to = rng.randint(0, 4)
        return f"crash:{crash_round}:{partial_to}"
    return kind


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
        is_async = protocol == ASYNC_PROTOCOL
        n = rng.randint(config.min_n, config.max_n)
        legal_t = (n - 1) // 3
        t = rng.randint(0, legal_t) if legal_t else 0
        if config.corruption_ratio is None:
            n_corrupt = t
        else:
            n_corrupt = min(n - 1, round(config.corruption_ratio * n))
        corrupt = tuple(sorted(rng.sample(range(n), n_corrupt)))
        adversary = _sample_adversary(rng, config.adversaries, is_async)
        if adversary == "none":
            corrupt = ()
        tree: Optional[str] = None
        inputs: Tuple[Any, ...]
        if protocol == "tree-aa":
            tree = _sample_tree(rng, rng.choice(list(config.tree_families)))
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
    if kind == "random":
        return f"random:{rng.randint(0, 9999)}"
    if kind == "split":
        return f"split:{rng.randint(1, max(1, n - 1))}"
    if kind == "delay":
        return f"delay:{rng.randint(1, max(1, n // 2))}"
    return "fifo"


@register_runner("resilience-point")
def resilience_point_runner(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One campaign grid point: execute the spec, judge it, report.

    ``params["spec"]`` is a :meth:`~repro.analysis.spec.ScenarioSpec
    .to_dict` payload; the engine-derived ``seed`` is ignored because the
    spec carries its own (a campaign row must replay bit-identically from
    its JSON alone).
    """
    spec = ScenarioSpec.from_dict(params["spec"])
    result = execute_scenario(spec)
    violations = evaluate(result)
    row: Dict[str, Any] = {
        "spec": spec.to_dict(),
        "protocol": spec.protocol,
        "adversary": spec.adversary.split(":")[0],
        "n": spec.n,
        "t": spec.assumed_t,
        "n_corrupt": len(spec.corrupt),
        "rounds": result.rounds,
        "completed": result.completed,
        "violations": [violation.to_dict() for violation in violations],
        "violated": violated_oracles(violations),
        "ok": not violations,
        "fault_counts": dict(result.fault_counts),
    }
    if result.stall is not None:
        row["stall"] = result.stall
    if result.error is not None:
        row["error"] = result.error
    return row


@dataclass
class CampaignReport:
    """A finished campaign: config, per-spec rows, violation digest."""

    config: CampaignConfig
    rows: List[Dict[str, Any]] = field(default_factory=list)
    #: Provenance of the underlying sweep (cache hits, jobs, wall time).
    sweep: Optional[SweepReport] = None

    @property
    def violating_rows(self) -> List[Dict[str, Any]]:
        """Rows with at least one violation."""
        return [row for row in self.rows if not row["ok"]]

    @property
    def ok(self) -> bool:
        """Whether every scenario satisfied every oracle."""
        return not self.violating_rows

    def violations_by_oracle(self) -> Dict[str, int]:
        """How many scenarios tripped each oracle."""
        counts: Dict[str, int] = {}
        for row in self.rows:
            for oracle in row["violated"]:
                counts[oracle] = counts.get(oracle, 0) + 1
        return dict(sorted(counts.items()))

    def violations_by_adversary(self) -> Dict[str, int]:
        """How many scenarios per adversary kind had violations."""
        counts: Dict[str, int] = {}
        for row in self.violating_rows:
            counts[row["adversary"]] = counts.get(row["adversary"], 0) + 1
        return dict(sorted(counts.items()))

    def violating_scenarios(self) -> List[Tuple[ScenarioSpec, List[Violation]]]:
        """The violating specs, deserialised and paired with findings."""
        return [
            (
                ScenarioSpec.from_dict(row["spec"]),
                [Violation.from_dict(v) for v in row["violations"]],
            )
            for row in self.violating_rows
        ]

    def summary(self) -> str:
        """A few human-readable lines for CLI output and CI logs."""
        lines = [
            f"campaign: {len(self.rows)} scenarios, "
            f"{len(self.violating_rows)} violating "
            f"(seed={self.config.seed})"
        ]
        by_oracle = self.violations_by_oracle()
        if by_oracle:
            lines.append(
                "  by oracle: "
                + ", ".join(f"{k}={v}" for k, v in by_oracle.items())
            )
        by_adversary = self.violations_by_adversary()
        if by_adversary:
            lines.append(
                "  by adversary: "
                + ", ".join(f"{k}={v}" for k, v in by_adversary.items())
            )
        if self.sweep is not None:
            lines.append("  " + self.sweep.summary())
        return "\n".join(lines)


def run_campaign(
    config: CampaignConfig,
    *,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    no_cache: bool = False,
    jsonl_path: Optional[str] = None,
    specs: Optional[Sequence[ScenarioSpec]] = None,
) -> CampaignReport:
    """Generate, execute, and judge a whole campaign.

    Execution happens through the shared parallel sweep engine, so
    ``jobs``/``cache_dir``/``no_cache``/``jsonl_path`` behave exactly as
    they do for ``repro sweep`` — including the on-disk memo of finished
    scenarios and the machine-readable JSONL report.

    ``specs`` replaces the seeded generator with an explicit workload,
    judged by the same oracles — how a scenario-service grid (or any
    other declarative spec source) gets a resilience verdict.
    """
    if specs is None:
        specs = generate_scenarios(config)
    grid = [{"spec": spec.to_dict()} for spec in specs]
    sweep = run_grid(
        f"resilience-campaign-{config.seed}",
        "resilience-point",
        grid,
        jobs=jobs,
        cache_dir=cache_dir,
        no_cache=no_cache,
        base_seed=config.seed,
        jsonl_path=jsonl_path,
    )
    return CampaignReport(config=config, rows=list(sweep.rows), sweep=sweep)

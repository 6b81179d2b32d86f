"""The flywheel engine: sharded, resumable, differential mega-campaigns.

:func:`run_flywheel` turns a list of specs into a campaign:

1. **Generate** — the specs (by default the seeded point stream,
   :func:`~repro.analysis.strategies.spec_stream`) are materialised once;
   point ``i`` is the same :class:`~repro.analysis.spec.ScenarioSpec` in
   every process, which is what makes the whole design resumable.
2. **Execute** — points run in shards through the parallel sweep engine
   (:func:`~repro.analysis.parallel.run_grid`) under the registered
   ``flywheel-point`` runner, which applies the full differential oracle
   matrix (:mod:`repro.flywheel.oracles`) to each point.  The sweep
   cache memoises rows, so re-running a killed shard is nearly free.
3. **Checkpoint** — after each shard the ledger
   (:mod:`repro.flywheel.ledger`) gains one ``point`` record per index.
   A killed campaign resumes from the parsed ledger and executes every
   remaining point exactly once.
4. **Shrink and file** — with a ``corpus_dir``, each diverging point
   is minimised with the resilience lab's delta-debugging shrinker
   (driven by the *differential* oracles via :func:`shrink`'s pluggable
   check) and filed there (e.g. ``tests/corpus/``) as a replayable
   :class:`~repro.resilience.corpus.ReproCase` of the minimal spec,
   whose ``flywheel`` extra records the stream position and the oracle
   verdict.  Without one, the divergence is recorded in the ledger
   only, unshrunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

import repro

from ..analysis.parallel import register_runner, resolve_jobs, run_grid
from ..analysis.spec import ScenarioSpec
from ..analysis.strategies import spec_stream, specs_digest
from ..resilience.corpus import ReproCase, save_case
from ..resilience.oracles import check_violations
from ..resilience.shrink import shrink, shrink_report
from .ledger import LedgerWriter, check_compatible, load_state
from .oracles import batch_replayable, diverging_oracles, evaluate_point, resolve_perturb

#: Default shard size: large enough to amortise pool start-up, small
#: enough that a kill loses at most a few seconds of work.
DEFAULT_SHARD_SIZE = 250


@register_runner("flywheel-point")
def flywheel_point_runner(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Grid adapter: one flywheel point, judged by every oracle.

    The grid seed is ignored — a flywheel point's randomness lives
    inside its spec (``spec["seed"]``), so the row is a pure function of
    the params and the sweep cache can serve it to any campaign that
    generates the same spec.
    """
    spec = ScenarioSpec.from_dict(params["spec"])
    return evaluate_point(spec, params.get("perturb"))


@dataclass(frozen=True)
class FlywheelConfig:
    """Everything one campaign needs (CLI flags map 1:1 onto fields)."""

    seed: int
    count: int
    ledger_path: str
    shard_size: int = DEFAULT_SHARD_SIZE
    jobs: int = 1
    cache_dir: Optional[str] = None
    no_cache: bool = False
    #: Where diverging cases are filed (``None`` disables filing).
    corpus_dir: Optional[str] = None
    max_shrink_checks: int = 200
    #: ``module:function`` batch-row perturbation (the self-test seam).
    perturb: Optional[str] = None

    def __post_init__(self) -> None:
        # Refused here, before run_flywheel opens the ledger: a bad
        # argument must not leave a campaign header behind.
        if self.count < 0:
            raise ValueError(f"count must be >= 0, got {self.count}")
        if self.shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {self.shard_size}")
        resolve_jobs(self.jobs)
        resolve_perturb(self.perturb)


@dataclass
class FlywheelReport:
    """The outcome of one ``run``/``resume`` invocation."""

    config: FlywheelConfig
    executed: int
    skipped: int
    divergences: List[Dict[str, Any]]
    filed_cases: List[str]

    @property
    def ok(self) -> bool:
        """Whether the campaign finished with zero divergences on file."""
        return not self.divergences

    def summary(self) -> str:
        parts = [
            f"flywheel seed={self.config.seed}",
            f"{self.executed} executed",
            f"{self.skipped} resumed from ledger",
            f"{len(self.divergences)} divergences",
        ]
        if self.filed_cases:
            parts.append(f"filed: {', '.join(self.filed_cases)}")
        return ", ".join(parts)


def _shards(indices: List[int], size: int) -> List[List[int]]:
    """Contiguous chunks of the remaining indices, in stream order."""
    return [indices[i : i + size] for i in range(0, len(indices), size)]


def _divergence_check(perturb: Optional[str]) -> Any:
    """A :data:`~repro.resilience.shrink.ViolationCheck` over the oracles."""

    def check(candidate: ScenarioSpec) -> Tuple[str, ...]:
        return diverging_oracles(evaluate_point(candidate, perturb))

    return check


def _file_divergence(
    config: FlywheelConfig, index: int, spec: ScenarioSpec, row: Dict[str, Any]
) -> Dict[str, Any]:
    """Record one diverging point; with a ``corpus_dir``, shrink it and
    file the minimum as a corpus case.

    Returns the ledger ``divergence`` payload: oracle names, shrink
    stats, the minimal spec, and the corpus case name once filed.
    Without a ``corpus_dir`` nothing is filed, so nothing is shrunk:
    each shrink check costs a reference run plus a batch run.
    """
    oracle_names = diverging_oracles(row)
    record: Dict[str, Any] = {
        "oracles": list(oracle_names),
        "spec": spec.to_dict(),
        "filed": False,
        "shrunk": False,
    }
    if config.corpus_dir is None:
        return record
    minimal = spec
    try:
        result = shrink(
            spec,
            max_checks=config.max_shrink_checks,
            check=_divergence_check(config.perturb),
        )
    except Exception as exc:  # noqa: BLE001 - an unshrinkable case still files
        record["unshrinkable"] = f"{type(exc).__name__}: {exc}"
    else:
        minimal = result.minimal
        record["shrunk"] = result.reduced
        record["shrink_checks"] = result.checks
        record["shrink_steps"] = result.steps
        record["shrink_report"] = shrink_report(result)
        record["minimal_spec"] = minimal.to_dict()

    name = f"flywheel-{config.seed}-{index:05d}"
    case = ReproCase(
        name=name,
        description=(
            "flywheel divergence on oracles "
            f"{', '.join(oracle_names)} (stream seed {config.seed}, "
            f"point {index}); replay with repro.flywheel.replay_flywheel_case"
        ),
        spec=minimal,
        # The *resilience* verdict of the minimal spec, so the tier-1
        # corpus replay (which runs the invariant oracles, not the
        # differential ones) stays self-consistent.
        expected_violations=check_violations(minimal),
        extras={
            "flywheel": {
                "stream_seed": config.seed,
                "index": index,
                "oracles": list(oracle_names),
                "perturb": config.perturb,
                "batch_supported": batch_replayable(minimal),
            }
        },
    )
    record["case"] = name
    record["path"] = save_case(case, config.corpus_dir)
    record["filed"] = True
    return record


def replay_flywheel_case(case: ReproCase) -> Dict[str, Any]:
    """Re-judge a flywheel-filed corpus case with the differential oracles.

    Runs the case's minimal spec under the perturbation seam recorded in
    its ``flywheel`` extra (``None`` for genuine divergences, which must
    reproduce from the real engines; the self-test's injected seam
    otherwise).
    """
    flywheel = case.extras.get("flywheel")
    if not isinstance(flywheel, dict):
        raise ValueError(f"{case.name} is not a flywheel-filed case")
    return evaluate_point(case.spec, flywheel.get("perturb"))


def run_flywheel(
    config: FlywheelConfig,
    *,
    resume: bool = False,
    specs: Optional[Iterable[ScenarioSpec]] = None,
) -> FlywheelReport:
    """Execute (or resume) one campaign; returns the run's report.

    ``specs`` are the points to judge (default: ``spec_stream(seed,
    count)``); there must be ``config.count`` of them.  ``resume=False``
    on a ledger with prior progress raises — an explicit ``resume`` is
    how the caller acknowledges partial state.  Either way the digest of
    the specs must match the ledger header, so a generator change can
    never silently mix two different streams under one exactly-once
    accounting.
    """
    points = list(spec_stream(config.seed, config.count) if specs is None else specs)
    if len(points) != config.count:
        raise ValueError(f"campaign of {config.count} points got {len(points)} specs")
    digest = specs_digest(points)
    state = load_state(config.ledger_path)
    check_compatible(
        state, seed=config.seed, count=config.count, digest=digest
    )
    if state.executed and not resume:
        raise ValueError(
            f"{config.ledger_path} already records "
            f"{len(state.executed)}/{config.count} points; "
            "use resume to continue it"
        )

    remaining = [i for i in range(config.count) if i not in state.executed]
    divergences: List[Dict[str, Any]] = list(state.divergences)
    filed: List[str] = [
        d["case"] for d in state.divergences if d.get("case")
    ]
    executed = 0

    with LedgerWriter(config.ledger_path) as ledger:
        if state.header is None:
            ledger.header(
                seed=config.seed,
                count=config.count,
                shard_size=config.shard_size,
                digest=digest,
                version=repro.__version__,
                perturb=config.perturb,
            )
        for shard in _shards(remaining, config.shard_size):
            grid = []
            for index in shard:
                params: Dict[str, Any] = {"spec": points[index].to_dict()}
                if config.perturb is not None:
                    params["perturb"] = config.perturb
                grid.append(params)
            report = run_grid(
                f"flywheel-{config.seed}",
                "flywheel-point",
                grid,
                jobs=config.jobs,
                cache_dir=config.cache_dir,
                no_cache=config.no_cache,
            )
            for index, row in zip(shard, report.rows):
                ledger.point(index, row)
                executed += 1
                if not row.get("ok", False):
                    record = _file_divergence(
                        config, index, points[index], row
                    )
                    ledger.divergence(index, record)
                    divergences.append({"index": index, **record})
                    if record.get("case"):
                        filed.append(record["case"])
        if not state.done and len(state.executed) + executed == config.count:
            ledger.done(
                executed=len(state.executed) + executed,
                divergences=len(divergences),
            )

    return FlywheelReport(
        config=config,
        executed=executed,
        skipped=len(state.executed),
        divergences=divergences,
        filed_cases=filed,
    )

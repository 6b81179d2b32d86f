"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

``tree-aa``     run TreeAA on a generated or JSON-loaded tree
``auth-tree-aa`` run the authenticated (t < n/2) TreeAA variant
``real-aa``     run RealAA(ε) on real-valued inputs
``sweep``       run an experiment grid through the parallel engine
                (``--jobs N``, ``--cache-dir DIR``, ``--no-cache``,
                ``--jsonl FILE`` for machine-readable rows, ``--spec
                FILE`` to run declarative ScenarioSpecs)
``serve``       run the long-lived scenario service (HTTP job server
                over ScenarioSpec grids; see docs/SERVICE.md)
``submit``      POST a scenario grid to a running service (``--wait``
                polls it to completion, ``--retries`` retransmits
                through connection errors and 429s)
``status``      list a running service's jobs, or one job's points
``cancel``      request cancellation of a running service job
``service-chaos`` chaos-test a service's fault tolerance (seeded
                fault-injection campaign over the service itself)
``trace``       record one execution as a JSONL trace (``--out FILE``),
                with per-round structured metrics
``report``      summarise a recorded JSONL trace (rounds, messages,
                convergence)
``bounds``      print the paper's round bounds for given parameters
``lint``        run the protocol-invariant linter (rules PL001-PL004;
                same engine and flags as ``tools/protolint.py``)
``campaign``    run a seeded fault-injection campaign through the
                flywheel engine and oracles (``--count``, ``--seed``,
                degradation knobs, ``--ledger``, ``--corpus-dir``)
``shrink``      delta-debug a violating ScenarioSpec JSON or corpus case
                to a minimal reproduction (``repro campaign
                --corpus-dir`` files the inputs)
``make-tree``   generate a tree and print it (edges / JSON / DOT)
``chain-demo``  execute Fekete's one-round chain-of-views construction

Tree specs (``--tree``): the :func:`repro.trees.parse_tree_spec`
grammar (``path:K``, ``star:K``, ``random:K[:SEED]``, ``figure``,
``@file.json``, ...).

Adversaries (``--adversary``): ``none``, ``silent``, ``passive``,
``noise[:SEED]``, ``crash[:ROUND[:PARTIAL]]``, ``chaos[:SEED]``,
``burn``, ``burn-down``, ``asym`` — the shared
:func:`repro.analysis.spec.build_adversary` grammar, except that a bare
``crash`` crashes at round 3.

Layout: :data:`FLAGS` declares each flag's argparse options once, and
:data:`COMMANDS` lists each (sub)command's help line, handler and flags
(with the few per-command defaults); :func:`build_parser` reads both.
``tree-aa``, ``real-aa`` and ``trace`` build their
:class:`~repro.analysis.spec.ScenarioSpec` in :func:`_spec`, ``sweep``
plans specs for the parallel engine, and every handler turns the
exceptions a user can cause into a :class:`CLIError` through
:func:`user_errors` (``error: ...``, exit 2).  Argument guards raise
``ValueError`` and are user errors; soundness failures raise
``RuntimeError`` and stay tracebacks.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from contextlib import contextmanager, suppress
from dataclasses import replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Type

from .adversary import NoAdversary
from .analysis import format_table
from .analysis.spec import (
    BASELINE_PROTOCOL,
    PROTOCOLS,
    SPEC_BACKENDS,
    SPEC_RUNNER,
    SPEC_SWEEP_NAME,
    ScenarioSpec,
    SpecError,
    build_adversary,
    execute_spec_point,
)
from .lowerbound import (
    demonstrate_real,
    fekete_K,
    min_rounds_required,
    theorem2_lower_bound,
    trimmed_mean_rule,
)
from .protocols import (
    realaa_duration,
    theorem3_round_bound,
    tree_aa_round_bound,
)
from .trees import (
    LabeledTree,
    diameter,
    parse_tree_spec,
    tree_to_dot,
    tree_to_json,
)


class CLIError(ValueError):
    """A user-facing argument error."""


@contextmanager
def user_errors(*types: Type[BaseException], prefix: str = "") -> Iterator[None]:
    """Re-raise an exception of *types* from the block as a
    :class:`CLIError` reading ``prefix + str(exc)``."""
    try:
        yield
    except types as exc:
        raise CLIError(f"{prefix}{exc}") from None


def adversary_spec(spec: str) -> str:
    """The spec-grammar adversary an ``--adversary`` value names.

    A bare ``crash`` crashes at round 3 (the spec-layer default is
    round 1); every other value is already spec grammar.
    """
    return "crash:3" if spec == "crash" else spec


def make_adversary(spec: str, t: int):
    """The adversary object of an ``--adversary`` value, for commands
    that do not run a spec: ``none`` is a :class:`NoAdversary` (an empty
    corruption set), the rest follows :func:`adversary_spec`."""
    if spec == "none":
        return NoAdversary()
    with user_errors(SpecError):
        return build_adversary(adversary_spec(spec), t=t)


def _random_seed(spec: str) -> int:
    """The seed of a ``random[:SEED]`` ``--inputs`` value (default 0)."""
    return int((spec.split(":") + ["0"])[1])


def pick_inputs(tree: LabeledTree, spec: str, n: int) -> List:
    """Parse ``--inputs``: a comma list of labels, or ``random[:SEED]``,
    the spread a tree spec with ``inputs=None`` and that seed draws."""
    if spec.startswith("random"):
        from .analysis.sweep import spread_inputs

        return spread_inputs(tree, n, random.Random(_random_seed(spec)))
    labels = [label.strip() for label in spec.split(",") if label.strip()]
    if len(labels) != n:
        raise CLIError(f"need exactly n={n} inputs, got {len(labels)}")
    for label in labels:
        if label not in tree:
            raise CLIError(f"input {label!r} is not a vertex of the tree")
    return labels


def _read_json(path: str, what: str = "") -> Any:
    """The JSON document in *path*; an unreadable file is a user error."""
    with user_errors(OSError, ValueError, prefix=f"cannot read {what}{path!r}: "):
        with open(path) as handle:
            return json.load(handle)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def _spec(args: argparse.Namespace, protocol: str, **fields: Any) -> ScenarioSpec:
    """The spec of a run verb's flags, by the protocol's input kind: tree
    protocols read ``--tree`` and labels from ``--inputs``, real ones
    ``--epsilon`` and reals.  Where the verb has ``--n``, ``--inputs
    random[:SEED]`` means the spec's seed-derived inputs for ``--n``
    parties.  Both read ``--t`` and ``--adversary``."""
    n = getattr(args, "n", None)
    on_tree = PROTOCOLS[protocol].on_tree
    if on_tree:
        if not args.tree:
            raise CLIError(f"--tree is required for {protocol} traces")
        fields.update(tree=args.tree)
    else:
        fields.update(epsilon=args.epsilon)
    if n is not None and args.inputs.startswith("random"):
        fields.update(seed=_random_seed(args.inputs))
    elif on_tree:
        fields.update(inputs=tuple(pick_inputs(parse_tree_spec(args.tree), args.inputs, n)))
    else:
        with user_errors(ValueError, prefix="malformed inputs: "):
            inputs = tuple(float(x) for x in args.inputs.split(","))
        n = len(inputs)
        fields.update(inputs=inputs)
    return ScenarioSpec(
        protocol=protocol,
        n=n,
        t=args.t,
        adversary=adversary_spec(args.adversary),
        **fields,
    )


def _print_outcome(
    title: str, rows: List[list], outcome: Any, show: Any = lambda v: v
) -> int:
    """Print a run's verdict table and its honest parties; the exit code
    is 0 iff the run achieved AA."""
    print(format_table(["property", "value"], rows, title=title))
    print()
    parties = [
        [pid, outcome.honest_inputs[pid], show(outcome.honest_outputs[pid])]
        for pid in sorted(outcome.honest_outputs)
    ]
    print(format_table(["party", "input", "output"], parties, title="honest parties"))
    return 0 if outcome.achieved_aa else 1


def cmd_tree_aa(args: argparse.Namespace) -> int:
    """Run one TreeAA execution and print the verdict table."""
    with user_errors(ValueError):
        outcome = _spec(args, "tree-aa").run()
    tree = outcome.tree
    rows = [
        ["|V(T)|", tree.n_vertices],
        ["D(T)", diameter(tree)],
        ["rounds", outcome.rounds],
        ["Theorem-4 bound", tree_aa_round_bound(tree.n_vertices, diameter(tree))],
        ["terminated", outcome.terminated],
        ["valid", outcome.valid],
        ["1-agreement", outcome.agreement],
        ["output diameter", outcome.output_diameter],
    ]
    return _print_outcome("TreeAA", rows, outcome)


def cmd_auth_tree_aa(args: argparse.Namespace) -> int:
    """Run one authenticated (t < n/2) TreeAA execution."""
    from .authenticated import run_auth_tree_aa

    tree = parse_tree_spec(args.tree)
    inputs = pick_inputs(tree, args.inputs, args.n)
    adversary = make_adversary(args.adversary, args.t)
    with user_errors(ValueError):
        outcome = run_auth_tree_aa(tree, inputs, args.t, adversary=adversary)
    rows = [
        ["|V(T)|", tree.n_vertices],
        ["threshold", f"t={args.t} < n/2={args.n / 2:g}"],
        ["rounds", outcome.rounds],
        ["terminated", outcome.terminated],
        ["valid", outcome.valid],
        ["1-agreement", outcome.agreement],
        ["distinct outputs", len(set(outcome.honest_outputs.values()))],
    ]
    print(
        format_table(
            ["property", "value"], rows, title="TreeAA (authenticated, t < n/2)"
        )
    )
    return 0 if outcome.achieved_aa else 1


def cmd_real_aa(args: argparse.Namespace) -> int:
    """Run one RealAA(eps) execution on the given real inputs."""
    with user_errors(ValueError):
        outcome = _spec(args, "real-aa").run()
    rows = [
        ["rounds", outcome.rounds],
        ["measured rounds", outcome.measured_rounds],
        ["terminated", outcome.terminated],
        ["valid", outcome.valid],
        ["output spread", outcome.output_spread],
        ["eps-agreement", outcome.agreement],
    ]
    return _print_outcome(
        f"RealAA(eps={args.epsilon})", rows, outcome, lambda v: round(v, 9)
    )


def _load_spec_payload(path: str) -> dict:
    """Read a ``--spec`` file and normalise it to a planner payload.

    Accepts a single spec object, a bare list of specs, or the service's
    native ``{"points": ...}`` / ``{"base": ..., "grid": ...}`` shapes —
    the same file works for ``repro sweep --spec`` and ``repro submit``.
    """
    payload = _read_json(path, "spec file ")
    if isinstance(payload, list):
        return {"points": payload}
    if not isinstance(payload, dict):
        raise CLIError(f"spec file {path!r} must hold a JSON object or list")
    if "points" not in payload and "grid" not in payload:
        return {"points": [payload]}
    return payload


def _spec_sweep_grid(args: argparse.Namespace) -> Any:
    """``repro sweep --spec``: the planned specs, one table row each."""
    from .service import PlanError, plan_points

    with user_errors(PlanError):
        specs = plan_points(_load_spec_payload(args.spec), base_seed=args.base_seed)
    headers = ["protocol", "network", "backend", "adversary", "rounds", "AA ok"]

    def table(rows: List[dict]) -> List[list]:
        return [
            [
                row["protocol"],
                f"n={row['n']},t={row['t']}",
                row["backend"],
                row["adversary"],
                row["rounds"],
                row["ok"],
            ]
            for row in rows
        ]

    return [spec.to_dict() for spec in specs], headers, table


def _tree_sweep_grid(args: argparse.Namespace) -> Any:
    """``repro sweep --kind tree-aa``: each TreeAA spec followed by the
    baseline spec on the same instance, one table row per pair."""
    from .analysis import tree_spec_for

    grid, points = [], []
    for family in args.families.split(","):
        for size in args.sizes.split(","):
            with user_errors(ValueError):
                tree = tree_spec_for(family, int(size))
            spec = ScenarioSpec(
                protocol="tree-aa",
                n=args.n,
                t=args.t,
                tree=tree,
                adversary=adversary_spec(args.adversary),
                backend=args.backend,
                trace_level="aggregate",
                seed=int(size),
            )
            baseline = replace(spec, protocol=BASELINE_PROTOCOL, backend="reference")
            grid += [spec.to_dict(), baseline.to_dict()]
            points.append((family, parse_tree_spec(tree)))
    headers = ["family", "|V(T)|", "D(T)", "TreeAA rounds", "baseline rounds", "AA ok"]

    def table(rows: List[dict]) -> List[list]:
        return [
            [
                family,
                tree.n_vertices,
                diameter(tree),
                ours["rounds"],
                theirs["rounds"],
                ours["ok"] and theirs["ok"],
            ]
            for (family, tree), ours, theirs in zip(points, rows[0::2], rows[1::2])
        ]

    return grid, headers, table


def _real_sweep_grid(args: argparse.Namespace) -> Any:
    """``repro sweep --kind real-aa``: ``realaa-point`` params per
    (network, spread)."""
    with user_errors(ValueError, prefix="malformed sweep grid: "):
        networks = [
            tuple(int(x) for x in pair.split(":"))
            for pair in args.networks.split(",")
        ]
        spreads = [float(s) for s in args.spreads.split(",")]
    if any(len(pair) != 2 for pair in networks):
        raise CLIError("--networks takes comma-separated n:t pairs")
    grid = [
        {
            "n": n,
            "t": t,
            "spread": spread,
            "epsilon": args.epsilon,
            "adversary": adversary_spec(args.adversary),
            "backend": args.backend,
            "seed": 0,
        }
        for n, t in networks
        for spread in spreads
    ]
    headers = ["network", "spread", "budget", "measured", "AA ok"]

    def table(rows: List[dict]) -> List[list]:
        return [
            [
                f"n={r['n']},t={r['t']}",
                f"{r['spread']:g}",
                r["budget"],
                r["measured"] if r["measured"] is not None else "-",
                r["ok"],
            ]
            for r in rows
        ]

    return grid, headers, table


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a ScenarioSpec file, or a TreeAA or RealAA experiment grid,
    through the parallel engine."""
    from .analysis import run_grid
    from .engine import UnsupportedBackendError

    name, runner = SPEC_SWEEP_NAME, SPEC_RUNNER
    title = f"sweep {args.kind} (adversary={args.adversary})"
    if args.spec:
        grid, headers, table = _spec_sweep_grid(args)
        title = f"sweep scenario-spec ({len(grid)} points)"
    elif PROTOCOLS[args.kind].on_tree:
        grid, headers, table = _tree_sweep_grid(args)
    else:
        grid, headers, table = _real_sweep_grid(args)
        name, runner = "cli-real-aa", "realaa-point"
    # A guard's ValueError, or e.g. --backend batch with an adversary the
    # batch engine cannot replay: the refusal is part of the contract,
    # but the CLI surfaces it as a clean error, not a traceback.
    with user_errors(UnsupportedBackendError, ValueError):
        report = run_grid(
            name,
            runner,
            grid,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            no_cache=args.no_cache,
            base_seed=args.base_seed,
            jsonl_path=args.jsonl,
        )
    rows = table(report.rows)
    print(format_table(headers, rows, title=title))
    print()
    print(report.summary())
    return 0 if all(row[-1] for row in rows) else 1


def cmd_trace(args: argparse.Namespace) -> int:
    """Record one protocol execution as a JSONL trace file."""
    with user_errors(ValueError):
        row = execute_spec_point(_spec(args, args.kind, record=True))
    lines = row["trace_jsonl"].splitlines()
    with user_errors(OSError, prefix=f"cannot write {args.out!r}: "):
        with open(args.out, "w") as handle:
            handle.write(row["trace_jsonl"])
    footer = json.loads(lines[-1])
    print(
        f"recorded {footer['rounds']} rounds "
        f"({footer['messages']} messages, {len(lines)} records) -> {args.out}"
    )
    return 0 if row["ok"] else 1


def cmd_report(args: argparse.Namespace) -> int:
    """Render the summary of a recorded JSONL trace."""
    from .observability import TraceFormatError, load_run, render_report

    with user_errors(TraceFormatError):
        with user_errors(OSError, prefix=f"cannot read {args.trace!r}: "):
            run = load_run(args.trace)
    print(render_report(run, max_rounds=args.rounds))
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    """Print the paper's round bounds for the given D, n, t, eps."""
    d, n, t = args.diameter, args.n, args.t
    with user_errors(ValueError):
        rows = [
            ["Theorem 3 upper (RealAA rounds)", theorem3_round_bound(d, args.epsilon)],
            ["operational RealAA budget", realaa_duration(d, args.epsilon, n, t)],
            ["Theorem 4 upper (TreeAA rounds)", tree_aa_round_bound(int(d) + 1, int(d))],
            ["Theorem 2 lower", round(theorem2_lower_bound(d, n, t), 3)],
            ["Corollary 1 integer lower", min_rounds_required(d, n, t)],
            ["K(1, D)", round(fekete_K(1, d, n, t), 6)],
            ["K(2, D)", round(fekete_K(2, d, n, t), 6)],
        ]
    print(
        format_table(
            ["bound", "rounds"],
            rows,
            title=f"Round bounds for D={d:g}, n={n}, t={t}, eps={args.epsilon:g}",
        )
    )
    return 0


def cmd_make_tree(args: argparse.Namespace) -> int:
    """Generate a tree and print it as edges, JSON, or DOT."""
    tree = parse_tree_spec(args.tree)
    if args.format == "edges":
        for u, v in tree.edges():
            print(f"{u} {v}")
    elif args.format == "json":
        print(tree_to_json(tree, indent=2))
    else:
        print(tree_to_dot(tree))
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run a seeded resilience campaign through the flywheel engine.

    Exit code 0 when every point is green on every oracle, 1 otherwise —
    so a clean campaign doubles as a CI gate.
    """
    import tempfile

    from .flywheel import FlywheelConfig, run_flywheel
    from .resilience import CampaignConfig, generate_scenarios

    overrides = {
        name: tuple(getattr(args, name).split(","))
        for name in ("protocols", "adversaries")
        if getattr(args, name)
    }
    # config, spec (e.g. a typo'd --adversaries name), LedgerError,
    # CorruptLogError
    with user_errors(ValueError):
        config = CampaignConfig(
            count=args.count,
            seed=args.seed,
            corruption_ratio=args.corruption_ratio,
            max_fault_probability=args.fault_probability,
            allow_model_violations=args.allow_model_violations,
            epsilon=args.epsilon,
            **overrides,
        )
        specs = generate_scenarios(config)
        with tempfile.TemporaryDirectory(prefix="repro-campaign-") as scratch:
            report = run_flywheel(
                FlywheelConfig(
                    seed=config.seed,
                    count=config.count,
                    ledger_path=args.ledger
                    or os.path.join(scratch, "ledger.jsonl"),
                    jobs=args.jobs,
                    cache_dir=args.cache_dir,
                    no_cache=args.no_cache,
                    corpus_dir=args.corpus_dir,
                ),
                specs=specs,
            )
    return _flywheel_finish(report)


def cmd_shrink(args: argparse.Namespace) -> int:
    """Delta-debug a violating spec JSON to a minimal reproduction."""
    from .resilience import (
        NotViolatingError,
        ReproCase,
        save_case,
        shrink,
        shrink_report,
    )

    payload = _read_json(args.scenario)
    # Accept both bare specs and full corpus cases.
    if isinstance(payload, dict) and "protocol" not in payload:
        payload = payload.get("spec")
    with user_errors(
        AttributeError, KeyError, TypeError, ValueError, prefix="malformed spec: "
    ):
        spec = ScenarioSpec.from_dict(payload)
    with user_errors(NotViolatingError):
        result = shrink(spec, max_checks=args.max_checks)
    print(shrink_report(result))
    if args.out:
        case = ReproCase(
            name=os.path.splitext(os.path.basename(args.out))[0],
            description=args.description,
            spec=result.minimal,
            expected_violations=result.minimal_violations,
        )
        path = save_case(case, os.path.dirname(os.path.abspath(args.out)))
        print(f"\nminimal reproduction saved to {path}")
    else:
        print()
        print(json.dumps(result.minimal.to_dict(), indent=2, sort_keys=True))
    return 0


def _flywheel_config(args: argparse.Namespace) -> Any:
    """Build a :class:`~repro.flywheel.FlywheelConfig` from CLI flags."""
    from .flywheel import FlywheelConfig
    from .flywheel.selftest import PERTURBATIONS

    perturb = args.inject_divergence
    if perturb:
        perturb = PERTURBATIONS.get(perturb, perturb)
    return FlywheelConfig(
        seed=args.seed,
        count=args.count,
        ledger_path=args.ledger,
        shard_size=args.shard_size,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache or perturb is not None,
        corpus_dir=args.corpus_dir,
        max_shrink_checks=args.max_shrink_checks,
        perturb=perturb or None,
    )


def _flywheel_finish(report: Any) -> int:
    """Print a campaign report; exit 1 when any oracle diverged."""
    print(report.summary())
    for record in report.divergences:
        line = {key: record.get(key) for key in ("index", "oracles", "case", "shrunk")}
        print(json.dumps(line, sort_keys=True))
    return 0 if report.ok else 1


def cmd_flywheel_run(args: argparse.Namespace) -> int:
    """Start a fresh differential campaign, or (``flywheel resume``)
    continue a killed one from its ledger, exactly once (see
    docs/FLYWHEEL.md)."""
    from .flywheel import run_flywheel

    resume = args.flywheel_command == "resume"
    with user_errors(ValueError):  # LedgerError, CorruptLogError
        report = run_flywheel(_flywheel_config(args), resume=resume)
    return _flywheel_finish(report)


def cmd_flywheel_status(args: argparse.Namespace) -> int:
    """Summarise a campaign ledger: progress, divergences, completion."""
    from .flywheel import load_state

    with user_errors(ValueError):  # LedgerError, CorruptLogError
        state = load_state(args.ledger)
    header = state.header
    if header is None:
        raise CLIError(f"{args.ledger!r} holds no campaign header")
    print(
        f"flywheel seed={header['seed']}: "
        f"{len(state.executed)}/{header['count']} points executed, "
        f"{len(state.remaining())} remaining, {len(state.divergences)} divergences, "
        f"{'complete' if state.done else 'interrupted'}"
    )
    for record in state.divergences:
        filed = record.get("case") or "ledger-only"
        print(f"  point {record['index']}: {record['oracles']} -> {filed}")
    return 0 if not state.divergences else 1


def cmd_flywheel_selftest(args: argparse.Namespace) -> int:
    """Inject a batch-engine bug and assert detect -> shrink -> file."""
    import tempfile

    from .flywheel import SelfTestError, run_selftest

    workdir = args.workdir or tempfile.mkdtemp(prefix="flywheel-selftest-")
    try:
        with user_errors(SelfTestError, ValueError):
            report = run_selftest(
                os.path.join(workdir, "ledger.jsonl"),
                os.path.join(workdir, "corpus"),
                seed=args.seed,
                count=args.count,
                jobs=args.jobs,
                perturbation=args.perturbation,
            )
    except CLIError:
        if not args.workdir:
            # A refused argument left the temporary directory empty;
            # a failed self-test's ledger stays for inspection.
            with suppress(OSError):
                os.rmdir(workdir)
        raise
    caught = [
        d for d in report.divergences if d.get("case") or d.get("filed")
    ]
    print(
        f"selftest OK: {len(report.divergences)} injected divergences "
        f"caught, {len(caught)} filed as corpus cases under {workdir}"
    )
    return 0


def cmd_flywheel_soak(args: argparse.Namespace) -> int:
    """Drive the seeded stream through a running service, comparing engines."""
    from .flywheel import run_soak
    from .service import ServiceClient, ServiceClientError

    client = ServiceClient(args.url)
    with user_errors(ServiceClientError, OSError, prefix="service error: "):
        report = run_soak(
            client,
            seed=args.seed,
            count=args.count,
            batch=args.batch,
            timeout=args.timeout,
        )
    print(report.summary())
    for record in report.divergences:
        print(f"  point {record['index']}: {record['detail']}")
    return 0 if report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the scenario service in the foreground until stopped.

    Stops on ``POST /shutdown`` or Ctrl-C; either way pending points are
    marked ``cancelled`` before the process exits (see docs/SERVICE.md).
    """
    from .service import ScenarioService, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        data_dir=args.data_dir,
        pool_jobs=args.jobs,
        no_cache=args.no_cache,
        base_seed=args.base_seed,
        max_queue_depth=args.queue_depth,
        retry_max_attempts=args.retry_attempts,
        executor=args.executor,
    )
    # ValueError: a corrupt journal (CorruptLogError) or a negative --jobs,
    # both raised before the socket is bound.
    with user_errors(ValueError):
        with user_errors(OSError, prefix=f"cannot bind {args.host}:{args.port}: "):
            service = ScenarioService(config).start()
    print(f"serving on {service.url}", flush=True)
    if args.data_dir:
        print(f"results persist to {args.data_dir}", flush=True)
    if service.recovered_jobs:
        print(
            f"recovered {len(service.recovered_jobs)} unfinished job(s) "
            f"from the journal: {', '.join(service.recovered_jobs)}",
            flush=True,
        )
    try:
        # The worker thread lives for the service's whole life; waiting on
        # it is how the foreground process notices a POST /shutdown.
        while service.worker.is_alive():
            service.worker.join(timeout=0.5)
    except KeyboardInterrupt:
        print("\nshutting down", flush=True)
    finally:
        service.shutdown()
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit a scenario grid to a running service (and optionally wait)."""
    from .service import ServiceClient, ServiceClientError

    payload = _load_spec_payload(args.spec)
    client = ServiceClient(args.url, retries=args.retries)
    with user_errors(
        ServiceClientError, OSError, prefix=f"submit to {args.url} failed: "
    ):
        submitted = client.submit(payload)
    print(f"{submitted['job_id']}: {submitted['points']} points queued")
    if not args.wait:
        return 0
    with user_errors(ServiceClientError, OSError):  # TimeoutError is an OSError
        final = client.wait(submitted["job_id"], timeout=args.timeout)
    counts = final["counts"]
    print(
        f"{final['job_id']}: {final['status']} "
        f"({counts['cached']} cached, {counts['done']} computed, "
        f"{counts['failed']} failed, {counts['cancelled']} cancelled)"
    )
    # done_with_errors still exits non-zero: completed rows are served,
    # but a quarantined point is a failure the caller must notice.
    return 0 if final["status"] == "done" else 1


def cmd_cancel(args: argparse.Namespace) -> int:
    """Request cancellation of a job on a running service."""
    from .service import ServiceClient, ServiceClientError

    client = ServiceClient(args.url)
    with user_errors(
        ServiceClientError, OSError, prefix=f"cancel at {args.url} failed: "
    ):
        try:
            outcome = client.cancel(args.job)
        except ServiceClientError as exc:
            # 409 is a meaningful answer, not a failure: the job already
            # reached a terminal state, so there is nothing left to cancel.
            if exc.code != 409:
                raise
            print(f"{args.job}: already terminal")
            return 1
    print(f"{outcome['job_id']}: cancellation requested")
    return 0


def cmd_service_chaos(args: argparse.Namespace) -> int:
    """Run the service chaos campaign (fault injection + invariants)."""
    from .service.chaos import ChaosConfig, run_chaos_campaign

    report = run_chaos_campaign(
        ChaosConfig(scenarios=args.scenarios, seed=args.seed)
    )
    print(report.summary())
    for scenario, violation in report.violations:
        print(
            f"  scenario {scenario.index} ({scenario.kind}, "
            f"seed {scenario.seed}): {violation.oracle}: {violation.detail}"
        )
    return 0 if report.ok else 1


def cmd_status(args: argparse.Namespace) -> int:
    """Show a running service's jobs, or one job's per-point status."""
    from .service import ServiceClient, ServiceClientError

    client = ServiceClient(args.url)
    with user_errors(
        ServiceClientError, OSError, prefix=f"status from {args.url} failed: "
    ):
        found = client.job(args.job) if args.job else client.jobs()
    if not args.job:
        rows = [
            [
                job["job_id"],
                job["status"],
                sum(job["counts"].values()),
                job["counts"]["cached"],
                job["counts"]["failed"],
            ]
            for job in found
        ]
        print(
            format_table(
                ["job", "status", "points", "cached", "failed"],
                rows,
                title=f"jobs at {args.url}",
            )
        )
        return 0
    rows = [
        [
            point["index"],
            point["status"],
            point["protocol"],
            f"n={point['n']},t={point['t']}",
            point["backend"],
            point["adversary"],
            point.get("rounds", "-"),
            point.get("ok", "-"),
        ]
        for point in found["points"]
    ]
    print(
        format_table(
            ["#", "status", "protocol", "network", "backend", "adversary",
             "rounds", "AA ok"],
            rows,
            title=f"{found['job_id']}: {found['status']}",
        )
    )
    return 0


def cmd_chain_demo(args: argparse.Namespace) -> int:
    """Execute Fekete's one-round chain-of-views construction."""
    demo = demonstrate_real(trimmed_mean_rule(args.t), args.n, args.t, 0.0, 1.0)
    rows = [
        [k, " ".join(format(x, "g") for x in view), round(output, 4)]
        for k, (view, output) in enumerate(zip(demo.views, demo.outputs))
    ]
    print(
        format_table(
            ["k", "view V_k", "f(V_k)"],
            rows,
            title=f"Fekete chain, one round, n={args.n}, t={args.t}",
        )
    )
    print(
        f"\nforced gap {demo.max_gap:.4f} >= guaranteed {demo.guaranteed_gap:.4f} "
        f">= K(1, 1) = {fekete_K(1, 1.0, args.n, args.t):.4f}"
    )
    return 0


# ----------------------------------------------------------------------
# The parser
# ----------------------------------------------------------------------

#: Each argument's argparse options, declared once.  A key without the
#: ``--`` prefix is a positional argument.
FLAGS: Dict[str, Dict[str, Any]] = {
    # -- one execution ------------------------------------------------
    "--kind": dict(default="tree-aa", choices=["tree-aa", "real-aa"]),
    "--tree": dict(required=True, help="tree spec (e.g. path:30)"),
    "--n": dict(type=int, default=7),
    "--t": dict(type=int, default=2),
    "--inputs": dict(
        default="random:0",
        help="tree-aa: labels or random[:SEED]; real-aa: comma-separated reals",
    ),
    "--epsilon": dict(type=float, default=0.5, help="RealAA's agreement parameter ε"),
    "--adversary": dict(default="burn"),
    "--diameter": dict(type=float, required=True),
    "--out": dict(
        help="output path: the JSONL trace (trace), or the minimal "
        "reproduction as a corpus case JSON (shrink)"
    ),
    "trace": dict(help="path to a file written by `repro trace`"),
    "--rounds": dict(
        type=int, help="limit the per-round table to the first N rounds"
    ),
    "tree": dict(help="tree spec (e.g. caterpillar:6x2)"),
    "--format": dict(default="edges", choices=["edges", "json", "dot"]),
    # -- the parallel engine ------------------------------------------
    "--jobs": dict(
        type=int, default=1, help="worker processes (0 = all cores)"
    ),
    "--cache-dir": dict(help="result cache directory"),
    "--no-cache": dict(action="store_true", help="disable the result cache"),
    "--base-seed": dict(type=int, default=0),
    "--families": dict(
        default="path,caterpillar,random,star",
        help="tree-aa: comma-separated tree families",
    ),
    "--sizes": dict(default="15,63,255", help="tree-aa: comma-separated |V(T)|"),
    "--networks": dict(default="7:2,13:4", help="real-aa: comma-separated n:t"),
    "--spreads": dict(default="16,1024", help="real-aa: comma-separated D"),
    "--jsonl": dict(help="also persist the sweep rows as machine-readable JSONL"),
    "--backend": dict(
        default="reference",
        choices=SPEC_BACKENDS,
        help="execution engine (batch = vectorized large-n engine)",
    ),
    "--spec": dict(
        metavar="FILE",
        help="run ScenarioSpecs from a JSON file instead of --kind grids "
        "(one spec, a list, or a base+grid payload; shares the scenario "
        "service's cache entries)",
    ),
    # -- campaigns ----------------------------------------------------
    "--count": dict(type=int, default=200, help="points in the campaign"),
    "--seed": dict(type=int, default=0, help="campaign master seed"),
    "--protocols": dict(
        help="comma-separated protocol subset (default: all three)"
    ),
    "--adversaries": dict(help="comma-separated adversary kinds (default: all)"),
    "--corruption-ratio": dict(
        type=float, help="|F|/n for every scenario (past 1/3 = degradation mode)"
    ),
    "--fault-probability": dict(
        type=float,
        default=0.0,
        help="cap for sampled drop/duplicate/corrupt probabilities",
    ),
    "--allow-model-violations": dict(
        action="store_true",
        help="required with --fault-probability: fault plans break the "
        "Byzantine model on purpose",
    ),
    "--corpus-dir": dict(
        metavar="DIR",
        help="shrink each divergence and file it here as a corpus case "
        "(inputs for `repro shrink`)",
    ),
    "--ledger": dict(
        help="campaign ledger JSONL, one row per point (the resume checkpoint)"
    ),
    "ledger": dict(help="campaign ledger JSONL"),
    "--shard-size": dict(type=int, default=250, help="points per checkpointed shard"),
    "--max-shrink-checks": dict(
        type=int, default=200, help="execution budget per divergence shrink"
    ),
    "--inject-divergence": dict(
        metavar="NAME",
        help="perturb batch rows via a named seam (rounds, verdicts) or "
        "module:function — oracle self-testing only; implies --no-cache",
    ),
    "--perturbation": dict(
        default="rounds", help="named seam (rounds, verdicts) or module:function"
    ),
    "--workdir": dict(
        help="where the throwaway ledger/corpus land (default: a tempdir)"
    ),
    "scenario": dict(
        help="spec JSON, or a corpus case (e.g. from `repro campaign --corpus-dir`)"
    ),
    "--description": dict(
        default="shrunk by `repro shrink`",
        help="description stored in the corpus case",
    ),
    "--max-checks": dict(
        type=int, default=400, help="execution budget for the shrinker"
    ),
    "--scenarios": dict(type=int, default=50, help="seeded scenario count"),
    # -- the scenario service -----------------------------------------
    "--host": dict(default="127.0.0.1"),
    "--port": dict(type=int, default=8642, help="bind port (0 = pick a free one)"),
    "--data-dir": dict(
        help="persist finished jobs as sweep JSONL here (also what "
        "GET /results queries across restarts)"
    ),
    "--queue-depth": dict(
        type=int,
        default=64,
        help="jobs allowed to queue before POST /jobs sheds load with "
        "429 (0 = unlimited)",
    ),
    "--retry-attempts": dict(
        type=int,
        default=3,
        help="attempts per point before it is quarantined as failed",
    ),
    "--executor": dict(
        help="point executor as module:function (default: the real one; "
        "the chaos harness injects faults here)"
    ),
    "spec": dict(help="JSON file: one ScenarioSpec, a list, or a base+grid payload"),
    "--url": dict(default="http://127.0.0.1:8642", help="service base URL"),
    "--wait": dict(action="store_true", help="poll until the job finishes"),
    "--timeout": dict(type=float, default=300.0, help="wait deadline in seconds"),
    "--retries": dict(
        type=int,
        default=0,
        help="retransmit through connection errors/5xx/429 this many "
        "times (deterministic seeds make resubmission cache-safe)",
    ),
    "job": dict(help="job id (omit to list with `status`)"),
    "--batch": dict(type=int, default=50, help="points per job"),
}

_POOL = ["--jobs", "--cache-dir", "--no-cache"]
_FLYWHEEL_RUN = [
    "--seed", ("--count", dict(default=5000)),
    ("--ledger", dict(default="flywheel-ledger.jsonl")), "--shard-size",
    *_POOL, "--corpus-dir", "--max-shrink-checks", "--inject-divergence",
]

#: ``(sub)command -> (help, handler, arguments)``.  An argument is a
#: :data:`FLAGS` key, or ``(key, overrides)`` where this command's
#: default, ``required`` or ``nargs`` differs.  A group (``flywheel``)
#: has no handler and ``None`` for arguments; its subcommands follow.
COMMANDS: Dict[str, Any] = {
    "tree-aa": ("run TreeAA", cmd_tree_aa,
                ["--tree", "--n", "--t", "--inputs", "--adversary"]),
    "auth-tree-aa": (
        "run the authenticated (t < n/2) TreeAA", cmd_auth_tree_aa,
        ["--tree", ("--n", dict(default=5)), "--t", "--inputs",
         ("--adversary", dict(default="passive"))],
    ),
    "real-aa": (
        "run RealAA(eps)", cmd_real_aa,
        [("--inputs", dict(default=None, required=True)), ("--t", dict(default=1)),
         "--epsilon", ("--adversary", dict(default="silent"))],
    ),
    "sweep": (
        "run an experiment grid (parallel, cached)", cmd_sweep,
        ["--kind", *_POOL, "--base-seed", "--n", "--t", "--families", "--sizes",
         "--networks", "--spreads", ("--epsilon", dict(default=1.0)),
         "--adversary", "--jsonl", "--backend", "--spec"],
    ),
    "trace": (
        "record one execution as a JSONL trace", cmd_trace,
        ["--kind", ("--tree", dict(required=False)), "--n", "--t", "--inputs",
         "--epsilon", "--adversary", ("--out", dict(required=True))],
    ),
    "report": ("summarise a recorded JSONL trace", cmd_report, ["trace", "--rounds"]),
    "bounds": (
        "print the paper's round bounds", cmd_bounds,
        ["--diameter", ("--n", dict(default=13)), ("--t", dict(default=4)),
         ("--epsilon", dict(default=1.0))],
    ),
    "make-tree": ("generate and print a tree", cmd_make_tree, ["tree", "--format"]),
    # `main` hands `lint` to the linter's own parser; it is listed here
    # for `repro --help`.
    "lint": ("run the protocol-invariant linter (PL001-PL004)", None, []),
    "campaign": (
        "run a seeded fault-injection campaign through the flywheel oracles",
        cmd_campaign,
        ["--count", "--seed", *_POOL, "--epsilon", "--protocols", "--adversaries",
         "--corruption-ratio", "--fault-probability", "--allow-model-violations",
         "--corpus-dir", "--ledger"],
    ),
    "shrink": (
        "delta-debug a violating spec JSON to a minimal reproduction", cmd_shrink,
        ["scenario", "--out", "--description", "--max-checks"],
    ),
    "serve": (
        "run the scenario service (sweep-as-a-service)", cmd_serve,
        ["--host", "--port", *_POOL, "--data-dir", "--base-seed", "--queue-depth",
         "--retry-attempts", "--executor"],
    ),
    "submit": (
        "submit a scenario grid to a running service", cmd_submit,
        ["spec", "--url", "--wait", "--timeout", "--retries"],
    ),
    "status": (
        "show a running service's jobs (or one job's points)", cmd_status,
        [("job", dict(nargs="?")), "--url"],
    ),
    "cancel": ("request cancellation of a running service job", cmd_cancel,
               ["job", "--url"]),
    "service-chaos": (
        "chaos-test the scenario service (fault injection + invariants)",
        cmd_service_chaos, ["--scenarios", "--seed"],
    ),
    "flywheel": ("resumable differential mega-campaigns (docs/FLYWHEEL.md)", None, None),
    "flywheel run": ("start a fresh campaign", cmd_flywheel_run, _FLYWHEEL_RUN),
    "flywheel resume": ("continue a killed campaign from its ledger",
                        cmd_flywheel_run, _FLYWHEEL_RUN),
    "flywheel status": ("summarise a campaign ledger", cmd_flywheel_status, ["ledger"]),
    "flywheel selftest": (
        "inject a batch bug; assert it is detected, shrunk, and filed",
        cmd_flywheel_selftest,
        [("--seed", dict(default=2025)), ("--count", dict(default=24)), "--jobs",
         "--perturbation", "--workdir"],
    ),
    "flywheel soak": (
        "stream the campaign through a running service", cmd_flywheel_soak,
        [("--url", dict(default=None, required=True)), "--seed",
         ("--count", dict(default=500)), "--batch", "--timeout"],
    ),
    "chain-demo": ("Fekete's chain of views, executed", cmd_chain_demo, ["--n", "--t"]),
}


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser: one subparser per
    :data:`COMMANDS` entry, its arguments taken from :data:`FLAGS`."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Round-optimal Byzantine Approximate Agreement on trees",
    )
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for path, (help_text, func, arguments) in COMMANDS.items():
        group, _, name = path.rpartition(" ")
        sub = groups[group].add_parser(name, help=help_text)
        if arguments is None:
            groups[path] = sub.add_subparsers(dest=f"{path}_command", required=True)
            continue
        sub.set_defaults(func=func)
        for argument in arguments:
            key, overrides = argument if isinstance(argument, tuple) else (argument, {})
            sub.add_argument(key, **{**FLAGS[key], **overrides})
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code (2 = usage error)."""
    arglist = list(argv) if argv is not None else sys.argv[1:]
    # `lint` forwards its flags verbatim to the shared linter CLI;
    # argparse.REMAINDER cannot capture leading optionals, so dispatch
    # before the main parser sees them.
    if arglist[:1] == ["lint"]:
        from .statics.cli import run as lint_run

        return lint_run(arglist[1:], prog="repro lint")
    args = build_parser().parse_args(arglist)
    try:
        return args.func(args)
    except (CLIError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout went away (e.g. `repro report ... | head`); exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())

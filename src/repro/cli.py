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
``campaign``    run a seeded fault-injection campaign with invariant
                oracles (``--count``, ``--seed``, degradation knobs)
``shrink``      delta-debug a violating ScenarioSpec JSON to a minimal
                reproduction (``repro campaign --save-violations`` or a
                corpus file supplies the input)
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

``tree-aa``, ``real-aa``, ``trace`` and ``sweep`` describe every run as a
:class:`~repro.analysis.spec.ScenarioSpec` and execute that.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import replace
from typing import Any, List, Optional, Sequence

from .adversary import NoAdversary
from .analysis import format_table
from .analysis.spec import (
    BASELINE_PROTOCOL,
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
    try:
        return build_adversary(adversary_spec(spec), t=t)
    except SpecError as exc:
        raise CLIError(str(exc)) from None


def pick_inputs(tree: LabeledTree, spec: str, n: int) -> List:
    """Parse ``--inputs``: a comma list of labels, or ``random[:SEED]``."""
    if spec.startswith("random"):
        parts = spec.split(":")
        seed = int(parts[1]) if len(parts) > 1 else 0
        rng = random.Random(seed)
        return [rng.choice(tree.vertices) for _ in range(n)]
    labels = [label.strip() for label in spec.split(",") if label.strip()]
    if len(labels) != n:
        raise CLIError(f"need exactly n={n} inputs, got {len(labels)}")
    for label in labels:
        if label not in tree:
            raise CLIError(f"input {label!r} is not a vertex of the tree")
    return labels


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def _tree_spec(args: argparse.Namespace, **fields: Any) -> ScenarioSpec:
    """The ``tree-aa`` spec of ``--tree``/``--inputs``/``--n``/``--t``."""
    tree = parse_tree_spec(args.tree)
    return ScenarioSpec(
        protocol="tree-aa",
        n=args.n,
        t=args.t,
        tree=args.tree,
        inputs=tuple(pick_inputs(tree, args.inputs, args.n)),
        adversary=adversary_spec(args.adversary),
        **fields,
    )


def _real_spec(args: argparse.Namespace, **fields: Any) -> ScenarioSpec:
    """The ``real-aa`` spec of ``--inputs``/``--t``/``--epsilon``."""
    try:
        inputs = tuple(float(x) for x in args.inputs.split(","))
    except ValueError as exc:
        raise CLIError(f"malformed inputs: {exc}") from None
    return ScenarioSpec(
        protocol="real-aa",
        n=len(inputs),
        t=args.t,
        inputs=inputs,
        adversary=adversary_spec(args.adversary),
        epsilon=args.epsilon,
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
    outcome = _tree_spec(args).run()
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
    outcome = _real_spec(args).run()
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
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise CLIError(f"cannot read spec file {path!r}: {exc}") from None
    if isinstance(payload, list):
        return {"points": payload}
    if isinstance(payload, dict) and "points" not in payload and "grid" not in payload:
        return {"points": [payload]}
    if not isinstance(payload, dict):
        raise CLIError(f"spec file {path!r} must hold a JSON object or list")
    return payload


def _spec_sweep_grid(args: argparse.Namespace) -> Any:
    """``repro sweep --spec``: the planned specs, one table row each."""
    from .service import PlanError, plan_points

    try:
        specs = plan_points(_load_spec_payload(args.spec), base_seed=args.base_seed)
    except PlanError as exc:
        raise CLIError(str(exc)) from None
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
            try:
                tree = tree_spec_for(family, int(size))
            except ValueError as exc:
                raise CLIError(str(exc)) from None
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
    try:
        networks = [
            tuple(int(x) for x in pair.split(":"))
            for pair in args.networks.split(",")
        ]
        spreads = [float(s) for s in args.spreads.split(",")]
    except ValueError as exc:
        raise CLIError(f"malformed sweep grid: {exc}") from None
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

    if args.jobs < 0:
        raise CLIError("--jobs must be >= 1, or 0 for all cores")
    name, runner = SPEC_SWEEP_NAME, SPEC_RUNNER
    if args.spec:
        grid, headers, table = _spec_sweep_grid(args)
        title = f"sweep scenario-spec ({len(grid)} points)"
    else:
        title = f"sweep {args.kind} (adversary={args.adversary})"
        if args.kind == "tree-aa":
            grid, headers, table = _tree_sweep_grid(args)
        else:
            grid, headers, table = _real_sweep_grid(args)
            name, runner = "cli-real-aa", "realaa-point"
    try:
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
    except UnsupportedBackendError as exc:
        # e.g. --backend batch with an adversary the batch engine cannot
        # replay: the refusal is part of the contract, but the CLI
        # surfaces it as a clean error, not a traceback.
        raise CLIError(str(exc)) from None
    rows = table(report.rows)
    print(format_table(headers, rows, title=title))
    print()
    print(report.summary())
    return 0 if all(row[-1] for row in rows) else 1


def cmd_trace(args: argparse.Namespace) -> int:
    """Record one protocol execution as a JSONL trace file."""
    if args.kind == "tree-aa":
        if not args.tree:
            raise CLIError("--tree is required for tree-aa traces")
        spec = _tree_spec(args, record=True)
    else:
        spec = _real_spec(args, record=True)
    row = execute_spec_point(spec)
    lines = row["trace_jsonl"].splitlines()
    try:
        with open(args.out, "w") as handle:
            handle.write(row["trace_jsonl"])
    except OSError as exc:
        raise CLIError(f"cannot write {args.out!r}: {exc}") from None
    footer = json.loads(lines[-1])
    print(
        f"recorded {footer['rounds']} rounds "
        f"({footer['messages']} messages, {len(lines)} records) -> {args.out}"
    )
    return 0 if row["ok"] else 1


def cmd_report(args: argparse.Namespace) -> int:
    """Render the summary of a recorded JSONL trace."""
    from .observability import TraceFormatError, load_run, render_report

    try:
        run = load_run(args.trace)
    except OSError as exc:
        raise CLIError(f"cannot read {args.trace!r}: {exc}") from None
    except TraceFormatError as exc:
        raise CLIError(str(exc)) from None
    print(render_report(run, max_rounds=args.rounds))
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    """Print the paper's round bounds for the given D, n, t, eps."""
    d, n, t = args.diameter, args.n, args.t
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
    elif args.format == "dot":
        print(tree_to_dot(tree))
    else:
        raise CLIError(f"unknown format {args.format!r}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the protocol-invariant linter (shared with tools/protolint.py).

    Exit codes follow the linter's contract: 0 clean, 1 findings,
    2 usage error.
    """
    from .statics.cli import run as lint_run

    return lint_run(args.lint_args, prog="repro lint")


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run a seeded resilience campaign and summarise the verdicts.

    Exit code 0 when every scenario satisfies every oracle, 1 otherwise —
    so a clean campaign doubles as a CI gate.
    """
    import json as json_module

    from .resilience import CampaignConfig, run_campaign

    overrides = {}
    if args.protocols:
        overrides["protocols"] = tuple(args.protocols.split(","))
    if args.adversaries:
        overrides["adversaries"] = tuple(args.adversaries.split(","))
    try:
        config = CampaignConfig(
            count=args.count,
            seed=args.seed,
            corruption_ratio=args.corruption_ratio,
            max_fault_probability=args.fault_probability,
            allow_model_violations=args.allow_model_violations,
            epsilon=args.epsilon,
            **overrides,
        )
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    try:
        report = run_campaign(
            config,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            no_cache=args.no_cache,
            jsonl_path=args.jsonl,
        )
    except ValueError as exc:
        # e.g. a typo'd --adversaries name surfacing as a SpecError
        # during generation
        raise CLIError(str(exc)) from None
    print(report.summary())
    if report.violating_rows:
        print()
        rows = [
            [
                row["protocol"],
                row["adversary"],
                f"n={row['n']},t={row['t']},|F|={row['n_corrupt']}",
                ",".join(row["violated"]),
            ]
            for row in report.violating_rows[: args.show]
        ]
        print(
            format_table(
                ["protocol", "adversary", "parameters", "violated oracles"],
                rows,
                title=f"violating scenarios (first {len(rows)})",
            )
        )
    if args.save_violations:
        os.makedirs(args.save_violations, exist_ok=True)
        for index, row in enumerate(report.violating_rows):
            path = os.path.join(
                args.save_violations, f"violation-{index:04d}.json"
            )
            with open(path, "w") as handle:
                json_module.dump(row["spec"], handle, indent=2, sort_keys=True)
                handle.write("\n")
        print(
            f"\nsaved {len(report.violating_rows)} violating scenarios "
            f"to {args.save_violations}/"
        )
    return 0 if report.ok else 1


def cmd_shrink(args: argparse.Namespace) -> int:
    """Delta-debug a violating spec JSON to a minimal reproduction."""
    import json as json_module

    from .analysis.spec import ScenarioSpec
    from .resilience import (
        NotViolatingError,
        ReproCase,
        save_case,
        shrink,
        shrink_report,
    )

    try:
        with open(args.scenario) as handle:
            payload = json_module.load(handle)
    except (OSError, ValueError) as exc:
        raise CLIError(f"cannot read {args.scenario!r}: {exc}") from None
    # Accept both bare specs and full corpus cases.
    if isinstance(payload, dict) and "protocol" not in payload:
        payload = payload.get("spec")
    try:
        spec = ScenarioSpec.from_dict(payload)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CLIError(f"malformed spec: {exc}") from None
    try:
        result = shrink(spec, max_checks=args.max_checks)
    except NotViolatingError as exc:
        raise CLIError(str(exc)) from None
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
        print(
            json_module.dumps(result.minimal.to_dict(), indent=2, sort_keys=True)
        )
    return 0


def _flywheel_config(args: argparse.Namespace) -> Any:
    """Build a :class:`~repro.flywheel.FlywheelConfig` from CLI flags."""
    from .flywheel import FlywheelConfig
    from .flywheel.selftest import PERTURBATIONS

    perturb = getattr(args, "inject_divergence", None)
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
    import json as json_module

    print(report.summary())
    for record in report.divergences:
        line = {
            "index": record.get("index"),
            "oracles": record.get("oracles"),
            "case": record.get("case"),
            "shrunk": record.get("shrunk"),
        }
        print(json_module.dumps(line, sort_keys=True))
    return 0 if report.ok else 1


def cmd_flywheel_run(args: argparse.Namespace) -> int:
    """Start a fresh differential campaign (see docs/FLYWHEEL.md)."""
    from .flywheel import run_flywheel

    try:
        report = run_flywheel(_flywheel_config(args))
    except ValueError as exc:  # LedgerError, CorruptLogError
        raise CLIError(str(exc)) from None
    return _flywheel_finish(report)


def cmd_flywheel_resume(args: argparse.Namespace) -> int:
    """Continue a killed campaign from its ledger (exactly-once)."""
    from .flywheel import run_flywheel

    try:
        report = run_flywheel(_flywheel_config(args), resume=True)
    except ValueError as exc:  # LedgerError, CorruptLogError
        raise CLIError(str(exc)) from None
    return _flywheel_finish(report)


def cmd_flywheel_status(args: argparse.Namespace) -> int:
    """Summarise a campaign ledger: progress, divergences, completion."""
    from .flywheel import load_state

    try:
        state = load_state(args.ledger)
    except ValueError as exc:  # LedgerError, CorruptLogError
        raise CLIError(str(exc)) from None
    if state.header is None:
        raise CLIError(f"{args.ledger!r} holds no campaign header")
    header = state.header
    remaining = len(state.remaining())
    print(
        f"flywheel seed={header['seed']}: "
        f"{len(state.executed)}/{header['count']} points executed, "
        f"{remaining} remaining, {len(state.divergences)} divergences, "
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
        report = run_selftest(
            os.path.join(workdir, "ledger.jsonl"),
            os.path.join(workdir, "corpus"),
            seed=args.seed,
            count=args.count,
            jobs=args.jobs,
            perturbation=args.perturbation,
        )
    except SelfTestError as exc:
        raise CLIError(str(exc)) from None
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
    try:
        report = run_soak(
            client,
            seed=args.seed,
            count=args.count,
            batch=args.batch,
            timeout=args.timeout,
        )
    except ServiceClientError as exc:
        raise CLIError(f"service error: {exc}") from None
    print(report.summary())
    for record in report.divergences:
        print(f"  point {record['index']}: {record['detail']}")
    return 0 if report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the scenario service in the foreground until stopped.

    Stops on ``POST /shutdown`` or Ctrl-C; either way pending points are
    marked ``cancelled`` before the process exits (see docs/SERVICE.md).
    """
    from .jsonlog import CorruptLogError
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
    try:
        service = ScenarioService(config).start()
    except CorruptLogError as exc:
        raise CLIError(str(exc)) from None
    except OSError as exc:
        raise CLIError(f"cannot bind {args.host}:{args.port}: {exc}") from None
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
    try:
        submitted = client.submit(payload)
    except (ServiceClientError, OSError) as exc:
        raise CLIError(f"submit to {args.url} failed: {exc}") from None
    print(f"{submitted['job_id']}: {submitted['points']} points queued")
    if not args.wait:
        return 0
    try:
        final = client.wait(submitted["job_id"], timeout=args.timeout)
    except (ServiceClientError, OSError, TimeoutError) as exc:
        raise CLIError(str(exc)) from None
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
    try:
        outcome = client.cancel(args.job)
    except ServiceClientError as exc:
        # 409 is a meaningful answer, not a failure: the job already
        # reached a terminal state, so there is nothing left to cancel.
        if exc.code == 409:
            print(f"{args.job}: already terminal")
            return 1
        raise CLIError(f"cancel at {args.url} failed: {exc}") from None
    except OSError as exc:
        raise CLIError(f"cancel at {args.url} failed: {exc}") from None
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
    try:
        if not args.job:
            jobs = client.jobs()
            rows = [
                [
                    job["job_id"],
                    job["status"],
                    sum(job["counts"].values()),
                    job["counts"]["cached"],
                    job["counts"]["failed"],
                ]
                for job in jobs
            ]
            print(
                format_table(
                    ["job", "status", "points", "cached", "failed"],
                    rows,
                    title=f"jobs at {args.url}",
                )
            )
            return 0
        status = client.job(args.job)
    except (ServiceClientError, OSError) as exc:
        raise CLIError(f"status from {args.url} failed: {exc}") from None
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
        for point in status["points"]
    ]
    print(
        format_table(
            ["#", "status", "protocol", "network", "backend", "adversary",
             "rounds", "AA ok"],
            rows,
            title=f"{status['job_id']}: {status['status']}",
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


def build_parser() -> argparse.ArgumentParser:
    """The `python -m repro` argument parser, one subcommand per cmd_*."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Round-optimal Byzantine Approximate Agreement on trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tree-aa", help="run TreeAA")
    p.add_argument("--tree", required=True, help="tree spec (e.g. path:30)")
    p.add_argument("--n", type=int, default=7)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--inputs", default="random:0", help="labels or random[:SEED]")
    p.add_argument("--adversary", default="burn")
    p.set_defaults(func=cmd_tree_aa)

    p = sub.add_parser(
        "auth-tree-aa", help="run the authenticated (t < n/2) TreeAA"
    )
    p.add_argument("--tree", required=True)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--inputs", default="random:0")
    p.add_argument("--adversary", default="passive")
    p.set_defaults(func=cmd_auth_tree_aa)

    p = sub.add_parser("real-aa", help="run RealAA(eps)")
    p.add_argument("--inputs", required=True, help="comma-separated reals")
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--adversary", default="silent")
    p.set_defaults(func=cmd_real_aa)

    p = sub.add_parser(
        "sweep", help="run an experiment grid (parallel, cached)"
    )
    p.add_argument(
        "--kind", default="tree-aa", choices=["tree-aa", "real-aa"]
    )
    p.add_argument("--jobs", type=int, default=1, help="worker processes (0 = all cores)")
    p.add_argument("--cache-dir", default=None, help="result cache directory")
    p.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--n", type=int, default=7)
    p.add_argument("--t", type=int, default=2)
    p.add_argument(
        "--families",
        default="path,caterpillar,random,star",
        help="tree-aa: comma-separated tree families",
    )
    p.add_argument(
        "--sizes", default="15,63,255", help="tree-aa: comma-separated |V(T)|"
    )
    p.add_argument(
        "--networks", default="7:2,13:4", help="real-aa: comma-separated n:t"
    )
    p.add_argument(
        "--spreads", default="16,1024", help="real-aa: comma-separated D"
    )
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--adversary", default="burn")
    p.add_argument(
        "--jsonl",
        default=None,
        help="also persist the sweep rows as machine-readable JSONL",
    )
    p.add_argument(
        "--backend",
        default="reference",
        choices=["reference", "batch"],
        help="execution engine (batch = vectorized large-n engine)",
    )
    p.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="run ScenarioSpecs from a JSON file instead of --kind grids "
        "(one spec, a list, or a base+grid payload; shares the scenario "
        "service's cache entries)",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "trace", help="record one execution as a JSONL trace"
    )
    p.add_argument(
        "--kind", default="tree-aa", choices=["tree-aa", "real-aa"]
    )
    p.add_argument("--tree", help="tree spec (tree-aa only)")
    p.add_argument("--n", type=int, default=7)
    p.add_argument("--t", type=int, default=2)
    p.add_argument(
        "--inputs",
        default="random:0",
        help="tree-aa: labels or random[:SEED]; real-aa: comma-separated reals",
    )
    p.add_argument("--epsilon", type=float, default=0.5, help="real-aa only")
    p.add_argument("--adversary", default="burn")
    p.add_argument("--out", required=True, help="JSONL trace output path")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "report", help="summarise a recorded JSONL trace"
    )
    p.add_argument("trace", help="path to a file written by `repro trace`")
    p.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="limit the per-round table to the first N rounds",
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("bounds", help="print the paper's round bounds")
    p.add_argument("--diameter", type=float, required=True)
    p.add_argument("--n", type=int, default=13)
    p.add_argument("--t", type=int, default=4)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("make-tree", help="generate and print a tree")
    p.add_argument("tree", help="tree spec (e.g. caterpillar:6x2)")
    p.add_argument("--format", default="edges", choices=["edges", "json", "dot"])
    p.set_defaults(func=cmd_make_tree)

    p = sub.add_parser(
        "lint",
        help="run the protocol-invariant linter (PL001-PL004)",
        add_help=False,
    )
    p.add_argument(
        "lint_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to the linter (see `repro lint --help`)",
    )
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "campaign",
        help="run a seeded fault-injection campaign with invariant oracles",
    )
    p.add_argument("--count", type=int, default=200, help="scenarios to generate")
    p.add_argument("--seed", type=int, default=0, help="campaign master seed")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (0 = all cores)")
    p.add_argument("--cache-dir", default=None, help="result cache directory")
    p.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument(
        "--protocols",
        default=None,
        help="comma-separated protocol subset (default: all three)",
    )
    p.add_argument(
        "--adversaries",
        default=None,
        help="comma-separated adversary kinds (default: all)",
    )
    p.add_argument(
        "--corruption-ratio",
        type=float,
        default=None,
        help="|F|/n for every scenario (past 1/3 = degradation mode)",
    )
    p.add_argument(
        "--fault-probability",
        type=float,
        default=0.0,
        help="cap for sampled drop/duplicate/corrupt probabilities",
    )
    p.add_argument(
        "--allow-model-violations",
        action="store_true",
        help="required with --fault-probability: fault plans break the "
        "Byzantine model on purpose",
    )
    p.add_argument(
        "--show", type=int, default=10, help="violating scenarios to print"
    )
    p.add_argument(
        "--save-violations",
        default=None,
        metavar="DIR",
        help="write violating specs as JSON files (inputs for `repro shrink`)",
    )
    p.add_argument(
        "--jsonl",
        default=None,
        help="also persist every scenario row as machine-readable JSONL",
    )
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "shrink",
        help="delta-debug a violating spec JSON to a minimal reproduction",
    )
    p.add_argument(
        "scenario",
        help="spec JSON (from `repro campaign --save-violations` or a corpus case)",
    )
    p.add_argument(
        "--out",
        default=None,
        help="write the minimal reproduction as a corpus case JSON",
    )
    p.add_argument(
        "--description",
        default="shrunk by `repro shrink`",
        help="description stored in the corpus case",
    )
    p.add_argument(
        "--max-checks",
        type=int,
        default=400,
        help="execution budget for the shrinker",
    )
    p.set_defaults(func=cmd_shrink)

    p = sub.add_parser(
        "serve", help="run the scenario service (sweep-as-a-service)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8642, help="bind port (0 = pick a free one)"
    )
    p.add_argument("--jobs", type=int, default=1, help="worker processes per job")
    p.add_argument("--cache-dir", default=None, help="result cache directory")
    p.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    p.add_argument(
        "--data-dir",
        default=None,
        help="persist finished jobs as sweep JSONL here (also what "
        "GET /results queries across restarts)",
    )
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        help="jobs allowed to queue before POST /jobs sheds load with "
        "429 (0 = unlimited)",
    )
    p.add_argument(
        "--retry-attempts",
        type=int,
        default=3,
        help="attempts per point before it is quarantined as failed",
    )
    p.add_argument(
        "--executor",
        default=None,
        help="point executor as module:function (default: the real one; "
        "the chaos harness injects faults here)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "submit", help="submit a scenario grid to a running service"
    )
    p.add_argument(
        "spec",
        help="JSON file: one ScenarioSpec, a list, or a base+grid payload",
    )
    p.add_argument("--url", default="http://127.0.0.1:8642")
    p.add_argument(
        "--wait", action="store_true", help="poll until the job finishes"
    )
    p.add_argument(
        "--timeout", type=float, default=300.0, help="--wait deadline in seconds"
    )
    p.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retransmit through connection errors/5xx/429 this many "
        "times (deterministic seeds make resubmission cache-safe)",
    )
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser(
        "status", help="show a running service's jobs (or one job's points)"
    )
    p.add_argument("job", nargs="?", default=None, help="job id (omit to list)")
    p.add_argument("--url", default="http://127.0.0.1:8642")
    p.set_defaults(func=cmd_status)

    p = sub.add_parser(
        "cancel", help="request cancellation of a running service job"
    )
    p.add_argument("job", help="job id to cancel")
    p.add_argument("--url", default="http://127.0.0.1:8642")
    p.set_defaults(func=cmd_cancel)

    p = sub.add_parser(
        "service-chaos",
        help="chaos-test the scenario service (fault injection + invariants)",
    )
    p.add_argument(
        "--scenarios", type=int, default=50, help="seeded scenario count"
    )
    p.add_argument("--seed", type=int, default=0, help="campaign master seed")
    p.set_defaults(func=cmd_service_chaos)

    p = sub.add_parser(
        "flywheel",
        help="resumable differential mega-campaigns (docs/FLYWHEEL.md)",
    )
    fsub = p.add_subparsers(dest="flywheel_command", required=True)

    def _campaign_flags(fp: argparse.ArgumentParser) -> None:
        fp.add_argument("--seed", type=int, default=0, help="stream seed")
        fp.add_argument(
            "--count", type=int, default=5000, help="points in the campaign"
        )
        fp.add_argument(
            "--ledger",
            default="flywheel-ledger.jsonl",
            help="campaign ledger JSONL (the resume checkpoint)",
        )
        fp.add_argument(
            "--shard-size",
            type=int,
            default=250,
            help="points per checkpointed shard",
        )
        fp.add_argument(
            "--jobs", type=int, default=1, help="worker processes (0 = cpus)"
        )
        fp.add_argument("--cache-dir", default=None, help="sweep cache dir")
        fp.add_argument(
            "--no-cache", action="store_true", help="bypass the sweep cache"
        )
        fp.add_argument(
            "--corpus-dir",
            default=None,
            help="file shrunk divergences here (e.g. tests/corpus)",
        )
        fp.add_argument(
            "--max-shrink-checks",
            type=int,
            default=200,
            help="execution budget per divergence shrink",
        )
        fp.add_argument(
            "--inject-divergence",
            default=None,
            metavar="NAME",
            help=(
                "perturb batch rows via a named seam (rounds, verdicts) or "
                "module:function — oracle self-testing only; implies "
                "--no-cache"
            ),
        )

    fp = fsub.add_parser("run", help="start a fresh campaign")
    _campaign_flags(fp)
    fp.set_defaults(func=cmd_flywheel_run)

    fp = fsub.add_parser(
        "resume", help="continue a killed campaign from its ledger"
    )
    _campaign_flags(fp)
    fp.set_defaults(func=cmd_flywheel_resume)

    fp = fsub.add_parser("status", help="summarise a campaign ledger")
    fp.add_argument("ledger", help="campaign ledger JSONL")
    fp.set_defaults(func=cmd_flywheel_status)

    fp = fsub.add_parser(
        "selftest",
        help="inject a batch bug; assert it is detected, shrunk, and filed",
    )
    fp.add_argument("--seed", type=int, default=2025)
    fp.add_argument("--count", type=int, default=24)
    fp.add_argument("--jobs", type=int, default=1)
    fp.add_argument(
        "--perturbation",
        default="rounds",
        help="named seam (rounds, verdicts) or module:function",
    )
    fp.add_argument(
        "--workdir",
        default=None,
        help="where the throwaway ledger/corpus land (default: a tempdir)",
    )
    fp.set_defaults(func=cmd_flywheel_selftest)

    fp = fsub.add_parser(
        "soak", help="stream the campaign through a running service"
    )
    fp.add_argument("--url", required=True, help="service base URL")
    fp.add_argument("--seed", type=int, default=0)
    fp.add_argument("--count", type=int, default=500)
    fp.add_argument("--batch", type=int, default=50, help="points per job")
    fp.add_argument(
        "--timeout", type=float, default=300.0, help="per-job wait budget"
    )
    fp.set_defaults(func=cmd_flywheel_soak)

    p = sub.add_parser("chain-demo", help="Fekete's chain of views, executed")
    p.add_argument("--n", type=int, default=7)
    p.add_argument("--t", type=int, default=2)
    p.set_defaults(func=cmd_chain_demo)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code (2 = usage error)."""
    arglist = list(argv) if argv is not None else sys.argv[1:]
    # `lint` forwards its flags verbatim to the shared linter CLI;
    # argparse.REMAINDER cannot capture leading optionals, so dispatch
    # before the main parser sees them.
    if arglist and arglist[0] == "lint":
        from .statics.cli import run as lint_run

        return lint_run(arglist[1:], prog="repro lint")
    parser = build_parser()
    args = parser.parse_args(arglist)
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

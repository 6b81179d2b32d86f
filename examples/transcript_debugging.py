#!/usr/bin/env python3
"""Watching a Byzantine attack round by round — and recording it.

Attaches three observers to one TreeAA execution under the burn-schedule
adversary, fanned out through :class:`~repro.net.MultiObserver`:

* a :class:`~repro.net.TranscriptRecorder` for the human-readable view of
  the first gradecast iteration;
* an :class:`~repro.net.InvariantMonitor` live-checking that no honest
  output ever leaves the honest inputs' convex hull;
* a :class:`~repro.observability.MetricsCollector`, whose structured
  per-round metrics are exported as a JSONL trace and then re-loaded and
  summarised offline — the workflow behind ``python -m repro trace`` /
  ``python -m repro report``.

This regenerates the numbers quoted in docs/PROTOCOL_WALKTHROUGH.md
(18 rounds, all honest outputs ``v3``, final hull diameter 0).

Run:  python examples/transcript_debugging.py
"""

import os
import tempfile

from repro.adversary.realaa_attacks import BurnScheduleAdversary
from repro.core import TreeAAParty, judge_tree
from repro.net import InvariantMonitor, MultiObserver, TranscriptRecorder, run_protocol
from repro.observability import MetricsCollector, export_run, load_run, render_report
from repro.trees import convex_hull, figure_tree


def main() -> None:
    tree = figure_tree()
    n, t = 7, 2
    inputs = ["v3", "v6", "v5", "v6", "v3", "v8", "v8"]
    hull = convex_hull(tree, inputs[: n - t])

    recorder = TranscriptRecorder()
    collector = MetricsCollector(tree=tree)

    def outputs_stay_in_hull(round_index, parties, corrupted):
        # Once a party has an output, it must already be a valid vertex.
        for pid in range(n):
            if pid in corrupted:
                continue
            output = parties[pid].output
            if output is not None and output not in hull:
                return False
        return True

    monitor = InvariantMonitor({"outputs-in-hull": outputs_stay_in_hull})

    result = run_protocol(
        n,
        t,
        lambda pid: TreeAAParty(pid, n, t, tree, inputs[pid]),
        adversary=BurnScheduleAdversary([1, 1]),
        observer=MultiObserver(recorder, monitor, collector),
    )

    print("First gradecast iteration (3 rounds) of PathsFinder:\n")
    print(recorder.render(max_rounds=3))
    print(f"\n... {len(recorder.rounds) - 3} more rounds recorded.")
    print(f"Byzantine messages sent in total: {recorder.byzantine_message_total}")
    print(f"Invariant 'outputs-in-hull' held in all {monitor.checked_rounds} rounds.")
    print(f"\nHonest outputs: {result.honest_outputs}")
    honest_inputs = {p: inputs[p] for p in sorted(result.honest)}
    assert judge_tree(tree, honest_inputs, result.honest_outputs).valid
    print("Validity re-checked offline: ok.")

    # Export the same execution as a JSONL trace and summarise it offline —
    # what `repro trace --out run.jsonl` + `repro report run.jsonl` do.
    with tempfile.TemporaryDirectory() as tmpdir:
        trace_path = os.path.join(tmpdir, "figure_run.jsonl")
        export_run(
            trace_path,
            collector,
            result,
            protocol="tree-aa",
            tree=tree,
            inputs=inputs,
            verdicts={"terminated": True, "valid": True, "agreement": True},
            t=t,
        )
        run = load_run(trace_path)
        print(f"\nJSONL trace: {run.rounds_executed} round records, "
              f"hull diameter per round {run.round_series('hull_diameter')}")
        print()
        print(render_report(run, max_rounds=0))


if __name__ == "__main__":
    main()

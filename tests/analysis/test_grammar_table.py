"""The grammar tables (:data:`repro.analysis.spec.ADVERSARIES` and
:data:`repro.analysis.spec.SCHEDULERS`).

Every row is checked through the layers that read it: a minimal spec of
an adversary row runs clean on the reference backend, runs on the batch
backend exactly when ``batch_replayable`` says so (and then equals the
reference row), builds an asynchronous adversary exactly when the row
has an async builder, and refuses extra or non-integer arguments; every
row's seeded draw spells a string that parses back to it.  A new row is
covered without a new test.

The last class keeps the tables the one place kind facts live: no module
of ``repro`` may compare against an adversary or scheduler kind name or
a kind tuple, except for the entries of :data:`ALLOWED`.
"""

from __future__ import annotations

import ast
import pathlib
import random
import re
from dataclasses import replace
from typing import Dict, List, Tuple

import pytest

import repro
from repro.analysis.spec import (
    ADVERSARIES,
    SCHEDULERS,
    ScenarioSpec,
    SpecError,
    build_scheduler,
    execute_spec_point,
    parse_kind,
)
from repro.asynchrony import AsyncAdversary, Scheduler
from repro.engine.errors import UnsupportedBackendError
from repro.flywheel.oracles import batch_replayable
from repro.resilience import evaluate, run_scenario
from repro.resilience.campaign import SYNC_ADVERSARIES

#: A non-default value for every adversary-owned spec field.
NON_DEFAULT = {"chaos_script": ((0, 3, "junk"),)}


def minimal_spec(adversary, **fields) -> ScenarioSpec:
    """The smallest interesting TreeAA spec: one corruption, both phases."""
    return ScenarioSpec(
        protocol="tree-aa", n=4, t=1, tree="path:5", adversary=adversary, **fields
    )


def async_spec(**fields) -> ScenarioSpec:
    return ScenarioSpec(protocol="async-real-aa", n=4, t=1, known_range=8.0, **fields)


def malformed(kind, row) -> List[str]:
    """One argument too many, and (for kinds with arguments) a non-integer."""
    spellings = [":".join([kind] + ["1"] * (len(row.args) + 1))]
    if row.args:
        spellings.append(f"{kind}:x")
    return spellings


def _comparable(row):
    return {k: v for k, v in row.items() if k not in ("spec", "backend")}


@pytest.mark.parametrize("kind", list(ADVERSARIES))
class TestEveryAdversaryRow:
    def test_runs_clean_on_the_reference_backend(self, kind):
        assert evaluate(run_scenario(minimal_spec(kind))) == []

    def test_runs_on_batch_exactly_when_replayable(self, kind):
        spec = minimal_spec(kind, backend="batch")
        if not batch_replayable(spec):
            with pytest.raises(UnsupportedBackendError):
                execute_spec_point(spec)
            return
        reference = execute_spec_point(replace(spec, backend="reference"))
        assert _comparable(execute_spec_point(spec)) == _comparable(reference)

    def test_builds_an_async_adversary_exactly_when_the_row_has_one(self, kind):
        row = ADVERSARIES[kind]
        if row.build_async is None:
            with pytest.raises(SpecError, match="not available for async-real-aa"):
                async_spec(adversary=kind)
            return
        spec = async_spec(adversary=kind)
        adversary = spec.make_adversary()
        assert isinstance(adversary, AsyncAdversary) is row.corrupts
        assert evaluate(run_scenario(spec)) == []

    def test_draws_parse_back_to_the_row(self, kind):
        row = ADVERSARIES[kind]
        for seed in range(8):
            text = row.spell(kind, random.Random(seed), 7)
            parsed, parsed_row, args = parse_kind(ADVERSARIES, "adversary", text)
            assert (parsed, parsed_row) == (kind, row)
            assert len(args) == len(row.draw(random.Random(seed), 7))
            minimal_spec(text)

    def test_malformed_arguments_are_refused(self, kind):
        for text in malformed(kind, ADVERSARIES[kind]):
            with pytest.raises(SpecError, match=re.escape(f"malformed adversary spec {text!r}")):
                minimal_spec(text)

    def test_other_rows_owned_fields_are_refused(self, kind):
        for owner, row in ADVERSARIES.items():
            if owner == kind:
                continue
            for field in row.owns:
                with pytest.raises(SpecError, match=f"{field} applies to {owner} adversaries"):
                    minimal_spec(kind, **{field: NON_DEFAULT[field]})


@pytest.mark.parametrize("kind", list(SCHEDULERS))
class TestEverySchedulerRow:
    def test_runs_clean(self, kind):
        spec = async_spec(adversary="silent", scheduler=kind)
        assert isinstance(build_scheduler(kind, n=4), Scheduler)
        assert evaluate(run_scenario(spec)) == []

    def test_draws_parse_back_to_the_row(self, kind):
        row = SCHEDULERS[kind]
        for seed in range(8):
            text = row.spell(kind, random.Random(seed), 7)
            assert parse_kind(SCHEDULERS, "scheduler", text)[:2] == (kind, row)
            async_spec(scheduler=text)

    def test_malformed_arguments_are_refused(self, kind):
        for text in malformed(kind, SCHEDULERS[kind]):
            with pytest.raises(SpecError, match=re.escape(f"malformed scheduler spec {text!r}")):
                async_spec(scheduler=text)


def test_chaos_script_is_a_chaos_field():
    """A scripted ``silent`` spec would run the unscripted execution
    under a second cache key, so it is refused, on load too."""
    spec = minimal_spec("chaos:3", **NON_DEFAULT)
    payload = dict(spec.to_dict(), adversary="silent")
    with pytest.raises(SpecError, match="chaos_script applies to chaos adversaries only, not silent"):
        ScenarioSpec.from_dict(payload)


def test_signed_seeds_parse():
    assert parse_kind(ADVERSARIES, "adversary", "noise:-5")[2] == (-5,)


def test_campaign_rows_are_the_campaign_menu():
    """``SYNC_ADVERSARIES`` keeps the draw order; the table says which kinds."""
    assert set(SYNC_ADVERSARIES) == {k for k, row in ADVERSARIES.items() if row.campaign}


def test_default_arguments_read_the_spec():
    fallback = minimal_spec("noise", seed=7).make_adversary()
    explicit = minimal_spec("noise:7", seed=1).make_adversary()
    assert fallback._rng.random() == explicit._rng.random()
    assert build_scheduler("split", n=5).group_a == {0, 1}
    assert build_scheduler("split:9", n=5).group_a == {0, 1, 2, 3, 4}


# ----------------------------------------------------------------------
# No kind-name comparisons outside the tables
# ----------------------------------------------------------------------

#: Comparisons against kind names that may stay outside the tables:
#: ``(module path under repro/, ast.unparse of the Compare) -> reason``.
ALLOWED: Dict[Tuple[str, str], str] = {
    ("cli.py", "spec == 'crash'"): (
        "the CLI's bare --adversary crash crashes at round 3, not the spec default 1"
    ),
    ("cli.py", "spec == 'none'"): (
        "the CLI's non-spec verbs run --adversary none as an empty NoAdversary"
    ),
    **{
        ("analysis/strategies.py", f"kind == {kind!r}"): (
            "batch_supported_adversaries draws objects with custom parameters "
            "(weights, schedules) that the grammar cannot spell"
        )
        for kind in ("none", "silent", "passive", "chaos", "burn")
    },
}

#: Comparisons that spell a kind name but test another vocabulary.
OTHER_VOCABULARIES: Dict[Tuple[str, str], str] = {
    ("adversary/chaos.py", "behaviour == 'silent'"): "a chaos behaviour",
    ("analysis/sweep.py", "family == 'random'"): "a tree family",
    ("resilience/shrink.py", "family == 'random'"): "a tree family",
    ("trees/grammar.py", "kind == 'random'"): "a tree family",
    ("cli.py", "spec.startswith('random')"): "the --inputs grammar",
    ("cli.py", "args.inputs.startswith('random')"): "the --inputs grammar",
    ("statics/rules/determinism.py", "top == 'random'"): "the random module",
    ("statics/rules/determinism.py", "base == 'random'"): "the random module",
    ("statics/rules/determinism.py", "origin[0] == 'random'"): "the random module",
}

#: Kind tuples (``ASYNC_ADVERSARIES``, ``SCHEDULERS``, ...).
_CONSTANT = re.compile(r"^_?[A-Z_]*(ADVERSARIES|ADVERSARY_KINDS|SCHEDULERS)$")
_KINDS = set(ADVERSARIES) | set(SCHEDULERS)


def _names_a_kind(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return node.value in _KINDS
    if isinstance(node, ast.Name):
        return bool(_CONSTANT.match(node.id))
    if isinstance(node, ast.Attribute):
        return bool(_CONSTANT.match(node.attr))
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_a_kind(element) for element in node.elts)
    if isinstance(node, ast.IfExp):
        return _names_a_kind(node.body) or _names_a_kind(node.orelse)
    return False


def kind_comparisons(root: pathlib.Path) -> List[Tuple[str, str]]:
    """Every ``Compare`` (and ``str.startswith`` test) under *root* with a
    kind-name operand."""
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Compare):
                operands = (node.left, *node.comparators)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "startswith"
            ):
                operands = tuple(node.args)
            else:
                continue
            if any(_names_a_kind(operand) for operand in operands):
                found.append((path.relative_to(root).as_posix(), ast.unparse(node)))
    return found


class TestNoKindComparisons:
    def test_only_allowed_comparisons_remain(self):
        found = kind_comparisons(pathlib.Path(repro.__file__).parent)
        known = {**ALLOWED, **OTHER_VOCABULARIES}
        assert [hit for hit in found if hit not in known] == []
        assert sorted(set(known) - set(found)) == [], "stale allowlist entries"

    def test_the_scan_sees_each_spelling(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "a = kind == 'burn-down'\n"
            "b = kind in (ASYNC_ADVERSARIES if x else SYNC_ADVERSARIES)\n"
            "c = spec.scheduler.split(':')[0] not in spec.SCHEDULERS\n"
            "d = spec.adversary.startswith('chaos')\n"
            "e = kind == 'tree'\n"
        )
        assert [code for _, code in kind_comparisons(tmp_path)] == [
            "kind == 'burn-down'",
            "kind in (ASYNC_ADVERSARIES if x else SYNC_ADVERSARIES)",
            "spec.scheduler.split(':')[0] not in spec.SCHEDULERS",
            "spec.adversary.startswith('chaos')",
        ]

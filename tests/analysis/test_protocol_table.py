"""The protocol table (:data:`repro.analysis.spec.PROTOCOLS`).

Every row is checked through the layers that read it: a minimal spec of
the row runs clean on the reference backend, refuses ``backend="batch"``
exactly when the row has no batch engine (and ``batch_replayable``
agrees), stays within its round budget, and reports the verdict field of
its input kind.  A new row is covered without a new test.

The last class keeps the table the one place protocol facts live: no
module of ``repro`` may compare against a protocol name, a protocol-name
constant or a name tuple, except for the entries of :data:`ALLOWED`.
"""

from __future__ import annotations

import ast
import pathlib
import re
from typing import Dict, List, Tuple

import pytest

import repro
from repro.analysis.spec import (
    PROTOCOLS,
    ScenarioSpec,
    SpecError,
    execute_spec_point,
    run_spec_point,
)
from repro.engine.errors import UnsupportedBackendError
from repro.flywheel.oracles import batch_replayable
from repro.resilience import evaluate, round_budget, run_scenario


#: A value other than the default for every protocol-owned spec field.
NON_DEFAULT = {"project": True, "scheduler": "fifo", "max_steps": 10}


def minimal_spec(name, **fields) -> ScenarioSpec:
    """The smallest interesting spec of a row: one silent corruption."""
    return ScenarioSpec(
        protocol=name,
        n=4,
        t=1,
        tree="path:5" if PROTOCOLS[name].on_tree else None,
        adversary="silent",
        **fields,
    )


@pytest.mark.parametrize("name", list(PROTOCOLS))
class TestEveryRow:
    def test_runs_clean_on_the_reference_backend(self, name):
        result = run_scenario(minimal_spec(name))
        assert evaluate(result) == []

    def test_batch_backend_exists_exactly_when_the_row_says(self, name):
        entry = PROTOCOLS[name]
        spec = minimal_spec(name, backend="batch")
        assert batch_replayable(spec) is entry.batch
        if not entry.batch:
            with pytest.raises(UnsupportedBackendError) as caught:
                execute_spec_point(spec)
            assert str(caught.value) == (
                f"{name} specs have no batch equivalent; use backend='reference'"
            )
            return
        outcome, row = run_spec_point(spec, spec.make_adversary())
        assert row["ok"]
        # The batch engine ran: its parties are views, not the reference's dict.
        assert not isinstance(outcome.execution.parties, dict)

    def test_rounds_stay_within_the_budget(self, name):
        spec = minimal_spec(name)
        assert run_scenario(spec).outcome.rounds <= round_budget(spec)

    def test_verdict_key_matches_the_input_kind(self, name):
        verdicts = execute_spec_point(minimal_spec(name))["verdicts"]
        kept, absent = "output_diameter", "output_spread"
        if not PROTOCOLS[name].on_tree:
            kept, absent = absent, kept
        assert kept in verdicts and absent not in verdicts

    def test_other_rows_own_fields_are_refused(self, name):
        for owner, entry in PROTOCOLS.items():
            if owner == name:
                continue
            for field in entry.owns:
                with pytest.raises(SpecError, match=f"{field} applies to {owner}"):
                    minimal_spec(name, **{field: NON_DEFAULT[field]})


def test_project_is_a_path_aa_field():
    """A projected TreeAA spec ran the unprojected execution under a
    second cache key; it is now refused, on load too."""
    spec = minimal_spec("path-aa", project=True)
    assert spec.to_dict()["project"] is True
    payload = dict(spec.to_dict(), protocol="tree-aa")
    with pytest.raises(SpecError, match="project applies to path-aa specs only"):
        ScenarioSpec.from_dict(payload)


# ----------------------------------------------------------------------
# No protocol-name comparisons outside the table
# ----------------------------------------------------------------------

#: Comparisons against protocol names that may stay outside the table:
#: ``(module path under repro/, ast.unparse of the Compare) -> reason``.
#: Empty: every protocol fact is read from the table.
ALLOWED: Dict[Tuple[str, str], str] = {}

#: Protocol-name constants and name tuples (``ASYNC_PROTOCOL``,
#: ``CAMPAIGN_PROTOCOLS``, ...).
_CONSTANT = re.compile(r"^_?[A-Z_]*PROTOCOLS?$")


def _names_a_protocol(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return node.value in PROTOCOLS
    if isinstance(node, ast.Name):
        return bool(_CONSTANT.match(node.id))
    if isinstance(node, ast.Attribute):
        return bool(_CONSTANT.match(node.attr))
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_a_protocol(element) for element in node.elts)
    return False


def protocol_comparisons(root: pathlib.Path) -> List[Tuple[str, str]]:
    """Every ``Compare`` under *root* with a protocol-name operand."""
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Compare) and any(
                _names_a_protocol(operand)
                for operand in (node.left, *node.comparators)
            ):
                found.append((path.relative_to(root).as_posix(), ast.unparse(node)))
    return found


class TestNoProtocolComparisons:
    def test_only_allowed_comparisons_remain(self):
        found = protocol_comparisons(pathlib.Path(repro.__file__).parent)
        assert [hit for hit in found if hit not in ALLOWED] == []
        assert sorted(set(ALLOWED) - set(found)) == [], "stale ALLOWED entries"

    def test_the_scan_sees_each_spelling(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "a = kind == 'tree-aa'\n"
            "b = kind in (ASYNC_PROTOCOL, 'x')\n"
            "c = kind not in spec.CAMPAIGN_PROTOCOLS\n"
            "d = kind == 'tree'\n"
        )
        assert [code for _, code in protocol_comparisons(tmp_path)] == [
            "kind == 'tree-aa'",
            "kind in (ASYNC_PROTOCOL, 'x')",
            "kind not in spec.CAMPAIGN_PROTOCOLS",
        ]

"""``tools/docs_check.py`` fails on a document that names a dead symbol."""

import importlib.util
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SPEC = importlib.util.spec_from_file_location(
    "docs_check", os.path.join(REPO, "tools", "docs_check.py")
)
docs_check = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(docs_check)

DOC = """# A page naming live and dead symbols

`repro.core.api.run_tree_aa` is alive; `repro.analysis.metrics.tree_validity` is gone.

```python
from repro.analysis import honest_value_ranges, real_validity
import repro.core.api
lint(module="repro.service.example")  # a string literal, not a name
repro.core.judge_tree
repro.core.no_such_thing(3)
```

```bash
python -c "from repro.core import judge_real, gone_too"
```
"""


def test_dead_names_are_reported_with_their_lines(tmp_path):
    path = tmp_path / "PAGE.md"
    path.write_text(DOC)
    assert list(docs_check.unresolved_names(str(path))) == [
        (3, "repro.analysis.metrics.tree_validity"),
        (6, "repro.analysis.real_validity"),
        (10, "repro.core.no_such_thing"),
        (14, "repro.core.gone_too"),
    ]


def test_the_gate_fails_on_a_dead_name(tmp_path):
    path = tmp_path / "PAGE.md"
    path.write_text(DOC)
    failures = docs_check.check_names([str(path)])
    assert len(failures) == 4
    assert all("does not resolve" in failure for failure in failures)


def test_the_repository_docs_name_only_live_symbols():
    assert docs_check.check_names() == []


CLI_DOC = """# A page running live and dead commands

```bash
python -m repro sweep --kind real-aa \\
    --no-such-flag 3 --jobs=2 > /tmp/out.txt
PYTHONPATH=src python -m repro flywheel run --seed 0 | tee --gone
python -m repro flywheel rerun --seed 0
python -m repro teleport --now
python -m repro lint --json --rules=PL001 --no-such-rule
python -m repro status job-0000 --url "$URL" && python -m repro cancel --job
```

`python -m repro sweep --prose-is-not-checked`
"""


def test_dead_cli_flags_and_verbs_are_reported_with_their_lines(tmp_path):
    path = tmp_path / "PAGE.md"
    path.write_text(CLI_DOC)
    parsers = docs_check.cli_parsers()
    problems = [
        (lineno, problem)
        for lineno, words in docs_check.doc_commands(str(path))
        for problem in docs_check.dead_flags(words, parsers)
    ]
    assert problems == [
        (4, "`repro sweep` has no flag `--no-such-flag`"),
        (7, "`repro flywheel rerun` is not a command"),
        (8, "`repro teleport` is not a command"),
        (9, "`repro lint` has no flag `--no-such-rule`"),
        (10, "`repro cancel` has no flag `--job`"),
    ]


def test_the_gate_fails_on_a_dead_flag(tmp_path):
    path = tmp_path / "PAGE.md"
    path.write_text(CLI_DOC)
    failures = docs_check.check_cli_flags([str(path)])
    assert len(failures) == 5
    assert failures[0].endswith(":4: `repro sweep` has no flag `--no-such-flag`")


def test_the_repository_docs_and_ci_name_only_live_flags():
    assert docs_check.check_cli_flags() == []


def test_the_grammar_rows_spell_every_kind(tmp_path):
    assert docs_check.check_grammar_rows() == []
    page = tmp_path / "API.md"
    page.write_text(
        "| field | meaning |\n|---|---|\n"
        "| `adversary` | `none` / `silent` / `crash` |\n"
        "| `scheduler` | `fifo`, `random[:SEED]`, `split[:K]`, `delay[:K]` |\n"
    )
    failures = docs_check.check_grammar_rows(str(page))
    assert len(failures) == 7
    assert "does not spell `crash[:ROUND[:PARTIAL_TO]]`" in failures[2]

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

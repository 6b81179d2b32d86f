#!/usr/bin/env python3
"""Docs-consistency gate: docstrings, named symbols, CLI flags, grammar
rows, executable blocks.

Five checks, all run by CI's ``docs`` job (and runnable locally):

1. **Docstring coverage** — every module, public class, and public
   module-level function under ``src/repro/`` must carry a docstring.
   "Public" means the name does not start with ``_``.  Methods are
   exempt: the protocol-party and adversary interfaces (``duration`` /
   ``messages_for_round`` / ``receive_round``, ``on_round``,
   ``byzantine_messages`` / ``transform_outbox``, …) are documented once
   on their base class, and re-documenting each trivial override would
   only drown the docstrings that matter.

2. **Named symbols resolve** — every dotted ``repro.…`` name and every
   ``from repro… import …`` in README.md and ``docs/*.md`` must import
   (a module prefix, then attributes).  Inside fenced Python blocks the
   names are read with :mod:`ast` — imports, and attribute chains rooted
   at ``repro`` — so string literals (a linter fixture's
   ``module="repro.service.example"``) are data, not names.  Elsewhere a
   regular expression finds them.

3. **CLI commands name live flags** — every ``python -m repro <verb> …``
   line in a fenced block of README.md and ``docs/*.md``, and in
   ``.github/workflows/ci.yml``, is checked against ``repro``'s own
   parser (line continuations joined first, the command cut at the first
   shell operator): each verb and ``flywheel`` subverb must exist, and
   each ``--flag`` must be an option of that parser.  ``lint`` is
   checked against the linter's parser it forwards to.

4. **Grammar rows** — the ``adversary`` and ``scheduler`` rows of
   docs/API.md's ``ScenarioSpec`` field table spell every row of
   ``repro.analysis.spec.ADVERSARIES`` and ``SCHEDULERS`` with its
   arguments (``crash[:ROUND[:PARTIAL_TO]]``), so a new kind cannot go
   undocumented.

5. **Executable documentation** — every fenced ````` ```python ````` block
   in README.md and the docs/ pages listed in ``EXECUTED_DOCS`` is
   executed (with ``src/`` on ``sys.path`` and the sweep cache redirected
   to a throwaway directory), so the documented quickstarts can never
   silently rot.

Exit status is non-zero on any failure, with one line per offence.

Run:  python tools/docs_check.py
"""

import argparse
import ast
import importlib
import os
import re
import shlex
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
PACKAGE_ROOT = os.path.join(SRC, "repro")
NAMED_DOCS = ["README.md"] + sorted(
    os.path.join("docs", name)
    for name in os.listdir(os.path.join(REPO, "docs"))
    if name.endswith(".md")
)
CLI_DOCS = NAMED_DOCS + [os.path.join(".github", "workflows", "ci.yml")]
EXECUTED_DOCS = [
    "README.md",
    os.path.join("docs", "ARCHITECTURE.md"),
    os.path.join("docs", "OBSERVABILITY.md"),
    os.path.join("docs", "SERVICE.md"),
    os.path.join("docs", "STATIC_ANALYSIS.md"),
    os.path.join("docs", "RESILIENCE.md"),
    os.path.join("docs", "FLYWHEEL.md"),
]

sys.path.insert(0, SRC)

# The same deterministic source-tree walk the protocol-invariant linter
# uses, so the two gates can never disagree about which files exist.
from repro.statics.discovery import iter_source_files  # noqa: E402


# ----------------------------------------------------------------------
# Check 1: docstring coverage
# ----------------------------------------------------------------------


def is_public(name):
    return not name.startswith("_")


def missing_docstrings(path):
    """Yield ``(lineno, description)`` for every undocumented public item."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), filename=path)
    if ast.get_docstring(tree) is None:
        yield 1, "module docstring missing"

    for child in ast.iter_child_nodes(tree):
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            if is_public(child.name) and ast.get_docstring(child) is None:
                kind = "class" if isinstance(child, ast.ClassDef) else "function"
                yield child.lineno, f"{kind} `{child.name}` has no docstring"


def check_docstrings():
    failures = []
    checked = 0
    for path in iter_source_files(PACKAGE_ROOT):
        checked += 1
        rel = os.path.relpath(path, REPO)
        for lineno, description in missing_docstrings(path):
            failures.append(f"{rel}:{lineno}: {description}")
    print(f"docstring coverage: {checked} files checked", flush=True)
    return failures


# ----------------------------------------------------------------------
# Check 2: named symbols resolve
# ----------------------------------------------------------------------

FENCE = re.compile(r"^```python\s*$(.*?)^```\s*$", re.MULTILINE | re.DOTALL)
DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
FROM_IMPORT = re.compile(
    r"\bfrom\s+(repro(?:\.\w+)*)\s+import\s+\(?\s*([\w\s,]+)"
)


def resolves(name):
    """Whether dotted *name* imports: its longest module prefix, then attributes."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


class _CodeNames(ast.NodeVisitor):
    """Collects the repro names one parsed Python block uses."""

    def __init__(self):
        self.names = []

    def visit_Import(self, node):
        for alias in node.names:
            if alias.name.split(".")[0] == "repro":
                self.names.append((node.lineno, alias.name))

    def visit_ImportFrom(self, node):
        module = node.module or ""
        if module.split(".")[0] == "repro":
            for alias in node.names:
                if alias.name != "*":
                    self.names.append((node.lineno, f"{module}.{alias.name}"))

    def visit_Attribute(self, node):
        attrs = []
        base = node
        while isinstance(base, ast.Attribute):
            attrs.append(base.attr)
            base = base.value
        if isinstance(base, ast.Name) and base.id == "repro":
            self.names.append((node.lineno, ".".join(["repro"] + attrs[::-1])))
        else:
            self.generic_visit(node)


def code_names(block):
    """``(line, name)`` for each repro name a Python block uses (1-based)."""
    visitor = _CodeNames()
    visitor.visit(ast.parse(block))
    return visitor.names


def text_names(text):
    """``(line, name)`` for each repro name in prose or a non-Python fence."""
    names = []
    for lineno, line in enumerate(text.splitlines(), 1):
        for match in FROM_IMPORT.finditer(line):
            for imported in match.group(2).split(","):
                imported = imported.strip()
                if imported.isidentifier():
                    names.append((lineno, f"{match.group(1)}.{imported}"))
        names += [(lineno, match.group(0)) for match in DOTTED.finditer(line)]
    return names


def doc_names(text):
    """``(line, name)`` for every repro name a Markdown document uses."""

    def placed(start, found):
        base = text.count("\n", 0, start)
        return [(base + lineno, name) for lineno, name in found]

    names = []
    last = 0
    for match in FENCE.finditer(text):
        names += placed(last, text_names(text[last : match.start()]))
        try:
            found = code_names(match.group(1))
        except SyntaxError:
            found = text_names(match.group(1))
        names += placed(match.start(1), found)
        last = match.end()
    return names + placed(last, text_names(text[last:]))


def unresolved_names(path):
    """Yield ``(lineno, name)`` for each repro name in *path* that does not import."""
    with open(path) as handle:
        text = handle.read()
    seen = {}
    for lineno, name in doc_names(text):
        if name not in seen:
            seen[name] = resolves(name)
        if not seen[name]:
            yield lineno, name


def check_names(docs=NAMED_DOCS):
    failures = []
    checked = 0
    for doc in docs:
        checked += 1
        for lineno, name in unresolved_names(os.path.join(REPO, doc)):
            failures.append(f"{doc}:{lineno}: `{name}` does not resolve")
    print(f"named symbols: {checked} documents checked", flush=True)
    return failures


# ----------------------------------------------------------------------
# Check 3: CLI commands name live flags
# ----------------------------------------------------------------------

ANY_FENCE = re.compile(r"^```[^\n]*$(.*?)^```\s*$", re.MULTILINE | re.DOTALL)
INVOCATION = re.compile(r"\bpython3? -m repro(?=\s|$)")


def cli_parsers():
    """``{verb path: parser}`` for ``repro`` and every subcommand below
    it (``""`` is the top level, ``"flywheel run"`` a subverb)."""
    from repro.cli import build_parser
    from repro.statics.cli import build_parser as lint_parser

    parsers = {}

    def walk(parser, path):
        parsers[path] = parser
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, f"{path} {name}".strip())

    walk(build_parser(), "")
    parsers["lint"] = lint_parser(prog="repro lint")
    return parsers


def command_lines(text):
    """``(line, arguments)`` for each ``python -m repro`` command in
    *text*, continuations joined, cut at the first shell operator."""
    lines = text.splitlines()
    index = 0
    while index < len(lines):
        start, line = index, lines[index]
        while line.endswith("\\") and index + 1 < len(lines):
            index += 1
            line = line[:-1] + " " + lines[index].strip()
        index += 1
        for command in INVOCATION.split(line)[1:]:
            lexer = shlex.shlex(command, posix=True, punctuation_chars=True)
            lexer.whitespace_split = True
            try:
                tokens = list(lexer)
            except ValueError:  # an unbalanced quote: take the words
                tokens = command.split()
            words = []
            for token in tokens:
                if set(token) <= set(lexer.punctuation_chars):
                    break
                words.append(token)
            yield start + 1, words


def dead_flags(words, parsers):
    """Problems with one command's words: an unknown verb, or a flag its
    (sub)parser does not take."""
    path = ""
    for word in words:
        if word.startswith("-"):
            break
        if f"{path} {word}".strip() in parsers:
            path = f"{path} {word}".strip()
        elif parsers[path]._subparsers:
            return [f"`{f'repro {path}'.strip()} {word}` is not a command"]
        else:
            break  # a positional argument
    options = parsers[path]._option_string_actions
    return [
        f"`{f'repro {path}'.strip()}` has no flag `{word.split('=')[0]}`"
        for word in words
        if word.startswith("-") and word != "--" and word.split("=")[0] not in options
    ]


def doc_commands(path):
    """``(lineno, words)`` for each ``python -m repro`` command in *path*:
    in its fenced blocks, or anywhere in a workflow file."""
    with open(path) as handle:
        text = handle.read()
    blocks = (
        [(0, text)]
        if path.endswith(".yml")
        else [(match.start(1), match.group(1)) for match in ANY_FENCE.finditer(text)]
    )
    for offset, block in blocks:
        base = text.count("\n", 0, offset)
        for lineno, words in command_lines(block):
            yield base + lineno, words


def check_cli_flags(docs=CLI_DOCS):
    failures = []
    parsers = cli_parsers()
    flags = 0
    for doc in docs:
        for lineno, words in doc_commands(os.path.join(REPO, doc)):
            flags += sum(word.startswith("--") and word != "--" for word in words)
            for problem in dead_flags(words, parsers):
                failures.append(f"{doc}:{lineno}: {problem}")
    print(f"CLI flags: {flags} flags in {len(docs)} documents checked", flush=True)
    return failures


# ----------------------------------------------------------------------
# Check 4: grammar rows
# ----------------------------------------------------------------------


def check_grammar_rows(path=os.path.join(REPO, "docs", "API.md")):
    """One failure per grammar-table row the field table's ``adversary``
    or ``scheduler`` row does not spell (as ``` `KIND[:ARG...]` ```)."""
    from repro.analysis.spec import ADVERSARIES, SCHEDULERS

    with open(path) as handle:
        lines = handle.read().splitlines()
    failures = []
    for field, table in (("adversary", ADVERSARIES), ("scheduler", SCHEDULERS)):
        documented = next((line for line in lines if line.startswith(f"| `{field}` |")), "")
        for kind, row in table.items():
            if f"`{row.usage(kind)}`" not in documented:
                failures.append(
                    f"{os.path.relpath(path, REPO)}: the `{field}` row of the "
                    f"ScenarioSpec field table does not spell `{row.usage(kind)}`"
                )
    return failures


# ----------------------------------------------------------------------
# Check 5: executable documentation
# ----------------------------------------------------------------------


def python_blocks(path):
    with open(path) as handle:
        text = handle.read()
    for match in FENCE.finditer(text):
        lineno = text[: match.start()].count("\n") + 1
        yield lineno, match.group(1)


def run_doc_blocks():
    failures = []
    executed = 0
    with tempfile.TemporaryDirectory() as tmpdir:
        os.environ["REPRO_SWEEP_CACHE"] = os.path.join(tmpdir, "cache")
        for doc in EXECUTED_DOCS:
            path = os.path.join(REPO, doc)
            for lineno, block in python_blocks(path):
                executed += 1
                try:
                    code = compile(block, f"{doc}:{lineno}", "exec")
                    exec(code, {"__name__": "__docs__"})
                except Exception as exc:  # noqa: BLE001 - report, don't crash
                    failures.append(
                        f"{doc}:{lineno}: block raised "
                        f"{type(exc).__name__}: {exc}"
                    )
    print(f"executable docs: {executed} python blocks executed", flush=True)
    return failures


def main():
    failures = (
        check_docstrings()
        + check_names()
        + check_cli_flags()
        + check_grammar_rows()
        + run_doc_blocks()
    )
    for failure in failures:
        print(failure)
    if failures:
        print(f"\ndocs check FAILED: {len(failures)} problem(s)")
        return 1
    print("docs check OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

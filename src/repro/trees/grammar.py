"""The tree-spec grammar: one short string per input-space tree.

Every layer that names a tree as data — :class:`~repro.analysis.spec
.ScenarioSpec`, the resilience campaigns and shrinker, the benchmarks, and
the ``--tree`` flags of the command line — uses this grammar:

``path:K``, ``star:K``, ``binary:DEPTH``, ``caterpillar:SPINExLEGS``,
``spider:ARMSxLEN``, ``broom:HANDLExLEAVES``, ``random:K[:SEED]``,
``figure`` (the paper's Figure-3 tree), or ``@file.json`` (the canonical
JSON form of :mod:`repro.trees.serialization`, read from a local file).
"""

from __future__ import annotations

from .generators import (
    binary_tree,
    broom_tree,
    caterpillar_tree,
    figure_tree,
    path_tree,
    random_tree,
    spider_tree,
    star_tree,
)
from .labeled_tree import LabeledTree
from .serialization import tree_from_json

#: Families taking one integer, and families taking an ``AxB`` pair.
_SIZED = {"path": path_tree, "star": star_tree, "binary": binary_tree}
_PAIRED = {"caterpillar": caterpillar_tree, "spider": spider_tree, "broom": broom_tree}


def parse_tree_spec(spec: str) -> LabeledTree:
    """Build the tree a spec string names (see the module docstring).

    Raises :class:`~repro.analysis.spec.SpecError` for strings outside the
    grammar.
    """
    if spec.startswith("@"):
        with open(spec[1:]) as handle:
            return tree_from_json(handle.read())
    if spec == "figure":
        return figure_tree()
    kind, *args = spec.split(":")
    try:
        if kind in _SIZED:
            return _SIZED[kind](int(args[0]))
        if kind in _PAIRED:
            first, second = args[0].split("x")
            return _PAIRED[kind](int(first), int(second))
        if kind == "random":
            return random_tree(int(args[0]), int(args[1]) if len(args) > 1 else 0)
        problem = f"unknown tree family {kind!r}"
    except (IndexError, ValueError) as exc:
        problem = f"malformed tree spec {spec!r}: {exc}"
    # The analysis layer sits above this one, hence the late import.
    from ..analysis.spec import SpecError

    raise SpecError(problem)

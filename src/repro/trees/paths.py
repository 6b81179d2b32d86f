"""Paths, distances, and diameters in labeled trees.

Implements the notation of Section 2 of the paper:

* ``P(u, v)`` — the unique path between two vertices (:func:`path_between`);
* ``d(u, v)`` — its length in edges (:func:`distance`);
* ``D(T)`` — the tree's diameter (:func:`diameter`);
* ``P ⊕ (v, w)`` — extending a path by one edge (:meth:`TreePath.extended`).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Sequence, Tuple

from .labeled_tree import Label, LabeledTree


class TreePath:
    """A simple path in a tree: an ordered sequence of adjacent vertices.

    The paper writes a path of ``k`` vertices as ``(v_1, ..., v_k)``; its
    *length* is ``k − 1`` edges.  Instances are immutable.
    """

    __slots__ = ("_vertices", "_index")

    def __init__(self, vertices: Sequence[Label]) -> None:
        if not vertices:
            raise ValueError("a path must contain at least one vertex")
        if len(set(vertices)) != len(vertices):
            raise ValueError("a simple path may not repeat vertices")
        self._vertices: Tuple[Label, ...] = tuple(vertices)
        self._index: Dict[Label, int] = {v: i for i, v in enumerate(self._vertices)}

    @property
    def vertices(self) -> Tuple[Label, ...]:
        return self._vertices

    @property
    def start(self) -> Label:
        return self._vertices[0]

    @property
    def end(self) -> Label:
        return self._vertices[-1]

    @property
    def length(self) -> int:
        """Number of edges (``k − 1`` for ``k`` vertices)."""
        return len(self._vertices) - 1

    def __len__(self) -> int:
        """Number of vertices ``k = |V(P)|``."""
        return len(self._vertices)

    def __iter__(self) -> Iterator[Label]:
        return iter(self._vertices)

    def __contains__(self, vertex: Label) -> bool:
        return vertex in self._index

    def __getitem__(self, position: int) -> Label:
        return self._vertices[position]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreePath):
            return NotImplemented
        return self._vertices == other._vertices

    def __hash__(self) -> int:
        return hash(self._vertices)

    def __repr__(self) -> str:
        return f"TreePath({list(self._vertices)!r})"

    def position_of(self, vertex: Label) -> int:
        """The 0-based position of *vertex* on this path."""
        try:
            return self._index[vertex]
        except KeyError:
            raise KeyError(f"vertex {vertex!r} is not on the path") from None

    def extended(self, vertex: Label) -> "TreePath":
        """The path ``P ⊕ (end, vertex)`` (paper notation), one edge longer."""
        if vertex in self._index:
            raise ValueError(f"vertex {vertex!r} already lies on the path")
        return TreePath(self._vertices + (vertex,))

    def reversed(self) -> "TreePath":
        return TreePath(tuple(reversed(self._vertices)))

    def prefix(self, k: int) -> "TreePath":
        """The sub-path consisting of the first *k* vertices."""
        if not 1 <= k <= len(self._vertices):
            raise ValueError(f"prefix length {k} out of range")
        return TreePath(self._vertices[:k])

    def is_prefix_of(self, other: "TreePath") -> bool:
        """Whether *other* starts with exactly this path's vertices."""
        return other.vertices[: len(self._vertices)] == self._vertices

    def canonical(self) -> "TreePath":
        """The orientation whose first endpoint has the lower label.

        Section 4 orders the path so that ``v_1`` is the endpoint with the
        lexicographically lower label.
        """
        if len(self._vertices) == 1 or self.start <= self.end:
            return self
        return self.reversed()


def _bfs_parents(tree: LabeledTree, source: Label) -> Dict[Label, Label]:
    """BFS parent pointers from *source* over the whole tree.

    *source* itself has no entry, so every stored parent is a real vertex
    and callers walking parent chains toward *source* need no None checks.
    """
    tree.require_vertex(source)
    seen = {source}
    parents: Dict[Label, Label] = {}
    queue = deque([source])
    while queue:
        current = queue.popleft()
        for neighbor in tree.neighbors(current):
            if neighbor not in seen:
                seen.add(neighbor)
                parents[neighbor] = current
                queue.append(neighbor)
    return parents


def path_between(tree: LabeledTree, u: Label, v: Label) -> TreePath:
    """The unique path ``P(u, v)`` in the tree, as a :class:`TreePath`."""
    tree.require_vertex(u)
    tree.require_vertex(v)
    if u == v:
        return TreePath([u])
    parents = _bfs_parents(tree, u)
    chain: List[Label] = [v]
    while chain[-1] != u:
        chain.append(parents[chain[-1]])
    chain.reverse()
    return TreePath(chain)


def distance(tree: LabeledTree, u: Label, v: Label) -> int:
    """``d(u, v)`` — the number of edges on ``P(u, v)``."""
    return path_between(tree, u, v).length


def distances_from(tree: LabeledTree, source: Label) -> Dict[Label, int]:
    """BFS distances from *source* to every vertex."""
    tree.require_vertex(source)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        current = queue.popleft()
        for neighbor in tree.neighbors(current):
            if neighbor not in dist:
                dist[neighbor] = dist[current] + 1
                queue.append(neighbor)
    return dist


def eccentricity(tree: LabeledTree, vertex: Label) -> int:
    """The largest distance from *vertex* to any other vertex."""
    return max(distances_from(tree, vertex).values())


def farthest_vertex(tree: LabeledTree, source: Label) -> Tuple[Label, int]:
    """A vertex at maximum distance from *source* (lowest label on ties)."""
    dist = distances_from(tree, source)
    best = max(dist.values())
    winner = min(v for v, d in dist.items() if d == best)
    return winner, best


def diameter_path(tree: LabeledTree) -> TreePath:
    """A longest path in the tree, via the classic double-BFS.

    Deterministic: ties are broken towards lower labels, and the result is
    returned in canonical orientation (lower-labeled endpoint first).
    Computed once per tree object and kept on it (trees are immutable).
    """
    path = tree._diameter_path
    if path is None:
        a, _ = farthest_vertex(tree, tree.root_label)
        b, _ = farthest_vertex(tree, a)
        path = tree._diameter_path = path_between(tree, a, b).canonical()
    return path


def diameter(tree: LabeledTree) -> int:
    """``D(T)`` — the length of the tree's longest path."""
    return diameter_path(tree).length


def is_path_in_tree(tree: LabeledTree, path: TreePath) -> bool:
    """Whether every consecutive pair on *path* is an edge of *tree*."""
    vertices = path.vertices
    if any(v not in tree for v in vertices):
        return False
    return all(
        tree.adjacent(vertices[i], vertices[i + 1]) for i in range(len(vertices) - 1)
    )

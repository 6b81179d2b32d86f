"""Labeled trees: the input spaces for Approximate Agreement on trees.

The paper considers a publicly known *labeled tree* ``T``.  All parties hold
the same description of ``T`` and identify vertices by their labels.  Labels
must be mutually comparable (the protocol breaks ties lexicographically, e.g.
when choosing the root vertex), and hashable.

This module provides :class:`LabeledTree`, an immutable adjacency-list tree
with validation.  Algorithms that need a *rooted* view of the tree live in
:mod:`repro.trees.lca`.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

if TYPE_CHECKING:
    from .euler import EulerList
    from .paths import TreePath

Label = Hashable


class NotATreeError(ValueError):
    """Raised when the supplied edge set does not describe a tree."""


class LabeledTree:
    """An immutable, connected, acyclic, labeled graph.

    Parameters
    ----------
    edges:
        Iterable of ``(u, v)`` label pairs.  Self-loops and duplicate edges
        are rejected.
    vertices:
        Optional iterable of labels.  Required for the single-vertex tree
        (which has no edges); otherwise inferred from the edges.  If given
        together with edges, it must match the labels appearing in the edges.

    Raises
    ------
    NotATreeError
        If the resulting graph is empty, disconnected, or contains a cycle.
    """

    # ``_diameter_path`` memoises :func:`repro.trees.paths.diameter_path`
    # and ``_euler_lists`` :func:`repro.core.paths_finder.euler_list` (keyed
    # by root): the tree is immutable, so each is built once per tree object.
    __slots__ = ("_adjacency", "_vertices", "_root_label", "_diameter_path", "_euler_lists")

    def __init__(
        self,
        edges: Iterable[Tuple[Label, Label]] = (),
        vertices: Iterable[Label] = (),
    ) -> None:
        adjacency: Dict[Label, List[Label]] = {}
        for label in vertices:
            adjacency.setdefault(label, [])
        edge_count = 0
        for u, v in edges:
            if u == v:
                raise NotATreeError(f"self-loop at vertex {u!r}")
            adjacency.setdefault(u, [])
            adjacency.setdefault(v, [])
            if v in adjacency[u]:
                raise NotATreeError(f"duplicate edge ({u!r}, {v!r})")
            adjacency[u].append(v)
            adjacency[v].append(u)
            edge_count += 1
        if not adjacency:
            raise NotATreeError("a tree must contain at least one vertex")
        if edge_count != len(adjacency) - 1:
            raise NotATreeError(
                f"{len(adjacency)} vertices require {len(adjacency) - 1} edges "
                f"to form a tree, got {edge_count}"
            )
        self._vertices: Tuple[Label, ...] = tuple(sorted(adjacency))
        self._adjacency: Dict[Label, Tuple[Label, ...]] = {
            label: tuple(sorted(neighbors)) for label, neighbors in adjacency.items()
        }
        self._check_connected()
        self._root_label: Label = self._vertices[0]
        self._diameter_path: Optional[TreePath] = None
        self._euler_lists: Dict[Label, EulerList] = {}

    def _check_connected(self) -> None:
        start = next(iter(self._adjacency))
        seen = {start}
        frontier = [start]
        while frontier:
            vertex = frontier.pop()
            for neighbor in self._adjacency[vertex]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        if len(seen) != len(self._adjacency):
            raise NotATreeError("the edge set does not form a connected graph")

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def vertices(self) -> Tuple[Label, ...]:
        """All vertex labels, in sorted (lexicographic) order."""
        return self._vertices

    @property
    def n_vertices(self) -> int:
        """``|V(T)|``."""
        return len(self._vertices)

    @property
    def root_label(self) -> Label:
        """The vertex with the lowest label — TreeAA's canonical root."""
        return self._root_label

    def edges(self) -> Iterator[Tuple[Label, Label]]:
        """Each edge once, as a sorted ``(u, v)`` pair, in sorted order."""
        for u in self._vertices:
            for v in self._adjacency[u]:
                if u < v:
                    yield (u, v)

    def neighbors(self, vertex: Label) -> Tuple[Label, ...]:
        """The sorted neighbors of *vertex*."""
        return self._adjacency[vertex]

    def degree(self, vertex: Label) -> int:
        """The number of edges incident to *vertex*."""
        return len(self._adjacency[vertex])

    def leaves(self) -> Tuple[Label, ...]:
        """All vertices of degree ≤ 1 (a single vertex counts as a leaf)."""
        return tuple(v for v in self._vertices if len(self._adjacency[v]) <= 1)

    def __contains__(self, vertex: Label) -> bool:
        return vertex in self._adjacency

    def __len__(self) -> int:
        return len(self._vertices)

    def __iter__(self) -> Iterator[Label]:
        return iter(self._vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledTree):
            return NotImplemented
        return self._adjacency == other._adjacency

    def __hash__(self) -> int:
        return hash(tuple((v, self._adjacency[v]) for v in self._vertices))

    def __repr__(self) -> str:
        return f"LabeledTree(n_vertices={self.n_vertices}, root={self._root_label!r})"

    # ------------------------------------------------------------------
    # Validation helpers used throughout the protocols
    # ------------------------------------------------------------------

    def require_vertex(self, vertex: Label) -> None:
        """Raise ``KeyError`` unless *vertex* belongs to this tree."""
        if vertex not in self._adjacency:
            raise KeyError(f"vertex {vertex!r} is not in the tree")

    def adjacent(self, u: Label, v: Label) -> bool:
        """Whether ``(u, v)`` is an edge of the tree."""
        self.require_vertex(u)
        return v in self._adjacency[u]

    def components_without(self, vertex: Label) -> Tuple[FrozenSet[Label], ...]:
        """The connected components of ``T − vertex``, one per neighbor.

        Used by the safe-area computation (each component is the subtree
        hanging off one neighbor of *vertex*).
        """
        self.require_vertex(vertex)
        components: List[FrozenSet[Label]] = []
        for neighbor in self._adjacency[vertex]:
            seen = {vertex, neighbor}
            frontier = [neighbor]
            while frontier:
                current = frontier.pop()
                for nxt in self._adjacency[current]:
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            seen.discard(vertex)
            components.append(frozenset(seen))
        return tuple(components)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_parent_map(cls, parents: Dict[Label, Label]) -> "LabeledTree":
        """Build a tree from a child → parent mapping (roots map to nothing)."""
        return cls(edges=[(child, parent) for child, parent in parents.items()])

    def to_edge_list(self) -> List[Tuple[Label, Label]]:
        """A sorted list of edges; round-trips through the constructor."""
        return list(self.edges())

    def relabel(self, mapping: Dict[Label, Label]) -> "LabeledTree":
        """Return a copy with every vertex ``v`` renamed to ``mapping[v]``.

        The mapping must be injective over the tree's vertices.
        """
        targets = [mapping[v] for v in self._vertices]
        if len(set(targets)) != len(targets):
            raise ValueError("relabeling mapping is not injective")
        if self.n_vertices == 1:
            return LabeledTree(vertices=targets)
        return LabeledTree(edges=[(mapping[u], mapping[v]) for u, v in self.edges()])

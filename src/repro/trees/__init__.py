"""Labeled-tree substrate: input spaces for Approximate Agreement on trees.

Exports the tree data structures, the geometric primitives of Sections 2
and 5 (paths, distances, convex hulls, projections), the ``ListConstruction``
Euler tour of Section 6, the safe-area machinery used by the baseline, and
generators for the tree families swept by the benchmarks, and the
tree-spec grammar (:func:`parse_tree_spec`) every layer names trees with.
"""

from .convex import (
    convex_hull,
    hull_is_path,
    in_convex_hull,
    induced_subtree,
    steiner_diameter,
)
from .euler import EulerList, list_construction
from .generators import (
    binary_tree,
    broom_tree,
    caterpillar_tree,
    figure_tree,
    path_tree,
    random_tree,
    spider_tree,
    star_tree,
    tree_from_pruefer,
)
from .grammar import parse_tree_spec
from .labeled_tree import Label, LabeledTree, NotATreeError
from .lca import RootedTree
from .paths import (
    TreePath,
    diameter,
    diameter_path,
    distance,
    distances_from,
    eccentricity,
    farthest_vertex,
    is_path_in_tree,
    path_between,
)
from .projection import project_all, project_onto_path, projection_distance
from .serialization import (
    tree_from_dict,
    tree_from_json,
    tree_to_dict,
    tree_to_dot,
    tree_to_json,
)
from .safe_area import (
    brute_force_safe_area,
    component_value_counts,
    is_safe_vertex,
    safe_area,
    safe_area_midpoint,
    safe_area_subtree_path,
)

__all__ = [
    "Label",
    "LabeledTree",
    "NotATreeError",
    "RootedTree",
    "TreePath",
    "EulerList",
    "list_construction",
    "path_between",
    "distance",
    "distances_from",
    "diameter",
    "diameter_path",
    "eccentricity",
    "farthest_vertex",
    "is_path_in_tree",
    "convex_hull",
    "in_convex_hull",
    "hull_is_path",
    "induced_subtree",
    "steiner_diameter",
    "project_onto_path",
    "project_all",
    "projection_distance",
    "safe_area",
    "is_safe_vertex",
    "safe_area_midpoint",
    "safe_area_subtree_path",
    "brute_force_safe_area",
    "component_value_counts",
    "path_tree",
    "star_tree",
    "binary_tree",
    "caterpillar_tree",
    "spider_tree",
    "broom_tree",
    "random_tree",
    "tree_from_pruefer",
    "figure_tree",
    "parse_tree_spec",
    "tree_to_dict",
    "tree_from_dict",
    "tree_to_json",
    "tree_from_json",
    "tree_to_dot",
]

"""Lower-bound machinery: Fekete's bound on ℝ adapted to trees (Section 3)."""

from .chains import (
    ChainDemonstration,
    ChainLink,
    chain_links,
    demonstrate_real,
    demonstrate_tree,
    one_round_view_chain,
    safe_area_midpoint_rule,
    trimmed_mean_rule,
    trimmed_midpoint_rule,
)
from .fekete import (
    fekete_K,
    fekete_K_closed_form,
    lower_bound_table,
    max_split_product,
    min_rounds_required,
    optimal_integer_split,
    theorem2_lower_bound,
)

__all__ = [
    "optimal_integer_split",
    "max_split_product",
    "fekete_K",
    "fekete_K_closed_form",
    "min_rounds_required",
    "theorem2_lower_bound",
    "lower_bound_table",
    "one_round_view_chain",
    "chain_links",
    "ChainLink",
    "ChainDemonstration",
    "demonstrate_real",
    "demonstrate_tree",
    "trimmed_mean_rule",
    "trimmed_midpoint_rule",
    "safe_area_midpoint_rule",
]

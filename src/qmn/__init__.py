"""Exact power sum expansions of weighted labeled poset generating functions."""

from .compositions import coarsenings, is_refinement, pi, rearrangements, z
from .mn import (
    StripData,
    is_generalized_border_strip,
    is_gbs_via_hasse,
    mn_expansion,
    mn_monomial_expansion,
    natural_mn_expansion,
    rooted_surjections,
    strip_data,
)
from .posets import (
    LabeledPoset,
    from_covers,
    induced_subposet,
    is_naturally_labeled,
    load_poset,
    natural_relabeling,
    random_poset,
)
from .qsym import QsymExpr, equals, evaluate, power_sum_symmetric, psi_to_monomial
from .rewrites import add_edge_pair, reduce_to_natural_chains, split_weight
from .schur import SkewShape, chi, chi_bst, shape_to_poset
from .surjections import (
    OrderSurjection,
    enumerate_order_surjections,
    enumerate_partition_surjections,
    monomial_expansion,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

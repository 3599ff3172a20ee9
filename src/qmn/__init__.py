"""Exact power sum expansions of weighted labeled poset generating functions.

Names load on first use (PEP 562): `import qmn` imports no submodule, and
`qmn.mn_expansion` or `from qmn import mn_expansion` imports `qmn.mn` then.
The two input errors and the default size guard are defined here, where
every module, the CLI included, finds them without loading another;
`qmn.posets` re-exports them.
"""

import importlib

DEFAULT_MAX_N = 10


class PosetError(ValueError):
    pass


class PosetTooLarge(ValueError):
    """Raised when enumeration would exceed the size guard."""


# Each submodule and the public names it exports.
_EXPORTS = {
    "compositions": ("coarsenings", "is_refinement", "pi", "rearrangements", "z"),
    "mn": (
        "StripData",
        "is_generalized_border_strip",
        "is_gbs_via_hasse",
        "mn_expansion",
        "mn_monomial_expansion",
        "natural_mn_expansion",
        "rooted_surjections",
        "strip_data",
    ),
    "posets": (
        "LabeledPoset",
        "from_covers",
        "induced_subposet",
        "is_naturally_labeled",
        "load_poset",
        "natural_relabeling",
        "random_poset",
    ),
    "qsym": ("QsymExpr", "equals", "evaluate", "power_sum_symmetric", "psi_to_monomial"),
    "rewrites": ("add_edge_pair", "reduce_to_natural_chains", "split_weight"),
    "schur": ("SkewShape", "chi", "chi_bst", "shape_to_poset"),
    "surjections": (
        "OrderSurjection",
        "enumerate_order_surjections",
        "enumerate_partition_surjections",
        "monomial_expansion",
    ),
}
# Each public name and its home module; a submodule is its own home.
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = _HOME[name]
    module = importlib.import_module(f"{__name__}.{home}")
    value = module if home == name else getattr(module, name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})

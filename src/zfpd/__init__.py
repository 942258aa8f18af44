"""Exact zero-forcing and power-domination computations on small graphs.

Every public name is loaded from its module on first use (PEP 562), so
``import zfpd`` imports no submodule, and a ``zfpd`` command loads only the
modules its subcommand runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it; the keys are ``__all__``
_EXPORTS = {
    **dict.fromkeys(("Graph", "bits", "mask_of", "k_subsets", "is_path", "is_tree", "induces_connected"), "graph"),
    **dict.fromkeys(
        ("canonical_graph", "canonical_key", "are_isomorphic", "enumerate_connected", "enumerate_trees",
         "generate", "parse_graph6", "write_graph6"),
        "families",
    ),
    **dict.fromkeys(
        ("ForceLog", "closure", "closure_with_log", "is_power_dominating_set", "is_zero_forcing_set"),
        "propagation",
    ),
    **dict.fromkeys(
        ("ParamResult", "domination_number", "is_spider", "path_cover_number", "power_domination_number",
         "spider_number", "total_domination_number", "zero_forcing_number"),
        "invariants",
    ),
    **dict.fromkeys(("MinorWitness", "has_minor", "is_outerplanar", "is_planar"), "structure"),
    **dict.fromkeys(("amalgamate", "cartesian_product", "lexicographic_product"), "products"),
    **dict.fromkeys(("VerifyReport", "verify", "theorem_ids"), "theorems"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

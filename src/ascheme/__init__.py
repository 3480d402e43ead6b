"""Exact analysis of commutative association schemes.

Each public name is imported from its submodule on first access (PEP 562),
so `import ascheme` and a one-shot command load only the submodules they
use.  `from ascheme import catalog` still imports the submodule.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it, in __all__ order
_SUBMODULES = {
    "Scheme": "core",
    "EigenTable": "spectra",
    "FusionVerdict": "fusion",
    "GenerationReport": "generator",
    "TheoremVerdict": "generator",
    "SrgParams": "srg",
    "parse_scheme_file": "core",
    "emit_scheme_file": "core",
    "scheme_from_entries": "core",
    "verify_axioms": "core",
    "canonical_form": "core",
    "relabel_classes": "core",
    "symmetrize": "core",
    "character_table": "spectra",
    "union_spectrum": "spectra",
    "enumerate_admissible_partitions": "fusion",
    "fuse_direct": "fusion",
    "bannai_muzychuk_check": "fusion",
    "is_amorphic": "fusion",
    "amorphic_normal_form": "fusion",
    "idempotent_matching": "fusion",
    "generates": "generator",
    "find_generating_unions": "generator",
    "check_theorem_one_pair": "generator",
    "check_theorem_amorphic": "generator",
    "check_theorem_4class": "generator",
    "check_theorem_fission": "generator",
    "check_theorem_skew_types": "generator",
    "classify_skew_4class": "generator",
    "predict_fission_table": "generator",
    "srg_params_from_scheme": "srg",
    "srg_eigen": "srg",
    "connectivity_classification": "srg",
    "build_cyclotomic": "builders",
    "build_schurian": "builders",
    "build_product": "builders",
    "catalog_ids": "builders",
    "catalog_scheme": "builders",
    "run_catalog": "catalog",
}

__all__ = [*_SUBMODULES, "__version__"]

# The catalog battery's checks in report order, each theorem check with the
# generator function that decides it.  catalog builds CHECKS and THEOREMS
# from this table; the CLI reads the names here, without importing generator.
_CHECKS = {
    "axioms": None,
    "spectra": None,
    "fusion": None,
    "amorphic": None,
    "generators": None,
    "srg": None,
    "T1.2": "check_theorem_one_pair",
    "T1.3": "check_theorem_amorphic",
    "T1.4": "check_theorem_4class",
    "T3.1": "check_theorem_fission",
    "T4.1": "check_theorem_skew_types",
}


def __getattr__(name):
    try:
        submodule = _SUBMODULES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

"""The package root imports each public name from its submodule on first
access (PEP 562); the public API is the same as when it imported them all.
Every module-level import in the package is read where it is bound."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ascheme
from ascheme.exact import QuadVal

PUBLIC_NAMES = [
    "Scheme",
    "EigenTable",
    "FusionVerdict",
    "GenerationReport",
    "TheoremVerdict",
    "SrgParams",
    "parse_scheme_file",
    "emit_scheme_file",
    "scheme_from_entries",
    "verify_axioms",
    "canonical_form",
    "relabel_classes",
    "symmetrize",
    "character_table",
    "union_spectrum",
    "enumerate_admissible_partitions",
    "fuse_direct",
    "bannai_muzychuk_check",
    "is_amorphic",
    "amorphic_normal_form",
    "idempotent_matching",
    "generates",
    "find_generating_unions",
    "check_theorem_one_pair",
    "check_theorem_amorphic",
    "check_theorem_4class",
    "check_theorem_fission",
    "check_theorem_skew_types",
    "classify_skew_4class",
    "predict_fission_table",
    "srg_params_from_scheme",
    "srg_eigen",
    "connectivity_classification",
    "build_cyclotomic",
    "build_schurian",
    "build_product",
    "catalog_ids",
    "catalog_scheme",
    "run_catalog",
    "__version__",
]


def test_all_lists_the_public_api():
    assert ascheme.__all__ == PUBLIC_NAMES
    assert ascheme.__version__ == "0.1.0"


def test_each_public_name_is_the_object_of_its_defining_submodule():
    for name in PUBLIC_NAMES[:-1]:
        obj = getattr(ascheme, name)
        assert obj.__module__.startswith("ascheme."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name


def test_star_import_and_dir_list_every_public_name():
    ns = {}
    exec("from ascheme import *", ns)
    assert set(ns) - {"__builtins__"} == set(PUBLIC_NAMES)
    assert all(ns[name] is getattr(ascheme, name) for name in PUBLIC_NAMES)
    assert set(PUBLIC_NAMES) <= set(dir(ascheme))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ascheme.no_such_name
    assert not hasattr(ascheme, "DEFAULT_CATALOG")


def test_import_loads_no_submodule_and_submodules_still_import():
    env = dict(os.environ, PYTHONPATH=str(Path(ascheme.__file__).parents[1]))
    code = (
        "import sys, types, ascheme\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'ascheme'))\n"
        "from ascheme import catalog, builders\n"
        "print(type(catalog) is types.ModuleType, catalog.__name__, builders.__name__)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["ascheme", "True ascheme.catalog ascheme.builders"]


def test_quadval_is_a_value_without_arithmetic():
    """Exact arithmetic runs in integers (EigenTable.quarters keys,
    srg_eigen); a QuadVal is a value that QuadVal.make writes in its one
    normal form, with no operators to keep consistent with it."""
    for op in ("__add__", "__sub__", "__mul__", "__neg__"):
        assert not hasattr(QuadVal, op), op


# module-level imports kept only for other code to read: catalog re-exports
# the two builders that perfbench's ladder reads as catalog attributes, and
# catalog_ids, which its catalog workload reads
REEXPORTS = {
    ("catalog", "build_cyclotomic"),
    ("catalog", "build_product"),
    ("catalog", "catalog_ids"),
}


def test_every_module_level_import_is_read_in_its_module():
    """Each name a module-level import binds in src/ascheme/*.py is read
    somewhere in that module (a Load of the name, in any scope), except
    the re-exports listed in REEXPORTS."""
    unread = set()
    for path in sorted(Path(ascheme.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = {
            alias.asname or alias.name.split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread |= {(path.stem, name) for name in bound - read}
    assert unread == REEXPORTS

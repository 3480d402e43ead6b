"""The benchmark looks up package names: the layer tracer's targets, and
every name its workloads import from ascheme or read off an ascheme
module.  A rename in the package must fail here, not only in a benchmark
run."""

import ast
import importlib
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load_tracer():
    # compiled from the source text, so nothing is written beside it
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_layer_target_exists():
    targets = _load_tracer().layer_targets()
    assert len(targets) >= 20
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in targets
        if not hasattr(module, attr)
    ]
    assert missing == []


def test_fusion_span_sees_every_fusion_decision():
    """The tracer wraps fusion.fuse_direct, memo decorator included, and
    every other module binding of that same object; srg must decide its
    fusions through it for the fusion.direct span to cover them."""
    from ascheme import fusion, srg

    assert srg.fuse_direct is fusion.fuse_direct


def _module(name):
    """The ascheme module called name, or None when it names no module."""
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError:
        return None


def _ascheme_names(tree):
    """Every "module.name" the source tree imports from ascheme or reads
    as an attribute of a name bound to an ascheme module, in any scope."""
    bound, names = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ascheme":
                    names.append(alias.name)
                    top = alias.asname or alias.name.split(".")[0]
                    bound[top] = alias.name if alias.asname else "ascheme"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ascheme":
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                names.append(full)
                if _module(full) is not None:
                    bound[alias.asname or alias.name] = full

    def module_of(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            base = module_of(node.value)
            if base is not None and _module(f"{base}.{node.attr}") is not None:
                return f"{base}.{node.attr}"
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            base = module_of(node.value)
            if base is not None:
                names.append(f"{base}.{node.attr}")
    return names


def _exists(name):
    if _module(name) is not None:
        return True
    owner, _, attr = name.rpartition(".")
    module = _module(owner)
    return module is not None and hasattr(module, attr)


def test_every_package_name_the_benchmark_reads_exists():
    """Each perfbench/*.py is parsed, not imported, so nothing is run or
    written beside it; every name it takes from ascheme must exist."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        names.update(_ascheme_names(ast.parse(path.read_text(), str(path))))
    assert {
        "ascheme.generator.WITNESS_MAX_N",
        "ascheme.catalog.build_cyclotomic",
        "ascheme.catalog.build_product",
        "ascheme.catalog.run_catalog",
        "ascheme.catalog.records_to_jsonl",
        "ascheme.catalog.catalog_ids",
        "ascheme.errors.InconsistentIntersectionNumber",
        "ascheme.errors.InfeasibleParameters",
        "ascheme.errors.NotStronglyRegular",
        "ascheme.cli.main",
    } <= names
    assert sorted(n for n in names if not _exists(n)) == []

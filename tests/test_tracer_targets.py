"""The benchmark's layer tracer looks up package functions by name; a rename
in the package must fail here, not only in a traced benchmark run."""

import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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

"""In-memory spans around the public functions of each ascheme layer.

Used only by traced runs.  The tracer replaces a function on its defining
module and at every other place in the loaded ascheme modules that bound
the same object at import time (for example `srg.fuse_direct`,
`generator.is_amorphic`, the values of `cli.THEOREMS`), so calls made
inside the package are seen too.  Calls that go through `exactla.` or
`_kernels.` attribute lookups are caught by the module patch alone.

A span is [name, start_ns, end_ns, parent index, exception name, info]:
`info` holds counts read from the call's arguments or result.  Spans stay
in memory and are written out once at the end of the run.
"""

import functools
import json
import sys
import time
from collections import defaultdict


def _kernel_info(args, kwargs, result):
    e, d = args[0], args[1]
    return {"n": int(e.shape[0]), "d": int(d)}


def _parse_info(args, kwargs, result):
    return {"bytes": len(args[0])}


def _table_info(args, kwargs, result):
    if result is None:
        return None
    tags = result.exactness()
    return {"entries": len(tags), "exact": sum(t != "floating" for t in tags)}


def _generates_info(args, kwargs, result):
    if result is None:
        return None
    from ascheme import generator

    return {
        "generates": bool(result.generates),
        "verified": bool(result.witness_verified),
        "skipped": bool(result.generates and args[0].n > generator.WITNESS_MAX_N),
    }


def layer_targets():
    """(module, attribute, span name, info function) for every traced call."""
    from ascheme import _kernels, catalog, core, exactla, fusion, generator, spectra, srg

    return [
        (core, "parse_scheme_file", "core.parse", _parse_info),
        (core, "verify_axioms", "core.axioms", None),
        (core, "canonical_form", "core.canonical", None),
        (_kernels, "tensor_and_verify", "kernels.tensor", _kernel_info),
        (spectra, "character_table", "spectra.table", _table_info),
        (fusion, "fuse_direct", "fusion.direct", None),
        (fusion, "bannai_muzychuk_check", "fusion.bm", None),
        (fusion, "is_amorphic", "fusion.amorphic", None),
        (exactla, "minpoly_degree", "exactla.minpoly", None),
        (exactla, "rank", "exactla.rank", None),
        (exactla, "solve_exact", "exactla.solve", None),
        (exactla, "int_matmul", "exactla.matmul", None),
        (generator, "generates", "generator.generates", _generates_info),
        (generator, "check_theorem_one_pair", "generator.T1.2", None),
        (generator, "check_theorem_amorphic", "generator.T1.3", None),
        (generator, "check_theorem_4class", "generator.T1.4", None),
        (generator, "check_theorem_fission", "generator.T3.1", None),
        (generator, "check_theorem_skew_types", "generator.T4.1", None),
        (srg, "srg_params_from_scheme", "srg.params", None),
        (catalog, "catalog_scheme", "catalog.build", None),
    ]


class Tracer:
    """Context manager: installs the wrappers on entry, restores on exit."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if info is not None:
                    span[5] = info(args, kwargs, result)

        return traced

    def __enter__(self):
        modules = [
            m for k, m in sys.modules.items()
            if m is not None and (k == "ascheme" or k.startswith("ascheme."))
        ]
        for module, attr, name, info in layer_targets():
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, info)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patches.append((vars(mod), key, original))
                        setattr(mod, key, wrapper)
                    elif isinstance(val, dict):
                        for k2, v2 in list(val.items()):
                            if v2 is original:
                                self._patches.append((val, k2, original))
                                val[k2] = wrapper
        return self

    def __exit__(self, *exc):
        for ns, key, original in reversed(self._patches):
            ns[key] = original
        self._patches.clear()
        return False

    def self_times(self):
        """Seconds per span name, each span less the time its children cover."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            out[name] += (end - start - child_ns[i]) / 1e9
        return out

    def by_name(self, name):
        return [s for s in self.spans if s[0] == name]

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, start, end, parent, err, info in self.spans:
                fh.write(json.dumps({
                    "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "error": err, "info": info,
                }) + "\n")


THEOREM_SPANS = ("generator.T1.2", "generator.T1.3", "generator.T1.4",
                 "generator.T3.1", "generator.T4.1")


def layer_metrics(tracer):
    """Per-layer metrics from the spans: self times (inclusive times for the
    theorem checks), call counts, and the counters read from arguments and
    results.  Ratios over no calls read 0."""
    self_s = tracer.self_times()
    m = {}
    for _, _, name, _ in layer_targets():
        m[f"{name}_s"] = self_s.get(name, 0.0)
    # a theorem check is read whole: its time includes every layer it calls
    for name in THEOREM_SPANS:
        m[f"{name}_s"] = sum(s[2] - s[1] for s in tracer.by_name(name)) / 1e9

    def calls(name):
        return len(tracer.by_name(name))

    def ok(name):
        return sum(1 for s in tracer.by_name(name) if s[4] is None)

    def ratio(a, b):
        return a / b if b else 0.0

    for name in ("core.parse", "core.axioms", "kernels.tensor", "spectra.table",
                 "fusion.direct", "fusion.bm", "fusion.amorphic", "exactla.solve",
                 "exactla.matmul", "generator.generates", "srg.params"):
        m[f"{name}_calls"] = calls(name)

    parsed = sum(s[5]["bytes"] for s in tracer.by_name("core.parse"))
    m["core.parse_mb_per_s"] = ratio(parsed / 1e6, m["core.parse_s"])
    m["core.axioms_rejected"] = calls("core.axioms") - ok("core.axioms")

    kern = [s[5] for s in tracer.by_name("kernels.tensor")]
    # computed, not measured: the numpy kernel does (d+1)^2 n x n matmuls
    # over d+1 float64 masks of n^2 entries
    m["kernels.gflop"] = sum(2 * (k["d"] + 1) ** 2 * k["n"] ** 3 for k in kern) / 1e9
    m["kernels.mask_mb"] = sum(8 * (k["d"] + 1) * k["n"] ** 2 for k in kern) / 1e6
    m["kernels.gflop_per_s"] = ratio(m["kernels.gflop"], m["kernels.tensor_s"])

    tables = [s[5] for s in tracer.by_name("spectra.table") if s[5]]
    m["spectra.exact_share"] = ratio(
        sum(t["exact"] for t in tables), sum(t["entries"] for t in tables)
    )
    m["fusion.fuse_ratio"] = ratio(ok("fusion.direct"), calls("fusion.direct"))

    reps = [s[5] for s in tracer.by_name("generator.generates") if s[5]]
    m["generator.generating_ratio"] = ratio(sum(r["generates"] for r in reps), len(reps))
    m["generator.witness_verified"] = sum(r["verified"] for r in reps)
    m["generator.witness_skipped"] = sum(r["skipped"] for r in reps)
    m["srg.found"] = ok("srg.params")
    return m


# counters that must repeat exactly on the same inputs
COUNTERS = (
    "core.parse_calls", "core.axioms_calls", "core.axioms_rejected",
    "kernels.tensor_calls", "kernels.gflop", "kernels.mask_mb",
    "spectra.table_calls", "spectra.exact_share",
    "fusion.direct_calls", "fusion.fuse_ratio", "fusion.bm_calls",
    "fusion.amorphic_calls", "exactla.solve_calls", "exactla.matmul_calls",
    "generator.generates_calls", "generator.generating_ratio",
    "generator.witness_verified", "generator.witness_skipped",
    "srg.params_calls", "srg.found",
)

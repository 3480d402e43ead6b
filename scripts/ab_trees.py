"""Two source trees of ascheme side by side in one process, for the A/B
timing scripts `ab_catalog.py` and `ab_kernel.py`.

Each tree's src/ascheme is loaded as its own package, so both sides share
one interpreter, one numpy and one warm-up.  Calls alternate between the
sides, parent first in even pairs and change first in odd ones, and each
is timed in process CPU time, which leaves out the time a busy machine
keeps the process waiting, next to its minor page faults.
"""

import importlib
import importlib.util
import json
import resource
import statistics
import sys
import time
from pathlib import Path


def load(tree, name, module):
    """tree/src/ascheme imported as the package `name`; its submodule
    `module`."""
    init = Path(tree) / "src" / "ascheme" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return importlib.import_module(f"{name}.{module}")


def alternate(calls, pairs):
    """{side: [(CPU ms, minor page faults)]} of `pairs` alternated calls of
    calls["parent"] and calls["change"]."""
    samples = {side: [] for side in calls}
    for pair in range(pairs):
        for side in sorted(calls, reverse=pair % 2 == 0):
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.process_time()
            calls[side]()
            ms = (time.process_time() - start) * 1000.0
            samples[side].append((ms, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults))
    return samples


def report(samples, label=""):
    """Print each side's median and quartiles, its median page faults, the
    median change/parent ratio of the pairs and the number of pairs the
    change won, then the same as one JSON line; return that dict."""
    out = {"label": label} if label else {}
    ms = {side: [s[0] for s in rows] for side, rows in samples.items()}
    for side, rows in samples.items():
        q1, median, q3 = statistics.quantiles(ms[side], n=4)
        faults = statistics.median(s[1] for s in rows)
        out[side] = {
            "median_ms": round(median, 1),
            "q1_ms": round(q1, 1),
            "q3_ms": round(q3, 1),
            "minflt": round(faults),
        }
        print(
            f"{label + ' ' if label else ''}{side}: median {median:.1f} ms, "
            f"quartiles {q1:.1f} .. {q3:.1f} ms, {faults:.0f} minor faults per call"
        )
    pairs = list(zip(ms["parent"], ms["change"]))
    ratio = statistics.median(c / p for p, c in pairs)
    wins = sum(c < p for p, c in pairs)
    print(f"change/parent median ratio {ratio:.3f}; change won {wins} of {len(pairs)} pairs")
    out.update(ratio=round(ratio, 3), wins=wins, pairs=len(pairs))
    print(json.dumps(out))
    return out

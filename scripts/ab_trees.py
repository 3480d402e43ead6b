"""Two source trees of ascheme side by side in one process, for the A/B
timing scripts `ab_catalog.py` and `ab_kernel.py`.

Each tree's src/ascheme is loaded as its own package, so both sides share
one interpreter, one numpy and one warm-up.  Calls alternate between the
sides, parent first in even pairs and change first in odd ones, and each
is timed in process CPU time, which leaves out the time a busy machine
keeps the process waiting, and in wall time, next to its minor page
faults.  CPU time also counts OpenBLAS threads spin-waiting after the
other side's products, so a call that makes few products can read more
CPU than wall time; the report gives both.
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
    """{side: [(CPU ms, wall ms, minor page faults)]} of `pairs` alternated
    calls of calls["parent"] and calls["change"]."""
    samples = {side: [] for side in calls}
    for pair in range(pairs):
        for side in sorted(calls, reverse=pair % 2 == 0):
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start, wall = time.process_time(), time.perf_counter()
            calls[side]()
            ms = (time.process_time() - start) * 1000.0
            wall_ms = (time.perf_counter() - wall) * 1000.0
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            samples[side].append((ms, wall_ms, faults))
    return samples


def report(samples, label="", work=None):
    """Print each side's median and quartiles in CPU and in wall time and
    its median page faults, and beside them, when `work` ({side: n^3
    units}) is given, the kernel multiply-adds each side makes per call,
    in units of one whole n x n product; for each clock the median
    change/parent ratio of the pairs and the number of pairs the change
    won; then the same as one JSON line, and return that dict."""
    out = {"label": label} if label else {}
    prefix = label + " " if label else ""
    for side, rows in samples.items():
        faults = statistics.median(s[2] for s in rows)
        out[side] = {"minflt": round(faults)}
        if work is not None:
            out[side]["kernel_n3"] = round(work[side], 4)
            print(f"{prefix}{side}: {work[side]:.4g} n^3 kernel multiply-adds per call")
        for k, clock in enumerate(("cpu", "wall")):
            q1, median, q3 = statistics.quantiles([s[k] for s in rows], n=4)
            out[side][f"{clock}_median_ms"] = round(median, 1)
            out[side][f"{clock}_q1_ms"] = round(q1, 1)
            out[side][f"{clock}_q3_ms"] = round(q3, 1)
            print(f"{prefix}{side} {clock}: median {median:.1f} ms, "
                  f"quartiles {q1:.1f} .. {q3:.1f} ms")
        print(f"{prefix}{side}: {faults:.0f} minor faults per call")
    pairs = list(zip(samples["parent"], samples["change"]))
    for k, clock in enumerate(("cpu", "wall")):
        ratio = statistics.median(c[k] / p[k] for p, c in pairs)
        wins = sum(c[k] < p[k] for p, c in pairs)
        print(f"{clock} change/parent median ratio {ratio:.3f}; "
              f"change won {wins} of {len(pairs)} pairs")
        out[f"{clock}_ratio"], out[f"{clock}_wins"] = round(ratio, 3), wins
    out["pairs"] = len(pairs)
    print(json.dumps(out))
    return out

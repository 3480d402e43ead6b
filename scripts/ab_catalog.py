#!/usr/bin/env python3
"""A/B timing of the catalog battery between two source trees in one process.

    python3 scripts/ab_catalog.py PARENT_TREE CHANGE_TREE [--pairs 24]

Each tree's src/ascheme is loaded as its own package, so both sides share
one interpreter, one numpy and one warm-up.  The script alternates
run_catalog(workers=1) between them, parent first in even pairs and change
first in odd ones, and times each run in process CPU time, which leaves out
the time a busy machine keeps the process waiting.  It prints each side's
median and quartiles, the median change/parent ratio of the pairs and the
number of pairs the change won, then the same as one JSON line.
"""

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path


def load_catalog(tree, name):
    """tree/src/ascheme imported as the package name; its catalog module."""
    init = Path(tree) / "src" / "ascheme" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return importlib.import_module(f"{name}.catalog")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=24)
    args = ap.parse_args()
    sides = {"parent": load_catalog(args.parent, "ab_parent"),
             "change": load_catalog(args.change, "ab_change")}
    for cat in sides.values():
        cat.run_catalog(workers=1)
    ms = {side: [] for side in sides}
    for pair in range(args.pairs):
        for side in sorted(sides, reverse=pair % 2 == 0):
            start = time.process_time()
            sides[side].run_catalog(workers=1)
            ms[side].append((time.process_time() - start) * 1000.0)
    out = {}
    for side, times in ms.items():
        q1, median, q3 = statistics.quantiles(times, n=4)
        out[side] = {"median_ms": round(median, 1), "q1_ms": round(q1, 1), "q3_ms": round(q3, 1)}
        print(f"{side}: median {median:.1f} ms, quartiles {q1:.1f} .. {q3:.1f} ms")
    ratio = statistics.median(c / p for p, c in zip(ms["parent"], ms["change"]))
    wins = sum(c < p for p, c in zip(ms["parent"], ms["change"]))
    print(f"change/parent median ratio {ratio:.3f}; change won {wins} of {args.pairs} pairs")
    print(json.dumps({**out, "ratio": round(ratio, 3), "wins": wins, "pairs": args.pairs}))


if __name__ == "__main__":
    main()

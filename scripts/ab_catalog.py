#!/usr/bin/env python3
"""A/B timing of the catalog battery between two source trees in one process.

    python3 scripts/ab_catalog.py PARENT_TREE CHANGE_TREE [--pairs 24]
        [--checks fusion,amorphic,srg]

The script alternates run_catalog(workers=1) between the two trees, loaded
side by side by `ab_trees.py`, and times each run in process CPU time and
in wall time.  It prints each side's median and quartiles on each clock
and its page faults per run, for each clock the median change/parent
ratio of the pairs and the number of pairs the change won, then the same
as one JSON line.  --checks runs only the named checks
(run_catalog's checks=), so that one layer of the battery, such as the
fusion, amorphic and srg checks, can be timed on its own; each run builds
its schemes afresh, so a check also pays for the tables and the other
memoized results that it needs.
"""

import argparse

import ab_trees


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=24)
    ap.add_argument(
        "--checks", type=lambda text: text.split(","), help="comma-separated check names"
    )
    args = ap.parse_args()
    sides = {"parent": ab_trees.load(args.parent, "ab_parent", "catalog"),
             "change": ab_trees.load(args.change, "ab_change", "catalog")}
    for side, cat in sides.items():
        unknown = set(args.checks or ()) - set(cat.CHECKS)
        if unknown:
            ap.error(f"unknown checks {sorted(unknown)} in the {side} tree")
        cat.run_catalog(workers=1, checks=args.checks)
    calls = {
        side: lambda cat=cat: cat.run_catalog(workers=1, checks=args.checks)
        for side, cat in sides.items()
    }
    ab_trees.report(ab_trees.alternate(calls, args.pairs), ",".join(args.checks or ()))


if __name__ == "__main__":
    main()

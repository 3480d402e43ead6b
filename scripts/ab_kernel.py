#!/usr/bin/env python3
"""A/B timing of the axiom kernel and the scheme text codec between two
source trees in one process.

    python3 scripts/ab_kernel.py PARENT_TREE CHANGE_TREE [--pairs 24]

The script alternates calls between the two trees, loaded side by side by
`ab_trees.py`, on the two n = 961 colorings that the perfbench ladder
verifies: cyclotomic (31,2) squared (d = 8), and a copy with arc (500, 17)
and its reverse recolored, which passes axiom (3) and must be rejected.
The calls are core.verify_axioms on each coloring, core.parse_scheme_file
on each coloring's text in the layout emit_scheme_file writes for d <= 9
(for the valid one, the emitted text itself), and core.emit_scheme_file on
the valid scheme.  For each call it prints each side's median and
quartiles of process CPU time and of wall time per call and its minor
page faults per call, for each clock the median change/parent ratio and
the number of pairs the change won, then the same as one JSON line.
"""

import argparse

import ab_trees


def colorings(catalog):
    """(valid, corrupted) entry matrices and d of cyclotomic (31,2)^2."""
    c = catalog.build_cyclotomic(31, 2)
    s = catalog.build_product(c, c, "direct")
    bad = s.color.entries.copy()
    b = 1 + int(bad[500, 17]) % s.d
    bad[500, 17], bad[17, 500] = b, s.transpose_map[b]
    return s.color.entries, bad, s.d


def verify(core, errors, entries, d, valid):
    """A call of core.verify_axioms that checks its verdict."""
    c = core.color_matrix(entries, d)

    def call():
        try:
            core.verify_axioms(c)
        except errors.InconsistentIntersectionNumber:
            if valid:
                raise
        else:
            if not valid:
                raise AssertionError("corrupted coloring accepted")

    return call


def one_digit_text(entries):
    """A coloring with d <= 9 in the layout emit_scheme_file writes:
    the emitted text itself when the labels are canonical."""
    n = entries.shape[0]
    return f"{n} {int(entries.max())}\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in entries.tolist()
    )


def parse(core, text, entries):
    """A call of core.parse_scheme_file that checks its entries."""

    def call():
        if (core.parse_scheme_file(text).entries != entries).any():
            raise AssertionError("parsed entries differ")

    return call


def emit(core, entries, d, text):
    """A call of core.emit_scheme_file on the verified scheme of `entries`
    that checks its text."""
    s = core.verify_axioms(core.color_matrix(entries, d))

    def call():
        if core.emit_scheme_file(s) != text:
            raise AssertionError("emitted text differs")

    return call


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=24)
    args = ap.parse_args()
    trees = {"parent": (args.parent, "ab_parent"), "change": (args.change, "ab_change")}
    mods = {side: [ab_trees.load(tree, name, m) for m in ("core", "errors", "catalog")]
            for side, (tree, name) in trees.items()}
    valid, bad, d = colorings(mods["change"][2])
    # valid is in canonical labels, so its text is the emitted one, as
    # the emit call checks
    texts = {"valid": one_digit_text(valid), "corrupted": one_digit_text(bad)}
    runs = [
        ("valid", lambda core, errors: verify(core, errors, valid, d, True)),
        ("corrupted", lambda core, errors: verify(core, errors, bad, d, False)),
        ("parse valid", lambda core, errors: parse(core, texts["valid"], valid)),
        ("parse corrupted", lambda core, errors: parse(core, texts["corrupted"], bad)),
        ("emit valid", lambda core, errors: emit(core, valid, d, texts["valid"])),
    ]
    for label, make in runs:
        calls = {side: make(core, errors) for side, (core, errors, _) in mods.items()}
        for call in calls.values():
            call()
        ab_trees.report(ab_trees.alternate(calls, args.pairs), label)

if __name__ == "__main__":
    main()

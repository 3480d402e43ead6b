"""`catalog` workload: the full 11-check battery over the 45 catalog entries.

This is what users of the paper run.  The catalog is fixed, so the seed is
not used.  The workers=1 pass is made as one run_catalog(entry_ids=[id],
workers=1) call per entry, in the sorted id order run_catalog itself uses:
the joined JSONL must equal the committed digest of the whole battery, so
it is the same pass, and each call is one timed op.  The workers=2 pass is
one run_catalog(workers=2) call.
"""

import hashlib
import statistics

from ascheme import catalog

import measure

# small entries that reach every check, including the theorem checkers and
# the worker pool, so lazy imports and first-call costs land in set-up
WARM_IDS = ["cyclo-13-4", "cyclo-7-2", "petersen"]


def _digest(records):
    return hashlib.sha256(catalog.records_to_jsonl(records).encode()).hexdigest()


class Catalog:
    def __init__(self, seed, ops):
        self.ops = ops
        self.expected = measure.load_expected("catalog.json")
        self.ids = sorted(catalog.catalog_ids())
        self.entry_times = {eid: [] for eid in self.ids}

    def setup(self):
        catalog.run_catalog(entry_ids=WARM_IDS, workers=1)
        catalog.run_catalog(entry_ids=WARM_IDS[:2], workers=2)

    def _check_whole(self, records, what):
        got = _digest(records)
        self.ops.check(got == self.expected["sha256"], f"{what}: JSONL sha256 {got}")

    def pass_w1(self):
        """One timed op per entry; the joined records are checked whole too.
        Returns the pass in reference seconds."""
        clock = measure.RefClock()
        records = []
        for eid in self.ids:
            recs = clock(catalog.run_catalog, entry_ids=[eid], workers=1)
            self.entry_times[eid].append(clock.elapsed[-1])
            got = _digest(recs)
            self.ops.check(got == self.expected["entries"][eid],
                           f"{eid}: entry JSONL sha256 {got}")
            records.extend(recs)
        self._check_whole(records, "workers=1")
        return sum(clock.elapsed)

    def pass_w2(self):
        timed = measure.Timed(catalog.run_catalog, workers=2)
        self._check_whole(timed.out, "workers=2")
        return timed

    def traced_pass(self):
        self._check_whole(catalog.run_catalog(workers=1), "traced workers=1")

    def op_samples(self):
        """Per-entry median latency in reference seconds, one per entry."""
        return [statistics.median(ts) for ts in self.entry_times.values() if ts]


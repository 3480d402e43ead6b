"""`ladder` workload: one pass of the library over a size ladder.

The inputs are cyclotomic (101,2), (241,6), (256,5) and (257,2) and the
direct product cyclotomic(31,2) x cyclotomic(31,2) (n = 961, d = 8), each
under a seeded vertex permutation and class relabeling, written as scheme
text by this file (emit_scheme_file would canonicalize the labels away).
Two more inputs are transpose-consistent corruptions of the (256,5) and
n = 961 texts, which the axiom kernel must reject.

Per valid input the pass parses, verifies the axioms, computes the character
table, decides amorphicity (d <= 5), runs `generates` on the image of
canonical class 1, extracts SRG parameters from every symmetric class, and
round-trips emit -> parse.  Each of these library calls is one timed op.
The workers=2 pass only parses and verifies every input, spread over a
fork pool of 2 workers, so it is short enough for a run to hold three of
them next to the workers=1 pass.  The expected verdicts name classes in
canonical labels, so the committed file holds for every seed.
"""

import multiprocessing as mp
import statistics
import time

import numpy as np

from ascheme import catalog, core, fusion, generator, spectra, srg
from ascheme.errors import InconsistentIntersectionNumber, InfeasibleParameters, NotStronglyRegular

import measure


def _direct_31_2_squared():
    c = catalog.build_cyclotomic(31, 2)
    return catalog.build_product(c, c, "direct")


LADDER = [
    ("cyclotomic-101-2", lambda: catalog.build_cyclotomic(101, 2)),
    ("cyclotomic-241-6", lambda: catalog.build_cyclotomic(241, 6)),
    ("cyclotomic-256-5", lambda: catalog.build_cyclotomic(256, 5)),
    ("cyclotomic-257-2", lambda: catalog.build_cyclotomic(257, 2)),
    ("direct-31-2-squared", _direct_31_2_squared),
]
CORRUPTED = ["cyclotomic-256-5", "direct-31-2-squared"]
WARM = [("cyclotomic-13-4", lambda: catalog.build_cyclotomic(13, 4))]


def scheme_text(entries):
    """Scheme file text of a color matrix whose colors are single digits."""
    n = entries.shape[0]
    d = int(entries.max())
    if d > 9:
        raise ValueError("scheme_text writes single-digit colors only")
    buf = np.full((n, 2 * n), ord(" "), dtype=np.uint8)
    buf[:, 0::2] = entries + ord("0")
    buf[:, -1] = ord("\n")
    return f"{n} {d}\n" + buf.tobytes().decode("ascii")


def make_inputs(specs, seed):
    """[(name, text, union, corrupted pair or None)] for the given builders."""
    out = []
    for k, (name, build) in enumerate(specs):
        s = build()
        rng = np.random.default_rng([seed, k])
        n, d = s.n, s.d
        vperm = rng.permutation(n)
        lut = np.zeros(d + 1, dtype=np.int32)
        lut[1:] = 1 + rng.permutation(d)
        entries = lut[s.color.entries[np.ix_(vperm, vperm)]]
        out.append((name, scheme_text(entries), (int(lut[1]),), None))
        if name in CORRUPTED:
            # recolor one arc and its reverse so the transpose map still holds
            t = np.zeros(d + 1, dtype=np.int32)
            t[lut] = lut[list(s.transpose_map)]
            x, y = (int(v) for v in rng.choice(n, size=2, replace=False))
            b = int(rng.choice([c for c in range(1, d + 1) if c != entries[x, y]]))
            bad = entries.copy()
            bad[x, y], bad[y, x] = b, t[b]
            out.append((f"corrupt-{name}", scheme_text(bad), None, (x, y)))
    return out


def _verdict(s, union, timer):
    """Run the library pass on one verified scheme; returns its verdict."""
    table = timer(spectra.character_table, s)
    amorphic = timer(fusion.is_amorphic, s)[0] if s.d <= 5 else None
    rep = timer(generator.generates, s, union)
    found = []
    for i in range(1, s.d + 1):
        if not s.symmetric[i]:
            continue
        try:
            p = timer(srg.srg_params_from_scheme, s, (i,))
        except (NotStronglyRegular, InfeasibleParameters):
            continue
        found.append([p.n, p.k, p.lam, p.mu])
    return {
        "n": s.n,
        "d": s.d,
        "valencies": sorted(s.valencies),
        "multiplicities": sorted(table.multiplicities),
        "amorphic": amorphic,
        "eigen_count": rep.eigen_count,
        "generates": rep.generates,
        "srg": sorted(found),
    }


def _recount(e, i, j, pair):
    x, y = pair
    return int(np.count_nonzero((e[x, :] == i) & (e[:, y] == j)))


def _axioms(inp, timer):
    """Parse and verify one input: (scheme, []) for a valid input, (None,
    failures) for a corrupted one, whose witness is re-counted here."""
    name, text, _, corrupted = inp
    c = timer(core.parse_scheme_file, text)
    if corrupted is None:
        return timer(core.verify_axioms, c), []
    try:
        timer(core.verify_axioms, c)
    except InconsistentIntersectionNumber as exc:
        e = c.entries
        ok = (
            e[exc.pair_a] == exc.l == e[exc.pair_b]
            and exc.count_a != exc.count_b
            and _recount(e, exc.i, exc.j, exc.pair_a) == exc.count_a
            and _recount(e, exc.i, exc.j, exc.pair_b) == exc.count_b
        )
        return None, [] if ok else [f"{name}: witness does not re-count: {exc}"]
    return None, [f"{name}: corrupted input accepted"]


def run_input(inp, timer):
    """The whole pass on one input; returns (name, failures, verdict)."""
    name, _, union, _ = inp
    s, fails = _axioms(inp, timer)
    if s is None:
        return name, fails, None
    verdict = _verdict(s, union, timer)
    c2 = timer(core.parse_scheme_file, timer(core.emit_scheme_file, s))
    perm = np.asarray(core.canonical_class_order(s), dtype=np.int32)
    if not np.array_equal(c2.entries, perm[s.color.entries]):
        fails.append(f"{name}: parse(emit(s)) differs from the canonical relabeling")
    return name, fails, verdict


def _plain(fn, *args):
    return fn(*args)


def _axioms_task(inp):
    """Parse and verify only; the verdict holds the keys verify decides."""
    s, fails = _axioms(inp, _plain)
    shape = None if s is None else {"n": s.n, "d": s.d, "valencies": sorted(s.valencies)}
    return inp[0], fails, shape


class Ladder:
    def __init__(self, seed, ops):
        self.seed = seed
        self.ops = ops
        self.expected = measure.load_expected("ladder.json")
        self.inputs = []
        self.call_times = []  # per pass: durations of each library call in order

    def setup(self):
        for inp in make_inputs(WARM, self.seed):
            run_input(inp, _plain)
        self.inputs = make_inputs(LADDER, self.seed)

    def _check(self, name, fails, verdict):
        if verdict is not None:
            want = {k: self.expected[name][k] for k in verdict}
            if verdict != want:
                fails = fails + [f"{name}: verdict {verdict} != expected {want}"]
        self.ops.check(not fails, "; ".join(fails))

    def pass_w1(self):
        """Each library call is one timed op.  Returns the sum of the calls
        in reference seconds."""
        clock = measure.RefClock()
        for inp in self.inputs:
            self._check(*run_input(inp, clock))
        self.call_times.append(clock.elapsed)
        return sum(clock.elapsed)

    def _pool_pass(self):
        # fork, as run_catalog does: workers start from this process's imports
        with mp.get_context("fork").Pool(2) as pool:
            results = pool.map(_axioms_task, self.inputs, chunksize=1)
            pool.close()
            pool.join()
        return results

    def pass_w2(self):
        """Parse and verify every input, the corrupted ones too, over a pool
        of 2 workers: the axiom kernel twice at once.  Returns the pass in
        wall seconds, unscaled: two BLAS-bound kernels at once do not follow
        the speed of the pure-Python calibration loop, and scaling them by
        it made this figure spread more (perfbench/NOTES.md)."""
        t0 = time.perf_counter()
        results = self._pool_pass()
        dt = time.perf_counter() - t0
        for res in results:
            self._check(*res)
        return dt

    def traced_pass(self):
        for inp in self.inputs:
            self._check(*run_input(inp, _plain))

    def op_samples(self):
        """Per-call median latency in reference seconds; calls line up
        across passes."""
        return [statistics.median(ts) for ts in zip(*self.call_times)]


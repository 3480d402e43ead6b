"""Timing, statistics and bookkeeping shared by the workloads.

Every workload times its ops and passes with the clocks here, which scale
wall time to reference seconds, and reduces the samples with the same
helpers, so the three workloads report their metrics the same way.
"""

import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED = BENCH_DIR / "expected"
WORK = BENCH_DIR / "work"

# most failure messages printed to stderr per run
MAX_REPORTED_FAILURES = 10


def tail(xs):
    """(value, percentile, samples beyond) of the highest percentile with at
    least ten samples beyond it.

    With fewer than 21 samples that percentile would fall below the median,
    so the upper-median sample is taken instead and `samples beyond` says
    how many samples lie above it.
    """
    s = sorted(xs)
    n = len(s)
    k = max(n - 11, n // 2)
    return s[k], 100.0 * (k + 1) / n, n - 1 - k


# On a shared 2-vCPU virtual machine the CPU speed drifted by up to 2x over
# minutes for the same code.  So every time is reported in reference
# seconds: wall seconds scaled by how long a fixed pure-Python calibration
# loop takes next to the work, against CAL_REF_S, its duration on a quiet
# host.  The raw wall times go to the details on stderr.
CAL_REF_S = 0.002


def _loop_s():
    t0 = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i % 7
    return time.perf_counter() - t0


# (perf_counter when taken, seconds) of every calibration in this process
CALIBRATIONS = []


def calibrate(rounds=5):
    """Seconds the calibration loop takes right now: the median of `rounds`
    runs, since one run jitters by about 15%."""
    cal = statistics.median(_loop_s() for _ in range(rounds))
    CALIBRATIONS.append((time.perf_counter(), cal))
    return cal


class RefClock:
    """Times ops, in reference seconds.

    Each op's wall time is scaled by CAL_REF_S over the mean of the
    calibrations taken just before and just after it, on the same thread,
    so the scale follows the host's speed from one op to the next.  The ops
    run on this thread, so the calibrations never share the CPU with them.
    `elapsed` keeps one entry per op.
    """

    def __init__(self):
        self.last = calibrate()
        self.elapsed = []

    def __call__(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            now = calibrate()
            self.elapsed.append(dt * 2 * CAL_REF_S / (self.last + now))
            self.last = now


# how far from a whole-call op (Timed) its calibrations may lie
CAL_WINDOW_S = 5.0


class Timed:
    """One call timed as a whole: a launch, a workers=2 pass, a set-up round,
    the import.

    The call may start workers or launches, so the loop cannot run next to
    it; it runs just before and just after.  The host's speed moves within
    a tenth of a second, so two calibrations are a poor guess for a call of
    seconds.  `ref()` scales the wall time instead by the median of every
    calibration this process took within CAL_WINDOW_S of the call, before
    or after; all of them ran while no worker or launch did.  Ask for it
    once the calibrations after the call have been taken.
    """

    def __init__(self, fn, *args, **kwargs):
        calibrate()
        self.start = time.perf_counter()
        self.out = fn(*args, **kwargs)
        self.raw = time.perf_counter() - self.start
        calibrate()

    def ref(self):
        lo, hi = self.start - CAL_WINDOW_S, self.start + self.raw + CAL_WINDOW_S
        near = [cal for t, cal in CALIBRATIONS if lo <= t <= hi]
        return self.raw * CAL_REF_S / statistics.median(near)


def peak_rss_mb():
    """Largest peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def alternate(seconds, cycle, min_cycles):
    """Run the pass functions of `cycle` in order, cycle after cycle: at
    least `min_cycles` cycles, and one more only while it should end within
    `seconds` at the mean cycle time so far.

    Each pass returns its own duration as a number, or as a Timed, whose
    reference seconds are worked out once the run is over.  Returns
    those, and the raw wall times, each keyed by the function's name.  A
    garbage collection runs before each pass, outside the timed region.
    """
    ref = {fn.__name__: [] for fn in cycle}
    raw = {fn.__name__: [] for fn in cycle}
    start = time.perf_counter()
    done = 0
    while True:
        elapsed = time.perf_counter() - start
        if done >= min_cycles and elapsed + elapsed / done > seconds:
            break
        for fn in cycle:
            gc.collect()
            dt, r = timed(fn)
            ref[fn.__name__].append(r)
            raw[fn.__name__].append(dt)
        done += 1
    calibrate()  # so the last Timed has calibrations after it
    ref = {k: [ref_seconds(r) for r in v] for k, v in ref.items()}
    return ref, raw


def ref_seconds(result):
    """Reference seconds of what a pass returned: a number or a Timed."""
    return result.ref() if isinstance(result, Timed) else result


class Ops:
    """Correctness gates: one entry per operation checked."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < MAX_REPORTED_FAILURES:
                self.messages.append(what)
        return ok


def load_expected(name):
    with open(EXPECTED / name) as fh:
        return json.load(fh)


def emit_result(ops, metrics, units, details):
    """Print the details to stderr and the one-line result to stdout."""
    for msg in ops.messages:
        print(f"FAILED: {msg}", file=sys.stderr)
    details = dict(details, attempted=ops.attempted, failed=ops.failed,
                   fail_share=ops.failed / ops.attempted if ops.attempted else None)
    print(json.dumps(details, sort_keys=True, default=str), file=sys.stderr)
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


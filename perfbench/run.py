#!/usr/bin/env python3
"""Layered benchmark of ascheme: end-to-end metrics per workload, per-layer
metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Workloads are `catalog`, `ladder` and `cold_start` (see perfbench/NOTES.md).
With --trace 0 the last stdout line is a JSON object holding every
end-to-end metric named in BENCHMARK.json; with --trace 1 it holds every
per-layer metric.  Details (raw pass times, the tail percentile and its
sample count, failures) go to stderr.  The package is imported from src/,
so nothing needs to be installed.
"""

import argparse
import gc
import importlib
import json
import statistics
import sys

import measure

WORKLOADS = {
    # module, class, passes of one cycle, minimum cycles per untraced run,
    # set-up rounds.  The workers=2 passes spread most, from pass to pass, so
    # catalog runs two of them a cycle and ladder three; a workers=1 pass
    # already sums many scaled ops, so ladder's long one runs once.  A
    # cold_start set-up round is one launch, which spreads more than the
    # in-process rounds of the others.
    "catalog": ("wl_catalog", "Catalog", ("pass_w1", "pass_w2", "pass_w2"), 2, 3),
    "ladder": ("wl_ladder", "Ladder", ("pass_w1", "pass_w2", "pass_w2", "pass_w2"), 1, 3),
    "cold_start": ("wl_cold_start", "ColdStart", ("pass_w1", "pass_w2"), 3, 5),
}


def measured(wl, name, seconds, setup_s):
    cycle, min_cycles = WORKLOADS[name][2:4]
    ref, raw = measure.alternate(seconds, [getattr(wl, p) for p in cycle], min_cycles)
    w1, w2 = ref["pass_w1"], ref["pass_w2"]
    ops = wl.op_samples()
    tail, pct, beyond = measure.tail(ops)
    metrics = {
        "wall_s": statistics.median(w1),
        "wall_w2_s": statistics.median(w2),
        "op_p50_ms": statistics.median(ops) * 1000.0,
        "op_tail_ms": tail * 1000.0,
        "setup_s": setup_s,
        "peak_rss_mb": measure.peak_rss_mb(),
    }
    details = {
        "wall_s_samples": w1,
        "wall_w2_s_samples": w2,
        "raw_wall_s_samples": raw["pass_w1"],
        "raw_wall_w2_s_samples": raw["pass_w2"],
        "op_samples": len(ops),
        "op_tail_percentile": pct,
        "op_tail_samples_beyond": beyond,
    }
    return metrics, details


def traced(wl, name, seed, ops):
    import ascheme.cli  # noqa: F401  (loaded first, so the tracer patches its names)
    import tracer
    from wl_cold_start import cli_breakdown

    metrics = cli_breakdown(ops)
    gc.collect()
    _, w1 = measure.timed(wl.pass_w1)
    gc.collect()
    _, w2 = measure.timed(wl.pass_w2)
    w1, w2 = measure.ref_seconds(w1), measure.ref_seconds(w2)
    gc.collect()
    plain, _ = measure.timed(wl.traced_pass)
    gc.collect()
    with tracer.Tracer() as tr:
        wall, _ = measure.timed(wl.traced_pass)
    spans = measure.WORK / f"spans-{name}-seed{seed}.jsonl"
    tr.write(spans)
    metrics.update(tracer.layer_metrics(tr))
    # the counters come from inputs and outputs, so a second pass repeats them
    with tracer.Tracer() as again:
        wl.traced_pass()
    repeat = tracer.layer_metrics(again)
    for key in tracer.COUNTERS:
        ops.check(metrics[key] == repeat[key],
                  f"counter {key} = {metrics[key]}, then {repeat[key]} on a second pass")

    metrics["catalog.max_entry_s"] = max(wl.op_samples())
    metrics["catalog.speedup_w2"] = w1 / w2
    self_sum = sum(tr.self_times().values())
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - plain
    metrics["trace.self_sum_s"] = self_sum
    ops.check(self_sum <= wall, f"span self times {self_sum} exceed traced wall {wall}")
    return metrics, {"untraced_s": plain, "spans": str(spans)}


def _seed(text):
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be a non-negative integer")
    return seed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=_seed, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (measure.SRC / "ascheme" / "__init__.py").is_file():
        print(f"error: no ascheme package under {measure.SRC}", file=sys.stderr)
        return 2
    with open(measure.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    sys.path.insert(0, str(measure.SRC))
    module, cls, _, _, setup_rounds = WORKLOADS[args.workload]
    # importing the workload module imports ascheme (not for cold_start)
    imported = measure.Timed(importlib.import_module, module)
    ops = measure.Ops()
    wl = getattr(imported.out, cls)(args.seed, ops)
    setups = [measure.Timed(wl.setup) for _ in range(setup_rounds)]
    setups = [(t.ref(), t.raw) for t in setups]
    import_s = imported.ref()
    setup_s = import_s + statistics.median(ref for ref, _ in setups)

    if args.trace:
        metrics, details = traced(wl, args.workload, args.seed, ops)
        # every gate of the run has been checked by now
        metrics["fail_share"] = ops.failed / ops.attempted
    else:
        metrics, details = measured(wl, args.workload, args.seconds, setup_s)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 3
    details.update(workload=args.workload, seed=args.seed, import_s=import_s,
                   raw_import_s=imported.raw, setup_samples_ref_raw=setups)
    measure.emit_result(ops, metrics, units, details)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run one workload over several seeds and report each end-to-end metric's
spread: the distance between the first and third quartile of its values
(statistics.quantiles, n=4) as a share of their median, next to the bound
in BENCHMARK.json.

    python3 perfbench/spread.py --workload ladder --seeds 1 2 3 4 5

Runs go one after another from the repository root; each run's result
line and details line are appended to perfbench/work/spread-<workload>.jsonl.
The spread of the unscaled wall times is printed last, as a measure of how
much the host's speed drifted meanwhile.
"""

import argparse
import json
import statistics
import subprocess
import sys

from measure import ROOT, WORK


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args()
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    WORK.mkdir(parents=True, exist_ok=True)
    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        line = proc.stdout.strip().splitlines()[-1]
        details = proc.stderr.strip().splitlines()[-1]
        with open(WORK / f"spread-{args.workload}.jsonl", "a") as fh:
            fh.write(line + "\n" + details + "\n")
        res = json.loads(line)
        res["raw_wall_s"] = statistics.median(json.loads(details)["raw_wall_s_samples"])
        print(f"seed {seed}: correct={res['correct']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
              flush=True)
        results.append(res)
    if len(results) < 2:
        return
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        flag = "ok" if share < m["bound"] / 3 else "WIDE"
        print(f"{m['name']:>12}: median {med:.4g}  spread {share:.3f}  "
              f"bound {m['bound']}  {flag}")
    # the same spread of the unscaled wall times shows how much the host drifted
    q1, med, q3 = statistics.quantiles([r["raw_wall_s"] for r in results], n=4)
    print(f"{'raw wall_s':>12}: median {med:.4g}  spread {(q3 - q1) / med:.3f}")


if __name__ == "__main__":
    main()

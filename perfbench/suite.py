#!/usr/bin/env python3
"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/suite.py                    # every workload, seed 1
    python3 perfbench/suite.py --seeds 1-10 --trace --out perfbench/baseline/BENCH_x.json

Every workload named in BENCHMARK.json runs for its run_seconds; each run is
`run.py` in its own process, one after another.  For every
end-to-end metric the summary gives the median over seeds, the quartiles,
and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json; it also prints failed_frac per workload.  With --trace, one
traced run per workload (first seed) adds the per-layer metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit("%s failed (%d):\n%s" % (" ".join(cmd), proc.returncode, proc.stderr))
    lines = proc.stdout.splitlines()
    meta = next(json.loads(l[7:]) for l in lines if l.startswith("# meta "))
    # run.py has checked that ddcp comes from this checkout; keep the summary
    # free of where the checkout happens to live.
    meta["ddcp_file"] = str(Path(meta["ddcp_file"]).relative_to(ROOT))
    result = json.loads(lines[-1])
    result["meta"] = meta
    sys.stderr.write(proc.stderr)
    return result


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer_names = [m["name"] for m in bench["per_layer"]]

    seconds = bench["run_seconds"]
    report = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, s, seconds, False) for s in seeds]
        for r in runs:
            if set(r["metrics"]) != set(e2e):
                raise SystemExit("end-to-end metrics differ from BENCHMARK.json")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {
            "meta": runs[0]["meta"],
            "correct": all(r["correct"] for r in runs),
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "metrics": {},
        }
        print("== %s: %d run(s), correct=%s, failed_frac=%.6f (%d of %d)" % (
            workload, len(runs), entry["correct"], entry["failed_frac"], failed, attempted))
        if len(seeds) > 1:
            print("   %-16s %12s %12s %12s %8s %6s %s" % (
                "metric", "median", "q1", "q3", "spread", "bound", "unit"))
        for name, m in e2e.items():
            s = summarise([r["metrics"][name]["value"] for r in runs]) if len(seeds) > 1 else {
                "values": [runs[0]["metrics"][name]["value"]]}
            entry["metrics"][name] = dict(s, unit=m["unit"], bound=m["bound"])
            if len(seeds) > 1:
                print("   %-16s %12.6g %12.6g %12.6g %8.4f %6.3f %s" % (
                    name, s["median"], s["q1"], s["q3"], s["spread"], m["bound"], m["unit"]))
            else:
                print("   %-16s %12.6g %s" % (name, s["values"][0], m["unit"]))
        if args.trace:
            traced = run_once(workload, seeds[0], seconds, True)
            if list(traced["metrics"]) != layer_names:
                raise SystemExit("per-layer metrics differ from BENCHMARK.json")
            entry["traced_correct"] = traced["correct"]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            print("   traced run: correct=%s" % traced["correct"])
            for name, v in traced["metrics"].items():
                print("   %-42s %14.6g %s" % (name, v["value"], v["unit"]))
        report["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()

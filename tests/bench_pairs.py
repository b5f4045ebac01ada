"""Alternating parent/change pairs of the benchmark, written as one JSON file.

Runs perfbench/run.py from two checkout directories, a parent and a change,
in alternating pairs, and reports every end-to-end metric of each workload
side by side:

    python tests/bench_pairs.py --parent ../parent --change . \\
        --claim route_sweep:wall_s > BENCH_name.json

The workloads, the end-to-end metrics with their bounds and the run
length are those of the change's BENCHMARK.json.  Pair k (1..10) runs
every workload at seed k, in BENCHMARK.json's order, each on both sides
before the next; odd pairs run the parent first, even pairs the change
first.  Then two held-out pairs of the claimed workload run at seed 11,
alternating the same way, and --traced runs per side and workload record
the per-layer counts of a traced seed-1 run (--trace 1); the counts must
agree across the runs of a side.

For each workload and metric the record gives both medians and quartiles
(statistics.quantiles, n=4, inclusive); worse_frac, (change - parent) /
parent median, signed so that positive is worse; change_better_pairs, the
pairs in which the change read better; parent_iqr, the distance between
the parent's quartiles; and within_bound, worse_frac against the bound of
BENCHMARK.json.  A claim is met when the change reads better in at least
nine tenths of the pairs and on both held-out pairs, the median gap
exceeds the parent's interquartile distance, the relative gain is at
least --claim-min, and the change's runs of the claimed workload fail no
more operations in total than the parent's.  Standard library only, and not collected by pytest.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN = ["python3", "perfbench/run.py"]
PAIRS = 10
HELD_OUT_PAIRS = 2
HELD_OUT_SEED = 11


def run(root, workload, seed, seconds, trace=0):
    """The JSON result of one perfbench run from the checkout at root."""
    out = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def values(result):
    return {k: m["value"] for k, m in result["metrics"].items()}


def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return [round(q[0], 6), round(q[2], 6)]


def compare(parent, change, spec):
    """The side-by-side record of one metric over paired runs."""
    lower = spec["better"] == "lower"
    pm, cm = statistics.median(parent), statistics.median(change)
    worse = (cm - pm) / pm if lower else (pm - cm) / pm
    pq, cq = quartiles(parent), quartiles(change)
    return {
        "parent_median": round(pm, 6),
        "change_median": round(cm, 6),
        "parent_quartiles": pq,
        "change_quartiles": cq,
        "worse_frac": round(worse, 4),
        "change_better_pairs": sum(
            (c < p) if lower else (c > p) for p, c in zip(parent, change)
        ),
        "parent_iqr": round(pq[1] - pq[0], 6),
        "bound": spec["bound"],
        "within_bound": worse <= spec["bound"],
    }


def traced_counts(roots, workload, runs):
    """Each side's counts of a traced seed-1 run, checked equal across its
    runs, its median self times, and the .calls counts that differ."""
    out = {}
    for side, root in roots.items():
        results = [run(root, workload, 1, 2, trace=1) for _ in range(runs)]
        per_run = [{k: v for k, v in values(r).items()
                    if not k.endswith("_s") and not k.endswith("_frac")}
                   for r in results]
        if any(c != per_run[0] for c in per_run):
            raise SystemExit("%s %s: traced counts differ across runs"
                             % (side, workload))
        counts = {"correct": all(r["correct"] for r in results),
                  "failed": sum(r["failed"] for r in results)}
        counts.update(per_run[0])
        out[side] = counts
        out[side + "_self_s_median"] = {
            k: round(statistics.median(values(r)[k] for r in results), 5)
            for k in values(results[0]) if k.endswith(".self_s")
        }
    out["calls_changed"] = {
        k: [out["parent"][k], out["change"][k]]
        for k in out["parent"]
        if k.endswith(".calls") and out["parent"][k] != out["change"].get(k)
    }
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--parent-label", default="parent")
    parser.add_argument("--change-label", default="change")
    parser.add_argument("--claim", help="WORKLOAD:METRIC claimed better")
    parser.add_argument("--claim-min", type=float, default=0.0)
    parser.add_argument("--traced", type=int, default=1)
    parser.add_argument("--about", default="")
    args = parser.parse_args()
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    specs = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    def pair(workload, seed, k):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        got = {side: run(roots[side], workload, seed, seconds)
               for side in order}
        print("# pair %d %s %s" % (k, workload, json.dumps(
            {s: round(values(r)["wall_s"], 6) for s, r in got.items()})),
            file=sys.stderr)
        return got

    results = {w: {"parent": [], "change": []} for w in workloads}
    for k in range(1, PAIRS + 1):
        for w in workloads:
            for side, r in pair(w, k, k).items():
                results[w][side].append(r)
    claim_w, claim_m = args.claim.split(":") if args.claim else (None, None)
    held_out = [pair(claim_w, HELD_OUT_SEED, k)
                for k in range(1, HELD_OUT_PAIRS + 1)] if claim_w else []

    medians, runs = {}, {}
    for w, sides in results.items():
        per = {side: [values(r) for r in rs] for side, rs in sides.items()}
        medians[w] = {
            name: compare([v[name] for v in per["parent"]],
                          [v[name] for v in per["change"]], spec)
            for name, spec in specs.items()
        }
        medians[w]["failed"] = {
            side: "%d of %d" % (sum(r["failed"] for r in rs),
                                sum(r["attempted"] for r in rs))
            for side, rs in sides.items()
        }
        runs[w] = per
    record = {
        "about": args.about,
        "parent": args.parent_label,
        "change": args.change_label,
        "command": " ".join(RUN) + " --workload W --seed PAIR --seconds %g "
                   "--trace 0" % seconds,
        "order": "odd pairs run the parent first, even pairs the change "
                 "first; within a pair, each workload runs on both sides "
                 "before the next, in the order %s; then %d held-out %s "
                 "pairs at seed %d, alternating the same way"
                 % (", ".join(workloads), len(held_out), claim_w,
                    HELD_OUT_SEED),
        "host": {"python": platform.python_version(),
                 "nproc": len(os.sched_getaffinity(0)), "processes": 1,
                 "note": "shared host; times are perfbench host-clock "
                         "seconds"},
    }
    if claim_w:
        m = medians[claim_w][claim_m]
        lower = specs[claim_m]["better"] == "lower"
        outs = []
        for got in held_out:
            p, c = (values(got[s])[claim_m] for s in ("parent", "change"))
            outs.append({"parent": p, "change": c,
                         "change_better": c < p if lower else c > p})
        failed = {
            side: sum(r["failed"] for r in results[claim_w][side])
            + sum(got[side]["failed"] for got in held_out)
            for side in ("parent", "change")
        }
        gap = abs(m["parent_median"] - m["change_median"])
        record["claim"] = {
            "metric": "%s %s" % (claim_w, claim_m),
            "change_better_pairs": m["change_better_pairs"],
            "pairs": PAIRS,
            "median_gap": round(gap, 6),
            "parent_iqr": m["parent_iqr"],
            "relative_change": round(-m["worse_frac"], 4),
            "held_out_seed_%d" % HELD_OUT_SEED: outs,
            "failed": failed,
            "met": (m["change_better_pairs"] >= 0.9 * PAIRS
                    and -m["worse_frac"] >= args.claim_min
                    and gap > m["parent_iqr"]
                    and all(o["change_better"] for o in outs)
                    and failed["change"] <= failed["parent"]),
        }
        runs[claim_w]["held_out"] = [
            {side: values(r) for side, r in got.items()} for got in held_out
        ]
    if args.traced:
        record["traced"] = {
            "command": " ".join(RUN) + " --workload W --seed 1 --seconds 2 "
                       "--trace 1",
            "workloads": {w: traced_counts(roots, w, args.traced)
                          for w in workloads},
        }
    record["medians"] = medians
    record["runs"] = runs
    json.dump(record, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()

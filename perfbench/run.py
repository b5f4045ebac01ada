#!/usr/bin/env python3
"""Run one benchmark workload on the ddcp of this checkout.

    python3 perfbench/run.py --workload route_sweep --seed 1 --seconds 20 --trace 0

Every unit of the workload (one classification call, or one pass over the
seeded sample) runs on a fresh import of ddcp with freshly built inputs; that
set-up is timed too.  All times are read from clock.HostClock.  Units
repeat, with tracing off, until --seconds have passed and at least two have
run.  With --trace 1 one more unit runs under the per-layer tracer, and
the per-layer metrics are reported instead of the end-to-end ones.
Human-readable lines come first; the last line of standard output is the
JSON result.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from math import ceil
from pathlib import Path
from time import perf_counter

from clock import HostClock
from tracing import Tracer, per_layer_spec
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIRST_SETUPS = 10
MIN_UNITS = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "objects_per_s": "1/s",
    "object_p50_ms": "ms",
    "object_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


class Refused(Exception):
    """The benchmark cannot measure this checkout."""


def fresh_import():
    """Import ddcp from this checkout's src/, dropping any earlier import."""
    if not (SRC / "ddcp" / "__init__.py").is_file():
        raise Refused("no ddcp package under %s" % SRC)
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "ddcp" or m.startswith("ddcp.")]:
        del sys.modules[name]
    try:
        ddcp = importlib.import_module("ddcp")
    except ImportError as exc:
        raise Refused("cannot import ddcp: %s" % exc) from exc
    found = Path(ddcp.__file__).resolve().parent
    if found != (SRC / "ddcp").resolve():
        raise Refused("ddcp resolves to %s, not to this checkout's src/" % found)
    return ddcp


def commit_of(root):
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def unit_cost_s(unit):
    return statistics.mean(unit.latencies_ms) * unit.objects / 1000


def run(workload_name, seed, seconds, trace):
    with HostClock() as clock:
        return measure(clock, workload_name, seed, seconds, trace)


def measure(clock, workload_name, seed, seconds, trace):
    cls = WORKLOADS[workload_name]
    sample = cls.sample(seed)
    setup_s = []

    def set_up():
        """Import ddcp afresh and build the inputs, so that nothing a unit
        leaves in the program's memory can serve the next one."""
        gc.collect()
        t0 = clock.now()
        workload = cls(fresh_import(), sample)
        setup_s.append(clock.now() - t0)
        return workload

    for _ in range(FIRST_SETUPS):
        workload = set_up()
    meta = {
        "workload": workload_name,
        "seed": seed,
        "ddcp_file": workload.ddcp.__file__,
        "commit": commit_of(ROOT),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    print("# meta " + json.dumps(meta, sort_keys=True))

    units = []
    start = perf_counter()
    while len(units) < MIN_UNITS or perf_counter() - start < seconds:
        units.append(set_up().run_unit(clock))
    # Every unit decides the same objects in the same order: an object's
    # latency is the median of its decisions in this run.
    latency = [statistics.median(t) for t in zip(*(u.latencies_ms for u in units))]
    per_unit = units[0].objects
    wall = statistics.mean(latency) * per_unit / 1000
    values = {
        "setup_s": statistics.median(setup_s),
        "wall_s": wall,
        "objects_per_s": per_unit / wall,
        "object_p50_ms": statistics.median(latency),
        "object_p95_ms": nearest_rank(latency, 0.95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units_of = dict(END_TO_END)
    tally = sum((u.tally for u in units), Counter())
    print("# %d units of %d objects; %d latency samples, each the median of %d; "
          "%d set-ups" % (len(units), per_unit, len(latency), len(units), len(setup_s)))
    print("# unit_s " + " ".join("%.3f" % unit_cost_s(u) for u in units))
    print("# tally " + json.dumps(dict(sorted(tally.items()))))

    if trace:
        workload = set_up()
        tracer = Tracer()
        tracer.install()
        try:
            raw0, host0 = perf_counter(), clock.now()
            traced = workload.run_unit(clock)
            host_per_raw = (clock.now() - host0) / (perf_counter() - raw0)
        finally:
            tracer.uninstall()
        problems = workload.funnel_problems(tracer.funnel)
        problems += ["tracer: no %s in this ddcp" % key for key in tracer.missing]
        if problems:
            traced.failed = traced.objects
            traced.errors += problems
        units.append(traced)

    attempted = sum(u.objects for u in units)
    failed = sum(u.failed for u in units)
    errors = [e for u in units for e in u.errors]
    print("# failed_frac %.6f (%d of %d objects)" % (failed / attempted, failed, attempted))
    for name, value in values.items():
        print("%-40s %14.6g %s" % (name, value, units_of[name]))
    if trace:
        untraced = statistics.median([unit_cost_s(u) for u in units[:-1]])
        overhead = unit_cost_s(traced) / untraced - 1
        values = tracer.metrics(traced.objects, overhead, host_per_raw)
        units_of = {name: u for name, u, _ in per_layer_spec()}
        for name, value in values.items():
            print("%-40s %14.6g %s" % (name, value, units_of[name]))
    for line in errors[:10]:
        print("failure: " + line, file=sys.stderr)
    return {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units_of[k]} for k, v in values.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except Refused as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

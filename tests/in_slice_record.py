"""Record of the module route's closed form against the sequence reference.

For each n from 1 up to --max-n (default 6), takes every basic slice over
A_n (every nonempty set of intervals, in summand order) and every vertex e
that some member of the slice covers, and compares deciders._in_slice, the
closed form the module route reads, with oracles.in_slice_reference, which
reads the same outcome off a fresh minimal approximation sequence by rank
counts.  Records per n:
- keys: the (slice, vertex) pairs compared;
- mismatches: how many of them differ, and the first few, each as its
  slice's [a, b] pairs and its vertex;
- exact: the keys whose sequence P(e) -> X0 -> X1 is exact at X0, and
  exact_onto: those that are exact with X0 -> X1 onto as well.

Everything but the "times" field is independent of the host.  n = 5 takes
about 20 s and n = 6 about 40 min.  Standard library only, and not
collected by pytest:

    PYTHONPATH=src python tests/in_slice_record.py > in_slice_record.json
    PYTHONPATH=src python tests/in_slice_record.py --max-n 5 --deterministic \\
        | diff tests/golden/in_slice_record.txt -

--deterministic prints one line per n, the record without its times.
The full record's "command" is the command line it was run with.  The exit
status is 1 when a key mismatches, else 0.
"""

import argparse
import json
import os
import platform
import shlex
import sys
import time
from itertools import combinations

from ddcp.deciders import _in_slice
from ddcp.quiver import Algebra
from oracles import in_slice_reference

SHOWN = 10  # mismatches listed per n


def record(n):
    alg = Algebra(n)
    intervals = alg.intervals()
    keys = exact = exact_onto = 0
    mismatched = []
    t0 = time.perf_counter()
    for size in range(1, len(intervals) + 1):
        for members in combinations(intervals, size):
            for e in range(1, n + 1):
                if not any(iv.a <= e <= iv.b for iv in members):
                    continue
                closed = _in_slice(alg, members, e)
                keys += 1
                exact += closed[1]
                exact_onto += closed[2]
                if closed != in_slice_reference(alg, members, e):
                    mismatched.append([[[iv.a, iv.b] for iv in members], e])
    return {
        "n": n,
        "keys": keys,
        "mismatches": len(mismatched),
        "first_mismatches": mismatched[:SHOWN],
        "exact": exact,
        "exact_onto": exact_onto,
        "times": {"wall_s": round(time.perf_counter() - t0, 3)},
    }


def command():
    """The command line this run was started with, its PYTHONPATH
    included."""
    path = os.environ.get("PYTHONPATH")
    prefix = ["PYTHONPATH=" + path] if path else []
    return shlex.join(prefix + ["python"] + sys.argv)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--deterministic", action="store_true")
    args = parser.parse_args()
    records = [record(n) for n in range(1, args.max_n + 1)]
    if args.deterministic:
        for r in records:
            del r["times"]
            print(json.dumps(r, sort_keys=True))
    else:
        print(json.dumps({
            "command": command(),
            "host": {"python": platform.python_version(),
                     "nproc": os.cpu_count()},
            "note": "every field but times is independent of the host",
            "records": records,
        }, indent=1))
    sys.exit(any(r["mismatches"] for r in records))


if __name__ == "__main__":
    main()

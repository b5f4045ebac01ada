"""Record of the corner reduction, in both directions.

For each n from 1 up to --max-n (default 5), takes every shift-normalised
n-summand object over shift window 2 that is applicable to check_ddcp and
passes ddcp_precheck (oracles.corner_objects), and compares each side of
the reduction (oracles.corner_reduction): check_ddcp against every slice
dcp over its corner, and check_tilting_complex against every slice
tilting over its corner.  Records per n:
- objects: the population compared;
- ddcp, tilting: the objects with each derived property;
- mismatches: the objects on which either equivalence fails, and the
  first few, each as its summands (a, b, shift).

Everything but the "times" field is independent of the host.  n = 5 takes
about 6 s.  Standard library only, and not collected by pytest:

    PYTHONPATH=src python tests/corner_record.py > corner_record.json
    PYTHONPATH=src python tests/corner_record.py --deterministic \\
        | diff tests/golden/corner_record.txt -

The exit status is 1 when an object mismatches, else 0.
"""

import argparse
import time

from oracles import corner_objects, corner_reduction
from records import emit

SHOWN = 10  # mismatches listed per n


def record(n):
    objects = ddcp = tilting = 0
    mismatched = []
    t0 = time.perf_counter()
    for x in corner_objects(n):
        objects += 1
        sides = corner_reduction(x)
        ddcp += sides[0][0]
        tilting += sides[1][0]
        if any(held != corners for held, corners in sides):
            mismatched.append([[iv.a, iv.b, s] for iv, s in x.summands])
    return {
        "n": n,
        "objects": objects,
        "ddcp": ddcp,
        "tilting": tilting,
        "mismatches": len(mismatched),
        "first_mismatches": mismatched[:SHOWN],
        "times": {"wall_s": round(time.perf_counter() - t0, 3)},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--max-n", type=int, default=5)
    parser.add_argument("--deterministic", action="store_true")
    args = parser.parse_args()
    records = [record(n) for n in range(1, args.max_n + 1)]
    emit(records, args.deterministic, any(r["mismatches"] for r in records))


if __name__ == "__main__":
    main()

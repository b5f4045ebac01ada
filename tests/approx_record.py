"""Record of the derived route's approximation sequences against the Hom
module reference.

For each n from 1 up to --max-n (default 6), decides every shift-normalised
n-summand object over shift window 2 (the route-agreement population,
oracles.normalised_objects) with check_ddcp_derived, which meets the same
(P(e)[i], x) keys as the derived tilting route, and compares each sequence
that the route asks min_left_approx_sequence for with
oracles.approx_sequence_reference, which builds it from hom_module,
end_of and module_generators.  Two sequences match when T0, f, T1 and g
are equal entry for entry.  Records per n:
- objects: the population decided;
- reached: the objects for which the derived route asks for a sequence;
- keys: the (P(e)[i], x) pairs compared;
- mismatches: how many of them differ, and the first few, each as x's
  summands (a, b, shift) and the vertex e and shift i;
- t1_empty: the keys whose sequence has no T1.

Everything but the "times" field is independent of the host.  n = 5 takes
about 20 s and n = 6 about 8 min.  Standard library only, and not
collected by pytest:

    PYTHONPATH=src python tests/approx_record.py > approx_record.json
    PYTHONPATH=src python tests/approx_record.py --max-n 5 --deterministic \\
        | diff tests/golden/approx_record.txt -

The exit status is 1 when a key mismatches, else 0.
"""

import argparse
import time

from ddcp import deciders
from oracles import approx_sequence_reference, normalised_objects
from records import emit

SHOWN = 10  # mismatches listed per n


def entries(seq):
    """A sequence's T0, f, T1 and g, entry for entry."""
    return (seq.t0.summands, seq.f.entries, seq.t1.summands, seq.g.entries)


def record(n):
    asked = []
    sequence = deciders.min_left_approx_sequence

    def recording(y, t):
        seq = sequence(y, t)
        asked.append((y, t, seq))
        return seq

    objects = reached = keys = t1_empty = 0
    mismatched = []
    t0 = time.perf_counter()
    deciders.min_left_approx_sequence = recording
    try:
        for x in normalised_objects(n, [n]):
            objects += 1
            deciders.check_ddcp_derived(x)
            reached += bool(asked)
            for y, t, seq in asked:
                keys += 1
                t1_empty += not seq.t1.summands
                if entries(seq) != entries(approx_sequence_reference(y, t)):
                    (p, i), = y.summands
                    mismatched.append([[[iv.a, iv.b, s] for iv, s in t.summands],
                                       p.a, i])
            asked.clear()
    finally:
        deciders.min_left_approx_sequence = sequence
    return {
        "n": n,
        "objects": objects,
        "reached": reached,
        "keys": keys,
        "mismatches": len(mismatched),
        "first_mismatches": mismatched[:SHOWN],
        "t1_empty": t1_empty,
        "times": {"wall_s": round(time.perf_counter() - t0, 3)},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--deterministic", action="store_true")
    args = parser.parse_args()
    records = [record(n) for n in range(1, args.max_n + 1)]
    emit(records, args.deterministic, any(r["mismatches"] for r in records))


if __name__ == "__main__":
    main()

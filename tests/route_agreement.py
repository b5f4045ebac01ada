"""Route agreement of the complex deciders over whole populations.

For each n given (default 4 and 5), decides every shift-normalised
n-summand object over shift window 2 (minimum shift 0, summands distinct)
with check_ddcp, check_ddcp_derived and check_tilting_complex under both
routes, and records:
- the number of objects with each verdict: not applicable, tilting, ddcp
  but not tilting, or neither;
- every object whose four reports contradict each other (the module and
  derived routes differ, applicability differs, a not-applicable report is
  true, or tilting comes without ddcp), with its contradictions;
- where perfbench/route_reference.json covers n (n <= 5), every object
  whose verdict differs from the reference's.  The reference is read and
  never written.

Objects, verdicts and contradictions are those of the benchmark's route
sweep (perfbench/workloads.py), which decides a sample of the same
populations: the objects are the first ranks of the lexicographic
combinations of the atoms (interval, shift), shift 0 first.  Everything but
the "times" field is independent of the host.  Standard library only, and
not collected by pytest:

    PYTHONPATH=src python tests/route_agreement.py > route_agreement.json
    PYTHONPATH=src python tests/route_agreement.py --n 4 --deterministic \\
        | diff tests/golden/route_agreement_n4.txt -
    PYTHONPATH=src python tests/route_agreement.py --n 5 --deterministic \\
        | diff tests/golden/route_agreement_n5.txt -

The exit status is 1 when an object's reports contradict each other or its
verdict differs from the reference, else 0.
"""

import argparse
import json
import sys
import time
from collections import Counter
from itertools import combinations, islice
from pathlib import Path

from ddcp.deciders import check_ddcp, check_ddcp_derived, check_tilting_complex
from ddcp.derived import DerivedObject
from ddcp.quiver import Algebra
from records import NOTE, emit

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import (  # noqa: E402
    ROUTE_OUTCOMES,
    ROUTE_REFERENCE,
    RouteSweep,
    route_atoms,
    route_population,
    route_problems,
    route_verdict,
    unpack_flags,
)

WINDOW = RouteSweep.window


def reference_verdicts(n):
    """The reference's verdict letter per rank at n, or None if it has
    none for n."""
    ref = json.loads(ROUTE_REFERENCE.read_text())
    packed = ref["verdicts"].get(str(n)) if ref["window"] == WINDOW else None
    return None if packed is None else unpack_flags(packed)


def record(n):
    alg = Algebra(n)
    size = route_population(n, WINDOW)
    reference = reference_verdicts(n)
    if reference is not None and len(reference) != size:
        raise SystemExit("%s does not cover n=%d" % (ROUTE_REFERENCE, n))
    counts = Counter()
    disagreements = []
    differ = []
    t0 = time.perf_counter()
    combos = combinations(route_atoms(alg, WINDOW), n)
    for rank, combo in enumerate(islice(combos, size)):
        x = DerivedObject(alg, combo)
        reports = (
            check_ddcp(x),
            check_ddcp_derived(x),
            check_tilting_complex(x, "module"),
            check_tilting_complex(x, "derived"),
        )
        got = route_verdict(reports)
        counts[got] += 1
        problems = route_problems(reports)
        if problems:
            disagreements.append({"rank": rank, "object": repr(x), "problems": problems})
        if reference is not None and reference[rank] != got:
            differ.append({
                "rank": rank,
                "object": repr(x),
                "verdict": ROUTE_OUTCOMES[got],
                "reference": ROUTE_OUTCOMES[reference[rank]],
            })
    wall = time.perf_counter() - t0
    return {
        "n": n,
        "objects": size,
        "verdicts": {name: counts[code] for code, name in ROUTE_OUTCOMES.items()},
        "disagreements": disagreements,
        "reference_differ": None if reference is None else differ,
        "times": {"wall_s": round(wall, 3), "ms_per_object": round(wall * 1000 / size, 4)},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--n", type=int, nargs="+", default=[4, 5])
    parser.add_argument("--deterministic", action="store_true")
    args = parser.parse_args()
    records = [record(n) for n in args.n]
    emit(records, args.deterministic,
         any(r["disagreements"] or r["reference_differ"] for r in records),
         NOTE + "; reference_differ is null where the reference has no n")


if __name__ == "__main__":
    main()

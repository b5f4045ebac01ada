"""Record of the module deciders' verdict counts over every basic module.

For each m from 1 up to --max-m (default 6), decides every basic module
over the chain algebra A_m -- every nonempty set of its m(m + 1)/2
intervals, 2^(m(m+1)/2) - 1 modules -- with check_module_dcp and
check_tilting_module, and records per m:
- modules: how many were decided;
- dcp: the modules with the double centraliser property, against
  dcp_closed_form, the product of 2^j - 1 over j = 1..m;
- tilting: the tilting modules, against tilting_closed_form, 2^(m - 1);
- not_applicable: the modules whose End is not hereditary, where
  check_tilting_module reports not applicable.

Everything but the "times" field is independent of the host.  m = 5 takes
a few seconds and m = 6 a few minutes.  Standard library only, and not
collected by pytest:

    PYTHONPATH=src python tests/module_counts.py > module_counts.json
    PYTHONPATH=src python tests/module_counts.py --max-m 5 --deterministic \\
        | diff tests/golden/module_counts.txt -

--deterministic prints one line per m, the record without its times.
The full record's "command" is the command line it was run with.  The exit
status is 1 when a count differs from its closed form, else 0.
"""

import argparse
import json
import os
import platform
import shlex
import sys
import time
from itertools import combinations
from math import prod

from ddcp.deciders import check_module_dcp, check_tilting_module
from ddcp.quiver import Algebra


def record(m):
    alg = Algebra(m)
    intervals = alg.intervals()
    modules = dcp = tilting = not_applicable = 0
    t0 = time.perf_counter()
    for size in range(1, len(intervals) + 1):
        for members in combinations(intervals, size):
            multiset = dict.fromkeys(members, 1)
            modules += 1
            dcp += bool(check_module_dcp(alg, multiset))
            report = check_tilting_module(alg, multiset)
            tilting += report.verdict
            not_applicable += not report.applicable
    return {
        "m": m,
        "modules": modules,
        "dcp": dcp,
        "dcp_closed_form": prod(2 ** j - 1 for j in range(1, m + 1)),
        "tilting": tilting,
        "tilting_closed_form": 2 ** (m - 1),
        "not_applicable": not_applicable,
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
    parser.add_argument("--max-m", type=int, default=6)
    parser.add_argument("--deterministic", action="store_true")
    args = parser.parse_args()
    records = [record(m) for m in range(1, args.max_m + 1)]
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
    sys.exit(any(r["dcp"] != r["dcp_closed_form"]
                 or r["tilting"] != r["tilting_closed_form"]
                 for r in records))


if __name__ == "__main__":
    main()

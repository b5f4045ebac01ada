#!/usr/bin/env python3
"""Recompute the committed references the benchmark checks against and
samples from.

    python3 perfbench/make_reference.py

module_reference.json: for every basic 5-summand module over the chain
algebra with 5 vertices (3003, in lexicographic order of combinations of
Algebra(5).intervals()), its dcp/tilting verdict code and its cost class.

route_reference.json: for every shift-normalised object of the route sweep
(4635 at n = 4, 139503 at n = 5, in lexicographic rank order), its verdict
code (workloads.route_verdict) and its cost class.  An object whose four
reports contradict each other stops the run: a reference is built only from
a program that passes the sweep's own checks.

The cost class of an object is min(25, floor(3 log2(1 + t / 0.1 ms))), where
t is the time its decisions took on the host clock (clock.HostClock); the
sweeps sample each class in proportion, so a run's cost does not hinge on
the seed.  Takes about twenty minutes.  Run it only when a reference
must be rebuilt: the benchmark compares the program against these files,
and the cost classes were measured at the seed commit.
"""

import json
from collections import Counter
from itertools import combinations, islice
from math import log2

from clock import HostClock
from run import fresh_import
from workloads import (
    MODULE_REFERENCE,
    ROUTE_REFERENCE,
    ModuleSweep,
    RouteSweep,
    module_verdict,
    pack_flags,
    route_atoms,
    route_population,
    route_problems,
    route_verdict,
)


def cost_class(seconds):
    return min(25, int(3 * log2(1 + seconds / 1e-4)))


def module_reference(ddcp, clock):
    alg = ddcp.Algebra(ModuleSweep.n)
    verdicts = []
    cost = []
    for combo in combinations(alg.intervals(), ModuleSweep.summands):
        multiset = {iv: 1 for iv in combo}
        t0 = clock.now()
        verdicts.append(
            module_verdict(
                ddcp.check_module_dcp(alg, multiset),
                ddcp.check_tilting_module(alg, multiset),
            )
        )
        cost.append(chr(ord("a") + cost_class(clock.now() - t0)))
    print("module verdicts:", dict(Counter(verdicts)))
    return {"verdicts": verdicts, "cost": pack_flags(cost)}


def route_reference(ddcp, clock):
    window = RouteSweep.window
    verdicts = {}
    cost = {}
    for n in RouteSweep.sizes:
        alg = ddcp.Algebra(n)
        atoms = route_atoms(alg, window)
        codes = []
        letters = []
        for combo in islice(combinations(atoms, n), route_population(n, window)):
            x = ddcp.DerivedObject(alg, combo)
            t0 = clock.now()
            reports = [
                ddcp.check_ddcp(x),
                ddcp.check_ddcp_derived(x),
                ddcp.check_tilting_complex(x, "module"),
                ddcp.check_tilting_complex(x, "derived"),
            ]
            letters.append(chr(ord("a") + cost_class(clock.now() - t0)))
            problems = route_problems(reports)
            if problems:
                raise SystemExit("n=%d %r: %s" % (n, combo, "; ".join(problems)))
            codes.append(route_verdict(reports))
        print("n=%d: %d objects, verdicts %s" % (n, len(codes), dict(Counter(codes))))
        verdicts[str(n)] = pack_flags(codes)
        cost[str(n)] = pack_flags(letters)
    return {"window": window, "verdicts": verdicts, "cost": cost}


def main():
    ddcp = fresh_import()
    with HostClock() as clock:
        for path, build in ((MODULE_REFERENCE, module_reference), (ROUTE_REFERENCE, route_reference)):
            path.write_text(json.dumps(build(ddcp, clock), separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()

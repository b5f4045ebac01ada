"""Fingerprint what the library computes, to compare two checkouts.

Prints one line per section: its name, the number of items and the sha256
of their canonical JSON.  Two checkouts compute the same things when their
lines are identical:

    PYTHONPATH=src python tests/equivalence_dump.py

Standard library only, and not collected by pytest.  It calls the entry
points as this checkout defines them; to compare with an earlier checkout,
run that checkout's own copy of the script.

Populations:
- end: every shift-normalised object of at most n summands over shifts
  {0, 1}, n <= 4, and every object of at most 3 summands drawn with
  repetition over shifts {0, 1, 2}, n <= 3 (repeated summands, degree-2
  composites);
- hom and approx: y the regular object or P(e)[s], s in {0, 1}, against
  every shift-normalised object of at most n summands over shifts {0, 1},
  n <= 4;
- ranks: the vertex counts of the sequence-based reference for the module
  route's closed form (oracles.ranks and oracles.dims), rank f_v and
  rank g_v and the dims of y, T0 and T1, for every sequence of the approx
  population whose terms lie in one shift;
- deciders: the four complex deciders on every shift-normalised n-summand
  object over shifts {0, 1}, n <= 4; verify_homology_corners on those with
  n <= 3; both module deciders on every basic module of at most 5
  summands, n <= 5;
- cli_end: `ddcp end` on the objects of the end population.
"""

import contextlib
import hashlib
import io
import json

from ddcp import cli
from ddcp.approx import hom_module, min_left_approx_sequence
from ddcp.deciders import (
    check_ddcp,
    check_ddcp_derived,
    check_module_dcp,
    check_tilting_complex,
    check_tilting_module,
    verify_homology_corners,
)
from ddcp.derived import DerivedObject
from ddcp.endalg import end_of
from ddcp.quiver import Algebra
from oracles import (
    basic_modules, dims, normalised_objects, ranks, repeated_objects
)


def end_population():
    for n in (1, 2, 3, 4):
        yield from normalised_objects(n, range(1, n + 1))
    yield from repeated_objects()


def approx_pairs():
    for n in (1, 2, 3, 4):
        alg = Algebra(n)
        ys = [DerivedObject(alg, [(alg.projective(e), 0) for e in range(1, n + 1)])]
        ys += [
            DerivedObject(alg, [(alg.projective(e), s)])
            for s in (0, 1)
            for e in range(1, n + 1)
        ]
        for t in normalised_objects(n, range(1, n + 1)):
            for y in ys:
                yield y, t


def obj_json(x):
    return [[iv.a, iv.b, s] for iv, s in x.summands]


def mor_json(f):
    return [[k, l, str(c)] for (k, l), c in sorted(f.entries.items())]


def end_items():
    for x in end_population():
        c = end_of(x)
        yield [
            obj_json(x),
            [list(lab) for lab in c.basis],
            list(c.idempotents),
            sorted([i, j, k] for (i, j), k in c.table.items()),
        ]


def hom_items():
    for y, t in approx_pairs():
        m, gens = hom_module(y, t)
        # the action as one dense row per algebra basis element, None for
        # a zero product
        images = [[m.table.get((a, i)) for i in range(m.dim)]
                  for a in range(m.algebra.dim)]
        yield [obj_json(y), obj_json(t), gens, images]


def approx_items():
    for y, t in approx_pairs():
        seq = min_left_approx_sequence(y, t)
        yield [
            obj_json(y),
            obj_json(t),
            obj_json(seq.t0),
            mor_json(seq.f),
            obj_json(seq.t1),
            mor_json(seq.g),
        ]


def rank_items():
    for y, t in approx_pairs():
        seq = min_left_approx_sequence(y, t)
        terms = (y, seq.t0, seq.t1)
        if len({s for x in terms for _, s in x.summands}) == 1:
            yield [
                obj_json(y),
                obj_json(t),
                ranks(seq.f),
                ranks(seq.g),
                [dims(x) for x in terms],
            ]


def decider_items():
    for n in (1, 2, 3, 4):
        for x in normalised_objects(n, [n]):
            reports = [
                check_ddcp(x),
                check_ddcp_derived(x),
                check_tilting_complex(x, "module"),
                check_tilting_complex(x, "derived"),
            ]
            if n <= 3:
                reports.append(verify_homology_corners(x))
            for r in reports:
                yield [obj_json(x), r.as_dict()]
    for alg, multiset in basic_modules(range(1, 6), range(6)):
        key = [alg.n, sorted([iv.a, iv.b] for iv in multiset)]
        for r in check_module_dcp(alg, multiset), check_tilting_module(alg, multiset):
            yield [key, r.as_dict()]


def cli_end_items():
    for x in end_population():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run([
                "end",
                "--n", str(x.alg.n),
                "--object", json.dumps(cli.object_to_json(x)),
            ])
        yield [code, out.getvalue()]


SECTIONS = [
    ("end", end_items),
    ("hom", hom_items),
    ("approx", approx_items),
    ("deciders", decider_items),
    ("cli_end", cli_end_items),
    ("ranks", rank_items),
]


def main():
    for name, items in SECTIONS:
        digest = hashlib.sha256()
        count = 0
        for item in items():
            digest.update(json.dumps(item, sort_keys=True).encode())
            digest.update(b"\n")
            count += 1
        print("%s %d %s" % (name, count, digest.hexdigest()))


if __name__ == "__main__":
    main()

"""Scaling record of the classification over the chain algebra A_n.

For each n from 5 up to --max-n (default 12), runs
enumerate_and_classify(Algebra(n), bound=n) once over shift window 2, and
records:
- the wall time, and the share of it spent in end_of;
- the funnel: cliques, shift-normalised candidates, candidates with
  End = A_n, survivors;
- the candidates ddcp_precheck rejects, by reason (a vertex without a
  unique supporting shift, or a kernel interval outside the next slice);
- the candidates that pass the pre-check but fail check_ddcp;
- lambda, and for each survivor its family label and check_tilting_complex
  under both routes.

The counts are read by wrapping the names that classify calls, so the
library runs unchanged.  Everything but the "times" field is independent of
the host.  Standard library only, and not collected by pytest:

    PYTHONPATH=src python tests/classify_scaling.py > classify_scaling.json
    PYTHONPATH=src python tests/classify_scaling.py --max-n 9 --deterministic \\
        | diff tests/golden/classify_scaling.txt -
"""

import argparse
import time
from collections import Counter
from contextlib import contextmanager

from ddcp import classify
from ddcp.deciders import check_tilting_complex
from ddcp.quiver import Algebra
from records import emit

REASONS = {
    "supported in shifts": "no unique shift",
    "kernel interval": "kernel outside next slice",
}


@contextmanager
def observed(counts, end_of_s):
    """Wrap the names classify calls: counts gets the funnel and the
    pre-check outcomes, end_of_s[0] the seconds spent in end_of."""
    originals = {
        name: getattr(classify, name)
        for name in (
            "_clique_candidates",
            "end_of",
            "is_linear_A",
            "ddcp_precheck",
            "check_ddcp",
        )
    }

    def cliques(*args):
        out = originals["_clique_candidates"](*args)
        counts["cliques"] += len(out)
        return out

    def end_of(x):
        t0 = time.perf_counter()
        try:
            return originals["end_of"](x)
        finally:
            end_of_s[0] += time.perf_counter() - t0

    def is_linear_A(c):
        m = originals["is_linear_A"](c)
        counts["normalised"] += 1
        counts["end_An"] += m == len(c.idempotents)
        return m

    def ddcp_precheck(x):
        reason = originals["ddcp_precheck"](x)
        if reason is not None:
            kind = [v for k, v in REASONS.items() if k in reason]
            counts["rejected: " + kind[0]] += 1
        return reason

    def check_ddcp(x):
        report = originals["check_ddcp"](x)
        counts["survivors" if report else "passed precheck, failed"] += 1
        return report

    wrappers = {
        "_clique_candidates": cliques,
        "end_of": end_of,
        "is_linear_A": is_linear_A,
        "ddcp_precheck": ddcp_precheck,
        "check_ddcp": check_ddcp,
    }
    for name, fn in wrappers.items():
        setattr(classify, name, fn)
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(classify, name, fn)


def record(n):
    counts = Counter()
    end_of_s = [0.0]
    with observed(counts, end_of_s):
        t0 = time.perf_counter()
        result = classify.enumerate_and_classify(Algebra(n), bound=n)
        wall = time.perf_counter() - t0
    return {
        "n": n,
        "funnel": {
            k: counts[k] for k in ("cliques", "normalised", "end_An", "survivors")
        },
        "precheck_rejects": {
            v: counts["rejected: " + v] for v in REASONS.values()
        },
        "precheck_passed_ddcp_failed": counts["passed precheck, failed"],
        "lambda": result.lambda_count,
        "survivors": [
            {
                "label": result.matched[x],
                "tilting_module": bool(check_tilting_complex(x, "module")),
                "tilting_derived": bool(check_tilting_complex(x, "derived")),
            }
            for x in result.survivors
        ],
        "times": {
            "wall_s": round(wall, 3),
            "end_of_s": round(end_of_s[0], 3),
            "end_of_share": round(end_of_s[0] / wall, 3),
        },
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--max-n", type=int, default=12)
    parser.add_argument("--deterministic", action="store_true")
    args = parser.parse_args()
    emit([record(n) for n in range(5, args.max_n + 1)], args.deterministic)


if __name__ == "__main__":
    main()

"""The three benchmark workloads.

Each workload draws a seeded sample once (`sample`, untimed), builds its
inputs from it through the public ddcp API (the constructor, timed as
set-up), decides them in units (one classification call, or one pass over
the sample) and checks every verdict it gets back.  A wrong or missing
verdict or a decider that raised marks its object as failed; nothing is
dropped.
"""

import base64
import json
import random
import zlib
from collections import Counter
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
MODULE_REFERENCE = HERE / "module_reference.json"
ROUTE_REFERENCE = HERE / "route_reference.json"


@dataclass
class UnitResult:
    """What one unit of work decided."""

    objects: int = 0
    failed: int = 0
    latencies_ms: list = field(default_factory=list)
    tally: Counter = field(default_factory=Counter)
    errors: list = field(default_factory=list)


def unrank_combination(rank, m, k):
    """The rank-th k-subset of range(m) in lexicographic order."""
    out = []
    x = 0
    for i in range(k):
        while True:
            c = comb(m - x - 1, k - i - 1)
            if rank < c:
                break
            rank -= c
            x += 1
        out.append(x)
        x += 1
    return out


def stratified_sample(keys, size, rng):
    """(stratum, rank) pairs of a seeded sample of a population.

    keys() yields (stratum, cost class) for every rank.  Each stratum gets
    its share of size, and at least one; within a stratum the ranks are
    ordered by cost class (then by rank) and taken every stratum/share-th
    from a seeded offset.
    The mix of cheap and expensive objects, and with it a run's cost, then
    varies little between seeds while the objects change.  Two passes over
    keys() keep memory to one count per (stratum, class) bucket, so the
    sampling does not show in the run's peak memory.
    """
    counts = Counter(keys())
    total = sum(counts.values())
    wanted = {}
    for stratum in sorted({s for s, _ in counts}):
        buckets = sorted(key for key in counts if key[0] == stratum)
        stratum_size = sum(counts[b] for b in buckets)
        # Every stratum is drawn from, however rare: the sweep's rare
        # verdicts are the ones a wrong decider is most likely to miss.
        k = max(1, round(size * stratum_size / total))
        step = stratum_size / k
        offset = rng.random() * step
        positions = [int(offset + i * step) for i in range(k)]
        start = 0
        for b in buckets:
            wanted[b] = {p - start for p in positions if start <= p < start + counts[b]}
            start += counts[b]
    seen = Counter()
    out = []
    for rank, key in enumerate(keys()):
        if seen[key] in wanted.get(key, ()):
            out.append((key[0], rank))
        seen[key] += 1
    return out


def pack_flags(flags):
    return base64.b64encode(zlib.compress("".join(flags).encode(), 9)).decode()


def unpack_flags(text):
    return zlib.decompress(base64.b64decode(text)).decode()


class Classify:
    """enumerate_and_classify(Algebra(6), bound=6), the paper's end-to-end
    use.  Deterministic: the seed is accepted and unused."""

    n = 6

    @staticmethod
    def sample(seed):
        return None

    def __init__(self, ddcp, sample):
        self.ddcp = ddcp
        self.alg = ddcp.Algebra(self.n)
        n = self.n
        self.candidates = (n + 1) * 2 ** (n - 2)
        self.expected_labels = Counter(
            ["V_%d" % m for m in range(1, n + 1)]
            + ["T_%d" % i for i in range(1, n)]
        )

    def run_unit(self, clock):
        res = UnitResult(objects=self.candidates)
        t0 = clock.now()
        try:
            result = self.ddcp.enumerate_and_classify(self.alg, bound=self.n)
        except Exception as exc:
            result = None
            res.failed = self.candidates
            res.errors.append("classify raised %s: %s" % (type(exc).__name__, exc))
        # One call decides every candidate; only its mean per candidate is seen.
        res.latencies_ms.append((clock.now() - t0) * 1000 / self.candidates)
        if result is None:
            return res
        labels = Counter(result.matched.get(x, "UNEXPECTED") for x in result.survivors)
        wrong = labels - self.expected_labels
        missing = self.expected_labels - labels
        res.failed = sum(wrong.values()) + sum(missing.values())
        if result.lambda_count != 2 * self.n - 1:
            res.failed = max(res.failed, 1)
            res.errors.append("lambda %d, expected %d" % (result.lambda_count, 2 * self.n - 1))
        if wrong or missing:
            res.errors.append(
                "survivor labels: unexpected %s, missing %s" % (dict(wrong), dict(missing))
            )
        res.tally["survivors"] = len(result.survivors)
        return res

    def funnel_problems(self, funnel):
        """The funnel's closed forms at this n; a mismatch is a failure."""
        n = self.n
        expected = {
            "cliques": (n + 3) * 2 ** (n - 2),
            "normalised": (n + 1) * 2 ** (n - 2),
            "end_An": (n + 1) * 2 ** (n - 2),
            "survivors": 2 * n - 1,
        }
        return [
            "funnel %s: %d, expected %d" % (k, funnel[k], v)
            for k, v in expected.items()
            if funnel[k] != v
        ]


class _Sweep:
    """Decide every object of a seeded sample, timing each one."""

    def run_unit(self, clock):
        res = UnitResult()
        for item in self.objects:
            t0 = clock.now()
            try:
                outcome, problems = self.decide(item)
            except Exception as exc:
                outcome = "raised"
                problems = ["%s: %s" % (type(exc).__name__, exc)]
            res.latencies_ms.append((clock.now() - t0) * 1000)
            res.objects += 1
            res.tally[outcome] += 1
            if problems:
                res.failed += 1
                res.errors.append("%r: %s" % (item[1], "; ".join(problems)))
        return res

    def funnel_problems(self, funnel):
        return []


def route_atoms(alg, window):
    return [(iv, s) for s in range(window) for iv in alg.intervals()]


def route_population(n, window):
    """The number of shift-normalised n-summand objects.  Combinations drawn
    only from the shift >= 1 atoms come last in lexicographic order, so the
    population is the first this-many ranks."""
    intervals = n * (n + 1) // 2
    return comb(window * intervals, n) - comb((window - 1) * intervals, n)


class RouteSweep(_Sweep):
    """Shift-normalised n-summand objects over shift window 2 at n = 4 and
    n = 5, each decided by both routes of the ddcp and tilting deciders.
    Draws whose End is not hereditary take the precondition path."""

    window = 2
    sizes = {4: 1000, 5: 1000}

    @classmethod
    def sample(cls, seed):
        """(n, reference verdict code, rank) per object, drawn by verdict
        code and cost class from route_reference.json."""
        ref = json.loads(ROUTE_REFERENCE.read_text())
        if ref["window"] != cls.window:
            raise ValueError("%s is for another shift window" % ROUTE_REFERENCE)
        rng = random.Random(seed)
        out = []
        for n, size in cls.sizes.items():
            verdicts = unpack_flags(ref["verdicts"][str(n)])
            cost = unpack_flags(ref["cost"][str(n)])
            if not len(verdicts) == len(cost) == route_population(n, cls.window):
                raise ValueError("%s does not cover n=%d" % (ROUTE_REFERENCE, n))

            def keys():
                return zip(verdicts, cost)

            out += [(n, code, r) for code, r in stratified_sample(keys, size, rng)]
        rng.shuffle(out)
        return out

    def __init__(self, ddcp, sample):
        self.ddcp = ddcp
        self.objects = []
        for n, code, rank in sample:
            alg = ddcp.Algebra(n)
            atoms = route_atoms(alg, self.window)
            pairs = [atoms[i] for i in unrank_combination(rank, len(atoms), n)]
            self.objects.append((code, ddcp.DerivedObject(alg, pairs)))

    def decide(self, item):
        want, x = item
        d = self.ddcp
        reports = (
            d.check_ddcp(x),
            d.check_ddcp_derived(x),
            d.check_tilting_complex(x, "module"),
            d.check_tilting_complex(x, "derived"),
        )
        problems = route_problems(reports)
        got = route_verdict(reports)
        if got != want:
            problems.append("verdict %s, reference %s" % (got, want))
        return ROUTE_OUTCOMES[got], problems


ROUTE_OUTCOMES = {"n": "not_applicable", "t": "tilting", "d": "ddcp", "0": "neither"}


def route_verdict(reports):
    """One letter for the four reports of a route-sweep object, read off the
    module route: n if End is not hereditary, else t (tilting), d (ddcp but
    not tilting) or 0 (neither)."""
    ddcp_m, _, tilt_m, _ = reports
    if not ddcp_m.applicable:
        return "n"
    return "t" if tilt_m else "d" if ddcp_m else "0"


def route_problems(reports):
    """How the four reports of one object contradict each other."""
    applicable = {r.applicable for r in reports}
    ddcp_m, ddcp_d, tilt_m, tilt_d = (bool(r) for r in reports)
    problems = []
    if len(applicable) > 1:
        problems.append("applicable differs between reports")
    if ddcp_m != ddcp_d:
        problems.append("ddcp: module route %s, derived route %s" % (ddcp_m, ddcp_d))
    if tilt_m != tilt_d:
        problems.append("tilting: module route %s, derived route %s" % (tilt_m, tilt_d))
    if applicable == {False} and (ddcp_m or tilt_m):
        problems.append("verdict true on a not-applicable object")
    # The module route's tilting test is its ddcp test plus surjectivity.
    if tilt_m and not ddcp_m:
        problems.append("tilting without ddcp")
    return problems


def module_verdict(dcp, tilting):
    """Two-letter code: dcp 1/0, then tilting 1/0, or n if not applicable."""
    return ("1" if dcp else "0") + (
        "n" if not tilting.applicable else "1" if tilting else "0"
    )


class ModuleSweep(_Sweep):
    """Basic 5-summand modules over the chain algebra with 5 vertices, each
    approximating the whole regular module; every verdict is compared with
    the committed reference for the full population."""

    n = 5
    summands = 5
    size = 750

    @classmethod
    def sample(cls, seed):
        """(reference verdict code, rank) per object, drawn by verdict code
        and cost class from module_reference.json."""
        ref = json.loads(MODULE_REFERENCE.read_text())
        verdicts = ref["verdicts"]
        cost = unpack_flags(ref["cost"])
        population = comb(cls.n * (cls.n + 1) // 2, cls.summands)
        if not len(verdicts) == len(cost) == population:
            raise ValueError("%s does not cover the population" % MODULE_REFERENCE)

        def keys():
            return zip(verdicts, cost)

        rng = random.Random(seed)
        out = stratified_sample(keys, cls.size, rng)
        rng.shuffle(out)
        return out

    def __init__(self, ddcp, sample):
        self.ddcp = ddcp
        self.alg = ddcp.Algebra(self.n)
        intervals = self.alg.intervals()
        self.objects = [
            (code, {intervals[i]: 1 for i in unrank_combination(r, len(intervals), self.summands)})
            for code, r in sample
        ]

    def decide(self, item):
        want, multiset = item
        dcp = self.ddcp.check_module_dcp(self.alg, multiset)
        tilting = self.ddcp.check_tilting_module(self.alg, multiset)
        got = module_verdict(dcp, tilting)
        problems = [] if got == want else ["verdict %s, reference %s" % (got, want)]
        return "verdict_" + got, problems


WORKLOADS = {
    "classify": Classify,
    "route_sweep": RouteSweep,
    "module_sweep": ModuleSweep,
}

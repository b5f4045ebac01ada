"""Property deciders for modules and split complexes.

Two independent routes are provided for the derived properties: a
module-category route (per-projective approximation sequences inside a single
homology slice, with a kernel-membership test) and a derived route (mapping
cones of the approximation sequence of the shifted projective).  Their
agreement is part of the test suite.  Both run in one driver, `_decide`, which
checks the preconditions and the unique supporting shift i of every
indecomposable projective P(e), then hands P(e) to a route step; each failing
projective adds a reason naming its vertex.

Precondition failures (non-basic object, endomorphism algebra not
hereditary) are reported as "not applicable" -- false for classification
purposes but distinguished from a genuine condition failure.

The deciders share the work that depends only on the object they are asked
about: its frame (not applicable, or else every vertex's supporting shifts),
each in-slice sequence of P(e), each derived-route (T0, cone(g)), and the
module deciders' regular sequence.  Asking several deciders about one object
in a row, as the route-agreement checks do, builds each piece once, and each
report is built afresh on them.  The memo is keyed by the object's value
(hashed once per object), so every report is what a fresh computation gives;
it holds the last object only.  The slices, P(e), P(e)[i] and cones built
from a checked object are taken as checked, not validated again.
"""

from dataclasses import dataclass, field
from functools import lru_cache

from .derived import DerivedObject, cone
from .endalg import end_of, is_hereditary
from .approx import (
    is_exact_at_middle,
    is_exact_sequence_with_zero,
    is_injective,
    min_left_approx_sequence,
)
from .quiver import Algebra, InputError, Interval, is_int


@dataclass
class ProjectiveReport:
    vertex: int
    degrees_found: list
    approx_summands: list = field(default_factory=list)
    kernel_intervals: dict = field(default_factory=dict)
    exact: bool = None
    verdict: bool = False

    def as_dict(self):
        return {
            "vertex": self.vertex,
            "degrees_found": list(self.degrees_found),
            "approx_summands": [
                {"a": iv.a, "b": iv.b, "shift": s}
                for iv, s in self.approx_summands
            ],
            "kernel_intervals": {
                "X(%d,%d)" % (iv.a, iv.b): m
                for iv, m in sorted(self.kernel_intervals.items())
            },
            "exact": self.exact,
            "verdict": self.verdict,
        }


@dataclass
class DeciderReport:
    name: str
    verdict: bool
    applicable: bool = True
    reasons: list = field(default_factory=list)
    projectives: list = field(default_factory=list)

    def __bool__(self):
        return self.verdict

    def as_dict(self):
        return {
            "check": self.name,
            "verdict": self.verdict,
            "applicable": self.applicable,
            "reasons": list(self.reasons),
            "projectives": [p.as_dict() for p in self.projectives],
        }


def _basic_module(alg, multiset):
    """The module of a multiset's distinct intervals (add-closure
    representative).  A multiplicity is a non-negative int, zero meaning
    absent."""
    for m in multiset.values():
        if not (is_int(m) and m >= 0):
            raise InputError("multiplicity %r is not a non-negative int" % (m,))
    return DerivedObject(alg, [(iv, 0) for iv, m in multiset.items() if m])


def _judge(name, checks):
    """The report of the (passed, reason) checks: the reason of every failed
    one, and a verdict that holds when none failed."""
    reasons = [reason for passed, reason in checks if not passed]
    return DeciderReport(name, not reasons, reasons=reasons)


_NOT_INJECTIVE = "approximation of the regular module not injective"
_NOT_HEREDITARY = "endomorphism algebra is not hereditary"


@lru_cache(maxsize=1)
def _memo(x):
    """The shared work of the last object asked about, by key."""
    return {}


def _once(x, key, build):
    memo = _memo(x)
    if key not in memo:
        memo[key] = build()
    return memo[key]


def _regular_sequence(t):
    """The minimal add-t approximation sequence A -> M0 -> M1 of the
    regular module A, the sum of the projectives: the intervals ending at n."""
    def build():
        alg = t.alg
        y = DerivedObject._checked(
            alg, [(iv, 0) for iv in alg.intervals() if iv.b == alg.n])
        return min_left_approx_sequence(y, t)

    return _once(t, "regular", build)


def check_module_dcp(alg, multiset):
    """A module has the double centraliser property iff the minimal left
    approximation f of the regular module is injective and the induced
    sequence is exact at the middle term."""
    seq = _regular_sequence(_basic_module(alg, multiset))
    return _judge("dcp", [
        (is_injective(seq), _NOT_INJECTIVE),
        (is_exact_at_middle(seq), "sequence not exact at the middle term"),
    ])


def check_tilting_module(alg, multiset):
    """Tilting test for a module whose endomorphism algebra is hereditary:
    the minimal sequence 0 -> A -> M0 -> M1 -> 0 must be exact throughout."""
    t = _basic_module(alg, multiset)
    if not is_hereditary(end_of(t)):
        return DeciderReport("tilting-module", False, False, [_NOT_HEREDITARY])
    seq = _regular_sequence(t)
    return _judge("tilting-module", [
        (is_injective(seq), _NOT_INJECTIVE),
        (is_exact_sequence_with_zero(seq),
         "sequence not exact (middle or surjectivity)"),
    ])


def _shift_failure(shifts):
    return "supported in shifts %r, expected exactly one" % shifts


def kernel_interval(x, e, i):
    """Kernel of P(e) -> X0, the minimal approximation of P(e) by x's shift-i
    slice (i the one shift supporting e): X(b + 1, n), b the largest right
    end of a shift-i summand containing e, or None when b = n.  Some X0
    summand ends at that b, since P(e) -> X(a, b) factors only through
    summands ending at b or later, and f hits each, so f maps P(e) = X(e, n)
    onto X(e, b)."""
    b = max(iv.b for iv, s in x.summands if s == i and iv.a <= e <= iv.b)
    return Interval(b + 1, x.alg.n) if b < x.alg.n else None


def _kernel_failures(x, kernel, i):
    if kernel is None or kernel in x.slice(i + 1):
        return []
    return ["kernel interval %r outside add of the shift-%d slice"
            % (kernel, i + 1)]


def _vertex_shifts(x):
    """The sorted shifts supporting each vertex 1..n, in one pass."""
    shifts = [set() for _ in range(x.alg.n)]
    for iv, s in x.summands:
        for at in shifts[iv.a - 1:iv.b]:
            at.add(s)
    return [sorted(at) for at in shifts]


def ddcp_precheck(x):
    """The first failure, "vertex e: reason", that check_ddcp(x) reports by
    a rule needing no approximation sequence (no unique supporting shift, or
    the kernel interval outside the next slice), or None.  A reason means
    check_ddcp(x) fails, so a caller may reject by it first."""
    for e, shifts in enumerate(_vertex_shifts(x), 1):
        failures = (
            _kernel_failures(x, kernel_interval(x, e, shifts[0]), shifts[0])
            if len(shifts) == 1 else [_shift_failure(shifts)]
        )
        if failures:
            return "vertex %d: %s" % (e, failures[0])
    return None


def _decide(x, name, step):
    """The report of one complex decider on x's frame, shared by all four:
    the reason x is not applicable (not basic, End(x) not hereditary), or
    else every vertex's supporting shifts.  Every indecomposable projective
    P(e) needs a unique supporting shift i, and then step(x, report of P(e),
    i) must return no failures; each failing one adds a reason naming e."""
    def build():
        if not x.is_basic():
            return "object is not basic"
        return _vertex_shifts(x) if is_hereditary(end_of(x)) else _NOT_HEREDITARY

    frame = _once(x, "frame", build)
    if isinstance(frame, str):
        return DeciderReport(name, False, False, [frame])
    report = DeciderReport(name, False)
    for e, shifts in enumerate(frame, 1):
        pr = ProjectiveReport(e, list(shifts))
        report.projectives.append(pr)
        failures = (step(x, pr, shifts[0]) if len(shifts) == 1
                    else [_shift_failure(shifts)])
        pr.verdict = not failures
        if failures:
            report.reasons.append("vertex %d: %s" % (e, "; ".join(failures)))
    report.verdict = not report.reasons
    return report


def _slice(x, i):
    """The shift-i slice of a basic x as a module, taken as checked."""
    return DerivedObject._checked(
        x.alg, [(iv, 0) for iv, s in x.summands if s == i])


def _module_route(exact_test):
    """In-slice step: the minimal approximation P(e) -> X0 -> X1 by the
    shift-i slice passes exact_test, and the kernel of P(e) -> X0 lies in
    the additive closure of the shift-(i+1) slice."""

    def step(x, pr, i):
        def build():
            y = DerivedObject._checked(x.alg, [(x.alg.projective(pr.vertex), 0)])
            return min_left_approx_sequence(y, _slice(x, i))

        seq = _once(x, ("in-slice", pr.vertex), build)
        pr.approx_summands = list(seq.t0.summands)
        pr.exact = exact_test(seq)
        kernel = kernel_interval(x, pr.vertex, i)
        pr.kernel_intervals = {} if kernel is None else {kernel: 1}
        failures = [] if pr.exact else ["sequence not exact"]
        return failures + _kernel_failures(x, kernel, i)

    return step


def _derived_route(cone_test):
    """Cone step: cone_test(cone, report, P(e), i) judges the mapping cone of
    g in the minimal add-x approximation sequence P(e)[i] -> T0 -> T1."""

    def step(x, pr, i):
        p = x.alg.projective(pr.vertex)

        def build():
            y = DerivedObject._checked(x.alg, [(p, i)])
            seq = min_left_approx_sequence(y, x)
            return seq.t0.summands, cone(seq.g)

        t0, c = _once(x, ("cone", pr.vertex), build)
        pr.approx_summands = list(t0)
        return cone_test(c, pr, p, i)

    return step


def _next_slice_is(c, pr, p, i):
    """The shift-(i+1) slice of the cone is exactly P(e)."""
    pr.kernel_intervals = c.slice(i + 1)
    if pr.kernel_intervals == {p: 1}:
        return []
    return [
        "shift-%d slice of the cone is %r, not %r"
        % (i + 1, sorted(pr.kernel_intervals), p)
    ]


def _cone_is(c, pr, p, i):
    """The cone is exactly P(e)[i+1]."""
    if c.summands == ((p, i + 1),):
        return []
    return ["cone is %r, not %r[%d]" % (c, p, i + 1)]


def check_ddcp(x):
    """Module-category route: for every indecomposable projective P(e),
    a unique supporting shift i; the minimal left approximation of P(e) by
    the shift-i slice is exact at the middle, with kernel inside the additive
    closure of the shift-(i+1) slice."""
    return _decide(x, "ddcp", _module_route(is_exact_at_middle))


def check_ddcp_derived(x):
    """Derived route: the mapping cone of g in the minimal left add-x
    approximation sequence of P(e)[i] must have shift-(i+1) slice exactly
    {P(e)}."""
    return _decide(x, "ddcp-derived", _derived_route(_next_slice_is))


def check_tilting_complex(x, route="derived"):
    """Two-sided tilting test.

    Derived route: the approximation sequence of P(e)[i] completes to a
    triangle, i.e. cone(g) is exactly P(e)[i+1].  Module route: the in-slice
    sequence P(e) -> X0 -> X1 -> 0 is exact with kernel of f in the additive
    closure of the next slice."""
    if route == "derived":
        step = _derived_route(_cone_is)
    elif route == "module":
        step = _module_route(is_exact_sequence_with_zero)
    else:
        raise ValueError("unknown route %r" % route)
    return _decide(x, "tilting-" + route, step)


def _restrict_to_corner(intervals, verts):
    """Reindex interval modules supported on a vertex subset to the corner
    algebra on those vertices (isomorphic to the chain algebra of their
    count)."""
    pos = {v: i + 1 for i, v in enumerate(sorted(verts))}
    out = {}
    for iv, mult in intervals.items():
        riv = Interval(pos[iv.a], pos[iv.b])
        out[riv] = out.get(riv, 0) + mult
    return out


def verify_homology_corners(x):
    """Every homology slice, viewed over the corner algebra of its projective
    group, must itself have the double centraliser property; and be tilting
    when the object is two-sided tilting (check_tilting_complex(x)).

    Once check_ddcp(x) holds, each vertex's report records its one
    supporting shift, and each slice lies inside the corner of the vertices
    with its shift."""
    ddcp = check_ddcp(x)
    if not ddcp:
        return DeciderReport("corners", False, False,
                             ["object does not have the derived property"])
    report = DeciderReport("corners", False)
    tilting = bool(check_tilting_complex(x, "derived"))
    corners = {}
    for pr in ddcp.projectives:
        corners.setdefault(pr.degrees_found[0], []).append(pr.vertex)
    ok = True
    for i, verts in sorted(corners.items()):
        corner_alg = Algebra(len(verts))
        restricted = _restrict_to_corner(x.slice(i), verts)
        dcp = check_module_dcp(corner_alg, restricted)
        entry = "shift %d over chain algebra of %d: dcp=%s" % (
            i,
            len(verts),
            bool(dcp),
        )
        ok = ok and bool(dcp)
        if tilting:
            tilt = check_tilting_module(corner_alg, restricted)
            entry += " tilting=%s" % bool(tilt)
            ok = ok and bool(tilt)
        report.reasons.append(entry)
    report.verdict = ok
    return report

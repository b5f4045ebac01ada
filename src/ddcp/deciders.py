"""Property deciders for modules and split complexes.

Two independent routes decide the derived properties, sharing no
approximation code; their agreement is part of the test suite.  The module
route reads the minimal approximation of each projective P(e) by the one
homology slice supporting it off a closed form (_in_slice), with a kernel
membership test, and the module dcp and tilting tests are the same rule
with the whole module as the slice.  The derived route takes mapping cones
of the approximation sequence of the shifted projective.  Both run in one
driver, `_decide`, which checks the preconditions and the unique
supporting shift i of every P(e), then hands P(e) to a route step; each
failing projective adds a reason naming its vertex.

Precondition failures (non-basic object, endomorphism algebra not
hereditary) are reported as "not applicable" -- false for classification
purposes but distinguished from a genuine condition failure.  Whether
End(x) is hereditary is read off the Hom relation of x's summands
(endalg.is_hereditary, through End(x)'s Gabriel quiver), so no decider
builds End(x) for its frame: only the derived route's approximation
sequences do.

The complex deciders share the work that depends only on the object: its
frame (not applicable, or else every vertex's supporting shifts) and each
derived-route (T0, cone(g)), built once for the deciders asked about it in
a row and kept, by value, for the last object only, so every report is
what a fresh computation gives.  derived.cone shares each cone by the
value of g, read and never changed.  P(e)[i] and the cones built from a
checked object are taken as checked, not validated again.
"""

from dataclasses import dataclass, field
from functools import lru_cache

from .derived import DerivedObject, cone
from .endalg import is_hereditary
from .approx import min_left_approx_sequence
from .quiver import Algebra, InputError, Interval, check_object, is_int


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
    for m in check_object(multiset, dict).values():
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


@lru_cache
def _projectives(alg):
    """P(1), ..., P(n), read off the algebra's cached intervals: the
    intervals ending at n, P(e) at index e - 1."""
    return tuple(iv for iv in alg.intervals() if iv.b == alg.n)


def _regular_checks(t, onto):
    """Whether the minimal approximation A -> M0 -> M1 of the regular module
    by t, the sum of the in-slice sequences of P(1), ..., P(n) by t, has f
    injective, and is exact at M0 (with g onto too when onto is set)."""
    intervals = tuple(iv for iv, _ in t.summands)
    outcomes = [_in_slice(t.alg, intervals, e) for e in range(1, t.alg.n + 1)]
    return (all(kernel is None for *_, kernel in outcomes),
            all(outcome[2 if onto else 1] for outcome in outcomes))


def check_module_dcp(alg, multiset):
    """A module has the double centraliser property iff the minimal left
    approximation f of the regular module is injective and the induced
    sequence is exact at the middle term."""
    injective, exact = _regular_checks(_basic_module(alg, multiset), onto=False)
    return _judge("dcp", [
        (injective, _NOT_INJECTIVE),
        (exact, "sequence not exact at the middle term"),
    ])


def check_tilting_module(alg, multiset):
    """Tilting test for a module whose endomorphism algebra is hereditary:
    the minimal sequence 0 -> A -> M0 -> M1 -> 0 must be exact throughout.
    The precondition is read off the Hom relation of the module's summands
    (is_hereditary), with no End built; a module whose End is not
    hereditary is reported not applicable."""
    t = _basic_module(alg, multiset)
    if not is_hereditary(t):
        return DeciderReport("tilting-module", False, False, [_NOT_HEREDITARY])
    injective, exact = _regular_checks(t, onto=True)
    return _judge("tilting-module", [
        (injective, _NOT_INJECTIVE),
        (exact, "sequence not exact (middle or surjectivity)"),
    ])


def _shift_failure(shifts):
    return "supported in shifts %r, expected exactly one" % shifts


def _kernel(alg, b):
    """The kernel X(b + 1, n) = P(b + 1) of P(e) -> X0 onto X(e, b), read
    off the algebra's cached intervals, or None when b = n."""
    return _projectives(alg)[b] if b < alg.n else None


def kernel_interval(x, e, i):
    """Kernel of P(e) -> X0, the minimal approximation of P(e) by x's shift-i
    slice (i the one shift supporting e): _kernel of b, the largest right
    end of a shift-i summand containing e (_in_slice derives it)."""
    b = max(iv.b for iv, s in x.summands if s == i and iv.a <= e <= iv.b)
    return _kernel(x.alg, b)


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
    the reason x is not applicable (not basic, or End(x) not hereditary by
    is_hereditary(x)), or else every vertex's supporting shifts.  Every
    indecomposable projective P(e) needs a unique supporting shift i, and
    then step(x, report of P(e), i) must return no failures; each failing
    one adds a reason naming e."""
    check_object(x, DerivedObject)

    def build():
        if not x.is_basic():
            return "object is not basic"
        return _vertex_shifts(x) if is_hereditary(x) else _NOT_HEREDITARY

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


def _in_slice(alg, intervals, e):
    """The minimal approximation P(e) -> X0 -> X1 of P(e) = X(e, n) by the
    module S of a basic slice's intervals (in summand order), in closed
    form: (X0's intervals, exact at X0, exact with g onto X1 too, the kernel
    of f: P(e) -> X0).

    P(e) -> X(a, b) is one map onto X(e, b) when a <= e <= b, else zero; it
    factors through another such X(a', b') iff that one dominates it
    (a' >= a and b' >= b), as Hom(X(a', b'), X(a, b)) is nonzero iff
    a <= a' <= b <= b'.  So X0 is the heads, the X(a, b) in S with
    a <= e <= b that no other dominates: (a_1, b_1), ..., (a_k, b_k) in
    summand order, a rising and b falling.  f maps P(e) onto X(e, b_1), so
    its kernel is X(b_1 + 1, n) and its cokernel is C = X(a_1, b_2) + ... +
    X(a_(k-1), b_k) + X(a_k, e - 1), the last term absent when a_k = e.
    X1 is the minimal add-S envelope of C, and g is X0 -> C -> X1, so the
    sequence is exact at X0 iff C embeds in add S: a mono out of X(c, d)
    keeps its socle d, so S must hold some X(a, d) with a <= c for every
    summand X(c, d) of C.  g is onto as well iff C is its own envelope,
    every summand in S.  At a vertex no interval covers, P(e) -> 0 -> 0 is
    exact, with kernel P(e)."""
    heads, b = [], e - 1  # b: the largest right end of a head so far
    for iv in reversed(intervals):  # a head has no later dominating summand
        if iv.a <= e and iv.b > b:
            heads.append(iv)
            b = iv.b
    heads.reverse()
    ends = [h.b for h in heads[1:]] + [e - 1]
    cokernel = [(h.a, d) for h, d in zip(heads, ends) if h.a <= d]
    exact = all(any(iv.b == d and iv.a <= c for iv in intervals)
                for c, d in cokernel)
    onto = exact and all(any(iv.b == d and iv.a == c for iv in intervals)
                         for c, d in cokernel)
    return tuple(heads), exact, onto, _kernel(alg, b)


def _module_route(onto):
    """In-slice step: P(e) -> X0 -> X1 by the shift-i slice is exact at X0,
    with g onto too when onto is set, and the kernel of P(e) -> X0 lies in
    the additive closure of the shift-(i+1) slice."""

    def step(x, pr, i):
        heads, exact, exact_onto, kernel = _in_slice(
            x.alg, tuple(iv for iv, s in x.summands if s == i), pr.vertex
        )
        pr.approx_summands = [(iv, 0) for iv in heads]
        pr.exact = exact_onto if onto else exact
        pr.kernel_intervals = {} if kernel is None else {kernel: 1}
        failures = [] if pr.exact else ["sequence not exact"]
        return failures + _kernel_failures(x, kernel, i)

    return step


def _derived_route(cone_test):
    """Cone step: cone_test(cone, report, P(e), i) judges the mapping cone of
    g in the minimal add-x approximation sequence P(e)[i] -> T0 -> T1."""

    def step(x, pr, i):
        p = _projectives(x.alg)[pr.vertex - 1]

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
    return _decide(x, "ddcp", _module_route(onto=False))


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
        step = _module_route(onto=True)
    else:
        raise InputError("unknown route %r" % (route,))
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

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
"""

from dataclasses import dataclass, field

from .derived import DerivedObject, cone
from .endalg import (
    corner_decomposition,
    end_of,
    is_hereditary,
    PreconditionError,
)
from .approx import (
    is_exact_at_middle,
    is_exact_sequence_with_zero,
    is_injective,
    min_left_approx_sequence,
    to_rep_morphism,
)
from .quiver import Algebra, Interval
from . import reps


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


def _basic_support(multiset):
    """The distinct intervals of a multiset (add-closure representative)."""
    return sorted(iv for iv, m in multiset.items() if m > 0)


def _module_object(alg, intervals):
    return DerivedObject(alg, [(iv, 0) for iv in intervals])


def _not_applicable(report, reason):
    report.applicable = False
    report.reasons.append(reason)
    return report


def _judge(report, checks):
    """Record the reason of every failed (passed, reason) check; the verdict
    holds when none failed."""
    report.reasons += [reason for passed, reason in checks if not passed]
    report.verdict = not report.reasons
    return report


_NOT_INJECTIVE = "approximation of the regular module not injective"


def _regular_sequence(t, algebra=None):
    """The maps f, g of the minimal add-t approximation sequence
    A -> M0 -> M1 of the regular module, as module morphisms; algebra is
    End(t) when the caller already has it."""
    alg = t.alg
    y = _module_object(alg, [alg.projective(i) for i in range(1, alg.n + 1)])
    seq = min_left_approx_sequence(y, t, algebra)
    return to_rep_morphism(seq.f), to_rep_morphism(seq.g)


def check_module_dcp(alg, multiset):
    """A module has the double centraliser property iff the minimal left
    approximation f of the regular module is injective and the induced
    sequence is exact at the middle term."""
    report = DeciderReport("dcp", False)
    f, g = _regular_sequence(_module_object(alg, _basic_support(multiset)))
    return _judge(report, [
        (is_injective(f), _NOT_INJECTIVE),
        (is_exact_at_middle(f, g), "sequence not exact at the middle term"),
    ])


def check_tilting_module(alg, multiset):
    """Tilting test for a module whose endomorphism algebra is hereditary:
    the minimal sequence 0 -> A -> M0 -> M1 -> 0 must be exact throughout."""
    report = DeciderReport("tilting-module", False)
    t = _module_object(alg, _basic_support(multiset))
    algebra = end_of(t)
    if not is_hereditary(algebra):
        return _not_applicable(report, "endomorphism algebra is not hereditary")
    f, g = _regular_sequence(t, algebra)
    exact = is_exact_sequence_with_zero(f, g)
    return _judge(report, [
        (is_injective(f), _NOT_INJECTIVE),
        (exact, "sequence not exact (middle or surjectivity)"),
    ])


def _decide(x, name, step):
    """The frame shared by the complex deciders.

    After the preconditions (basic, hereditary endomorphism algebra),
    every indecomposable projective P(e) needs a unique supporting
    shift i, and then step(x, End(x), report of P(e), i) must return no
    failures.  Each failing projective adds one reason naming its vertex."""
    report = DeciderReport(name, False)
    if not x.is_basic():
        return _not_applicable(report, "object is not basic")
    algebra = end_of(x)
    if not is_hereditary(algebra):
        return _not_applicable(report, "endomorphism algebra is not hereditary")
    checks = []
    for e in range(1, x.alg.n + 1):
        pr = ProjectiveReport(e, x.shifts_at(e))
        report.projectives.append(pr)
        if len(pr.degrees_found) == 1:
            failures = step(x, algebra, pr, pr.degrees_found[0])
        else:
            failures = [
                "supported in shifts %r, expected exactly one"
                % pr.degrees_found
            ]
        pr.verdict = not failures
        checks.append((pr.verdict, "vertex %d: %s" % (e, "; ".join(failures))))
    return _judge(report, checks)


def _module_route(exact_test):
    """In-slice step: the minimal approximation P(e) -> X0 -> X1 by the
    shift-i slice passes exact_test, and the kernel of P(e) -> X0 lies in
    the additive closure of the shift-(i+1) slice."""

    def step(x, algebra, pr, i):
        alg = x.alg
        t = _module_object(alg, _basic_support(x.slice(i)))
        seq = min_left_approx_sequence(
            _module_object(alg, [alg.projective(pr.vertex)]), t
        )
        pr.approx_summands = list(seq.t0.summands)
        f = to_rep_morphism(seq.f)
        pr.exact = exact_test(f, to_rep_morphism(seq.g))
        pr.kernel_intervals = reps.interval_decompose(reps.kernel(f)[0])
        failures = [] if pr.exact else ["sequence not exact"]
        following = x.slice(i + 1)
        outside = [iv for iv in pr.kernel_intervals if iv not in following]
        if outside:
            failures.append(
                "kernel interval %s outside add of the shift-%d slice"
                % (", ".join(map(repr, sorted(outside))), i + 1)
            )
        return failures

    return step


def _derived_route(cone_test):
    """Cone step: cone_test(cone, report, P(e), i) judges the mapping cone of
    g in the minimal add-x approximation sequence P(e)[i] -> T0 -> T1."""

    def step(x, algebra, pr, i):
        p = x.alg.projective(pr.vertex)
        seq = min_left_approx_sequence(
            DerivedObject(x.alg, [(p, i)]), x, algebra
        )
        pr.approx_summands = list(seq.t0.summands)
        return cone_test(cone(seq.g), pr, p, i)

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
    if c == DerivedObject(c.alg, [(p, i + 1)]):
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


def _restrict_to_corner(alg, intervals, verts):
    """Reindex interval modules supported on a vertex subset to the corner
    algebra on those vertices (isomorphic to the chain algebra of their
    count).  Raises PreconditionError when support leaks outside."""
    pos = {v: i + 1 for i, v in enumerate(sorted(verts))}
    out = {}
    for iv, mult in intervals.items():
        if not all(v in pos for v in iv.support):
            raise PreconditionError(
                "summand %r not supported inside corner vertices %r"
                % (iv, sorted(verts))
            )
        riv = Interval(pos[iv.a], pos[iv.b])
        out[riv] = out.get(riv, 0) + mult
    return out


def verify_homology_corners(x, tilting=None):
    """Every homology slice, viewed over the corner algebra of its projective
    group, must itself have the double centraliser property; and be tilting
    when the object is two-sided tilting.

    tilting defaults to check_tilting_complex(x)."""
    report = DeciderReport("corners", False)
    ddcp = check_ddcp(x)
    if not ddcp:
        report.applicable = False
        report.reasons.append("object does not have the derived property")
        return report
    if tilting is None:
        tilting = bool(check_tilting_complex(x))
    alg = x.alg
    ok = True
    try:
        groups = corner_decomposition(x)
    except PreconditionError as exc:
        report.applicable = False
        report.reasons.append(str(exc))
        return report
    for i, verts, _ in groups:
        corner_alg = Algebra(len(verts))
        try:
            restricted = _restrict_to_corner(alg, x.slice(i), verts)
        except PreconditionError as exc:
            report.reasons.append(str(exc))
            ok = False
            continue
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

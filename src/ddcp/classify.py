"""Exhaustive classification of split objects with the derived double
centraliser property over the chain algebra, and the reference families.

The search space is cut down before any decider runs: a qualifying object is
basic with exactly n summands, and its endomorphism algebra must be the chain
algebra itself, which forces every pair of summands to be comparable (some
nonzero Hom or Ext space in one direction).  Candidates are therefore
enumerated as n-cliques in the comparability graph on (interval, shift)
atoms.  Shift window 2 is complete up to shift: End(x) = A_n needs every
pair of summands comparable, since e_j A_n e_i is nonzero for all i <= j,
and no morphism crosses a shift gap of two or more (pair_space_dim; a
hereditary algebra has no Ext^2).  So a candidate spans at most two
consecutive shifts, which shift normalisation makes {0, 1}.

Each shift-normalised candidate then meets three necessary conditions, in
order of cost: is_linear_A(End(x)), deciders.ddcp_precheck (check_ddcp's
rules that need no approximation sequence) and check_ddcp itself, which
reads its hereditary precondition off x's Hom relation, not End(x).  The
order is free, since a pre-check reason is itself a check_ddcp failure.

End(x) = A_n holds on every candidate, so is_linear_A checks the search
and rejects nothing.  D^b(kA_n) is directed: its Auslander-Reiten quiver is
ZA_n (Happel 1987), so no cycle of nonzero non-isomorphisms joins
indecomposables.  A clique is then an acyclic tournament, which is a total
order.  Each space along it has the degree of its shift gap, so by
quiver.space_dim's composition rule every composite along the order is
nonzero, and End(x) is the incidence algebra of a chain of n summands:
A_n.  The test suite checks this on every candidate with n <= 8.
"""

from dataclasses import dataclass, field
from itertools import combinations

from .quiver import InputError, check_algebra, is_int
from .derived import DerivedObject, pair_space_dim
from .endalg import end_of, is_linear_A
from .deciders import check_ddcp, ddcp_precheck


def _check_family_index(k, top):
    """A family index is an int (not a bool) in 1..top."""
    if not (is_int(k) and 1 <= k <= top):
        raise InputError("family index %r is not an int in 1..%d" % (k, top))


def make_V(alg, m):
    """The one-shift family: projectives down to P(1), then injectives up
    from I(m); n summands at shift 0."""
    _check_family_index(m, check_algebra(alg).n)
    pairs = [(alg.projective(k), 0) for k in range(1, m + 1)]
    pairs += [(alg.injective(k), 0) for k in range(m, alg.n)]
    return DerivedObject(alg, pairs)


def make_T(alg, i):
    """The two-shift family: intervals ending at i at shift 0, intervals
    starting at i+1 at shift 1."""
    _check_family_index(i, check_algebra(alg).n - 1)
    pairs = [(alg.interval(k, i), 0) for k in range(1, i + 1)]
    pairs += [(alg.interval(i + 1, k), 1) for k in range(i + 1, alg.n + 1)]
    return DerivedObject(alg, pairs)


@dataclass
class ClassificationResult:
    n: int
    survivors: list = field(default_factory=list)
    matched: dict = field(default_factory=dict)

    @property
    def lambda_count(self):
        return len(self.survivors)

    def as_dict(self):
        return {
            "n": self.n,
            "lambda": self.lambda_count,
            "survivors": [
                {
                    "label": self.matched[x],
                    "summands": [
                        {"a": iv.a, "b": iv.b, "shift": s}
                        for iv, s in x.summands
                    ],
                }
                for x in self.survivors
            ],
        }


def _comparable(p, q):
    return pair_space_dim(p, q) or pair_space_dim(q, p)


def _clique_candidates(atoms, size):
    """All size-cliques of the comparability graph, as increasing index
    tuples in lexicographic order.  Vertex sets are int bitsets: later[i]
    holds the atoms after i comparable with it, and a branch stops once
    fewer atoms remain allowed than the clique still needs (Bron and
    Kerbosch's bounding, without pivots, since every clique of this size is
    wanted)."""
    later = [0] * len(atoms)
    for i, j in combinations(range(len(atoms)), 2):
        if _comparable(atoms[i], atoms[j]):
            later[i] |= 1 << j
    out = []

    def grow(clique, allowed):
        if len(clique) == size:
            out.append(tuple(clique))
            return
        need = size - len(clique)
        while allowed.bit_count() >= need:
            low = allowed & -allowed
            allowed ^= low
            i = low.bit_length() - 1
            clique.append(i)
            grow(clique, allowed & later[i])
            clique.pop()

    grow([], (1 << len(atoms)) - 1)
    return out


def enumerate_and_classify(alg, degree_window=2, bound=5):
    """Search all basic n-summand objects with shifts in [0, degree_window),
    minimum shift zero, keep those whose endomorphism algebra is the chain
    algebra and which pass the double-centraliser decider, and match them
    against the constructive families.

    Candidates are checked by is_linear_A, then ddcp_precheck, then
    check_ddcp (see the module docstring for why the order is free and
    why degree_window=2 is complete up to shift).  n above bound raises
    InputError; library callers pass bound=n for a larger n.  A window
    below 1, or a window or bound that is not an int, raises InputError."""
    n = check_algebra(alg).n
    if not (is_int(degree_window) and degree_window >= 1):
        raise InputError(
            "degree window must be an integer at least 1: %r" % (degree_window,))
    if not is_int(bound):
        raise InputError("bound must be an integer: %r" % (bound,))
    if n > bound:
        raise InputError("n=%d exceeds the configured bound %d" % (n, bound))
    atoms = [
        (iv, s) for s in range(degree_window) for iv in alg.intervals()
    ]
    result = ClassificationResult(n)
    reference = {make_V(alg, m): "V_%d" % m for m in range(1, n + 1)}
    reference.update(
        {make_T(alg, i): "T_%d" % i for i in range(1, n)}
    )
    for idxs in _clique_candidates(atoms, n):
        pairs = [atoms[i] for i in idxs]
        if min(s for _, s in pairs) != 0:
            continue  # shift normalization: each class counted once
        # shift-major atoms at increasing indices: already in summand_order
        x = DerivedObject._checked(alg, pairs)
        if is_linear_A(end_of(x)) != n:
            continue
        if ddcp_precheck(x) is not None:
            continue
        if not check_ddcp(x):
            continue
        result.survivors.append(x)
        result.matched[x] = reference.get(x, "UNEXPECTED")
    result.survivors.sort(key=lambda x: x.summands)
    return result


def zero_path_audit(alg, t):
    """True iff every composite of t consecutive nonzero non-isomorphisms
    between interval modules vanishes: iff t >= n.

    A nonzero map X(a, b) -> X(c, d) has c <= a <= d <= b, and a composite
    from X(a, b) is nonzero exactly when its Hom space is (the
    canonical-generator rule).  So along a nonzero composite of
    non-isomorphisms from X(a, b), each step lowers c + d and keeps (c, d)
    in [1, a] x [a, b]: at most b - 1 <= n - 1 steps.  The first t < n steps
    of X(1, n) -> X(1, n - 1) -> ... -> X(1, 1) compose to a nonzero map.
    The test suite keeps the search over all paths as the reference."""
    if not (is_int(t) and t >= 1):
        raise InputError("path length must be a positive integer: %r" % (t,))
    return t >= check_algebra(alg).n

"""Exhaustive classification of split objects with the derived double
centraliser property over the chain algebra, and the reference families.

The search space is cut down before any decider runs: a qualifying object is
basic with exactly n summands, and its endomorphism algebra must be the chain
algebra itself, which forces every pair of summands to be comparable (some
nonzero Hom or Ext space in one direction).  Candidates are therefore
enumerated as n-cliques in the comparability graph on (interval, shift)
atoms.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

from .quiver import InputError, hom_dim
from .derived import DerivedObject, pair_space_dim
from .endalg import end_of, is_linear_A
from .deciders import check_ddcp


def make_V(alg, m):
    """The one-shift family: projectives down to P(1), then injectives up
    from I(m); n summands at shift 0."""
    if not (1 <= m <= alg.n):
        raise InputError("family index out of range: %d" % m)
    pairs = [(alg.projective(k), 0) for k in range(1, m + 1)]
    pairs += [(alg.injective(k), 0) for k in range(m, alg.n)]
    return DerivedObject(alg, pairs)


def make_T(alg, i):
    """The two-shift family: intervals ending at i at shift 0, intervals
    starting at i+1 at shift 1."""
    if not (1 <= i <= alg.n - 1):
        raise InputError("family index out of range: %d" % i)
    pairs = [(alg.interval(k, i), 0) for k in range(1, i + 1)]
    pairs += [(alg.interval(i + 1, k), 1) for k in range(i + 1, alg.n + 1)]
    return DerivedObject(alg, pairs)


@dataclass
class ClassificationResult:
    n: int
    survivors: list = field(default_factory=list)
    matched: dict = field(default_factory=dict)
    lambda_count: int = 0

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


def _comparable(alg, p, q):
    return pair_space_dim(alg, p, q)[0] or pair_space_dim(alg, q, p)[0]


def _clique_candidates(alg, atoms, size):
    """All size-cliques of the comparability graph, as index tuples."""
    m = len(atoms)
    adj = [set() for _ in range(m)]
    for i, j in combinations(range(m), 2):
        if _comparable(alg, atoms[i], atoms[j]):
            adj[i].add(j)
            adj[j].add(i)
    out = []

    def grow(clique, allowed, start):
        if len(clique) == size:
            out.append(tuple(clique))
            return
        need = size - len(clique)
        for i in sorted(allowed):
            if i < start:
                continue
            if m - i < need:
                break
            clique.append(i)
            grow(clique, allowed & adj[i], i + 1)
            clique.pop()

    grow([], set(range(m)), 0)
    return out


def enumerate_and_classify(alg, degree_window=2, bound=5):
    """Search all basic n-summand objects with shifts in [0, degree_window),
    minimum shift zero, keep those whose endomorphism algebra is the chain
    algebra and which pass the double-centraliser decider, and match them
    against the constructive families."""
    n = alg.n
    if degree_window < 1:
        raise InputError("degree window must be at least 1: %d" % degree_window)
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
    for idxs in _clique_candidates(alg, atoms, n):
        pairs = [atoms[i] for i in idxs]
        if min(s for _, s in pairs) != 0:
            continue  # shift normalization: each class counted once
        x = DerivedObject(alg, pairs)
        if is_linear_A(end_of(x)) != n:
            continue
        if not check_ddcp(x):
            continue
        result.survivors.append(x)
        result.matched[x] = reference.get(x, "UNEXPECTED")
    result.survivors.sort(key=lambda x: x.summands)
    result.lambda_count = len(result.survivors)
    return result


def zero_path_audit(alg, t):
    """True iff every composite of t consecutive nonzero non-isomorphisms
    between interval modules vanishes.

    Composites are folded with the canonical-generator rule: a partial
    composite from the first interval stays nonzero exactly when the Hom
    space from the first interval to the current one is nonzero.
    """
    if t < 1:
        raise InputError("path length must be positive")
    intervals = alg.intervals()
    steps = {
        src: [
            tgt
            for tgt in intervals
            if tgt != src and hom_dim(alg, src, tgt)
        ]
        for src in intervals
    }
    @lru_cache(maxsize=None)
    def nonzero_path_exists(first, current, remaining):
        if remaining == 0:
            return True
        for nxt in steps[current]:
            if hom_dim(alg, first, nxt) and nonzero_path_exists(
                first, nxt, remaining - 1
            ):
                return True
        return False

    for first in intervals:
        for second in steps[first]:
            if nonzero_path_exists(first, second, t - 1):
                return False
    return True

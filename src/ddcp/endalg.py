"""Endomorphism algebras as structure-constant algebras.

Because every graded Hom space between interval summands is at most
one-dimensional, the endomorphism algebra of a split object has a canonical
basis (one idempotent per summand, one element per nonzero cross space) whose
products are again basis elements or zero.  Structural questions -- basic,
isomorphic to a linear-chain path algebra -- then reduce to set
combinatorics on the multiplication table.

End(x) is a function of x's Hom pattern, the generator list of Hom(x, x):
every object with the same pattern shares one algebra, and each structure
query is answered once per algebra and kept on it.  End(x)'s Gabriel quiver
and whether End(x) is hereditary, the deciders' one question of it, are
read off x's Hom relation instead, with no algebra built (gabriel_quiver,
is_hereditary).
"""

from functools import cached_property, lru_cache, wraps

from .quiver import InputError, check_object
from .derived import DerivedObject, composites, graded_hom, pair_space_dim


def _kept(query):
    """query(c), computed on c's first call and kept on c: the structure
    queries depend on the table alone, like SCAlgebra.ends.  A call that
    raises keeps nothing, so it raises again on the next call."""
    @wraps(query)
    def kept(c):
        if query not in c._answers:
            c._answers[query] = query(c)
        return c._answers[query]

    return kept


class SCAlgebra:
    """Finite-dimensional algebra given by a basis and a {0, 1} table.

    basis: tuple of hashable labels.  idempotents: indices of the orthogonal
    idempotents summing to the unit.  table maps (i, j) to the index of
    basis_i * basis_j, absent keys meaning the product is zero.  The product
    convention is composition: a * b applies b first, then a.  The
    constructor only stores its arguments, with no structure answer kept
    yet; the tests check every table the library builds.
    """

    def __init__(self, basis, idempotents, table):
        self.basis = tuple(basis)
        self.idempotents = tuple(idempotents)
        self.table = dict(table)
        self._answers = {}  # by query, see _kept

    @property
    def dim(self):
        return len(self.basis)

    def mul(self, i, j):
        """Index of basis_i * basis_j, or None when the product is zero."""
        return self.table.get((i, j))

    @cached_property
    def ends(self):
        """(source, target) idempotent index of every basis element, read off
        the table in one pass: e is the source of b when b * e = b and its
        target when e * b = b."""
        idem = set(self.idempotents)
        src, tgt = [None] * self.dim, [None] * self.dim
        for (i, j), k in self.table.items():
            if j in idem and k == i:
                src[i] = j
            if i in idem and k == j:
                tgt[j] = i
        return list(zip(src, tgt))

    @cached_property
    def projectives(self):
        """{idempotent e: the basis indices with source e}, the basis of the
        indecomposable left projective at e, grouped in one pass over ends."""
        out = {e: [] for e in self.idempotents}
        for i, (s, _) in enumerate(self.ends):
            out[s].append(i)
        return out

    @_kept
    def is_basic(self):
        """No non-idempotent basis element is invertible between idempotents."""
        idem = set(self.idempotents)
        return not any(
            i not in idem and k in idem and self.table.get((j, i)) in idem
            for (i, j), k in self.table.items()
        )

    def __repr__(self):
        return "SCAlgebra(dim=%d, idempotents=%d)" % (
            self.dim,
            len(self.idempotents),
        )


def end_of(x):
    """Endomorphism algebra of a split object: the graded Hom space
    Hom(x, x), identities first, with composition as product.  A generator
    from a summand to itself has degree 0, so it is that summand's
    identity, the idempotent ("e", i) at index i.  Anything but a
    DerivedObject raises InputError.

    Two bounded caches.  The algebra depends only on x's Hom pattern, the
    sorted generator list, and _end_of_pattern keeps one per pattern,
    shared by every object with that pattern, so callers must never change
    it.  64 patterns hold classification's n.  No decider asks for End to
    test hereditariness (is_hereditary reads x), so of a seed-1 route_sweep
    unit of the benchmark only the 946 objects that reach the derived route
    ask, with 142 patterns, for which it builds 215 SCAlgebras; 256
    patterns build 142 and measured 2.5% less wall time there for 1.5% more
    peak memory (four alternating 20-s pairs).  In front, _end_of_value keeps
    the last object by value, a decision's traffic (no End of a slice is
    asked for), so a repeated ask skips graded_hom(x, x)."""
    return _end_of_value(check_object(x, DerivedObject))


@lru_cache(maxsize=1)
def _end_of_value(x):
    return _end_of_pattern(
        tuple(sorted(graded_hom(x, x), key=lambda g: g[0] != g[1]))
    )


@lru_cache(maxsize=64)
def _end_of_pattern(gens):
    """The End of every object whose sorted Hom(x, x) generators are gens:
    its basis labels, idempotents (the (i, i, 0) generators) and table are
    functions of gens alone."""
    basis = [("e", i) if i == j else ("g", i, j, deg) for i, j, deg in gens]
    idempotents = [k for k, (i, j, _) in enumerate(gens) if i == j]
    return SCAlgebra(basis, idempotents, composites(gens, gens))


def _bits(mask):
    """The positions of mask's set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def gabriel_quiver(x):
    """End(x)'s Gabriel quiver, with no End(x) built: (size, arrows), size[k]
    the dimension of the projective P(k) at summand k, arrows its (k, t)
    pairs in order, the order of their elements in End(x)'s basis.

    reach(k), a bitmask, is the set of summands t with a nonzero graded map
    from k, k included: the basis of P(k).  A generator's degree is its
    shift gap, so k -> w -> t is nonzero exactly when k -> t is
    (quiver.space_dim's composition rule).  So rad^2 at k is reach(k)
    meeting reach(w) - {w} for some w in reach(k) - {k}, and the arrows out
    of k are the rest of reach(k) - {k}.  Distinct summands with maps both
    ways are equal, so x and End(x) are not basic: InputError, as for
    anything but a DerivedObject."""
    s = check_object(x, DerivedObject).summands
    reach = [sum(1 << l for l, q in enumerate(s) if pair_space_dim(p, q))
             for p in s]
    arrows = []
    for k, r in enumerate(reach):
        out = r & ~(1 << k)
        rad2 = 0
        for w in _bits(out):
            if reach[w] >> k & 1:
                raise InputError("structure query requires a basic algebra")
            rad2 |= reach[w] & ~(1 << w)
        arrows += [(k, t) for t in _bits(out & ~rad2)]
    return [r.bit_count() for r in reach], arrows


def is_hereditary(x):
    """True iff End(x) is hereditary, every simple of projective dimension
    at most one: the arrows out of k (gabriel_quiver) span the top of
    rad P(k), so the projectives at their targets cover it, and rad P(k) is
    projective iff that cover has its dimension, dim P(k) - 1."""
    size, arrows = gabriel_quiver(x)
    cover = [0] * len(size)
    for k, t in arrows:
        cover[k] += size[t]
    return all(c == d - 1 for c, d in zip(cover, size))


@_kept
def is_linear_A(c):
    """Return m when the algebra is isomorphic to the path algebra of the
    linear quiver with m > 0 vertices, else None.

    That path algebra is the incidence algebra of the chain 0 < ... < m-1:
    one basis element from i to j for each i <= j, where vertex i is the
    source of m - i of them, and every composable pair has a nonzero
    product, which in a valid table is the element between its outer ends.
    So the idempotents, ranked by how many basis elements they are the
    source of, largest first, must be that chain."""
    if not c.is_basic():
        raise InputError("structure query requires a basic algebra")
    rank = {e: r for r, e in enumerate(
        sorted(c.idempotents, key=lambda e: -len(c.projectives[e])))}
    m = len(rank)
    pairs = {(rank.get(s), rank.get(t)) for s, t in c.ends}
    if (m and c.dim == len(pairs) == m * (m + 1) // 2
            and pairs == {(i, j) for j in range(m) for i in range(j + 1)}
            and all((a, b) in c.table for a, (s, _) in enumerate(c.ends)
                    for b, (_, t) in enumerate(c.ends) if t == s)):
        return m
    return None


class SCModule:
    """Finite-dimensional left module over an SCAlgebra on which each algebra
    basis element sends each module basis vector to a basis vector or to
    zero: table maps (a, i) to the index of a . b_i, absent keys meaning
    the product is zero, as in SCAlgebra.table.  The constructor only
    stores its arguments; the tests check every table the library builds."""

    def __init__(self, algebra, dim, table):
        self.algebra = algebra
        self.dim = dim
        self.table = dict(table)


def forest_join():
    """join(support) reads the vector with nonzero coordinates support,
    which must be zero, +-b_j or +-(b_j - b_k), as nothing, an edge from j to
    the ground node None or an edge from j to k.  Such vectors are linearly
    independent iff their edges form a forest, so join, which adds the edge,
    is True exactly when the vector is independent of those joined before.
    Coordinates are any hashable labels other than None."""
    parent = {}  # a tree's nodes lead to its root, which has no entry

    def join(support):
        ends = iter(support)
        a, b = next(ends, None), next(ends, None)
        while a in parent:
            a = parent[a]
        while b in parent:
            b = parent[b]
        if a != b:
            parent[a] = b
        return a != b

    return join


def free_act(algebra, a, v):
    """a . v in a free left module, a sum of copies of the algebra: v is a
    sparse vector {(copy, beta): c} over basis elements beta, and a sends
    (copy, beta) to (copy, a beta), or to zero when a beta = 0."""
    w = {}
    for (copy, beta), c in v.items():
        ab = algebra.mul(a, beta)
        if ab is not None:
            w[copy, ab] = w.get((copy, ab), 0) + c
    return {key: c for key, c in w.items() if c}


def module_generators(algebra, vectors):
    """Minimal generating set of the submodule N spanned by vectors of a
    free left module (free_act), grouped by top idempotent.

    Each vector v must be nonzero and lie in one idempotent component e:
    the beta of its coordinates (copy, beta) share the target e.  Then rad N
    is spanned by the r . v for radical r with source e, and as components
    are direct summands, visiting them in any order keeps the same vectors.
    Returns a list of (idempotent index, vector) lifting a basis of
    N / rad N, stably sorted by idempotent.  Every vector given, and every
    r . v, must suit forest_join.
    """
    tops = [algebra.ends[next(iter(v))[1]][1] for v in vectors]
    join = forest_join()
    for e, v in zip(tops, vectors):
        for r in algebra.projectives[e]:
            if r != e:  # the radical elements with source e
                join(free_act(algebra, r, v))
    gens = [(e, v) for e, v in zip(tops, vectors) if join(v)]
    return sorted(gens, key=lambda g: g[0])

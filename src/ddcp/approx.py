"""Minimal left approximation sequences.

For a target object t with endomorphism algebra E, the graded Hom space
Hom(y, t) is a left E-module by post-composition, and the additive category
add t is dual to the projective E-modules.  A minimal projective presentation
of Hom(y, t) therefore transports to a minimal left add-t-approximation
sequence y -> T0 -> T1, with explicit scalar components.

The deciders evaluate the minimal sequence even where only existence of an
exact approximation sequence is demanded; this is sound because the minimal
sequence is a direct summand of every approximation sequence, so exactness
and kernel membership transfer.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from .quiver import InputError
from .derived import DerivedMorphism, DerivedObject, composites, graded_hom
from .endalg import SCModule, end_of, forest_join, module_generators


def hom_module(y, t):
    """Hom(y, t) as a left module over end_of(t), acting by
    post-composition.

    The underlying space has one coordinate per canonical generator y -> t,
    acted on by composites' table.  Idempotent i of end_of(t) is summand
    i's identity, so each basis element, read off ends, is the generator
    between two summands of t, of degree their shift gap; returns
    (SCModule, generator list)."""
    gens = graded_hom(y, t)
    algebra = end_of(t)
    shift = [s for _, s in t.summands]
    acting = [(s, u, shift[u] - shift[s]) for s, u in algebra.ends]
    return SCModule(algebra, len(gens), composites(acting, gens)), gens


@dataclass
class ApproxSequence:
    """Minimal left add-t-approximation sequence y -> T0 -> T1.  f_ranks
    and g_ranks, rank f_v and rank g_v at every vertex v, and dims, the
    dimension vectors of y, T0 and T1, are counted on first use and kept."""

    t0: DerivedObject
    f: DerivedMorphism
    t1: DerivedObject
    g: DerivedMorphism

    @cached_property
    def f_ranks(self):
        return _ranks(self.f)

    @cached_property
    def g_ranks(self):
        return _ranks(self.g)

    @cached_property
    def dims(self):
        return _dims(self.f.src), _dims(self.t0), _dims(self.t1)


def min_left_approx_sequence(y, t):
    """Construct the minimal sequence by projective presentation transport.
    t must be basic, which End(t) answers once per Hom pattern: over A_n, two
    distinct summands of a split object never have mutually inverse degree-0
    maps, so End(t) is basic exactly when t is."""
    m, gens = hom_module(y, t)
    algebra = m.algebra
    if not algebra.is_basic():
        raise InputError("approximation target must be basic")

    # The top of Hom(y, t), grouped by summand l of t: the cover is by the
    # projectives E e_l, dual to the summands t_l themselves.  Hom(y, t) is
    # spanned by its basis, so rad Hom(y, t) is spanned by the basis vectors
    # a radical element hits, and the top by the others, the heads.
    # Idempotent l is summand l of the sorted t.summands (end_of) and fixes
    # b_i when gens[i] targets t_l, so top0, and top1 below, list heads by
    # idempotent in DerivedObject's order: position pos is summand pos.
    idem = set(algebra.idempotents)
    hit = {j for (a, _), j in m.table.items() if a not in idem}
    top0 = sorted((gens[i][1], i) for i in range(m.dim) if i not in hit)
    t0 = t._select(l for l, _ in top0)
    f = DerivedMorphism(
        y, t0, {(gens[i][0], pos): 1 for pos, (_, i) in enumerate(top0)}
    )

    # Q0 = direct sum of projectives E e_l, one copy pos per head, a
    # submodule of the free module of module_generators: basis (pos, beta),
    # beta an algebra basis element with source l.  The cover sends
    # (pos, beta) to beta . b_head, a basis vector or zero.  Its kernel, in
    # Q0's order: (pos, beta) for a zero image, and (pos, beta) - first for
    # an image that an earlier basis element, first, hit first.
    kernel = []
    first = {}
    for pos, (l, i) in enumerate(top0):
        for beta in algebra.projectives[l]:
            image = m.table.get((beta, i))
            if image is None:
                kernel.append({(pos, beta): 1})
            elif image in first:
                kernel.append({first[image]: -1, (pos, beta): 1})
            else:
                first[image] = (pos, beta)

    # The top of the kernel K, read in Q0 coordinates, gives T1 and g.
    top1 = module_generators(algebra, kernel)
    t1 = t._select(l for l, _ in top1)

    g_entries = {}
    for pos1, (_, kappa) in enumerate(top1):
        for (pos0, _), c in kappa.items():
            g_entries[pos0, pos1] = g_entries.get((pos0, pos1), 0) + c
    g = DerivedMorphism(t0, t1, g_entries)
    return ApproxSequence(t0, f, t1, g)


def _dims(x):
    """dim X_v at every vertex v: a difference sweep over summand ends."""
    steps = [0] * (x.alg.n + 1)
    for iv, _ in x.summands:
        steps[iv.a - 1] += 1
        steps[iv.b] -= 1
    return list(accumulate(steps[:-1]))


def _ranks(f):
    """rank f_v at every vertex v, for f or g of an approximation sequence
    in one shift.  A canonical map s -> t is nonzero exactly where both
    supports meet, so f_v is f's entry matrix restricted to the entries
    alive at v, filed by target row.  Each row is zero, b_k or b_j - b_k: f
    has one head entry per T0 summand, and each g row comes from a kernel
    top vector, which is e_j or e_j - e_first.  So forest_join, one per
    vertex, counts rank f_v."""
    src, tgt = f.src.summands, f.tgt.summands
    live = [{} for _ in range(f.alg.n)]  # per vertex: row -> alive entries
    for k, l in f.entries:
        s, t = src[k][0], tgt[l][0]
        for rows in live[max(s.a, t.a) - 1:min(s.b, t.b)]:
            rows.setdefault(l, []).append(k)
    return [sum(map(forest_join(), rows.values())) for rows in live]


def is_exact_at_middle(seq):
    """rank f_v + rank g_v = dim T0_v at every vertex v, so that image(f) =
    kernel(g).  g after f vanishes by construction: each component of g is
    a vector of the kernel of the cover Q0 = Hom(T0, t) -> Hom(y, t), which
    is composition with f, so Hom(g f, t) = 0, and g f = 0 because T1 lies
    in add t.  So the rank count alone decides exactness."""
    ranks = [a + b for a, b in zip(seq.f_ranks, seq.g_ranks)]
    return ranks == seq.dims[1]


def is_exact_sequence_with_zero(seq):
    """Exact at the middle with g surjective: rank g_v = dim T1_v."""
    return is_exact_at_middle(seq) and seq.g_ranks == seq.dims[2]


def is_injective(seq):
    """rank f_v = dim y_v at every vertex v."""
    return seq.f_ranks == seq.dims[0]

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

from .quiver import InputError
from .derived import (
    DerivedMorphism,
    DerivedObject,
    compose,
    composites,
    graded_hom,
)
from .endalg import SCModule, end_of, forest_join, module_generators


def hom_module(y, t, algebra):
    """Hom(y, t) as a left module over algebra = end_of(t), acting by
    post-composition.

    The underlying space has one coordinate per canonical generator y -> t;
    returns (SCModule, generator list)."""
    gens = graded_hom(y.alg, y, t)
    # the idempotent ("e", s) is the degree-0 generator s -> s
    acting = [(lab[1], lab[1], 0) if lab[0] == "e" else lab[1:]
              for lab in algebra.basis]
    images = [[None] * len(gens) for _ in acting]
    for (a, j), k in composites(acting, gens).items():
        images[a][j] = k
    return SCModule(algebra, len(gens), images), gens


@dataclass
class ApproxSequence:
    """Minimal left add-t-approximation sequence y -> T0 -> T1."""

    t0: DerivedObject
    f: DerivedMorphism
    t1: DerivedObject
    g: DerivedMorphism


def min_left_approx_sequence(y, t, algebra=None):
    """Construct the minimal sequence by projective presentation transport."""
    alg = y.alg
    if not t.is_basic():
        raise InputError("approximation target must be basic")
    if algebra is None:
        algebra = end_of(t)
    m, gens = hom_module(y, t, algebra)

    # The top of Hom(y, t), grouped by summand l of t: the cover is by the
    # projectives E e_l, dual to the summands t_l themselves.  Hom(y, t) is
    # spanned by its basis, so rad Hom(y, t) is spanned by the basis vectors
    # a radical element hits, and the top by the heads: the basis vectors
    # that their idempotent fixes and no radical element hits.
    # Idempotent l is summand l of the sorted t.summands (end_of, corner),
    # so top0, and top1 below, list heads by idempotent in DerivedObject's
    # order: position pos of a top is summand pos of T0 or T1.
    hit = {j for r in algebra.radical_indices() for j in m.images[r]}
    top0 = [
        (l, i)
        for l in algebra.idempotents
        for i in range(m.dim)
        if m.images[l][i] == i and i not in hit
    ]
    t0 = DerivedObject(alg, [t.summands[l] for l, _ in top0])
    f = DerivedMorphism(
        y, t0, {(gens[i][0], pos): 1 for pos, (_, i) in enumerate(top0)}
    )

    # Q0 = direct sum of projectives E e_l, basis (cover position, algebra
    # basis element beta with source l), on which a acts by relabelling
    # (pos, beta) -> (pos, a beta); the cover sends (pos, beta) to
    # beta . b_head, a basis vector or zero.
    q0_basis = [
        (pos, bi)
        for pos, (l, _) in enumerate(top0)
        for bi in algebra.projective_basis(l)
    ]
    q0_index = {pb: i for i, pb in enumerate(q0_basis)}
    # (pos, None) is not in the index: a beta = 0
    q0 = SCModule(algebra, len(q0_basis), [
        [q0_index.get((pos, algebra.mul(a, bi))) for pos, bi in q0_basis]
        for a in range(algebra.dim)
    ])
    # The kernel of the cover: e_j for a zero column j, and e_j - e_first
    # for a column j whose basis vector an earlier column, first, hit first.
    kernel = []
    first = {}
    for j, (pos, bi) in enumerate(q0_basis):
        image = m.images[bi][top0[pos][1]]
        kappa = [0] * q0.dim
        kappa[j] = 1
        if image is None:
            kernel.append(kappa)
        elif image in first:
            kappa[first[image]] = -1
            kernel.append(kappa)
        else:
            first[image] = j

    # The top of the kernel K, read in Q0 coordinates, gives T1 and g.
    top1 = module_generators(q0, kernel)
    t1 = DerivedObject(alg, [t.summands[l] for l, _ in top1])

    g_entries = {}
    for pos1, (_, kappa) in enumerate(top1):
        for (pos0, _), c in zip(q0_basis, kappa):
            if c:
                g_entries[pos0, pos1] = g_entries.get((pos0, pos1), 0) + c
    g = DerivedMorphism(t0, t1, g_entries)
    return ApproxSequence(t0, f, t1, g)


def _alive(x, v):
    return {k for k, (iv, _) in enumerate(x.summands) if iv.a <= v <= iv.b}


def _dims(x):
    return [len(_alive(x, v)) for v in range(1, x.alg.n + 1)]


def _ranks(f):
    """rank f_v at every vertex v, for f or g of an approximation sequence
    in one shift.  A canonical map s -> t is nonzero exactly where both
    supports meet, so f_v is f's entry matrix restricted to the summands
    alive at v, and dim X_v is the number of summands alive at v.  Each row
    of f_v, one per target summand, is zero, b_k or b_j - b_k: f has one
    head entry per T0 summand, and each g row comes from a kernel top
    vector, which is e_j or e_j - e_first.  So forest_join counts rank f_v."""
    ranks = []
    for v in range(1, f.alg.n + 1):
        src, join = _alive(f.src, v), forest_join(len(f.src))
        rows = [[k for k, l in f.entries if l == row and k in src]
                for row in _alive(f.tgt, v)]
        ranks.append(sum(map(join, rows)))
    return ranks


def is_exact_at_middle(f, g):
    """g after f vanishes and rank f_v + rank g_v = dim X0_v at every
    vertex v, so that image(f) = kernel(g)."""
    ranks = [a + b for a, b in zip(_ranks(f), _ranks(g))]
    return compose(f, g).is_zero() and ranks == _dims(f.tgt)


def is_exact_sequence_with_zero(f, g):
    """Exact at the middle with g surjective: rank g_v = dim X1_v."""
    return is_exact_at_middle(f, g) and _ranks(g) == _dims(g.tgt)


def is_injective(f):
    """rank f_v = dim src_v at every vertex v."""
    return _ranks(f) == _dims(f.src)

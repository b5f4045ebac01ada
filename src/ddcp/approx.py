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

from .exactmat import Mat, rank
from .quiver import InputError
from .derived import (
    DerivedMorphism,
    DerivedObject,
    compose,
    graded_hom,
    make_object,
)
from .endalg import SCModule, end_of, module_generators
from . import reps


def hom_module(y, t, algebra=None):
    """Hom(y, t) as a left module over end_of(t), acting by post-composition.

    The underlying space has one coordinate per canonical generator y -> t;
    returns (SCModule, generator list)."""
    alg = y.alg
    if algebra is None:
        algebra = end_of(t)
    gens = graded_hom(alg, y, t)
    gen_index = {g: i for i, g in enumerate(gens)}
    images = []
    for lab in algebra.basis:
        # the idempotent at summand s is the degree-0 generator s -> s
        asrc, atgt, adeg = (lab[1], lab[1], 0) if lab[0] == "e" else lab[1:]
        # a composite of canonical generators is canonical or zero
        # (quiver.space_dim): nonzero iff its space has a generator
        images.append([
            gen_index.get((k, atgt, deg + adeg)) if l == asrc else None
            for k, l, deg in gens
        ])
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

    # Generators of Hom(y, t) grouped by summand of t: the cover is by the
    # projectives E e_l, dual to the summands t_l themselves.  Hom(y, t) is
    # spanned by its basis, so each top vector is a basis vector b_head.
    units = [[int(i == j) for j in range(m.dim)] for i in range(m.dim)]
    top0 = module_generators(m, units)
    heads = [vec.index(1) for _, vec in top0]
    t0, perm0 = make_object(alg, [t.summands[l] for l, _ in top0])
    f = DerivedMorphism(
        y, t0, {(gens[i][0], perm0[pos]): 1 for pos, i in enumerate(heads)}
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
        hit = m.images[bi][heads[pos]]
        kappa = [0] * q0.dim
        kappa[j] = 1
        if hit is None:
            kernel.append(kappa)
        elif hit in first:
            kappa[first[hit]] = -1
            kernel.append(kappa)
        else:
            first[hit] = j

    # The top of the kernel K, read in Q0 coordinates, gives T1 and g.
    top1 = module_generators(q0, kernel)
    t1, perm1 = make_object(alg, [t.summands[l] for l, _ in top1])

    g_entries = {}
    for pos1, (_, kappa) in enumerate(top1):
        for (pos0, _), c in zip(q0_basis, kappa):
            if c:
                key = (perm0[pos0], perm1[pos1])
                g_entries[key] = g_entries.get(key, 0) + c
    g = DerivedMorphism(t0, t1, g_entries)
    return ApproxSequence(t0, f, t1, g)


def to_rep_morphism(f):
    """Convert a shift-homogeneous derived morphism to a module morphism."""
    shifts = set(s for _, s in f.src.summands) | set(
        s for _, s in f.tgt.summands
    )
    if len(shifts) > 1:
        raise InputError("morphism is not concentrated in a single shift")
    alg = f.alg
    src_ivs = [iv for iv, _ in f.src.summands]
    tgt_ivs = [iv for iv, _ in f.tgt.summands]
    return reps.rep_morphism(alg, src_ivs, tgt_ivs, f.entries)


def _ranks(f):
    return [rank(b) for b in f.blocks]


def is_exact_at_middle(f, g):
    """g after f vanishes and rank f_v + rank g_v = dim X0_v at every
    vertex v, so that image(f) = kernel(g)."""
    if not reps.compose_rep(f, g).is_zero():
        return False
    return [a + b for a, b in zip(_ranks(f), _ranks(g))] == list(f.tgt.dims)


def is_exact_sequence_with_zero(f, g):
    """Exact at the middle with g surjective: rank g_v = dim X1_v."""
    return is_exact_at_middle(f, g) and _ranks(g) == list(g.tgt.dims)


def is_injective(f):
    """rank f_v = dim src_v at every vertex v."""
    return _ranks(f) == list(f.src.dims)


def approximation_matrix(f, t):
    """Matrix of composing with f: Hom(T0, t) -> Hom(y, t), in the canonical
    generator bases."""
    alg = f.alg
    cols = graded_hom(alg, f.tgt, t)
    rows = graded_hom(alg, f.src, t)
    row_index = {r: i for i, r in enumerate(rows)}
    m = Mat(len(rows), len(cols))
    for j, (k, l, deg) in enumerate(cols):
        h = DerivedMorphism(f.tgt, t, {(k, l): 1})
        comp = compose(f, h)
        for (k2, l2), c in comp.entries.items():
            sp = f.src.summands[k2]
            tp = t.summands[l2]
            m[row_index[(k2, l2, tp[1] - sp[1])], j] = c
    return m


def is_left_approximation(f, t):
    """True iff every morphism from the source into add t factors through f."""
    alg = f.alg
    m = approximation_matrix(f, t)
    return rank(m) == len(graded_hom(alg, f.src, t))


def minimality_check(f, t):
    """f is a left approximation and dropping any target summand breaks it."""
    if not is_left_approximation(f, t):
        return False
    for drop in range(len(f.tgt.summands)):
        kept = [i for i in range(len(f.tgt.summands)) if i != drop]
        sub, perm = make_object(f.alg, [f.tgt.summands[i] for i in kept])
        new_index = dict(zip(kept, perm))
        remap = {
            (k, new_index[l]): c for (k, l), c in f.entries.items() if l != drop
        }
        if is_left_approximation(DerivedMorphism(f.src, sub, remap), t):
            return False
    return True

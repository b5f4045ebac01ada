"""Minimal left approximation sequences.

For a target object t with endomorphism algebra E, the graded Hom space
Hom(y, t) is a left E-module by post-composition, and the additive category
add t is dual to the projective E-modules.  A minimal projective presentation
of Hom(y, t) therefore transports to a minimal left add-t-approximation
sequence y -> T0 -> T1, with explicit scalar components.  Over A_n every
Hom space between two summands is at most one-dimensional and a composite
is nonzero exactly when its space is, so min_left_approx_sequence runs
that presentation on the summands' Hom relation (derived.reach), with no
E and no module built.  t's own relation is the one kept on t
(DerivedObject.hom_relation), and t must be basic (DerivedObject.is_basic).
hom_module builds Hom(y, t) as an E-module all the
same; the tests build the presentation from it, as the reference.

The minimal sequence is a direct summand of every approximation sequence,
so exactness and kernel membership transfer to any other.  The deciders'
derived route takes the cone of its g, and the module route's closed form
(deciders._in_slice) is derived from it.
"""

from dataclasses import dataclass
from fractions import Fraction

from .quiver import InputError
from .derived import (
    DerivedMorphism, DerivedObject, _check_pair, bits, composites,
    graded_hom, reach,
)
from .endalg import SCModule, end_of, forest_join


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
    """Minimal left add-t-approximation sequence y -> T0 -> T1."""

    t0: DerivedObject
    f: DerivedMorphism
    t1: DerivedObject
    g: DerivedMorphism


_ONE = Fraction(1)
_SIGNS = {1: (_ONE,), 2: (-_ONE, _ONE)}  # the entries of a kernel vector


def min_left_approx_sequence(y, t):
    """The minimal sequence y -> T0 -> T1, by projective presentation
    transport, read off the Hom relation: reach(y.summands, t.summands)
    and t's own relation (t.hom_relation()), which a decider that asked
    is_hereditary(t) first finds already computed.  Anything but two
    objects over one algebra raises InputError, and so does a target t
    that is not basic (t.is_basic()).

    Write reach(l) for the summands u of t with a nonzero graded map
    l -> u, l included, and into(k) for the same set of a summand k of y.
    Each such space is spanned by one generator, and a composite of
    generators is the generator of its space, or zero when the space is.
    So Hom(y, t) has basis b(k, l), l in into(k), and E = End(t) has basis
    (l, u), u in reach(l), acting by (l, u) . b(k, l) = b(k, u) when u is
    in into(k), and by zero otherwise.

    Heads.  rad Hom(y, t) is spanned by the b(k, l) that some radical
    (w, l), w != l, hits: l in reach(w) for some other w in into(k).  The
    rest, the heads, lift a basis of the top.  The projective cover Q0 has
    one copy pos of E e_l per head (k, l), listed by (l, k): T0 is t's
    summand l at pos, and f is 1 at (k, pos).

    Cover kernel.  Q0 has basis (pos, u), the element (l, u) in copy pos,
    sent to b(k, u) or to zero.  Visit it copy by copy, l's identity
    first, then u in reach(l) - {l} increasing.  The kernel is spanned by
    (pos, u) for each zero image, and by (pos, u) - (pos', u) when an
    earlier (pos', u) hit b(k, u) first.

    T1 and g.  Every kernel vector has its coordinates at one u, and a
    radical (u, w) of E sends (pos, u) to (pos, w) when w is in reach(l)
    (the composite l -> u -> w), else to zero.  These images span the
    kernel's radical, so its top is the kernel vectors independent of all
    the images and of the kernel vectors before them.  Each vector is 0,
    +-(pos, w) or a difference of two such, so forest_join decides.  The
    top vectors, stably sorted by u, are T1's summands u, and each is a
    column of g: 1 at its pos, and -1 at pos' for a difference.
    """
    _check_pair(y, t)
    if not t.is_basic():
        raise InputError("approximation target must be basic")
    own = t.hom_relation()
    into = reach(y.summands, t.summands)

    heads = []
    for k, r in enumerate(into):
        hit = 0
        for w in bits(r):
            hit |= own[w] & ~(1 << w)
        heads += [(l, k) for l in bits(r & ~hit)]
    heads.sort()
    t0 = t._select(l for l, _ in heads)
    # f and g are built as checked: each entry joins summands with a map
    f = DerivedMorphism._checked(
        y, t0, {(k, pos): _ONE for pos, (_, k) in enumerate(heads)}
    )

    # kernel vectors (u, copies): +(pos, u) for copies (pos,), and
    # (pos, u) - (pos', u) for copies (pos', pos)
    kernel = []
    first = {}
    for pos, (l, k) in enumerate(heads):
        for u in (l, *bits(own[l] & ~(1 << l))):
            if not into[k] >> u & 1:
                kernel.append((u, (pos,)))
            elif (k, u) in first:
                kernel.append((u, (first[k, u], pos)))
            else:
                first[k, u] = pos

    join = forest_join()
    for u, copies in kernel:
        for w in bits(own[u] & ~(1 << u)):
            join([(p, w) for p in copies if own[heads[p][0]] >> w & 1])
    top1 = sorted(((u, copies) for u, copies in kernel
                   if join([(p, u) for p in copies])), key=lambda v: v[0])
    t1 = t._select(u for u, _ in top1)

    g = DerivedMorphism._checked(t0, t1, {
        (p, pos1): c
        for pos1, (_, copies) in enumerate(top1)
        for p, c in zip(copies, _SIGNS[len(copies)])
    })
    return ApproxSequence(t0, f, t1, g)

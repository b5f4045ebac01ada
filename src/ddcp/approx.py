"""Minimal left approximation sequences.

For a target object t with endomorphism algebra E, the graded Hom space
Hom(y, t) is a left E-module by post-composition, and the additive category
add t is dual to the projective E-modules.  A minimal projective presentation
of Hom(y, t) therefore transports to a minimal left add-t-approximation
sequence y -> T0 -> T1, with explicit scalar components.

The minimal sequence is a direct summand of every approximation sequence,
so exactness and kernel membership transfer to any other.  The deciders'
derived route takes the cone of its g, and the module route's closed form
(deciders._in_slice) is derived from it.
"""

from dataclasses import dataclass
from fractions import Fraction

from .quiver import InputError
from .derived import DerivedMorphism, DerivedObject, composites, graded_hom
from .endalg import SCModule, end_of, module_generators


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
    # Each entry of f is a generator of Hom(y, t), and each entry of g an
    # End(t) basis element, so both have a nonzero space: f and g are built
    # as checked, with Fraction entries.
    one = Fraction(1)
    f = DerivedMorphism._checked(
        y, t0, {(gens[i][0], pos): one for pos, (_, i) in enumerate(top0)}
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
    g = DerivedMorphism._checked(
        t0, t1, {kl: Fraction(c) for kl, c in g_entries.items() if c}
    )
    return ApproxSequence(t0, f, t1, g)

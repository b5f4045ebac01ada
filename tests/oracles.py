"""Brute-force references that the closed-form rules are checked against."""

from ddcp import reps
from ddcp.exactmat import Mat, rank
from ddcp.quiver import projective_resolution


def brute_ext_dim(alg, src, tgt):
    """Ext via a projective resolution with honest matrices: the cokernel of
    Hom(P(k0), tgt) -> Hom(P(k1), tgt) induced by the syzygy inclusion,
    whose image is spanned by the flattened composites."""
    k0, k1 = projective_resolution(alg, src)
    if k1 is None:
        return 0
    p0, p1 = alg.projective(k0), alg.projective(k1)
    incl = reps.rep_morphism(alg, [p1], [p0], {(0, 0): 1})
    maps0 = reps.morphism_space(reps.realize(alg, [p0]), reps.realize(alg, [tgt]))
    maps1 = reps.morphism_space(reps.realize(alg, [p1]), reps.realize(alg, [tgt]))
    if not maps1:
        return 0
    composites = [
        [x for b in reps.compose_rep(incl, f).blocks for row in b.rows for x in row]
        for f in maps0
    ]
    ncols = sum(b.nrows * b.ncols for b in maps1[0].blocks)
    return len(maps1) - rank(Mat.from_rows(composites, ncols=ncols))


def injective_reference(f):
    """f is injective: its kernel sub-representation is zero."""
    return reps.kernel(f)[0].total_dim() == 0


def exact_at_middle_reference(f, g):
    """g after f vanishes and the image of f and the kernel of g, built as
    sub-representations, have the same dimension vector."""
    if not reps.compose_rep(f, g).is_zero():
        return False
    return reps.image(f)[0].dims == reps.kernel(g)[0].dims


def exact_with_zero_reference(f, g):
    """Exact at the middle, and the cokernel of g is zero."""
    return exact_at_middle_reference(f, g) and reps.cokernel(g)[0].total_dim() == 0


def kernel_intervals_reference(f):
    """Interval multiplicities of the kernel sub-representation of f."""
    return reps.interval_decompose(reps.kernel(f)[0])

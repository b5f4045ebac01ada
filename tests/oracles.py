"""Brute-force references that the closed-form rules are checked against."""

from ddcp import reps
from ddcp.derived import DerivedObject
from ddcp.exactmat import Mat, rank, solve
from ddcp.quiver import InputError, Interval, projective_resolution


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


def identity_morphism(rep):
    return reps.RepMorphism(rep, rep, [Mat.identity(d) for d in rep.dims])


def factor_through(incl, g):
    """For an inclusion incl: K -> V and g: W -> V with im g inside K, the
    morphism W -> K with incl o h = g."""
    alg = g.src.alg
    blocks = []
    for v in range(alg.n):
        sol = solve(incl.blocks[v], g.blocks[v])
        if sol is None:
            raise InputError("morphism does not factor through the subobject")
        blocks.append(sol)
    return reps.RepMorphism(g.src, incl.src, blocks)


def complex_homology(comps, diffs):
    """Homology of a complex of representations.

    comps maps degree -> QuiverRep; diffs maps degree k to the differential
    comps[k] -> comps[k+1].  Returns degree -> QuiverRep.
    """
    for k, d in diffs.items():
        nxt = diffs.get(k + 1)
        if nxt is not None and not reps.compose_rep(d, nxt).is_zero():
            raise InputError("differentials do not square to zero at %d" % k)
    out = {}
    for k, rep in comps.items():
        d_out = diffs.get(k)
        if d_out is not None:
            ker, incl = reps.kernel(d_out)
        else:
            ker, incl = rep, identity_morphism(rep)
        d_in = diffs.get(k - 1)
        if d_in is None:
            out[k] = ker
            continue
        q = factor_through(incl, d_in)
        out[k] = reps.cokernel(q)[0]
    return out


def chain_rep(alg, chain):
    """Realize a ChainComplex of projectives as representations and
    morphisms."""
    comps = {}
    ivs = {}
    for k, labels in chain.comps.items():
        ivs[k] = [Interval(e, alg.n) for e in labels]
        comps[k] = reps.realize(alg, ivs[k])
    diffs = {}
    for k, m in chain.diffs.items():
        entries = {}
        for i in range(m.nrows):
            for j in range(m.ncols):
                if m[i, j]:
                    entries[(j, i)] = m[i, j]
        diffs[k] = reps.rep_morphism(alg, ivs[k], ivs[k + 1], entries)
    return comps, diffs


def chain_homology_reference(alg, chain):
    """Homology of a chain complex of projectives as a split object, through
    representations: kernels, cokernels and rank barcodes per degree."""
    hom = complex_homology(*chain_rep(alg, chain))
    pairs = []
    for k, rep in hom.items():
        for iv, mult in reps.interval_decompose(rep).items():
            pairs.extend([(iv, -k)] * mult)
    return DerivedObject(alg, pairs)

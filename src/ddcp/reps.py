"""Quiver representations of the linear quiver, with exact linear algebra.

A representation assigns a rational vector space to each vertex and a matrix
to each arrow v -> v+1.  Kernels, cokernels and images are computed vertex
by vertex; interval multiplicities come out of the rank inclusion-exclusion
used for persistence barcodes.  No production path uses this module: it is
the reference the tests check the closed-form rules, the module route's
vertex ranks and the cone homology against.
"""

from fractions import Fraction

from .exactmat import Mat, col_space, hstack, nullspace, rank, rref, solve
from .quiver import Interval, InputError


class QuiverRep:
    """dims[v] is the dimension at vertex v+1; maps[v] is the arrow map
    V_{v+1} <- V_v, a (dims[v+1] x dims[v]) matrix acting on columns."""

    def __init__(self, alg, dims, maps):
        if len(dims) != alg.n or len(maps) != alg.n - 1:
            raise InputError("dimension vector / map count mismatch")
        for v, m in enumerate(maps):
            if (m.nrows, m.ncols) != (dims[v + 1], dims[v]):
                raise InputError("map shape mismatch at vertex %d" % (v + 1))
        self.alg = alg
        self.dims = tuple(dims)
        self.maps = tuple(maps)

    def total_dim(self):
        return sum(self.dims)

    def __repr__(self):
        return "QuiverRep(dims=%r)" % (self.dims,)


class RepMorphism:
    """One block per vertex, blocks[v]: src V_{v+1} -> tgt V_{v+1}.  The
    constructor only stores its arguments."""

    def __init__(self, src, tgt, blocks):
        self.src = src
        self.tgt = tgt
        self.blocks = list(blocks)

    def is_zero(self):
        return all(b.is_zero() for b in self.blocks)


def compose_rep(f, g):
    """g after f, for f: X -> Y and g: Y -> Z."""
    return RepMorphism(
        f.src, g.tgt, [g.blocks[v] @ f.blocks[v] for v in range(f.src.alg.n)]
    )


def interval_positions(alg, intervals):
    """Row index of each interval summand at each vertex of the direct sum."""
    counters = [0] * alg.n
    pos = []
    for iv in intervals:
        alg.check_interval(iv)
        here = {}
        for v in iv.support:
            here[v] = counters[v - 1]
            counters[v - 1] += 1
        pos.append(here)
    return pos, counters


def realize(alg, intervals):
    """Direct sum of interval modules, one basis vector per (summand, vertex)."""
    pos, dims = interval_positions(alg, intervals)
    maps = [Mat(dims[v + 1], dims[v]) for v in range(alg.n - 1)]
    for iv, here in zip(intervals, pos):
        for v in range(iv.a, iv.b):
            maps[v - 1][here[v + 1], here[v]] = 1
    return QuiverRep(alg, dims, maps)


def realize_multiset(alg, multiset):
    return realize(alg, expand_multiset(multiset))


def expand_multiset(multiset):
    out = []
    for iv in sorted(multiset):
        mult = multiset[iv]
        if mult < 0:
            raise InputError("negative multiplicity for %r" % (iv,))
        out.extend([iv] * mult)
    return out


def rep_morphism(alg, src_intervals, tgt_intervals, entries):
    """Morphism between interval sums from scalar coefficients of canonical
    generators; entries maps (src index, tgt index) to a scalar."""
    src_pos, src_dims = interval_positions(alg, src_intervals)
    tgt_pos, tgt_dims = interval_positions(alg, tgt_intervals)
    src = realize(alg, src_intervals)
    tgt = realize(alg, tgt_intervals)
    blocks = [Mat(tgt_dims[v], src_dims[v]) for v in range(alg.n)]
    for (k, l), c in entries.items():
        s, t = src_intervals[k], tgt_intervals[l]
        if not (t.a <= s.a <= t.b <= s.b):
            raise InputError("no canonical morphism %r -> %r" % (s, t))
        for v in range(s.a, t.b + 1):
            blocks[v - 1][tgt_pos[l][v], src_pos[k][v]] = Fraction(c)
    return RepMorphism(src, tgt, blocks)


def _subrep(ambient, bases, what):
    """The subrepresentation of ambient spanned by the column bases, one per
    vertex, with its inclusion morphism."""
    alg = ambient.alg
    maps = []
    for v in range(alg.n - 1):
        sol = solve(bases[v + 1], ambient.maps[v] @ bases[v])
        if sol is None:
            raise AssertionError("%s not preserved by arrow maps" % what)
        maps.append(sol)
    sub = QuiverRep(alg, [b.ncols for b in bases], maps)
    return sub, RepMorphism(sub, ambient, bases)


def kernel(f):
    """Vertex-wise kernel with its inclusion morphism."""
    return _subrep(f.src, [nullspace(b) for b in f.blocks], "kernel")


def image(f):
    """Vertex-wise image with its inclusion into the target."""
    return _subrep(f.tgt, [col_space(b) for b in f.blocks], "image")


def cokernel(f):
    """Vertex-wise cokernel with its projection morphism."""
    alg = f.src.alg
    projs = []
    sections = []
    dims = []
    for v in range(alg.n):
        im = col_space(f.blocks[v])
        t = f.tgt.dims[v]
        # Complete the image columns to a basis of the target space by the
        # unit vectors at the pivots of [im | 1] past im.
        unit = Mat.identity(t)
        _, pivots = rref(hstack([im, unit], nrows=t))
        comp = [unit.column(p - im.ncols) for p in pivots[im.ncols:]]
        q = len(comp)
        section = Mat.from_cols(comp, nrows=t)
        inv = solve(hstack([im, section], nrows=t), unit)
        projs.append(Mat(q, t, inv.rows[im.ncols:]))
        sections.append(section)
        dims.append(q)
    maps = []
    for v in range(alg.n - 1):
        maps.append(projs[v + 1] @ f.tgt.maps[v] @ sections[v])
    cok = QuiverRep(alg, dims, maps)
    proj = RepMorphism(f.tgt, cok, projs)
    return cok, proj


def interval_decompose(rep):
    """Interval multiplicities by rank inclusion-exclusion (barcodes)."""
    alg = rep.alg
    n = alg.n
    r = {}
    for i in range(1, n + 1):
        m = Mat.identity(rep.dims[i - 1])
        r[(i, i)] = rep.dims[i - 1]
        for j in range(i + 1, n + 1):
            m = rep.maps[j - 2] @ m
            r[(i, j)] = rank(m)

    def rk(i, j):
        if i < 1 or j > n:
            return 0
        return r[(i, j)]

    out = {}
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            mult = rk(a, b) - rk(a - 1, b) - rk(a, b + 1) + rk(a - 1, b + 1)
            if mult < 0:
                raise AssertionError("negative interval multiplicity")
            if mult:
                out[Interval(a, b)] = mult
    return out


def morphism_space(src, tgt):
    """Basis of all representation morphisms src -> tgt (brute force).

    Solves the commuting-square equations directly; this is the oracle the
    closed-form Hom/Ext rules are validated against.
    """
    alg = src.alg
    offsets = []
    total = 0
    for v in range(alg.n):
        offsets.append(total)
        total += tgt.dims[v] * src.dims[v]
    rows = []
    for v in range(alg.n - 1):
        # tgt.maps[v] @ X_v == X_{v+1} @ src.maps[v]
        for i in range(tgt.dims[v + 1]):
            for j in range(src.dims[v]):
                row = [Fraction(0)] * total
                for k in range(tgt.dims[v]):
                    row[offsets[v] + k * src.dims[v] + j] += tgt.maps[v][i, k]
                for k in range(src.dims[v + 1]):
                    row[offsets[v + 1] + i * src.dims[v + 1] + k] -= src.maps[v][
                        k, j
                    ]
                rows.append(row)
    system = Mat.from_rows(rows, ncols=total) if rows else Mat(0, total)
    basis = nullspace(system)
    morphisms = []
    for jcol in range(basis.ncols):
        vec = basis.column(jcol)
        blocks = []
        for v in range(alg.n):
            b = Mat(tgt.dims[v], src.dims[v])
            for i in range(tgt.dims[v]):
                for j in range(src.dims[v]):
                    b[i, j] = vec[offsets[v] + i * src.dims[v] + j]
            blocks.append(b)
        morphisms.append(RepMorphism(src, tgt, blocks))
    return morphisms

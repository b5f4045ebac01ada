"""Split objects and morphisms of the bounded derived category.

Over a hereditary algebra every bounded complex is the direct sum of its
shifted homologies, so an object is stored as a multiset of (interval, shift)
pairs; the pair (M, s) denotes M[s].  A morphism is a scalar per ordered
summand pair whose Hom space (equal shifts) or Ext^1 space (target shift one
higher) is nonzero.  Composition has a closed {0, 1} form; the test suite
checks it against honest chain-level computation in K^b(proj).  Mapping cones
are computed at chain level, from two-term projective resolutions and chain
maps.
"""

from fractions import Fraction

from .exactmat import Mat, hstack, vstack
from .quiver import EXT, HOM, InputError, Interval, is_int, space_dim


class DerivedObject:
    """A finite multiset of shifted interval modules."""

    def __init__(self, alg, pairs):
        self.alg = alg
        pairs = [(alg.check_interval(iv), s) for iv, s in pairs]
        for iv, s in pairs:
            if not is_int(s):
                raise InputError("shift of %r must be an integer: %r" % (iv, s))
        self.summands = tuple(sorted(pairs, key=lambda p: (p[1], p[0].a, p[0].b)))

    def __eq__(self, other):
        return (
            isinstance(other, DerivedObject)
            and self.alg == other.alg
            and self.summands == other.summands
        )

    def __hash__(self):
        return hash((self.alg, self.summands))

    def __len__(self):
        return len(self.summands)

    def is_zero(self):
        return not self.summands

    def is_basic(self):
        return len(set(self.summands)) == len(self.summands)

    def shifts(self):
        return sorted({s for _, s in self.summands})

    def shifts_at(self, vertex):
        """The shifts of the summands supported at a vertex."""
        return sorted({s for iv, s in self.summands if iv.a <= vertex <= iv.b})

    def slice(self, s):
        """Interval multiset of the summands at a given shift."""
        out = {}
        for iv, sh in self.summands:
            if sh == s:
                out[iv] = out.get(iv, 0) + 1
        return out

    def shifted(self, k):
        return DerivedObject(self.alg, [(iv, s + k) for iv, s in self.summands])

    def normalized(self):
        """Shift so the minimum shift is zero."""
        if not self.summands:
            return self
        return self.shifted(-min(s for _, s in self.summands))

    def __repr__(self):
        return "DObj[%s]" % ", ".join(
            "%r[%d]" % (iv, s) for iv, s in self.summands
        )


def pair_space_dim(alg, src_pair, tgt_pair):
    """(dim, degree) of the space between two summands: the generator's
    degree is the shift gap, Hom (0) or Ext^1 (1); any other gap admits no
    morphism, (0, None)."""
    deg = tgt_pair[1] - src_pair[1]
    if deg not in (HOM, EXT):
        return 0, None
    return space_dim(alg, src_pair[0], tgt_pair[0], deg), deg


def graded_hom(alg, y, x):
    """Canonical generators of Hom_{D^b}(y, x): (src idx, tgt idx, degree)."""
    gens = []
    for k, sp in enumerate(y.summands):
        for l, tp in enumerate(x.summands):
            d, deg = pair_space_dim(alg, sp, tp)
            if d:
                gens.append((k, l, deg))
    return gens


def composites(acting, gens):
    """The one composition lookup: images[i][j] is the position in gens of
    acting[i] after gens[j], or None when the composite vanishes.

    Both lists hold canonical generators (src idx, tgt idx, degree), and
    gens holds every generator of its graded Hom space, as graded_hom lists
    them.  a after b is the generator (src b, tgt a, deg a + deg b) when
    tgt b = src a; it vanishes when the pair does not compose or when that
    space has no generator (quiver.space_dim)."""
    index = {g: j for j, g in enumerate(gens)}
    return [
        [index.get((bs, at, ad + bd)) if bt == as_ else None
         for bs, bt, bd in gens]
        for as_, at, ad in acting
    ]


class DerivedMorphism:
    def __init__(self, src, tgt, entries):
        self.alg = src.alg
        self.src = src
        self.tgt = tgt
        clean = {}
        for (k, l), c in entries.items():
            c = Fraction(c)
            if not c:
                continue
            d, _ = pair_space_dim(self.alg, src.summands[k], tgt.summands[l])
            if not d:
                raise InputError(
                    "entry (%d, %d) has no morphism space" % (k, l)
                )
            clean[(k, l)] = c
        self.entries = clean

    def is_zero(self):
        return not self.entries

    def __repr__(self):
        return "DMor(%r -> %r, %r)" % (self.src, self.tgt, self.entries)


def compose(f, g):
    """g after f, via the combinatorial composition rule."""
    if g.src is not f.tgt and g.src != f.tgt:
        raise InputError("non-composable derived morphisms")
    alg = f.alg
    entries = {}
    for (k, l), c in f.entries.items():
        for (l2, m), d in g.entries.items():
            if l2 != l:
                continue
            if pair_space_dim(alg, f.src.summands[k], g.tgt.summands[m])[0]:
                key = (k, m)
                entries[key] = entries.get(key, Fraction(0)) + c * d
    return DerivedMorphism(f.src, g.tgt, entries)


class ChainComplex:
    """Bounded complex of projective interval modules.

    comps maps degree -> list of vertex labels (entry e is the projective
    with top at vertex e); diffs maps degree k to the scalar matrix of the
    differential into degree k+1, against canonical generators.  The
    constructor only stores its arguments; validate() checks them.
    """

    def __init__(self, alg, comps, diffs):
        self.alg = alg
        self.comps = {k: list(v) for k, v in comps.items() if v}
        self.diffs = {k: m for k, m in diffs.items() if m.nrows and m.ncols}

    def validate(self):
        """Raise InputError unless every differential has the shape of its
        degrees, maps P(c) only to projectives P(r) with r <= c (the only
        nonzero Hom spaces), and the differentials square to zero."""
        for k, d in self.diffs.items():
            cols = self.comps.get(k, [])
            rows = self.comps.get(k + 1, [])
            if (d.nrows, d.ncols) != (len(rows), len(cols)):
                raise InputError("differential shape mismatch at %d" % k)
            for i, r in enumerate(rows):
                for j, c in enumerate(cols):
                    if d[i, j] and r > c:
                        raise InputError(
                            "no morphism P(%d) -> P(%d) at %d" % (c, r, k)
                        )
            nxt = self.diffs.get(k + 1)
            if nxt is not None and not (nxt @ d).is_zero():
                raise InputError("chain differential does not square to zero")

    def diff(self, k):
        rows = len(self.comps.get(k + 1, []))
        cols = len(self.comps.get(k, []))
        return self.diffs.get(k, Mat(rows, cols))


def to_chain(alg, x):
    """Chain representative of a split object, with position bookkeeping.

    Each summand (X(a, b), s) contributes its projective cover P(a) in degree
    -s and, when b < n, its syzygy P(b+1) in degree -s-1.  Returns
    (ChainComplex, cover positions, syzygy positions), the positions being
    (degree, index) per summand.
    """
    comps = {}
    cover_pos = []
    syz_pos = []

    def push(deg, label):
        comps.setdefault(deg, [])
        comps[deg].append(label)
        return deg, len(comps[deg]) - 1

    for iv, s in x.summands:
        cover_pos.append(push(-s, iv.a))
        syz_pos.append(push(-s - 1, iv.b + 1) if iv.b < alg.n else None)
    diffs = {}
    for k in comps:
        if k + 1 in comps:
            diffs[k] = Mat(len(comps[k + 1]), len(comps[k]))
    for idx, (iv, s) in enumerate(x.summands):
        if syz_pos[idx] is not None:
            deg, col = syz_pos[idx]
            _, row = cover_pos[idx]
            diffs[deg][row, col] = 1
    return ChainComplex(alg, comps, diffs), cover_pos, syz_pos


def lift_chain(f, src_chain, tgt_chain):
    """Chain map representing a derived morphism, as degree -> scalar Mat,
    between the to_chain representatives of its ends."""
    cx, cx_cover, cx_syz = src_chain
    cy, cy_cover, cy_syz = tgt_chain
    mats = {}
    for k in cx.comps:
        mats[k] = Mat(len(cy.comps.get(k, [])), len(cx.comps[k]))
    for (k, l), c in f.entries.items():
        (siv, ss) = f.src.summands[k]
        (tiv, ts) = f.tgt.summands[l]
        if ts == ss:
            deg, col = cx_cover[k]
            _, row = cy_cover[l]
            mats[deg][row, col] += c
            if cx_syz[k] is not None:
                # tgt syzygy exists whenever the source one does (t.b <= s.b)
                deg2, col2 = cx_syz[k]
                _, row2 = cy_syz[l]
                mats[deg2][row2, col2] += c
        else:
            deg, col = cx_syz[k]
            _, row = cy_cover[l]
            mats[deg][row, col] += c
    return mats


def chain_homology_object(alg, chain):
    """Homology of a chain complex of projectives as a split object.

    P(e) = X(e, n) is one-dimensional at each vertex v >= e, with identity
    arrows.  So at vertex v the complex is the block of generators with
    label <= v, the arrow maps are coordinate inclusions, and a differential
    entry is nonzero only when its row label is <= its column label: the
    complex is filtered by label, and its homology is the persistence
    barcode of that filtration (Zomorodian & Carlsson, Computing Persistent
    Homology, 2005).  One column reduction per differential d^k gives it,
    with rows and columns sorted by label: each column is reduced by
    earlier columns with the same lowest row.  A column j that ends with
    lowest row i kills generator i, leaving X(label i, label j - 1) in
    H^{k+1} (nothing when the labels are equal); a cycle that no column
    kills leaves X(label, n) in H^k.
    """
    pairs = []
    cycles = []  # (degree, index) of the generators whose column reduces to 0
    killed = set()  # (degree, index) of the generators some column kills
    for k, cols in chain.comps.items():
        d = chain.diffs.get(k)
        if d is None:
            cycles.extend((k, j) for j in range(len(cols)))
            continue
        rows = chain.comps[k + 1]
        order = sorted(range(len(rows)), key=rows.__getitem__)
        place = {i: p for p, i in enumerate(order)}
        reduced = {}  # lowest row place -> reduced column with that low
        for j in sorted(range(len(cols)), key=cols.__getitem__):
            col = {place[i]: d[i, j] for i in range(d.nrows) if d[i, j]}
            low = max(col, default=None)
            while low in reduced:
                other = reduced[low]
                c = col[low] / other[low]
                for p, x in other.items():
                    y = col.get(p, 0) - c * x
                    if y:
                        col[p] = y
                    else:
                        del col[p]
                low = max(col, default=None)
            if low is None:
                cycles.append((k, j))
                continue
            reduced[low] = col
            i = order[low]
            killed.add((k + 1, i))
            if rows[i] < cols[j]:
                pairs.append((Interval(rows[i], cols[j] - 1), -(k + 1)))
    for k, j in cycles:
        if (k, j) not in killed:
            pairs.append((Interval(chain.comps[k][j], alg.n), -k))
    return DerivedObject(alg, pairs)


def cone(g):
    """Mapping cone of a derived morphism, returned split."""
    alg = g.alg
    src_chain = to_chain(alg, g.src)
    tgt_chain = to_chain(alg, g.tgt)
    cx = src_chain[0]
    cy = tgt_chain[0]
    lifted = lift_chain(g, src_chain, tgt_chain)
    degrees = set(cy.comps) | {k - 1 for k in cx.comps}
    comps = {}
    for k in degrees:
        labels = list(cy.comps.get(k, [])) + list(cx.comps.get(k + 1, []))
        if labels:
            comps[k] = labels
    diffs = {}
    for k in comps:
        if k + 1 not in comps:
            continue
        ytop = len(cy.comps.get(k, []))
        xtop = len(cx.comps.get(k + 1, []))
        ybot = len(cy.comps.get(k + 1, []))
        xbot = len(cx.comps.get(k + 2, []))
        gk = lifted.get(k + 1, Mat(ybot, xtop))
        diffs[k] = vstack([
            hstack([cy.diff(k), gk]),
            hstack([Mat(xbot, ytop), -cx.diff(k + 1)]),
        ])
    chain = ChainComplex(alg, comps, diffs)
    return chain_homology_object(alg, chain)


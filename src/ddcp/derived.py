"""Split objects and morphisms of the bounded derived category.

Over a hereditary algebra every bounded complex is the direct sum of its
shifted homologies, so an object is stored as a multiset of (interval, shift)
pairs; the pair (M, s) denotes M[s].  A morphism is a scalar per ordered
summand pair whose Hom space (equal shifts) or Ext^1 space (target shift one
higher) is nonzero.  Composition has a closed {0, 1} form; the test suite
checks it against honest chain-level computation in K^b(proj).  Mapping cones
are computed at chain level, from two-term projective resolutions and chain
maps, once per morphism value (see cone).  Every map here, a morphism's
entries as much as a chain differential or lift, is sparse:
{(source index, target index): nonzero Fraction}.
"""

from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache

from .quiver import (
    EXT, HOM, InputError, Interval, check_algebra, check_object, is_int,
    space_dim,
)


def summand_order(pair):
    """A DerivedObject's summands sort by shift, then interval."""
    return pair[1], pair[0].a, pair[0].b


class DerivedObject:
    """A finite multiset of shifted interval modules.  The constructor checks
    its input; _checked takes an object derived from a checked one as it is.
    An object never changes, so the first read of its hash keeps it in a
    slot.  Slots in place of an instance dict keep each object small."""

    __slots__ = ("alg", "summands", "_hash")

    def __init__(self, alg, pairs):
        self.alg = check_algebra(alg)
        pairs = list(check_object(pairs, Iterable))
        for pair in pairs:
            if not (type(pair) is tuple and len(pair) == 2):
                raise InputError("summand %r is not a pair" % (pair,))
            iv, s = pair
            alg.check_interval(iv)
            if not is_int(s):
                raise InputError("shift of %r must be an integer: %r" % (iv, s))
        self.summands = tuple(sorted(pairs, key=summand_order))

    @classmethod
    def _checked(cls, alg, summands):
        """The object of checked summands, in summand_order."""
        x = object.__new__(cls)
        x.alg, x.summands = alg, tuple(summands)
        return x

    def _select(self, indices):
        """The summands at non-decreasing indices, taken as checked."""
        return self._checked(self.alg, (self.summands[i] for i in indices))

    def __eq__(self, other):
        return (
            isinstance(other, DerivedObject)
            and self.alg == other.alg
            and self.summands == other.summands
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.alg, self.summands))
            return self._hash

    def __len__(self):
        return len(self.summands)

    def is_basic(self):
        return len(set(self.summands)) == len(self.summands)

    def shifts(self):
        return sorted({s for _, s in self.summands})

    def slice(self, s):
        """Interval multiset of the summands at a given shift."""
        if not is_int(s):
            raise InputError("shift must be an integer: %r" % (s,))
        out = {}
        for iv, sh in self.summands:
            if sh == s:
                out[iv] = out.get(iv, 0) + 1
        return out

    def shifted(self, k):
        if not is_int(k):
            raise InputError("shift must be an integer: %r" % (k,))
        return DerivedObject(self.alg, [(iv, s + k) for iv, s in self.summands])

    def __repr__(self):
        return "DObj[%s]" % ", ".join(
            "%r[%d]" % (iv, s) for iv, s in self.summands
        )


DEGREES = (HOM, EXT)  # a generator's degree is its shift gap, one of these


def pair_space_dim(src_pair, tgt_pair):
    """dim of the space between two (interval, shift) summands."""
    deg = tgt_pair[1] - src_pair[1]
    return space_dim(src_pair[0], tgt_pair[0], deg) if deg in DEGREES else 0


def reach(src, tgt):
    """The Hom relation between two summand tuples as bitmasks: entry k is
    the set of indices l with a nonzero graded map src[k] -> tgt[l].  A
    generator's degree is its shift gap, so a composite of generators
    src[k] -> w -> tgt[l] is nonzero exactly when l is in entry k
    (quiver.space_dim's composition rule)."""
    out = []
    for p, i in src:
        mask = 0
        for l, (q, j) in enumerate(tgt):
            if space_dim(p, q, j - i):
                mask |= 1 << l
        out.append(mask)
    return out


def bits(mask):
    """The positions of mask's set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_pair(y, x):
    """y and x are DerivedObjects over one algebra, or InputError."""
    check_object(y, DerivedObject)
    if check_object(x, DerivedObject).alg != y.alg:
        raise InputError("objects over %r and %r" % (y.alg, x.alg))


def graded_hom(y, x):
    """Canonical generators of Hom_{D^b}(y, x): (src idx, tgt idx, degree).
    Anything but two objects over one algebra raises InputError."""
    _check_pair(y, x)
    return [
        (k, l, deg)
        for k, (s, i) in enumerate(y.summands)
        for l, (t, j) in enumerate(x.summands)
        if (deg := j - i) in DEGREES and space_dim(s, t, deg)
    ]


def composites(acting, gens):
    """The one composition lookup, sparse: {(i, j): k} where gens[k] is
    acting[i] after gens[j], for the pairs whose composite is nonzero.

    Both lists hold canonical generators (src idx, tgt idx, degree), and
    gens holds every generator of its graded Hom space, as graded_hom lists
    them.  a after b is the generator (src b, tgt a, deg a + deg b) when
    tgt b = src a; it vanishes when that space has no generator
    (quiver.space_dim).  gens is grouped by target, so a pair that does not
    compose is never visited."""
    index = {g: k for k, g in enumerate(gens)}
    into = {}
    for j, (bs, bt, bd) in enumerate(gens):
        into.setdefault(bt, []).append((j, bs, bd))
    out = {}
    for i, (as_, at, ad) in enumerate(acting):
        for j, bs, bd in into.get(as_, ()):
            k = index.get((bs, at, ad + bd))
            if k is not None:
                out[i, j] = k
    return out


class DerivedMorphism:
    """A scalar per (source summand, target summand) pair.  The constructor
    keeps the nonzero entries as Fractions, and raises InputError for ends
    that are not objects over one algebra, for entries that are not a dict,
    for an entry that is neither an int nor a Fraction, and for a key that
    is not a pair (k, l) of in-range indices whose summands have a nonzero
    Hom or Ext^1 space.  _checked takes a map the library built itself as
    it is."""

    def __init__(self, src, tgt, entries):
        _check_pair(src, tgt)
        for kl, c in check_object(entries, dict).items():
            if not (is_int(c) or isinstance(c, Fraction)):
                raise InputError("entry %r is not an int or a Fraction" % (c,))
            if not _joins(kl, src.summands, tgt.summands):
                raise InputError("entry %r joins no summands with a morphism "
                                 "space" % (kl,))
        self.alg = src.alg
        self.src = src
        self.tgt = tgt
        self.entries = {kl: Fraction(c) for kl, c in entries.items() if c}

    @classmethod
    def _checked(cls, src, tgt, entries):
        """The morphism of nonzero Fraction entries between objects over one
        algebra, stored as it is."""
        f = object.__new__(cls)
        f.alg, f.src, f.tgt, f.entries = src.alg, src, tgt, entries
        return f

    def __repr__(self):
        return "DMor(%r -> %r, %r)" % (self.src, self.tgt, self.entries)


def _joins(kl, src, tgt):
    """kl is a pair of non-bool int indices, in range, of a source and a
    target summand with a nonzero morphism space."""
    return (
        type(kl) is tuple and len(kl) == 2 and is_int(kl[0]) and is_int(kl[1])
        and 0 <= kl[0] < len(src) and 0 <= kl[1] < len(tgt)
        and pair_space_dim(src[kl[0]], tgt[kl[1]]) > 0
    )


class ChainComplex:
    """Bounded complex of projective interval modules.

    comps maps degree -> list of vertex labels (entry e is the projective
    with top at vertex e); diffs maps degree k to the differential into
    degree k+1, sparse against canonical generators: {(j, i): c} sends
    generator j of degree k to c times generator i of degree k+1.  The
    constructor only stores its arguments.
    """

    def __init__(self, alg, comps, diffs):
        self.alg = alg
        self.comps = {k: list(v) for k, v in comps.items() if v}
        self.diffs = {k: d for k, d in diffs.items() if d}


def to_chain(x):
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
        comps.setdefault(deg, []).append(label)
        return deg, len(comps[deg]) - 1

    for iv, s in x.summands:
        cover_pos.append(push(-s, iv.a))
        syz_pos.append(push(-s - 1, iv.b + 1) if iv.b < x.alg.n else None)
    diffs = {}
    for syz, (_, row) in zip(syz_pos, cover_pos):
        if syz is not None:
            deg, col = syz
            diffs.setdefault(deg, {})[col, row] = Fraction(1)
    return ChainComplex(x.alg, comps, diffs), cover_pos, syz_pos


def lift_chain(f, src_chain, tgt_chain):
    """Chain map representing a derived morphism, as degree -> sparse map
    {(source index, target index): c}, between the to_chain representatives
    of its ends."""
    _, cx_cover, cx_syz = src_chain
    _, cy_cover, cy_syz = tgt_chain
    maps = {}
    for (k, l), c in f.entries.items():
        if f.tgt.summands[l][1] == f.src.summands[k][1]:
            deg, col = cx_cover[k]
            maps.setdefault(deg, {})[col, cy_cover[l][1]] = c
            if cx_syz[k] is not None:
                # tgt syzygy exists whenever the source one does (t.b <= s.b)
                deg2, col2 = cx_syz[k]
                maps.setdefault(deg2, {})[col2, cy_syz[l][1]] = c
        else:
            deg, col = cx_syz[k]
            maps.setdefault(deg, {})[col, cy_cover[l][1]] = c
    return maps


def chain_homology_object(chain):
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
        rows = chain.comps.get(k + 1, [])
        order = sorted(range(len(rows)), key=rows.__getitem__)
        place = {i: p for p, i in enumerate(order)}
        columns = {}  # column j -> {row place: entry}
        for (j, i), c in chain.diffs.get(k, {}).items():
            columns.setdefault(j, {})[place[i]] = c
        reduced = {}  # lowest row place -> reduced column with that low
        for j in sorted(range(len(cols)), key=cols.__getitem__):
            col = columns.get(j, {})
            low = max(col, default=None)
            while low in reduced:
                other = reduced[low]
                c = Fraction(col[low], other[low])  # exact for int entries too
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
            pairs.append((Interval(chain.comps[k][j], chain.alg.n), -k))
    return DerivedObject._checked(chain.alg, sorted(pairs, key=summand_order))


def cone(g):
    """Mapping cone of a derived morphism, returned split.

    Cached by g's value (its algebra, source and target summands and
    entries) in one bounded cache in front of the chain-level body,
    _chain_cone.  The bound of 1024 holds every distinct cone of the
    window-2 route-agreement populations: 149 distinct morphisms behind
    5 248 cone calls at n = 4, and 750 behind 117 422 at n = 5.  A cone is
    shared by every caller asking about the same value, so callers must
    never change it."""
    check_object(g, DerivedMorphism)
    return _chain_cone(
        g.alg, g.src.summands, g.tgt.summands, frozenset(g.entries.items())
    )


@lru_cache(maxsize=1024)
def _chain_cone(alg, src, tgt, entries):
    """The cone of the morphism of this value, computed at chain level."""
    g = DerivedMorphism._checked(
        DerivedObject._checked(alg, src),
        DerivedObject._checked(alg, tgt),
        dict(entries),
    )
    src_chain = to_chain(g.src)
    tgt_chain = to_chain(g.tgt)
    cx, cy = src_chain[0], tgt_chain[0]
    lifted = lift_chain(g, src_chain, tgt_chain)
    comps = {
        k: cy.comps.get(k, []) + cx.comps.get(k + 1, [])
        for k in set(cy.comps) | {k - 1 for k in cx.comps}
    }
    # d^k = [[d_tgt^k, g^{k+1}], [0, -d_src^{k+1}]]: the source's generators
    # follow the target's in each degree, so their indices are offset
    diffs = {}
    for k in comps:
        ytop = len(cy.comps.get(k, []))
        ybot = len(cy.comps.get(k + 1, []))
        d = dict(cy.diffs.get(k, {}))
        for (j, i), c in lifted.get(k + 1, {}).items():
            d[ytop + j, i] = c
        for (j, i), c in cx.diffs.get(k + 1, {}).items():
            d[ytop + j, ybot + i] = -c
        diffs[k] = d
    return chain_homology_object(ChainComplex(g.alg, comps, diffs))

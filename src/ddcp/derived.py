"""Split objects and morphisms of the bounded derived category.

Over a hereditary algebra every bounded complex is the direct sum of its
shifted homologies, so an object is stored as a multiset of (interval, shift)
pairs; the pair (M, s) denotes M[s].  A morphism is a scalar per ordered
summand pair whose Hom space (equal shifts) or Ext^1 space (target shift one
higher) is nonzero.  Composition has a closed {0, 1} form, and everything is
double-checked against honest chain-level computation in K^b(proj): two-term
projective resolutions, chain maps, homotopy projection and mapping cones.
"""

from fractions import Fraction

from .exactmat import Mat, solve
from .quiver import EXT, HOM, InputError, Interval, is_int, space_dim
from . import reps


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


def make_object(alg, pairs):
    """Build a DerivedObject plus the permutation sending each input position
    to its position in the canonically sorted summand tuple."""
    obj = DerivedObject(alg, pairs)
    taken = [False] * len(obj.summands)
    perm = []
    for p in pairs:
        for i, q in enumerate(obj.summands):
            if not taken[i] and q == p:
                taken[i] = True
                perm.append(i)
                break
    return obj, perm


def generator_degree(src_pair, tgt_pair):
    """Degree of the (unique possible) generator between two summands, or
    None when the shift gap rules any morphism out."""
    (_, ss), (_, ts) = src_pair, tgt_pair
    if ts == ss:
        return HOM
    if ts == ss + 1:
        return EXT
    return None


def pair_space_dim(alg, src_pair, tgt_pair):
    deg = generator_degree(src_pair, tgt_pair)
    if deg is None:
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


def identity_morphism(x):
    return DerivedMorphism(x, x, {(k, k): 1 for k in range(len(x.summands))})


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
    differential into degree k+1, against canonical generators.
    """

    def __init__(self, alg, comps, diffs):
        self.alg = alg
        self.comps = {k: list(v) for k, v in comps.items() if v}
        self.diffs = {}
        for k, m in diffs.items():
            rows = len(self.comps.get(k + 1, []))
            cols = len(self.comps.get(k, []))
            if (m.nrows, m.ncols) != (rows, cols):
                raise InputError("differential shape mismatch at %d" % k)
            if rows and cols:
                self.diffs[k] = m
        self._check_d2()

    def _check_d2(self):
        for k, d in self.diffs.items():
            nxt = self.diffs.get(k + 1)
            if nxt is not None and not (nxt @ d).is_zero():
                raise InputError("chain differential does not square to zero")

    def diff(self, k):
        rows = len(self.comps.get(k + 1, []))
        cols = len(self.comps.get(k, []))
        return self.diffs.get(k, Mat(rows, cols))

    def degrees(self):
        return sorted(self.comps)


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


def lift_chain(f, src_chain=None, tgt_chain=None):
    """Chain map representing a derived morphism, as degree -> scalar Mat."""
    alg = f.alg
    if src_chain is None:
        src_chain = to_chain(alg, f.src)
    if tgt_chain is None:
        tgt_chain = to_chain(alg, f.tgt)
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


def _chain_rep(alg, chain):
    """Realize a ChainComplex as representations and morphisms."""
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


def chain_homology_object(alg, chain):
    """Homology of a chain complex of projectives as a split object."""
    comps, diffs = _chain_rep(alg, chain)
    hom = reps.complex_homology(comps, diffs)
    pairs = []
    for k, rep in hom.items():
        for iv, mult in reps.interval_decompose(rep).items():
            pairs.extend([(iv, -k)] * mult)
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
        d = Mat(ybot + xbot, ytop + xtop)
        dy = cy.diff(k)
        gk = lifted.get(k + 1, Mat(ybot, xtop))
        dx = cx.diff(k + 1)
        for i in range(ybot):
            for j in range(ytop):
                d[i, j] = dy[i, j]
            for j in range(xtop):
                d[i, ytop + j] = gk[i, j]
        for i in range(xbot):
            for j in range(xtop):
                d[ybot + i, ytop + j] = -dx[i, j]
        diffs[k] = d
    chain = ChainComplex(alg, comps, diffs)
    return chain_homology_object(alg, chain)


def homotopy_project(alg, y, x, mats, src_chain=None, tgt_chain=None):
    """Express a chain map C(y) -> C(x) in the canonical generator basis of
    Hom_{D^b}(y, x), modulo null-homotopies."""
    if src_chain is None:
        src_chain = to_chain(alg, y)
    if tgt_chain is None:
        tgt_chain = to_chain(alg, x)
    cy = src_chain[0]
    cx = tgt_chain[0]
    gens = graded_hom(alg, y, x)
    lifts = [
        lift_chain(
            DerivedMorphism(y, x, {(k, l): 1}), src_chain, tgt_chain
        )
        for (k, l, _) in gens
    ]
    # Unknowns: one coefficient per generator, one scalar per admissible
    # homotopy entry s^k : C(y)^k -> C(x)^{k-1}.
    hvars = []
    for k, labels in cy.comps.items():
        tgt_labels = cx.comps.get(k - 1, [])
        for i, et in enumerate(tgt_labels):
            for j, es in enumerate(labels):
                if et <= es:
                    hvars.append((k, i, j))
    nvars = len(gens) + len(hvars)
    rows = []
    rhs = []
    for k in sorted(set(cy.comps) | set(cx.comps)):
        nr = len(cx.comps.get(k, []))
        nc = len(cy.comps.get(k, []))
        if nr == 0 or nc == 0:
            continue
        fk = mats.get(k, Mat(nr, nc))
        dx_prev = cx.diff(k - 1)  # C(x)^{k-1} -> C(x)^k
        dy_k = cy.diff(k)  # C(y)^k -> C(y)^{k+1}
        for i in range(nr):
            for j in range(nc):
                row = [Fraction(0)] * nvars
                for gidx in range(len(gens)):
                    lm = lifts[gidx].get(k)
                    if lm is not None and lm.nrows == nr and lm[i, j]:
                        row[gidx] = lm[i, j]
                for hidx, (hk, hi, hj) in enumerate(hvars):
                    # (d_x^{k-1} s^k)[i, j]
                    if hk == k and hj == j and dx_prev.ncols > hi:
                        row[len(gens) + hidx] += dx_prev[i, hi]
                    # (s^{k+1} d_y^k)[i, j]
                    if hk == k + 1 and hi == i and dy_k.nrows > hj:
                        row[len(gens) + hidx] += dy_k[hj, j]
                rows.append(row)
                rhs.append([fk[i, j]])
    if not rows:
        return DerivedMorphism(y, x, {})
    system = Mat.from_rows(rows, ncols=nvars)
    sol = solve(system, Mat.from_rows(rhs, ncols=1))
    if sol is None:
        raise AssertionError("chain map is not in the span of the generators")
    entries = {}
    for gidx, (k, l, _) in enumerate(gens):
        if sol[gidx, 0]:
            entries[(k, l)] = sol[gidx, 0]
    return DerivedMorphism(y, x, entries)


def chain_homotopy_compose(f, g):
    """Composition computed in the homotopy category: lift both morphisms,
    compose the chain maps, and project back onto the canonical basis.

    This is the independent oracle for `compose`.
    """
    alg = f.alg
    ch_src = to_chain(alg, f.src)
    ch_mid = to_chain(alg, f.tgt)
    ch_tgt = to_chain(alg, g.tgt)
    lf = lift_chain(f, ch_src, ch_mid)
    lg = lift_chain(g, ch_mid, ch_tgt)
    comp = {}
    cx = ch_src[0]
    cz = ch_tgt[0]
    for k in cx.comps:
        nr = len(cz.comps.get(k, []))
        nc = len(cx.comps[k])
        a = lg.get(k)
        b = lf.get(k)
        if a is None or b is None or a.nrows == 0:
            comp[k] = Mat(nr, nc)
        else:
            comp[k] = a @ b
    return homotopy_project(alg, f.src, g.tgt, comp, ch_src, ch_tgt)

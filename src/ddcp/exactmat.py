"""Dense exact-rational matrices, a test reference only.

No production path builds a Mat: the derived route's chain lifts and
differentials are sparse maps (derived.py).  The representation references
(reps.py) and the tests build these matrices and eliminate (rref, and the
rank, kernels and solves built on it).  Matrices here are tiny, so a plain
dense Fraction implementation is exact and fast enough.
"""

from fractions import Fraction

F0 = Fraction(0)
F1 = Fraction(1)


class Mat:
    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows, ncols, rows=None):
        if rows is None:
            rows = [[F0] * ncols for _ in range(nrows)]
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def identity(cls, k):
        m = cls(k, k)
        for i in range(k):
            m.rows[i][i] = F1
        return m

    @classmethod
    def from_rows(cls, rows, ncols=None):
        if ncols is None:
            if not rows:
                raise ValueError("ncols required for a matrix with no rows")
            ncols = len(rows[0])
        rows = [[Fraction(x) for x in row] for row in rows]
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
        return cls(len(rows), ncols, rows)

    @classmethod
    def from_cols(cls, cols, nrows=None):
        if nrows is None:
            if not cols:
                raise ValueError("nrows required for a matrix with no columns")
            nrows = len(cols[0])
        m = cls(nrows, len(cols))
        for j, col in enumerate(cols):
            if len(col) != nrows:
                raise ValueError("ragged columns")
            for i, x in enumerate(col):
                m.rows[i][j] = Fraction(x)
        return m

    def copy(self):
        return Mat(self.nrows, self.ncols, [row[:] for row in self.rows])

    def __getitem__(self, rc):
        return self.rows[rc[0]][rc[1]]

    def __setitem__(self, rc, val):
        self.rows[rc[0]][rc[1]] = Fraction(val)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matmul")
        out = Mat(self.nrows, other.ncols)
        for i in range(self.nrows):
            srow = self.rows[i]
            orow = out.rows[i]
            for k in range(self.ncols):
                s = srow[k]
                if s:
                    brow = other.rows[k]
                    for j in range(other.ncols):
                        if brow[j]:
                            orow[j] += s * brow[j]
        return out

    def is_zero(self):
        return all(not x for row in self.rows for x in row)

    def column(self, j):
        return [row[j] for row in self.rows]

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def __repr__(self):
        return "Mat(%d, %d, %r)" % (self.nrows, self.ncols, self.rows)


def hstack(mats, nrows=None):
    mats = list(mats)
    if not mats:
        if nrows is None:
            raise ValueError("nrows required for empty hstack")
        return Mat(nrows, 0)
    nrows = mats[0].nrows
    rows = [[] for _ in range(nrows)]
    for m in mats:
        if m.nrows != nrows:
            raise ValueError("row mismatch in hstack")
        for i in range(nrows):
            rows[i].extend(m.rows[i])
    return Mat(nrows, sum(m.ncols for m in mats), rows)


def rref(m):
    """Reduced row echelon form; returns (reduced copy, pivot column list)."""
    r = m.copy()
    pivots = []
    prow = 0
    for col in range(r.ncols):
        if prow >= r.nrows:
            break
        sel = None
        for i in range(prow, r.nrows):
            if r.rows[i][col]:
                sel = i
                break
        if sel is None:
            continue
        r.rows[prow], r.rows[sel] = r.rows[sel], r.rows[prow]
        inv = F1 / r.rows[prow][col]
        r.rows[prow] = [x * inv for x in r.rows[prow]]
        for i in range(r.nrows):
            if i != prow and r.rows[i][col]:
                c = r.rows[i][col]
                r.rows[i] = [a - c * b for a, b in zip(r.rows[i], r.rows[prow])]
        pivots.append(col)
        prow += 1
    return r, pivots


def rank(m):
    return len(rref(m)[1])


def nullspace(m):
    """Basis of the right kernel, returned as the columns of an ncols x k Mat."""
    r, pivots = rref(m)
    pivset = set(pivots)
    free = [j for j in range(m.ncols) if j not in pivset]
    cols = []
    for f in free:
        v = [F0] * m.ncols
        v[f] = F1
        for i, p in enumerate(pivots):
            v[p] = -r.rows[i][f]
        cols.append(v)
    return Mat.from_cols(cols, nrows=m.ncols)


def solve(a, b):
    """One solution X of A @ X = B (B a Mat of right-hand columns), or None."""
    if a.nrows != b.nrows:
        raise ValueError("shape mismatch in solve")
    aug = hstack([a, b], nrows=a.nrows)
    r, pivots = rref(aug)
    for p in pivots:
        if p >= a.ncols:
            return None
    x = Mat(a.ncols, b.ncols)
    for i, p in enumerate(pivots):
        for j in range(b.ncols):
            x.rows[p][j] = r.rows[i][a.ncols + j]
    return x


def col_space(m):
    """Independent columns of m (at the pivot positions), as a Mat."""
    _, pivots = rref(m)
    return Mat.from_cols([m.column(j) for j in pivots], nrows=m.nrows)


"""Endomorphism algebras as structure-constant algebras.

Because every graded Hom space between interval summands is at most
one-dimensional, the endomorphism algebra of a split object has a canonical
basis (one idempotent per summand, one element per nonzero cross space) whose
products are again basis elements or zero.  Structural questions -- radical,
Gabriel quiver, hereditariness, isomorphism with a linear-chain path algebra
-- then reduce to set combinatorics on the multiplication table.
"""

from .exactmat import IncrementalSpan, Mat
from .quiver import HOM, InputError
from .derived import DerivedObject, pair_space_dim


class PreconditionError(Exception):
    """A decider or construction was invoked outside its hypotheses."""


class SCAlgebra:
    """Finite-dimensional algebra given by a basis and a {0, 1} table.

    basis: tuple of hashable labels.  idempotents: indices of the orthogonal
    idempotents summing to the unit.  table maps (i, j) to the index of
    basis_i * basis_j, absent keys meaning the product is zero.  The product
    convention is composition: a * b applies b first, then a.  The
    constructor only stores its arguments; validate() checks them.
    """

    def __init__(self, basis, idempotents, table):
        self.basis = tuple(basis)
        self.idempotents = tuple(idempotents)
        self.table = dict(table)

    @property
    def dim(self):
        return len(self.basis)

    def mul(self, i, j):
        """Index of basis_i * basis_j, or None when the product is zero."""
        return self.table.get((i, j))

    def src(self, i):
        """The idempotent index e with basis_i * e = basis_i."""
        for e in self.idempotents:
            if self.mul(i, e) == i:
                return e
        raise AssertionError("basis element without a source idempotent")

    def tgt(self, i):
        for e in self.idempotents:
            if self.mul(e, i) == i:
                return e
        raise AssertionError("basis element without a target idempotent")

    def validate(self):
        """Raise InputError unless the table is unital and associative."""
        b = self.dim
        for e in self.idempotents:
            if self.mul(e, e) != e:
                raise InputError("idempotent fails to square to itself")
        for i in range(b):
            # unit = sum of idempotents acts as identity on both sides
            left = [e for e in self.idempotents if self.mul(e, i) is not None]
            right = [e for e in self.idempotents if self.mul(i, e) is not None]
            if len(left) != 1 or self.mul(left[0], i) != i:
                raise InputError("unit does not act as identity (left)")
            if len(right) != 1 or self.mul(i, right[0]) != i:
                raise InputError("unit does not act as identity (right)")
        for i in range(b):
            for j in range(b):
                for k in range(b):
                    ij = self.mul(i, j)
                    jk = self.mul(j, k)
                    lhs = self.mul(ij, k) if ij is not None else None
                    rhs = self.mul(i, jk) if jk is not None else None
                    if lhs != rhs:
                        raise InputError("multiplication table not associative")

    def is_basic(self):
        """No non-idempotent basis element is invertible between idempotents."""
        idem = set(self.idempotents)
        for i in range(self.dim):
            if i in idem:
                continue
            for j in range(self.dim):
                if self.mul(i, j) in idem and self.mul(j, i) in idem:
                    return False
        return True

    def _require_basic(self):
        if not self.is_basic():
            raise InputError("structure query requires a basic algebra")

    def radical_indices(self):
        self._require_basic()
        idem = set(self.idempotents)
        return [i for i in range(self.dim) if i not in idem]

    def radical_square(self):
        rad = self.radical_indices()
        out = set()
        for i in rad:
            for j in rad:
                p = self.mul(i, j)
                if p is not None:
                    out.add(p)
        return out

    def arrows(self):
        """Gabriel quiver arrows: basis of rad / rad^2, as basis indices."""
        rad2 = self.radical_square()
        return [i for i in self.radical_indices() if i not in rad2]

    def projective_basis(self, e):
        """Basis indices of the indecomposable left projective at idempotent e."""
        return [i for i in range(self.dim) if self.src(i) == e]

    def __repr__(self):
        return "SCAlgebra(dim=%d, idempotents=%d)" % (
            self.dim,
            len(self.idempotents),
        )


def end_of(x):
    """Endomorphism algebra of a split object, products by composition."""
    alg = x.alg
    summands = x.summands
    k = len(summands)
    basis = [("e", i) for i in range(k)]
    gens = {}
    for i in range(k):
        for j in range(k):
            d, deg = pair_space_dim(alg, summands[i], summands[j])
            if d and not (i == j and deg == HOM):
                gens[(i, j, deg)] = len(basis)
                basis.append(("g", i, j, deg))

    def ends(lab):
        return (lab[1], lab[1]) if lab[0] == "e" else lab[1:3]

    table = {}
    for bi, lab1 in enumerate(basis):
        s1, t1 = ends(lab1)
        for bj, lab2 in enumerate(basis):
            s2, t2 = ends(lab2)
            if t2 != s1:
                continue
            # the product is the generator s2 -> t1 of the composite degree
            dim, deg = pair_space_dim(alg, summands[s2], summands[t1])
            if dim:
                # s2 == t1 is the idempotent ("e", s2), at index s2
                table[(bi, bj)] = s2 if s2 == t1 else gens[(s2, t1, deg)]
    return SCAlgebra(basis, range(k), table)


def end_of_module(alg, multiset):
    """Endomorphism algebra of a module given as an interval multiset."""
    pairs = []
    for iv in sorted(multiset):
        pairs.extend([(iv, 0)] * multiset[iv])
    return end_of(DerivedObject(alg, pairs))


def opposite(c):
    """Opposite algebra: same basis, transposed multiplication table."""
    table = {(j, i): v for (i, j), v in c.table.items()}
    return SCAlgebra(c.basis, c.idempotents, table)


def is_hereditary(c):
    """True iff every simple module has projective dimension at most one.

    The radical of the projective at e is spanned by the non-idempotent
    basis elements with source e; it is projective iff it matches the direct
    sum of indecomposable projectives prescribed by its top, which a
    dimension count detects because the comparison map is surjective.
    """
    c._require_basic()
    rad = set(c.radical_indices())
    pdim = {e: len(c.projective_basis(e)) for e in c.idempotents}
    for e in c.idempotents:
        rad_pe = [i for i in c.projective_basis(e) if i in rad]
        rad_rad_pe = set()
        for r in rad:
            for i in rad_pe:
                p = c.mul(r, i)
                if p is not None:
                    rad_rad_pe.add(p)
        cover_dim = 0
        for i in rad_pe:
            if i not in rad_rad_pe:
                cover_dim += pdim[c.tgt(i)]
        if cover_dim != len(rad_pe):
            return False
    return True


def is_linear_A(c):
    """Return m when the algebra is isomorphic to the path algebra of the
    linear quiver with m vertices, else None."""
    c._require_basic()
    m = len(c.idempotents)
    if c.dim != m * (m + 1) // 2:
        return None
    arrows = c.arrows()
    if len(arrows) != m - 1:
        return None
    out_of = {}
    into = {}
    for a in arrows:
        s, t = c.src(a), c.tgt(a)
        if s in out_of or t in into or s == t:
            return None
        out_of[s] = a
        into[t] = a
    starts = [e for e in c.idempotents if e not in into]
    if m == 1:
        return 1 if not arrows else None
    if len(starts) != 1:
        return None
    # Walk the chain; every consecutive composite must be nonzero.
    vertex = starts[0]
    visited = {vertex}
    composite = None
    while vertex in out_of:
        a = out_of[vertex]
        composite = a if composite is None else c.mul(a, composite)
        if composite is None:
            return None
        vertex = c.tgt(a)
        if vertex in visited:
            return None
        visited.add(vertex)
    if len(visited) != m:
        return None
    return m


def corner_decomposition(x):
    """Group the indecomposable projectives of the base algebra by the unique
    shift of x whose slice supports their top vertex.

    Returns a list of (shift, sorted vertex list, SCAlgebra of the grouped
    projectives).  Raises PreconditionError when some vertex is supported in
    zero or several shifts (the unique-degree condition fails).
    """
    alg = x.alg
    degree_of = {}
    for e in range(1, alg.n + 1):
        degs = x.shifts_at(e)
        if len(degs) != 1:
            raise PreconditionError(
                "vertex %d is supported in shifts %r, expected exactly one"
                % (e, degs)
            )
        degree_of[e] = degs[0]
    groups = {}
    for e, d in degree_of.items():
        groups.setdefault(d, []).append(e)
    out = []
    for d in sorted(groups):
        verts = sorted(groups[d])
        proj = DerivedObject(alg, [(alg.projective(e), 0) for e in verts])
        out.append((d, verts, end_of(proj)))
    return out


class SCModule:
    """Finite-dimensional left module over an SCAlgebra, one action matrix
    per algebra basis element, over exact scalars.  The constructor only
    stores its arguments; validate() checks them."""

    def __init__(self, algebra, dim, actions):
        self.algebra = algebra
        self.dim = dim
        self.actions = list(actions)

    def act(self, i):
        return self.actions[i]

    def validate(self):
        """Raise InputError unless the actions make a unital module."""
        if len(self.actions) != self.algebra.dim:
            raise InputError("one action matrix per basis element required")
        for m in self.actions:
            if (m.nrows, m.ncols) != (self.dim, self.dim):
                raise InputError("action matrix shape mismatch")
        unit = Mat(self.dim, self.dim)
        for e in self.algebra.idempotents:
            unit = unit + self.actions[e]
        if unit != Mat.identity(self.dim):
            raise InputError("unit does not act as the identity")
        for i in range(self.algebra.dim):
            for j in range(self.algebra.dim):
                prod = self.actions[i] @ self.actions[j]
                k = self.algebra.mul(i, j)
                expect = self.actions[k] if k is not None else Mat(self.dim, self.dim)
                if prod != expect:
                    raise InputError(
                        "action does not respect the multiplication table"
                    )


def regular_module(c):
    """The algebra as a left module over itself, in its own basis."""
    actions = []
    for i in range(c.dim):
        m = Mat(c.dim, c.dim)
        for j in range(c.dim):
            k = c.mul(i, j)
            if k is not None:
                m[k, j] = 1
        actions.append(m)
    return SCModule(c, c.dim, actions)


def module_generators(m):
    """Minimal generating set of an SCModule, grouped by top idempotent.

    Returns a list of (idempotent index, column vector) lifting a basis of
    m / rad m, each vector lying in the corresponding idempotent component.
    """
    c = m.algebra
    span = IncrementalSpan(m.dim)
    for r in c.radical_indices():
        for col in m.act(r).columns():
            span.add(col)
    gens = []
    for e in c.idempotents:
        for col in m.act(e).columns():
            if span.add(col):
                gens.append((e, col))
    return gens

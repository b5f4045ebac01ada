"""Combinatorics of the linearly oriented A_n quiver.

The algebra is the path algebra of 1 -> 2 -> ... -> n (equivalently, n x n
lower triangular matrices).  Indecomposable modules are the interval modules
X(a, b), supported on vertices a..b with top S(a) and socle S(b).  Every
nonzero Hom or Ext^1 space between intervals is one-dimensional, which makes
morphism bookkeeping a matter of {0, 1} arithmetic; the closed-form dimension
rules below are cross-checked against brute-force linear algebra in the test
suite rather than taken on faith.
"""

from dataclasses import dataclass


class InputError(ValueError):
    """Invalid user-supplied data (bad interval, malformed object, ...)."""


def is_int(value):
    """An int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True, order=True)
class Interval:
    a: int
    b: int

    def __post_init__(self):
        if not (1 <= self.a <= self.b):
            raise InputError("invalid interval (%r, %r)" % (self.a, self.b))

    @property
    def support(self):
        return range(self.a, self.b + 1)

    def __repr__(self):
        return "X(%d,%d)" % (self.a, self.b)


@dataclass(frozen=True)
class Algebra:
    """The path algebra of the linear quiver with n vertices."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InputError("need at least one vertex")

    def check_interval(self, iv):
        if iv.b > self.n:
            raise InputError("interval %r exceeds n=%d" % (iv, self.n))
        return iv

    def interval(self, a, b):
        return self.check_interval(Interval(a, b))

    def intervals(self):
        return [
            Interval(a, b)
            for a in range(1, self.n + 1)
            for b in range(a, self.n + 1)
        ]

    def projective(self, i):
        return self.interval(i, self.n)

    def injective(self, i):
        return self.interval(1, i)

    def simple(self, i):
        return self.interval(i, i)


# Degrees of canonical generators: an honest morphism, or an extension class.
HOM = 0
EXT = 1


def hom_dim(alg, src, tgt):
    """dim Hom(X(src), X(tgt)); 0 or 1 on intervals."""
    alg.check_interval(src)
    alg.check_interval(tgt)
    return 1 if tgt.a <= src.a <= tgt.b <= src.b else 0


def ext_dim(alg, src, tgt):
    """dim Ext^1(X(src), X(tgt)); 0 or 1 on intervals."""
    alg.check_interval(src)
    alg.check_interval(tgt)
    return 1 if src.a < tgt.a <= src.b + 1 <= tgt.b else 0


def space_dim(alg, src, tgt, degree):
    """dim Hom_{D^b}(X(src), X(tgt)[degree]): Hom for degree 0, Ext^1 for
    degree 1, and 0 in every other degree (no Ext^2 over a hereditary
    algebra).

    This is the one composition rule of the package: a composite of
    canonical generators of degrees d1 and d2 is the canonical generator of
    the target space of degree d1 + d2 when that space is nonzero, and
    vanishes otherwise."""
    if degree == HOM:
        return hom_dim(alg, src, tgt)
    if degree == EXT:
        return ext_dim(alg, src, tgt)
    return 0


def compose_canonical(alg, f, g):
    """Compose canonical generators f: src -> mid and g: mid -> tgt.

    Each argument is a (src, tgt, degree) triple naming a canonical
    generator.  Returns 1 if the composite is the canonical generator of
    the target space and 0 if the composite vanishes (see space_dim).
    """
    fs, fm, fd = f
    gm, gt, gd = g
    if fm != gm:
        raise InputError("non-composable generators %r, %r" % (f, g))
    if space_dim(alg, fs, fm, fd) != 1 or space_dim(alg, gm, gt, gd) != 1:
        raise InputError("nonexistent canonical generator")
    return space_dim(alg, fs, gt, fd + gd)


def projective_resolution(alg, m):
    """Two-term projective resolution 0 -> P(k1) -> P(k0) -> X(m) -> 0.

    Returns (k0, k1) with k1 = None when X(m) is already projective; the
    connecting map P(k1) -> P(k0) is the canonical generator.
    """
    alg.check_interval(m)
    k0 = m.a
    k1 = m.b + 1 if m.b < alg.n else None
    return k0, k1

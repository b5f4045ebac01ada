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
from functools import lru_cache


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
        a, b = self.a, self.b
        if not (is_int(a) and is_int(b) and 1 <= a <= b):
            raise InputError("invalid interval (%r, %r)" % (a, b))

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
        if not (is_int(self.n) and self.n >= 1):
            raise InputError(
                "number of vertices must be a positive integer: %r" % (self.n,)
            )

    def check_interval(self, iv):
        if not isinstance(iv, Interval):
            raise InputError("%r is not an interval" % (iv,))
        if iv.b > self.n:
            raise InputError("interval %r exceeds n=%d" % (iv, self.n))
        return iv

    def interval(self, a, b):
        return self.check_interval(Interval(a, b))

    def intervals(self):
        """Every interval of the algebra, as a fresh list."""
        return list(_intervals(self.n))

    def projective(self, i):
        return self.interval(i, self.n)

    def injective(self, i):
        return self.interval(1, i)

    def simple(self, i):
        return self.interval(i, i)


@lru_cache
def _intervals(n):
    return tuple(
        Interval(a, b) for a in range(1, n + 1) for b in range(a, n + 1)
    )


# Degrees of canonical generators: an honest morphism, or an extension class.
HOM = 0
EXT = 1


def check_algebra(alg):
    if not isinstance(alg, Algebra):
        raise InputError("%r is not an Algebra" % (alg,))
    return alg


def check_object(value, kind):
    """value, when it is a kind: the type check of a public entry point,
    made before any attribute of value is read."""
    if not isinstance(value, kind):
        raise InputError("%r is not a %s" % (value, kind.__name__))
    return value


def hom_dim(alg, src, tgt):
    """dim Hom(X(src), X(tgt)); 0 or 1 on intervals."""
    check_algebra(alg).check_interval(src)
    alg.check_interval(tgt)
    return space_dim(src, tgt, HOM)


def ext_dim(alg, src, tgt):
    """dim Ext^1(X(src), X(tgt)); 0 or 1 on intervals."""
    check_algebra(alg).check_interval(src)
    alg.check_interval(tgt)
    return space_dim(src, tgt, EXT)


def space_dim(src, tgt, degree):
    """dim Hom_{D^b}(X(src), X(tgt)[degree]): Hom for degree 0, Ext^1 for
    degree 1, and 0 in every other degree (no Ext^2 over a hereditary
    algebra).  The intervals are taken as checked, as every summand of a
    DerivedObject is; hom_dim and ext_dim check theirs.

    This is the one composition rule of the package: a composite of
    canonical generators of degrees d1 and d2 is the canonical generator of
    the target space of degree d1 + d2 when that space is nonzero, and
    vanishes otherwise."""
    if degree == HOM:
        return 1 if tgt.a <= src.a <= tgt.b <= src.b else 0
    if degree == EXT:
        return 1 if src.a < tgt.a <= src.b + 1 <= tgt.b else 0
    return 0

from itertools import product

import pytest

from ddcp.quiver import (
    EXT,
    HOM,
    Algebra,
    InputError,
    Interval,
    compose_canonical,
    ext_dim,
    hom_dim,
    projective_resolution,
    space_dim,
)
from ddcp import reps
from oracles import brute_ext_dim


def test_interval_validation():
    Interval(1, 1)
    Interval(2, 5)
    with pytest.raises(InputError):
        Interval(0, 2)
    with pytest.raises(InputError):
        Interval(3, 2)
    with pytest.raises(InputError):
        Algebra(3).interval(2, 4)


def test_algebra_families():
    alg = Algebra(4)
    assert alg.projective(2) == Interval(2, 4)
    assert alg.injective(3) == Interval(1, 3)
    assert alg.simple(2) == Interval(2, 2)
    assert len(alg.intervals()) == 10


def brute_hom_dim(alg, src, tgt):
    return len(
        reps.morphism_space(reps.realize(alg, [src]), reps.realize(alg, [tgt]))
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hom_formula_against_brute_force(n):
    alg = Algebra(n)
    for src, tgt in product(alg.intervals(), alg.intervals()):
        assert hom_dim(alg, src, tgt) == brute_hom_dim(alg, src, tgt)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ext_formula_against_brute_force(n):
    alg = Algebra(n)
    for src, tgt in product(alg.intervals(), alg.intervals()):
        assert ext_dim(alg, src, tgt) == brute_ext_dim(alg, src, tgt)


def test_space_dim_degrees():
    alg = Algebra(3)
    a, b = Interval(1, 2), Interval(2, 3)
    assert space_dim(alg, a, b, HOM) == hom_dim(alg, a, b)
    assert space_dim(alg, a, b, EXT) == ext_dim(alg, a, b)
    assert space_dim(alg, a, b, 2) == 0


def test_projective_resolution():
    alg = Algebra(3)
    assert projective_resolution(alg, Interval(1, 2)) == (1, 3)
    assert projective_resolution(alg, Interval(2, 3)) == (2, None)


def test_compose_canonical_rules():
    alg = Algebra(3)
    s1, s2, s3 = Interval(3, 3), Interval(2, 3), Interval(1, 3)
    assert compose_canonical(alg, (s1, s2, HOM), (s2, s3, HOM)) == 1
    # composite falls out of the target space
    a, b, c = Interval(2, 2), Interval(1, 2), Interval(1, 1)
    assert hom_dim(alg, a, b) and hom_dim(alg, b, c)
    assert compose_canonical(alg, (a, b, HOM), (b, c, HOM)) == 0
    # total degree two vanishes identically
    x, y = Interval(1, 1), Interval(2, 2)
    assert ext_dim(alg, x, y) == 1
    z = Interval(3, 3)
    assert ext_dim(alg, y, z) == 1
    assert compose_canonical(alg, (x, y, EXT), (y, z, EXT)) == 0


def test_compose_canonical_errors():
    alg = Algebra(3)
    a, b = Interval(1, 2), Interval(1, 1)
    with pytest.raises(InputError):
        compose_canonical(alg, (a, b, HOM), (a, b, HOM))  # middles differ
    with pytest.raises(InputError):
        compose_canonical(alg, (b, a, HOM), (a, b, HOM))  # no such generator

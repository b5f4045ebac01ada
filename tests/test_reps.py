import random

import pytest

from ddcp.quiver import Algebra, InputError, Interval
from ddcp import reps
from oracles import complex_homology, factor_through, identity_morphism


def random_multiset(rng, alg, max_mult=3):
    out = {}
    for iv in alg.intervals():
        if rng.random() < 0.4:
            out[iv] = rng.randint(1, max_mult)
    return out


def test_realize_dimensions():
    alg = Algebra(3)
    rep = reps.realize(alg, [Interval(1, 3), Interval(2, 2)])
    assert rep.dims == (1, 2, 1)
    assert rep.total_dim() == 4


def test_rep_morphism_validates_generators():
    alg = Algebra(3)
    src = [Interval(1, 3)]
    tgt = [Interval(2, 3)]
    with pytest.raises(InputError):
        reps.rep_morphism(alg, src, tgt, {(0, 0): 1})


def test_kernel_image_cokernel_dimensions():
    alg = Algebra(3)
    # surjection X(1,3) -> X(1,2) with kernel X(3,3)
    f = reps.rep_morphism(alg, [Interval(1, 3)], [Interval(1, 2)], {(0, 0): 1})
    ker, incl = reps.kernel(f)
    assert reps.interval_decompose(ker) == {Interval(3, 3): 1}
    img, _ = reps.image(f)
    assert reps.interval_decompose(img) == {Interval(1, 2): 1}
    cok, _ = reps.cokernel(f)
    assert cok.total_dim() == 0
    # inclusion composed back equals restriction of f to zero
    assert reps.compose_rep(incl, f).is_zero()


def test_first_isomorphism_dimensions_random():
    rng = random.Random(5)
    for _ in range(30):
        alg = Algebra(rng.randint(2, 4))
        src = reps.realize_multiset(alg, random_multiset(rng, alg, 2))
        tgt = reps.realize_multiset(alg, random_multiset(rng, alg, 2))
        basis = reps.morphism_space(src, tgt)
        if not basis:
            continue
        f = basis[rng.randrange(len(basis))]
        ker, _ = reps.kernel(f)
        img, _ = reps.image(f)
        cok, _ = reps.cokernel(f)
        for v in range(alg.n):
            assert ker.dims[v] + img.dims[v] == src.dims[v]
            assert img.dims[v] + cok.dims[v] == tgt.dims[v]


def test_factor_through():
    alg = Algebra(3)
    f = reps.rep_morphism(alg, [Interval(1, 3)], [Interval(1, 2)], {(0, 0): 1})
    ker, incl = reps.kernel(f)
    g = reps.rep_morphism(
        alg, [Interval(3, 3)], [Interval(1, 3)], {(0, 0): 1}
    )
    h = factor_through(incl, g)
    assert reps.compose_rep(h, incl).blocks == g.blocks


def test_morphism_space_matches_formula():
    alg = Algebra(4)
    a, b = Interval(1, 3), Interval(2, 4)
    ra, rb = reps.realize(alg, [a]), reps.realize(alg, [b])
    assert len(reps.morphism_space(ra, rb)) == 0
    assert len(reps.morphism_space(rb, ra)) == 1


def test_complex_homology_short_exact():
    alg = Algebra(3)
    # 0 -> X(3,3) -> X(1,3) -> X(1,2) -> 0 placed in degrees -1, 0, 1
    x33 = reps.realize(alg, [Interval(3, 3)])
    x13 = reps.realize(alg, [Interval(1, 3)])
    x12 = reps.realize(alg, [Interval(1, 2)])
    d_in = reps.rep_morphism(alg, [Interval(3, 3)], [Interval(1, 3)], {(0, 0): 1})
    d_out = reps.rep_morphism(alg, [Interval(1, 3)], [Interval(1, 2)], {(0, 0): 1})
    hom = complex_homology(
        {-1: x33, 0: x13, 1: x12}, {-1: d_in, 0: d_out}
    )
    assert all(h.total_dim() == 0 for h in hom.values())


def test_complex_homology_detects_bad_differential():
    alg = Algebra(3)
    x = reps.realize(alg, [Interval(1, 3)])
    ident = identity_morphism(x)
    with pytest.raises(InputError):
        complex_homology({0: x, 1: x, 2: x}, {0: ident, 1: ident})

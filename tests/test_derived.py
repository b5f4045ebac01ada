import random
from itertools import product

import pytest

from ddcp.quiver import Algebra, InputError, Interval
from ddcp.derived import (
    ChainComplex,
    DerivedMorphism,
    DerivedObject,
    chain_homotopy_compose,
    compose,
    cone,
    graded_hom,
    identity_morphism,
    lift_chain,
    make_object,
    to_chain,
)
from ddcp.exactmat import Mat


def obj(alg, *pairs):
    return DerivedObject(alg, [(Interval(a, b), s) for a, b, s in pairs])


def test_object_normalization_and_slices():
    alg = Algebra(3)
    x = obj(alg, (2, 3, 1), (1, 1, 0), (2, 2, 1))
    assert x.summands[0] == (Interval(1, 1), 0)
    assert x.shifts() == [0, 1]
    assert x.slice(1) == {Interval(2, 2): 1, Interval(2, 3): 1}
    assert x.shifted(2).normalized() == x
    assert x.is_basic()
    dup = obj(alg, (1, 1, 0), (1, 1, 0))
    assert not dup.is_basic()


def test_make_object_permutation():
    alg = Algebra(3)
    pairs = [(Interval(2, 3), 1), (Interval(1, 1), 0)]
    x, perm = make_object(alg, pairs)
    for pos, p in enumerate(pairs):
        assert x.summands[perm[pos]] == p


def test_object_rejects_non_integer_shifts():
    alg = Algebra(3)
    pairs = [(Interval(1, 1), 1.9), (Interval(2, 2), True), (Interval(3, 3), "2")]
    with pytest.raises(InputError):
        DerivedObject(alg, pairs)
    for pair in pairs:
        with pytest.raises(InputError):
            DerivedObject(alg, [pair])


def test_graded_hom_counts():
    alg = Algebra(3)
    a = obj(alg, (1, 3, 0), (2, 3, 0), (3, 3, 0))
    assert len(graded_hom(alg, a, a)) == 6
    t1 = obj(alg, (1, 1, 0), (2, 2, 1), (2, 3, 1))
    assert len(graded_hom(alg, t1, t1)) == 6
    gap = obj(alg, (1, 1, 0), (1, 1, 2))
    gens = graded_hom(alg, gap, gap)
    assert gens == [(0, 0, 0), (1, 1, 0)]


def test_morphism_entry_validation():
    alg = Algebra(3)
    x = obj(alg, (3, 3, 0))
    y = obj(alg, (1, 1, 0))
    with pytest.raises(InputError):
        DerivedMorphism(x, y, {(0, 0): 1})


def test_to_chain_and_lift_are_chain_maps():
    alg = Algebra(4)
    rng = random.Random(3)
    atoms = [
        (iv, s) for iv in alg.intervals() for s in (0, 1)
    ]
    for _ in range(25):
        x = DerivedObject(alg, rng.sample(atoms, 3))
        y = DerivedObject(alg, rng.sample(atoms, 3))
        cx = to_chain(alg, x)
        cy = to_chain(alg, y)
        for k, l, _deg in graded_hom(alg, x, y):
            f = DerivedMorphism(x, y, {(k, l): 1})
            mats = lift_chain(f, cx, cy)
            for deg in cx[0].comps:
                lm = mats[deg]
                dy = cy[0].diff(deg)
                dx = cx[0].diff(deg)
                nxt = mats.get(deg + 1, Mat(dy.nrows, dx.nrows))
                assert dy @ lm == nxt @ dx


def exhaustive_objects(alg, count, seed):
    rng = random.Random(seed)
    atoms = [(iv, s) for iv in alg.intervals() for s in (0, 1)]
    return [DerivedObject(alg, rng.sample(atoms, 3)) for _ in range(count)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_compose_matches_chain_homotopy_oracle(n):
    alg = Algebra(n)
    objs = exhaustive_objects(alg, 4, seed=n)
    for x, y, z in product(objs, repeat=3):
        for k, l, _d in graded_hom(alg, x, y):
            for l2, m, _d2 in graded_hom(alg, y, z):
                f = DerivedMorphism(x, y, {(k, l): 1})
                g = DerivedMorphism(y, z, {(l2, m): 1})
                assert (
                    compose(f, g).entries
                    == chain_homotopy_compose(f, g).entries
                )


def test_compose_identity_laws():
    alg = Algebra(3)
    x = obj(alg, (1, 3, 0), (2, 3, 0), (3, 3, 0))
    y = obj(alg, (1, 1, 0), (2, 2, 1), (2, 3, 1))
    for k, l, _deg in graded_hom(alg, x, y):
        f = DerivedMorphism(x, y, {(k, l): 1})
        assert compose(identity_morphism(x), f).entries == f.entries
        assert compose(f, identity_morphism(y)).entries == f.entries


def test_cone_of_identity_vanishes():
    alg = Algebra(3)
    x = obj(alg, (1, 2, 0), (2, 3, 0), (3, 3, 1))
    assert cone(identity_morphism(x)).is_zero()


def test_cone_of_zero_splits():
    alg = Algebra(3)
    x = obj(alg, (1, 3, 0), (2, 3, 0))
    y = obj(alg, (1, 1, 0))
    z = cone(DerivedMorphism(x, y, {}))
    expected = DerivedObject(
        alg, list(y.summands) + [(iv, s + 1) for iv, s in x.summands]
    )
    assert z == expected


def test_cone_collapses_syzygy():
    alg = Algebra(3)
    # X(3,3) -> X(2,3) is the syzygy inclusion; the cone is X(2,2)
    x = obj(alg, (3, 3, 0))
    y = obj(alg, (2, 3, 0))
    g = DerivedMorphism(x, y, {(0, 0): 1})
    assert cone(g) == obj(alg, (2, 2, 0))


def test_chain_complex_rejects_bad_differential():
    alg = Algebra(3)
    comps = {0: [3], 1: [3], 2: [3]}
    d = Mat.identity(1)
    with pytest.raises(InputError):
        ChainComplex(alg, comps, {0: d, 1: d})

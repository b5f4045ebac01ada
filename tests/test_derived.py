import random
from fractions import Fraction
from itertools import product

import pytest

from ddcp import deciders, derived
from ddcp.quiver import Algebra, InputError, Interval
from ddcp.derived import (
    ChainComplex,
    DerivedMorphism,
    DerivedObject,
    chain_homology_object,
    cone,
    graded_hom,
    lift_chain,
    to_chain,
)
from oracles import (
    chain_homology_reference,
    chain_homotopy_compose,
    compose,
    compose_entries,
    derived_identity,
    normalised_objects,
    obj,
    validate_chain,
    validate_morphism,
)


def test_object_normalization_and_slices():
    alg = Algebra(3)
    x = obj(alg, (2, 3, 1), (1, 1, 0), (2, 2, 1))
    assert x.summands[0] == (Interval(1, 1), 0)
    assert x.shifts() == [0, 1]
    assert x.slice(1) == {Interval(2, 2): 1, Interval(2, 3): 1}
    assert x.shifted(2).shifted(-2) == x
    assert x.is_basic()
    dup = obj(alg, (1, 1, 0), (1, 1, 0))
    assert not dup.is_basic()


def test_object_rejects_non_integer_shifts():
    alg = Algebra(3)
    pairs = [(Interval(1, 1), 1.9), (Interval(2, 2), True), (Interval(3, 3), "2")]
    with pytest.raises(InputError):
        DerivedObject(alg, pairs)
    for pair in pairs:
        with pytest.raises(InputError):
            DerivedObject(alg, [pair])
        with pytest.raises(InputError):
            DerivedObject(alg, [(Interval(1, 1), 0)]).shifted(pair[1])
        with pytest.raises(InputError):
            DerivedObject(alg, [(Interval(1, 1), 0)]).slice(pair[1])


def test_object_rejects_a_mapping_of_summands():
    """A mapping's keys would drop its multiplicities, so the constructor
    rejects a mapping instead of reading it as its keys."""
    alg = Algebra(3)
    for mapping in ({(Interval(1, 3), 0): 2, (Interval(2, 3), 0): 5}, {}):
        with pytest.raises(InputError, match="is a mapping"):
            DerivedObject(alg, mapping)


def test_graded_hom_counts():
    alg = Algebra(3)
    a = obj(alg, (1, 3, 0), (2, 3, 0), (3, 3, 0))
    assert len(graded_hom(a, a)) == 6
    t1 = obj(alg, (1, 1, 0), (2, 2, 1), (2, 3, 1))
    assert len(graded_hom(t1, t1)) == 6
    gap = obj(alg, (1, 1, 0), (1, 1, 2))
    gens = graded_hom(gap, gap)
    assert gens == [(0, 0, 0), (1, 1, 0)]


def test_morphism_entry_validation():
    alg = Algebra(3)
    x = obj(alg, (3, 3, 0))
    y = obj(alg, (1, 1, 0))
    validate_morphism(DerivedMorphism(y, y, {(0, 0): 1}))
    # the validator rejects a key without a morphism space in a map built
    # as checked; the constructor rejects it itself
    for entries in ({(0, 0): 1}, {(1, 0): 1}, {(0, -1): 1}):
        with pytest.raises(InputError, match="no morphism space"):
            validate_morphism(DerivedMorphism._checked(
                x, y, {kl: Fraction(c) for kl, c in entries.items()}
            ))
        with pytest.raises(InputError, match="joins no summands"):
            DerivedMorphism(x, y, entries)
    # a key is an in-range pair of non-bool ints joining summands with a
    # nonzero Hom or Ext^1 space: on z, (-1, 0) and (True, False) would
    # index the pair (1, 0), which has one, and zero entries are no excuse
    z = obj(alg, (1, 2, 0), (2, 2, 0))
    DerivedMorphism(z, z, {(1, 0): 1, (0, 0): 1, (1, 1): 0})
    for key in ((-1, 0), (True, False), (1, True), (5, 5), (0, 2), 5, "10",
                (1,), (1, 0, 0), (1.0, 0), (0, 1), None):
        for c in (1, 0):
            with pytest.raises(InputError, match="joins no summands"):
                DerivedMorphism(z, z, {key: c})
    # entries are ints or Fractions, kept as nonzero Fractions; anything
    # else is rejected, not coerced
    f = DerivedMorphism(y, y, {(0, 0): 2})
    assert f.entries == {(0, 0): 2} and type(f.entries[0, 0]) is Fraction
    assert DerivedMorphism(y, y, {(0, 0): Fraction(0)}).entries == {}
    for c in ("1/2", True, 0.1, 1.0, "abc", None):
        with pytest.raises(InputError, match="not an int or a Fraction"):
            DerivedMorphism(y, y, {(0, 0): c})
    # _checked stores its entries as they are; the validator rejects what
    # the constructor would have refused or normalised
    validate_morphism(DerivedMorphism._checked(y, y, {(0, 0): Fraction(1)}))
    for c in (1, True, 1.0, Fraction(0)):
        with pytest.raises(InputError, match="not a nonzero Fraction"):
            validate_morphism(DerivedMorphism._checked(y, y, {(0, 0): c}))
    other = obj(Algebra(4), (1, 1, 0))
    with pytest.raises(InputError, match="ends over"):
        validate_morphism(DerivedMorphism._checked(y, other, {}))


def test_to_chain_and_lift_are_chain_maps():
    alg = Algebra(4)
    rng = random.Random(3)
    atoms = [
        (iv, s) for iv in alg.intervals() for s in (0, 1)
    ]
    for _ in range(25):
        x = DerivedObject(alg, rng.sample(atoms, 3))
        y = DerivedObject(alg, rng.sample(atoms, 3))
        cx = to_chain(x)
        cy = to_chain(y)
        for k, l, _deg in graded_hom(x, y):
            f = DerivedMorphism(x, y, {(k, l): 1})
            maps = lift_chain(f, cx, cy)
            assert maps
            for deg in cx[0].comps:
                lm = maps.get(deg, {})
                dy = cy[0].diffs.get(deg, {})
                dx = cx[0].diffs.get(deg, {})
                nxt = maps.get(deg + 1, {})
                assert compose_entries(lm, dy) == compose_entries(dx, nxt)


def exhaustive_objects(alg, count, seed):
    rng = random.Random(seed)
    atoms = [(iv, s) for iv in alg.intervals() for s in (0, 1)]
    return [DerivedObject(alg, rng.sample(atoms, 3)) for _ in range(count)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_compose_matches_chain_homotopy_oracle(n):
    alg = Algebra(n)
    objs = exhaustive_objects(alg, 4, seed=n)
    for x, y, z in product(objs, repeat=3):
        for k, l, _d in graded_hom(x, y):
            for l2, m, _d2 in graded_hom(y, z):
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
    for k, l, _deg in graded_hom(x, y):
        f = DerivedMorphism(x, y, {(k, l): 1})
        assert compose(derived_identity(x), f).entries == f.entries
        assert compose(f, derived_identity(y)).entries == f.entries


def test_cone_of_identity_vanishes():
    alg = Algebra(3)
    x = obj(alg, (1, 2, 0), (2, 3, 0), (3, 3, 1))
    assert not cone(derived_identity(x)).summands


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
    d = {(0, 0): Fraction(1)}
    with pytest.raises(InputError):
        validate_chain(ChainComplex(alg, comps, {0: d, 1: d}))


def test_chain_complex_rejects_entry_without_morphism():
    alg = Algebra(3)
    d = {(0, 0): Fraction(1)}
    validate_chain(ChainComplex(alg, {0: [2], 1: [1]}, {0: d}))
    # Hom(P(1), P(2)) = 0: X(1, 3) does not map into X(2, 3)
    with pytest.raises(InputError, match="no morphism"):
        validate_chain(ChainComplex(alg, {0: [1], 1: [2]}, {0: d}))


def test_chain_complex_rejects_differential_shape():
    """Every entry must join a generator of degree k to one of degree k+1."""
    alg = Algebra(3)
    comps = {0: [3], 1: [1, 2]}
    validate_chain(ChainComplex(alg, comps, {0: {(0, 1): Fraction(1)}}))
    for diffs in (
        {0: {(1, 0): Fraction(1)}},  # no second generator in degree 0
        {0: {(0, 2): Fraction(1)}},  # no third generator in degree 1
        {0: {(0, -1): Fraction(1)}},
        {1: {(0, 0): Fraction(1)}},  # no degree 2
    ):
        with pytest.raises(InputError, match="shape"):
            validate_chain(ChainComplex(alg, comps, diffs))


def derived_route_cones(monkeypatch):
    """The morphisms whose cone the derived route builds for the
    shift-normalised n-summand objects over shifts {0, 1}, n <= 3: one per
    object and unique-shift vertex, since both derived deciders share each
    cone."""
    morphisms = []

    def recording(g):
        morphisms.append(g)
        return cone(g)

    monkeypatch.setattr(deciders, "cone", recording)
    for n in (1, 2, 3):
        for x in normalised_objects(n, [n]):
            deciders.check_ddcp_derived(x)
            deciders.check_tilting_complex(x, "derived")
    return morphisms


def random_morphisms():
    """Seeded random morphisms, coefficients in -2..2, between random and
    possibly non-basic objects over shifts {0, 1, 2}, n <= 4."""
    out = []
    for n in (1, 2, 3, 4):
        rng = random.Random(100 + n)
        alg = Algebra(n)
        atoms = [(iv, s) for iv in alg.intervals() for s in (0, 1, 2)]
        for _ in range(225):
            x = DerivedObject(alg, rng.choices(atoms, k=rng.randint(1, 4)))
            y = DerivedObject(alg, rng.choices(atoms, k=rng.randint(1, 4)))
            entries = {
                (k, l): rng.randint(-2, 2) for k, l, _d in graded_hom(x, y)
            }
            out.append(DerivedMorphism(x, y, entries))
    return out


def test_cone_matches_representation_reference(monkeypatch):
    """The column reduction against kernels, cokernels and rank barcodes of
    representations, on every cone the derived route builds at n <= 3 and
    on cones of random morphisms, whose differentials have tied labels and
    need columns added more than once."""
    chains = []

    def recording(chain):
        assert all(
            type(c) is Fraction for d in chain.diffs.values() for c in d.values()
        )
        chains.append(chain)
        return chain_homology_object(chain)

    route = derived_route_cones(monkeypatch)
    morphisms = route + random_morphisms()
    monkeypatch.setattr(derived, "chain_homology_object", recording)
    for g in morphisms:
        derived._chain_cone.cache_clear()  # each cone at chain level
        assert cone(g) == chain_homology_reference(g.alg, chains[-1])
    assert len(chains) == len(morphisms)
    assert len(route) == 272


def morphism_value(g):
    return g.alg, g.src.summands, g.tgt.summands, frozenset(g.entries.items())


def test_cone_runs_once_per_morphism_value(monkeypatch):
    """Over the derived route's cones at n <= 3, the chain-level body runs
    once per distinct morphism value, equal values share one cone, and
    each cached cone equals a freshly computed one."""
    lifted = []
    lift = derived.lift_chain

    def recording(f, src_chain, tgt_chain):
        lifted.append(morphism_value(f))
        return lift(f, src_chain, tgt_chain)

    monkeypatch.setattr(derived, "lift_chain", recording)
    route = derived_route_cones(monkeypatch)
    values = {morphism_value(g) for g in route}
    assert sorted(lifted, key=repr) == sorted(values, key=repr)
    assert len(values) < len(route)
    cached = [cone(g) for g in route]
    assert len(lifted) == len(values)
    shared = {}
    for g, c in zip(route, cached):
        assert shared.setdefault(morphism_value(g), c) is c
    for g, c in zip(route, cached):
        derived._chain_cone.cache_clear()
        assert cone(g) == c
    assert len(lifted) == len(values) + len(route)

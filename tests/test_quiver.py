import pytest

from ddcp.quiver import (
    EXT,
    HOM,
    Algebra,
    InputError,
    Interval,
    ext_dim,
    hom_dim,
    space_dim,
)
from ddcp.approx import hom_module, min_left_approx_sequence
from ddcp.classify import enumerate_and_classify
from ddcp.deciders import (
    check_ddcp,
    check_ddcp_derived,
    check_module_dcp,
    check_tilting_complex,
    check_tilting_module,
    ddcp_precheck,
    kernel_interval,
    verify_homology_corners,
)
from ddcp.derived import (
    DerivedMorphism, DerivedObject, composites, cone, graded_hom
)
from ddcp.endalg import end_of, is_linear_A


def test_interval_validation():
    Interval(1, 1)
    Interval(2, 5)
    with pytest.raises(InputError):
        Interval(0, 2)
    with pytest.raises(InputError):
        Interval(3, 2)
    with pytest.raises(InputError):
        Algebra(3).interval(2, 4)
    for a, b in ((1.5, 2), (1, 2.0), ("1", 2), (True, 2), (1, None)):
        with pytest.raises(InputError):
            Interval(a, b)
    for n in (0, 2.5, "2", True, None):
        with pytest.raises(InputError):
            Algebra(n)
    for summand in ((1, 2), "X(1,2)", None):
        with pytest.raises(InputError):
            DerivedObject(Algebra(3), [(summand, 0)])
        for dim in (hom_dim, ext_dim):
            with pytest.raises(InputError, match="not an interval"):
                dim(Algebra(3), summand, Interval(1, 1))
            with pytest.raises(InputError, match="not an interval"):
                dim(Algebra(3), Interval(1, 1), summand)
    # the summands are an iterable of (interval, shift) tuples
    for pairs in (5, None, [5], [(Interval(1, 1),)],
                  [(Interval(1, 1), 0, 1)], [[Interval(1, 1), 0]]):
        with pytest.raises(InputError):
            DerivedObject(Algebra(3), pairs)
    for dim in (hom_dim, ext_dim):
        with pytest.raises(InputError, match="exceeds"):
            dim(Algebra(3), Interval(1, 1), Interval(1, 4))
    # an object's algebra is checked, so no decider meets a non-Algebra
    for alg in (None, 3, "A3", Interval(1, 3)):
        for pairs in ([], [(Interval(1, 1), 0)]):
            with pytest.raises(InputError):
                DerivedObject(alg, pairs)
        for decide in (check_module_dcp, check_tilting_module):
            for multiset in ({}, {Interval(1, 1): 1}):
                with pytest.raises(InputError):
                    decide(alg, multiset)
        for dim in (hom_dim, ext_dim):
            with pytest.raises(InputError, match="not an Algebra"):
                dim(alg, Interval(1, 1), Interval(1, 1))
        with pytest.raises(InputError, match="not an Algebra"):
            enumerate_and_classify(alg)
    # every public entry point that takes an object, a morphism or a
    # multiset checks its type before reading an attribute
    x = DerivedObject(Algebra(3), [(Interval(1, 3), 0)])
    for bad in (5, None, [], [(Interval(1, 3), 0)], Interval(1, 3)):
        for call in (
            lambda: check_ddcp(bad),
            lambda: check_ddcp_derived(bad),
            lambda: check_tilting_complex(bad),
            lambda: check_tilting_complex(bad, "module"),
            lambda: verify_homology_corners(bad),
            lambda: graded_hom(x, bad),
            lambda: graded_hom(bad, x),
            lambda: DerivedMorphism(bad, x, {}),
            lambda: DerivedMorphism(x, bad, {}),
            lambda: DerivedMorphism(x, x, bad),
            lambda: hom_module(x, bad),
            lambda: hom_module(bad, x),
            lambda: min_left_approx_sequence(x, bad),
            lambda: min_left_approx_sequence(bad, x),
            lambda: cone(bad),
            lambda: end_of(bad),
            lambda: check_module_dcp(Algebra(3), bad),
            lambda: check_tilting_module(Algebra(3), bad),
            lambda: ddcp_precheck(bad),
            lambda: kernel_interval(bad, 1, 0),
            lambda: is_linear_A(bad),
            lambda: is_linear_A(x),  # an object, not its End
        ):
            with pytest.raises(InputError, match="is not a "):
                call()
    # no shift-1 summand covers vertex 1, so it has no kernel interval there
    with pytest.raises(InputError, match="covers"):
        kernel_interval(x, 1, 1)
    # a vertex and a shift are ints, not coerced
    for e, i in (("1", 0), (1.5, 0), (True, 0), (1, "0"), (1, 0.0), (1, False)):
        with pytest.raises(InputError, match="must be integers"):
            kernel_interval(x, e, i)


def test_algebra_families():
    alg = Algebra(4)
    assert alg.projective(2) == Interval(2, 4)
    assert alg.injective(3) == Interval(1, 3)
    assert alg.interval(2, 2) == Interval(2, 2)
    assert len(alg.intervals()) == 10


def test_space_dim_degrees():
    alg = Algebra(3)
    a, b = Interval(1, 2), Interval(2, 3)
    assert space_dim(a, b, HOM) == hom_dim(alg, a, b)
    assert space_dim(a, b, EXT) == ext_dim(alg, a, b)
    assert space_dim(a, b, 2) == 0


def compose_in_end(alg, summands, a, b):
    """a after b among the generators of End(x), x the (a, b, shift)
    summands, by derived.composites: a generator triple, or None."""
    x = DerivedObject(alg, [(Interval(p, q), s) for p, q, s in summands])
    gens = graded_hom(x, x)
    assert a in gens and b in gens
    k = composites([a], gens).get((0, gens.index(b)))
    return None if k is None else gens[k]


def test_compose_canonical_rules():
    alg = Algebra(3)
    # summands sorted by (shift, a, b): 0 = X(1,3), 1 = X(2,3), 2 = X(3,3)
    chain = [(3, 3, 0), (2, 3, 0), (1, 3, 0)]
    assert compose_in_end(alg, chain, (1, 0, HOM), (2, 1, HOM)) == (2, 0, HOM)
    # a pair that does not compose, though 2 -> 0 has a generator
    assert compose_in_end(alg, chain, (1, 0, HOM), (2, 0, HOM)) is None
    # composite falls out of the target space: 0 = X(1,1), 1 = X(1,2),
    # 2 = X(2,2), and Hom(X(2,2), X(1,1)) = 0
    a, b, c = Interval(2, 2), Interval(1, 2), Interval(1, 1)
    assert hom_dim(alg, a, b) and hom_dim(alg, b, c) and not hom_dim(alg, a, c)
    fall = [(2, 2, 0), (1, 2, 0), (1, 1, 0)]
    assert compose_in_end(alg, fall, (1, 0, HOM), (2, 1, HOM)) is None
    # total degree two vanishes identically: X(1,1), X(2,2)[1], X(3,3)[2]
    x, y, z = Interval(1, 1), Interval(2, 2), Interval(3, 3)
    assert ext_dim(alg, x, y) == 1 and ext_dim(alg, y, z) == 1
    ext_ext = [(1, 1, 0), (2, 2, 1), (3, 3, 2)]
    assert compose_in_end(alg, ext_ext, (1, 2, EXT), (0, 1, EXT)) is None

"""The constructors of SCAlgebra, SCModule, RepMorphism and ChainComplex,
and DerivedMorphism._checked, only store their arguments (the public
DerivedMorphism constructor keeps its entries as nonzero Fractions), so the
checks of tests/oracles.py are run here: validate_algebra, validate_chain
and validate_morphism over every instance the library builds for a
population of objects and modules, validate_module over the modules the
test references build from the library's (the deciders build no SCModule
and no RepMorphism), and each validator, with validate_rep_morphism,
against a broken instance it must reject."""

from collections import Counter

import pytest

from ddcp import approx, derived, endalg
from ddcp.approx import hom_module
from ddcp.classify import enumerate_and_classify, make_V
from ddcp.deciders import (
    check_ddcp,
    check_ddcp_derived,
    check_module_dcp,
    check_tilting_complex,
    check_tilting_module,
    verify_homology_corners,
)
from ddcp.derived import ChainComplex, DerivedMorphism, DerivedObject
from ddcp.endalg import SCAlgebra, SCModule
from ddcp.exactmat import Mat
from ddcp.quiver import Algebra, InputError, Interval
from ddcp.reps import RepMorphism, realize
from oracles import (
    basic_modules,
    identity_morphism,
    normalised_objects,
    regular_module,
    validate_algebra,
    validate_chain,
    validate_module,
    validate_morphism,
    validate_rep_morphism,
)


def validating(cls, check, counts):
    """A subclass of cls that checks every instance it builds, through the
    constructor or, for DerivedMorphism, through _checked."""

    class Validating(cls):
        def __init__(self, *args):
            super().__init__(*args)
            check(self)
            counts[cls.__name__] += 1

        @classmethod
        def _checked(klass, *args):
            built = super()._checked(*args)
            check(built)
            counts[cls.__name__ + "._checked"] += 1
            return built

    return Validating


@pytest.fixture
def validated(monkeypatch):
    """Validate every SCAlgebra, ChainComplex and DerivedMorphism the
    library builds; returns the number validated per class."""
    counts = Counter()
    morphism = validating(DerivedMorphism, validate_morphism, counts)
    monkeypatch.setattr(
        endalg, "SCAlgebra", validating(SCAlgebra, validate_algebra, counts))
    monkeypatch.setattr(
        derived, "ChainComplex", validating(ChainComplex, validate_chain, counts))
    monkeypatch.setattr(derived, "DerivedMorphism", morphism)
    monkeypatch.setattr(approx, "DerivedMorphism", morphism)
    return counts


def test_every_built_instance_validates(validated):
    for n in (1, 2, 3):
        for x in normalised_objects(n, [n]):
            check_ddcp(x)
            check_ddcp_derived(x)
            check_tilting_complex(x, "module")
            check_tilting_complex(x, "derived")
            verify_homology_corners(x)
            # the modules of the test references (oracles.py): End(x) over
            # itself, and the Hom module of each sequence reference
            validate_module(regular_module(endalg.end_of(x)))
            for e in range(1, n + 1):
                for i in x.shifts():
                    y = DerivedObject(x.alg, [(x.alg.projective(e), i)])
                    validate_module(hom_module(y, x)[0])
    alg5 = Algebra(5)
    # every basic module at n <= 3 (at most 6 intervals), the empty one too
    modules = list(basic_modules(range(1, 4), range(7)))
    modules += [(alg5, make_V(alg5, m).slice(0)) for m in range(1, 6)]
    for alg, multiset in modules:
        check_module_dcp(alg, multiset)
        check_tilting_module(alg, multiset)
    enumerate_and_classify(Algebra(4))
    assert set(validated) == {
        "SCAlgebra", "ChainComplex", "DerivedMorphism._checked"
    }
    assert min(validated.values()) > 0


def two_vertex_table():
    """The path algebra of one arrow a: e0 -> e1, basis (e0, e1, a)."""
    return {(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2}


def test_algebra_validate_accepts_a_path_algebra():
    validate_algebra(SCAlgebra("e0 e1 a".split(), [0, 1], two_vertex_table()))


def test_algebra_validate_rejects_non_associative_table():
    # b: e1 -> e0 with a * b = e1 but b * a = 0, so (a b) a = a, a (b a) = 0
    table = two_vertex_table()
    table.update({(3, 1): 3, (0, 3): 3, (2, 3): 1})
    c = SCAlgebra("e0 e1 a b".split(), [0, 1], table)
    with pytest.raises(InputError, match="multiplication table"):
        validate_algebra(c)


@pytest.mark.parametrize("product,message", [
    ((1, 1), "fails to square"),  # e1 * e1 = 0
    ((2, 0), r"identity \(right\)"),  # a * e0 = 0: the unit kills a
])
def test_algebra_validate_rejects_a_broken_idempotent(product, message):
    table = two_vertex_table()
    del table[product]
    c = SCAlgebra("e0 e1 a".split(), [0, 1], table)
    with pytest.raises(InputError, match=message):
        validate_algebra(c)


def test_algebra_validate_rejects_unit_not_acting_as_identity():
    table = two_vertex_table()
    del table[(1, 2)]  # e1 * a = 0: the unit kills a from the left
    c = SCAlgebra("e0 e1 a".split(), [0, 1], table)
    with pytest.raises(InputError, match="identity"):
        validate_algebra(c)


def path_module():
    c = SCAlgebra("e0 e1 a".split(), [0, 1], two_vertex_table())
    m = regular_module(c)
    validate_module(m)
    return c, m


def test_module_validate_rejects_missing_action():
    c, m = path_module()
    table = {(a, i): j for (a, i), j in m.table.items() if a != 1}
    # e1 acts as zero: the unit kills e1 and a
    with pytest.raises(InputError, match="identity"):
        validate_module(SCModule(c, m.dim, table))


def test_module_validate_rejects_action_breaking_the_table():
    c, m = path_module()
    table = dict(m.table)
    table[2, 0] = 0  # a . e0 = e0, so a . (a . e0) = e0 but (a * a) . e0 = 0
    with pytest.raises(InputError, match="multiplication table"):
        validate_module(SCModule(c, m.dim, table))


def test_module_validate_rejects_image_out_of_range():
    c, m = path_module()
    table = dict(m.table)
    table[2, 0] = m.dim  # a . e0 names a basis vector that does not exist
    with pytest.raises(InputError, match="out of range"):
        validate_module(SCModule(c, m.dim, table))


def test_module_validate_rejects_unit_not_acting_as_identity():
    c, m = path_module()
    table = dict(m.table)
    del table[1, 2]  # e1 . a = 0: the unit kills a
    with pytest.raises(InputError, match="identity"):
        validate_module(SCModule(c, m.dim, table))


def test_rep_morphism_validate_rejects_non_commuting_square():
    alg = Algebra(2)
    simple, projective = realize(alg, [Interval(1, 1)]), realize(
        alg, [Interval(1, 2)]
    )
    validate_rep_morphism(identity_morphism(projective))
    # S(1) -> X(1,2) nonzero at vertex 1: the socle of X(1,2) is S(2)
    f = RepMorphism(simple, projective, [Mat.identity(1), Mat(1, 0)])
    with pytest.raises(InputError, match="non-commuting square at vertex 1"):
        validate_rep_morphism(f)

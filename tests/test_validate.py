"""The constructors of SCAlgebra, SCModule and RepMorphism only store their
arguments, so each validator is exercised here: once over every instance the
library builds for a population of objects and modules, and once against a
broken instance it must reject."""

from collections import Counter
from itertools import combinations

import pytest

from ddcp import approx, endalg, reps
from ddcp.classify import enumerate_and_classify, make_V
from ddcp.deciders import (
    check_ddcp,
    check_ddcp_derived,
    check_module_dcp,
    check_tilting_complex,
    check_tilting_module,
    verify_homology_corners,
)
from ddcp.derived import DerivedObject
from ddcp.endalg import SCAlgebra, SCModule, opposite, regular_module
from ddcp.exactmat import Mat
from ddcp.quiver import Algebra, InputError, Interval
from ddcp.reps import RepMorphism, identity_morphism, realize


def validating(cls, counts):
    """A subclass of cls that validates every instance it builds."""

    class Validating(cls):
        def __init__(self, *args):
            super().__init__(*args)
            self.validate()
            counts[cls.__name__] += 1

    return Validating


@pytest.fixture
def validated(monkeypatch):
    """Validate every SCAlgebra, SCModule and RepMorphism the library
    builds; returns the number validated per class."""
    counts = Counter()
    module = validating(SCModule, counts)
    monkeypatch.setattr(endalg, "SCAlgebra", validating(SCAlgebra, counts))
    monkeypatch.setattr(endalg, "SCModule", module)
    monkeypatch.setattr(approx, "SCModule", module)
    monkeypatch.setattr(reps, "RepMorphism", validating(RepMorphism, counts))
    return counts


def normalised_objects(n):
    """Every n-summand object over shifts {0, 1} with minimum shift zero."""
    alg = Algebra(n)
    atoms = [(iv, s) for s in (0, 1) for iv in alg.intervals()]
    for combo in combinations(atoms, n):
        if min(s for _, s in combo) == 0:
            yield DerivedObject(alg, combo)


def basic_modules(n):
    alg = Algebra(n)
    ivs = alg.intervals()
    for size in range(len(ivs) + 1):
        for combo in combinations(ivs, size):
            yield alg, dict.fromkeys(combo, 1)


def test_every_built_instance_validates(validated):
    for n in (1, 2, 3):
        for x in normalised_objects(n):
            check_ddcp(x)
            check_ddcp_derived(x)
            check_tilting_complex(x, "module")
            check_tilting_complex(x, "derived")
            verify_homology_corners(x)
            c = endalg.end_of(x)
            opposite(c)
            regular_module(c)
    alg5 = Algebra(5)
    modules = [(alg, m) for n in (1, 2, 3) for alg, m in basic_modules(n)]
    modules += [(alg5, make_V(alg5, m).slice(0)) for m in range(1, 6)]
    for alg, multiset in modules:
        check_module_dcp(alg, multiset)
        check_tilting_module(alg, multiset)
    enumerate_and_classify(Algebra(4))
    assert set(validated) == {"SCAlgebra", "SCModule", "RepMorphism"}
    assert min(validated.values()) > 0


def two_vertex_table():
    """The path algebra of one arrow a: e0 -> e1, basis (e0, e1, a)."""
    return {(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2}


def test_algebra_validate_accepts_a_path_algebra():
    SCAlgebra("e0 e1 a".split(), [0, 1], two_vertex_table()).validate()


def test_algebra_validate_rejects_non_associative_table():
    # b: e1 -> e0 with a * b = e1 but b * a = 0, so (a b) a = a, a (b a) = 0
    table = two_vertex_table()
    table.update({(3, 1): 3, (0, 3): 3, (2, 3): 1})
    c = SCAlgebra("e0 e1 a b".split(), [0, 1], table)
    with pytest.raises(InputError, match="not associative"):
        c.validate()


def test_algebra_validate_rejects_unit_not_acting_as_identity():
    table = two_vertex_table()
    del table[(1, 2)]  # e1 * a = 0: the unit kills a from the left
    c = SCAlgebra("e0 e1 a".split(), [0, 1], table)
    with pytest.raises(InputError, match="identity"):
        c.validate()


def path_module():
    c = SCAlgebra("e0 e1 a".split(), [0, 1], two_vertex_table())
    m = regular_module(c)
    m.validate()
    return c, m


def test_module_validate_rejects_missing_action():
    c, m = path_module()
    with pytest.raises(InputError, match="one action matrix"):
        SCModule(c, m.dim, m.actions[:-1]).validate()


def test_module_validate_rejects_action_breaking_the_table():
    c, m = path_module()
    actions = list(m.actions)
    actions[2] = actions[0]  # a acts as e0, so a * a acts nonzero
    with pytest.raises(InputError, match="multiplication table"):
        SCModule(c, m.dim, actions).validate()


def test_rep_morphism_validate_rejects_non_commuting_square():
    alg = Algebra(2)
    simple, projective = realize(alg, [Interval(1, 1)]), realize(
        alg, [Interval(1, 2)]
    )
    identity_morphism(projective).validate()
    # S(1) -> X(1,2) nonzero at vertex 1: the socle of X(1,2) is S(2)
    f = RepMorphism(simple, projective, [Mat.identity(1), Mat(1, 0)])
    with pytest.raises(InputError, match="non-commuting square at vertex 1"):
        f.validate()

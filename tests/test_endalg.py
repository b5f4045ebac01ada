from itertools import combinations

import pytest

from ddcp.quiver import Algebra, InputError, Interval
from ddcp.derived import DerivedMorphism, DerivedObject, compose
from ddcp.approx import hom_module
from ddcp.endalg import (
    PreconditionError,
    corner_decomposition,
    end_of,
    end_of_module,
    is_hereditary,
    is_linear_A,
    module_generators,
    opposite,
    regular_module,
)


def obj(alg, *pairs):
    return DerivedObject(alg, [(Interval(a, b), s) for a, b, s in pairs])


def full_projectives(alg):
    return obj(alg, *[(i, alg.n, 0) for i in range(1, alg.n + 1)])


def test_end_of_regular_object():
    alg = Algebra(3)
    e = end_of(full_projectives(alg))
    assert e.dim == 6
    assert len(e.idempotents) == 3
    assert is_linear_A(e) == 3
    assert is_hereditary(e)


def test_end_of_semisimple():
    alg = Algebra(3)
    e = end_of(obj(alg, (1, 1, 0), (2, 2, 0), (3, 3, 0)))
    assert e.dim == 3
    assert is_linear_A(e) is None
    assert is_hereditary(e)


def test_end_of_families_linear():
    alg = Algebra(3)
    v2 = obj(alg, (2, 3, 0), (1, 3, 0), (1, 2, 0))
    t1 = obj(alg, (1, 1, 0), (2, 2, 1), (2, 3, 1))
    assert is_linear_A(end_of(v2)) == 3
    assert is_linear_A(end_of(t1)) == 3


def test_end_of_module_multiset():
    alg = Algebra(3)
    e = end_of_module(alg, {Interval(i, 3): 1 for i in (1, 2, 3)})
    assert is_linear_A(e) == 3


def test_opposite_involution_and_linearity():
    alg = Algebra(3)
    e = end_of(full_projectives(alg))
    op = opposite(e)
    assert opposite(op).table == e.table
    assert is_linear_A(op) == 3
    assert is_hereditary(op)
    semi = end_of(obj(alg, (1, 1, 0), (2, 2, 0), (3, 3, 0)))
    assert opposite(semi).table == semi.table


def test_non_basic_rejected_by_structure_queries():
    alg = Algebra(2)
    dup = end_of(obj(alg, (1, 2, 0), (1, 2, 0)))
    assert not dup.is_basic()
    with pytest.raises(InputError):
        is_hereditary(dup)
    with pytest.raises(InputError):
        is_linear_A(dup)


def test_non_hereditary_example():
    # End of X(3,3) + X(1,3) + X(1,1) is a linear quiver with a zero
    # relation on the length-two path, which has global dimension two.
    alg = Algebra(3)
    e = end_of(obj(alg, (3, 3, 0), (1, 3, 0), (1, 1, 0)))
    assert e.dim == 5
    assert is_linear_A(e) is None
    assert not is_hereditary(e)


def test_hereditary_matches_linear_chain():
    # every linear-chain algebra must be hereditary
    alg = Algebra(4)
    for x in [
        full_projectives(alg),
        obj(alg, (1, 1, 0), (2, 2, 1), (2, 3, 1), (2, 4, 1)),
    ]:
        e = end_of(x)
        if is_linear_A(e) is not None:
            assert is_hereditary(e)


def test_corner_decomposition_groups():
    alg = Algebra(3)
    t1 = obj(alg, (1, 1, 0), (2, 2, 1), (2, 3, 1))
    groups = corner_decomposition(t1)
    assert [(d, v) for d, v, _ in groups] == [(0, [1]), (1, [2, 3])]
    assert is_linear_A(groups[0][2]) == 1
    assert is_linear_A(groups[1][2]) == 2
    v2 = obj(alg, (2, 3, 0), (1, 3, 0), (1, 2, 0))
    groups = corner_decomposition(v2)
    assert [(d, v) for d, v, _ in groups] == [(0, [1, 2, 3])]
    assert is_linear_A(groups[0][2]) == 3


def test_corner_decomposition_violation():
    alg = Algebra(3)
    bad = obj(alg, (1, 1, 0), (3, 3, 5))
    with pytest.raises(PreconditionError):
        corner_decomposition(bad)  # vertex 2 unsupported
    double = obj(alg, (1, 2, 0), (2, 3, 1))
    with pytest.raises(PreconditionError):
        corner_decomposition(double)  # vertex 2 in two shifts


def test_regular_module_and_generators():
    alg = Algebra(3)
    e = end_of(full_projectives(alg))
    reg = regular_module(e)
    assert reg.dim == e.dim
    gens = module_generators(e, reg.dim, lambda a: reg.act(a).columns())
    assert sorted(l for l, _ in gens) == list(e.idempotents)


def test_table_is_associative_and_unit_checked():
    alg = Algebra(4)
    x = obj(alg, (1, 4, 0), (2, 2, 0), (2, 3, 1), (1, 1, 1))
    e = end_of(x)
    e.validate()  # associativity and unit action
    assert e.dim == len(e.basis)


# The multiplication table of end_of and the action matrices of hom_module
# apply the composition rule of quiver.space_dim on their own; derived.compose
# applies it to morphisms, and is itself checked against the chain-homotopy
# oracle (acceptance criterion 7).


def small_objects():
    """Every object of at most 3 summands, n <= 3, shifts in {0, 1}, with
    the atoms it is drawn from."""
    for n in (1, 2, 3):
        alg = Algebra(n)
        atoms = [(iv, s) for s in (0, 1) for iv in alg.intervals()]
        for size in (1, 2, 3):
            for combo in combinations(atoms, size):
                yield atoms, DerivedObject(alg, combo)


def basis_morphism(x, label):
    """The endomorphism of x that an end_of basis label names."""
    src, tgt = (label[1], label[1]) if label[0] == "e" else label[1:3]
    return DerivedMorphism(x, x, {(src, tgt): 1})


def test_end_of_table_matches_compose():
    products = 0
    for _, x in small_objects():
        c = end_of(x)
        mors = [basis_morphism(x, label) for label in c.basis]
        for i, a in enumerate(mors):
            for j, b in enumerate(mors):
                # basis_i * basis_j applies basis_j first
                k = c.mul(i, j)
                expect = {} if k is None else mors[k].entries
                assert compose(b, a).entries == expect, (x, i, j)
                products += 1
    assert products == 4554


def test_hom_module_action_matches_compose():
    for atoms, t in small_objects():
        algebra = end_of(t)
        mors = [basis_morphism(t, label) for label in algebra.basis]
        for atom in atoms:
            y = DerivedObject(t.alg, [atom])
            m, gens = hom_module(y, t, algebra)
            for ai, a in enumerate(mors):
                for gi, (k, l, _) in enumerate(gens):
                    image = compose(DerivedMorphism(y, t, {(k, l): 1}), a)
                    column = m.act(ai).column(gi)
                    assert image.entries == {
                        gens[j][:2]: c for j, c in enumerate(column) if c
                    }, (y, t, ai, gi)

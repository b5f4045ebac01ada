from collections import Counter
from itertools import combinations, combinations_with_replacement

import pytest

from ddcp.quiver import Algebra, InputError, Interval
from ddcp.derived import DerivedMorphism, DerivedObject, graded_hom
from ddcp.approx import hom_module
from ddcp.classify import make_T, make_V
from ddcp.deciders import verify_homology_corners
from ddcp import endalg
from ddcp.endalg import (
    SCAlgebra,
    end_of,
    is_hereditary,
    is_linear_A,
    module_generators,
)
from oracles import (
    compose,
    is_basic_reference,
    is_hereditary_reference,
    module_act,
    projective_basis_reference,
    radical_square_reference,
    regular_module,
    src_reference,
    tgt_reference,
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


def opposite(c):
    """The opposite algebra: same basis, transposed table."""
    table = {(j, i): k for (i, j), k in c.table.items()}
    return SCAlgebra(c.basis, c.idempotents, table)


def test_opposite_involution_and_linearity():
    alg = Algebra(3)
    op = opposite(end_of(full_projectives(alg)))
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


def corner_algebra(alg, verts):
    """End of the sum of the projectives at the given vertices."""
    return end_of(DerivedObject(alg, [(alg.projective(e), 0) for e in verts]))


def test_homology_corners_group_vertices_by_shift():
    """verify_homology_corners reads each vertex's shift off check_ddcp's
    projective reports and checks one corner per shift, in shift order."""
    alg = Algebra(3)
    assert verify_homology_corners(make_T(alg, 1)).reasons == [
        "shift 0 over chain algebra of 1: dcp=True tilting=True",
        "shift 1 over chain algebra of 2: dcp=True tilting=True",
    ]
    assert verify_homology_corners(make_V(alg, 2)).reasons == [
        "shift 0 over chain algebra of 3: dcp=True",
    ]
    # the corners of T_1 are {1} and {2, 3}, that of V_2 is {1, 2, 3}
    for verts in ([1], [2, 3], [1, 2, 3]):
        assert is_linear_A(corner_algebra(alg, verts)) == len(verts)


def test_corner_decomposition_violation():
    """Objects whose vertices are not each in exactly one shift get no
    homology corners: verify_homology_corners reports them not applicable."""
    alg = Algebra(3)
    bad = obj(alg, (1, 1, 0), (3, 3, 5))  # vertex 2 unsupported
    double = obj(alg, (1, 2, 0), (2, 3, 1))  # vertex 2 in two shifts
    for x in (bad, double):
        r = verify_homology_corners(x)
        assert not r.applicable
        assert r.reasons == ["object does not have the derived property"]


def test_regular_module_and_generators():
    alg = Algebra(3)
    e = end_of(full_projectives(alg))
    reg = regular_module(e)
    reg.validate()
    assert reg.dim == e.dim
    # the regular module is the free module of one copy, 0: its basis
    # vector b_i is the sparse unit {(0, i): 1}
    units = [{(0, i): 1} for i in range(reg.dim)]
    gens = module_generators(e, units)
    # the algebra is generated by its idempotents, one per projective
    assert gens == [(l, units[l]) for l in e.idempotents]


def test_table_is_associative_and_unit_checked():
    alg = Algebra(4)
    x = obj(alg, (1, 4, 0), (2, 2, 0), (2, 3, 1), (1, 1, 1))
    e = end_of(x)
    e.validate()  # associativity and unit action
    assert e.dim == len(e.basis)


# The multiplication table of end_of and the images of hom_module both come
# from derived.composites, the lookup of a composite among the generators
# graded_hom lists; the reference compose (tests/oracles.py) applies the
# rule of quiver.space_dim to morphisms on its own, and is itself checked
# against the chain-homotopy oracle (acceptance criterion 7).


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


def repeated_objects():
    """Every object of at most 3 summands drawn with repetition, n <= 3,
    shifts in {0, 1, 2}: repeated summands, and Ext after Ext composites of
    degree 2, which vanish."""
    for n in (1, 2, 3):
        alg = Algebra(n)
        atoms = [(iv, s) for s in (0, 1, 2) for iv in alg.intervals()]
        for size in (1, 2, 3):
            for combo in combinations_with_replacement(atoms, size):
                yield DerivedObject(alg, combo)


def table_products(objects):
    """Check every product of end_of(x)'s table against compose, and that
    the identities come first, one per summand; return the count."""
    products = 0
    for x in objects:
        c = end_of(x)
        assert [c.basis[e] for e in c.idempotents] == [
            ("e", i) for i in range(len(x))
        ]
        mors = [basis_morphism(x, label) for label in c.basis]
        for i, a in enumerate(mors):
            for j, b in enumerate(mors):
                # basis_i * basis_j applies basis_j first
                k = c.mul(i, j)
                expect = {} if k is None else mors[k].entries
                assert compose(b, a).entries == expect, (x, i, j)
                products += 1
    return products


def test_end_of_table_matches_compose():
    assert table_products(x for _, x in small_objects()) == 4554
    assert table_products(repeated_objects()) == 28608


def test_hom_module_action_matches_compose():
    for atoms, t in small_objects():
        algebra = end_of(t)
        mors = [basis_morphism(t, label) for label in algebra.basis]
        for atom in atoms:
            y = DerivedObject(t.alg, [atom])
            m, gens = hom_module(y, t)
            for ai, a in enumerate(mors):
                for gi, (k, l, _) in enumerate(gens):
                    image = compose(DerivedMorphism(y, t, {(k, l): 1}), a)
                    unit = [int(j == gi) for j in range(m.dim)]
                    column = module_act(m, ai, unit)
                    assert image.entries == {
                        gens[j][:2]: c for j, c in enumerate(column) if c
                    }, (y, t, ai, gi)


def test_structure_queries_match_mul_scanning_references():
    """The structure queries that read the table once agree with the
    references that scan every product through mul: on the End algebras of
    small_objects and repeated_objects, on their opposites, and on the
    non-basic ones among both, where is_hereditary raises.  Each query is
    asked twice, so the second call reads the answer kept by the first."""
    algebras = [end_of(x) for _, x in small_objects()]
    algebras += [end_of(x) for x in repeated_objects()]
    outcomes = Counter()
    for c in algebras + [opposite(c) for c in algebras]:
        assert c.ends == [
            (src_reference(c, i), tgt_reference(c, i)) for i in range(c.dim)
        ]
        for e in c.idempotents:
            assert c.projective_basis(e) == projective_basis_reference(c, e)
        assert c.radical_square() == radical_square_reference(c)
        basic = c.is_basic()
        assert basic == is_basic_reference(c) == c.is_basic()
        if basic:
            hereditary = is_hereditary(c)
            assert hereditary == is_hereditary_reference(c) == is_hereditary(c)
            assert is_linear_A(c) == is_linear_A(c)
        else:
            hereditary = None
            # a call that raises keeps nothing, so the second raises too
            for query in (is_hereditary, is_hereditary, is_linear_A,
                          is_linear_A, is_hereditary_reference):
                with pytest.raises(InputError):
                    query(c)
        outcomes[basic, hereditary] += 1
    assert outcomes == {
        (True, True): 2728,
        (True, False): 202,
        (False, None): 888,
    }


def hom_pattern(x):
    """The key End(x) is shared by: Hom(x, x)'s generators, identities
    first."""
    return tuple(sorted(graded_hom(x, x), key=lambda g: g[0] != g[1]))


def test_end_is_shared_exactly_by_objects_with_one_hom_pattern():
    """end_of(x) is end_of(y) exactly when x and y have the same Hom
    pattern, and the shared algebra has the basis, idempotents and table
    that an uncached build for each of its objects gives."""
    groups = {}
    for x in [x for _, x in small_objects()] + list(repeated_objects()):
        groups.setdefault(hom_pattern(x), []).append(x)
    assert len(groups) < sum(map(len, groups.values()))
    shared = []
    for objects in groups.values():
        algebras = [end_of(x) for x in objects]
        assert all(c is algebras[0] for c in algebras), objects
        shared.append(algebras[0])
    # held at once, distinct patterns' algebras are distinct instances
    assert len({id(c) for c in shared}) == len(groups)
    for c, objects in zip(shared, groups.values()):
        for x in objects:
            end_of.cache_clear()
            endalg._end_of_pattern.cache_clear()
            fresh = end_of(x)
            assert fresh is not c
            assert (fresh.basis, fresh.idempotents, fresh.table) == (
                c.basis, c.idempotents, c.table
            ), x

from collections import Counter
from itertools import combinations_with_replacement

import pytest

from ddcp.quiver import Algebra, InputError
from ddcp.derived import DerivedMorphism, DerivedObject, graded_hom
from ddcp.approx import hom_module
from ddcp.classify import make_T, make_V
from ddcp.deciders import verify_homology_corners
from ddcp.endalg import (
    SCAlgebra,
    end_of,
    gabriel_quiver,
    is_hereditary,
    is_linear_A,
    module_generators,
)
from oracles import (
    arrows_reference,
    basic_slices,
    compose,
    is_basic_reference,
    is_hereditary_reference,
    is_linear_A_reference,
    module_act,
    obj,
    projective_basis_reference,
    regular_module,
    repeated_objects,
    src_reference,
    tgt_reference,
    validate_algebra,
    validate_module,
    window_atoms,
    window_objects,
)


def test_end_of_regular_object():
    alg = Algebra(3)
    e = end_of(make_V(alg, alg.n))
    assert e.dim == 6
    assert len(e.idempotents) == 3
    assert is_linear_A(e) == 3
    assert is_hereditary(make_V(alg, alg.n))


def test_end_of_semisimple():
    alg = Algebra(3)
    x = obj(alg, (1, 1, 0), (2, 2, 0), (3, 3, 0))
    e = end_of(x)
    assert e.dim == 3
    assert is_linear_A(e) is None
    assert is_hereditary(x)


def opposite(c):
    """The opposite algebra: same basis, transposed table."""
    table = {(j, i): k for (i, j), k in c.table.items()}
    return SCAlgebra(c.basis, c.idempotents, table)


def test_opposite_involution_and_linearity():
    alg = Algebra(3)
    op = opposite(end_of(make_V(alg, alg.n)))
    assert is_linear_A(op) == 3
    assert is_hereditary_reference(op)
    semi = end_of(obj(alg, (1, 1, 0), (2, 2, 0), (3, 3, 0)))
    assert opposite(semi).table == semi.table


def test_non_basic_rejected_by_structure_queries():
    alg = Algebra(2)
    x = obj(alg, (1, 2, 0), (1, 2, 0))
    dup = end_of(x)
    assert not dup.is_basic()
    with pytest.raises(InputError):
        is_hereditary(x)
    with pytest.raises(InputError):
        is_linear_A(dup)


def test_end_is_basic_exactly_when_the_object_is():
    """min_left_approx_sequence asks End(t), not t, whether t is basic:
    over A_n two distinct summands of a split object never have mutually
    inverse degree-0 maps.  Checked on every object of at most 3 summands
    drawn with repetition, n <= 4, shifts in {0, 1, 2}."""
    objects = [
        DerivedObject(alg, combo)
        for alg in map(Algebra, range(1, 5))
        for size in (1, 2, 3)
        for combo in combinations_with_replacement(
            window_atoms(alg, (0, 1, 2)), size)
    ]
    assert len(objects) == 7022
    assert all(end_of(x).is_basic() == x.is_basic() for x in objects)
    assert sum(not x.is_basic() for x in objects) > 0


def test_gabriel_quiver_matches_the_end_algebra():
    """gabriel_quiver(x), read off x's Hom relation, has the arrows of
    end_of(x) by the rad / rad^2 reference, in basis order, and
    is_hereditary(x) is is_hereditary_reference of end_of(x): on every
    basic object of at most n + 1 summands at n <= 4 over shifts {0, 1}, at
    n <= 3 over shifts {0, 1, 2}, where two summands can be two shifts
    apart, and on every basic module at n <= 4.  On a non-basic object both
    raise InputError, as is_hereditary_reference(end_of(x)) does, and so on
    anything but an object."""
    objects = Counter()
    outcomes = Counter()

    def check(x, kind):
        c = end_of(x)
        sizes, arrows = gabriel_quiver(x)
        assert sizes == [len(c.projectives[e]) for e in c.idempotents], x
        assert arrows == [c.ends[a] for a in arrows_reference(c)], x
        hereditary = is_hereditary(x)
        assert hereditary == is_hereditary_reference(c), x
        objects[kind] += 1
        outcomes[hereditary] += 1

    for window, top in ((2, 4), (3, 3)):
        for n in range(1, top + 1):
            for x in window_objects(Algebra(n), range(1, n + 2), window):
                check(x, window)
    for alg in map(Algebra, range(1, 5)):
        for members in basic_slices(alg):
            check(DerivedObject(alg, [(iv, 0) for iv in members]), "modules")
    assert objects == {2: 22536, 3: 4182, "modules": 1094}
    assert outcomes[True] and outcomes[False]
    for x in (obj(Algebra(2), (1, 2, 0), (1, 2, 0)),
              obj(Algebra(3), (1, 1, 0), (2, 3, 1), (1, 1, 0))):
        for query in (gabriel_quiver, is_hereditary,
                      lambda x: is_hereditary_reference(end_of(x))):
            with pytest.raises(InputError, match="basic"):
                query(x)
    for query in (gabriel_quiver, is_hereditary):
        with pytest.raises(InputError, match="DerivedObject"):
            query(end_of(obj(Algebra(2), (1, 2, 0))))


def path_algebra(m, arrows, zero=(), longest=None):
    """The path algebra of the quiver on vertices range(m) with arrows
    [(source, target)], modulo the paths that contain one of zero (tuples
    of arrow indices in walking order) or are longer than longest.  Its
    basis is the remaining paths (start, arrows), the trivial paths, its
    idempotents, first; the table is unvalidated."""
    paths = [(v, ()) for v in range(m)]

    def end(p):
        return arrows[p[1][-1]][1] if p[1] else p[0]

    for start, walk in paths:  # grows as it is read
        if len(walk) == longest:
            continue
        for k, (s, _) in enumerate(arrows):
            step = walk + (k,)
            # the prefix walk was kept, so only a relation ending here kills
            if s == end((start, walk)) and not any(
                step[-len(z):] == z for z in zero
            ):
                paths.append((start, step))
    index = {p: i for i, p in enumerate(paths)}
    table = {}
    for i, p in enumerate(paths):
        for j, q in enumerate(paths):
            # p * q walks q, then p
            k = index.get((q[0], q[1] + p[1])) if end(q) == p[0] else None
            if k is not None:
                table[i, j] = k
    return SCAlgebra(paths, range(m), table)


def test_chain_rule_matches_the_quiver_walk_on_every_outcome():
    """is_linear_A agrees with is_linear_A_reference on algebras that,
    between them, reach each of the walk's seven returns, in its order."""
    chain = path_algebra(3, [(0, 1), (1, 2)])
    algebras = [
        # dimension is not m (m + 1) / 2: three vertices, no arrows
        path_algebra(3, []),
        # no m - 1 arrows: the zero object's End, m = 0, and an extra
        # arrow 0 -> 2 beside a zero path 0 -> 1 -> 2
        end_of(DerivedObject(Algebra(2), [])),
        path_algebra(3, [(0, 1), (1, 2), (0, 2)], zero=[(0, 1)]),
        # a loop with square zero
        path_algebra(2, [(0, 0)], zero=[(0, 0)]),
        # two starts: an unvalidated table in which the arrow has a source
        # but no target; a valid table has exactly one start here
        SCAlgebra(range(3), [0, 1], {(0, 0): 0, (1, 1): 1, (2, 0): 2}),
        # the walk 0 -> 1 -> 2 meets a zero path; the cycle 3 -> 4 -> 3,
        # cut at length 4, makes up the dimension
        path_algebra(5, [(0, 1), (1, 2), (3, 4), (4, 3)], zero=[(0, 1)],
                     longest=4),
        # the walk from 2 stops at once: 0 -> 1 -> 0 is a cycle
        path_algebra(3, [(0, 1), (1, 0)], zero=[(1, 0)]),
        chain,
        opposite(chain),
        # the chain 2 -> 1 -> 0, against the idempotents' index order
        path_algebra(3, [(2, 1), (1, 0)]),
    ]
    for c in algebras[:4] + algebras[5:]:
        validate_algebra(c)
    assert [is_linear_A(c) for c in algebras] == [
        is_linear_A_reference(c) for c in algebras
    ] == [None] * 7 + [3, 3, 3]


def test_non_hereditary_example():
    # End of X(3,3) + X(1,3) + X(1,1) is a linear quiver with a zero
    # relation on the length-two path, which has global dimension two.
    alg = Algebra(3)
    x = obj(alg, (3, 3, 0), (1, 3, 0), (1, 1, 0))
    e = end_of(x)
    assert e.dim == 5
    assert is_linear_A(e) is None
    assert not is_hereditary(x)


def test_hereditary_matches_linear_chain():
    # every linear-chain algebra must be hereditary
    alg = Algebra(4)
    for x in [
        make_V(alg, alg.n),
        obj(alg, (1, 1, 0), (2, 2, 1), (2, 3, 1), (2, 4, 1)),
    ]:
        if is_linear_A(end_of(x)) is not None:
            assert is_hereditary(x)


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
    e = end_of(make_V(alg, alg.n))
    reg = regular_module(e)
    validate_module(reg)
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
    validate_algebra(e)  # associativity and unit action
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
        atoms = window_atoms(alg, (0, 1))
        for x in window_objects(alg, (1, 2, 3)):
            yield atoms, x


def basis_morphism(x, label):
    """The endomorphism of x that an end_of basis label names."""
    src, tgt = (label[1], label[1]) if label[0] == "e" else label[1:3]
    return DerivedMorphism(x, x, {(src, tgt): 1})


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
    references that scan every product through mul, and is_linear_A's
    chain rule with the walk along the Gabriel quiver: on the End algebras of
    small_objects and repeated_objects, on their opposites, and on the
    non-basic ones among both, where is_linear_A raises.  Each query is
    asked twice, so the second call reads the answer kept by the first."""
    algebras = [end_of(x) for _, x in small_objects()]
    algebras += [end_of(x) for x in repeated_objects()]
    outcomes = Counter()
    for c in algebras + [opposite(c) for c in algebras]:
        assert c.ends == [
            (src_reference(c, i), tgt_reference(c, i)) for i in range(c.dim)
        ]
        for e in c.idempotents:
            assert c.projectives[e] == projective_basis_reference(c, e)
        basic = c.is_basic()
        assert basic == is_basic_reference(c) == c.is_basic()
        if basic:
            hereditary = is_hereditary_reference(c)
            assert is_linear_A(c) == is_linear_A_reference(c) == is_linear_A(c)
        else:
            hereditary = None
            # a call that raises keeps nothing, so the second raises too
            for query in (is_linear_A, is_linear_A, is_hereditary_reference,
                          is_linear_A_reference):
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


def test_end_is_shared_exactly_by_objects_with_one_hom_pattern(fresh_caches):
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
            fresh_caches()
            fresh = end_of(x)
            assert fresh is not c
            assert (fresh.basis, fresh.idempotents, fresh.table) == (
                c.basis, c.idempotents, c.table
            ), x

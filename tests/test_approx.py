from fractions import Fraction
from itertools import combinations

import pytest

from ddcp.quiver import Algebra, InputError, Interval
from ddcp.derived import DerivedObject
from ddcp.endalg import SCModule, module_generators
from ddcp.exactmat import Mat, nullspace, rref, solve
from ddcp.approx import hom_module, min_left_approx_sequence
from ddcp import approx, endalg, reps
from oracles import (
    approximation_matrix,
    dense_cover_reference,
    is_exact_at_middle,
    is_exact_sequence_with_zero,
    is_injective,
    is_left_approximation,
    minimality_check,
    radical_indices,
    regular_module,
    to_rep_morphism,
    validate_module,
)


def obj(alg, *pairs):
    return DerivedObject(alg, [(Interval(a, b), s) for a, b, s in pairs])


def regular(alg):
    return obj(alg, *[(i, alg.n, 0) for i in range(1, alg.n + 1)])


def make_V_object(alg, m):
    pairs = [(k, alg.n, 0) for k in range(1, m + 1)]
    pairs += [(1, k, 0) for k in range(m, alg.n)]
    return obj(alg, *pairs)


def test_hom_module_regular():
    alg = Algebra(3)
    a = regular(alg)
    m, gens = hom_module(a, a)
    assert m.dim == 6
    assert len(gens) == 6


def test_hom_module_projective_to_family():
    alg = Algebra(3)
    p1 = obj(alg, (1, 3, 0))
    v2 = make_V_object(alg, 2)
    m, _ = hom_module(p1, v2)
    # one endomorphism-like map to P(1) and one onto I(2)
    assert m.dim == 2


def test_hom_module_zero():
    alg = Algebra(3)
    y = obj(alg, (1, 1, 0))
    t = obj(alg, (3, 3, 5))
    m, _ = hom_module(y, t)
    assert m.dim == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_V_family_approximation_of_regular(n):
    alg = Algebra(n)
    for m in range(1, n + 1):
        t = make_V_object(alg, m)
        seq = min_left_approx_sequence(regular(alg), t)
        expected_t0 = {Interval(m, n): n - m + 1}
        expected_t0.update({Interval(k, n): 1 for k in range(1, m)})
        expected_t1 = {Interval(1, k): 1 for k in range(m, n)}
        assert seq.t0.slice(0) == expected_t0
        assert seq.t1.slice(0) == expected_t1
        assert is_injective(seq)
        assert is_exact_at_middle(seq)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_two_shift_family_module_sequences(n):
    alg = Algebra(n)
    for i in range(1, n):
        # injective-resolution shape: projectives at the tail vertices
        # against the shifted slice
        y = obj(alg, *[(k, n, 0) for k in range(i + 1, n + 1)])
        t = obj(alg, *[(i + 1, j, 0) for j in range(i + 1, n + 1)])
        seq = min_left_approx_sequence(y, t)
        assert seq.t0.slice(0) == {Interval(i + 1, n): n - i}
        assert seq.t1.slice(0) == {
            Interval(i + 1, j): 1 for j in range(i + 1, n)
        }
        assert is_injective(seq)
        assert is_exact_sequence_with_zero(seq)

        # quotient-module shape: kernel is a power of an interval
        y2 = obj(alg, *[(k, n, 0) for k in range(1, i + 1)])
        t2 = obj(alg, *[(k, i, 0) for k in range(1, i + 1)])
        seq2 = min_left_approx_sequence(y2, t2)
        assert seq2.t0.slice(0) == {Interval(k, i): 1 for k in range(1, i + 1)}
        assert seq2.t1.is_zero()
        f2 = to_rep_morphism(seq2.f)
        ker, _ = reps.kernel(f2)
        assert reps.interval_decompose(ker) == {Interval(i + 1, n): i}
        cok, _ = reps.cokernel(f2)
        assert cok.total_dim() == 0


def test_target_in_add_t():
    alg = Algebra(3)
    p1 = obj(alg, (1, 3, 0))
    seq = min_left_approx_sequence(p1, regular(alg))
    assert seq.t0 == p1
    assert seq.t1.is_zero()
    assert list(seq.f.entries.values()) == [1]


def test_sequences_are_minimal_approximations():
    alg = Algebra(3)
    v2 = make_V_object(alg, 2)
    seq = min_left_approx_sequence(regular(alg), v2)
    assert is_left_approximation(seq.f, v2)
    assert minimality_check(seq.f, v2)


def test_padded_approximation_fails_minimality():
    alg = Algebra(3)
    v2 = make_V_object(alg, 2)
    seq = min_left_approx_sequence(regular(alg), v2)
    from ddcp.derived import DerivedMorphism

    padded_tgt = DerivedObject(
        alg, list(seq.t0.summands) + [(Interval(1, 2), 0)]
    )
    taken = [False] * len(padded_tgt.summands)
    remap = {}
    for old, p in enumerate(seq.t0.summands):
        for ni, q in enumerate(padded_tgt.summands):
            if not taken[ni] and q == p:
                taken[ni] = True
                remap[old] = ni
                break
    padded = DerivedMorphism(
        seq.f.src,
        padded_tgt,
        {(k, remap[l]): c for (k, l), c in seq.f.entries.items()},
    )
    assert is_left_approximation(padded, v2)
    assert not minimality_check(padded, v2)


def test_non_basic_target_rejected():
    alg = Algebra(2)
    dup = obj(alg, (1, 2, 0), (1, 2, 0))
    with pytest.raises(InputError, match="must be basic"):
        min_left_approx_sequence(regular(alg), dup)


@pytest.mark.parametrize("ny,nt", [(5, 3), (3, 5)])
def test_objects_over_different_algebras_rejected(ny, nt):
    """graded_hom and DerivedMorphism, where two objects meet, reject a pair
    over different algebras in either order, and so does a sequence built
    on graded_hom."""
    from ddcp.derived import DerivedMorphism, graded_hom

    y, t = regular(Algebra(ny)), regular(Algebra(nt))
    with pytest.raises(InputError, match="objects over"):
        graded_hom(y, t)
    with pytest.raises(InputError, match="objects over"):
        DerivedMorphism(y, t, {(0, 0): 1})
    with pytest.raises(InputError, match="objects over"):
        min_left_approx_sequence(y, t)


def test_determinism_of_sequences():
    alg = Algebra(4)
    y = regular(alg)
    t = make_V_object(alg, 2)
    s1 = min_left_approx_sequence(y, t)
    s2 = min_left_approx_sequence(y, t)
    assert s1.t0 == s2.t0 and s1.t1 == s2.t1
    assert s1.f.entries == s2.f.entries and s1.g.entries == s2.g.entries


def test_derived_and_module_agree_on_concentrated_objects():
    alg = Algebra(3)
    y0 = obj(alg, (2, 3, 0))
    t0 = obj(alg, (1, 1, 0), (1, 2, 0))
    seq0 = min_left_approx_sequence(y0, t0)
    seq5 = min_left_approx_sequence(y0.shifted(5), t0.shifted(5))
    assert seq5.t0 == seq0.t0.shifted(5)
    assert seq5.t1 == seq0.t1.shifted(5)


def test_hom_functor_exactness_of_sequences():
    # applying Hom(-, t) to the returned sequence must be exact with the
    # induced map of f surjective
    from ddcp.exactmat import rank
    from ddcp.derived import graded_hom

    alg = Algebra(3)
    t = obj(alg, (1, 1, 0), (2, 2, 1), (2, 3, 1))
    for e in (1, 2, 3):
        y = obj(alg, (e, 3, 0))
        seq = min_left_approx_sequence(y, t)
        mf = approximation_matrix(seq.f, t)
        assert rank(mf) == len(graded_hom(y, t))


def dense_actions(module):
    """One dense action matrix per algebra basis element, read off the
    module's table."""
    mats = [Mat(module.dim, module.dim) for _ in range(module.algebra.dim)]
    for (a, i), j in module.table.items():
        mats[a][j, i] = 1
    return mats


def dense_generators(algebra, dim, actions):
    """Lifts of a basis of N / rad N for the module N of the given dimension
    with dense action matrices: the columns of the idempotents' actions that
    the radical's columns and the columns before them do not span, read off
    the pivots of the row-reduced column matrix.  The candidates come
    idempotent by idempotent and the pivots ascend, so the lifts are
    grouped by ascending idempotent."""
    rad = [v for r in radical_indices(algebra) for v in actions[r].columns()]
    cands = [(e, v) for e in algebra.idempotents for v in actions[e].columns()]
    _, pivots = rref(Mat.from_cols(rad + [v for _, v in cands], nrows=dim))
    return [cands[p - len(rad)] for p in pivots if p >= len(rad)]


def kernel_module_reference(y, t):
    """T1 and the entries of g by the kernel module: the kernel K of the
    cover Q0 -> Hom(y, t) is given dense action matrices in the coordinates
    of a kernel basis, one solve per algebra basis element, and its top is
    mapped back to Q0 by that basis.  end_of(t)'s idempotent l is summand l
    of the sorted t.summands, and dense_generators groups its lifts by
    ascending idempotent, so the tops list T0's and T1's summands in
    sorted order: position pos of a top is summand pos."""
    m, _ = hom_module(y, t)
    algebra = m.algebra
    m_actions = dense_actions(m)
    top0 = dense_generators(algebra, m.dim, m_actions)
    q0_basis = [
        (pos, bi)
        for pos, (l, _) in enumerate(top0)
        for bi in algebra.projectives[l]
    ]
    cover = Mat.from_cols(
        [
            (m_actions[bi] @ Mat.from_cols([top0[pos][1]], nrows=m.dim)).column(0)
            for pos, bi in q0_basis
        ],
        nrows=m.dim,
    )
    kbasis = nullspace(cover)
    q0_index = {pb: i for i, pb in enumerate(q0_basis)}
    k_actions = []
    for ai in range(algebra.dim):
        act = Mat(len(q0_basis), len(q0_basis))
        for (pos, bi), col in q0_index.items():
            p = algebra.mul(ai, bi)
            if p is not None:
                act[q0_index[(pos, p)], col] = 1
        restricted = solve(kbasis, act @ kbasis)
        assert restricted is not None, "kernel not stable"
        k_actions.append(restricted)
    top1 = dense_generators(algebra, kbasis.ncols, k_actions)
    t1 = DerivedObject(y.alg, [t.summands[l] for l, _ in top1])
    g_entries = {}
    for pos1, (_, vec) in enumerate(top1):
        kappa = kbasis @ Mat.from_cols([vec], nrows=kbasis.ncols)
        for i, (pos0, _) in enumerate(q0_basis):
            if kappa[i, 0]:
                key = (pos0, pos1)
                g_entries[key] = g_entries.get(key, Fraction(0)) + kappa[i, 0]
    return t1, g_entries


def approximation_pairs():
    """Every (y, t) with y the regular object or a shifted P(e), and t of at
    most three summands over shifts {0, 1}, n <= 3."""
    for n in (1, 2, 3):
        alg = Algebra(n)
        ys = [regular(alg)] + [
            obj(alg, (e, n, s)) for e in range(1, n + 1) for s in (0, 1)
        ]
        atoms = [(iv, s) for s in (0, 1) for iv in alg.intervals()]
        targets = [
            DerivedObject(alg, combo)
            for size in range(4)
            for combo in combinations(atoms, size)
        ]
        for y in ys:
            for t in targets:
                yield y, t


def test_kernel_top_matches_kernel_module_reference():
    count = 0
    for y, t in approximation_pairs():
        seq = min_left_approx_sequence(y, t)
        t1, g_entries = kernel_module_reference(y, t)
        assert seq.t1 == t1
        assert seq.g.entries == g_entries
        count += 1
    assert count == 3 * 4 + 5 * 42 + 7 * 299


def test_sparse_cover_matches_dense_reference():
    """The cover's kernel and kernel top, read as sparse vectors acted on
    through End(t)'s table, give the T1 and g of the dense construction:
    Q0 as an SCModule with its own action table, which validates, dense
    kernel vectors and dense actions.  Its table is the regular action on
    each block E e_l, one per summand of T0 in idempotent order."""
    count = 0
    for y, t in approximation_pairs():
        seq = min_left_approx_sequence(y, t)
        q0, t1, g_entries = dense_cover_reference(y, t)
        validate_module(q0)
        assert seq.t1 == t1
        assert seq.g.entries == g_entries
        algebra = q0.algebra
        reg = regular_module(algebra)
        blocks = [
            algebra.projectives[l]
            for l in sorted(t.summands.index(p) for p in seq.t0.summands)
        ]
        expect = {}
        offset = 0
        for pb in blocks:
            for (a, bi), ab in reg.table.items():
                if bi in pb:
                    expect[a, offset + pb.index(bi)] = offset + pb.index(ab)
            offset += len(pb)
        assert (q0.dim, q0.table) == (offset, expect)
        count += 1
    assert count == 3 * 4 + 5 * 42 + 7 * 299


def test_sequences_are_unit_and_edge_combinatorics(monkeypatch):
    """The shape the counting relies on: every f entry is 1, every g entry
    is +-1, and every sparse vector module_generators is handed or builds
    by free_act is zero, +-b_j or +-(b_j - b_k).  Every vector it is
    handed lies in one idempotent component, as module_generators needs:
    the basis elements of its coordinates share a target."""
    seen = []

    def recording_generators(algebra, vectors):
        for v in vectors:
            assert len({algebra.ends[beta][1] for _, beta in v}) == 1
        seen.extend(vectors)
        return module_generators(algebra, vectors)

    def recording_act(algebra, a, v):
        w = free_act(algebra, a, v)
        seen.append(w)
        return w

    free_act = endalg.free_act
    monkeypatch.setattr(approx, "module_generators", recording_generators)
    monkeypatch.setattr(endalg, "free_act", recording_act)
    for y, t in approximation_pairs():
        seq = min_left_approx_sequence(y, t)
        assert set(seq.f.entries.values()) <= {1}
        assert set(seq.g.entries.values()) <= {1, -1}
        # the forest rule's rows: one f entry per T0 summand, and g entries
        # on a T1 summand a single +-1 or one +1 and one -1
        f_rows = [[c for (_, l), c in seq.f.entries.items() if l == row]
                  for row in range(len(seq.t0))]
        g_rows = [sorted(c for (_, l), c in seq.g.entries.items() if l == row)
                  for row in range(len(seq.t1))]
        assert all(r == [1] for r in f_rows)
        assert all(r in ([1], [-1], [-1, 1]) for r in g_rows)
    # sparse vectors keep no zero coordinate
    assert all(all(v.values()) for v in seen)
    shapes = {tuple(sorted(v.values())) for v in seen}
    assert shapes <= {(), (1,), (-1,), (-1, 1)}
    assert (-1, 1) in shapes


def test_one_module_per_sequence(monkeypatch):
    """The only module a sequence builds is Hom(y, t): the cover Q0 and its
    kernel are read off End(t)'s table as sparse vectors, and no module is
    built in Q0 or kernel coordinates."""
    built = []

    class Counting(SCModule):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(approx, "SCModule", Counting)
    alg = Algebra(3)
    y, t = regular(alg), make_V_object(alg, 2)
    seq = min_left_approx_sequence(y, t)
    assert not seq.t1.is_zero()
    hom, = built
    assert hom.table == hom_module(y, t)[0].table

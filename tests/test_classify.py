from collections import Counter
from itertools import combinations

import pytest

from ddcp import classify, endalg
from ddcp.quiver import Algebra, InputError, Interval
from ddcp.classify import (
    _clique_candidates,
    _comparable,
    enumerate_and_classify,
    make_T,
    make_V,
    zero_path_audit,
)
from ddcp.deciders import check_ddcp, check_tilting_complex
from ddcp.derived import DerivedObject, graded_hom
from ddcp.endalg import end_of, is_linear_A
from oracles import zero_path_audit_reference


def test_degree_window_below_one_rejected():
    for window in (0, -1):
        with pytest.raises(InputError):
            enumerate_and_classify(Algebra(3), degree_window=window)
    # a window or bound that is not an int is rejected, not coerced
    for window in (True, 2.0, "2", None):
        with pytest.raises(InputError, match="degree window"):
            enumerate_and_classify(Algebra(3), degree_window=window)
    for bound in (5.5, 5.0, True, "5", None):
        with pytest.raises(InputError, match="bound"):
            enumerate_and_classify(Algebra(3), bound=bound)


def test_make_V_contents():
    alg = Algebra(3)
    assert make_V(alg, 1).slice(0) == {Interval(1, k): 1 for k in (1, 2, 3)}
    assert make_V(alg, 3).slice(0) == {Interval(k, 3): 1 for k in (1, 2, 3)}
    v2 = make_V(alg, 2)
    assert v2.slice(0) == {
        Interval(1, 3): 1,
        Interval(2, 3): 1,
        Interval(1, 2): 1,
    }
    assert len(v2) == 3 and v2.is_basic()
    with pytest.raises(InputError):
        make_V(alg, 0)
    with pytest.raises(InputError):
        make_V(alg, 4)
    # an index that is not an int is rejected, not coerced
    for m in (True, 2.0, "2", None):
        with pytest.raises(InputError, match="family index"):
            make_V(alg, m)


def test_make_T_contents():
    alg = Algebra(3)
    t1 = make_T(alg, 1)
    assert t1.slice(0) == {Interval(1, 1): 1}
    assert t1.slice(1) == {Interval(2, 2): 1, Interval(2, 3): 1}
    t2 = make_T(alg, 2)
    assert t2.slice(0) == {Interval(1, 2): 1, Interval(2, 2): 1}
    assert t2.slice(1) == {Interval(3, 3): 1}
    with pytest.raises(InputError):
        make_T(alg, 0)
    with pytest.raises(InputError):
        make_T(alg, 3)
    for i in (True, 1.0, "1", None):
        with pytest.raises(InputError, match="family index"):
            make_T(alg, i)
    for family in (make_V, make_T):
        with pytest.raises(InputError, match="not an Algebra"):
            family(3, 1)


def family_labels(n):
    return sorted(
        ["V_%d" % m for m in range(1, n + 1)]
        + ["T_%d" % i for i in range(1, n)]
    )


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 3), (3, 5)])
def test_classification_small(n, expected):
    alg = Algebra(n)
    result = enumerate_and_classify(alg)
    assert result.lambda_count == expected
    labels = sorted(result.matched.values())
    assert labels == family_labels(n)
    assert "UNEXPECTED" not in labels


def test_classification_normalization():
    alg = Algebra(3)
    result = enumerate_and_classify(alg)
    seen = set()
    for x in result.survivors:
        assert min(s for _, s in x.summands) == 0
        key = x.normalized()
        assert key not in seen
        seen.add(key)


def test_classification_bound_refusal():
    alg = Algebra(6)
    with pytest.raises(InputError) as exc:
        enumerate_and_classify(alg)
    assert str(exc.value) == "n=6 exceeds the configured bound 5"


def test_window_three_matches_window_two():
    alg = Algebra(3)
    r2 = enumerate_and_classify(alg, degree_window=2)
    r3 = enumerate_and_classify(alg, degree_window=3)
    assert set(r2.survivors) == set(r3.survivors)


@pytest.mark.parametrize("n", [5, 6])
def test_window_three_classification(n):
    # shifts 0, 1, 2 allowed: still lambda = 2n - 1, exactly the V_m and
    # T_i families, none using three shifts
    result = enumerate_and_classify(Algebra(n), degree_window=3, bound=n)
    assert result.lambda_count == 2 * n - 1
    assert sorted(result.matched.values()) == family_labels(n)
    assert all(len(x.shifts()) <= 2 for x in result.survivors)


def test_wider_windows_add_no_normalised_clique():
    """Window 2 is complete: the shift-normalised cliques (minimum shift 0,
    as enumerate_and_classify filters) of windows 3 and 4 are those of
    window 2, n <= 6, since no morphism crosses a shift gap of 2."""
    for n in range(1, 7):
        alg = Algebra(n)

        def normalised(window):
            atoms = [(iv, s) for s in range(window) for iv in alg.intervals()]
            cliques = [
                [atoms[i] for i in c] for c in _clique_candidates(atoms, n)
            ]
            return {
                frozenset(c) for c in cliques if min(s for _, s in c) == 0
            }

        two = normalised(2)
        assert two
        assert normalised(3) == two
        assert normalised(4) == two


def test_zero_path_audit():
    """The closed form t >= n is the search over all paths, for n <= 7 and
    t <= n + 2."""
    for n in range(1, 8):
        alg = Algebra(n)
        for t in range(1, n + 3):
            assert zero_path_audit(alg, t) == zero_path_audit_reference(alg, t)
    for t in (0, -1, True, 2.0, "2", None):
        with pytest.raises(InputError, match="path length"):
            zero_path_audit(Algebra(2), t)


def test_families_pass_deciders():
    from ddcp.deciders import check_ddcp, check_tilting_complex

    alg = Algebra(4)
    for m in range(1, 5):
        assert check_ddcp(make_V(alg, m))
    for i in range(1, 4):
        assert check_ddcp(make_T(alg, i))
        assert check_tilting_complex(make_T(alg, i))


def test_clique_funnel_closed_forms():
    # (n+3) 2^(n-2) cliques over shifts {0, 1}, (n+1) 2^(n-2) of them with
    # minimum shift zero; a change in either count is a search bug
    for n in range(3, 9):
        alg = Algebra(n)
        atoms = [(iv, s) for s in (0, 1) for iv in alg.intervals()]
        cliques = _clique_candidates(atoms, n)
        normalised = [c for c in cliques if min(atoms[i][1] for i in c) == 0]
        assert len(cliques) == (n + 3) * 2 ** (n - 2)
        assert len(normalised) == (n + 1) * 2 ** (n - 2)


def test_end_is_linear_on_every_normalised_clique():
    """End(x) = A_n on every shift-normalised n-clique over shifts {0, 1},
    n <= 8, as the module docstring argues: is_linear_A, which
    enumerate_and_classify asks on each of them, never rejects one."""
    objects = 0
    for n in range(1, 9):
        alg = Algebra(n)
        atoms = [(iv, s) for s in (0, 1) for iv in alg.intervals()]
        for c in _clique_candidates(atoms, n):
            pairs = [atoms[i] for i in c]
            if min(s for _, s in pairs) == 0:
                assert is_linear_A(end_of(DerivedObject(alg, pairs))) == n
                objects += 1
    assert objects == 1024


def test_classification_builds_one_endomorphism_algebra_per_candidate(
    end_of_calls,
):
    """End(x) is asked for once per shift-normalised candidate,
    (n+1) 2^(n-2), for is_linear_A.  check_ddcp, which only the 2n - 1
    survivors reach, asks for no End: its frame reads hereditariness off
    x's Hom relation, and its closed form needs none of a slice."""
    n = 5
    result = enumerate_and_classify(Algebra(n))
    assert result.lambda_count == 2 * n - 1
    assert len(set(end_of_calls)) == len(end_of_calls)
    assert len(end_of_calls) == (n + 1) * 2 ** (n - 2) == 48
    assert set(result.survivors) <= set(end_of_calls)


def test_classification_builds_one_algebra_per_hom_pattern(
    monkeypatch, fresh_caches, end_of_calls
):
    """With fresh caches, classification at n constructs n SCAlgebras, one
    per Hom pattern of its candidates, however many candidates ask for
    End; no slice asks for one."""
    built = []
    init = endalg.SCAlgebra.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(endalg.SCAlgebra, "__init__", counted)
    counts = {}
    for n in range(2, 9):
        fresh_caches()
        built.clear()
        end_of_calls.clear()
        enumerate_and_classify(Algebra(n), bound=n)
        patterns = {
            tuple(sorted(graded_hom(x, x), key=lambda g: g[0] != g[1]))
            for x in end_of_calls
        }
        assert len(built) == len(patterns)
        counts[n] = len(built)
    assert counts == {n: n for n in range(2, 9)}


def set_based_cliques(alg, atoms, size):
    """The set-based clique search that _clique_candidates replaced, kept
    as its reference: sorts the allowed set at every node and prunes by
    index only."""
    m = len(atoms)
    adj = [set() for _ in range(m)]
    for i, j in combinations(range(m), 2):
        if _comparable(atoms[i], atoms[j]):
            adj[i].add(j)
            adj[j].add(i)
    out = []

    def grow(clique, allowed, start):
        if len(clique) == size:
            out.append(tuple(clique))
            return
        need = size - len(clique)
        for i in sorted(allowed):
            if i < start:
                continue
            if m - i < need:
                break
            clique.append(i)
            grow(clique, allowed & adj[i], i + 1)
            clique.pop()

    grow([], set(range(m)), 0)
    return out


@pytest.mark.parametrize("window,top", [(2, 8), (3, 5)])
def test_bitset_cliques_match_set_based_search(window, top):
    for n in range(1, top + 1):
        alg = Algebra(n)
        atoms = [(iv, s) for s in range(window) for iv in alg.intervals()]
        assert _clique_candidates(atoms, n) == set_based_cliques(
            alg, atoms, n
        )


def test_precheck_rejections_fail_check_ddcp(monkeypatch):
    """Over every shift-normalised candidate with End = A_n, n <= 7, each
    one ddcp_precheck rejects fails check_ddcp, and, as measured, each one
    it passes survives check_ddcp."""
    outcomes = Counter()
    precheck = classify.ddcp_precheck

    def checked(x):
        reason = precheck(x)
        verdict = bool(check_ddcp(x))
        assert reason is None or not verdict, (x, reason)
        outcomes["passed" if reason is None else "rejected", verdict] += 1
        return reason

    monkeypatch.setattr(classify, "ddcp_precheck", checked)
    for n in range(1, 8):
        assert enumerate_and_classify(Algebra(n), bound=n).lambda_count == (
            2 * n - 1
        )
    # (n+1) 2^(n-2) candidates at each n, 2n - 1 of them survivors
    assert outcomes == {
        ("passed", True): 49,
        ("rejected", False): 448 - 49,
    }


def test_tilting_survivors_agree_across_routes():
    """Among the survivors of the classification at n <= 6, every T_i and
    exactly V_1 and V_n are two-sided tilting, by both routes."""
    for n in range(1, 7):
        result = enumerate_and_classify(Algebra(n), bound=n)
        tilting = set()
        for x in result.survivors:
            module = bool(check_tilting_complex(x, "module"))
            assert module == bool(check_tilting_complex(x, "derived")), x
            if module:
                tilting.add(result.matched[x])
        assert tilting == {"V_1", "V_%d" % n} | {
            "T_%d" % i for i in range(1, n)
        }, n

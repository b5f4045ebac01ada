import pytest

from ddcp.quiver import Algebra, InputError, Interval
from ddcp.classify import (
    enumerate_and_classify,
    make_T,
    make_V,
    zero_path_audit,
)


def test_degree_window_below_one_rejected():
    for window in (0, -1):
        with pytest.raises(InputError):
            enumerate_and_classify(Algebra(3), degree_window=window)


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


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 3), (3, 5)])
def test_classification_small(n, expected):
    alg = Algebra(n)
    result = enumerate_and_classify(alg)
    assert result.lambda_count == expected
    labels = sorted(result.matched.values())
    want = sorted(
        ["V_%d" % m for m in range(1, n + 1)]
        + ["T_%d" % i for i in range(1, n)]
    )
    assert labels == want
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


def test_zero_path_audit():
    for n in (1, 2, 3, 4, 5):
        assert zero_path_audit(Algebra(n), n)
    assert not zero_path_audit(Algebra(3), 2)
    assert zero_path_audit(Algebra(1), 1)
    with pytest.raises(InputError):
        zero_path_audit(Algebra(2), 0)


def test_families_pass_deciders():
    from ddcp.deciders import check_ddcp, check_tilting_complex

    alg = Algebra(4)
    for m in range(1, 5):
        assert check_ddcp(make_V(alg, m))
    for i in range(1, 4):
        assert check_ddcp(make_T(alg, i))
        assert check_tilting_complex(make_T(alg, i))

import random
from fractions import Fraction

import pytest

from ddcp.exactmat import (
    Mat,
    col_space,
    hstack,
    nullspace,
    rank,
    rref,
    solve,
)


def random_mat(rng, nrows, ncols, density=0.6):
    m = Mat(nrows, ncols)
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                m[i, j] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return m


def test_identity_and_matmul():
    i3 = Mat.identity(3)
    m = Mat.from_rows([[1, 2, 3], [4, 5, 6]])
    assert m @ i3 == m
    assert Mat.identity(2) @ m == m


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        Mat(2, 3) @ Mat(2, 3)


def test_stacking():
    a = Mat.from_rows([[1, 2]])
    b = Mat.from_rows([[3, 4]])
    assert hstack([a, b]).ncols == 4
    assert hstack([], nrows=3).nrows == 3


def test_rref_pivots_and_rank():
    m = Mat.from_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    r, pivots = rref(m)
    assert pivots == [0, 1]
    assert rank(m) == 2
    assert rank(Mat.identity(4)) == 4
    assert rank(Mat(3, 5)) == 0


def test_nullspace_annihilates():
    rng = random.Random(7)
    for _ in range(40):
        m = random_mat(rng, rng.randint(1, 5), rng.randint(1, 5))
        ns = nullspace(m)
        assert rank(m) + ns.ncols == m.ncols
        if ns.ncols:
            assert (m @ ns).is_zero()


def test_solve_consistent_and_inconsistent():
    rng = random.Random(11)
    for _ in range(40):
        a = random_mat(rng, rng.randint(1, 5), rng.randint(1, 5))
        x = random_mat(rng, a.ncols, 2)
        b = a @ x
        sol = solve(a, b)
        assert sol is not None
        assert a @ sol == b
    a = Mat.from_rows([[1, 0], [1, 0]])
    b = Mat.from_cols([[1, 2]], nrows=2)
    assert solve(a, b) is None


def test_col_space_spans():
    m = Mat.from_rows([[1, 2, 3], [2, 4, 6]])
    cs = col_space(m)
    assert cs.ncols == 1
    for j in range(m.ncols):
        assert solve(cs, Mat.from_cols([m.column(j)], nrows=2)) is not None


def test_transpose_column_access():
    m = Mat.from_rows([[1, 2], [3, 4], [5, 6]])
    assert m.column(1) == [Fraction(2), Fraction(4), Fraction(6)]

import random
from fractions import Fraction

import numpy as np
import pytest

from laurentfft.rational import (RationalMatrix, ZeroMatrixError, rank,
                                 rank_factor, rref, vstack)
from oracles import exact_product, sympy_rank, sympy_rref


def test_constructor_and_accessors():
    # from_int_matrix is the one public builder
    m = RationalMatrix.from_int_matrix([[1, 2, 0], [3, -4, 5]])
    assert (m.rows, m.cols) == (2, 3)
    assert m.entries == ((1, 2, 0), (3, -4, 5))
    with pytest.raises(ValueError, match="not an integer"):
        RationalMatrix.from_int_matrix([[1, "1/2"]])


@pytest.mark.parametrize("args", [(), ([[1]],), ([[1, 2]], 2)],
                         ids=["bare", "rows", "rows_and_cols"])
def test_the_class_itself_builds_no_matrix(args):
    # a bare instance would have no rows, cols or entries
    with pytest.raises(TypeError, match="from_int_matrix"):
        RationalMatrix(*args)


def test_constructor_rejects_ragged_rows():
    with pytest.raises(ValueError):
        RationalMatrix.from_int_matrix([[1, 2], [3]])


def test_empty_matrix_needs_explicit_cols():
    # an empty list has no column count; a 0 x 5 array has one
    with pytest.raises(ValueError):
        RationalMatrix.from_int_matrix([])
    m = RationalMatrix.from_int_matrix(np.zeros((0, 5), dtype=int))
    assert (m.rows, m.cols) == (0, 5)
    assert m.entries == ()


def test_zero_columns_rejected():
    for shape in ((0, 0), (2, 0)):
        with pytest.raises(ValueError, match="at least one column"):
            RationalMatrix.from_int_matrix(np.zeros(shape, dtype=int))


def test_from_int_matrix_roundtrip():
    arr = np.array([[0, 1, -1], [2, 0, 0]])
    m = RationalMatrix.from_int_matrix(arr)
    assert m.entries == ((0, 1, -1), (2, 0, 0))
    assert np.array_equal(np.array(m.entries), arr)


def test_from_int_matrix_rejects_non_integral_values():
    with pytest.raises(ValueError):
        RationalMatrix.from_int_matrix(np.array([[1.5, 2.7]]))
    with pytest.raises(ValueError):
        RationalMatrix.from_int_matrix([[1, 0.5]])
    m = RationalMatrix.from_int_matrix(np.array([[2.0, -1.0]]))
    assert m.entries == ((2, -1),)
    assert all(type(x) is int for x in m.entries[0])


def test_integral_entries_are_ints_and_the_rest_fractions():
    def check(mat):
        for row in mat.entries:
            for x in row:
                assert type(x) is int or (type(x) is Fraction
                                          and x.denominator != 1), x

    rng = random.Random(5)
    for _ in range(100):
        m = RationalMatrix.from_int_matrix(np.array(_random_int_matrix(rng)))
        check(m)
        result = rref(m)
        check(result.rref)
        if result.rank:
            for factor in rank_factor(m):
                check(factor)
    half = rref(RationalMatrix.from_int_matrix([[2, 1]])).rref.entries
    assert half == ((1, Fraction(1, 2)),)
    assert type(half[0][0]) is int and type(half[0][1]) is Fraction


def test_identity_and_zeros():
    assert rank(RationalMatrix.from_int_matrix(np.eye(4, dtype=int))) == 4
    zeros = RationalMatrix.from_int_matrix(np.zeros((2, 3), dtype=int))
    assert zeros.entries == ((0, 0, 0), (0, 0, 0))
    assert rank(zeros) == 0


def test_rref_simple_example():
    m = RationalMatrix.from_int_matrix([[2, 4], [1, 2]])
    result = rref(m)
    assert result.rank == 1
    assert result.pivot_cols == (0,)
    assert result.rref.entries == ((Fraction(1), Fraction(2)),)


def test_rref_of_zero_matrix_is_empty():
    result = rref(RationalMatrix.from_int_matrix(np.zeros((3, 3), dtype=int)))
    assert result.rank == 0
    assert result.rref.rows == 0
    assert result.pivot_cols == ()


def test_rref_idempotent():
    m = RationalMatrix.from_int_matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    once = rref(m).rref
    again = rref(once)
    assert again.rref.entries == once.entries


def _random_int_matrix(rng: random.Random):
    rows = rng.randint(1, 7)
    cols = rng.randint(1, 7)
    data = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
    # often fold in a dependent row so low rank gets exercised
    if rows >= 2 and rng.random() < 0.5:
        i, j = rng.randrange(rows), rng.randrange(rows)
        if i != j:
            scale = rng.choice([-2, -1, 1, 2])
            data[i] = [scale * x for x in data[j]]
    return data


def test_rref_matches_sympy_on_random_matrices():
    rng = random.Random(20260822)
    for _ in range(200):
        data = _random_int_matrix(rng)
        m = RationalMatrix.from_int_matrix(data)
        result = rref(m)
        expected_rows, expected_pivots = sympy_rref(data)
        assert result.rank == sympy_rank(data)
        assert result.pivot_cols == expected_pivots
        assert [list(row) for row in result.rref.entries] == expected_rows


def test_rank_factor_reconstructs_exactly():
    rng = random.Random(99)
    checked = 0
    while checked < 100:
        data = _random_int_matrix(rng)
        m = RationalMatrix.from_int_matrix(data)
        if rank(m) == 0:
            continue
        c, r = rank_factor(m)
        assert exact_product(c.entries, r.entries) == m.entries
        assert r.rows == rank(m)
        assert c.cols == r.rows
        checked += 1


def test_rank_factor_rejects_zero_matrix():
    with pytest.raises(ZeroMatrixError):
        rank_factor(RationalMatrix.from_int_matrix(np.zeros((2, 2), dtype=int)))


def test_vstack():
    a = RationalMatrix.from_int_matrix([[1, 0]])
    b = RationalMatrix.from_int_matrix([[0, 1], [1, 1]])
    assert vstack(a, b).entries == ((Fraction(1), Fraction(0)),
                                    (Fraction(0), Fraction(1)),
                                    (Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        vstack(a, RationalMatrix.from_int_matrix([[1, 2, 3]]))


def test_vstack_rank_is_subadditive():
    rng = random.Random(7)
    for _ in range(50):
        a = RationalMatrix.from_int_matrix(_random_int_matrix(rng))
        b_data = [[rng.randint(-3, 3) for _ in range(a.cols)]
                  for _ in range(rng.randint(1, 4))]
        b = RationalMatrix.from_int_matrix(b_data)
        stacked = rank(vstack(a, b))
        assert max(rank(a), rank(b)) <= stacked <= rank(a) + rank(b)


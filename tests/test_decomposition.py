import dataclasses
import tracemalloc

import numpy as np
import pytest

from laurentfft.decomposition import (ClassDecomposition,
                                      UnsupportedBlocklengthError,
                                      class_indices, class_members,
                                      class_tables, decompose, dft_matrix,
                                      exponent_matrix, reconstruct_dft)
from laurentfft.rational import RationalMatrix, rref

SUPPORTED = tuple(range(4, 65, 4))


def test_exponent_matrix_small():
    assert exponent_matrix(4).tolist() == [[0, 0, 0, 0], [0, 1, 2, 3],
                                           [0, 2, 0, 2], [0, 3, 2, 1]]


def test_exponent_matrix_rows_n12():
    exp = exponent_matrix(12)
    assert exp[5].tolist() == [0, 5, 10, 3, 8, 1, 6, 11, 4, 9, 2, 7]
    assert exp[11].tolist() == [0, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1]


def test_exponent_matrix_border_zeros():
    exp = exponent_matrix(20)
    assert not exp[0].any()
    assert not exp[:, 0].any()


@pytest.mark.parametrize("bad", [0, 1, 2, 3, 6, 10, 18, -4])
def test_unsupported_blocklengths_raise(bad):
    with pytest.raises(UnsupportedBlocklengthError):
        exponent_matrix(bad)
    with pytest.raises(UnsupportedBlocklengthError):
        class_indices(bad)
    with pytest.raises(UnsupportedBlocklengthError):
        decompose(bad)


def _class_parts(exp, m):
    """(Re M_m, Im M_m): class m's tables read at the exponent grid."""
    return tuple(t[exp] for t in class_tables(exp.shape[0], m))


def test_class_indices_layouts():
    assert tuple(class_indices(4)) == (0,)
    assert tuple(class_indices(8)) == (0, 1)
    assert tuple(class_indices(12)) == (-1, 0, 1)
    assert tuple(class_indices(16)) == (-1, 0, 1, 2)
    assert tuple(class_indices(20)) == (-2, -1, 0, 1, 2)


def test_class_indices_count_is_quarter_n():
    for n in SUPPORTED:
        indices = class_indices(n)
        assert isinstance(indices, range)
        assert len(indices) == n // 4
        assert list(indices) == sorted(indices)


def test_residue_class_members_in_coefficient_order():
    assert class_members(12, 0) == (0, 3, 6, 9)
    assert class_members(12, -1) == (11, 2, 5, 8)
    assert class_members(20, -2) == (18, 3, 8, 13)
    assert class_members(20, -1) == (19, 4, 9, 14)


def test_residue_class_rejects_non_indices():
    with pytest.raises(ValueError,
                       match="2 is not a class index for blocklength 12"):
        class_members(12, 2)
    with pytest.raises(ValueError,
                       match="-2 is not a class index for blocklength 16"):
        class_members(16, -2)


def test_residue_class_defining_congruence():
    for n in (12, 16, 20, 64):
        for m in class_indices(n):
            for x in class_members(n, m):
                assert (4 * x - 4 * m) % n == 0


def test_class_tables_tile_the_residues():
    # every residue of [0, N) carries exactly one unit entry across all
    # classes' (re, im) tables, so the classes partition [0, N) and the
    # class matrices t[E] tile the grid
    for n in (*SUPPORTED, 100):
        assert all(len(set(class_members(n, m))) == 4
                   for m in class_indices(n)), n
        tables = [t for m in class_indices(n) for t in class_tables(n, m)]
        assert all(t.dtype == np.int8 and t.shape == (n,) for t in tables)
        assert set(np.unique(tables).tolist()) <= {-1, 0, 1}, n
        assert np.array_equal(np.abs(tables).sum(axis=0), np.ones(n)), n


def test_class_matrix_support_and_values():
    for n in (8, 12, 16, 20):
        exp = exponent_matrix(n)
        for m in class_indices(n):
            re, im = _class_parts(exp, m)
            overlap = (re != 0) & (im != 0)
            assert not overlap.any()
            assert set(np.unique(re)) <= {-1, 0, 1}
            assert set(np.unique(im)) <= {-1, 0, 1}
            members = set(class_members(n, m))
            support = (re != 0) | (im != 0)
            assert np.array_equal(support, np.isin(exp, sorted(members)))


def test_class_matrix_coefficients_are_unit_powers():
    # entry at a cell with exponent m + k*N/4 must be (-j)^k
    units = {0: 1 + 0j, 1: -1j, 2: -1 + 0j, 3: 1j}
    for n in (12, 16, 20):
        exp = exponent_matrix(n)
        for m in class_indices(n):
            re, im = _class_parts(exp, m)
            for k, member in enumerate(class_members(n, m)):
                cells = exp == member
                values = re[cells] + 1j * im[cells]
                assert np.all(values == units[k]), (n, m, k)


def test_class_matrix_rejects_bad_index():
    with pytest.raises(ValueError):
        class_tables(12, 3)


def test_decompose_structure():
    dec = decompose(16)
    assert isinstance(dec, ClassDecomposition)
    assert [f.name for f in dataclasses.fields(dec)] == ["n", "exponents"]
    assert dec.n == 16
    assert np.array_equal(dec.exponents, exponent_matrix(16))
    assert not dec.exponents.flags.writeable
    assert tuple(class_indices(dec.n)) == (-1, 0, 1, 2)
    assert class_members(16, 1) == (1, 5, 9, 13)
    with pytest.raises(ValueError):
        class_tables(16, 5)


def test_n8_class1_re_and_im_share_their_rref():
    re, im = _class_parts(decompose(8).exponents, 1)
    re_rref = rref(RationalMatrix.from_int_matrix(re))
    im_rref = rref(RationalMatrix.from_int_matrix(im))
    expected = ((0, 1, 0, 0, 0, -1, 0, 0),
                (0, 0, 0, 1, 0, 0, 0, -1))
    assert re_rref.rank == im_rref.rank == 2
    assert re_rref.rref.entries == expected
    assert im_rref.rref.entries == expected
    # the matrices themselves differ; only their row spaces agree
    assert not np.array_equal(re, im)


def test_n12_class_matrix_ranks():
    exp = decompose(12).exponents
    ranks = {}
    for m in class_indices(12):
        ranks[m] = tuple(rref(RationalMatrix.from_int_matrix(part)).rank
                         for part in _class_parts(exp, m))
    assert ranks[0] == (6, 2)
    assert ranks[1] == (2, 6)
    assert ranks[-1] == (2, 6)


def test_n12_imaginary_parts_share_their_rref():
    exp = decompose(12).exponents
    r1 = rref(RationalMatrix.from_int_matrix(_class_parts(exp, 1)[1]))
    rm1 = rref(RationalMatrix.from_int_matrix(_class_parts(exp, -1)[1]))
    assert r1.rank == 6
    assert r1.rref.entries == rm1.rref.entries


def test_n12_re_m0_row_structure():
    re0 = _class_parts(decompose(12).exponents, 0)[0]
    assert re0[0].tolist() == [1] * 12
    assert re0[6].tolist() == [1, -1] * 6


def test_reconstruction_matches_direct_dft():
    for n in SUPPORTED:
        rec = reconstruct_dft(decompose(n))
        err = np.max(np.abs(rec - dft_matrix(n)))
        assert err < 1e-12, (n, err)


def test_reconstruction_builds_one_class_at_a_time():
    # all 64 class matrices of N=256 at once take about 69 MB; one at a
    # time, the peak is a few N x N arrays
    tracemalloc.start()
    try:
        rec = reconstruct_dft(decompose(256))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(rec - dft_matrix(256))) < 1e-11
    assert peak < 16 * 10**6


def test_reconstruction_n4_is_exact():
    rec = reconstruct_dft(decompose(4))
    expected = np.array([[1, 1, 1, 1],
                         [1, -1j, -1, 1j],
                         [1, -1, 1, -1],
                         [1, 1j, -1, -1j]])
    assert np.array_equal(rec, expected)

"""Acceptance gate: one test per shipping criterion, tolerances pinned.

Each criterion prints one ``criterion NN (...): PASS`` line on success (and
is one pass/fail entry under ``pytest -v``). Criteria 5 and 6 share a
single measured workload so the counter check covers exactly the trials
the accuracy check ran.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from laurentfft.bounds import heideman_bound, heideman_burrus_bound
from laurentfft.decomposition import (class_indices, class_members,
                                      class_tables, decompose, dft_matrix,
                                      reconstruct_dft)
from laurentfft.execute import execute_real, naive_dft
from laurentfft.plan import compile_plan_for, complexity_for, load_plan, save_plan
from laurentfft.rational import RationalMatrix, rref
from oracles import heideman_reference

ALL_SUPPORTED = tuple(range(4, 65, 4))
EQUIVALENCE_NS = (4, 8, 12, 16, 20, 28, 32, 36, 44, 52, 60, 64)

ODD_GENUS_COUNTS = {12: 8, 20: 32, 28: 72, 36: 88, 44: 200, 52: 288, 60: 208}
POWER_OF_TWO_COUNTS = {8: 2, 16: 12, 32: 54, 64: 224}
HEIDEMAN_BURRUS_COUNTS = {8: 4, 16: 20, 32: 64, 64: 168}


def _ok(number: int, label: str) -> None:
    print(f"criterion {number:02d} ({label}): PASS")


def test_criterion_01_counts_for_n_congruent_4_mod_8():
    t0 = time.perf_counter()
    got = {n: complexity_for(n).realized_total for n in ODD_GENUS_COUNTS}
    elapsed = time.perf_counter() - t0
    assert got == ODD_GENUS_COUNTS
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    _ok(1, "multiplication counts, N = 4 mod 8")


def test_criterion_02_counts_for_powers_of_two():
    t0 = time.perf_counter()
    got = {n: complexity_for(n).realized_total for n in POWER_OF_TWO_COUNTS}
    elapsed = time.perf_counter() - t0
    assert got == POWER_OF_TWO_COUNTS
    assert elapsed < 5.0, f"took {elapsed:.2f} s"
    _ok(2, "multiplication counts, N = 2^k")


def test_criterion_03_heideman_burrus_column():
    got = {n: heideman_burrus_bound(n) for n in HEIDEMAN_BURRUS_COUNTS}
    assert got == HEIDEMAN_BURRUS_COUNTS
    _ok(3, "Heideman-Burrus bound values")


def test_criterion_04_blocklength_12_worked_example():
    exp = decompose(12).exponents
    # (Re M_m, Im M_m): class m's tables read at the exponent grid
    (re0, im0), (re1, im1), (re_1, im_1) = (
        tuple(t[exp] for t in class_tables(12, m)) for m in (0, 1, -1))

    def _rank(mat):
        return rref(RationalMatrix.from_int_matrix(mat)).rank

    assert _rank(re0) == 6
    assert _rank(im0) == 2
    assert _rank(re1) == _rank(re_1) == 2
    assert _rank(im1) == _rank(im_1) == 6

    re_sum = re1 + re_1
    reduced = rref(RationalMatrix.from_int_matrix(re_sum))
    assert reduced.rank == 1
    assert [int(x) for x in reduced.rref.entries[0]] == \
        [0, 1, 0, 0, 0, -1, 0, -1, 0, 0, 0, 1]

    im_diff = im1 - im_1
    assert rref(RationalMatrix.from_int_matrix(im_diff)).rank == 3

    im_pos = rref(RationalMatrix.from_int_matrix(im1))
    im_neg = rref(RationalMatrix.from_int_matrix(im_1))
    assert im_pos.rref.entries == im_neg.rref.entries
    _ok(4, "blocklength-12 ranks and reductions")


@dataclass
class _RunSummary:
    tolerance: float
    max_error: float
    counters_exact: bool


@pytest.fixture(scope="module")
def oracle_workload():
    """100 seeded random real inputs per blocklength, shared by 5 and 6."""
    t0 = time.perf_counter()
    results = {}
    for n in EQUIVALENCE_NS:
        plan = compile_plan_for(n)
        tol = 1e-10 if n <= 32 else 1e-9
        rng = np.random.default_rng(20260800 + n)
        max_error = 0.0
        counters_exact = True
        for _ in range(100):
            v = rng.uniform(-1.0, 1.0, n)
            got, counters = execute_real(plan, v)
            err = float(np.max(np.abs(got - naive_dft(v))))
            max_error = max(max_error, err)
            if counters.real_mults != plan.mult_count:
                counters_exact = False
        results[n] = _RunSummary(tolerance=tol, max_error=max_error,
                                 counters_exact=counters_exact)
    return results, time.perf_counter() - t0


def test_criterion_05_oracle_equivalence(oracle_workload):
    results, elapsed = oracle_workload
    for n, summary in results.items():
        assert summary.max_error < summary.tolerance, \
            f"N={n}: {summary.max_error:.3e} >= {summary.tolerance:.0e}"
    assert elapsed < 30.0, f"took {elapsed:.2f} s"
    _ok(5, "plan output matches the direct DFT")


def test_criterion_06_counter_exactness(oracle_workload):
    results, _ = oracle_workload
    for n, summary in results.items():
        assert summary.counters_exact, f"N={n}"
    _ok(6, "measured multiplications equal the compiled count")


def test_criterion_07_partition_property():
    for n in ALL_SUPPORTED:
        classes = [class_members(n, m) for m in class_indices(n)]
        assert len(classes) == n // 4
        assert all(len(set(members)) == 4 for members in classes), n
        assert sorted(x for members in classes for x in members) \
            == list(range(n)), n
    _ok(7, "residue classes partition the exponent range")


def test_criterion_08_matrix_reconstruction():
    for n in ALL_SUPPORTED:
        err = np.max(np.abs(reconstruct_dft(decompose(n)) - dft_matrix(n)))
        assert err < 1e-12, f"N={n}: {err:.3e}"
    _ok(8, "class matrices rebuild the DFT matrix")


def test_criterion_09_heideman_bound_oracle_agreement():
    for n in range(1, 65):
        assert heideman_bound(n) == heideman_reference(n), n
    _ok(9, "Heideman bound matches an independent evaluation")


def test_criterion_10_plan_file_round_trip(tmp_path):
    for n in (12, 20, 64):
        fresh = compile_plan_for(n)
        path = tmp_path / f"plan{n}.json"
        save_plan(fresh, path)
        loaded = load_plan(path)
        rng = np.random.default_rng(31 * n)
        for _ in range(10):
            v = rng.uniform(-1.0, 1.0, n)
            direct, _ = execute_real(fresh, v)
            reloaded, _ = execute_real(loaded, v)
            assert np.array_equal(direct, reloaded), f"N={n}"
    _ok(10, "exported plans execute bit-for-bit")

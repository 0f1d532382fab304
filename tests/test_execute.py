import numpy as np
import pytest

from laurentfft.execute import (OpCounters, default_tolerance, execute_complex,
                                execute_real, naive_dft, verify_plan)
from laurentfft.plan import compile_plan_for
from oracles import dense

SUPPORTED = tuple(range(4, 65, 4))


def test_naive_dft_impulse():
    out = naive_dft(np.eye(12)[0])
    assert np.allclose(out, np.ones(12), atol=1e-12)


def test_naive_dft_constant_input():
    out = naive_dft(np.ones(12))
    expected = np.zeros(12, dtype=complex)
    expected[0] = 12
    assert np.allclose(out, expected, atol=1e-12)


def test_naive_dft_single_tone():
    n = 12
    v = np.exp(2j * np.pi * 3 * np.arange(n) / n)  # W^{-3n'} for W=e^{-2pi j/n}
    out = naive_dft(v)
    expected = np.zeros(n, dtype=complex)
    expected[3] = n
    assert np.max(np.abs(out - expected)) < 1e-10


def test_naive_dft_rejects_bad_shapes():
    with pytest.raises(ValueError):
        naive_dft(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        naive_dft(np.zeros(0))


@pytest.mark.parametrize("n", SUPPORTED)
def test_execute_real_matches_oracle(n):
    plan = compile_plan_for(n)
    rng = np.random.default_rng(1000 + n)
    tol = default_tolerance(n)
    for _ in range(20):
        v = rng.uniform(-1.0, 1.0, n)
        got, counters = execute_real(plan, v)
        assert np.max(np.abs(got - naive_dft(v))) < tol
        assert counters.real_mults == plan.mult_count
        assert counters.real_adds == plan.add_count


def test_counters_are_input_independent():
    plan = compile_plan_for(20)
    _, a = execute_real(plan, np.zeros(20))
    _, b = execute_real(plan, np.arange(20.0))
    assert (a.real_mults, a.real_adds) == (b.real_mults, b.real_adds)


def test_execute_real_impulse_needs_no_branches():
    # index 0 never appears in a preadd row, so the branch outputs vanish
    # and the additive stage alone produces the flat spectrum
    plan = compile_plan_for(12)
    out, _ = execute_real(plan, np.eye(12)[0])
    assert np.array_equal(out, np.ones(12, dtype=complex))
    for b in plan.branches:
        assert all(row[0] == 0 for row in dense(b.preadd))


def test_execute_real_input_checks():
    plan = compile_plan_for(12)
    with pytest.raises(ValueError):
        execute_real(plan, np.zeros(11))
    with pytest.raises(ValueError):
        execute_real(plan, np.zeros((12, 1)))
    with pytest.raises(TypeError):
        execute_real(plan, np.zeros(12, dtype=complex))


def test_execute_complex_matches_real_on_real_input():
    plan = compile_plan_for(16)
    v = np.random.default_rng(3).uniform(-1, 1, 16)
    re_out, re_counters = execute_real(plan, v)
    cx_out, cx_counters = execute_complex(plan, v.astype(complex))
    assert np.array_equal(re_out, cx_out)
    assert cx_counters.real_mults == 2 * re_counters.real_mults
    assert cx_counters.real_adds == 2 * re_counters.real_adds


def test_execute_complex_rotates_imaginary_input():
    plan = compile_plan_for(12)
    u = np.random.default_rng(4).uniform(-1, 1, 12)
    base, _ = execute_real(plan, u)
    rotated, _ = execute_complex(plan, 1j * u)
    assert np.array_equal(rotated, 1j * base)


def test_execute_complex_matches_oracle():
    plan = compile_plan_for(20)
    rng = np.random.default_rng(5)
    v = rng.uniform(-1, 1, 20) + 1j * rng.uniform(-1, 1, 20)
    got, counters = execute_complex(plan, v)
    assert np.max(np.abs(got - naive_dft(v))) < 1e-9
    assert counters.real_mults == 2 * plan.mult_count


def test_execute_complex_length_check():
    with pytest.raises(ValueError):
        execute_complex(compile_plan_for(12), np.zeros(13, dtype=complex))


def test_linearity():
    plan = compile_plan_for(28)
    rng = np.random.default_rng(6)
    u = rng.uniform(-1, 1, 28)
    w = rng.uniform(-1, 1, 28)
    alpha, beta = rng.uniform(-1, 1, 2)
    combined, _ = execute_real(plan, alpha * u + beta * w)
    out_u, _ = execute_real(plan, u)
    out_w, _ = execute_real(plan, w)
    assert np.max(np.abs(combined - (alpha * out_u + beta * out_w))) < 1e-9


def test_parseval_energy_conservation():
    for n in (12, 32, 64):
        plan = compile_plan_for(n)
        v = np.random.default_rng(n).uniform(-1, 1, n)
        out, _ = execute_real(plan, v)
        lhs = np.sum(np.abs(out) ** 2)
        rhs = n * np.sum(v ** 2)
        assert abs(lhs - rhs) / rhs < 1e-9


def test_default_tolerance_boundary():
    assert default_tolerance(32) == 1e-10
    assert default_tolerance(36) == 1e-9


def test_op_counters_merge():
    a = OpCounters(real_mults=3, real_adds=5)
    a.merge(OpCounters(real_mults=1, real_adds=2))
    assert (a.real_mults, a.real_adds) == (4, 7)


def test_verify_plan_passes_with_defaults():
    report = verify_plan(compile_plan_for(12), trials=50, seed=7)
    assert report.passed and report.counters_match
    assert report.max_error < report.tolerance == 1e-10
    assert report.mults_per_trial == 8
    assert report.totals.real_mults == 50 * 8


def test_verify_plan_additive_only_case():
    report = verify_plan(compile_plan_for(4), trials=10, seed=1)
    assert report.passed
    assert report.mults_per_trial == 0
    assert report.totals.real_mults == 0


def test_verify_plan_reports_failure_instead_of_raising():
    report = verify_plan(compile_plan_for(12), trials=5, tolerance=1e-18,
                         seed=0)
    assert not report.passed
    assert report.max_error > 1e-18


def test_verify_plan_is_reproducible():
    plan = compile_plan_for(16)
    a = verify_plan(plan, trials=20, seed=42)
    b = verify_plan(plan, trials=20, seed=42)
    assert a.max_error == b.max_error


def test_verify_plan_rejects_zero_trials():
    with pytest.raises(ValueError):
        verify_plan(compile_plan_for(12), trials=0)

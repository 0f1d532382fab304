import dataclasses
import hashlib
import json
import sys
import threading
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from laurentfft import execute
from laurentfft import plan as plan_mod
from laurentfft.execute import (OpCounters, default_tolerance, execute_complex,
                                execute_real, naive_dft, verify_plan)
from laurentfft.plan import (REAL_OUT, compile_plan_for, load_plan,
                             plan_to_dict, save_plan)
from oracles import dense, plan_text, term_by_term, term_by_term_sums

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


@pytest.mark.parametrize("n", range(4, 129, 4))
def test_execute_real_is_bitwise_the_term_by_term_sum(n):
    plan = compile_plan_for(n)
    rng = np.random.default_rng(2000 + n)
    impulse = np.zeros(n)
    impulse[-1] = -1.0
    for v in (rng.uniform(-1.0, 1.0, n), rng.standard_normal(n) * 1e6,
              np.zeros(n), -np.zeros(n), impulse):
        out, _ = execute_real(plan, v)
        assert out.tobytes() == term_by_term(plan, v).tobytes()


@pytest.mark.parametrize("n", range(4, 129, 4))
def test_each_sum_is_bitwise_the_term_by_term_sum(n):
    # the 2N real sums before re + 1j * im is assembled: that assembly turns
    # many a -0.0 into +0.0, so only here does a sum started from +0.0
    # (rather than -0.0, the exact additive identity) show
    plan = compile_plan_for(n)
    lowered = plan_mod._lower(plan)
    for v in (-np.zeros(n), np.random.default_rng(3000 + n).uniform(-1, 1, n)):
        assert execute._run(lowered, v).tobytes() == \
            term_by_term_sums(plan, v).tobytes()


def _in_order(dest: np.ndarray, src: np.ndarray) -> dict[int, list[int]]:
    """Each destination's source indices, in list order."""
    terms: dict[int, list[int]] = {}
    for d, t in zip(dest.tolist(), src.tolist()):
        terms.setdefault(d, []).append(t)
    return terms


@pytest.mark.parametrize("n", range(4, 129, 4))
def test_lowered_form_holds_only_the_plan_terms(n):
    # source [x, -x, 0.0, p, -p]; the terms of every sum in the order
    # term_by_term adds them, with one 0.0 term per empty row of M_0
    plan = compile_plan_for(n)
    lowered = plan_mod._lower(plan)
    rank = plan.mult_count

    def signed(row):
        return [c if x == 1 else n + c for c, x in enumerate(row) if x]

    pre = [signed(row) for b in plan.branches
           for row in dense(b.preadd).tolist()]
    out = [signed(row) or [2 * n]
           for mat in (plan.additive.re_m0, plan.additive.im_m0)
           for row in dense(mat).tolist()]
    empty_m0 = sum(t == [2 * n] for t in out)
    offset = 0
    for b in plan.branches:
        base = 0 if b.destination == REAL_OUT else n
        for i, row in enumerate(dense(b.postadd).tolist()):
            out[base + i] += [2 * n + 1 + offset + j + (x != b.sign) * rank
                              for j, x in enumerate(row) if x]
        offset += b.rank
    assert _in_order(lowered.pre_dest, lowered.pre_src) == dict(enumerate(pre))
    assert _in_order(lowered.out_dest, lowered.out_src) == dict(enumerate(out))
    nonzeros = sum(np.count_nonzero(dense(m)) for b in plan.branches
                   for m in (b.preadd, b.postadd))
    m0_nonzeros = sum(np.count_nonzero(dense(m)) for m in
                      (plan.additive.re_m0, plan.additive.im_m0))
    assert lowered.pre_src.size + lowered.out_src.size == \
        nonzeros + m0_nonzeros + empty_m0
    assert (lowered.mults, lowered.adds) == (rank, plan.add_count)


def test_lowered_form_of_the_512_plan_is_small():
    # the term lists hold about 3 MB at N=512; padded (width, sums) gather
    # tables of the same plan held 34 MB. The arrays' own nbytes are
    # summed: tracemalloc under-reads what numpy reuses from its block cache
    plan = compile_plan_for(512)
    lowered = plan_mod._lower(plan)
    held = sum(getattr(lowered, name).nbytes for name in
               ("pre_dest", "pre_src", "out_dest", "out_src", "constants"))
    assert lowered.mults == plan.mult_count
    assert held < 8 * 10**6


def test_the_512_plan_compiles_and_lowers_in_bounded_memory():
    # as dense int8 arrays the plan matrices peaked at 25.6 MiB to compile,
    # and stacking them densely to lower them at 24 MiB more
    tracemalloc.start()
    try:
        plan = compile_plan_for(512)
        compiled, compile_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        plan_mod._lower(plan)
        lower_peak = tracemalloc.get_traced_memory()[1] - compiled
    finally:
        tracemalloc.stop()
    assert compile_peak < 10 * 2**20
    assert lower_peak < 12 * 2**20


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
        assert not dense(b.preadd)[:, 0].any()


def test_execute_real_input_checks():
    plan = compile_plan_for(12)
    with pytest.raises(ValueError):
        execute_real(plan, np.zeros(11))
    with pytest.raises(ValueError):
        execute_real(plan, np.zeros((12, 1)))
    with pytest.raises(TypeError):
        execute_real(plan, np.zeros(12, dtype=complex))


# (mult_count, add_count, sha256 of the raw bytes of execute_real on a
# seeded vector, the zero vector and -e_1, then of execute_complex on a
# seeded vector), measured with Python 3.11.7 and numpy 2.4.6 on the
# per-entry interpreter the gather tables replaced: outputs, signed zeros
# included, must stay bit for bit, whatever order a numpy version sums in
_EXECUTE_PINS = {
    12: (8, 126, "91a81b02b369252ecee5f7d08d18c971"
                 "e980a10080fcd7ae7ceb8e5c718a04ea"),
    60: (208, 3038, "605ae8cbc78292b9c3a6ffe87646a331"
                    "b20b1db2c39351122bffccfe80d0ff46"),
    64: (224, 2898, "bd7a929a1dcaf804cecbbd5ee2c74b86"
                    "0952f6fc7868c5e6c2002dfce4240ee4"),
    96: (344, 6014, "b3e4f37658e436cd2cf76ec0e5103808"
                    "b9f0dc71e8fe87ed0ae67e4419ca814e"),
    128: (906, 11048, "2158f5753253f44e50101714a6ceff88"
                      "9a04407e48820507d750c07a29b1b7fa"),
}


def _pinned_digest(plan, n):
    """sha256 of plan's outputs on the pinned inputs of N, checking the
    counters of each run against the pinned counts."""
    mults, adds, _ = _EXECUTE_PINS[n]
    rng = np.random.default_rng(n)
    impulse = np.zeros(n)
    impulse[1] = -1.0
    digest = hashlib.sha256()
    for v in (rng.uniform(-1.0, 1.0, n), np.zeros(n), impulse):
        out, counters = execute_real(plan, v)
        digest.update(out.tobytes())
        assert (counters.real_mults, counters.real_adds) == (mults, adds)
    z = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    out, counters = execute_complex(plan, z)
    digest.update(out.tobytes())
    assert (counters.real_mults, counters.real_adds) == (2 * mults, 2 * adds)
    return digest.hexdigest()


@pytest.mark.parametrize("n", sorted(_EXECUTE_PINS))
def test_execute_outputs_are_pinned(n):
    assert _pinned_digest(compile_plan_for(n), n) == _EXECUTE_PINS[n][2]


@pytest.mark.parametrize("n", sorted(_EXECUTE_PINS))
def test_a_warm_reload_is_a_new_plan_lowered_again(plan_cache, tmp_path, n):
    # a text longer than load_plan caches (here the plan file padded with
    # spaces, which json reads past) is certified on every load: each
    # reload is a plan object of its own, lowered on its own first run,
    # that executes as pinned
    path = tmp_path / "plan.json"
    path.write_text(plan_text(compile_plan_for(n))
                    + " " * plan_mod._CACHED_TEXT_CHARS)
    cold, warm = load_plan(path), load_plan(path)
    assert warm is not cold and plan_cache.cache_info().currsize == 0
    for plan in (cold, warm):
        assert _pinned_digest(plan, n) == _EXECUTE_PINS[n][2]
    assert warm._term_lists is not cold._term_lists


@pytest.mark.parametrize("n", sorted(_EXECUTE_PINS))
def test_a_cached_reload_is_the_same_plan_lowered_once(plan_cache, tmp_path,
                                                       n):
    path = tmp_path / "plan.json"
    save_plan(compile_plan_for(n), path)
    cold = load_plan(path)
    assert _pinned_digest(cold, n) == _EXECUTE_PINS[n][2]
    lowered = vars(cold)["_term_lists"]
    warm = load_plan(path)
    assert warm is cold and plan_to_dict(warm) == json.loads(path.read_text())
    assert _pinned_digest(warm, n) == _EXECUTE_PINS[n][2]
    assert warm._term_lists is lowered


@pytest.mark.parametrize("n", sorted(_EXECUTE_PINS))
def test_threads_share_one_loaded_plan_bit_for_bit(plan_cache, tmp_path, n):
    # four threads run one freshly loaded plan, not yet lowered, with a
    # short switch interval: each must lower it or read its lowering and
    # produce exactly the single-threaded outputs
    path = tmp_path / "plan.json"
    save_plan(compile_plan_for(n), path)
    plan = load_plan(path)
    assert "_term_lists" not in vars(plan)
    inputs = np.random.default_rng(n).uniform(-1.0, 1.0, (16, n))
    alone = compile_plan_for(n)
    expected = [execute_real(alone, v)[0].tobytes() for v in inputs]
    start = threading.Barrier(4)
    outputs, errors = {}, []

    def run(k):
        try:
            start.wait(timeout=60)
            outputs[k] = [execute_real(plan, v)[0].tobytes() for v in inputs]
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert [outputs[k] for k in range(4)] == [expected] * 4
    assert _pinned_digest(plan, n) == _EXECUTE_PINS[n][2]


def test_a_plan_is_lowered_once_and_a_copy_lowers_its_own(monkeypatch):
    lowered, lower = [], plan_mod._lower
    monkeypatch.setattr(plan_mod, "_lower",
                        lambda plan: lowered.append(plan) or lower(plan))
    plan = compile_plan_for(12)
    assert "_term_lists" not in vars(plan)
    for v in np.eye(12)[:3]:
        execute_real(plan, v)
    execute_complex(plan, np.ones(12, dtype=complex))
    verify_plan(plan, trials=2)
    assert lowered == [plan]
    copy = dataclasses.replace(plan)
    assert "_term_lists" not in vars(copy)
    execute_real(copy, np.zeros(12))
    assert lowered == [plan, copy]
    assert copy._term_lists is not plan._term_lists


def test_execute_real_rejects_a_plan_whose_add_count_is_off():
    plan = compile_plan_for(12)
    off = dataclasses.replace(plan, add_count=plan.add_count + 1)
    with pytest.raises(ValueError, match="measured"):
        execute_real(off, np.zeros(12))


def _with_matrix(plan, matrix, change):
    """plan with change applied to its Re(M_0), or to its first branch's
    preadd or postadd."""
    if matrix == "re_m0":
        return dataclasses.replace(plan, additive=dataclasses.replace(
            plan.additive, re_m0=change(plan.additive.re_m0)))
    branch = plan.branches[0]
    changed = dataclasses.replace(branch,
                                  **{matrix: change(getattr(branch, matrix))})
    return dataclasses.replace(plan, branches=(changed, *plan.branches[1:]))


def test_execute_real_rejects_a_hand_built_plan_whose_shapes_do_not_chain():
    # a matrix one row taller than its place still holds its nonzeros, so
    # only the lowering can tell that its shape does not chain
    plan = compile_plan_for(12)
    tall = _with_matrix(plan, "re_m0",
                        lambda m: dataclasses.replace(m, shape=(13, 12)))
    with pytest.raises(ValueError, match="additive stage is \\(13, 12\\)"):
        execute_real(tall, np.zeros(12))
    tall = _with_matrix(plan, "postadd", lambda m: dataclasses.replace(
        m, shape=(13, m.shape[1])))
    with pytest.raises(ValueError, match="do not chain for N=12"):
        execute_real(tall, np.zeros(12))
    # one row shorter leaves a nonzero outside the shape: no such matrix
    # is built
    with pytest.raises(ValueError, match="outside its shape"):
        dataclasses.replace(plan.additive.re_m0, shape=(11, 12))


def _non_unit(entry):
    """A change that sets a plan matrix's first nonzero to entry."""
    def change(mat):
        signs = mat.signs.copy()
        signs[0] = entry
        return dataclasses.replace(mat, signs=signs)
    return change


def test_execute_real_rejects_a_non_unit_entry():
    # the counts still match: only the entry 2 is wrong
    plan = compile_plan_for(12)
    with pytest.raises(ValueError, match="a plan matrix has an entry 2 "
                                         "other than \\+1 or -1"):
        execute_real(_with_matrix(plan, "preadd", _non_unit(2)),
                     np.zeros(12))


@pytest.mark.parametrize("matrix, entry", (("re_m0", 2), ("postadd", 2),
                                           ("re_m0", 0), ("preadd", 0),
                                           ("postadd", 0)))
def test_execute_real_rejects_a_non_unit_entry_in_any_matrix(matrix, entry):
    # the additive stage and the postadds are refused as the preadds are,
    # and a stored 0 as a 2
    with pytest.raises(ValueError, match="a plan matrix has an entry "
                                         f"{entry} other than \\+1 or -1"):
        execute_real(_with_matrix(compile_plan_for(12), matrix,
                                  _non_unit(entry)), np.zeros(12))


@pytest.mark.parametrize("fault", ("outside", "repeat", "order"))
@pytest.mark.parametrize("matrix", ("re_m0", "preadd", "postadd"))
def test_execute_real_rejects_a_matrix_that_lists_its_nonzeros_out_of_form(
        matrix, fault):
    # a hand-built UnitMatrix must list each nonzero inside its shape, once,
    # row by row in column order, as the builder does; the counts still
    # match, and no term may land on another matrix's row or input
    plan = compile_plan_for(12)

    def broken(mat):
        rows, cols = mat.rows.copy(), mat.cols.copy()
        if fault == "outside":
            cols[-1] = mat.shape[1]
        elif fault == "repeat":
            rows[1], cols[1] = rows[0], cols[0]
        else:
            rows[:2], cols[:2] = rows[1::-1], cols[1::-1]
        return dataclasses.replace(mat, rows=rows, cols=cols)

    with pytest.raises(ValueError, match="outside its shape, twice or out of "
                                         "row-major order"):
        execute_real(_with_matrix(plan, matrix, broken), np.zeros(12))


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


_plan = lru_cache(maxsize=None)(compile_plan_for)
_PROPERTY = settings(derandomize=True, database=None, max_examples=30,
                     deadline=None)
_UNIT = st.floats(-1.0, 1.0)


@st.composite
def _real_vectors(draw, count):
    n = draw(st.sampled_from(range(4, 129, 4)))
    return n, [draw(arrays(np.float64, n, elements=_UNIT))
               for _ in range(count)]


@st.composite
def _complex_vectors(draw, count):
    n, parts = draw(_real_vectors(2 * count))
    return n, [re + 1j * im for re, im in zip(parts[::2], parts[1::2])]


@_PROPERTY
@given(_real_vectors(2), _UNIT, _UNIT)
def test_execute_real_is_linear(vectors, alpha, beta):
    n, (u, w) = vectors
    plan = _plan(n)
    combined, _ = execute_real(plan, alpha * u + beta * w)
    out_u, _ = execute_real(plan, u)
    out_w, _ = execute_real(plan, w)
    assert np.max(np.abs(combined - (alpha * out_u + beta * out_w))) \
        < default_tolerance(n)


@_PROPERTY
@given(_complex_vectors(2), _UNIT, _UNIT, _UNIT, _UNIT)
def test_execute_complex_is_linear(vectors, a_re, a_im, b_re, b_im):
    n, (u, w) = vectors
    plan = _plan(n)
    alpha, beta = complex(a_re, a_im), complex(b_re, b_im)
    combined, _ = execute_complex(plan, alpha * u + beta * w)
    out_u, _ = execute_complex(plan, u)
    out_w, _ = execute_complex(plan, w)
    assert np.max(np.abs(combined - (alpha * out_u + beta * out_w))) \
        < default_tolerance(n)


def _shift_factors(n: int, shift: int) -> np.ndarray:
    """W^(k * shift) for k = 0..n-1, W = exp(-2j*pi/n)."""
    return np.exp(-2j * np.pi * ((np.arange(n) * shift) % n) / n)


@_PROPERTY
@given(_real_vectors(1), st.integers(-200, 200))
def test_execute_real_obeys_the_shift_theorem(vectors, shift):
    n, (v,) = vectors
    plan = _plan(n)
    shifted, _ = execute_real(plan, np.roll(v, shift))
    out, _ = execute_real(plan, v)
    assert np.max(np.abs(shifted - out * _shift_factors(n, shift))) \
        < default_tolerance(n)


@_PROPERTY
@given(_complex_vectors(1), st.integers(-200, 200))
def test_execute_complex_obeys_the_shift_theorem(vectors, shift):
    n, (v,) = vectors
    plan = _plan(n)
    shifted, _ = execute_complex(plan, np.roll(v, shift))
    out, _ = execute_complex(plan, v)
    assert np.max(np.abs(shifted - out * _shift_factors(n, shift))) \
        < default_tolerance(n)


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


def test_verify_plan_fails_a_plan_that_outputs_nan():
    # max() keeps the old maximum against a NaN error, which hid a NaN
    # output behind max_error=0.0 and passed=True
    plan = compile_plan_for(12)
    nan = dataclasses.replace(plan.branches[0], constant_value=float("nan"))
    broken = dataclasses.replace(plan, branches=(nan, *plan.branches[1:]))
    report = verify_plan(broken, trials=3, seed=0)
    assert np.isnan(report.max_error) and not report.passed


def test_verify_plan_memory_does_not_grow_with_trials():
    # one (trials, N) draw and one error per trial peaked at 10.5 MiB here
    plan = compile_plan_for(64)
    verify_plan(plan, trials=1)
    tracemalloc.start()
    try:
        report = verify_plan(plan, trials=20000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed and peak < 2 * 2**20


def test_verify_plan_runs_the_rows_of_one_draw_across_blocks(monkeypatch):
    # the trials drawn block by block are the rows of one (trials, N) draw,
    # each run once through the plan's term lists
    n, trials = 12, 2 * execute._TRIAL_BLOCK + 3
    plan = compile_plan_for(n)
    seen, run = [], execute._run
    monkeypatch.setattr(execute, "_run", lambda lowered, x:
                        seen.append(x.copy()) or run(lowered, x))
    report = verify_plan(plan, trials=trials, seed=5)
    inputs = np.random.default_rng(5).uniform(-1.0, 1.0, (trials, n))
    assert np.array_equal(seen, inputs)
    monkeypatch.undo()
    errors = [np.max(np.abs(execute_real(plan, v)[0] - naive_dft(v)))
              for v in inputs]
    assert np.float64(report.max_error).tobytes() == np.max(errors).tobytes()


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("n", (12, 64))
def test_verify_plan_reports_what_a_per_trial_loop_measures(n, seed):
    # the documented draw order: trial t runs the t-th of trials
    # successive length-N draws of the seeded generator
    plan = compile_plan_for(n)
    rng = np.random.default_rng(seed)
    max_error, counters_match, mults, adds = 0.0, True, 0, 0
    for _ in range(7):
        v = rng.uniform(-1.0, 1.0, n)
        got, counters = execute_real(plan, v)
        max_error = np.maximum(max_error, np.max(np.abs(got - naive_dft(v))))
        counters_match &= (counters.real_mults, counters.real_adds) == \
            (plan.mult_count, plan.add_count)
        mults += counters.real_mults
        adds += counters.real_adds
    report = verify_plan(plan, trials=7, seed=seed)
    assert np.float64(report.max_error).tobytes() == \
        np.float64(max_error).tobytes()
    assert report.totals == OpCounters(real_mults=mults, real_adds=adds)
    assert (report.counters_match, report.passed) == \
        (counters_match, max_error < default_tolerance(n))


def test_naive_dft_keeps_the_matrices_of_the_last_16_sizes():
    execute._dft_matrix_cached.cache_clear()
    for n in range(1, 21):
        naive_dft(np.ones(n))
    assert execute._dft_matrix_cached.cache_info().currsize == 16


def test_a_second_pass_over_the_sweep_ladder_reuses_every_dft_matrix():
    ladder = (*range(12, 65, 4), 96)  # the benchmark's sweep blocklengths
    execute._dft_matrix_cached.cache_clear()
    for n in ladder:
        naive_dft(np.ones(n))
    hits = execute._dft_matrix_cached.cache_info().hits
    for n in ladder:
        naive_dft(np.ones(n))
    info = execute._dft_matrix_cached.cache_info()
    assert (info.hits - hits, info.misses) == (len(ladder), len(ladder))


def test_verify_plan_is_reproducible():
    plan = compile_plan_for(16)
    a = verify_plan(plan, trials=20, seed=42)
    b = verify_plan(plan, trials=20, seed=42)
    assert a.max_error == b.max_error


def test_verify_plan_rejects_zero_trials():
    with pytest.raises(ValueError):
        verify_plan(compile_plan_for(12), trials=0)


@pytest.mark.parametrize("trials", (-1, 2.5, "3", True, False, None))
def test_verify_plan_rejects_a_trial_count_that_is_not_a_positive_integer(
        trials):
    # 2.5 and "3" raised TypeError from range(), and True ran one trial
    # reported as trials=True
    with pytest.raises(ValueError, match="trials must be an integer >= 1"):
        verify_plan(compile_plan_for(12), trials=trials)


@pytest.mark.parametrize("seed", (1.5, "3", True, -1))
def test_verify_plan_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    # 1.5 and "3" raised numpy's TypeError, and True ran as seed 1
    # reported as seed=True
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        verify_plan(compile_plan_for(12), trials=1, seed=seed)


@pytest.mark.parametrize("tolerance", (float("nan"), 0.0, 0, -1.0,
                                       float("inf"), "1e-9", True, False))
def test_verify_plan_rejects_a_tolerance_that_is_not_finite_and_positive(
        tolerance):
    # NaN, 0 and -1 failed every plan without a word, and True ran as 1.0
    # reported as tolerance=True
    with pytest.raises(ValueError, match="tolerance must be finite and > 0"):
        verify_plan(compile_plan_for(12), trials=1, tolerance=tolerance)


def test_verify_plan_takes_a_numpy_integer_and_any_positive_tolerance():
    report = verify_plan(compile_plan_for(12), trials=np.int64(3),
                         tolerance=np.float32(1e-3), seed=2)
    assert report.trials == 3 and report.passed
    assert report.totals.real_mults == 3 * 8


_NOT_NUMERIC = {
    "str": np.array(["1"] * 12),
    "bytes": np.array([b"1"] * 12),
    "object": np.array([1.0] * 12, dtype=object),
    "str_list": ["1"] * 12,
}


@pytest.mark.parametrize("execute_fn", (execute_real, execute_complex))
@pytest.mark.parametrize("case", list(_NOT_NUMERIC))
def test_execute_refuses_input_that_is_not_numeric(execute_fn, case):
    # a string array was read as the numbers it spells
    with pytest.raises(TypeError, match="expected a numeric vector"):
        execute_fn(compile_plan_for(12), _NOT_NUMERIC[case])


@pytest.mark.parametrize("dtype", (bool, np.int8, np.int64, np.uint16,
                                   np.float32))
def test_execute_reads_bool_integer_and_float_input_as_float(dtype):
    plan = compile_plan_for(12)
    v = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0], dtype=dtype)
    assert execute_real(plan, v)[0].tobytes() == \
        execute_real(plan, v.astype(float))[0].tobytes()
    assert execute_complex(plan, v)[0].tobytes() == \
        execute_complex(plan, v.astype(complex))[0].tobytes()

"""Run compiled plans as numpy scatter-adds, with op counters.

A plan runs off its term lists (plan._Lowered), which it builds on its
first execution and keeps. An execution is

    src = [x, -x, 0.0, p, -p]
    p   = sums(preadd terms of src) * branch constants
    out = sums(output terms of src)

where each sum buffer starts at -0.0 and np.add.at adds src[terms] into
it. ufunc.at is unbuffered and applies its terms one at a time in list
order, and each destination's terms are listed in plan order, so every
sum is -0.0 + t1 + t2 + ... left to right. -0.0 is the exact additive
identity (from +0.0 a sum of -0.0 terms would come out +0.0), so the
outputs are bit for bit those of a term-by-term evaluation.

_run is the one execution, one call per real vector. Each entry point
checks its arguments once and then calls it: execute_real on its
vector, execute_complex on the real and on the imaginary part, and
verify_plan on each trial, which it compares with naive_dft's cached
matrix directly.

The counters are the counts of the term lists, under FftPlan's count
convention; lowering refuses a plan whose mult_count or add_count
differs from them. No plan matrix holds an entry other than +1 or -1:
UnitMatrix refuses one when the matrix is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral, Real

import numpy as np

from .decomposition import dft_matrix
from .plan import FftPlan, _Lowered

# a DFT matrix is 16 N^2 bytes: a cycle through up to 16 blocklengths
# reuses every matrix, and a scan over more sizes keeps only the last 16
_dft_matrix_cached = lru_cache(maxsize=16)(dft_matrix)


def naive_dft(v) -> np.ndarray:
    """Direct O(N^2) DFT, V_k = sum_n v_n exp(-2j*pi*k*n/N).

    The correctness oracle every plan is checked against.
    """
    vec = np.asarray(v, dtype=complex)
    if vec.ndim != 1 or vec.size < 1:
        raise ValueError("expected a nonempty 1-D vector")
    return _dft_matrix_cached(vec.size) @ vec


@dataclass
class OpCounters:
    """Floating-point operations observed during one or more executions."""

    real_mults: int = 0
    real_adds: int = 0


def _run(lowered: _Lowered, x: np.ndarray) -> np.ndarray:
    """The 2N plan outputs (real parts, then imaginary) for the real
    vector x."""
    n = x.size
    rank = lowered.constants.size
    src = np.empty(2 * n + 1 + 2 * rank)
    src[:n] = x
    np.negative(x, out=src[n:2 * n])
    src[2 * n] = 0.0
    p = src[2 * n + 1:2 * n + 1 + rank]
    np.multiply(_sums(rank, lowered.pre_dest, src[lowered.pre_src]),
                lowered.constants, out=p)
    np.negative(p, out=src[2 * n + 1 + rank:])
    return _sums(2 * n, lowered.out_dest, src[lowered.out_src])


def _sums(size: int, dest: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """size sums, each of its terms in list order, starting from -0.0."""
    out = np.full(size, -0.0)
    np.add.at(out, dest, terms)
    return out


def _numeric(v) -> np.ndarray:
    """v as an array; TypeError unless it holds bools or numbers."""
    vec = np.asarray(v)
    if vec.dtype.kind not in "biufc":
        raise TypeError(f"expected a numeric vector, not one of dtype "
                        f"{vec.dtype}")
    return vec


def _spectrum(out: np.ndarray, n: int) -> np.ndarray:
    """The N complex DFT values of a real run's 2N outputs."""
    return out[:n] + 1j * out[n:]


def execute_real(plan: FftPlan, v) -> tuple[np.ndarray, OpCounters]:
    """Apply the plan to a real vector; returns (DFT values, counters).
    Bool, integer and float input is read as float; complex input and
    input that is not numeric are a TypeError."""
    vec = _numeric(v)
    if vec.dtype.kind == "c":
        raise TypeError("execute_real takes a real vector; "
                        "use execute_complex for complex input")
    vec = vec.astype(float, copy=False)
    if vec.ndim != 1 or vec.size != plan.n:
        raise ValueError(f"expected a real vector of length {plan.n}")
    lowered = plan._term_lists
    return (_spectrum(_run(lowered, vec), plan.n),
            OpCounters(real_mults=lowered.mults, real_adds=lowered.adds))


def execute_complex(plan: FftPlan, v) -> tuple[np.ndarray, OpCounters]:
    """Apply the plan to a complex vector by linearity: its input checked
    once, the real and imaginary parts each run through the plan's term
    lists and assembled as execute_real assembles its output, then
    combined as re + 1j * im. Input that is not numeric is a TypeError.
    The counters are those of the two real runs. They leave out the
    2N - 4 real additions that combine the two results into re + 1j * im:
    every output part adds one part of each result, except at k = 0 and
    N/2, where the imaginary part of a real input's DFT is zero."""
    vec = _numeric(v).astype(complex, copy=False)
    if vec.ndim != 1 or vec.size != plan.n:
        raise ValueError(f"expected a vector of length {plan.n}")
    lowered = plan._term_lists
    re_part, im_part = (_spectrum(_run(lowered, part), plan.n)
                        for part in (vec.real, vec.imag))
    return re_part + 1j * im_part, OpCounters(real_mults=2 * lowered.mults,
                                              real_adds=2 * lowered.adds)


def default_tolerance(n: int) -> float:
    """1e-10 through blocklength 32, 1e-9 beyond (deeper accumulation)."""
    return 1e-10 if n <= 32 else 1e-9


@dataclass(frozen=True)
class VerificationReport:
    """Result of comparing plan executions against the direct DFT."""

    n: int
    trials: int
    tolerance: float
    seed: int
    max_error: float
    passed: bool
    counters_match: bool
    mults_per_trial: int
    adds_per_trial: int
    totals: OpCounters = field(repr=False)


# The inputs verify_plan draws at a time: its memory does not grow with
# the trial count
_TRIAL_BLOCK = 256


def _check_integer(name: str, value, low: int) -> None:
    """ValueError unless value is an integer of at least low, not a
    bool."""
    if isinstance(value, bool) or not isinstance(value, Integral) \
            or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def verify_plan(plan: FftPlan, trials: int = 100, tolerance: float | None = None,
                seed: int = 0) -> VerificationReport:
    """Run seeded random real inputs through the plan against naive_dft.

    trials is an integer of at least 1 and seed one of at least 0, and
    tolerance, when given, a finite number above 0, none of them a bool;
    anything else is a ValueError. The arguments are checked once, then
    each trial runs through the plan's term lists (_run) and naive_dft's
    matrix directly, so its outputs and max_error are those of
    execute_real and naive_dft trial by trial.
    Inputs are uniform in [-1, 1] from numpy's default generator, drawn
    _TRIAL_BLOCK rows at a time: successive draws of the generator, so the
    trials are the rows of one (trials, N) draw, in order, and a (plan,
    trials, seed) triple is fully reproducible. An error above the
    tolerance, or a NaN, is reported in the result, never raised.
    counters_match records whether the measured operation counts equal the
    plan's static mult_count/add_count. Every trial measures the same
    counts, those of the plan's term lists, which the executor lowers
    only when they equal the plan's: a plan whose counts or entries it
    refuses raises its ValueError instead.
    """
    _check_integer("trials", trials, 1)
    _check_integer("seed", seed, 0)
    tol = default_tolerance(plan.n) if tolerance is None else tolerance
    if isinstance(tol, bool) or not (isinstance(tol, Real)
                                     and math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and > 0, got {tol!r}")
    n = plan.n
    lowered = plan._term_lists
    dft = _dft_matrix_cached(n)
    rng = np.random.default_rng(seed)
    max_error = 0.0
    for done in range(0, trials, _TRIAL_BLOCK):
        inputs = rng.uniform(-1.0, 1.0, (min(_TRIAL_BLOCK, trials - done), n))
        for v in inputs:
            error = np.abs(_spectrum(_run(lowered, v), n)
                           - dft @ v.astype(complex)).max()
            # ndarray.max and np.maximum keep a NaN, where max() would
            # drop it
            max_error = np.maximum(max_error, error)
    max_error = float(max_error)
    return VerificationReport(
        n=n, trials=trials, tolerance=tol, seed=seed,
        max_error=max_error, passed=max_error < tol,
        counters_match=(lowered.mults, lowered.adds)
        == (plan.mult_count, plan.add_count),
        mults_per_trial=plan.mult_count, adds_per_trial=plan.add_count,
        totals=OpCounters(real_mults=trials * lowered.mults,
                          real_adds=trials * lowered.adds))

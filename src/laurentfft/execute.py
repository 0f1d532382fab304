"""Run compiled plans with instrumented operation counters.

Execution is a fixed straight-line program, read directly off the plan's
SparseRows with no lowering step: the additive stage forms the class-0
contribution with signed accumulation only, then every branch preadds its
input combinations, scales each preadded value once by the branch
constant, and accumulates the postadd pattern onto the real or imaginary
output. Counters are tallied as the work is done, under one documented
convention:

* each branch-constant scaling is one real multiplication, as is any
  application of a matrix entry outside {-1, 0, +1} (none occur for the
  supported blocklengths);
* a preadd or additive row with k nonzero entries costs k - 1 additions
  (the first term initializes the sum), and every nonzero postadd entry
  costs one accumulation addition;
* sign flips and routing by the unit factors 1, -j, -1, j are free.

The program shape never depends on the input, so measured counts are
input-independent and equal the plan's static mult_count/add_count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .decomposition import dft_matrix
from .plan import FftPlan, REAL_OUT, SparseRows

_dft_matrix_cached = lru_cache(maxsize=None)(dft_matrix)


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

    def merge(self, other: "OpCounters") -> None:
        self.real_mults += other.real_mults
        self.real_adds += other.real_adds


def _apply(mat: SparseRows, v: list[float],
           counters: OpCounters) -> list[float]:
    """mat @ v, counting the real multiplications and additions it takes."""
    out = [0.0] * mat.rows
    mults = adds = 0
    for i, row in enumerate(mat.nonzeros):
        acc = None
        for c, x in row:
            if x == 1:
                term = v[c]
            elif x == -1:
                term = -v[c]
            else:
                term = x * v[c]
                mults += 1
            if acc is None:
                acc = term
            else:
                acc += term
                adds += 1
        if acc is not None:
            out[i] = acc
    counters.merge(OpCounters(real_mults=mults, real_adds=adds))
    return out


def execute_real(plan: FftPlan, v) -> tuple[np.ndarray, OpCounters]:
    """Apply the plan to a real vector; returns (DFT values, counters)."""
    vec = np.asarray(v)
    if np.iscomplexobj(vec):
        raise TypeError("execute_real takes a real vector; "
                        "use execute_complex for complex input")
    vec = vec.astype(float, copy=False)
    if vec.ndim != 1 or vec.size != plan.n:
        raise ValueError(f"expected a real vector of length {plan.n}")
    # Python floats: scalar arithmetic on them is much cheaper than on
    # numpy scalars, and rounds the same
    vin = vec.tolist()
    counters = OpCounters()
    re_out = _apply(plan.additive.re_m0, vin, counters)
    im_out = _apply(plan.additive.im_m0, vin, counters)
    for branch in plan.branches:
        constant = branch.constant_value
        scaled = [constant * x for x in _apply(branch.preadd, vin, counters)]
        out = re_out if branch.destination == REAL_OUT else im_out
        sign, flip = branch.sign, -branch.sign
        mults, adds = len(scaled), 0
        for i, row in enumerate(branch.postadd.nonzeros):
            acc = out[i]
            for j, x in row:
                # sign and a +-1 entry are routing; anything else is a mult
                if x == sign:
                    acc += scaled[j]
                elif x == flip:
                    acc -= scaled[j]
                else:
                    acc += sign * x * scaled[j]
                    mults += 1
                adds += 1
            out[i] = acc
        counters.merge(OpCounters(real_mults=mults, real_adds=adds))
    return np.array(re_out) + 1j * np.array(im_out), counters


def execute_complex(plan: FftPlan, v) -> tuple[np.ndarray, OpCounters]:
    """Apply the plan to a complex vector by linearity (two real passes)."""
    vec = np.asarray(v, dtype=complex)
    if vec.ndim != 1 or vec.size != plan.n:
        raise ValueError(f"expected a vector of length {plan.n}")
    out_re, c1 = execute_real(plan, vec.real)
    out_im, c2 = execute_real(plan, vec.imag)
    c1.merge(c2)
    return out_re + 1j * out_im, c1


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


def verify_plan(plan: FftPlan, trials: int = 100, tolerance: float | None = None,
                seed: int = 0) -> VerificationReport:
    """Run seeded random real inputs through the plan against naive_dft.

    Inputs are uniform in [-1, 1] from numpy's default generator, so a
    (plan, trials, seed) triple is fully reproducible. Failures are
    reported in the result, never raised. counters_match records whether
    every trial's measured operation counts equal the plan's static
    mult_count/add_count.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    tol = default_tolerance(plan.n) if tolerance is None else tolerance
    rng = np.random.default_rng(seed)
    max_error = 0.0
    counters_match = True
    totals = OpCounters()
    for _ in range(trials):
        v = rng.uniform(-1.0, 1.0, plan.n)
        got, counters = execute_real(plan, v)
        err = float(np.max(np.abs(got - naive_dft(v))))
        max_error = max(max_error, err)
        if (counters.real_mults != plan.mult_count
                or counters.real_adds != plan.add_count):
            counters_match = False
        totals.merge(counters)
    return VerificationReport(
        n=plan.n, trials=trials, tolerance=tol, seed=seed,
        max_error=max_error, passed=max_error < tol,
        counters_match=counters_match,
        mults_per_trial=plan.mult_count, adds_per_trial=plan.add_count,
        totals=totals)

"""Run compiled plans with instrumented operation counters.

Execution is a fixed straight-line program: the additive stage forms the
class-0 contribution with signed accumulation only, then every branch
preadds its input combinations, scales each preadded value once by the
branch constant, and accumulates the postadd pattern onto the real or
imaginary output. Counters reflect the floating-point work actually done
under one documented convention:

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
from weakref import WeakKeyDictionary

import numpy as np

from .decomposition import dft_matrix
from .plan import FftPlan, REAL_OUT
from .rational import RationalMatrix

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


# Precompiled row: (output index, ((input index, coefficient), ...)).
# Coefficients are floats; +-1.0 applications are sign routing, anything
# else is a counted multiplication.
_Row = tuple[int, tuple[tuple[int, float], ...]]


def _compile_int_rows(mat: np.ndarray) -> tuple[_Row, ...]:
    rows = []
    for i in range(mat.shape[0]):
        support = np.nonzero(mat[i])[0]
        if support.size:
            rows.append((i, tuple((int(c), float(mat[i, c])) for c in support)))
    return tuple(rows)


def _compile_rational_rows(mat: RationalMatrix) -> tuple[_Row, ...]:
    rows = []
    for i, row in enumerate(mat.entries):
        support = tuple((j, float(x)) for j, x in enumerate(row) if x != 0)
        if support:
            rows.append((i, support))
    return tuple(rows)


@dataclass(frozen=True)
class _BranchProgram:
    constant: float
    dest_real: bool
    sign: float
    pre_rows: tuple[_Row, ...]
    n_pre: int
    post_entries: tuple[tuple[int, int, float], ...]


@dataclass(frozen=True)
class _Program:
    n: int
    additive_re: tuple[_Row, ...]
    additive_im: tuple[_Row, ...]
    branches: tuple[_BranchProgram, ...]


_PROGRAMS: "WeakKeyDictionary[FftPlan, _Program]" = WeakKeyDictionary()


def _program_for(plan: FftPlan) -> _Program:
    cached = _PROGRAMS.get(plan)
    if cached is not None:
        return cached
    branches = []
    for b in plan.branches:
        post = tuple((i, j, float(x))
                     for i, row in enumerate(b.postadd.entries)
                     for j, x in enumerate(row) if x != 0)
        branches.append(_BranchProgram(
            constant=b.constant_value,
            dest_real=b.destination == REAL_OUT,
            sign=float(b.sign),
            pre_rows=_compile_rational_rows(b.preadd),
            n_pre=b.preadd.rows,
            post_entries=post))
    program = _Program(n=plan.n,
                       additive_re=_compile_int_rows(plan.additive.re_m0),
                       additive_im=_compile_int_rows(plan.additive.im_m0),
                       branches=tuple(branches))
    _PROGRAMS[plan] = program
    return program


def _accumulate_rows(rows: tuple[_Row, ...], v: np.ndarray, out: np.ndarray,
                     counters: OpCounters) -> None:
    for i, support in rows:
        (c0, x0), rest = support[0], support[1:]
        if x0 == 1.0:
            acc = v[c0]
        elif x0 == -1.0:
            acc = -v[c0]
        else:
            acc = x0 * v[c0]
            counters.real_mults += 1
        for c, x in rest:
            if x == 1.0:
                acc += v[c]
            elif x == -1.0:
                acc -= v[c]
            else:
                acc += x * v[c]
                counters.real_mults += 1
            counters.real_adds += 1
        out[i] = acc


def execute_real(plan: FftPlan, v) -> tuple[np.ndarray, OpCounters]:
    """Apply the plan to a real vector; returns (DFT values, counters)."""
    vec = np.asarray(v)
    if np.iscomplexobj(vec):
        raise TypeError("execute_real takes a real vector; "
                        "use execute_complex for complex input")
    vec = vec.astype(float, copy=False)
    if vec.ndim != 1 or vec.size != plan.n:
        raise ValueError(f"expected a real vector of length {plan.n}")
    program = _program_for(plan)
    counters = OpCounters()
    re_out = np.zeros(plan.n)
    im_out = np.zeros(plan.n)
    _accumulate_rows(program.additive_re, vec, re_out, counters)
    _accumulate_rows(program.additive_im, vec, im_out, counters)
    for branch in program.branches:
        t = np.zeros(branch.n_pre)
        _accumulate_rows(branch.pre_rows, vec, t, counters)
        scaled = np.empty(branch.n_pre)
        for j in range(branch.n_pre):
            scaled[j] = branch.constant * t[j]
        counters.real_mults += branch.n_pre
        out = re_out if branch.dest_real else im_out
        for i, j, x in branch.post_entries:
            # sign and a +-1 entry are routing; anything else is a real mult
            if x != 1.0 and x != -1.0:
                counters.real_mults += 1
            out[i] += branch.sign * x * scaled[j]
            counters.real_adds += 1
    return re_out + 1j * im_out, counters


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

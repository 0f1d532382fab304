"""Run compiled plans as numpy gather-and-sum tables, with op counters.

Each plan is lowered once, on its first execution: np.nonzero reads its
int8 matrices into two gather tables of source indices, one column per
sum with its terms in order down the column: the preadd rows of every
branch, and per output the terms of its row of M_0 (the additive stage)
followed by every postadd term of every branch, in branch order. An
execution is

    src = [x, -x, 0.0, -0.0, p, -p]
    p   = sum(src[preadd]) * branch constants    # column sums
    out = sum(src[output])

A sign flip is a gather from the negated copy. A column shorter than its
table is padded below with the -0.0 slot: x + -0.0 == x bit for bit, so
padding adds are exact no-ops. An empty sum reads the 0.0 slot, and an
output whose row of M_0 is empty starts from it. Every sum starts from
-0.0, the exact additive identity (numpy's default start, +0.0, would
turn a sum of -0.0 terms into +0.0), and np.add.reduce over axis 0 adds
the rows of a table in order (for a table of two or more columns, which
every supported plan's nonempty tables are), so each sum accumulates
left to right, one term at a time.

Counters are counted off the tables, under one documented convention:

* each branch-constant scaling is one real multiplication;
* a preadd or output sum costs one addition per term after its first
  (an output whose row of M_0 is empty starts from 0.0, so each of its
  postadd terms costs one);
* sign flips, routing by the unit factors 1, -j, -1, j and padding adds
  are free.

Lowering raises ValueError for a plan with a matrix entry other than +1
or -1, or whose mult_count/add_count differ from the counts of its
tables. The tables never depend on the input, so measured counts are
input-independent and equal the plan's static counts.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .decomposition import dft_matrix
from .plan import FftPlan, REAL_OUT

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


@dataclass(frozen=True, eq=False)
class _Tables:
    """A plan lowered to gather tables; the counts are per real vector."""

    preadd: np.ndarray  # (width, rank) into [x, -x, 0.0, -0.0, p, -p]
    output: np.ndarray  # (width, 2N) into the same source
    constants: np.ndarray  # (rank, 1)
    mults: int
    adds: int


# keyed by plan identity (FftPlan is eq=False); an entry goes with its plan
_TABLES: weakref.WeakKeyDictionary[FftPlan, _Tables] = \
    weakref.WeakKeyDictionary()

_SIGNED_ZEROS = np.array([[0.0], [-0.0]])


def _terms(mat: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, source index) of every term of the +-1 matrix mat, row by row
    in column order: x[c] is at c and -x[c] at n + c; an empty row reads
    the 0.0 slot at 2n."""
    rows, cols = np.nonzero(mat)
    empty = np.flatnonzero(~mat.any(axis=1))
    return (np.concatenate((rows, empty)),
            np.concatenate((cols + n * (mat[rows, cols] < 0),
                            np.full(empty.size, 2 * n))))


def _table(sums: int, cols: np.ndarray, terms: np.ndarray,
           pad: int) -> np.ndarray:
    """(width, sums) gather table with terms[t] placed in column cols[t],
    each column keeping its terms in order and padded below with pad."""
    counts = np.bincount(cols, minlength=sums)
    order = np.argsort(cols, kind="stable")
    cols = cols[order]
    depth = np.arange(cols.size) - (np.cumsum(counts) - counts)[cols]
    table = np.full((int(counts.max(initial=0)), sums), pad, dtype=np.intp)
    table[depth, cols] = terms[order]
    return table


def _adds(table: np.ndarray, pad: int) -> int:
    """Additions a table's column sums cost: terms other than padding, less
    one per column (a sum of k terms costs k - 1)."""
    return int(np.count_nonzero(table != pad)) - table.shape[1]


def _lower(plan: FftPlan) -> _Tables:
    """The plan's gather tables and their counts; ValueError for a shape
    that does not chain, an entry other than +-1 or a count that differs."""
    n = plan.n
    branches = plan.branches
    for mat in (plan.additive.re_m0, plan.additive.im_m0):
        if mat.shape != (n, n):
            raise ValueError(f"additive stage is {mat.shape}, not {n}x{n}")
    for b in branches:
        if (b.preadd.ndim, b.postadd.shape) != (2, (n, b.rank)) or \
                b.preadd.shape[1] != n:
            raise ValueError(f"branch m={b.m} has a {b.preadd.shape} preadd "
                             f"and a {b.postadd.shape} postadd: the shapes "
                             f"do not chain for N={n}")
    # every branch's preadd rows, then every branch's postadd columns
    m0 = np.concatenate((plan.additive.re_m0, plan.additive.im_m0))
    pre = np.concatenate([np.empty((0, n), np.int8)]
                         + [b.preadd for b in branches])
    post = np.concatenate([np.empty((n, 0), np.int8)]
                          + [b.postadd for b in branches], axis=1)
    # compile_plan and the loader build only unit entries; a hand-built
    # plan may not
    if any(((a != 0) & (a != 1) & (a != -1)).any() for a in (m0, pre, post)):
        raise ValueError("a plan matrix has an entry that is not +1 or -1")
    rank = pre.shape[0]
    pad = 2 * n + 1
    preadd = _table(rank, *_terms(pre, n), pad)
    # output o sums the terms of row o of M_0, then its postadd terms in
    # branch order, each p[k], or -p[k] where the entry is minus its
    # branch's sign
    dest = np.array([0 if b.destination == REAL_OUT else n
                     for b in branches for _ in range(b.rank)], dtype=np.intp)
    sign = np.array([b.sign for b in branches for _ in range(b.rank)],
                    dtype=np.intp)
    constants = np.array([b.constant_value for b in branches
                          for _ in range(b.rank)], dtype=float)
    o, m0_terms = _terms(m0, n)
    i, k = np.nonzero(post)
    output = _table(2 * n, np.concatenate((o, i + dest[k])),
                    np.concatenate((m0_terms, pad + 1 + k
                                    + rank * (post[i, k] != sign[k]))), pad)
    adds = _adds(preadd, pad) + _adds(output, pad)
    if (rank, adds) != (plan.mult_count, plan.add_count):
        raise ValueError(f"plan (mult_count, add_count) "
                         f"{(plan.mult_count, plan.add_count)} differs from "
                         f"the measured (mults, adds) {(rank, adds)} of its "
                         f"tables")
    return _Tables(preadd, output, constants.reshape(rank, 1), rank, adds)


def _lowered(plan: FftPlan) -> _Tables:
    """The plan's tables, lowered on its first execution."""
    tables = _TABLES.get(plan)
    if tables is None:
        tables = _TABLES[plan] = _lower(plan)
    return tables


def _run(tables: _Tables, x: np.ndarray) -> np.ndarray:
    """The 2N plan outputs (real parts, then imaginary) for each column of
    the (N, k) array x."""
    n = x.shape[0]
    rank = tables.constants.shape[0]
    src = np.empty((2 * n + 2 + 2 * rank, x.shape[1]))
    src[:n] = x
    np.negative(x, out=src[n:2 * n])
    src[2 * n:2 * n + 2] = _SIGNED_ZEROS
    p = src[2 * n + 2:2 * n + 2 + rank]
    np.multiply(_sums(src, tables.preadd), tables.constants, out=p)
    np.negative(p, out=src[2 * n + 2 + rank:])
    return _sums(src, tables.output)


def _sums(src: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Every column sum of the table gathered from src, each from -0.0."""
    return np.add.reduce(np.take(src, table, axis=0), axis=0, initial=-0.0)


def execute_real(plan: FftPlan, v) -> tuple[np.ndarray, OpCounters]:
    """Apply the plan to a real vector; returns (DFT values, counters)."""
    vec = np.asarray(v)
    if np.iscomplexobj(vec):
        raise TypeError("execute_real takes a real vector; "
                        "use execute_complex for complex input")
    vec = vec.astype(float, copy=False)
    if vec.ndim != 1 or vec.size != plan.n:
        raise ValueError(f"expected a real vector of length {plan.n}")
    tables = _lowered(plan)
    out = _run(tables, vec[:, None])
    n = plan.n
    return (out[:n, 0] + 1j * out[n:, 0],
            OpCounters(real_mults=tables.mults, real_adds=tables.adds))


def execute_complex(plan: FftPlan, v) -> tuple[np.ndarray, OpCounters]:
    """Apply the plan to a complex vector by linearity, running the real
    and imaginary parts as the two columns of one pass; the counters are
    those of two real vectors."""
    vec = np.asarray(v, dtype=complex)
    if vec.ndim != 1 or vec.size != plan.n:
        raise ValueError(f"expected a vector of length {plan.n}")
    tables = _lowered(plan)
    out = _run(tables, np.stack((vec.real, vec.imag), axis=1))
    n = plan.n
    re_part = out[:n, 0] + 1j * out[n:, 0]
    im_part = out[:n, 1] + 1j * out[n:, 1]
    return (re_part + 1j * im_part,
            OpCounters(real_mults=2 * tables.mults,
                       real_adds=2 * tables.adds))


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
    (plan, trials, seed) triple is fully reproducible. An error above the
    tolerance is reported in the result, never raised. counters_match
    records whether every trial's measured operation counts equal the
    plan's static mult_count/add_count; a plan whose counts or entries the
    executor refuses raises its ValueError instead.
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

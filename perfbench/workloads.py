"""The benchmark's workloads, built on laurentfft's public API only.

Each workload is a closed loop in one thread: the next op starts when the
previous one has returned and been checked. Inputs come from the seed and
are generated before any op is timed. An op's time covers its calls into
laurentfft; the correctness gate runs after the clock stops.

* ``sweep``: one op visits every blocklength of ``LADDER`` once
  (``complexity_for``, ``heideman_bound``, ``compile_plan_for``, a short
  ``verify_plan``, one gated ``execute_real``). Exact algebra dominates.
* ``stream``: one op is a warm ``execute_real`` of the N=64 plan on the
  next pre-generated real vector. No exact algebra after set-up.
* ``reload``: one op loads a saved plan of a seeded blocklength, verifies it
  with a few trials and transforms one complex vector. JSON parsing,
  program lowering on a fresh plan object, the naive oracle and the
  complex path dominate.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter_ns

import numpy as np

from calibrate import calibration_ns
from gate import Tally, check_equal, check_output, heideman_reference, tolerance

LADDER = tuple(range(12, 65, 4)) + (96,)
SWEEP_VERIFY_TRIALS = 2
STREAM_N = 64
STREAM_POOL = 4096
STREAM_WARM = 32
RELOAD_SIZES = (12, 28, 32, 60, 64)
RELOAD_TRIALS = 3
RELOAD_PICKS = 1000
RELOAD_POOL = 64


def load_package(src: Path):
    """Import laurentfft from ``src`` and refuse any other copy."""
    src = src.resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import laurentfft
    location = Path(laurentfft.__file__).resolve()
    if src not in location.parents:
        raise ImportError(f"laurentfft was imported from {location}, "
                          f"not from {src}")
    return laurentfft


def _check_transform(problems: list[str], n: int, plan, realized: int,
                     out, ref: np.ndarray, counters) -> float:
    """Gate one real transform: the plan is for n, its static mult count is
    the complexity report's realized total, the measured counters equal the
    static counts, and the output matches np.fft.fft."""
    check_equal(problems, f"N={n} plan.n", plan.n, n)
    check_equal(problems, f"N={n} mult_count vs realized_total",
                plan.mult_count, realized)
    check_equal(problems, f"N={n} measured (mults, adds)",
                (counters.real_mults, counters.real_adds),
                (plan.mult_count, plan.add_count))
    return check_output(problems, out, ref, n)


def _check_verify(problems: list[str], n: int, plan, report,
                  trials: int) -> None:
    if not report.counters_match:
        problems.append(f"N={n}: verify_plan counters do not match the plan")
    check_equal(problems, f"N={n} verify_plan totals",
                (report.totals.real_mults, report.totals.real_adds),
                (trials * plan.mult_count, trials * plan.add_count))
    if not report.max_error < tolerance(n):
        problems.append(f"N={n}: verify_plan error {report.max_error:.3g}")


class SweepInputs:
    """Per-blocklength verify seeds, gate vectors, np.fft references and
    independently computed Heideman bounds for one sweep."""

    def __init__(self, seed: int, index: int, ladder=LADDER):
        rng = np.random.default_rng([seed, index])
        self.ladder = tuple(ladder)
        self.verify_seeds = {n: int(rng.integers(2 ** 31)) for n in ladder}
        self.vectors = {n: rng.uniform(-1.0, 1.0, n) for n in ladder}
        self.refs = {n: np.fft.fft(v) for n, v in self.vectors.items()}
        self.bounds = {n: heideman_reference(n) for n in ladder}


def _gate(tally: Tally, n: int, check) -> None:
    """Record one checked unit; a check that cannot even run fails it."""
    problems: list[str] = []
    try:
        err = check(problems)
    except Exception as exc:  # e.g. a result type lost an attribute
        problems.append(f"N={n}: gate raised {exc!r}")
        err = 0.0
    tally.record(problems, err)


def sweep_once(lf, inputs: SweepInputs, tally: Tally,
               calibration: list[int] | None = None) -> int:
    """Run one sweep; returns its time in ns. Each blocklength step is one
    checked unit of ``tally``. When ``calibration`` is given, two
    calibration times are appended to it before each step and after the
    last one, outside the timed steps."""
    total = 0
    for n in inputs.ladder:
        if calibration is not None:
            calibration += (calibration_ns("sweep"), calibration_ns("sweep"))
        start = perf_counter_ns()
        try:
            report = lf.complexity_for(n)
            bound = lf.heideman_bound(n)
            plan = lf.compile_plan_for(n)
            verify = lf.verify_plan(plan, trials=SWEEP_VERIFY_TRIALS,
                                    seed=inputs.verify_seeds[n])
            out, counters = lf.execute_real(plan, inputs.vectors[n])
        except Exception as exc:  # a crashing step fails, the sweep goes on
            total += perf_counter_ns() - start
            tally.record([f"N={n}: {exc!r}"])
            continue
        total += perf_counter_ns() - start

        def check(problems):
            check_equal(problems, f"N={n} heideman_bound", bound,
                        inputs.bounds[n])
            _check_verify(problems, n, plan, verify, SWEEP_VERIFY_TRIALS)
            tally.counts[n] = (counters.real_mults, counters.real_adds)
            return _check_transform(problems, n, plan, report.realized_total,
                                    out, inputs.refs[n], counters)

        _gate(tally, n, check)
    if calibration is not None:
        calibration += (calibration_ns("sweep"), calibration_ns("sweep"))
    return total


class Stream:
    """Warm single-vector transforms of one compiled plan."""

    def __init__(self, lf, seed: int, n: int = STREAM_N,
                 pool: int = STREAM_POOL):
        self.lf = lf
        self.n = n
        self.plan = lf.compile_plan_for(n)
        self.realized = lf.complexity_for(n).realized_total
        rng = np.random.default_rng(seed)
        self.vectors = rng.uniform(-1.0, 1.0, (pool, n))
        self.refs = np.fft.fft(self.vectors, axis=1)

    def key(self, i: int) -> int:
        return self.n

    def warm(self, tally: Tally) -> int:
        for i in range(STREAM_WARM):
            self.op(i, tally)
        return STREAM_WARM

    def op(self, i: int, tally: Tally) -> int:
        k = i % len(self.vectors)
        start = perf_counter_ns()
        try:
            out, counters = self.lf.execute_real(self.plan, self.vectors[k])
        except Exception as exc:  # counted as a failed op
            elapsed = perf_counter_ns() - start
            tally.record([f"N={self.n}: {exc!r}"])
            return elapsed
        elapsed = perf_counter_ns() - start

        def check(problems):
            tally.counts[self.n] = (counters.real_mults, counters.real_adds)
            return _check_transform(problems, self.n, self.plan, self.realized,
                                    out, self.refs[k], counters)

        _gate(tally, self.n, check)
        return elapsed


class Reload:
    """Load, verify and run saved plans of seeded blocklengths."""

    def __init__(self, lf, seed: int, workdir: Path,
                 sizes=RELOAD_SIZES, picks: int = RELOAD_PICKS):
        self.lf = lf
        self.sizes = tuple(sizes)
        self.paths: dict[int, Path] = {}
        self.static: dict[int, tuple[int, int]] = {}
        self.realized: dict[int, int] = {}
        for n in self.sizes:
            plan = lf.compile_plan_for(n)
            self.static[n] = (plan.mult_count, plan.add_count)
            self.realized[n] = lf.complexity_for(n).realized_total
            self.paths[n] = Path(workdir) / f"plan_{n}.json"
            lf.save_plan(plan, self.paths[n])
        rng = np.random.default_rng(seed)
        # whole permutations keep every blocklength equally frequent
        rounds = -(-picks // len(self.sizes))
        self.order = [int(n) for _ in range(rounds)
                      for n in rng.permutation(self.sizes)][:picks]
        self.verify_seeds = [int(s) for s in rng.integers(2 ** 31, size=picks)]
        self.vectors = {n: rng.uniform(-1.0, 1.0, (RELOAD_POOL, n))
                        + 1j * rng.uniform(-1.0, 1.0, (RELOAD_POOL, n))
                        for n in self.sizes}
        self.refs = {n: np.fft.fft(z, axis=1) for n, z in self.vectors.items()}

    def key(self, i: int) -> int:
        return self.order[i % len(self.order)]

    def warm(self, tally: Tally) -> int:
        """One op per blocklength: the order starts with a permutation."""
        for i in range(len(self.sizes)):
            self.op(i, tally)
        return len(self.sizes)

    def op(self, i: int, tally: Tally) -> int:
        n = self.key(i)
        z = self.vectors[n][i % RELOAD_POOL]
        start = perf_counter_ns()
        try:
            plan = self.lf.load_plan(self.paths[n])
            verify = self.lf.verify_plan(
                plan, trials=RELOAD_TRIALS,
                seed=self.verify_seeds[i % len(self.verify_seeds)])
            out, _ = self.lf.execute_complex(plan, z)
        except Exception as exc:  # a rejected or broken plan fails the op
            elapsed = perf_counter_ns() - start
            tally.record([f"N={n}: {exc!r}"])
            return elapsed
        elapsed = perf_counter_ns() - start

        def check(problems):
            check_equal(problems, f"N={n} plan.n", plan.n, n)
            check_equal(problems, f"N={n} mult_count vs realized_total",
                        plan.mult_count, self.realized[n])
            check_equal(problems, f"N={n} loaded (mults, adds) vs compiled",
                        (plan.mult_count, plan.add_count), self.static[n])
            _check_verify(problems, n, plan, verify, RELOAD_TRIALS)
            tally.counts[n] = (verify.totals.real_mults // RELOAD_TRIALS,
                               verify.totals.real_adds // RELOAD_TRIALS)
            return check_output(problems, out, self.refs[n][i % RELOAD_POOL],
                                n)

        _gate(tally, n, check)
        return elapsed

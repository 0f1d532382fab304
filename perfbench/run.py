"""Run one benchmark workload of laurentfft and print its metrics.

    python3 perfbench/run.py --workload {sweep,stream,reload} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` the last stdout line is a JSON object whose metrics are
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` they are the
per-layer metrics of a traced run (see perfbench/README.md). Earlier lines
are a human-readable report. The exit code is nonzero, with no result
line, when the checkout has no laurentfft sources to benchmark.
"""

import os
import sys
import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "stream", "reload")
SETUP_PROBES = 4  # extra fresh-process set-ups per run; setup_s is a median
# setup_s is scaled to a machine on which the exact-algebra calibration
# kernel takes this long (about its time on an idle 2-core x86 VM), so that
# the machine's speed drift cancels; the raw median is printed beside it.
SETUP_REFERENCE_KERNEL_NS = 4.0e6
SETUP_KERNEL_PASSES = 20
CHILD_TIMEOUT_S = 150
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

END_TO_END_UNITS = {
    "setup_s": "s", "op_cost_cal": "cal", "mults": "count", "adds": "count",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "decomposition.decompose_s": "s", "decomposition.decompose_calls": "count",
    "rational.from_int_matrix_s": "s", "rational.from_int_matrix_calls": "count",
    "rational.rank_factor_s": "s", "rational.rank_factor_calls": "count",
    "rational.rank_s": "s", "rational.rank_calls": "count",
    "rational.vstack_s": "s", "rational.useful_factorization_ratio": "ratio",
    "plan.compile_plan_self_s": "s", "plan.complexity_self_s": "s",
    "plan.branch_matrices_s": "s", "plan.branches": "count",
    "plan.save_plan_s": "s", "plan.load_plan_s": "s", "plan.json_bytes": "bytes",
    "execute.execute_real_s": "s", "execute.first_execute_s": "s",
    "execute.execute_complex_s": "s", "execute.verify_plan_self_s": "s",
    "execute.naive_dft_s": "s", "execute.real_mults": "count",
    "execute.real_adds": "count", "execute.max_abs_err": "abs",
    "bounds.heideman_bound_s": "s", "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}
# what each workload calls an op, for the report's raw-time lines
OP_ALIASES = {
    "sweep": (("sweep_s", "op_p50_ms", 1e-3, "s"),),
    "stream": (("transforms_per_s", "ops_per_s", 1.0, "1/s"),
               ("transform_p50_us", "op_p50_ms", 1e3, "us"),
               ("transform_tail_us", "op_tail_ms", 1e3, "us")),
    "reload": (("reloads_per_s", "ops_per_s", 1.0, "1/s"),
               ("reload_p50_ms", "op_p50_ms", 1.0, "ms"),
               ("reload_tail_ms", "op_tail_ms", 1.0, "ms")),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fresh process that only sets up, or runs one sweep
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--sweep-child", type=int, default=None,
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _child(args: list[str]) -> dict:
    """Run this script in a fresh process; returns its last stdout line."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {args} exited {proc.returncode}")
    return json.loads(lines[-1])


class SweepChildren:
    """The sweep workload as seen from the parent: each op is one sweep in
    a fresh process, so no per-process memo turns a blocklength visited in
    an earlier sweep into a hit."""

    def __init__(self, seed: int):
        self.seed = seed
        self.traced = False
        self.trace = None
        self.costs: list[float] = []

    def key(self, i: int) -> int:
        return 0

    def warm(self, tally) -> int:
        return 0

    def op(self, i: int, tally) -> int:
        from gate import Tally
        from tracing import TraceSummary
        start = time.perf_counter_ns()
        try:
            doc = _child(["--workload", "sweep", "--seed", str(self.seed),
                          "--sweep-child", str(i),
                          "--trace", str(int(self.traced))])
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            tally.record([f"sweep {i}: {exc}"])
            return time.perf_counter_ns() - start
        tally.merge(Tally.from_json(doc["tally"]))
        self.costs.append(doc["cost"])
        if doc["trace"] is not None:
            summary = TraceSummary.from_json(doc["trace"])
            if self.trace is None:
                self.trace = summary
            else:
                self.trace.merge(summary)
        return doc["op_ns"]


def run_sweep_child(lf, args) -> int:
    import workloads
    from gate import Tally
    from tracing import Tracer
    inputs = workloads.SweepInputs(args.seed, args.sweep_child)
    tally = Tally()
    calibration: list[int] = []
    tracer = Tracer() if args.trace else None
    if tracer:
        with tracer:
            op_ns = workloads.sweep_once(lf, inputs, tally, calibration)
    else:
        op_ns = workloads.sweep_once(lf, inputs, tally, calibration)
    print(json.dumps({"op_ns": op_ns,
                      "cost": op_ns / statistics.mean(calibration),
                      "tally": tally.to_json(),
                      "trace": tracer.take().to_json() if tracer else None}))
    return 0


def make_workload(name: str, lf, seed: int, workdir: Path):
    import workloads
    if name == "sweep":
        workloads.SweepInputs(seed, 0)  # the set-up each sweep child repeats
        return SweepChildren(seed)
    if name == "stream":
        return workloads.Stream(lf, seed)
    return workloads.Reload(lf, seed, workdir)


class Loop:
    """Per-op times by op class (a blocklength), each paired with the time
    of the workload's calibration kernel run just before the op."""

    def __init__(self):
        self.times: dict[int, list[int]] = {}
        self.costs: dict[int, list[float]] = {}
        self.calibration: list[int] = []

    def all_times(self) -> list[int]:
        return [t for times in self.times.values() for t in times]

    def run(self, name: str, workload, seconds: float, tally,
            index: int) -> int:
        """Run ops back to back while the next one is expected to end
        within ``seconds`` (at least one op); returns the next op index."""
        from calibrate import calibration_ns
        deadline = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            cal = calibration_ns(name)
            elapsed = workload.op(index, tally)
            key = workload.key(index)
            self.calibration.append(cal)
            self.times.setdefault(key, []).append(elapsed)
            self.costs.setdefault(key, []).append(elapsed / cal)
            index += 1
            now = time.perf_counter()
            if now + (now - start) >= deadline:
                return index


def tail(times_ns: list[int]) -> tuple[str, float, int]:
    """(label, value in ns, samples beyond) for the highest percentile of
    TAIL_LADDER with at least ten samples beyond it; the maximum when no
    percentile has that many."""
    ordered = sorted(times_ns)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * len(ordered)) - 1
        beyond = len(ordered) - 1 - rank
        if beyond >= 10:
            return f"p{p:g}", float(ordered[rank]), beyond
    return "max", float(ordered[-1]), 0


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        loose = ROOT / ".git" / ref[5:]
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, lf) -> dict:
    import numpy as np
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "laurentfft": getattr(lf, "__version__", "unknown"),
            "commit": git_commit()}


def op_cost(workload, loop: Loop) -> float:
    """An op's time in units of the calibration loop's time.

    sweep: the median over the run's sweeps of sweep time over the mean of
    the calibration times taken between that sweep's steps (a sweep lasts
    seconds, so it sees the machine's average speed, which the mean
    estimates). stream and
    reload: per blocklength the median of op time over the time of the
    calibration run just before it, averaged over blocklengths.
    """
    sweep_costs = getattr(workload, "costs", None)
    if sweep_costs:
        return statistics.median(sweep_costs)
    return statistics.mean(statistics.median(costs)
                           for costs in loop.costs.values())


def scaled_setup_s(raw_s: float) -> float:
    """Set-up time scaled by the exact-algebra kernel's speed right after
    set-up (set-up is mostly compiling plans, i.e. Fraction work)."""
    from calibrate import calibration_ns
    kernel_ns = statistics.mean(calibration_ns("sweep")
                                for _ in range(SETUP_KERNEL_PASSES))
    return raw_s * SETUP_REFERENCE_KERNEL_NS / kernel_ns


def end_to_end(setups: list[tuple[float, float]], workload, loop: Loop,
               tally):
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setups),
        "op_cost_cal": op_cost(workload, loop),
        "mults": sum(m for m, _ in tally.counts.values()),
        "adds": sum(a for _, a in tally.counts.values()),
        "peak_rss_mb": peak_rss_mb(),
    }
    times = loop.all_times()
    label, tail_ns, beyond = tail(times)
    raw = {
        "op_p50_ms": statistics.median(times) / 1e6,
        "op_tail_ms": tail_ns / 1e6,
        "ops_per_s": len(times) / (sum(times) / 1e9),
        "calibration_ms": statistics.median(loop.calibration) / 1e6,
        "setup_raw_s": statistics.median(raw for raw, _ in setups),
    }
    notes = {"op_tail_ms": f"{label}, {beyond} samples beyond it, "
                           f"{len(times)} samples",
             "setup_s": f"median of {len(setups)} set-ups, scaled"}
    return metrics, raw, notes


def run(args, lf) -> int:
    import tracing
    from gate import Tally

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    tracer = tracing.Tracer() if args.trace else None
    tally = Tally()
    try:
        if tracer:
            tracer.install()
        workload = make_workload(args.workload, lf, args.seed, workdir)
        index = workload.warm(tally)
        setup = time.perf_counter() - _START
        setup = (setup, scaled_setup_s(setup))
        if args.setup_probe:
            print(json.dumps({"setup": setup, "tally": tally.to_json()}))
            return 0
        loop = Loop()
        if not tracer:
            setups = [setup]
            for _ in range(SETUP_PROBES):
                probe = _child(["--workload", args.workload, "--seed",
                                str(args.seed), "--setup-probe"])
                setups.append(tuple(probe["setup"]))
                tally.merge(Tally.from_json(probe["tally"]))
            loop.run(args.workload, workload, args.seconds, tally, index)
            metrics, raw, notes = end_to_end(setups, workload, loop, tally)
            units = END_TO_END_UNITS
        else:
            tracer.uninstall()
            setup_trace = tracer.take()
            index = loop.run(args.workload, workload, args.seconds / 2, tally,
                             index)
            untraced = loop.all_times()
            workload.traced = True
            traced_loop = Loop()
            with tracer:
                traced_loop.run(args.workload, workload, args.seconds / 2,
                                tally, index)
            traced = traced_loop.all_times()
            ops_trace = tracer.take()
            child_trace = getattr(workload, "trace", None)
            if child_trace is not None:  # spans recorded by sweep children
                ops_trace.merge(child_trace)
            metrics = tracing.per_layer_metrics(
                setup_trace, ops_trace, len(traced), traced, untraced,
                tally.max_err)
            units = PER_LAYER_UNITS
            raw = {}
            notes = {
                "absent": ", ".join(ops_trace.absent) or "none",
                "hook_errors": str(ops_trace.hook_errors),
                "untraced ops": f"{len(untraced)}, median "
                                f"{statistics.median(untraced) / 1e9:.6g} s",
                "traced ops": f"{len(traced)}, median "
                              f"{statistics.median(traced) / 1e9:.6g} s, "
                              f"span self times per op "
                              f"{ops_trace.root_ns / len(traced) / 1e9:.6g} s",
            }
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass

    report(args, lf, metrics, units, raw, notes, tally)
    return 0


RAW_UNITS = {"op_p50_ms": "ms", "op_tail_ms": "ms", "ops_per_s": "1/s",
             "calibration_ms": "ms", "setup_raw_s": "s"}


def report(args, lf, metrics, units, raw, notes, tally) -> None:
    failed_share = tally.failed / max(tally.attempted, 1)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, value in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {value:.6g} {units[name]}{extra}")
    if raw:
        print("  raw wall-clock times (not gated; they follow the machine's "
              "speed):")
        for name, value in raw.items():
            extra = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:40s} {value:.6g} {RAW_UNITS[name]}{extra}")
        for alias, source, scale, unit in OP_ALIASES[args.workload]:
            print(f"  {alias:40s} {raw[source] * scale:.6g} {unit}")
    for name in ("absent", "hook_errors", "untraced ops", "traced ops"):
        if name in notes:
            print(f"  {name}: {notes[name]}")
    print(f"  failed_share {failed_share:.6g} "
          f"({tally.failed} of {tally.attempted} checked units)")
    for problem in tally.problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({"env": environment(args, lf)}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


THREAD_POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")


def main(argv=None) -> int:
    args = parse_args(argv)
    # Pin BLAS and OpenMP pools to one thread before numpy is first
    # imported (by workloads); child processes inherit the setting.
    for var in THREAD_POOL_VARS:
        os.environ[var] = "1"
    import workloads
    try:
        lf = workloads.load_package(ROOT / "src")
    except ImportError as exc:
        print(f"perfbench: cannot import laurentfft from this checkout: {exc}",
              file=sys.stderr)
        return 3
    if args.sweep_child is not None:
        return run_sweep_child(lf, args)
    return run(args, lf)


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in tracing of laurentfft's layers.

The tracer replaces public functions with timing wrappers at the names
their callers look them up by (``laurentfft.plan.rank_factor`` is what
``compile_plan`` calls, ``laurentfft.compile_plan_for`` is what the
benchmark calls), records one span (name, start, end, parent) per call,
and restores the originals on ``uninstall``. Nothing under ``src/``
changes. A target that no longer exists is reported as absent, so the
trace survives refactors that delete or move a function.

Self time of a span is its duration minus the durations of its direct
child spans. Everything here is single-threaded, so spans nest strictly.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
import weakref
from dataclasses import dataclass, field

# (span name, module, attribute path). Package-level names are the
# benchmark's own entry points; the rest are looked up inside laurentfft.
TARGETS = (
    ("plan.complexity_for", "laurentfft", "complexity_for"),
    ("plan.compile_plan_for", "laurentfft", "compile_plan_for"),
    ("plan.save_plan", "laurentfft", "save_plan"),
    ("plan.load_plan", "laurentfft", "load_plan"),
    ("bounds.heideman_bound", "laurentfft", "heideman_bound"),
    ("execute.verify_plan", "laurentfft", "verify_plan"),
    ("execute.execute_real", "laurentfft", "execute_real"),
    ("execute.execute_complex", "laurentfft", "execute_complex"),
    ("decomposition.decompose", "laurentfft.plan", "decompose"),
    ("plan.complexity", "laurentfft.plan", "complexity"),
    ("plan.compile_plan", "laurentfft.plan", "compile_plan"),
    ("plan.branch_matrices", "laurentfft.plan", "branch_matrices"),
    ("rational.rank_factor", "laurentfft.plan", "rank_factor"),
    ("rational.rank", "laurentfft.plan", "rank"),
    ("rational.vstack", "laurentfft.plan", "vstack"),
    ("rational.from_int_matrix", "laurentfft.rational",
     "RationalMatrix.from_int_matrix"),
    ("execute.execute_real", "laurentfft.execute", "execute_real"),
    ("execute.naive_dft", "laurentfft.execute", "naive_dft"),
)

@dataclass
class TraceSummary:
    """Aggregated spans of one phase (set-up, or a run of ops)."""

    calls: dict[str, int] = field(default_factory=dict)
    self_ns: dict[str, int] = field(default_factory=dict)
    incl_ns: dict[str, int] = field(default_factory=dict)
    root_ns: int = 0
    first_exec_ns: list[int] = field(default_factory=list)
    warm_exec_ns: list[int] = field(default_factory=list)
    branches: int = 0
    json_bytes: int = 0
    counts: dict[int, tuple[int, int]] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    hook_errors: int = 0

    def merge(self, other: "TraceSummary") -> None:
        for mine, theirs in ((self.calls, other.calls),
                             (self.self_ns, other.self_ns),
                             (self.incl_ns, other.incl_ns)):
            for name, value in theirs.items():
                mine[name] = mine.get(name, 0) + value
        self.root_ns += other.root_ns
        self.first_exec_ns += other.first_exec_ns
        self.warm_exec_ns += other.warm_exec_ns
        self.branches += other.branches
        self.json_bytes += other.json_bytes
        self.counts.update(other.counts)
        self.absent = sorted(set(self.absent) | set(other.absent))
        self.hook_errors += other.hook_errors

    def to_json(self) -> dict:
        doc = dict(vars(self))
        doc["counts"] = {str(n): list(c) for n, c in self.counts.items()}
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "TraceSummary":
        doc = dict(doc)
        doc["counts"] = {int(n): tuple(c) for n, c in doc["counts"].items()}
        return cls(**doc)


def _resolve(module_name: str, attr_path: str):
    """(owner, attribute name, current value), or None when absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, leaf = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        value = vars(owner).get(leaf)
        return None if value is None else (owner, leaf, value)
    if not hasattr(owner, leaf):
        return None
    return owner, leaf, getattr(owner, leaf)


class Tracer:
    """Installs span-recording wrappers and summarizes what they saw."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._absent: set[str] = set()
        self._seen_plans: weakref.WeakSet = weakref.WeakSet()
        self._extra = TraceSummary()

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for name, module_name, attr_path in self.targets:
            found = _resolve(module_name, attr_path)
            if found is None:
                self._absent.add(f"{module_name}.{attr_path}")
                continue
            owner, leaf, original = found
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(self._wrap(name, original.__func__))
            elif callable(original):
                wrapped = self._wrap(name, original)
            else:
                self._absent.add(f"{module_name}.{attr_path}")
                continue
            self._restore.append((owner, leaf, original))
            setattr(owner, leaf, wrapped)

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            self._observe(name, args, kwargs, result, end - start)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _observe(self, name, args, kwargs, result, duration_ns) -> None:
        """Counts that need the call's arguments or result. A refactor that
        changes a signature or result shape is tallied, never raised."""
        extra = self._extra
        try:
            if name == "plan.compile_plan":
                extra.branches += len(result.branches)
            elif name == "plan.load_plan":
                path = args[0] if args else kwargs["path"]
                extra.json_bytes += os.path.getsize(path)
            elif name == "execute.execute_real":
                plan = args[0] if args else kwargs["plan"]
                counters = result[1]
                extra.counts[plan.n] = (counters.real_mults,
                                        counters.real_adds)
                if plan in self._seen_plans:
                    extra.warm_exec_ns.append(duration_ns)
                else:
                    self._seen_plans.add(plan)
                    extra.first_exec_ns.append(duration_ns)
        except (AttributeError, IndexError, KeyError, TypeError, OSError):
            extra.hook_errors += 1

    def take(self) -> TraceSummary:
        """Summarize and forget the spans recorded so far."""
        if self._stack:
            raise RuntimeError("cannot summarize while a span is open")
        out = self._extra
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
            else:
                out.root_ns += end - start
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            out.calls[name] = out.calls.get(name, 0) + 1
            out.incl_ns[name] = out.incl_ns.get(name, 0) + end - start
            out.self_ns[name] = out.self_ns.get(name, 0) + end - start - inner
        out.absent = sorted(self._absent)
        self.spans.clear()
        self._extra = TraceSummary()
        return out


def _median_s(values_ns: list[int]) -> float:
    return statistics.median(values_ns) / 1e9 if values_ns else 0.0


def per_layer_metrics(setup: TraceSummary, ops: TraceSummary, n_ops: int,
                      traced_op_ns: list[int], untraced_op_ns: list[int],
                      max_err: float) -> dict[str, float]:
    """Per-layer figures for the set-up plus one op.

    Times and counts are the set-up total plus the per-op mean of the
    traced ops; execute_real_s and first_execute_s are medians per call.
    """
    per_op = 1.0 / max(n_ops, 1)

    def calls(name):
        return setup.calls.get(name, 0) + ops.calls.get(name, 0) * per_op

    def seconds(table, *names):
        return sum(getattr(setup, table).get(name, 0)
                   + getattr(ops, table).get(name, 0) * per_op
                   for name in names) / 1e9

    branches = setup.branches + ops.branches * per_op
    factorizations = calls("rational.rank") + calls("rational.rank_factor")
    counts = {**setup.counts, **ops.counts}
    traced_total = sum(traced_op_ns)
    return {
        "decomposition.decompose_s": seconds("self_ns", "decomposition.decompose"),
        "decomposition.decompose_calls": calls("decomposition.decompose"),
        "rational.from_int_matrix_s": seconds("self_ns", "rational.from_int_matrix"),
        "rational.from_int_matrix_calls": calls("rational.from_int_matrix"),
        "rational.rank_factor_s": seconds("self_ns", "rational.rank_factor"),
        "rational.rank_factor_calls": calls("rational.rank_factor"),
        "rational.rank_s": seconds("self_ns", "rational.rank"),
        "rational.rank_calls": calls("rational.rank"),
        "rational.vstack_s": seconds("self_ns", "rational.vstack"),
        "rational.useful_factorization_ratio":
            branches / factorizations if factorizations else 0.0,
        "plan.compile_plan_self_s": seconds(
            "self_ns", "plan.compile_plan", "plan.compile_plan_for"),
        "plan.complexity_self_s": seconds(
            "self_ns", "plan.complexity", "plan.complexity_for"),
        "plan.branch_matrices_s": seconds("self_ns", "plan.branch_matrices"),
        "plan.branches": branches,
        "plan.save_plan_s": seconds("incl_ns", "plan.save_plan"),
        "plan.load_plan_s": seconds("incl_ns", "plan.load_plan"),
        "plan.json_bytes": setup.json_bytes + ops.json_bytes * per_op,
        "execute.execute_real_s": _median_s(setup.warm_exec_ns
                                            + ops.warm_exec_ns),
        "execute.first_execute_s": _median_s(setup.first_exec_ns
                                             + ops.first_exec_ns),
        "execute.execute_complex_s": seconds("incl_ns",
                                             "execute.execute_complex"),
        "execute.verify_plan_self_s": seconds("self_ns", "execute.verify_plan"),
        "execute.naive_dft_s": seconds("self_ns", "execute.naive_dft"),
        "execute.real_mults": sum(m for m, _ in counts.values()),
        "execute.real_adds": sum(a for _, a in counts.values()),
        "execute.max_abs_err": max_err,
        "bounds.heideman_bound_s": seconds("self_ns", "bounds.heideman_bound"),
        "trace.overhead_s": _median_s(traced_op_ns) - _median_s(untraced_op_ns),
        "trace.unattributed_s": (traced_total - ops.root_ns) * per_op / 1e9,
    }

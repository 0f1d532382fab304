"""Command-line front end.

Subcommands: ``classes`` and ``matrices`` inspect the decomposition,
``complexity`` and ``bounds`` print count tables, ``table`` reproduces the
two fixed summary tables, ``plan`` exports a JSON plan, ``verify`` checks a
compiled plan, or with ``--plan FILE`` a saved one after the certifying
loader accepts it, against the direct DFT, and ``bench`` times plan
execution against it.

Exit codes: 0 on success, 1 when a verification run fails its tolerance,
2 on usage errors, unsupported blocklengths or a plan file the loader
rejects. Numeric output is fixed format (integers as integers, errors as
3-significant-digit scientific notation) so table output is byte-stable
for regression tests.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bounds import (RADER_BRENNER_REAL_MULTS, RADIX2_REAL_MULTS, bounds_row,
                     nlog2n_rounded)
from .decomposition import (class_indices, class_members, class_tables,
                            exponent_matrix)
from .execute import execute_real, naive_dft, verify_plan
from .plan import compile_plan_for, complexity_for, load_plan, save_plan
from .rational import RationalMatrix, rref

_COEFFS = "(1, -j, -1, j)"


def _parse_blocklengths(tokens: list[str], step: int) -> list[int]:
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    out: list[int] = []
    for tok in tokens:
        if ".." in tok:
            a, _, b = tok.partition("..")
            start, stop = int(a), int(b)
            if stop < start:
                raise ValueError(f"empty range {tok!r}")
            out.extend(range(start, stop + 1, step))
        else:
            out.append(int(tok))
    return out


def cmd_classes(args) -> int:
    n = args.N
    indices = class_indices(n)
    print(f"blocklength {n}: {len(indices)} classes (genus {n // 4})")
    for m in indices:
        members = ", ".join(str(x) for x in class_members(n, m))
        print(f"C[{m}]: members ({members}), coefficients {_COEFFS}")
    return 0


def _print_matrix(rows) -> None:
    """Print rows (ints or Fractions) right-aligned to one column width."""
    if not rows:
        print("  (no rows)")
        return
    width = max(len(str(x)) for row in rows for x in row)
    for row in rows:
        print("  " + " ".join(str(x).rjust(width) for x in row))


def cmd_matrices(args) -> int:
    exp = exponent_matrix(args.N)
    indices = class_indices(args.N) if args.m is None else (args.m,)
    for m in indices:
        re, im = class_tables(args.N, m)  # raises ValueError for a bad --m
        for name, mat in (("re", re[exp]), ("im", im[exp])):
            reduced = rref(RationalMatrix.from_int_matrix(mat))
            print(f"M[{m}] {name} rank={reduced.rank}")
            _print_matrix(mat.tolist())
            print(f"M[{m}] {name} rref:")
            _print_matrix(reduced.rref.entries)
    return 0


@dataclass
class _Row:
    """One table row's blocklength; its complexity report and bounds row
    are each computed once, when a cell first reads them."""

    n: int
    report = cached_property(lambda row: complexity_for(row.n))
    bounds = cached_property(lambda row: bounds_row(row.n))


def _mu_r(row: _Row):
    """The Heideman-Burrus bound, or "-" where it is not defined (N not a
    power of two)."""
    mu_r = row.bounds.heideman_burrus_mu
    return "-" if mu_r is None else mu_r


# (header, width, cell) of each table column. nlog2n is computed from N,
# so a row reaches complexity_for, which refuses a huge N at once, before
# heideman_bound, which factorizes N and runs long on a huge prime factor
_N = ("N", 4, lambda row: row.n)
_NLOG2N = ("nlog2n", 8, lambda row: nlog2n_rounded(row.n))
_MULTS = ("mults", 8, lambda row: row.report.realized_total)
_MU_DFT = ("mu_DFT", 8, lambda row: row.bounds.heideman_mu)
_COMPLEXITY = (_N, _NLOG2N, _MULTS,
               ("stacked", 9, lambda row: row.report.stacked_total),
               _MU_DFT, ("mu_r", 8, _mu_r))
_BOUNDS = (_N, _NLOG2N, _MU_DFT, ("mu_r", 8, _mu_r))
# table --which: the columns and blocklengths of each fixed summary table
_FIXED_TABLES = {
    1: ((_N, _NLOG2N, _MULTS), range(12, 61, 8)),
    2: ((_N, _NLOG2N, ("radix2", 8, lambda row: RADIX2_REAL_MULTS[row.n]),
         ("rader_brenner", 15, lambda row: RADER_BRENNER_REAL_MULTS[row.n]),
         ("mu_r", 6, _mu_r),
         ("laurent", 9, lambda row: row.report.realized_total)),
        (8, 16, 32, 64)),
}


def _print_table(columns, ns) -> None:
    """Print the headers of columns, each a (header, width, cell) triple,
    then one row per blocklength in ns, every value right-aligned to its
    column's width; a value after the first that fills or overflows its
    width gets one leading space, so it never runs into its neighbour.
    Every row is built, its cells left to right, before anything is
    printed, so a blocklength that raises prints nothing."""
    (_, first, _), *rest = columns
    rows = [[cell(row) for _, _, cell in columns] for row in map(_Row, ns)]
    for head, *tail in [[header for header, _, _ in columns], *rows]:
        print(f"{head:>{first}}" + "".join(
            f"{' ' + str(value):>{width}}"
            for value, (_, width, _) in zip(tail, rest)))


def cmd_complexity(args) -> int:
    _print_table(_COMPLEXITY, _parse_blocklengths(args.N, args.step))
    return 0


def cmd_bounds(args) -> int:
    _print_table(_BOUNDS, _parse_blocklengths(args.N, args.step))
    return 0


def cmd_table(args) -> int:
    _print_table(*_FIXED_TABLES[args.which])
    return 0


def cmd_plan(args) -> int:
    plan = compile_plan_for(args.N)
    save_plan(plan, args.output)
    print(f"wrote {args.output}: N={plan.n} branches={len(plan.branches)} "
          f"mult_count={plan.mult_count} add_count={plan.add_count}")
    return 0


def cmd_verify(args) -> int:
    plan = (compile_plan_for(args.N) if args.plan is None
            else load_plan(args.plan))
    report = verify_plan(plan, trials=args.trials, tolerance=args.tol,
                         seed=args.seed)
    print(f"N={report.n} trials={report.trials} seed={report.seed} "
          f"tolerance={report.tolerance:.2e}")
    print(f"max_error={report.max_error:.2e}")
    print(f"mults_per_trial={report.mults_per_trial} "
          f"adds_per_trial={report.adds_per_trial} "
          f"counters_match={'yes' if report.counters_match else 'no'}")
    if report.passed and report.counters_match:
        print("PASS")
        return 0
    print("FAIL")
    return 1


def cmd_bench(args) -> int:
    if args.reps < 1:
        raise ValueError("reps must be >= 1")
    n = args.N
    plan = compile_plan_for(n)
    rng = np.random.default_rng(args.seed)
    v = rng.uniform(-1.0, 1.0, n)
    execute_real(plan, v)  # untimed warm-up of both sides
    naive_dft(v)
    plan_times = []
    naive_times = []
    for _ in range(args.reps):
        t0 = time.perf_counter()
        execute_real(plan, v)
        plan_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        naive_dft(v)
        naive_times.append(time.perf_counter() - t0)
    naive_mults = 4 * n * n  # one complex product = 4 real mults
    print(f"N={n} reps={args.reps}")
    print(f"plan_median_s={statistics.median(plan_times):.2e} "
          f"naive_median_s={statistics.median(naive_times):.2e}")
    print(f"plan_real_mults={plan.mult_count} naive_real_mults={naive_mults} "
          f"mult_ratio={plan.mult_count / naive_mults:.4f}")
    return 0


def _add_blocklength_list(sub) -> None:
    sub.add_argument("N", nargs="+",
                     help="blocklengths; plain integers or a..b ranges")
    sub.add_argument("--step", type=int, default=4,
                     help="stride for a..b ranges (default 4)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laurentfft",
        description="Fast DFT plans from the residue-class decomposition "
                    "of the exponent grid.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classes", help="list the residue classes")
    p.add_argument("N", type=int)
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("matrices", help="dump class matrices and their rrefs")
    p.add_argument("N", type=int)
    p.add_argument("--m", type=int, default=None,
                   help="single class index (default: all)")
    p.set_defaults(func=cmd_matrices)

    p = sub.add_parser("complexity", help="multiplication-count table")
    _add_blocklength_list(p)
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("bounds", help="lower-bound table")
    _add_blocklength_list(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("table", help="fixed summary tables")
    p.add_argument("--which", type=int, choices=(1, 2), required=True)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("plan", help="compile a plan and write it as JSON")
    p.add_argument("N", type=int)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("verify", help="check a plan against the direct DFT")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("N", type=int, nargs="?",
                        help="compile the plan for this blocklength")
    source.add_argument("--plan", metavar="FILE",
                        help="load a saved plan through the certifying "
                             "loader instead")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time plan execution vs the direct DFT")
    p.add_argument("N", type=int)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

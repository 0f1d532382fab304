"""Compile a plan, execute it, verify it, and round-trip it through JSON.

A plan is a straight-line program: one additive stage plus a list of
rank-factored branches. It can be saved as a JSON document and reloaded
elsewhere; the reloaded plan performs the identical sequence of floating
point operations, so outputs match bit for bit.
"""

import tempfile
from pathlib import Path

import numpy as np

from laurentfft import (compile_plan_for, execute_complex, execute_real,
                        load_plan, naive_dft, save_plan, verify_plan)

plan = compile_plan_for(16)
print(f"plan for N=16: mult_count={plan.mult_count} "
      f"add_count={plan.add_count} branches={len(plan.branches)}")

rng = np.random.default_rng(7)
v = rng.uniform(-1, 1, 16)
out, counters = execute_real(plan, v)
print(f"real input:    max err = {np.max(np.abs(out - naive_dft(v))):.2e}, "
      f"mults = {counters.real_mults}, adds = {counters.real_adds}")

z = rng.uniform(-1, 1, 16) + 1j * rng.uniform(-1, 1, 16)
out_z, counters_z = execute_complex(plan, z)
print(f"complex input: max err = {np.max(np.abs(out_z - naive_dft(z))):.2e}, "
      f"mults = {counters_z.real_mults} (twice the real-input count)")

report = verify_plan(plan, trials=200, seed=99)
print(f"verification:  {report.trials} trials, max error "
      f"{report.max_error:.2e} vs tolerance {report.tolerance:.0e} -> "
      f"{'PASS' if report.passed else 'FAIL'}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "plan16.json"
    save_plan(plan, path)
    print(f"saved {path.name}: {path.stat().st_size} bytes")
    reloaded = load_plan(path)
    again, _ = execute_real(reloaded, v)
    print("reloaded plan output identical bit-for-bit:",
          bool(np.array_equal(out, again)))

"""The complete blocklength-12 story, from class matrices to 8 multiplies.

N=12 has three classes: C[0] (the additive part, multiplication-free),
and the pair C[1], C[-1]. The paired combinations Re(M1)+-Re(M-1) and
Im(M1)+-Im(M-1) have exact ranks 1, 1, 3, 3, and each rank costs one
multiplication by cos(pi/6) or sin(pi/6), so the whole transform of a real
input needs 2*(1+3) = 8 real multiplications.
"""

import numpy as np

from laurentfft import (RationalMatrix, branch_matrices, class_indices,
                        class_tables, compile_plan_for, decompose,
                        execute_real, naive_dft, rref)


def show_rref(name, mat):
    reduced = rref(RationalMatrix.from_int_matrix(mat))
    print(f"{name}: rank {reduced.rank}")
    for row in reduced.rref.entries:
        print("   ", " ".join(f"{str(x):>2}" for x in row))


dec = decompose(12)
print("class matrix ranks:")
for m in class_indices(12):
    # class m's matrix is its (re, im) tables read at the exponent grid
    re, im = (t[dec.exponents] for t in class_tables(12, m))
    re_rank = rref(RationalMatrix.from_int_matrix(re)).rank
    im_rank = rref(RationalMatrix.from_int_matrix(im)).rank
    print(f"  M[{m:>2}]: rank(re) = {re_rank}, rank(im) = {im_rank}")
print()

bm = branch_matrices(dec, 1)
show_rref("Re(M1) + Re(M-1)", bm["re_sum"])
show_rref("Re(M1) - Re(M-1)", bm["re_diff"])
show_rref("Im(M1) + Im(M-1)", bm["im_sum"])
show_rref("Im(M1) - Im(M-1)", bm["im_diff"])
print()

plan = compile_plan_for(12)
print(f"compiled plan: {len(plan.branches)} branches, "
      f"{plan.mult_count} multiplications, {plan.add_count} additions")
for b in plan.branches:
    print(f"  m={b.m} {b.constant_kind:>10} -> {b.destination:<8} "
          f"sign {b.sign:+d}, rank {b.rank}, constant {b.constant_value:.6f}")
print()

# each preadd row is a signed sum of inputs, formed before the branch's
# one multiplication per row
print("preadd rows as signed input sums:")
for b in plan.branches:
    pre = b.preadd
    for row in range(b.rank):
        at = pre.rows == row
        terms = " ".join(f"{'+' if s > 0 else '-'}v{c}"
                         for c, s in zip(pre.cols[at], pre.signs[at]))
        print(f"  {b.constant_kind:>6} -> {b.destination:<8} {terms}")
print()

# run it against the direct definition
rng = np.random.default_rng(12)
v = rng.uniform(-1, 1, 12)
out, counters = execute_real(plan, v)
err = np.max(np.abs(out - naive_dft(v)))
print(f"random input: max error vs direct DFT = {err:.2e}, "
      f"multiplications used = {counters.real_mults}")

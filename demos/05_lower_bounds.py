"""Realized multiplication counts next to the classical lower bounds.

Two bounds are printed: the Heideman bound mu_DFT(N), defined for every
length through the totient/divisor structure of N, and the Heideman-Burrus
bound mu_r(N) = 4N - 2((log2 N)^2 + log2 N + 2) for powers of two. The two
bounds count different things (complex vs real multiplications), so the
table reports them side by side with the realized counts and draws no
conclusion from the comparison.
"""

from laurentfft import (bounds_row, complexity_for, euler_totient,
                        heideman_bound, nlog2n_rounded)

print("totient warm-up: phi(n) for n = 1..12:",
      [euler_totient(n) for n in range(1, 13)])
print()

print(f"{'N':>4} {'nlog2n':>7} {'realized':>9} {'mu_DFT':>7} {'mu_r':>6}")
for n in range(4, 65, 4):
    row = bounds_row(n)
    realized = complexity_for(n).realized_total
    mu_r = "-" if row.heideman_burrus_mu is None else row.heideman_burrus_mu
    print(f"{n:>4} {nlog2n_rounded(n):>7} {realized:>9} "
          f"{row.heideman_mu:>7} {mu_r:>6}")

print()
print("mu_DFT at small lengths (exact nested-sum evaluation):")
print({n: heideman_bound(n) for n in range(1, 17)})

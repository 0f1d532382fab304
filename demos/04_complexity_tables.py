"""Multiplication counts across blocklengths, three ways at once.

For every supported blocklength the count is computed as (a) the sum of
the four combination-matrix ranks per class, (b) the stacked-rank form
that would detect rank shared between real and imaginary families, and
(c) the doubled real-family form that assumes sum and difference ranks
match. The three agree everywhere up to 64; the table prints them so you
can see that rather than take it on faith.
"""

from laurentfft import complexity_for, nlog2n_rounded

print(f"{'N':>4} {'nlog2n':>7} {'realized':>9} {'stacked':>8} "
      f"{'simplified':>11}  per-class ranks (re_sum, re_diff, im_sum, im_diff)")
for n in range(4, 65, 4):
    r = complexity_for(n)
    ranks = "  ".join(
        f"m={row.m}:({row.rank_re_sum},{row.rank_re_diff},"
        f"{row.rank_im_sum},{row.rank_im_diff})"
        + ("*" if row.kind == "asymmetric" else "")
        for row in r.per_class)
    print(f"{n:>4} {nlog2n_rounded(n):>7} {r.realized_total:>9} "
          f"{r.stacked_total:>8} {r.simplified_total:>11}  {ranks}")

print()
print("* asymmetric class (m = N/8): only (Re+Im) and (Im-Re) exist, both")
print("  scaled by sqrt(2)/2; None marks the slots that do not apply.")
print()

agree = all(
    (lambda r: r.realized_total == r.stacked_total == r.simplified_total)(
        complexity_for(n))
    for n in range(4, 65, 4))
print("all three count forms agree for every 4 | N <= 64:", agree)

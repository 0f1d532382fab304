"""Number-theoretic lower bounds on DFT multiplication counts.

Two classical bounds frame the realized counts of the plan compiler: the
Heideman bound mu_DFT(N), valid for any length and phrased through the
totient/divisor structure of N, and the Heideman-Burrus bound mu_r(N) for
power-of-two lengths. Neither is derived here; both are evaluated exactly
so tables can print them next to the realized counts. The two bounds use
different multiplication conventions (complex vs real), so no comparison
between them and the realized counts is asserted anywhere, only reported.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass


# factorize divides by every d below this; a part left at least its square
# could hold a prime factor as large as its square root, which trial
# division would take hours to reach
_TRIAL_LIMIT = 10**6


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization as ((p, e), ...) with p ascending, by trial
    division below _TRIAL_LIMIT: ValueError for an n that it leaves with a
    part of at least _TRIAL_LIMIT^2, which may not be prime."""
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    rest = n
    d = 2
    while d * d <= rest:
        if d == _TRIAL_LIMIT:
            raise ValueError(f"cannot factor N={n}: its part {rest} has no "
                             f"prime factor below 10^6 and is at least "
                             f"10^12, past what trial division reaches")
        e = 0
        while rest % d == 0:
            rest //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if rest > 1:
        out.append((rest, 1))
    return tuple(out)


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending, built from its prime
    factorization: as slow as factorize on a large prime factor, and
    otherwise a few steps per divisor."""
    out = [1]
    for p, e in factorize(n):
        out = [d * p ** i for d in out for i in range(e + 1)]
    return tuple(sorted(out))


def euler_totient(n: int) -> int:
    """Count of integers in [1, n] coprime to n."""
    r = n
    for p, _ in factorize(n):
        r -= r // p
    return r


def heideman_bound(n: int) -> int:
    """Minimal multiplication count for an exact length-n DFT.

    With n = prod p_k^e_k, sum over all tuples (i_1..i_m), 0 <= i_k <= e_k:
    each tuple contributes phi(gcd(prod p_k^i_k, 4)) times (1 + an inner
    sum over divisor tuples (d_1..d_m), d_k | phi(p_k^i_k)/phi(gcd(p_k^i_k, 4)),
    of prod phi(d_k) / phi(lcm(d_1..d_m))). The bound is 2n minus that
    total. The inner sums are rational term by term but the total per
    tuple is an integer; each is summed exactly in integers, its terms
    first grouped by their denominator phi(lcm) and then brought to the
    least common denominator, which must divide the total: checkable
    instead of trusting float division. Each totient is computed once per
    call.
    """
    phi: dict[int, int] = {}

    def totient(k: int) -> int:
        if k not in phi:
            phi[k] = euler_totient(k)
        return phi[k]

    # per prime, per exponent i: p^i and the divisors d of
    # phi(p^i)/phi(gcd(p^i, 4)), each with phi(d)
    choices = [[(p ** i, [(d, totient(d)) for d in divisors(
                    totient(p ** i) // totient(math.gcd(p ** i, 4)))])
                for i in range(e + 1)]
               for p, e in factorize(n)]
    total = 0
    for parts in itertools.product(*choices):
        g = totient(math.gcd(math.prod(q for q, _ in parts), 4))
        by_lcm: dict[int, int] = {}
        for dtuple in itertools.product(*(divs for _, divs in parts)):
            lcm = math.lcm(*(d for d, _ in dtuple), 1)
            by_lcm[lcm] = by_lcm.get(lcm, 0) + math.prod(t for _, t in dtuple)
        # the inner sum over the least common denominator of its terms
        den = math.lcm(*map(totient, by_lcm))
        num = sum(s * (den // totient(lcm)) for lcm, s in by_lcm.items())
        assert num % den == 0
        total += g * (1 + num // den)
    return 2 * n - total


class NotPowerOfTwoError(ValueError):
    """Raised when a power-of-two-only bound is asked for another length."""


def is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def heideman_burrus_bound(n: int) -> int:
    """Minimal real-multiplication count for a length-2^k DFT:
    4n - 2((log2 n)^2 + log2 n + 2)."""
    if n < 2 or not is_power_of_two(n):
        raise NotPowerOfTwoError(f"{n} is not a power of two >= 2")
    lg = n.bit_length() - 1
    return 4 * n - 2 * (lg * lg + lg + 2)


def nlog2n_rounded(n: int) -> int:
    """n * log2(n) rounded to the nearest integer, the usual FFT yardstick."""
    if n < 1:
        raise ValueError("n must be positive")
    return int(math.floor(n * math.log2(n) + 0.5))


@dataclass(frozen=True)
class BoundsRow:
    """All bound values for one blocklength; heideman_burrus_mu is None
    unless n is a power of two."""

    n: int
    heideman_mu: int
    heideman_burrus_mu: int | None


def bounds_row(n: int) -> BoundsRow:
    hb = heideman_burrus_bound(n) if n >= 2 and is_power_of_two(n) else None
    return BoundsRow(n=n, heideman_mu=heideman_bound(n),
                     heideman_burrus_mu=hb)


# Display-only comparison columns: real nontrivial multiplication counts of
# two standard power-of-two FFTs. Stored, not computed; those algorithms
# are out of scope here.
RADIX2_REAL_MULTS = {8: 4, 16: 24, 32: 88, 64: 264}
RADER_BRENNER_REAL_MULTS = {8: 4, 16: 20, 32: 68, 64: 196}

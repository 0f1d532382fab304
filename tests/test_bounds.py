import math
import time

import pytest
import sympy

from laurentfft.bounds import (NotPowerOfTwoError, RADER_BRENNER_REAL_MULTS,
                               RADIX2_REAL_MULTS, bounds_row, divisors,
                               euler_totient, factorize, heideman_bound,
                               heideman_burrus_bound, is_power_of_two,
                               nlog2n_rounded)
from oracles import heideman_reference


def test_factorize_matches_sympy():
    for n in range(1, 10**4 + 1):
        expected = tuple(sorted(sympy.factorint(n).items()))
        assert factorize(n) == expected


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_refuses_a_large_part_left_by_trial_division():
    # trial division stops at 10^6: a part left at least 10^12 may not be
    # prime, so it is refused rather than factored for hours; one below
    # 10^12 is prime
    big = (1000003, 1000033)
    assert all(sympy.isprime(p) for p in big)
    with pytest.raises(ValueError, match=f"N={big[0] * big[1]}"):
        factorize(big[0] * big[1])
    assert factorize(999983 ** 2) == ((999983, 2),)
    assert factorize(2 ** 20 * big[0]) == ((2, 20), (big[0], 1))


def test_heideman_refuses_a_huge_prime_at_once(run_cli):
    # trial division to its square root took 2.8 s, and a prime near 2^57
    # would take about an hour
    start = time.perf_counter()
    with pytest.raises(ValueError, match="N=100000000000031"):
        heideman_bound(100000000000031)
    assert time.perf_counter() - start < 1.0
    code, out, err = run_cli("bounds", "100000000000031")
    assert code == 2 and out == "" and "N=100000000000031" in err


def test_heideman_of_the_largest_prime_below_10_to_12_matches_the_oracle():
    assert sympy.nextprime(999999999989) > 10**12
    assert heideman_bound(999999999989) == heideman_reference(999999999989)


def test_divisors_matches_sympy():
    for n in [*range(1, 2001), *(2 ** k for k in range(64))]:
        assert divisors(n) == tuple(sympy.divisors(n)), n


def test_totient_matches_sympy():
    for n in range(1, 300):
        assert euler_totient(n) == int(sympy.totient(n))


def test_totient_small_values():
    assert euler_totient(1) == 1
    assert euler_totient(4) == 2
    assert euler_totient(12) == 4


def test_heideman_agrees_with_independent_oracle():
    # the load-bearing check: same numbers from two unrelated evaluations
    for n in range(1, 65):
        assert heideman_bound(n) == heideman_reference(n), n


def test_heideman_of_a_huge_power_of_two_matches_the_oracle():
    # divisors of the totient quotients up to 2**55: a trial loop to n
    # would not return
    assert heideman_bound(2 ** 57) == heideman_reference(2 ** 57)


def test_heideman_known_values():
    assert heideman_bound(1) == 0
    assert heideman_bound(2) == 0
    assert heideman_bound(4) == 0
    assert heideman_bound(8) == 2
    assert heideman_bound(12) == 4


def test_heideman_burrus_column():
    assert {n: heideman_burrus_bound(n) for n in (8, 16, 32, 64)} == \
        {8: 4, 16: 20, 32: 64, 64: 168}


def test_heideman_burrus_formula_shape():
    for n in (2, 4, 8, 16, 32, 64, 128):
        lg = int(math.log2(n))
        assert heideman_burrus_bound(n) == 4 * n - 2 * (lg * lg + lg + 2)


@pytest.mark.parametrize("bad", [0, 1, 3, 12, 20, 48])
def test_heideman_burrus_rejects_non_powers(bad):
    with pytest.raises(NotPowerOfTwoError):
        heideman_burrus_bound(bad)


def test_is_power_of_two():
    assert [n for n in range(1, 70) if is_power_of_two(n)] == \
        [1, 2, 4, 8, 16, 32, 64]


def test_nlog2n_rounded():
    assert nlog2n_rounded(1) == 0
    assert nlog2n_rounded(2) == 2
    expected = {12: 43, 20: 86, 28: 135, 36: 186, 44: 240, 52: 296, 60: 354,
                8: 24, 16: 64, 32: 160, 64: 384}
    assert {n: nlog2n_rounded(n) for n in expected} == expected


def test_bounds_row_power_of_two_marker():
    row = bounds_row(16)
    assert (row.heideman_mu, row.heideman_burrus_mu) == (10, 20)
    assert bounds_row(12).heideman_burrus_mu is None


def test_display_constants_cover_the_power_of_two_lengths():
    assert set(RADIX2_REAL_MULTS) == set(RADER_BRENNER_REAL_MULTS) == \
        {8, 16, 32, 64}

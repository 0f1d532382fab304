"""Independent reference implementations the tests check against.

Almost everything here is deliberately built on different machinery
than the package (sympy number theory, recursion instead of product
iteration) so that agreement between the two is evidence, not an echo.
direct_factors is the exception: it is the package's own direct path,
against which the orbit-derived factors are checked. plan_text is no
oracle either: it is a plan file's text, for tests that write one, and
dense is a plan matrix's dense array, for tests that read one whole.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import sympy

from laurentfft.plan import plan_to_dict
from laurentfft.rational import RationalMatrix, rank_factor


def dense(mat) -> np.ndarray:
    """The plan matrix mat (a UnitMatrix) as a dense int8 array."""
    out = np.zeros(mat.shape, np.int8)
    out[mat.rows, mat.cols] = mat.signs
    return out


def plan_text(plan) -> str:
    """The text save_plan writes for plan, less its final newline."""
    return json.dumps(plan_to_dict(plan), indent=2)


def heideman_reference(n: int) -> int:
    """Brute-force evaluation of the DFT multiplicative-complexity bound.

    Recurses over the prime powers of n, enumerating every choice of
    p_k^i_k (including i_k = 0) and, inside each choice, every tuple of
    divisors of phi(p_k^i_k)/phi(gcd(p_k^i_k, 4)). Totients, divisor
    lists, and lcms all come from sympy.
    """
    primes = sorted(sympy.factorint(n).items())

    def level(k: int, parts: list[int]) -> Fraction:
        if k == len(primes):
            ratios = [int(sympy.totient(q)) // int(sympy.totient(math.gcd(q, 4)))
                      for q in parts]
            dsum = Fraction(0)
            for combo in _tuples([sympy.divisors(r) for r in ratios]):
                top = 1
                lc = 1
                for d in combo:
                    top *= int(sympy.totient(d))
                    lc = int(sympy.lcm(lc, d))
                dsum += Fraction(top, int(sympy.totient(lc)))
            prod = 1
            for q in parts:
                prod *= q
            g = int(sympy.totient(math.gcd(prod, 4)))
            return g * (1 + dsum)
        p, e = primes[k]
        return sum((level(k + 1, parts + [p ** i]) for i in range(e + 1)),
                   Fraction(0))

    total = level(0, [])
    assert total.denominator == 1
    return 2 * n - int(total)


def _tuples(lists):
    if not lists:
        yield ()
        return
    head, *rest = lists
    for x in head:
        for tail in _tuples(rest):
            yield (x,) + tail


def sympy_rref(int_rows) -> tuple[list[list[Fraction]], tuple[int, ...]]:
    """Reduced row echelon form and pivot columns via sympy, zero rows
    dropped. rref is unique, so this is directly comparable with the
    package's reduction."""
    mat, pivots = sympy.Matrix(int_rows).rref()
    rows = [[Fraction(int(x.p), int(x.q)) for x in mat.row(i)]
            for i in range(len(pivots))]
    return rows, tuple(int(p) for p in pivots)


def sympy_rank(int_rows) -> int:
    return sympy.Matrix(int_rows).rank()


def exact_product(left, right) -> tuple[tuple, ...]:
    """Exact product of two matrices given as rows of ints and Fractions,
    summed term by term; integral entries come back as ints."""
    out = []
    for row in left:
        acc = [Fraction(0)] * len(right[0])
        for a, right_row in zip(row, right):
            for j, b in enumerate(right_row):
                acc[j] += a * b
        out.append(tuple(int(x) if x.denominator == 1 else x for x in acc))
    return tuple(out)


def direct_factors(slot: np.ndarray):
    """The package's own rank factorization of one combination matrix,
    from scratch: the (postadd, preadd) a plan branch would hold if the
    matrix were factored directly rather than read off its orbit's
    representative."""
    return rank_factor(RationalMatrix.from_int_matrix(slot))


def term_by_term_sums(plan, v) -> np.ndarray:
    """A plan's 2N real sums (real parts, then imaginary) for a real vector,
    one term at a time, on Python floats.

    Each additive or preadd row sums its +-v[c] terms left to right from
    the first (an empty row is 0.0); each output then adds every postadd
    term, constant * preadd value, with the branch sign, branch by branch.
    The executor's scatter-adds must reproduce these sums bit for bit,
    signed zeros included.
    """
    v = [float(x) for x in v]

    def rows(mat):
        out = []
        for row in dense(mat).tolist():
            terms = [v[c] if x == 1 else -v[c] for c, x in enumerate(row) if x]
            acc = terms[0] if terms else 0.0
            for t in terms[1:]:
                acc += t
            out.append(acc)
        return out

    re_out, im_out = rows(plan.additive.re_m0), rows(plan.additive.im_m0)
    for b in plan.branches:
        scaled = [b.constant_value * x for x in rows(b.preadd)]
        out = re_out if b.destination == "real_out" else im_out
        for i, row in enumerate(dense(b.postadd).tolist()):
            for j, x in enumerate(row):
                if x == b.sign:
                    out[i] += scaled[j]
                elif x:
                    out[i] -= scaled[j]
    return np.array(re_out + im_out)


def term_by_term(plan, v) -> np.ndarray:
    """term_by_term_sums assembled as re + 1j * im, as the executor
    assembles its outputs."""
    sums = term_by_term_sums(plan, v)
    n = plan.n
    return sums[:n] + 1j * sums[n:]

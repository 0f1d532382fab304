"""Residue-class decomposition of the DFT exponent grid.

For a blocklength N divisible by 4, the exponents kn mod N split into N/4
classes: class m holds the four values x with 4x = 4m (mod N), i.e. with
x = m (mod N/4); class_members lists them. Each class m gets a
Gaussian-integer matrix M_m collecting every DFT entry whose exponent
falls in the class, weighted by one of the four unit factors 1, -j, -1, j.
Summing M_m * W^m over all classes, with W = exp(-2j*pi/N), rebuilds the
DFT matrix exactly; the per-class matrices are what the plan compiler
rank-factors. An entry of M_m depends on its exponent alone, so a class
is described by its two length-N int8 tables (class_tables), and M_m is
those tables read at the exponent grid, t[E] (a group matrix of Z/N;
Winograd 1978): one gather. The classes' tables tile [0, N), one unit
entry per residue, which is the partition.

Class indices run m = -(N/4-1)/2 .. +(N/4-1)/2 when N = 4 (mod 8). When
8 | N that range is not integral; the indices become -(N/8-1) .. +N/8, and
the extra class C_{N/8} is the single one whose negative counterpart is
itself shifted (the asymmetric class, handled specially downstream).
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass, field

import numpy as np


class UnsupportedBlocklengthError(ValueError):
    """Raised for blocklengths outside the supported set (N >= 4, 4 | N),
    and for a supported N whose N x N exponent grid cannot be allocated."""


def _check_blocklength(n: int) -> int:
    """n as a Python int; UnsupportedBlocklengthError unless it is an
    integer (operator.index takes numpy's, never a float or a string)
    of at least 4 that 4 divides, whose 8 N^2-byte int64 exponent grid is
    no larger than numpy's largest array, so that such an N is refused
    before anything is built for it."""
    try:
        n = operator.index(n)
    except TypeError:
        raise UnsupportedBlocklengthError(
            f"blocklength {n!r} unsupported: not an integer") from None
    if n < 4 or n % 4 != 0:
        raise UnsupportedBlocklengthError(
            f"blocklength {n} unsupported: need N >= 4 with N divisible by 4")
    if 8 * n * n > sys.maxsize:
        raise UnsupportedBlocklengthError(
            f"blocklength {n} unsupported: its {n} x {n} exponent grid "
            f"cannot be allocated")
    return n


def exponent_matrix(n: int) -> np.ndarray:
    """N x N grid of DFT exponents, entry (k, i) = k*i mod N.
    UnsupportedBlocklengthError when the grid cannot be allocated, so
    compile, complexity and the plan loader all reject an N too large to
    hold here."""
    _check_blocklength(n)
    try:
        idx = np.arange(n)
        return np.outer(idx, idx) % n
    except (MemoryError, ValueError):  # numpy's "too big" is a ValueError
        raise UnsupportedBlocklengthError(
            f"blocklength {n} unsupported: its {n} x {n} exponent grid "
            f"cannot be allocated") from None


def class_indices(n: int) -> range:
    """Ordered class indices for blocklength n, always n/4 of them, as a
    range whose membership test is arithmetic.

    Symmetric layout -(n/4-1)/2 .. +(n/4-1)/2 when n = 4 (mod 8); shifted
    layout -(n/8-1) .. +n/8 when 8 | n, the top index being the asymmetric
    class.
    """
    _check_blocklength(n)
    if n % 8 == 4:
        h = (n // 4 - 1) // 2
        return range(-h, h + 1)
    return range(-(n // 8 - 1), n // 8 + 1)


def class_members(n: int, m: int) -> tuple[int, int, int, int]:
    """The four exponents x with 4x = 4m (mod n): position k holds
    (m + k*n/4) mod n, in that k order (not sorted), so that it pairs with
    the unit coefficient (-j)^k. ValueError when m is not a class index."""
    if m not in class_indices(n):
        raise ValueError(f"{m} is not a class index for blocklength {n}")
    q = n // 4
    return (m % n, (m + q) % n, (m + 2 * q) % n, (m + 3 * q) % n)


# position k in a class carries coefficient (-j)^k: 1, -j, -1, j; as
# columns, row 0 holds the real parts and row 1 the imaginary ones
_COEFF_SPLIT = np.array(((1, 0, -1, 0), (0, -1, 0, 1)), dtype=np.int8)


def class_tables(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(re, im): read-only length-n int8 tables with M_m = re[E] + j*im[E],
    E the exponent grid. Entry x is the unit coefficient of x's position
    in class m, split into its real and imaginary parts, and 0 off the
    class, so at most one of re[x], im[x] is nonzero and the classes'
    tables tile [0, n); ValueError when m is not a class index."""
    tables = np.zeros((2, n), dtype=np.int8)
    tables[:, class_members(n, m)] = _COEFF_SPLIT
    tables.flags.writeable = False
    return tables[0], tables[1]


@dataclass(frozen=True, eq=False)
class ClassDecomposition:
    """A blocklength and its read-only N x N exponent grid E.

    Class m's matrix is class_tables(n, m) read at E, built by whoever
    needs it. Only E is held, O(N^2) memory; all N/4 class matrices at
    once would take O(N^3). A consumer that reads one class at a time
    (compile_plan, complexity, reconstruct_dft) holds one at a time.
    """

    n: int
    exponents: np.ndarray = field(repr=False)


def decompose(n: int) -> ClassDecomposition:
    """Decompose blocklength n into its residue classes: the exponent grid
    that every class table is read at."""
    n = _check_blocklength(n)
    exp = exponent_matrix(n)
    exp.flags.writeable = False
    return ClassDecomposition(n=n, exponents=exp)


def reconstruct_dft(dec: ClassDecomposition) -> np.ndarray:
    """Rebuild the DFT matrix as the sum of M_m * W^m, W = exp(-2j*pi/n).

    Verification oracle only; the result is complex floating point. One
    class matrix is built at a time, so the memory is O(n^2).
    """
    w = np.exp(-2j * np.pi / dec.n)
    out = np.zeros((dec.n, dec.n), dtype=complex)
    for m in class_indices(dec.n):
        re, im = class_tables(dec.n, m)
        out += (re + 1j * im)[dec.exponents] * w ** m
    return out


def dft_matrix(n: int) -> np.ndarray:
    """Direct DFT matrix, entry (k, i) = exp(-2j*pi*k*i/n)."""
    idx = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(idx, idx) / n)

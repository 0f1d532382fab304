"""Exact rational matrices: row reduction, rank and rank factorization.

Scalars are exact and integer-first: an entry is a plain ``int`` unless it
is non-integral, and then it is a ``fractions.Fraction`` (always reduced,
positive denominator). Every rank reported by this module is therefore
exact rather than a floating-point estimate. Entries start in
{-2, ..., 2} and almost every pivot is +1 or -1, so elimination runs on
Python ints and only a non-unit pivot divides through ``Fraction``; an
integral result goes back to ``int``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

import numpy as np


class ZeroMatrixError(ValueError):
    """Raised when a rank factorization is requested for an all-zero matrix."""


def _exact(x: int | Fraction) -> int | Fraction:
    """x as an int when it is integral, else the Fraction itself."""
    return x.numerator if x.denominator == 1 else x


def _integral(value) -> int:
    """value as an int; ValueError unless it is exactly an integer."""
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{value!r} is not an integer") from None
    if as_int != value:
        raise ValueError(f"{value!r} is not an integer")
    return as_int


class RationalMatrix:
    """Dense row-major matrix of exact entries: ``int``, or ``Fraction``
    where an entry is not integral.

    Instances are treated as immutable: entries are stored as nested tuples
    and all operations return new matrices. A matrix may have zero rows (the
    reduced form of a zero matrix) but never zero columns. from_int_matrix
    builds one from integers; a Fraction entry only comes out of rref. Two
    matrices are compared by their entries.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, *args, **kwargs):
        raise TypeError("RationalMatrix has no public constructor; build one "
                        "with RationalMatrix.from_int_matrix")

    @classmethod
    def _of_exact(cls, entries: tuple[tuple[int | Fraction, ...], ...],
                  cols: int) -> "RationalMatrix":
        """Wrap rows that are already exact, rectangular and cols wide."""
        out = cls.__new__(cls)
        out.rows = len(entries)
        out.cols = cols
        out.entries = entries
        return out

    @classmethod
    def from_int_matrix(cls, array) -> "RationalMatrix":
        """Build from a numpy integer array or nested integer sequences.

        Raises ValueError for any value that is not exactly an integer
        (1.5 is rejected, 2.0 becomes 2).
        """
        arr = np.asarray(array)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        if arr.shape[1] == 0:
            raise ValueError("matrix must have at least one column")
        rows = arr.tolist()
        if arr.dtype.kind not in "iu":
            rows = [[_integral(x) for x in row] for row in rows]
        return cls._of_exact(tuple(map(tuple, rows)), arr.shape[1])

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


@dataclass(frozen=True, eq=False)
class RrefResult:
    """Reduced row echelon form with all-zero rows dropped.

    ``rref`` has exactly ``rank`` rows; ``pivot_cols`` lists, in increasing
    order, the column of the leading 1 of each row.
    """

    rref: RationalMatrix
    rank: int
    pivot_cols: tuple[int, ...]


def rref(matrix: RationalMatrix) -> RrefResult:
    """Reduced row echelon form over the rationals.

    Pivoting is deterministic: the pivot is the first row (in order) with a
    nonzero entry in the leftmost unreduced column. Exact arithmetic makes
    magnitude-based pivoting unnecessary, and determinism keeps regression
    output bit-stable. Zero rows are dropped from the result, so a zero
    matrix reduces to an empty matrix of rank 0.

    A pivot of +1 needs no scaling and -1 only a negation, so integer rows
    stay ints; any other pivot divides its row through Fraction. Entries
    stay integer-first throughout: a product with an int row is an int,
    and only a row update that involved a Fraction is mapped back to int
    where its result is integral.
    """
    work = [list(row) for row in matrix.entries if any(row)]
    ncols = matrix.cols
    pivot_cols: list[int] = []
    pr = 0
    for pc in range(ncols):
        sel = None
        for i in range(pr, len(work)):
            if work[i][pc] != 0:
                sel = i
                break
        if sel is None:
            continue
        work[pr], work[sel] = work[sel], work[pr]
        pivot = work[pr][pc]
        if pivot == -1:
            work[pr] = [-x for x in work[pr]]
        elif pivot != 1:
            work[pr] = [_exact(Fraction(x, pivot)) if x else 0
                        for x in work[pr]]
        prow = work[pr]
        support = [c for c in range(pc, ncols) if prow[c] != 0]
        int_row = all(type(prow[c]) is int for c in support)
        for i in range(len(work)):
            if i == pr:
                continue
            factor = work[i][pc]
            if not factor:
                continue
            target = work[i]
            if int_row and type(factor) is int:
                for c in support:
                    target[c] -= factor * prow[c]
            else:
                for c in support:
                    target[c] = _exact(target[c] - factor * prow[c])
        pivot_cols.append(pc)
        pr += 1
        if pr == len(work):
            break
    reduced = RationalMatrix._of_exact(tuple(map(tuple, work[:pr])), ncols)
    return RrefResult(rref=reduced, rank=pr, pivot_cols=tuple(pivot_cols))


def rank(matrix: RationalMatrix) -> int:
    """Exact rank (number of nonzero rows of the reduced form)."""
    return rref(matrix).rank


def rank_factor(matrix: RationalMatrix) -> tuple[RationalMatrix, RationalMatrix]:
    """Exact rank factorization ``matrix = C * R``.

    ``R`` is the reduced row echelon form (rank r rows) and ``C`` holds the
    columns of the original matrix at R's pivot positions, so the product
    reconstructs the input exactly. Raises :class:`ZeroMatrixError` for a
    zero matrix (there is no rank-1-or-more factorization to return).
    """
    result = rref(matrix)
    if result.rank == 0:
        raise ZeroMatrixError("zero matrix has no rank factorization")
    pick = itemgetter(*result.pivot_cols)
    if result.rank == 1:  # itemgetter of one index returns the bare entry
        c_entries = tuple((pick(row),) for row in matrix.entries)
    else:
        c_entries = tuple(map(pick, matrix.entries))
    return RationalMatrix._of_exact(c_entries, result.rank), result.rref


def vstack(top: RationalMatrix, bottom: RationalMatrix) -> RationalMatrix:
    """Concatenate rows, ``top`` first."""
    if top.cols != bottom.cols:
        raise ValueError(f"column mismatch: {top.cols} vs {bottom.cols}")
    return RationalMatrix._of_exact(top.entries + bottom.entries, top.cols)


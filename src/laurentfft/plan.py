"""Compile the class decomposition into an executable fast-transform plan.

For each paired class index m > 0 the four combination matrices
Re(M_m) +- Re(M_-m) and Im(M_m) +- Im(M_-m) each get rank-factored into
postadd * preadd, so applying one of them costs rank-many multiplications
by a single real constant (cos or sin of 2*pi*m/N). When 8 | N the top
class has no negative partner; its two combinations (Re+Im) and (Im-Re)
share the one constant sqrt(2)/2. Class 0 needs no multiplications at all
and becomes the additive stage.

The multiplication count of a compiled plan is the sum of branch ranks.
One table (_LAYOUT) says which combination matrix becomes which branch:
classes m and -m have disjoint supports, so no combination matrix is
zero and every layout row of every positive class is one branch. One
walk (_factored_slots) is the only loop over the positive classes: it
gives compile_plan and complexity every matrix's rank and exact factors.
Each combination matrix is a function of the exponent alone: a length-N
int8 table t read at the exponent grid E[k, i] = k*i mod N, so every
matrix is one gather t[E] (_slot_tables).
A unit c mod N permutes the columns (i -> c*i mod N) and so maps class m
onto class c*m (Rader 1968; Winograd 1978, "On computing the discrete
Fourier transform"), so the positive classes with one g = gcd(m, N/4)
form an orbit. The walk factors only the first class of each orbit. For
every other class it checks, on the tables in O(N), that each matrix is
+- a representative's with its columns read at c*i; row k = 1 of E holds
every residue, so the check is exact. Since k*(c*i) = (c*k)*i, reading
those columns is reading rows c*k: the derived matrix is +- a row
permutation of the representative's, with its row space, so it takes
the representative's rank and its preadd, the reduced row echelon form,
unchanged, and is never built as an N x N matrix. A representative's
rows are grouped up to sign (_row_groups), and its r distinct rows D
span its rows; a combination matrix repeats its rows so heavily that r
is its rank, against N rows. The matrix is symmetric (below), so its
columns group as its rows do and D = D[:, F] G exactly, F the groups'
first rows and G the r x N signed grouping, which has full row rank and
is already reduced. So the rank is that of the r x r core D[:, F], the
one elimination (rank_factor) a representative costs, and when it is
r, as at every N = 4..512 step 4 and 1024, the reduced form, the
preadd, is G, read off the grouping (_factored_slot); a singular core
would take it from rank_factor on D.
E is symmetric, so every combination matrix A = t[E] is too (A is a group
matrix of Z/N). Every slot's postadd is A at the preadd's pivot columns
P, and A[:, P] = A[P, :]^T: it is read off the table as the gather of
whole grid rows t[E[P]].T (in _FactoredSlot.branch).

compile_plan turns each slot of the walk into a branch
(_FactoredSlot.branch: the postadd gathered as whole grid rows, the
constant from constant_value) and builds the additive stage from M_0
(_additive_stage).

Every plan matrix is a UnitMatrix: its nonzeros as read-only (row, col,
sign) arrays, row by row in column order, each sign +1 or -1. Its
constructor is the one check of that form, for compile_plan, the builder
and a matrix built by hand alike. The counts and the lowering read the
arrays as they are.
The module also reports the count three ways
(per-branch ranks, an independent stacked elimination, and the doubled
sum over real-part ranks) so their agreement can be checked rather than
assumed, and can serialize plans to JSON and back. A plan file (version
3) holds N, the two counts and each branch's layout row, which the
loader checks against the plan of N. Everything else is forced: a
branch's preadd is the reduced row echelon form of its slot's matrix,
its postadd is that matrix at the preadd's pivot columns, its constant
is its kind's value at m and N, and the additive stage is M_0.
save_plan writes json.dumps(plan_to_dict(plan), indent=2). The loader
checks the document's form against the layout of N arithmetically, then
compiles N and requires the stored counts to equal the compiled ones.
So it accepts exactly the compiled plan's document, up to the order of
the branches, and returns the compiled plan itself, constants included.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import groupby
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .decomposition import (ClassDecomposition, class_indices, class_members,
                            class_tables, decompose)
from .rational import RationalMatrix, rank, rank_factor, vstack

SYMMETRIC = "symmetric"
ASYMMETRIC = "asymmetric"

COSINE = "cosine"
SINE = "sine"
HALF_SQRT2 = "half_sqrt2"

REAL_OUT = "real_out"
IMAG_OUT = "imag_out"

# The branch each combination matrix becomes, per class kind:
# (matrix slot, constant kind, destination, sign). compile_plan, complexity
# and plan_from_dict all read this one table.
_LAYOUT = {
    SYMMETRIC: (
        ("re_sum", COSINE, REAL_OUT, +1),
        ("im_diff", SINE, REAL_OUT, +1),
        ("im_sum", COSINE, IMAG_OUT, +1),
        ("re_diff", SINE, IMAG_OUT, -1),
    ),
    ASYMMETRIC: (
        ("re_sum", HALF_SQRT2, REAL_OUT, +1),
        ("im_diff", HALF_SQRT2, IMAG_OUT, +1),
    ),
}


def _class_kind(n: int, m: int) -> str:
    """ASYMMETRIC for the top class m = N/8 (present only when 8 | N)."""
    return ASYMMETRIC if n % 8 == 0 and m == n // 8 else SYMMETRIC


# Each combination matrix's table entries at the class_members of m, then
# (symmetric class) at those of -m: the sums and differences of class_tables'
# unit coefficients, re (1, 0, -1, 0) and im (0, -1, 0, 1), of the two
# classes, or of the asymmetric class's re and im
_SLOT_COEFFS = {
    SYMMETRIC: (("re_sum", "re_diff", "im_sum", "im_diff"),
                np.array(((1, 0, -1, 0, 1, 0, -1, 0),
                          (1, 0, -1, 0, -1, 0, 1, 0),
                          (0, -1, 0, 1, 0, -1, 0, 1),
                          (0, -1, 0, 1, 0, 1, 0, -1)), dtype=np.int8)),
    ASYMMETRIC: (("re_sum", "im_diff"),
                 np.array(((1, -1, -1, 1), (-1, -1, 1, 1)), dtype=np.int8)),
}


def _slot_tables(n: int, m: int) -> dict[str, np.ndarray]:
    """The read-only length-N int8 table of each combination matrix of
    positive class m, by slot: the matrix is its table read at the
    exponent grid. Classes m and -m have disjoint members, so every entry
    is one coefficient, in {-1, 0, 1}. All of m's tables are rows of one
    array, filled by one assignment.
    """
    kind = _class_kind(n, m)
    slots, coeffs = _SLOT_COEFFS[kind]
    at = class_members(n, m)
    if kind == SYMMETRIC:
        at += class_members(n, -m)
    tables = np.zeros((len(slots), n), dtype=np.int8)
    tables[:, at] = coeffs
    tables.flags.writeable = False
    return dict(zip(slots, tables))


def branch_matrices(dec: ClassDecomposition, m: int) -> dict[str, np.ndarray]:
    """The combination matrices of positive class m by slot, each its
    _slot_tables table read at the exponent grid. A symmetric class has
    re_sum = Re(M_m)+Re(M_-m), re_diff = Re(M_m)-Re(M_-m) and likewise
    im_sum and im_diff; the asymmetric class (m = N/8, only when 8 | N) has
    no negative partner and only re_sum = Re(M_m)+Im(M_m) and
    im_diff = Im(M_m)-Re(M_m). ValueError unless m is a positive class
    index of dec."""
    if m not in _positive_classes(dec.n):
        raise ValueError(f"{m} is not a positive class index for n={dec.n}")
    return {slot: table[dec.exponents]
            for slot, table in _slot_tables(dec.n, m).items()}


def _positive_classes(n: int) -> range:
    """N's positive class indices, 1 to the top one, as a range whose
    membership test is arithmetic: no class table is built."""
    return range(1, class_indices(n).stop)


# The row-stacked pairs of complexity's stacked count; an orbit map that
# sends these pairs onto each other keeps that count.
_STACKED_PAIRS = (("re_sum", "im_sum"), ("re_diff", "im_diff"))


@dataclass(frozen=True, eq=False)
class UnitMatrix:
    """A plan matrix, every entry +1, -1 or 0, held as its nonzeros.

    Nonzero k is signs[k], +1 or -1, at (rows[k], cols[k]); the nonzeros
    are listed row by row, in column order within a row, each position
    once. Construction is the one check of that form, for compiled,
    hand-built and dataclasses.replace'd matrices alike: a
    ValueError for a shape that is not two integers from 0 to 2**31 - 1,
    an entry that is not an integer +1 or -1 (a float or a Fraction one
    too), or a nonzero outside the shape, listed twice or out of
    row-major order. The matrix keeps read-only copies of its own: rows
    and cols as int32 arrays, signs as an int8 array.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    signs: np.ndarray

    def __post_init__(self) -> None:
        shape = self.shape
        if type(shape) is not tuple or len(shape) != 2 or any(
                type(s) is not int or not 0 <= s < 2**31 for s in shape):
            raise ValueError(f"a plan matrix's shape {shape!r} is not two "
                             f"integers from 0 to 2**31 - 1")
        rows, cols, signs = map(np.asarray, (self.rows, self.cols,
                                             self.signs))
        if signs.size and (signs.dtype.kind != "i"
                           or np.count_nonzero(np.abs(signs) != 1)):
            bad = next((x for x in signs.flat if x not in (-1, 1)),
                       signs.flat[0])
            raise ValueError(f"a plan matrix has an entry {bad} other than "
                             f"+1 or -1")
        # each nonzero's row-major position: increasing iff each is listed
        # once, in order
        try:
            at = np.ravel_multi_index((rows, cols), shape)
        except (TypeError, ValueError):
            at = None
        if at is None or signs.ndim != 1 \
                or not rows.shape == cols.shape == signs.shape \
                or np.count_nonzero(at[1:] <= at[:-1]):
            raise ValueError("a plan matrix lists a nonzero outside its "
                             "shape, twice or out of row-major order, or not "
                             "one sign per nonzero")
        for name, a, dtype in (("rows", rows, np.int32),
                               ("cols", cols, np.int32),
                               ("signs", signs, np.int8)):
            a = a.astype(dtype)
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def _nonzeros(a: np.ndarray) -> tuple:
    """(shape, rows, cols, entries) of the dense matrix a's nonzeros, row
    by row in column order: UnitMatrix's fields."""
    rows, cols = a.nonzero()
    return a.shape, rows, cols, a[rows, cols]


@dataclass(frozen=True, eq=False)
class _FactoredSlot:
    """One combination matrix as its int8 table, layout row and preadd.

    The matrix is table read at the exponent grid and its rank is the
    preadd's row count. A slot of an orbit representative was factored
    directly, by eliminating the r x r core of its distinct rows up to
    sign (_factored_slot), and is yielded with grouped, those rows as
    int8 with _row_groups' group and signs, for complexity's stacked
    count. Any other slot's matrix is +-source's with its rows permuted,
    which the walk checked exactly, so it shares source's preadd.
    complexity's slots, which it reads only for their ranks, carry no
    preadd (reduced is None).
    """

    m: int
    slot: str
    constant_kind: str
    destination: str
    sign: int
    table: np.ndarray
    rank: int
    reduced: UnitMatrix | None
    grouped: tuple[np.ndarray, ...] | None = None
    source: _FactoredSlot | None = None

    def branch(self, exponents: np.ndarray) -> MultiplicativeBranch:
        """The slot's branch, as compile_plan builds it.

        Its preadd is the slot's reduced form, its postadd the symmetric
        matrix's columns at the preadd's pivots, which are its rows there
        transposed: the table read at those whole rows of the exponent
        grid. Its constant is constant_value's, which must lie strictly
        between 0 and 1.
        """
        n = len(self.table)
        value = constant_value(self.constant_kind, self.m, n)
        if not 0.0 < value < 1.0:
            raise ValueError(f"{self.constant_kind} constant {value!r} of "
                             f"m={self.m}, N={n} is not strictly between 0 "
                             f"and 1")
        # each row's first column
        pre = self.reduced
        pivots = pre.cols[np.searchsorted(pre.rows, np.arange(self.rank))]
        # the N x rank columns of table[exponents] at the pivots, gathered
        # as its rows there, transposed: the grid is symmetric, so the two
        # agree
        post = UnitMatrix(*_nonzeros(self.table[exponents[pivots]].T))
        return MultiplicativeBranch(
            m=self.m, constant_kind=self.constant_kind, constant_value=value,
            preadd=self.reduced, postadd=post, destination=self.destination,
            sign=self.sign)


def _row_groups(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """(first, group, signs): a's nonzero rows grouped up to sign.

    Row i of a is signs[i] times row first[group[i]]: first lists each
    group's first row, in increasing order, and a zero row has group -1
    and sign 0. So a[first] are a's distinct rows up to sign; negating,
    dropping a zero row and dropping a repeat keep the row space, so they
    have a's rank and reduced row echelon form. Each combination matrix of
    N = 4..512 step 4 and 1024 has exactly rank-many of them, against N
    rows in all."""
    n = len(a)
    lead = np.sign(a[np.arange(n), (a != 0).argmax(axis=1)])
    rows = np.ascontiguousarray(a * lead[:, None])
    # each row times its leading sign as one bytes key: numpy's fixed-width
    # bytes drop trailing zero bytes, which keeps keys of equal-width rows
    # distinct and makes a zero row b""; setdefault gives each row its
    # key's first row, and the dict's values are the first rows in order
    keys = rows.view(np.dtype((np.bytes_, rows.itemsize * rows.shape[1])))
    seen: dict[bytes, int] = {}
    firsts = np.fromiter(map(seen.setdefault, keys.ravel().tolist(),
                             range(n)), np.intp, n)
    seen.pop(b"", None)
    first = np.fromiter(seen.values(), np.intp, len(seen))
    place = np.full(n, -1)
    place[first] = np.arange(len(first))
    return first, place[firsts], lead * lead[firsts]


def _factored_slot(exponents: np.ndarray, m: int, layout_row: tuple,
                   table: np.ndarray, source: _FactoredSlot | None, *,
                   preadds: bool) -> _FactoredSlot:
    """table's slot: source's rank and preadd when the walk read it off
    source, else factored directly on its matrix's distinct rows up to
    sign, the matrix built for that and dropped; the preadd is made only
    if preadds.

    The matrix a = table[exponents] is symmetric, so its columns group as
    its rows do (_row_groups): column i is signs[i] times column
    first[group[i]]. So the distinct rows D = a[first] are D[:, first] @ G
    exactly, G the r x N signed grouping with signs[i] at (group[i], i).
    G's rows have disjoint supports and +1 at their group's first column,
    so G has full row rank and is in reduced row echelon form. Hence rank
    a = rank D[:, first], the r x r core rank_factor eliminates, and when
    that rank is r the reduced form of D is G itself, the preadd. A
    singular core, which no N = 4..512 step 4 or 1024 has, takes the
    preadd from rank_factor on D.
    """
    if source is not None:
        return _FactoredSlot(m, *layout_row, table=table, rank=source.rank,
                             reduced=source.reduced, source=source)
    a = table[exponents]
    first, group, signs = _row_groups(a)
    distinct = a[first]
    r = rank_factor(RationalMatrix.from_int_matrix(distinct[:, first]))[1].rows
    pre = None
    if preadds and r == len(first):
        # G's nonzeros row by row: the zero columns' group -1 sorts first
        cols = np.argsort(group, kind="stable")[len(a)
                                                - np.count_nonzero(signs):]
        pre = UnitMatrix((r, len(a)), group[cols], cols, signs[cols])
    elif preadds:
        reduced = rank_factor(RationalMatrix.from_int_matrix(distinct))[1]
        # no dtype: a Fraction makes an object array, which UnitMatrix
        # refuses
        pre = UnitMatrix(*_nonzeros(np.array(reduced.entries)))
    return _FactoredSlot(m, *layout_row, table=table, rank=r,
                         reduced=pre, grouped=(distinct, group, signs))


def _derived_from(n: int, m: int, layout: tuple, tables: list[np.ndarray],
                  rep: tuple[_FactoredSlot, ...]
                  ) -> tuple[_FactoredSlot, ...] | None:
    """The slot of rep that each of class m's slots reads off, or None.

    A unit c mod n with c*m = +-rep's m (mod n/4) maps the class of rep to
    the class of m. One exists: m and rep's m have the same g = gcd(., n/4)
    and every unit mod n/(4g) lifts to a unit mod n. None unless each of
    m's tables t satisfies t[e] = +-s[c*e mod n] for every e, s one of
    rep's tables, and the stacked pairs map onto each other. Row k = 1 of
    the exponent grid holds every residue, so this holds exactly when m's
    matrix is +- rep's with its columns read at c*i mod n, that is with
    its rows read at c*k: it has rep's row space, reduced form and rank.
    Each of m's tables reads the first of rep's that it matches. Tables
    are compared by their bytes, all int8 as _slot_tables makes them.
    """
    q = n // 4
    targets = {rep[0].m % q, -rep[0].m % q}
    c = next(c for c in range(1, n, 2)
             if c * m % q in targets and math.gcd(c, n) == 1)
    moved = np.stack([f.table for f in rep])[:, np.arange(n) * c % n]
    # each moved table and its negative, keyed by its bytes, to the first
    # of rep's slots that gives it
    index: dict[bytes, int] = {}
    for j, (plus, minus) in enumerate(zip(moved, -moved)):
        index.setdefault(plus.tobytes(), j)
        index.setdefault(minus.tobytes(), j)
    found = [index.get(t.tobytes()) for t in tables]
    if None in found:
        return None
    sources = tuple(rep[j] for j in found)
    of = {row[0]: source.slot for row, source in zip(layout, sources)}
    pairs = {frozenset(p) for p in _STACKED_PAIRS if of.keys() >= set(p)}
    if {frozenset(map(of.get, p)) for p in pairs} != pairs:
        return None
    return sources


def _factored_slots(dec: ClassDecomposition, preadds: bool = True
                    ) -> Iterator[_FactoredSlot]:
    """Every combination matrix with its rank, and its preadd if preadds,
    class by class in layout order: the one loop over positive classes.

    The positive classes of one kind with one g = gcd(m, N/4) form a
    unit-group orbit. The first class of an orbit is its representative
    and is factored directly; every later one is checked exactly against
    it on the tables, and each of its slots reads off the
    representative's slot its matrix is +- a row permutation of, or is
    factored directly if the check fails. Only tables and the
    representatives' preadds are held across classes (a representative's
    boxed rows serve only its own stacked count), and no derived matrix
    is ever built. Lazy on purpose: a consumer that drops each class
    before asking for the next holds at most one other class at a time.
    """
    n = dec.n
    reps: dict[tuple[str, int], tuple[_FactoredSlot, ...]] = {}
    for m in _positive_classes(n):
        kind = _class_kind(n, m)
        layout = _LAYOUT[kind]
        by_slot = _slot_tables(n, m)
        tables = [by_slot[row[0]] for row in layout]
        orbit = (kind, math.gcd(m, n // 4))
        rep = reps.get(orbit)
        sources = (rep and _derived_from(n, m, layout, tables, rep)
                   or (None,) * len(layout))
        slots = tuple(_factored_slot(dec.exponents, m, row, table, source,
                                     preadds=preadds)
                      for row, table, source in zip(layout, tables, sources))
        if rep is None:
            reps[orbit] = tuple(f if f.grouped is None
                                else replace(f, grouped=None) for f in slots)
        yield from slots


def constant_value(kind: str, m: int, n: int) -> float:
    if kind == COSINE:
        return math.cos(2.0 * math.pi * m / n)
    if kind == SINE:
        return math.sin(2.0 * math.pi * m / n)
    if kind == HALF_SQRT2:
        return math.sqrt(2.0) / 2.0
    raise ValueError(f"unknown constant kind {kind!r}")


@dataclass(frozen=True, eq=False)
class MultiplicativeBranch:
    """One rank-factored combination matrix with its scaling constant.

    Applying the branch to an input vector v means
    ``sign * constant_value * (postadd @ (preadd @ v))`` accumulated onto
    the chosen output part. preadd (rank x N) is the reduced row echelon
    form of the source matrix; postadd (N x rank) rebuilds it exactly:
    postadd * preadd = source.
    """

    m: int
    constant_kind: str
    constant_value: float
    preadd: UnitMatrix
    postadd: UnitMatrix
    destination: str
    sign: int

    @property
    def rank(self) -> int:
        return self.preadd.shape[0]


@dataclass(frozen=True, eq=False)
class AdditiveStage:
    """Multiplication-free class-0 contribution: Re and Im of M_0."""

    re_m0: UnitMatrix
    im_m0: UnitMatrix


@dataclass(frozen=True, eq=False)
class FftPlan:
    """Straight-line recipe: additive stage plus scaled branches.

    Every matrix is a UnitMatrix, its entries +1, -1 and 0 held as the
    nonzeros. The counts are real operations per real vector under the
    package's one count convention, which _plan_counts counts off the
    matrices and _lower measures off the term lists: each branch-constant
    scaling is one multiplication, so mult_count is the sum of the ranks;
    a sum of t terms costs t - 1 additions, where a preadd row sums its
    nonzeros and an output its row of M_0 (or 0.0, when that row is
    empty) and then its postadd terms; sign flips and routing by the unit
    factors 1, -j, -1, j are free. No entry outside {-1, 0, 1} costs a
    further multiplication: UnitMatrix refuses one.
    """

    n: int
    additive: AdditiveStage
    branches: tuple[MultiplicativeBranch, ...]
    mult_count: int
    add_count: int

    @cached_property
    def _term_lists(self) -> _Lowered:
        """The plan's term lists (_lower), built on first use and kept; a
        dataclasses.replace copy lowers, and so checks, its own. Threads
        that first run a plan at once may each lower it, to equal lists."""
        return _lower(self)


def _additive_stage(dec: ClassDecomposition) -> AdditiveStage:
    """The additive stage of dec's plan: Re and Im of M_0 as plan
    matrices."""
    re, im = class_tables(dec.n, 0)
    return AdditiveStage(re_m0=UnitMatrix(*_nonzeros(re[dec.exponents])),
                         im_m0=UnitMatrix(*_nonzeros(im[dec.exponents])))


def _plan_counts(additive: AdditiveStage,
                 branches: list[MultiplicativeBranch]) -> tuple[int, int]:
    """(mult_count, add_count) of a plan's matrices, under FftPlan's count
    convention."""
    sums = (additive.re_m0, additive.im_m0, *(b.preadd for b in branches))
    # a row of t >= 1 terms costs t - 1 adds, an empty row none
    adds = sum(m.signs.size - np.count_nonzero(np.bincount(m.rows))
               for m in sums)
    adds += sum(b.postadd.signs.size for b in branches)
    return sum(b.rank for b in branches), int(adds)


@dataclass(frozen=True, eq=False)
class _Lowered:
    """A plan as two flat term lists over the source [x, -x, 0.0, p, -p],
    p the scaled preadded values, one (destination, source index) pair per
    term, with their counts. The preadd list holds every branch's preadd
    rows; the output list, per output, its row of M_0, then every branch's
    postadd terms in branch order. A sign flip reads the negated copy and
    a sum with no term the 0.0 slot. No list holds padding or depends on
    the input, so the counts are input-independent.
    """

    pre_dest: np.ndarray  # preadd row of each preadd term
    pre_src: np.ndarray  # its index into [x, -x, 0.0, p, -p]
    out_dest: np.ndarray  # output (real parts, then imaginary) of each term
    out_src: np.ndarray  # its index into the same source
    constants: np.ndarray  # (rank,)
    mults: int
    adds: int


def _stack(mats: list[UnitMatrix], row_offsets: np.ndarray,
           col_offsets: np.ndarray, sizes: list[int]
           ) -> tuple[np.ndarray, ...]:
    """(rows, cols, signs) of the nonzeros of mats, matrix by matrix, each
    matrix's rows and columns moved by its offsets; sizes are the
    matrices' nonzero counts."""
    rows = np.concatenate([m.rows for m in mats])
    cols = np.concatenate([m.cols for m in mats])
    return (rows + row_offsets.repeat(sizes), cols + col_offsets.repeat(sizes),
            np.concatenate([m.signs for m in mats]))


def _signed(rows: np.ndarray, cols: np.ndarray, signs: np.ndarray,
            height: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, source index) of every term of a sum over x, one per nonzero
    at (rows, cols) of a height x n matrix: x[c] is at c and -x[c] at
    n + c; an empty row reads the 0.0 slot at 2n, after every nonzero."""
    empty = np.flatnonzero(np.bincount(rows, minlength=height) == 0)
    return (np.concatenate((rows, empty)),
            np.concatenate((cols + n * (signs < 0),
                            np.full(empty.size, 2 * n))))


def _lower(plan: FftPlan) -> _Lowered:
    """The plan's term lists and their counts; ValueError for a shape that
    does not chain or a count that differs. Each matrix checked its own
    form when it was built."""
    n = plan.n
    branches = plan.branches
    m0 = [plan.additive.re_m0, plan.additive.im_m0]
    for mat in m0:
        if mat.shape != (n, n):
            raise ValueError(f"additive stage is {mat.shape}, not {n}x{n}")
    for b in branches:
        if b.preadd.shape[1] != n or b.postadd.shape != (n, b.rank):
            raise ValueError(f"branch m={b.m} has a {b.preadd.shape} preadd "
                             f"and a {b.postadd.shape} postadd: the shapes "
                             f"do not chain for N={n}")
    # p lists every branch's preadd rows, in branch order
    pre = [b.preadd for b in branches]
    ranks = np.array([m.shape[0] for m in pre], dtype=np.int64)
    rank = int(ranks.sum())
    first = np.cumsum(ranks) - ranks
    sign = np.array([b.sign for b in branches], dtype=np.int8).repeat(ranks)
    constants = np.array([b.constant_value for b in branches],
                         dtype=float).repeat(ranks)
    # M_0's rows are the outputs, a preadd's rows its entries of p, and a
    # postadd's rows and columns its outputs and its entries of p
    dest = [0 if b.destination == REAL_OUT else n for b in branches]
    mats = m0 + pre + [b.postadd for b in branches]
    sizes = [m.signs.size for m in mats]
    # int64 even with no branch, where dest is an empty list
    row_offsets = np.concatenate(([0, n], first, dest)).astype(np.int64)
    col_offsets = np.concatenate(([0, 0], 0 * first, first)).astype(np.int64)
    rows, cols, signs = _stack(mats, row_offsets, col_offsets, sizes)
    # the nonzeros of M_0, then of the preadds, then of the postadds
    a = sizes[0] + sizes[1]
    b = a + sum(sizes[2:2 + len(branches)])
    m0_terms = rows[:a], cols[:a], signs[:a]
    pre_terms = rows[a:b], cols[a:b], signs[a:b]
    i, k, entries = rows[b:], cols[b:], signs[b:]
    m0_dest, m0_src = _signed(*m0_terms, 2 * n, n)
    pre_dest, pre_src = _signed(*pre_terms, rank, n)
    # output o sums the terms of row o of M_0, then its postadd terms in
    # branch order: each p[k], or -p[k] where the entry is minus its
    # branch's sign
    out_dest = np.concatenate((m0_dest, i))
    out_src = np.concatenate((m0_src, 2 * n + 1 + k
                              + rank * (entries != sign[k])))
    # a sum of t terms costs t - 1 adds; every sum has at least one term
    adds = pre_src.size - rank + out_src.size - 2 * n
    if (rank, adds) != (plan.mult_count, plan.add_count):
        raise ValueError(f"plan (mult_count, add_count) "
                         f"{(plan.mult_count, plan.add_count)} differs from "
                         f"the measured (mults, adds) {(rank, adds)} of its "
                         f"term lists")
    return _Lowered(pre_dest, pre_src, out_dest, out_src, constants, rank,
                    adds)


def compile_plan(dec: ClassDecomposition) -> FftPlan:
    """Build the executable plan for one decomposition.

    Real-input orientation: the plan produces Re(DFT v) and Im(DFT v) for a
    real vector v. Branch layout per symmetric class m: the re_sum matrix
    scaled by cos goes to the real part, im_diff scaled by sin to the real
    part, im_sum scaled by cos to the imaginary part, and re_diff scaled by
    sin is subtracted from the imaginary part. The asymmetric class routes
    (Re+Im) to the real part and (Im-Re) to the imaginary part, both scaled
    by sqrt(2)/2. Classes m and -m have disjoint supports, so no
    combination matrix is zero and every layout row becomes one branch,
    built as the walk yields its slot.
    """
    branches = [f.branch(dec.exponents) for f in _factored_slots(dec)]
    additive = _additive_stage(dec)
    return FftPlan(dec.n, additive, tuple(branches),
                   *_plan_counts(additive, branches))


def compile_plan_for(n: int) -> FftPlan:
    return compile_plan(decompose(n))


@dataclass(frozen=True)
class ClassRankRow:
    """Exact ranks of the four combination matrices for one class index.

    The asymmetric class leaves re_diff and im_sum as None (those slots do
    not exist for it).
    """

    m: int
    kind: str
    rank_re_sum: int
    rank_re_diff: int | None
    rank_im_sum: int | None
    rank_im_diff: int


@dataclass(frozen=True)
class ComplexityReport:
    """Multiplication counts for one blocklength, three ways.

    realized_total sums the per-branch ranks, each read off the same walk
    compile_plan turns into branches (a derived class's ranks are its orbit
    representative's), so it is what a compiled plan spends and equals
    plan.mult_count. stacked_total is an independent elimination: it ranks
    the row-stacked pairs [re_sum; im_sum] and [re_diff; im_diff] of each
    symmetric orbit representative, which collapses any rank shared
    between the real and imaginary families. Each pair is eliminated on
    its distinct rows at one column per set of columns equal up to sign,
    read off the two slots' groupings (_stacked_rank); every such core of
    N = 4..512 step 4 and 1024 is square and of full rank. A derived
    class repeats its representative's count, since the walk checked
    that its pairs map onto the representative's. simplified_total
    doubles the (re_sum, im_sum) ranks per symmetric class, valid
    whenever sum and difference ranks agree. All three coincide on every
    supported blocklength up to 128 and at 256, 512 and 1024; the tests
    check that claim, each per-branch rank against sympy up to 36, every
    derived factorization against a direct one up to 128, every derived
    preadd up to 256, every representative's preadd and rank against
    its reduced distinct rows up to 256 and at 512 and 1024, and every
    stacked count against its distinct rows over all N columns up to
    128.
    """

    n: int
    per_class: tuple[ClassRankRow, ...]
    realized_total: int
    stacked_total: int
    simplified_total: int


def _stacked_rank(top: _FactoredSlot, bottom: _FactoredSlot) -> int:
    """The rank of two directly factored slots' matrices stacked, [A; B],
    eliminated on the distinct columns of their distinct rows [D_A; D_B].

    Column i of D_A is signs_a[i] times the first column of its group
    group_a[i] (_factored_slot), and likewise for B, so column i of
    [D_A; D_B] is fixed up to sign by the key (group_a[i], group_b[i],
    signs_a[i] * signs_b[i]): a zero half has group -1 and sign 0, and a
    column zero in both halves is dropped. One column per key spans the
    same columns, so it keeps the rank.
    """
    (a, group_a, signs_a), (b, group_b, signs_b) = top.grouped, bottom.grouped
    # each key's first column, in column order: the dict keeps first
    # appearances in the order they appear
    first: dict[tuple[int, int, int], int] = {}
    for i, key in enumerate(zip(group_a.tolist(), group_b.tolist(),
                                (signs_a * signs_b).tolist())):
        first.setdefault(key, i)
    first.pop((-1, -1, 0), None)
    at = list(first.values())
    return rank(vstack(RationalMatrix.from_int_matrix(a[:, at]),
                       RationalMatrix.from_int_matrix(b[:, at])))


def _class_ranks(n: int, m: int, slots: Iterable[_FactoredSlot],
                 stacked_of: dict[int, int]
                 ) -> tuple[ClassRankRow, int, int, int]:
    """One class's rank row and its realized, stacked and simplified counts.

    A directly factored class's stacked count is eliminated here, on the
    distinct rows its slots boxed for rank_factor, and kept in stacked_of;
    a derived class's is its representative's, since the walk checked
    that its stacked pairs map onto the representative's.
    """
    by_slot = {f.slot: f for f in slots}
    ranks = {slot: f.rank for slot, f in by_slot.items()}
    kind = _class_kind(n, m)
    row = ClassRankRow(m=m, kind=kind, rank_re_sum=ranks["re_sum"],
                       rank_re_diff=ranks.get("re_diff"),
                       rank_im_sum=ranks.get("im_sum"),
                       rank_im_diff=ranks["im_diff"])
    realized = sum(ranks.values())
    if kind == ASYMMETRIC:
        return row, realized, realized, realized
    source = by_slot["re_sum"].source
    if source is None:
        stacked_of[m] = sum(_stacked_rank(by_slot[top], by_slot[bottom])
                            for top, bottom in _STACKED_PAIRS)
    stacked = stacked_of[m if source is None else source.m]
    return row, realized, stacked, 2 * (ranks["re_sum"] + ranks["im_sum"])


def complexity(dec: ClassDecomposition) -> ComplexityReport:
    rows: list[ClassRankRow] = []
    totals = [0, 0, 0]
    stacked_of: dict[int, int] = {}
    for m, group in groupby(_factored_slots(dec, preadds=False),
                            key=lambda f: f.m):
        row, *counts = _class_ranks(dec.n, m, group, stacked_of)
        rows.append(row)
        totals = [t + c for t, c in zip(totals, counts)]
    realized, stacked, simplified = totals
    return ComplexityReport(n=dec.n, per_class=tuple(rows),
                            realized_total=realized, stacked_total=stacked,
                            simplified_total=simplified)


def complexity_for(n: int) -> ComplexityReport:
    return complexity(decompose(n))


PLAN_FORMAT = "laurentfft-plan"
PLAN_VERSION = 3


# The keys of each object of a plan file, as plan_to_dict writes them: the
# document and a branch
_PLAN_KEYS = frozenset({"format", "version", "N", "mult_count", "add_count",
                        "branches"})
_BRANCH_KEYS = frozenset({"m", "constant_kind", "destination", "sign"})


def plan_to_dict(plan: FftPlan) -> dict:
    """JSON-ready document for a plan, which save_plan writes.

    The document (plan format version 3) holds N, the two counts and, per
    branch, its layout row (m, constant_kind, destination, sign); N fixes
    every matrix and constant. The loader checks the layout rows and
    counts against the plan compile_plan builds for N and returns that
    plan, so a reloaded plan executes bit-for-bit like the compiled one.
    A hand-built plan's document records only its layout rows and counts;
    its matrices and constants are not saved.
    """
    return {
        "format": PLAN_FORMAT,
        "version": PLAN_VERSION,
        "N": plan.n,
        "mult_count": plan.mult_count,
        "add_count": plan.add_count,
        "branches": [{
            "m": b.m,
            "constant_kind": b.constant_kind,
            "destination": b.destination,
            "sign": b.sign,
        } for b in plan.branches],
    }


def plan_from_dict(doc: dict) -> FftPlan:
    """The plan of a JSON document, certified by compiling its N.

    Raises ValueError unless the document is the one plan_to_dict writes
    for compile_plan's plan of its N, up to the order of its branches: one
    branch per layout slot and stored counts equal to the compiled ones.
    The plan returned is the compiled plan, so its matrices and constants
    are compile_plan's bit for bit. A malformed document (a missing key, a
    key that save_plan does not write, a value of the wrong type) is a
    ValueError too, and so is a document of plan version 1 or 2, which
    held the preadds as well. Every value is spelled as save_plan writes
    it: an integer field is a JSON integer, never a float or a bool.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a plan document is a JSON object, not "
                         f"{type(doc).__name__}")
    try:
        return _certified_plan(doc)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed plan document: {exc!r}") from exc


def _refuse_unknown_keys(obj, known: frozenset, what: str) -> None:
    """ValueError if obj, an object of a plan document, has a key that
    save_plan does not write there. A missing key and an obj that is not
    an object are left to the reader, which raises its own error."""
    if isinstance(obj, dict) and not obj.keys() <= known:
        raise ValueError(f"{what} has keys {sorted(obj.keys() - known)!r} "
                         f"that a plan file does not hold")


def _certified_plan(doc: dict) -> FftPlan:
    if doc.get("format") != PLAN_FORMAT:
        raise ValueError(f"not a plan document: format={doc.get('format')!r}")
    version = doc.get("version")
    if type(version) is not int or version != PLAN_VERSION:
        raise ValueError(f"unsupported plan version {version!r}")
    _refuse_unknown_keys(doc, _PLAN_KEYS, "the plan document")
    n = doc["N"]
    if type(n) is not int:
        raise ValueError(f"plan N must be an integer, got {n!r}")
    # the branches are checked against the layout of N arithmetically,
    # before decompose(n) builds the N x N exponent grid: a document that
    # claims a huge N with too few branches costs what its branches cost
    positive = _positive_classes(n)
    keys: set[tuple] = set()
    for b in doc["branches"]:
        key = (b["m"], b["constant_kind"], b["destination"], b["sign"])
        if {type(b["m"]), type(b["sign"])} != {int} or b["m"] not in positive \
                or key[1:] not in {row[1:] for row in
                                   _LAYOUT[_class_kind(n, b["m"])]}:
            raise ValueError(f"branch {key!r} is not in the layout for N={n}: "
                             f"m is not a positive class index or the rest "
                             f"is not a layout row of its class")
        if key in keys:
            raise ValueError(f"duplicate branch {key!r}")
        _refuse_unknown_keys(b, _BRANCH_KEYS, f"branch {key!r}")
        keys.add(key)
    # every key is a distinct layout slot, so the document is complete iff
    # its first len(keys) slots in walk order are all present and no slot
    # follows them: at most len(keys) + 1 slots are visited
    slots = ((m, row) for m in positive
             for row in _LAYOUT[_class_kind(n, m)])
    for i, (m, row) in enumerate(slots):
        if i == len(keys) or (m, *row[1:]) not in keys:
            raise ValueError(f"no branch for the {row[0]} matrix of m={m}, "
                             f"N={n}")
    plan = compile_plan(decompose(n))
    for name in ("mult_count", "add_count"):
        count = getattr(plan, name)
        if type(doc[name]) is not int or doc[name] != count:
            raise ValueError(f"{name} {doc[name]!r} is not the recounted "
                             f"{count}")
    return plan


def save_plan(plan: FftPlan, path: str | Path) -> None:
    """Write json.dumps(plan_to_dict(plan), indent=2) + "\\n" to path: the
    pinned plan file format."""
    Path(path).write_text(json.dumps(plan_to_dict(plan), indent=2) + "\n",
                          encoding="utf-8")


# The longest file load_plan caches, in bytes (a file save_plan writes is
# ASCII, so one byte a character): every plan file through N = 188 fits
# (N = 128's is 6,872 bytes, N = 188's 10,141), and the heaviest plan
# whose file fits, N = 188's, holds 0.99 MiB of file, arrays and
# lowering, so 8 entries hold about 8 MiB at most
_CACHED_TEXT_CHARS = 10 * 2**10


def load_plan(path: str | Path) -> FftPlan:
    """The plan in the file at path: plan_from_dict of its JSON.

    The plans of the last 8 files loaded are cached, each keyed on the
    file's whole bytes, so a load of the same bytes returns the same
    FftPlan object without decoding, parsing or certifying it again, and
    the executor reuses that object's lowering. The certificate is a
    function of the document alone, so the cache accepts nothing
    plan_from_dict refuses; a refused file raises on every load, since an
    exception is never cached, and a file rewritten with other content is
    certified again. A file longer than _CACHED_TEXT_CHARS bytes is
    certified on every load and not kept. The file is UTF-8 text.
    """
    data = Path(path).read_bytes()
    if len(data) > _CACHED_TEXT_CHARS:
        return _plan_of_text.__wrapped__(data)
    return _plan_of_text(data)


@lru_cache(maxsize=8)
def _plan_of_text(data: bytes) -> FftPlan:
    try:
        doc = json.loads(data.decode("utf-8"))
    except RecursionError as exc:
        # json's decoder recurses once per level of nesting
        raise ValueError(f"malformed plan document: {exc!r}") from exc
    return plan_from_dict(doc)

"""Compile the class decomposition into an executable fast-transform plan.

For each paired class index m > 0 the four combination matrices
Re(M_m) +- Re(M_-m) and Im(M_m) +- Im(M_-m) each get rank-factored into
postadd * preadd, so applying one of them costs rank-many multiplications
by a single real constant (cos or sin of 2*pi*m/N). When 8 | N the top
class has no negative partner; its two combinations (Re+Im) and (Im-Re)
share the one constant sqrt(2)/2. Class 0 needs no multiplications at all
and becomes the additive stage.

The multiplication count of a compiled plan is the sum of branch ranks.
One table (_LAYOUT) says which combination matrix becomes which branch,
and one walk (_factored_slots) factors each matrix once for both
compile_plan and complexity. The module also reports the count three ways
(per-branch ranks, an independent stacked elimination, and the doubled sum
over real-part ranks) so their agreement can be checked rather than
assumed, and can serialize plans to JSON and back, rejecting documents
that break the layout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .decomposition import ClassDecomposition, class_indices, decompose
from .rational import RationalMatrix, ZeroMatrixError, rank, rank_factor, vstack

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


@dataclass(frozen=True, eq=False)
class BranchMatrices:
    """The multiplicative combination matrices for one positive class index.

    Symmetric kind: re_sum = Re(M_m)+Re(M_-m), re_diff = Re(M_m)-Re(M_-m),
    and likewise im_sum/im_diff. Asymmetric kind (m = N/8, only when 8 | N):
    re_sum = Re(M_m)+Im(M_m) and im_diff = Im(M_m)-Re(M_m); the other two
    slots are None because the class has no negative partner.
    """

    m: int
    kind: str
    re_sum: np.ndarray
    re_diff: np.ndarray | None
    im_sum: np.ndarray | None
    im_diff: np.ndarray


def branch_matrices(dec: ClassDecomposition, m: int) -> BranchMatrices:
    if m < 1 or m not in dec.indices:
        raise ValueError(f"{m} is not a positive class index for n={dec.n}")
    pos = dec.matrix(m)
    if _class_kind(dec.n, m) == ASYMMETRIC:
        return BranchMatrices(m=m, kind=ASYMMETRIC,
                              re_sum=pos.re + pos.im, re_diff=None,
                              im_sum=None, im_diff=pos.im - pos.re)
    neg = dec.matrix(-m)
    return BranchMatrices(m=m, kind=SYMMETRIC,
                          re_sum=pos.re + neg.re, re_diff=pos.re - neg.re,
                          im_sum=pos.im + neg.im, im_diff=pos.im - neg.im)


def _positive_indices(dec: ClassDecomposition) -> tuple[int, ...]:
    return tuple(m for m in dec.indices if m >= 1)


@dataclass(frozen=True, eq=False)
class _FactoredSlot:
    """One combination matrix, its layout row and its exact factorization.

    factors is rank_factor's (postadd, preadd), or None for an all-zero
    matrix.
    """

    m: int
    slot: str
    constant_kind: str
    destination: str
    sign: int
    matrix: RationalMatrix
    factors: tuple[RationalMatrix, RationalMatrix] | None

    @property
    def rank(self) -> int:
        return 0 if self.factors is None else self.factors[1].rows


def _factored_slots(dec: ClassDecomposition) -> Iterator[_FactoredSlot]:
    """Factor every combination matrix once, class by class in layout order.

    Lazy on purpose: a consumer that drops each class before asking for the
    next holds at most one class's dense rational matrices at a time.
    """
    for m in _positive_indices(dec):
        bm = branch_matrices(dec, m)
        for slot, kind, destination, sign in _LAYOUT[bm.kind]:
            matrix = RationalMatrix.from_int_matrix(getattr(bm, slot))
            try:
                factors = rank_factor(matrix)
            except ZeroMatrixError:
                factors = None
            yield _FactoredSlot(m=m, slot=slot, constant_kind=kind,
                                destination=destination, sign=sign,
                                matrix=matrix, factors=factors)


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
    the chosen output part. preadd has rank-many rows; postadd rebuilds the
    source matrix exactly: postadd * preadd = source.
    """

    m: int
    constant_kind: str
    constant_value: float
    preadd: RationalMatrix
    postadd: RationalMatrix
    destination: str
    sign: int

    @property
    def rank(self) -> int:
        return self.preadd.rows


@dataclass(frozen=True, eq=False)
class AdditiveStage:
    """Multiplication-free class-0 contribution: Re and Im of M_0."""

    re_m0: np.ndarray
    im_m0: np.ndarray


@dataclass(frozen=True, eq=False)
class FftPlan:
    """Straight-line recipe: additive stage plus scaled branches.

    mult_count counts one real multiplication per preadded value per branch
    (the branch constant scalings); add_count counts every two-operand real
    addition in the preadd, postadd, and additive stages under the fixed
    convention of :mod:`laurentfft.execute`; extra_mult_count counts matrix
    entries outside {-1, 0, 1}, which would each cost one further real
    multiplication (zero for every supported blocklength).
    """

    n: int
    additive: AdditiveStage
    branches: tuple[MultiplicativeBranch, ...]
    mult_count: int
    add_count: int
    extra_mult_count: int


def _int_row_adds(mat: np.ndarray) -> int:
    nnz_per_row = (mat != 0).sum(axis=1)
    return int(np.maximum(nnz_per_row - 1, 0).sum())


def _rational_nnz(mat: RationalMatrix) -> int:
    return sum(1 for row in mat.entries for x in row if x != 0)


def _rational_row_adds(mat: RationalMatrix) -> int:
    total = 0
    for row in mat.entries:
        nnz = sum(1 for x in row if x != 0)
        if nnz > 1:
            total += nnz - 1
    return total


def _nonunit_entries(mat: RationalMatrix) -> int:
    return sum(1 for row in mat.entries for x in row
               if x != 0 and abs(x) != 1)


def compile_plan(dec: ClassDecomposition) -> FftPlan:
    """Build the executable plan for one decomposition.

    Real-input orientation: the plan produces Re(DFT v) and Im(DFT v) for a
    real vector v. Branch layout per symmetric class m: the re_sum matrix
    scaled by cos goes to the real part, im_diff scaled by sin to the real
    part, im_sum scaled by cos to the imaginary part, and re_diff scaled by
    sin is subtracted from the imaginary part. The asymmetric class routes
    (Re+Im) to the real part and (Im-Re) to the imaginary part, both scaled
    by sqrt(2)/2. All-zero combination matrices compile to no branch.
    """
    m0 = dec.matrix(0)
    branches: list[MultiplicativeBranch] = []
    extra = 0
    for f in _factored_slots(dec):
        if f.factors is None:
            continue
        post, pre = f.factors
        value = constant_value(f.constant_kind, f.m, dec.n)
        assert 0.0 < value < 1.0
        extra += _nonunit_entries(pre) + _nonunit_entries(post)
        branches.append(MultiplicativeBranch(
            m=f.m, constant_kind=f.constant_kind, constant_value=value,
            preadd=pre, postadd=post, destination=f.destination,
            sign=f.sign))
    mult_count = sum(b.rank for b in branches)
    add_count = _int_row_adds(m0.re) + _int_row_adds(m0.im)
    for b in branches:
        add_count += _rational_row_adds(b.preadd) + _rational_nnz(b.postadd)
    return FftPlan(n=dec.n,
                   additive=AdditiveStage(re_m0=m0.re, im_m0=m0.im),
                   branches=tuple(branches), mult_count=mult_count,
                   add_count=add_count, extra_mult_count=extra)


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

    realized_total sums the per-branch ranks, each read off the same rank
    factorization compile_plan turns into a branch, so it is what a
    compiled plan spends and equals plan.mult_count. stacked_total is an
    independent elimination: it ranks the row-stacked pairs
    [re_sum; im_sum] and [re_diff; im_diff] per symmetric class, which
    collapses any rank shared between the real and imaginary families.
    simplified_total doubles the (re_sum, im_sum) ranks per symmetric
    class, valid whenever sum and difference ranks agree. All three
    coincide on every supported blocklength up to 64; the tests check that
    claim, and check each per-branch rank against sympy.
    """

    n: int
    per_class: tuple[ClassRankRow, ...]
    realized_total: int
    stacked_total: int
    simplified_total: int
    nlog2n: int


def _class_ranks(n: int, m: int, slots: Iterable[_FactoredSlot]
                 ) -> tuple[ClassRankRow, int, int, int]:
    """One class's rank row and its realized, stacked and simplified counts.

    A function of its own so that the class's matrices are freed when it
    returns, before the walk factors the next class.
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
    mat = {slot: f.matrix for slot, f in by_slot.items()}
    stacked = (rank(vstack(mat["re_sum"], mat["im_sum"]))
               + rank(vstack(mat["re_diff"], mat["im_diff"])))
    return row, realized, stacked, 2 * (ranks["re_sum"] + ranks["im_sum"])


def complexity(dec: ClassDecomposition) -> ComplexityReport:
    rows: list[ClassRankRow] = []
    totals = [0, 0, 0]
    for m, group in groupby(_factored_slots(dec), key=lambda f: f.m):
        row, *counts = _class_ranks(dec.n, m, group)
        rows.append(row)
        totals = [t + c for t, c in zip(totals, counts)]
    realized, stacked, simplified = totals
    nlog2n = 0 if dec.n < 1 else int(math.floor(dec.n * math.log2(dec.n) + 0.5))
    return ComplexityReport(n=dec.n, per_class=tuple(rows),
                            realized_total=realized, stacked_total=stacked,
                            simplified_total=simplified, nlog2n=nlog2n)


def complexity_for(n: int) -> ComplexityReport:
    return complexity(decompose(n))


@dataclass(frozen=True)
class CoupledPair:
    """Two input indices entering one preadd row together.

    relative_sign is +1 when both enter with the same sign, -1 otherwise.
    A row with an odd number of nonzeros leaves its last index unpaired
    (second and relative_sign are None).
    """

    first: int
    second: int | None
    relative_sign: int | None


def coupled_samples(plan: FftPlan) -> list[CoupledPair]:
    """Read the preadd rows as signed input pairings.

    Walks each branch's preadd rows in order and pairs consecutive nonzero
    columns; a pattern like +v1 -v5 -v7 +v11 reports (1, 5, -1) and
    (7, 11, -1). Purely diagnostic: it shows which input samples each
    multiplicative branch couples, in the order the plan adds them.
    """
    pairs: list[CoupledPair] = []
    for branch in plan.branches:
        for row in branch.preadd.entries:
            support = [(c, x) for c, x in enumerate(row) if x != 0]
            for i in range(0, len(support) - 1, 2):
                (c1, x1), (c2, x2) = support[i], support[i + 1]
                sign = 1 if (x1 > 0) == (x2 > 0) else -1
                pairs.append(CoupledPair(first=c1, second=c2,
                                         relative_sign=sign))
            if len(support) % 2:
                pairs.append(CoupledPair(first=support[-1][0], second=None,
                                         relative_sign=None))
    return pairs


PLAN_FORMAT = "laurentfft-plan"
PLAN_VERSION = 1


def _int_triplets(mat: np.ndarray) -> list[list[int]]:
    rows, cols = np.nonzero(mat)
    return [[int(r), int(c), int(mat[r, c])] for r, c in zip(rows, cols)]


def _int_matrix_doc(mat: np.ndarray) -> dict:
    return {"rows": int(mat.shape[0]), "cols": int(mat.shape[1]),
            "triplets": _int_triplets(mat)}


def _rational_matrix_doc(mat: RationalMatrix) -> dict:
    triplets = [[i, j, str(x)]
                for i, row in enumerate(mat.entries)
                for j, x in enumerate(row) if x != 0]
    return {"rows": mat.rows, "cols": mat.cols, "triplets": triplets}


def _checked_triplets(doc: dict):
    rows, cols = doc["rows"], doc["cols"]
    for r, c, v in doc["triplets"]:
        if not (0 <= r < rows and 0 <= c < cols):
            raise ValueError(f"triplet index ({r}, {c}) is outside a "
                             f"{rows}x{cols} matrix")
        yield r, c, v


def _int_matrix_from_doc(doc: dict) -> np.ndarray:
    mat = np.zeros((doc["rows"], doc["cols"]), dtype=np.int64)
    for r, c, v in _checked_triplets(doc):
        mat[r, c] = int(v)
    return mat


def _rational_matrix_from_doc(doc: dict) -> RationalMatrix:
    entries = [[Fraction(0)] * doc["cols"] for _ in range(doc["rows"])]
    for r, c, v in _checked_triplets(doc):
        entries[r][c] = Fraction(v)
    return RationalMatrix(entries, cols=doc["cols"])


def plan_to_dict(plan: FftPlan) -> dict:
    """JSON-ready document for a plan.

    Matrices are sparse {rows, cols, triplets} objects with triplets listed
    row-major; integer-matrix values are JSON integers, rational values are
    strings in lowest terms ("3", "-1/2"). Constants are stored as floats
    (JSON round-trips them exactly), so a reloaded plan executes
    bit-for-bit like the original.
    """
    return {
        "format": PLAN_FORMAT,
        "version": PLAN_VERSION,
        "N": plan.n,
        "mult_count": plan.mult_count,
        "add_count": plan.add_count,
        "extra_mult_count": plan.extra_mult_count,
        "additive": {"re": _int_matrix_doc(plan.additive.re_m0),
                     "im": _int_matrix_doc(plan.additive.im_m0)},
        "branches": [{
            "m": b.m,
            "constant_kind": b.constant_kind,
            "constant_value": b.constant_value,
            "destination": b.destination,
            "sign": b.sign,
            "preadd": _rational_matrix_doc(b.preadd),
            "postadd": _rational_matrix_doc(b.postadd),
        } for b in plan.branches],
    }


def plan_from_dict(doc: dict) -> FftPlan:
    """Rebuild a plan from its JSON document, rejecting one that breaks the
    compile layout.

    Raises ValueError for a wrong format or version, an unsupported N, a
    branch whose m is not a positive class index, whose (constant_kind,
    destination, sign) is not a layout row for its class, which repeats an
    earlier (m, constant_kind, destination), or whose constant is off; a
    triplet index outside its matrix; shapes that do not chain
    (preadd N columns, postadd N rows and one column per preadd row,
    additive N x N); and a mult_count other than the sum of preadd rows.
    The checks cost O(branches + nonzeros); add_count and
    extra_mult_count are left to verify_plan's measured counters.
    """
    if doc.get("format") != PLAN_FORMAT:
        raise ValueError(f"not a plan document: format={doc.get('format')!r}")
    if doc.get("version") != PLAN_VERSION:
        raise ValueError(f"unsupported plan version {doc.get('version')!r}")
    n = doc["N"]
    if not isinstance(n, int):
        raise ValueError(f"plan N must be an integer, got {n!r}")
    positive = tuple(m for m in class_indices(n) if m >= 1)
    branches = []
    seen = set()
    for b in doc["branches"]:
        m = b["m"]
        if m not in positive:
            raise ValueError(f"branch m={m!r} is not a positive class index "
                             f"for N={n}")
        row = (b["constant_kind"], b["destination"], b["sign"])
        if row not in [layout[1:] for layout in _LAYOUT[_class_kind(n, m)]]:
            raise ValueError(f"branch (constant_kind, destination, sign)="
                             f"{row!r} is not in the layout for m={m}, N={n}")
        key = (m, b["constant_kind"], b["destination"])
        if key in seen:
            raise ValueError(f"duplicate branch {key!r}")
        seen.add(key)
        expected = constant_value(b["constant_kind"], m, n)
        if abs(b["constant_value"] - expected) > 1e-12:
            raise ValueError(
                f"branch constant {b['constant_value']!r} does not match "
                f"{b['constant_kind']} for m={m}, N={n}")
        pre = _rational_matrix_from_doc(b["preadd"])
        post = _rational_matrix_from_doc(b["postadd"])
        if pre.cols != n or post.rows != n or post.cols != pre.rows:
            raise ValueError(
                f"branch {key!r} shapes do not chain: preadd "
                f"{pre.rows}x{pre.cols}, postadd {post.rows}x{post.cols}, "
                f"N={n}")
        branches.append(MultiplicativeBranch(
            m=m, constant_kind=b["constant_kind"],
            constant_value=b["constant_value"], preadd=pre, postadd=post,
            destination=b["destination"], sign=b["sign"]))
    additive = AdditiveStage(re_m0=_int_matrix_from_doc(doc["additive"]["re"]),
                             im_m0=_int_matrix_from_doc(doc["additive"]["im"]))
    for mat in (additive.re_m0, additive.im_m0):
        if mat.shape != (n, n):
            raise ValueError(f"additive matrix is {mat.shape[0]}x"
                             f"{mat.shape[1]}, not {n}x{n}")
    mult_count = sum(b.rank for b in branches)
    if doc["mult_count"] != mult_count:
        raise ValueError(f"mult_count {doc['mult_count']!r} is not the "
                         f"{mult_count} preadd rows of the branches")
    return FftPlan(n=n, additive=additive, branches=tuple(branches),
                   mult_count=mult_count, add_count=doc["add_count"],
                   extra_mult_count=doc["extra_mult_count"])


def save_plan(plan: FftPlan, path: str | Path) -> None:
    Path(path).write_text(json.dumps(plan_to_dict(plan), indent=2) + "\n",
                          encoding="utf-8")


def load_plan(path: str | Path) -> FftPlan:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return plan_from_dict(doc)

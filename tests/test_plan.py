import copy
import dataclasses
import gc
import hashlib
import json
import math
import sys
import tracemalloc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from laurentfft import plan as plan_mod
from laurentfft.decomposition import (UnsupportedBlocklengthError,
                                      class_indices, class_tables, decompose)
from laurentfft.execute import execute_real, verify_plan
from laurentfft.plan import (ASYMMETRIC, SYMMETRIC, UnitMatrix,
                             branch_matrices, compile_plan, compile_plan_for,
                             complexity, complexity_for, constant_value,
                             load_plan, plan_from_dict, plan_to_dict,
                             save_plan)
from laurentfft.rational import RationalMatrix, rank, rref
from oracles import dense, direct_factors, plan_text, sympy_rank

SUPPORTED = tuple(range(4, 65, 4))

TABLE1 = {12: 8, 20: 32, 28: 72, 36: 88, 44: 200, 52: 288, 60: 208}
TABLE2 = {8: 2, 16: 12, 32: 54, 64: 224}


def _ranks(bm):
    return {slot: rank(RationalMatrix.from_int_matrix(mat))
            for slot, mat in bm.items()}


def test_branch_matrices_n12_ranks():
    bm = branch_matrices(decompose(12), 1)
    assert _ranks(bm) == {"re_sum": 1, "re_diff": 1, "im_sum": 3, "im_diff": 3}


def test_branch_matrices_n8_asymmetric():
    # the asymmetric class has no negative partner: only its two slots
    bm = branch_matrices(decompose(8), 1)
    assert list(bm) == ["re_sum", "im_diff"]
    ranks = _ranks(bm)
    # per-matrix ranks are 1 and 1: (Re+Im) and (Im-Re) are each rank one,
    # so the class costs 2 multiplications in total
    assert ranks["re_sum"] == 1 and ranks["im_diff"] == 1


def test_branch_matrices_symmetric_definition():
    dec = decompose(20)
    for m in (1, 2):
        bm = branch_matrices(dec, m)
        pos_re, pos_im = (t[dec.exponents] for t in class_tables(20, m))
        neg_re, neg_im = (t[dec.exponents] for t in class_tables(20, -m))
        assert np.array_equal(bm["re_sum"], pos_re + neg_re)
        assert np.array_equal(bm["re_diff"], pos_re - neg_re)
        assert np.array_equal(bm["im_sum"], pos_im + neg_im)
        assert np.array_equal(bm["im_diff"], pos_im - neg_im)


def test_branch_matrices_entries_stay_unit():
    # classes occupy disjoint grid cells, so sums and differences never
    # leave {-1, 0, 1}; this is what keeps every multiplication a single
    # constant scaling
    for n in SUPPORTED:
        dec = decompose(n)
        for m in class_indices(n):
            if m < 1:
                continue
            for mat in branch_matrices(dec, m).values():
                assert int(np.abs(mat).max(initial=0)) <= 1


def test_branch_matrices_rejects_bad_index():
    dec = decompose(12)
    with pytest.raises(ValueError):
        branch_matrices(dec, 0)
    with pytest.raises(ValueError):
        branch_matrices(dec, -1)
    with pytest.raises(ValueError):
        branch_matrices(dec, 2)


def test_compile_plan_n12_layout():
    plan = compile_plan_for(12)
    got = [(b.m, b.constant_kind, b.destination, b.sign, b.rank)
           for b in plan.branches]
    assert got == [(1, "cosine", "real_out", 1, 1),
                   (1, "sine", "real_out", 1, 3),
                   (1, "cosine", "imag_out", 1, 3),
                   (1, "sine", "imag_out", -1, 1)]
    assert plan.mult_count == 8
    assert plan.branches[0].constant_value == math.cos(2 * math.pi / 12)
    assert plan.branches[1].constant_value == math.sin(2 * math.pi / 12)


def test_compile_plan_n8_two_sqrt2_branches():
    plan = compile_plan_for(8)
    got = [(b.constant_kind, b.destination, b.sign) for b in plan.branches]
    assert got == [("half_sqrt2", "real_out", 1), ("half_sqrt2", "imag_out", 1)]
    assert plan.mult_count == 2
    for b in plan.branches:
        assert b.constant_value == math.sqrt(2) / 2


def test_compile_plan_n4_is_additive_only():
    plan = compile_plan_for(4)
    assert plan.branches == ()
    assert plan.mult_count == 0
    assert np.array_equal(dense(plan.additive.re_m0),
                          np.array([[1, 1, 1, 1], [1, 0, -1, 0],
                                    [1, -1, 1, -1], [1, 0, -1, 0]]))


def test_branch_constants_strictly_inside_unit_interval():
    for n in SUPPORTED:
        for b in compile_plan_for(n).branches:
            assert 0.0 < b.constant_value < 1.0


def test_compile_plan_rejects_a_constant_outside_the_unit_interval(
        monkeypatch):
    # a real check, not an assert, so it holds under python -O too
    monkeypatch.setattr(plan_mod, "constant_value", lambda kind, m, n: 1.0)
    with pytest.raises(ValueError, match="strictly between 0 and 1"):
        compile_plan_for(12)


def test_constant_value_rejects_unknown_kind():
    with pytest.raises(ValueError):
        constant_value("tangent", 1, 12)


def test_branch_factorizations_are_exact():
    for n in (8, 12, 16, 20, 64):
        dec = decompose(n)
        plan = compile_plan(dec)
        slot_for = {("cosine", "real_out"): "re_sum",
                    ("sine", "real_out"): "im_diff",
                    ("cosine", "imag_out"): "im_sum",
                    ("sine", "imag_out"): "re_diff",
                    ("half_sqrt2", "real_out"): "re_sum",
                    ("half_sqrt2", "imag_out"): "im_diff"}
        for b in plan.branches:
            source = branch_matrices(dec, b.m)[
                slot_for[(b.constant_kind, b.destination)]]
            product = dense(b.postadd).astype(int) @ \
                dense(b.preadd).astype(int)
            assert np.array_equal(product, source), (n, b.m)


def test_mult_count_equals_realized_total_everywhere():
    for n in SUPPORTED:
        plan = compile_plan_for(n)
        report = complexity_for(n)
        assert plan.mult_count == report.realized_total


def test_realized_counts_reproduce_both_tables():
    for n, expected in {**TABLE1, **TABLE2}.items():
        assert complexity_for(n).realized_total == expected, n


def test_three_count_forms_agree():
    for n in SUPPORTED:
        r = complexity_for(n)
        assert r.realized_total == r.stacked_total == r.simplified_total, n


@pytest.mark.parametrize("n", range(4, 129, 4))
def test_plans_past_64_count_exactly_and_certify(tmp_path, n):
    # named for the blocklengths past 64 it was written for; it runs every
    # supported N up to 128
    plan = compile_plan_for(n)
    r = complexity_for(n)
    assert (plan.mult_count == r.realized_total == r.stacked_total
            == r.simplified_total)
    report = verify_plan(plan, trials=2)
    assert report.passed and report.counters_match
    path = tmp_path / "plan.json"
    save_plan(plan, path)
    loaded = load_plan(path)
    assert plan_to_dict(loaded) == plan_to_dict(plan)


@pytest.mark.parametrize("n", range(4, 37, 4))
def test_class_ranks_match_sympy(n):
    # complexity reads each rank off the factorization compile_plan uses,
    # or off its orbit representative's; sympy recomputes it from the
    # combination matrix with other machinery
    dec = decompose(n)
    for row in complexity(dec).per_class:
        bm = branch_matrices(dec, row.m)
        for slot in ("re_sum", "re_diff", "im_sum", "im_diff"):
            mat = bm.get(slot)
            expected = None if mat is None else sympy_rank(mat.tolist())
            assert getattr(row, f"rank_{slot}") == expected, (n, row.m, slot)


@pytest.mark.parametrize("n", range(4, 257, 4))
def test_orbit_classes_are_signed_column_permutations(n):
    # every positive class m with the same gcd(m, N/4) as the orbit's first
    # class r: for a unit c with c*m = +-r (mod N/4), each combination
    # matrix of m is +- one of r's read at columns c*i mod N, and the
    # stacked pairs (re_sum, im_sum), (re_diff, im_diff) map onto each other
    dec = decompose(n)
    q = n // 4
    first: dict[int, tuple[int, dict]] = {}
    for m in (m for m in class_indices(n) if m >= 1):
        mats = branch_matrices(dec, m)
        r, rep = first.setdefault(math.gcd(m, q), (m, mats))
        if r == m:
            continue
        c = next(c for c in range(1, n) if math.gcd(c, n) == 1
                 and ((c * m - r) % q == 0 or (c * m + r) % q == 0))
        moved = {s: a[:, np.arange(n) * c % n] for s, a in rep.items()}
        image = {}
        for s, a in mats.items():
            hits = [t for t, b in moved.items()
                    if np.array_equal(a, b) or np.array_equal(a, -b)]
            assert hits, (n, m, r, c, s)
            image[s] = hits[0]
        pairs = {frozenset(("re_sum", "im_sum")),
                 frozenset(("re_diff", "im_diff"))}
        assert {frozenset(map(image.get, p)) for p in pairs} == pairs


@pytest.mark.parametrize("n", range(4, 257, 4))
def test_every_layout_slot_compiles_to_one_branch(n):
    # classes m and -m have disjoint supports, so every combination table
    # has a +-1 entry: no matrix is zero and no layout slot is left empty
    dec = decompose(n)
    positive = [m for m in class_indices(n) if m >= 1]
    assert list(plan_mod._positive_classes(n)) == positive
    layout = [(m, *row[1:]) for m in positive
              for row in plan_mod._LAYOUT[plan_mod._class_kind(n, m)]]
    branches = compile_plan(dec).branches
    assert [(b.m, b.constant_kind, b.destination, b.sign)
            for b in branches] == layout
    assert all(b.rank > 0 for b in branches)


@pytest.mark.parametrize("n", range(4, 129, 4))
def test_derived_slots_match_a_direct_factorization(n):
    # one class per orbit is factored; every other slot's factors come off
    # its representative and must equal factoring the slot from scratch
    dec = decompose(n)
    reps = set()
    for f in plan_mod._factored_slots(dec):
        if f.source is None:
            reps.add((f.m, f.slot))
            continue
        assert (f.source.m, f.source.slot) in reps
        matrix = f.table[dec.exponents]
        assert matrix.any() and f.rank > 0, (n, f.m, f.slot)
        branch = f.branch(dec.exponents)
        post, pre = direct_factors(matrix)
        assert all(np.array_equal(dense(mine), direct.entries)
                   for mine, direct
                   in zip((branch.postadd, branch.preadd), (post, pre))), \
            (n, f.m, f.slot)
        assert f.rank == pre.rows
    orbits = {math.gcd(m, n // 4) for m in class_indices(n) if m >= 1}
    assert len({m for m, _ in reps}) == len(orbits)


@pytest.mark.parametrize("n", range(4, 257, 4))
def test_derived_preadds_are_the_representatives(n):
    # a derived matrix is +- a row permutation of its representative's, so
    # reducing its own distinct rows gives the representative's preadd
    dec = decompose(n)
    for f in plan_mod._factored_slots(dec):
        if f.source is None:
            continue
        exact = RationalMatrix.from_int_matrix(
            plan_mod._distinct_rows(f.table[dec.exponents]))
        assert exact.rows > 0 and f.rank > 0, (n, f.m, f.slot)
        assert f.reduced is f.source.reduced
        assert np.array_equal(rref(exact).rref.entries,
                              dense(f.source.reduced)), \
            (n, f.m, f.slot)


@pytest.mark.parametrize("n", (20, 32, 60, 64, 96))
def test_derived_from_rejects_a_table_with_one_entry_flipped(n):
    # the O(N) table check is exact, not vacuous: negating any single
    # nonzero entry of any derived slot's table breaks the derivation
    classes: dict[int, list] = {}
    for f in plan_mod._factored_slots(decompose(n)):
        classes.setdefault(f.m, []).append(f)
    derived = [m for m, slots in classes.items() if slots[0].source]
    assert derived, n
    for m in derived:
        rep = tuple(classes[classes[m][0].source.m])
        layout = plan_mod._LAYOUT[plan_mod._class_kind(n, m)]
        tables = [f.table for f in classes[m]]
        assert plan_mod._derived_from(n, m, layout, tables, rep) is not None
        for j, t in enumerate(tables):
            for e in np.flatnonzero(t):
                flipped = t.copy()
                flipped[e] = -flipped[e]
                bad = tables[:j] + [flipped] + tables[j + 1:]
                got = plan_mod._derived_from(n, m, layout, bad, rep)
                assert got is None, (n, m, j, e)


@pytest.mark.parametrize("n", range(4, 129, 4))
def test_representatives_match_a_full_row_factorization(n):
    # a representative is reduced on its distinct rows up to sign; its
    # preadd and rank must be those of reducing all N rows
    dec = decompose(n)
    for f in plan_mod._factored_slots(dec):
        if f.source is not None:
            continue
        matrix = f.table[dec.exponents]
        assert matrix.any() and f.rank > 0, (n, f.m, f.slot)
        pre = direct_factors(matrix)[1]
        assert np.array_equal(dense(f.reduced), pre.entries), \
            (n, f.m, f.slot)
        assert f.rank == pre.rows, (n, f.m, f.slot)


def _with_repeats(rng, a):
    """a's rows plus copies, negated copies and zero rows, shuffled."""
    picks = rng.integers(0, len(a), size=4)
    extra = [a[picks[:2]], -a[picks[2:]], np.zeros((2, a.shape[1]), a.dtype)]
    return rng.permutation(np.concatenate([a, *extra]))


@pytest.mark.parametrize("seed", range(40))
def test_distinct_rows_keep_the_row_space(seed):
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(1, 7, size=2)
    base = rng.integers(-2, 3, size=(rows, cols), dtype=np.int8)
    if seed == 0:  # the all-zero matrix
        base[:] = 0
    cases = [base, base[:1], _with_repeats(rng, base)]
    for a in cases:
        out = plan_mod._distinct_rows(a)
        assert out.shape[1] == a.shape[1]
        assert len({row.tobytes() for row in out}) == len(out)
        assert all(row[np.flatnonzero(row)[0]] > 0 for row in out)
        got, want = (rref(RationalMatrix.from_int_matrix(x)) for x in (out, a))
        assert (got.rref.entries, got.rank, got.pivot_cols) == \
            (want.rref.entries, want.rank, want.pivot_cols)
        assert rank(RationalMatrix.from_int_matrix(out)) == want.rank


def test_complexity_for_256_holds_one_class_and_the_representatives():
    # the walk keeps each orbit representative's int8 tables and
    # preadds; holding every class's matrices would pass 16 MB
    tracemalloc.start()
    try:
        report = complexity_for(256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.realized_total == report.stacked_total == 3636
    assert peak < 12 * 10**6


def test_complexity_for_512_reads_every_matrix_off_a_table():
    # the walk holds the exponent grid, tables and the representatives'
    # preadds, and builds an N x N matrix only to factor a representative;
    # building every class matrix in four N x N passes peaked near 27 MB
    tracemalloc.start()
    try:
        report = complexity_for(512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.realized_total == report.stacked_total
            == report.simplified_total == 14558)
    assert peak < 12 * 10**6


def test_complexity_for_1024_totals_agree():
    report = complexity_for(1024)
    assert (report.realized_total == report.stacked_total
            == report.simplified_total == 58248)


def test_rank_symmetry_between_sum_and_difference():
    for n in SUPPORTED:
        for row in complexity_for(n).per_class:
            if row.kind == SYMMETRIC:
                assert row.rank_re_sum == row.rank_re_diff, (n, row)
                assert row.rank_im_sum == row.rank_im_diff, (n, row)


def test_per_class_rows_structure():
    report = complexity_for(16)
    assert [row.m for row in report.per_class] == [1, 2]
    sym, asym = report.per_class
    assert sym.kind == SYMMETRIC
    assert asym.kind == ASYMMETRIC
    assert asym.rank_re_diff is None and asym.rank_im_sum is None


def test_asymmetric_class_only_when_8_divides_n():
    for n in SUPPORTED:
        kinds = [row.kind for row in complexity_for(n).per_class]
        if n % 8 == 0 and n > 4:
            assert kinds.count(ASYMMETRIC) == 1
            assert kinds[-1] == ASYMMETRIC
        else:
            assert ASYMMETRIC not in kinds


def test_n12_preadd_rows_match_the_known_reductions():
    plan = compile_plan_for(12)
    rows = {(b.constant_kind, b.destination):
            [tuple(row) for row in dense(b.preadd).tolist()]
            for b in plan.branches}
    assert rows[("cosine", "real_out")] == \
        [(0, 1, 0, 0, 0, -1, 0, -1, 0, 0, 0, 1)]
    assert rows[("sine", "imag_out")] == \
        [(0, 1, 0, 0, 0, 1, 0, -1, 0, 0, 0, -1)]
    assert rows[("sine", "real_out")] == \
        [(0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1),
         (0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0),
         (0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0)]
    assert rows[("cosine", "imag_out")] == \
        [(0, 1, 0, 0, 0, -1, 0, 1, 0, 0, 0, -1),
         (0, 0, 1, 0, 0, 0, 0, 0, 0, 0, -1, 0),
         (0, 0, 0, 0, 1, 0, 0, 0, -1, 0, 0, 0)]


def test_n20_couples_the_condensed_row_pattern():
    plan = compile_plan_for(20)
    supports = {tuple(np.flatnonzero(row).tolist())
                for b in plan.branches for row in dense(b.preadd)}
    assert (1, 9, 11, 19) in supports
    assert (3, 7, 13, 17) in supports


def test_plan_dict_roundtrip_preserves_everything():
    # the document holds N, the counts and the layout rows; the loader
    # rebuilds the rest, so the reloaded plan must be the compiled one
    # array for array, with each constant exactly its kind's value and
    # bitwise outputs
    rng = np.random.default_rng(16)
    for n in range(4, 129, 4):
        plan = compile_plan_for(n)
        doc = json.loads(json.dumps(plan_to_dict(plan)))
        again = plan_from_dict(doc)
        assert plan_to_dict(again) == doc, n
        assert (again.n, again.mult_count, again.add_count) == \
            (plan.n, plan.mult_count, plan.add_count), n
        for name in ("re_m0", "im_m0"):
            assert np.array_equal(dense(getattr(again.additive, name)),
                                  dense(getattr(plan.additive, name))), n
        assert len(again.branches) == len(plan.branches)
        for a, b in zip(again.branches, plan.branches):
            assert (a.m, a.constant_kind, a.destination, a.sign) == \
                (b.m, b.constant_kind, b.destination, b.sign)
            assert a.constant_value == b.constant_value == \
                constant_value(a.constant_kind, a.m, n), (n, a.m)
            for name in ("preadd", "postadd"):
                assert np.array_equal(dense(getattr(a, name)),
                                      dense(getattr(b, name))), (n, a.m)
        v = rng.uniform(-1.0, 1.0, n)
        assert execute_real(again, v)[0].tobytes() == \
            execute_real(plan, v)[0].tobytes(), n


def _unit(full) -> UnitMatrix:
    """The plan matrix of the dense array full, read off it as the package
    reads its own."""
    return UnitMatrix(*plan_mod._nonzeros(np.asarray(full)))


def _matrix_doc(unit, value=str):
    """The plan matrix unit's {rows, cols, triplets} object, as plan
    format versions 1 and 2 held it, built from np.nonzero of its dense
    array: [row, col, value] row-major, the value value(+-1), the string
    "1" or "-1" by default."""
    mat = dense(unit)
    rows, cols = np.nonzero(mat)
    values = mat[rows, cols].tolist()
    return {"rows": mat.shape[0], "cols": mat.shape[1],
            "triplets": [[i, j, value(v)] for i, j, v
                         in zip(rows.tolist(), cols.tolist(), values)]}


@pytest.mark.parametrize("n", SUPPORTED)
def test_plan_to_dict_holds_n_its_counts_and_layout_rows(n):
    plan = compile_plan_for(n)
    assert plan_to_dict(plan) == {
        "format": "laurentfft-plan", "version": 3, "N": n,
        "mult_count": plan.mult_count, "add_count": plan.add_count,
        "branches": [{"m": b.m, "constant_kind": b.constant_kind,
                      "destination": b.destination, "sign": b.sign}
                     for b in plan.branches]}


def test_plan_document_shape():
    doc = plan_to_dict(compile_plan_for(12))
    assert doc["format"] == "laurentfft-plan" and doc["version"] == 3
    assert doc["N"] == 12 and doc["mult_count"] == 8
    # only what N does not fix: no additive stage, preadd, postadd or
    # constant
    assert set(doc) == {"format", "version", "N", "mult_count", "add_count",
                        "branches"}
    assert all(set(b) == {"m", "constant_kind", "destination", "sign"}
               for b in doc["branches"])
    # the loader refuses any other key, at each of the two levels
    assert (plan_mod._PLAN_KEYS, plan_mod._BRANCH_KEYS) == \
        (set(doc), set(doc["branches"][0]))
    assert doc["branches"][0] == {"m": 1, "constant_kind": "cosine",
                                  "destination": "real_out", "sign": 1}


def test_plan_from_dict_rejects_bad_documents():
    doc = plan_to_dict(compile_plan_for(12))
    with pytest.raises(ValueError):
        plan_from_dict({**doc, "format": "something-else"})
    with pytest.raises(ValueError):
        plan_from_dict({**doc, "version": 4})
    tampered = json.loads(json.dumps(doc))
    tampered["branches"][0]["constant_kind"] = "tangent"
    with pytest.raises(ValueError):
        plan_from_dict(tampered)


def _old_document(plan, version):
    """plan's document as plan format version 1 or 2 held it. Version 2
    added each branch's preadd to the version 3 fields; version 1 held
    besides extra_mult_count, the additive stage (values the JSON integers
    1 and -1), and each branch's constant_value and postadd."""
    doc = plan_to_dict(plan)
    doc["version"] = version
    for b, branch in zip(doc["branches"], plan.branches):
        b["preadd"] = _matrix_doc(branch.preadd)
        if version == 1:
            b.update(constant_value=branch.constant_value,
                     postadd=_matrix_doc(branch.postadd))
    if version == 1:
        doc.update(extra_mult_count=0, additive={
            "re": _matrix_doc(plan.additive.re_m0, int),
            "im": _matrix_doc(plan.additive.im_m0, int)})
    return doc


@pytest.mark.parametrize("version", (1, 2))
def test_an_older_plan_version_is_refused(run_cli, tmp_path, version):
    # the loader reads version 3 alone; no reader of an older one is kept
    doc = _old_document(compile_plan_for(12), version)
    with pytest.raises(ValueError,
                       match=f"unsupported plan version {version}$"):
        plan_from_dict(doc)
    path = tmp_path / f"v{version}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    code, out, err = run_cli("verify", "--plan", str(path), "--trials", "2")
    assert code == 2 and out == ""
    assert err.startswith("error:") \
        and f"unsupported plan version {version}" in err


def _tamper_unsupported_n(doc):
    doc["N"] = 6


def _tamper_class_index(doc):
    doc["branches"][0]["m"] = -1


def _tamper_sign(doc):
    doc["branches"][0]["sign"] = -1


def _tamper_destination(doc):
    doc["branches"][0]["destination"] = "bogus"


def _first_rank(doc) -> int:
    """The rank of the compiled branch on the document's first slot."""
    return compile_plan_for(doc["N"]).branches[0].rank


def _tamper_duplicate_branch(doc):
    doc["branches"].append(doc["branches"][0])
    doc["mult_count"] += _first_rank(doc)


def _tamper_mult_count(doc):
    doc["mult_count"] = 3


def _tamper_dropped_branch(doc):
    doc["mult_count"] -= _first_rank(doc)
    doc["branches"].pop(0)


def _tamper_add_count(doc):
    doc["add_count"] = 7


def _tamper_missing_n(doc):
    del doc["N"]


def _tamper_missing_branches(doc):
    del doc["branches"]


def _tamper_branch_not_object(doc):
    doc["branches"][0] = [1, "cosine"]


def _tamper_set(*path, value):
    """A tamper that sets the document's value at path to value."""
    def tamper(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return tamper


# case id -> (blocklength, tamper, expected message)
_TAMPERS = {
    "unsupported_n": (4, _tamper_unsupported_n, "unsupported"),
    "class_index": (12, _tamper_class_index, "not a positive class index"),
    "sign": (12, _tamper_sign, "not in the layout"),
    "destination": (12, _tamper_destination, "not in the layout"),
    "duplicate_branch": (12, _tamper_duplicate_branch, "duplicate branch"),
    "mult_count": (12, _tamper_mult_count, "mult_count"),
    "dropped_branch": (12, _tamper_dropped_branch, "no branch for"),
    "add_count": (12, _tamper_add_count, "add_count 7"),
    "missing_n": (12, _tamper_missing_n, "malformed.*'N'"),
    "missing_branches": (12, _tamper_missing_branches, "malformed.*branches"),
    "branch_not_object": (12, _tamper_branch_not_object, "malformed"),
    "string_n": (12, _tamper_set("N", value="12"),
                 "plan N must be an integer"),
    "float_n": (12, _tamper_set("N", value=12.0),
                "plan N must be an integer"),
    "bool_n": (12, _tamper_set("N", value=True), "plan N must be an integer"),
    # every integer field is a JSON integer: no float, no bool
    "float_version": (12, _tamper_set("version", value=3.0),
                      "unsupported plan version"),
    "bool_version": (12, _tamper_set("version", value=True),
                     "unsupported plan version"),
    "float_m": (12, _tamper_set("branches", 0, "m", value=1.0),
                "not in the layout"),
    "bool_m": (12, _tamper_set("branches", 0, "m", value=True),
               "not in the layout"),
    "float_sign": (12, _tamper_set("branches", 0, "sign", value=1.0),
                   "not in the layout"),
    "bool_sign": (12, _tamper_set("branches", 0, "sign", value=True),
                  "not in the layout"),
    "float_mult_count": (12, _tamper_set("mult_count", value=8.0),
                         "is not the recounted"),
    "bool_add_count": (12, _tamper_set("add_count", value=True),
                       "is not the recounted"),
    "float_add_count": (12, _tamper_set("add_count", value=126.0),
                        "is not the recounted"),
    # a key save_plan does not write, such as a version 1 or 2 field, is
    # refused at every level rather than dropped
    "additive_key": (12, _tamper_set("additive", value={}),
                     "the plan document has keys \\['additive'\\] that a "
                     "plan file does not hold"),
    "constant_value_key": (12, _tamper_set("branches", 0, "constant_value",
                                           value=0.5),
                           "branch \\(1, 'cosine', 'real_out', 1\\) has "
                           "keys \\['constant_value'\\]"),
    "preadd_key": (12, _tamper_set("branches", 0, "preadd",
                                   value={"rows": 1, "cols": 12,
                                          "triplets": []}),
                   "branch \\(1, 'cosine', 'real_out', 1\\) has "
                   "keys \\['preadd'\\]"),
}


@pytest.mark.parametrize("case", list(_TAMPERS))
def test_load_plan_rejects_a_plan_that_breaks_the_layout(tmp_path, case):
    n, tamper, match = _TAMPERS[case]
    doc = json.loads(json.dumps(plan_to_dict(compile_plan_for(n))))
    tamper(doc)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=match):
        load_plan(path)


@pytest.mark.parametrize("case", list(_TAMPERS))
def test_verify_plan_file_exits_2_on_every_tamper(run_cli, tmp_path, case):
    n, tamper, _ = _TAMPERS[case]
    doc = json.loads(json.dumps(plan_to_dict(compile_plan_for(n))))
    tamper(doc)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("verify", "--plan", str(path), "--trials", "2")
    assert code == 2 and out == "" and err.startswith("error:")


def _save_text(path, text: str):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize("case", list(_TAMPERS))
def test_a_warm_load_rejects_each_tamper_as_a_cold_one(plan_cache, tmp_path,
                                                       case):
    # the first load of the tampered file is cold; loading the true file
    # then caches its plan, and the second load of the tampered one must
    # fail with the same message, since a refusal is never cached
    n, tamper, match = _TAMPERS[case]
    plan = compile_plan_for(n)
    true = _save_text(tmp_path / "true.json", plan_text(plan))
    doc = plan_to_dict(plan)
    tamper(doc)
    tampered = _save_text(tmp_path / "tampered.json", json.dumps(doc))
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError, match=match) as exc:
            load_plan(tampered)
        messages.append(str(exc.value))
        load_plan(true)
        assert plan_cache.cache_info().currsize == 1
    assert messages[0] == messages[1]


@pytest.mark.parametrize("n", (12, 28, 64))
def test_a_warm_load_builds_no_grid_and_ranks_nothing(plan_cache, monkeypatch,
                                                      tmp_path, n):
    path = tmp_path / "plan.json"
    save_plan(compile_plan_for(n), path)
    cold = load_plan(path)

    def forbidden(*args):
        raise AssertionError("a cached load certified again")

    for name in ("plan_from_dict", "decompose", "rank", "compile_plan",
                 "_factored_slots"):
        monkeypatch.setattr(plan_mod, name, forbidden)
    # the same bytes: the same plan object, whose lowering the executor
    # keeps, with no parse, grid, compile or rank
    assert load_plan(path) is cold
    assert plan_cache.cache_info().hits == 1


def test_a_file_rewritten_in_place_is_certified_again(plan_cache, monkeypatch,
                                                      tmp_path):
    # the cache is keyed on the text, never the path: a rewritten file is
    # loaded as what it now holds
    path = tmp_path / "plan.json"
    save_plan(compile_plan_for(12), path)
    first = load_plan(path)
    certified = []

    def counted(doc):
        certified.append(doc["N"])
        return plan_from_dict(doc)

    monkeypatch.setattr(plan_mod, "plan_from_dict", counted)
    save_plan(compile_plan_for(16), path)
    assert load_plan(path).n == 16 and certified == [16]
    n, tamper, match = _TAMPERS["add_count"]
    doc = plan_to_dict(first)
    tamper(doc)
    _save_text(path, json.dumps(doc))
    with pytest.raises(ValueError, match=match):
        load_plan(path)
    assert certified == [16, n]


def _middle_variant(doc: dict) -> dict:
    """doc with the m of its middle branch swapped with the m of the next
    class's branch on the same layout row, both one digit: the same plan
    with two branches in another order, and a file of the same length and
    ends."""
    doc = copy.deepcopy(doc)
    branches = doc["branches"]
    middle = branches[len(branches) // 2]
    row = {**middle, "m": middle["m"] + 1}
    other = next(b for b in branches if b == row)
    middle["m"], other["m"] = other["m"], middle["m"]
    return doc


def test_two_files_that_differ_only_in_the_middle_are_each_certified(
        plan_cache, monkeypatch, tmp_path):
    # the key is a file's whole bytes: two files alike in length and at
    # both ends are two keys, each certified, and each keeps its own plan
    plan = compile_plan_for(64)
    texts = (plan_text(plan),
             json.dumps(_middle_variant(plan_to_dict(plan)), indent=2))
    assert len(texts[0]) == len(texts[1]) and texts[0] != texts[1]
    assert texts[0][:256] == texts[1][:256]
    assert texts[0][-256:] == texts[1][-256:]
    paths = [_save_text(tmp_path / f"plan{k}.json", t)
             for k, t in enumerate(texts)]
    certified = []

    def counted(doc):
        certified.append(doc["N"])
        return plan_from_dict(doc)

    monkeypatch.setattr(plan_mod, "plan_from_dict", counted)
    plans = [load_plan(path) for path in paths]
    assert plans[0] is not plans[1] and certified == [64, 64]
    assert [load_plan(path) for path in paths] == plans
    assert certified == [64, 64] and plan_cache.cache_info().currsize == 2


def test_a_same_length_tamper_is_refused_after_the_true_file_is_cached(
        plan_cache, tmp_path):
    # the first layout m after the middle of the N=64 file respelled 9,
    # which is not a class index of N=64: the same length and ends as the
    # cached true file, and refused on every load
    text = plan_text(compile_plan_for(64))
    at = text.index('"m": ', len(text) // 2) + len('"m": ')
    assert text[at] in "12345678" and text[at + 1] == ","
    tampered_text = text[:at] + "9" + text[at + 1:]
    true = _save_text(tmp_path / "true.json", text)
    tampered = _save_text(tmp_path / "tampered.json", tampered_text)
    plan = load_plan(true)
    for _ in range(2):
        with pytest.raises(ValueError, match="\\(9, .* is not in the layout "
                                             "for N=64"):
            load_plan(tampered)
        assert load_plan(true) is plan
    assert plan_cache.cache_info().currsize == 1


def _called_in(fn, *args) -> tuple[set, object]:
    """(the names of every Python and C function called while fn(*args)
    ran, its result)."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code.co_name)
        elif event == "c_call":
            called.add(arg.__name__)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(previous)
    return called, result


def test_a_warm_load_neither_decodes_nor_parses(plan_cache, tmp_path):
    # a hit reads the file's bytes and compares them with the cached
    # key's: no decode to text and no json.loads
    path = tmp_path / "plan.json"
    save_plan(compile_plan_for(64), path)
    called, cold = _called_in(load_plan, path)
    assert {"decode", "loads"} <= called
    called, warm = _called_in(load_plan, path)
    assert warm is cold
    assert not {"decode", "loads", "read_text", "plan_from_dict"} & called


def test_the_memo_drops_the_least_recently_loaded_plan(plan_cache, tmp_path):
    # texts that differ only in trailing whitespace are one document under
    # distinct keys; the cache keeps the plans of the last 8 loaded
    assert plan_cache.cache_info().maxsize == 8
    text = plan_text(compile_plan_for(12))
    paths = [_save_text(tmp_path / f"plan{k}.json", text + "\n" * k)
             for k in range(9)]
    plans = [load_plan(path) for path in paths]
    assert plan_cache.cache_info()[1:] == (9, 8, 8)  # misses, max, size
    assert load_plan(paths[8]) is plans[8]
    # the first text was dropped; loading it again drops the second
    assert load_plan(paths[0]) is not plans[0]
    assert load_plan(paths[2]) is plans[2]
    assert load_plan(paths[1]) is not plans[1]
    assert plan_cache.cache_info().currsize == 8


def test_the_memo_keeps_no_plan_over_its_budget(plan_cache, tmp_path):
    # a text over _CACHED_TEXT_CHARS, here the N=64 text padded with
    # spaces that json reads past, is certified on each load and not kept
    text = plan_text(compile_plan_for(64))
    small = _save_text(tmp_path / "small.json", text)
    large = _save_text(tmp_path / "large.json",
                       text + " " * plan_mod._CACHED_TEXT_CHARS)
    plan = load_plan(small)
    kept = weakref.ref(plan.branches[0])
    del plan
    gc.collect()
    assert kept() is not None
    plan = load_plan(large)
    assert load_plan(large) is not plan
    assert plan_cache.cache_info().currsize == 1
    dropped = weakref.ref(plan.branches[0])
    del plan
    gc.collect()
    assert dropped() is None


def test_every_plan_file_through_128_fits_the_cache():
    assert max(len(plan_text(compile_plan_for(n)))
               for n in range(4, 129, 4)) < plan_mod._CACHED_TEXT_CHARS


def test_the_heaviest_cached_plan_holds_about_1_mib():
    # an entry keeps alive its file, its plan's arrays and its lowering:
    # over N = 4..256 the heaviest plan whose file fits holds near 1 MiB,
    # so the 8 entries hold about 8 MiB at most
    held = {}
    for n in range(4, 257, 4):
        plan = compile_plan_for(n)
        size = len(plan_text(plan)) + 1
        if size > plan_mod._CACHED_TEXT_CHARS:
            continue
        mats = [plan.additive.re_m0, plan.additive.im_m0]
        mats += [m for b in plan.branches for m in (b.preadd, b.postadd)]
        lowered = plan._term_lists
        held[n] = size + sum(a.nbytes for m in mats
                             for a in (m.rows, m.cols, m.signs)) \
            + sum(a.nbytes for a in (lowered.pre_dest, lowered.pre_src,
                                     lowered.out_dest, lowered.out_src,
                                     lowered.constants))
    assert max(held) == 188
    assert 0.9 * 2**20 < max(held.values()) < 1.05 * 2**20


def test_a_plan_document_that_is_not_an_object_is_rejected(run_cli,
                                                           tmp_path):
    doc = [plan_to_dict(compile_plan_for(12))]
    with pytest.raises(ValueError, match="JSON object, not list"):
        plan_from_dict(doc)
    path = tmp_path / "array.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("verify", "--plan", str(path), "--trials", "2")
    assert code == 2 and out == "" and err.startswith("error:")


# sha256 of save_plan's output (plan format version 3) with Python 3.11.7
# and numpy 2.4.6; the plan file format must stay byte-stable
_PLAN_SHA256 = {
    12: "8478041f5d73a9d0046600098d621db37be57d8e5c8881061ee319c05fcd0310",
    60: "0f34615da1b6011f1e79006b09df048a81bce1fd9f02ea3b0b561df306ad6beb",
    64: "8a7dbdbe8582e8e7cce85b5032d832cbb61c1732217855cdb18be01f3db09e1f",
}


@pytest.mark.parametrize("n", sorted(_PLAN_SHA256))
def test_saved_plan_bytes_are_pinned(tmp_path, n):
    path = tmp_path / "plan.json"
    save_plan(compile_plan_for(n), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _PLAN_SHA256[n]


@pytest.mark.parametrize("n", range(4, 129, 4))
def test_save_plan_writes_the_json_dumps_bytes(tmp_path, n):
    plan = compile_plan_for(n)
    path = tmp_path / "plan.json"
    save_plan(plan, path)
    assert path.read_text() == json.dumps(plan_to_dict(plan), indent=2) + "\n"


@st.composite
def _symmetric_matrices(draw):
    size = draw(st.integers(1, 8))
    upper = {(i, j): draw(st.integers(-3, 3))
             for i in range(size) for j in range(i, size)}
    return np.array([[upper[min(i, j), max(i, j)] for j in range(size)]
                     for i in range(size)], dtype=np.int64)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_symmetric_matrices())
def test_a_symmetric_matrix_has_the_rank_of_its_pivot_block(a):
    # the pivot-block lemma: for symmetric A with pivot columns P,
    # rank A[P, P] = rank A; every combination matrix is symmetric
    pivots = list(rref(RationalMatrix.from_int_matrix(a)).pivot_cols)
    assert sympy_rank(a[np.ix_(pivots, pivots)].tolist()) \
        == sympy_rank(a.tolist())


def test_the_pivot_block_lemma_needs_symmetry():
    # rank 1, pivot column 1, yet A[P, P] = [[0]] is singular
    a = np.array([[0, 1], [0, 0]])
    pivots = list(rref(RationalMatrix.from_int_matrix(a)).pivot_cols)
    assert pivots == [1]
    assert sympy_rank(a[np.ix_(pivots, pivots)].tolist()) == 0
    assert sympy_rank(a.tolist()) == 1


def test_a_cold_load_compiles_once_and_ranks_nothing(plan_cache, monkeypatch,
                                                    tmp_path):
    # the loader certifies a document by compiling its N, so refusing the
    # add_count tamper walks N=12 once and takes no rank
    calls = []

    def counted(name, original):
        def call(*args):
            calls.append(name)
            return original(*args)
        return call

    for name in ("_factored_slots", "rank"):
        monkeypatch.setattr(plan_mod, name,
                            counted(name, getattr(plan_mod, name)))
    _, tamper, match = _TAMPERS["add_count"]
    doc = plan_to_dict(compile_plan_for(12))
    calls.clear()
    tamper(doc)
    with pytest.raises(ValueError, match=match):
        load_plan(_save_text(tmp_path / "tampered.json", json.dumps(doc)))
    assert calls == ["_factored_slots"]


def test_a_reduced_form_entry_other_than_a_unit_is_refused(monkeypatch):
    # a reduced form is read as it is, so an entry 1/2 is refused rather
    # than truncated to 0 by an integer dtype
    def halved(exact):
        return None, rref(RationalMatrix.from_int_matrix(
            [[2, 1] + [0] * (exact.cols - 2)])).rref

    monkeypatch.setattr(plan_mod, "rank_factor", halved)
    with pytest.raises(ValueError, match="a plan matrix has an entry 1/2 "
                                         "other than \\+1 or -1"):
        compile_plan_for(12)


@pytest.mark.parametrize("n", (12, 28, 60, 64))
def test_a_document_loads_whatever_its_branch_order(n):
    # a document is accepted iff it is the compiled plan's up to the order
    # of its branches
    plan = compile_plan_for(n)
    doc = plan_to_dict(plan)
    doc["branches"].reverse()
    assert plan_text(plan_from_dict(doc)) == plan_text(plan)


@pytest.mark.parametrize("n", range(4, 257, 4))
def test_compiled_postadds_are_the_slot_matrix_at_the_pivot_columns(n):
    # compile_plan gathers postadds as grid rows, transposed; the slot
    # matrix t[E] read at its columns must give the same array
    dec = decompose(n)
    for b in compile_plan(dec).branches:
        layout = plan_mod._LAYOUT[plan_mod._class_kind(n, b.m)]
        slot = next(row[0] for row in layout
                    if row[1:] == (b.constant_kind, b.destination, b.sign))
        a = plan_mod._slot_tables(n, b.m)[slot][dec.exponents]
        pivots = (dense(b.preadd) != 0).argmax(axis=1)
        assert np.array_equal(dense(b.postadd), a[:, pivots]), \
            (n, b.m, slot)


@pytest.mark.parametrize("n", range(4, 129, 4))
def test_compiled_branches_have_a_nonsingular_pivot_block(n):
    # a compiled branch is minimal, so by the pivot-block lemma its r x r
    # block A[P, P] is nonsingular
    for b in compile_plan_for(n).branches:
        pivots = (dense(b.preadd) != 0).argmax(axis=1)
        block = dense(b.postadd)[pivots]
        assert rank(RationalMatrix.from_int_matrix(block)) \
            == b.rank, (n, b.m, b.constant_kind, b.destination)


_TEXT12 = plan_text(compile_plan_for(12))
_DOC12 = json.loads(_TEXT12)


def _nodes(node, path=()):
    """Every (path, value) of a JSON document, depth first."""
    yield path, node
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _nodes(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


_KEYED = [p for p, _ in _nodes(_DOC12)
          if p and isinstance(_at(_DOC12, p[:-1]), dict)]
_LEAVES = [p for p, v in _nodes(_DOC12)
           if p and not isinstance(v, (dict, list))]


def _other_type(value):
    """Replacements of another type than value's, for the fuzz to pick."""
    options = [None, True, [value], {"value": value}, str(value), 0.5]
    if type(value) is int:
        options.append(float(value))
    return [x for x in options if type(x) is not type(value)]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_load_plan_fuzz_rejects_or_stays_exact(data):
    # one mutation of a valid N=12 document: the loader must either reject
    # it or return a plan that is still an exact DFT with honest counters
    _load_one_mutation(data, plan_from_dict)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_load_plan_fuzz_rejects_or_stays_exact_when_warm(tmp_path_factory,
                                                         data):
    # the same through load_plan, with the true N=12 text loaded through
    # its cache first
    plan_mod._plan_of_text.cache_clear()
    tmp = tmp_path_factory.getbasetemp() / "fuzz_warm"
    tmp.mkdir(exist_ok=True)
    load_plan(_save_text(tmp / "true.json", _TEXT12))

    def load(doc):
        return load_plan(_save_text(tmp / "mutated.json", json.dumps(doc)))

    _load_one_mutation(data, load)


def _load_one_mutation(data, load):
    doc = copy.deepcopy(_DOC12)
    if data.draw(st.sampled_from(["delete", "retype"])) == "delete":
        path = data.draw(st.sampled_from(_KEYED))
        del _at(doc, path[:-1])[path[-1]]
    else:
        path = data.draw(st.sampled_from(_LEAVES))
        holder = _at(doc, path[:-1])
        holder[path[-1]] = data.draw(st.sampled_from(
            _other_type(holder[path[-1]])))
    try:
        plan = load(doc)
    except ValueError:
        return
    v = np.random.default_rng(5).uniform(-1.0, 1.0, 12)
    out, counters = execute_real(plan, v)
    assert np.max(np.abs(out - np.fft.fft(v))) <= 1e-10
    assert (counters.real_mults, counters.real_adds) == \
        (plan.mult_count, plan.add_count)
    # an accepted document is spelled exactly as plan_to_dict writes it
    assert json.dumps(plan_to_dict(plan), sort_keys=True) == \
        json.dumps(doc, sort_keys=True)


def test_load_plan_rejects_a_large_claim_in_bounded_memory():
    # 96 bytes that claim N=256: the loader holds one class's matrices at
    # a time, where all 64 classes at once would peak near 70 MB
    doc = {"format": "laurentfft-plan", "version": 3, "N": 256,
           "mult_count": 0, "add_count": 0, "branches": []}
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            plan_from_dict(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 10**6


@pytest.mark.parametrize("build, bad", [
    (compile_plan_for, 12.0), (complexity_for, np.float64(16.0)),
    (decompose, "12"), (decompose, 12.5), (decompose, None)])
def test_a_non_integer_blocklength_is_a_value_error(build, bad):
    with pytest.raises(UnsupportedBlocklengthError, match="not an integer"):
        build(bad)


def test_a_numpy_integer_blocklength_builds_a_plan_that_saves(tmp_path):
    plan = compile_plan_for(np.int64(12))
    assert type(plan.n) is int and plan.mult_count == 8
    assert complexity_for(np.int64(12)).realized_total == 8
    save_plan(plan, tmp_path / "plan.json")
    assert plan_to_dict(load_plan(tmp_path / "plan.json")) == _DOC12


# np.arange alone asks for 1 EiB at N = 2**57 and is refused at once, so
# nothing is allocated; an N whose 8 N^2-byte grid nears the machine's
# memory could really be allocated, so no such N is tried
_HUGE_N = 2 ** 57


def test_a_blocklength_too_large_to_hold_is_a_value_error(run_cli, tmp_path):
    match = f"blocklength {_HUGE_N} unsupported"
    for build in (compile_plan_for, complexity_for):
        with pytest.raises(ValueError, match=match):
            build(_HUGE_N)
    doc = {"format": "laurentfft-plan", "version": 3, "N": _HUGE_N,
           "mult_count": 0, "add_count": 0, "branches": []}
    with pytest.raises(ValueError, match=match):
        plan_from_dict(doc)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    for argv in (("complexity", str(_HUGE_N)),
                 ("verify", "--plan", str(path), "--trials", "2")):
        code, out, err = run_cli(*argv)
        assert code == 2 and out == "" and err.startswith("error:")
        assert str(_HUGE_N) in err


def test_a_document_without_its_branches_is_refused_before_the_grid():
    # N = 4096's exponent grid is 134 MB of int64; the layout check is
    # arithmetic, so refusing the empty document costs next to nothing
    doc = {"format": "laurentfft-plan", "version": 3, "N": 4096,
           "mult_count": 0, "add_count": 0, "branches": []}
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="no branch for the re_sum matrix "
                                             "of m=1, N=4096"):
            plan_from_dict(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 10**6


@pytest.mark.parametrize("dropped, message", [
    (0, "re_sum matrix of m=1"), (3, "re_diff matrix of m=1"),
    (5, "im_diff matrix of m=2")])
def test_the_first_missing_slot_in_walk_order_is_named(dropped, message):
    # N = 16 has six slots: the four of class 1, then the two of the
    # asymmetric class 2
    doc = plan_to_dict(compile_plan_for(16))
    del doc["branches"][dropped]
    with pytest.raises(ValueError, match=f"no branch for the {message}, "
                                         f"N=16"):
        plan_from_dict(doc)


def test_compile_plan_for_holds_one_class_at_a_time():
    # class matrices are built on demand: all 32 classes at once, as the
    # eager decomposition held them, peaked near 11 MB
    tracemalloc.start()
    try:
        compile_plan_for(128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 10**6


def test_save_and_load_plan(tmp_path):
    plan = compile_plan_for(20)
    path = tmp_path / "plan20.json"
    save_plan(plan, path)
    loaded = load_plan(path)
    assert loaded.mult_count == plan.mult_count
    assert len(loaded.branches) == len(plan.branches)
    assert all(np.array_equal(dense(a.preadd), dense(b.preadd))
               for a, b in zip(loaded.branches, plan.branches))


def test_a_deeply_nested_plan_file_is_a_value_error(run_cli, tmp_path):
    # json's decoder recurses once per bracket: its RecursionError is a
    # malformed document, refused with exit 2, not a traceback
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ValueError, match="malformed plan document"):
        load_plan(path)
    code, out, err = run_cli("verify", "--plan", str(path), "--trials", "2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "malformed plan document" in err


def test_preadd_and_postadd_entries_are_unit_for_supported_lengths():
    # every plan matrix, the additive ones included, is one UnitMatrix:
    # read-only int32 rows and columns and int8 signs +-1, each nonzero of
    # its dense array once, row by row in column order, which the
    # executor and the counts read as they are
    for n in range(4, 129, 4):
        plan = compile_plan_for(n)
        mats = [plan.additive.re_m0, plan.additive.im_m0]
        mats += [m for b in plan.branches for m in (b.preadd, b.postadd)]
        for mat in mats:
            arrays = (mat.rows, mat.cols, mat.signs)
            assert [a.dtype for a in arrays] == [np.int32, np.int32, np.int8]
            assert not any(a.flags.writeable for a in arrays), n
            assert set(mat.signs.tolist()) <= {-1, 1}, n
            full = dense(mat)
            rows, cols = np.nonzero(full)
            assert np.array_equal(mat.rows, rows), n
            assert np.array_equal(mat.cols, cols), n
            assert np.array_equal(mat.signs, full[rows, cols]), n


def test_a_plan_matrix_keeps_its_own_arrays_when_its_caller_changes_theirs():
    # a matrix copied with the caller's signs must not follow them: not
    # in itself, in a fresh lowering of its plan or in its plan document
    plan = compile_plan_for(12)
    branch = plan.branches[0]
    signs = branch.preadd.signs.copy()
    mine = dataclasses.replace(plan, branches=(dataclasses.replace(
        branch, preadd=dataclasses.replace(branch.preadd, signs=signs)),
        *plan.branches[1:]))
    v = np.random.default_rng(0).uniform(-1.0, 1.0, 12)
    before = execute_real(mine, v)
    signs[0] = 2
    assert np.array_equal(dense(mine.branches[0].preadd),
                          dense(branch.preadd))
    for again in (mine, dataclasses.replace(mine)):
        out, counters = execute_real(again, v)
        assert out.tobytes() == before[0].tobytes()
        assert (counters.real_mults, counters.real_adds) == (8, 126)
    assert plan_to_dict(mine) == plan_to_dict(plan)


def test_compiled_decoded_and_hand_built_matrices_hold_read_only_arrays():
    plan = compile_plan_for(12)
    decoded = plan_from_dict(plan_to_dict(plan))
    arrays = (np.array([0, 1]), np.array([1, 2]), np.array([1, -1]))
    for mat in (plan.branches[0].postadd, plan.additive.im_m0,
                decoded.branches[0].preadd,
                UnitMatrix((2, 3), *arrays),
                UnitMatrix((2, 3), [0, 1], [1, 2], [1, -1])):
        mine = (mat.rows, mat.cols, mat.signs)
        assert [a.dtype for a in mine] == [np.int32, np.int32, np.int8]
        assert not any(a.flags.writeable for a in mine)
        assert not any(np.shares_memory(a, b) for a in mine for b in arrays)


@pytest.mark.parametrize("signs, bad", (
    # a float +-1 ran and was saved as "1.0", which the loader refuses
    (np.array([1.0, -1.0]), "1.0"),
    (np.array([1, Fraction(1, 2)], dtype=object), "1/2"),
    (np.array([Fraction(1), 1], dtype=object), "1"),
    (np.array([1, 0]), "0"),
    (np.array([-1, 2]), "2")))
def test_a_plan_matrix_refuses_an_entry_other_than_an_integer_unit(signs,
                                                                     bad):
    with pytest.raises(ValueError, match=f"a plan matrix has an entry {bad} "
                                         "other than \\+1 or -1"):
        UnitMatrix((1, 2), np.array([0, 0]), np.array([0, 1]), signs)


@pytest.mark.parametrize("shape", ((12,), (12, 12, 1), [12, 12], (12.0, 12),
                                   (True, 12), (-1, 12), (12, 2**31),
                                   (np.int64(12), 12), "12"))
def test_a_plan_matrix_refuses_a_shape_other_than_two_integers(shape):
    with pytest.raises(ValueError, match="is not two integers from 0 to "
                                         "2\\*\\*31 - 1"):
        UnitMatrix(shape, np.array([0]), np.array([0]), np.array([1]))


@pytest.mark.parametrize("rows, cols, signs", (
    ([0, 1], [0, 1], [1]),
    ([0, 1], [0], [1, 1]),
    ([[0, 1]], [[0, 1]], [[1, 1]]),
    (np.array([0.0]), [0], [1])))
def test_a_plan_matrix_refuses_other_than_one_sign_at_each_integer_place(
        rows, cols, signs):
    with pytest.raises(ValueError, match="or not one sign per nonzero"):
        UnitMatrix((2, 2), rows, cols, signs)

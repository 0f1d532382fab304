import json
import re

import numpy as np
import pytest

from laurentfft.execute import execute_real
from laurentfft.plan import compile_plan_for, load_plan

CLASSES_12 = """\
blocklength 12: 3 classes (genus 3)
C[-1]: members (11, 2, 5, 8), coefficients (1, -j, -1, j)
C[0]: members (0, 3, 6, 9), coefficients (1, -j, -1, j)
C[1]: members (1, 4, 7, 10), coefficients (1, -j, -1, j)
"""

TABLE_1 = """\
   N  nlog2n   mults
  12      43       8
  20      86      32
  28     135      72
  36     186      88
  44     240     200
  52     296     288
  60     354     208
"""

TABLE_2 = """\
   N  nlog2n  radix2  rader_brenner  mu_r  laurent
   8      24       4              4     4        2
  16      64      24             20    20       12
  32     160      88             68    64       54
  64     384     264            196   168      224
"""

COMPLEXITY_TABLE1_RANGE = """\
   N  nlog2n   mults  stacked  mu_DFT    mu_r
  12      43       8        8       4       -
  20      86      32       32      16       -
  28     135      72       72      28       -
  36     186      88       88      32       -
  44     240     200      200      60       -
  52     296     288      288      68       -
  60     354     208      208      56       -
"""

# `laurentfft complexity 12..64 96`: every blocklength of the benchmark's
# sweep ladder, whose ranks and stacked totals come off the orbit walk
COMPLEXITY_SWEEP_LADDER = """\
   N  nlog2n   mults  stacked  mu_DFT    mu_r
  12      43       8        8       4       -
  16      64      12       12      10      20
  20      86      32       32      16       -
  24     110      24       24      12       -
  28     135      72       72      28       -
  32     160      54       54      32      64
  36     186      88       88      32       -
  40     213      84       84      36       -
  44     240     200      200      60       -
  48     268      88       88      38       -
  52     296     288      288      68       -
  56     325     184      184      60       -
  60     354     208      208      56       -
  64     384     224      224      84     168
  96     632     344      344     106       -
"""

# `laurentfft matrices 8`: every class's (re, im) matrix and its reduced
# row echelon form
MATRICES_8 = """\
M[0] re rank=4
   1  1  1  1  1  1  1  1
   1  0  0  0 -1  0  0  0
   1  0 -1  0  1  0 -1  0
   1  0  0  0 -1  0  0  0
   1 -1  1 -1  1 -1  1 -1
   1  0  0  0 -1  0  0  0
   1  0 -1  0  1  0 -1  0
   1  0  0  0 -1  0  0  0
M[0] re rref:
  1 0 0 0 0 0 0 0
  0 1 0 1 0 1 0 1
  0 0 1 0 0 0 1 0
  0 0 0 0 1 0 0 0
M[0] im rank=2
   0  0  0  0  0  0  0  0
   0  0 -1  0  0  0  1  0
   0 -1  0  1  0 -1  0  1
   0  0  1  0  0  0 -1  0
   0  0  0  0  0  0  0  0
   0  0 -1  0  0  0  1  0
   0  1  0 -1  0  1  0 -1
   0  0  1  0  0  0 -1  0
M[0] im rref:
   0  1  0 -1  0  1  0 -1
   0  0  1  0  0  0 -1  0
M[1] re rank=2
   0  0  0  0  0  0  0  0
   0  1  0  0  0 -1  0  0
   0  0  0  0  0  0  0  0
   0  0  0  1  0  0  0 -1
   0  0  0  0  0  0  0  0
   0 -1  0  0  0  1  0  0
   0  0  0  0  0  0  0  0
   0  0  0 -1  0  0  0  1
M[1] re rref:
   0  1  0  0  0 -1  0  0
   0  0  0  1  0  0  0 -1
M[1] im rank=2
   0  0  0  0  0  0  0  0
   0  0  0 -1  0  0  0  1
   0  0  0  0  0  0  0  0
   0 -1  0  0  0  1  0  0
   0  0  0  0  0  0  0  0
   0  0  0  1  0  0  0 -1
   0  0  0  0  0  0  0  0
   0  1  0  0  0 -1  0  0
M[1] im rref:
   0  1  0  0  0 -1  0  0
   0  0  0  1  0  0  0 -1
"""


def test_classes_golden(run_cli):
    code, out, _ = run_cli("classes", "12")
    assert code == 0
    assert out == CLASSES_12


def test_classes_n20(run_cli):
    code, out, _ = run_cli("classes", "20")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "blocklength 20: 5 classes (genus 5)"
    assert lines[1] == ("C[-2]: members (18, 3, 8, 13), "
                       "coefficients (1, -j, -1, j)")
    assert len(lines) == 6


def test_classes_unsupported_blocklength(run_cli):
    code, out, err = run_cli("classes", "10")
    assert code == 2
    assert out == ""
    assert "unsupported" in err


def test_table_1_golden(run_cli):
    code, out, _ = run_cli("table", "--which", "1")
    assert (code, out) == (0, TABLE_1)


def test_table_2_golden(run_cli):
    code, out, _ = run_cli("table", "--which", "2")
    assert (code, out) == (0, TABLE_2)


def test_complexity_range_golden(run_cli):
    code, out, _ = run_cli("complexity", "12..60", "--step", "8")
    assert (code, out) == (0, COMPLEXITY_TABLE1_RANGE)


def test_complexity_sweep_ladder_golden(run_cli):
    code, out, _ = run_cli("complexity", "12..64", "96")
    assert (code, out) == (0, COMPLEXITY_SWEEP_LADDER)


def test_complexity_single_degenerate_length(run_cli):
    code, out, _ = run_cli("complexity", "4")
    assert code == 0
    assert out.splitlines()[1] == \
        "   4       8       0        0       0       0"


def test_complexity_rejects_bad_range(run_cli):
    code, _, err = run_cli("complexity", "12..8")
    assert code == 2 and "range" in err
    code, _, err = run_cli("complexity", "12..20", "--step", "0")
    assert code == 2 and "step" in err


def test_complexity_rejects_unsupported_length(run_cli):
    code, _, err = run_cli("complexity", "18")
    assert code == 2 and "unsupported" in err


def test_bounds_golden(run_cli):
    code, out, _ = run_cli("bounds", "8", "16")
    assert code == 0
    assert out == ("   N  nlog2n  mu_DFT    mu_r\n"
                   "   8      24       2       4\n"
                   "  16      64      10      20\n")


def test_bounds_keeps_a_space_between_values_wider_than_their_columns(
        run_cli):
    code, out, _ = run_cli("bounds", "1048576")
    assert code == 0
    assert out.splitlines()[1].split() == ["1048576", "20971520", "2096730",
                                           "4193460"]


def test_bounds_accepts_any_positive_length(run_cli):
    code, out, _ = run_cli("bounds", "1..6", "--step", "1")
    assert code == 0
    assert len(out.splitlines()) == 7


def test_matrices_golden(run_cli):
    code, out, _ = run_cli("matrices", "8")
    assert code == 0
    assert out == MATRICES_8


def test_matrices_single_class(run_cli):
    code, out, _ = run_cli("matrices", "8", "--m", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "M[1] re rank=2"
    assert "M[1] re rref:" in lines
    idx = lines.index("M[1] re rref:")
    assert lines[idx + 1] == "   0  1  0  0  0 -1  0  0"
    assert lines[idx + 2] == "   0  0  0  1  0  0  0 -1"


def test_matrices_rejects_bad_class(run_cli):
    code, _, err = run_cli("matrices", "8", "--m", "3")
    assert code == 2 and "class index" in err


def test_verify_pass(run_cli):
    code, out, _ = run_cli("verify", "12", "--trials", "20", "--seed", "7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N=12 trials=20 seed=7 tolerance=1.00e-10"
    assert re.fullmatch(r"max_error=\d\.\d{2}e-\d{2}", lines[1])
    assert lines[2] == "mults_per_trial=8 adds_per_trial=126 counters_match=yes"
    assert lines[3] == "PASS"


def test_verify_failure_exit_code(run_cli):
    code, out, _ = run_cli("verify", "12", "--trials", "5", "--tol", "1e-18")
    assert code == 1
    assert out.splitlines()[-1] == "FAIL"


@pytest.mark.parametrize("tol", ("nan", "0", "-1", "inf"))
def test_verify_refuses_a_tolerance_that_is_not_finite_and_positive(run_cli,
                                                                    tol):
    # a NaN, zero or negative tolerance failed every plan with exit 1
    code, out, err = run_cli("verify", "12", "--tol", tol)
    assert (code, out) == (2, "") and "tolerance must be finite" in err


def test_verify_unsupported_length(run_cli):
    code, _, err = run_cli("verify", "14")
    assert code == 2 and "unsupported" in err


def test_plan_export_and_reload(run_cli, tmp_path):
    path = tmp_path / "plan12.json"
    code, out, _ = run_cli("plan", "12", "-o", str(path))
    assert code == 0
    assert out == f"wrote {path}: N=12 branches=4 mult_count=8 add_count=126\n"
    doc = json.loads(path.read_text())
    assert doc["N"] == 12 and doc["mult_count"] == 8

    loaded = load_plan(path)
    fresh = compile_plan_for(12)
    rng = np.random.default_rng(11)
    for _ in range(10):
        v = rng.uniform(-1, 1, 12)
        a, _ = execute_real(fresh, v)
        b, _ = execute_real(loaded, v)
        assert np.array_equal(a, b)


def test_verify_a_saved_plan(run_cli, tmp_path):
    path = tmp_path / "p64.json"
    assert run_cli("plan", "64", "-o", str(path))[0] == 0
    code, out, _ = run_cli("verify", "--plan", str(path), "--trials", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N=64 trials=3 seed=0 tolerance=1.00e-09"
    assert lines[2] == \
        "mults_per_trial=224 adds_per_trial=2898 counters_match=yes"
    assert lines[3] == "PASS"


@pytest.mark.parametrize("argv, message", [
    (("12", "--plan", "p.json"), "not allowed with argument N"),
    ((), "one of the arguments N --plan is required")])
def test_verify_takes_exactly_one_of_n_and_plan(run_cli, argv, message):
    code, _, err = run_cli("verify", *argv)
    assert code == 2 and message in err


def test_verify_missing_plan_file_is_exit_2(run_cli, tmp_path):
    code, _, err = run_cli("verify", "--plan", str(tmp_path / "none.json"))
    assert code == 2 and err.startswith("error:")


def test_plan_write_failure_is_exit_2(run_cli, tmp_path):
    target = tmp_path / "missing-dir" / "plan.json"
    code, _, err = run_cli("plan", "12", "-o", str(target))
    assert code == 2 and err.startswith("error:")


def test_bench_output_shape(run_cli):
    code, out, _ = run_cli("bench", "12", "--reps", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N=12 reps=3"
    assert re.fullmatch(
        r"plan_median_s=\d\.\d{2}e-\d{2} naive_median_s=\d\.\d{2}e-\d{2}",
        lines[1])
    assert lines[2] == \
        "plan_real_mults=8 naive_real_mults=576 mult_ratio=0.0139"


@pytest.mark.parametrize("reps", ("0", "-3"))
def test_bench_rejects_a_rep_count_below_one_before_any_output(run_cli, reps):
    code, out, err = run_cli("bench", "12", "--reps", reps)
    assert (code, out) == (2, "")
    assert err == "error: reps must be >= 1\n"


def test_bench_unsupported_length(run_cli):
    code, _, _ = run_cli("bench", "10")
    assert code == 2


def test_missing_subcommand_is_usage_error(run_cli):
    code, _, _ = run_cli()
    assert code == 2

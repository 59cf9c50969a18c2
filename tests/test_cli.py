import json
import math
import os
import subprocess
import sys

import pytest

import momzeta
from momzeta.cli import fmt_number, json_dumps, main

RIEMANN_RES_100 = -0.000833325000397  # mpmath oracle residual at n = 100


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def test_fmt_number_seventeen_digits_roundtrip():
    for x in (1.0 / 3.0, 2.6666666666666665, 1e-300, 475.96015157911575):
        assert float(fmt_number(x)) == x


def test_json_dumps_parses_back():
    obj = {"a": [1, 2.5, None, True], "b": {"c": "text"}}
    assert json.loads(json_dumps(obj)) == obj


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_game_exact_report(capsys):
    code, out, _ = run_cli(capsys, "game", "exact", "--p", "0.5,0.5")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["results"]["paper_T"] == pytest.approx(5.0 / 3.0, abs=1e-9)
    assert report["results"]["expected_rounds"] == pytest.approx(8.0 / 3.0, abs=1e-9)
    assert report["results"]["inclusion_exclusion"] == pytest.approx(5.0 / 3.0, abs=1e-12)


def test_game_exact_rejects_bad_tol(capsys):
    code, out, err = run_cli(capsys, "game", "exact", "--p", "0.5", "--tol", "-1")
    assert code == 1 and out == ""
    assert err.startswith("error: ")


def test_zeta_divergent_exit_code(capsys):
    code, _, err = run_cli(capsys, "zeta", "--dist", "riemann", "--s-eval", "1")
    assert code == 1
    assert "divergent" in err


@pytest.mark.parametrize("argv", [
    ["zeta", "--dist", "riemann", "--s-eval", "nan"],
    ["sum", "--dist", "riemann-scaled", "--s", "inf", "--kmin", "1", "--n", "10,100"],
], ids=["nan-s-eval", "inf-s"])
def test_non_numeric_exponent_is_numeric_failure(capsys, argv):
    # neither has a number to report: NaN s is no exponent, and alpha = inf
    # would make the tail sum inf * 0
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ")


def test_predict_overflow_is_numeric_failure(capsys):
    # finite flags whose growth law overflows a float have no value to print
    code, out, err = run_cli(capsys, "predict", "--kind", "alpha1", "--c", "1e308", "--n", "1e10")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "overflows" in err


def test_zeta_value(capsys):
    code, out, _ = run_cli(capsys, "zeta", "--dist", "riemann", "--s-eval", "2")
    assert code == 0
    assert json.loads(out)["results"]["value"] == pytest.approx(1.6449340668482264, abs=1e-13)


def test_sum_csv_columns_and_residual(capsys):
    code, out, _ = run_cli(
        capsys, "sum", "--dist", "riemann", "--n", "100", "--kmin", "2",
        "--predict", "riemann",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,value,prediction,residual,tail_bound,terms_used"
    fields = lines[1].split(",")
    assert int(fields[0]) == 100
    assert float(fields[3]) == pytest.approx(RIEMANN_RES_100, abs=1e-9)


def test_sum_naive_matches_stable(capsys):
    _, stable_out, _ = run_cli(capsys, "sum", "--dist", "riemann", "--n", "12", "--kmin", "2")
    _, naive_out, _ = run_cli(
        capsys, "sum", "--dist", "riemann", "--n", "12", "--kmin", "2", "--method", "naive"
    )
    stable = float(stable_out.strip().splitlines()[1].split(",")[1])
    naive = float(naive_out.strip().splitlines()[1].split(",")[1])
    assert abs(stable - naive) <= 1e-8


@pytest.mark.parametrize(
    "beta, kmin, code, message",
    [
        ("80", "1", 0, ""),
        # the tail sweep runs in logs, so L^2 overflowing a float is harmless
        ("100", "2", 0, ""),
        # the form Gamma(122) (j+61)^-121 holds for every j; no factor-2 probe
        ("120", "1", 0, ""),
        ("200", "1", 1, "overflows"),
    ],
    ids=["beta80", "beta100-kmin2", "beta120", "beta200"],
)
def test_sum_large_beta_exits_cleanly(capsys, beta, kmin, code, message):
    # j^alpha overflows a float from alpha = 78, L^2 from beta = 98 and
    # Gamma(beta+1) from beta = 170.6
    result, out, err = run_cli(
        capsys, "sum", "--dist", "beta", "--beta", beta, "--kmin", kmin,
        "--n", "1000", "--tol", "1e-4",
    )
    assert result == code
    assert message in err
    if code == 0:
        value = float(out.strip().splitlines()[1].split(",")[1])
        # A(n; 1) <= 0 and A(n; 2) >= 0 term by term
        assert math.isfinite(value) and (value <= 0.0 if kmin == "1" else value >= 0.0)


def test_sum_json_row_keys(capsys):
    code, out, _ = run_cli(
        capsys, "sum", "--dist", "riemann", "--n", "10,100", "--kmin", "2", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)["results"]["rows"]
    assert [r["n"] for r in rows] == [10, 100]
    for row in rows:
        assert list(row) == ["n", "value", "prediction", "residual", "tail_bound", "terms_used"]


@pytest.mark.parametrize(
    "argv, warning",
    [
        # the series stops at its 10M-term cap
        (("game", "exact", "--p", "0.9999999", "--tol", "1e-12"),
         "warning: game exact: tail_bound 3.68e+06 exceeds tol 1e-12"),
        # the head stops at its 2^22 cap with n m_J still near 23
        (("sum", "--dist", "riemann-scaled", "--s", "0.55", "--kmin", "2", "--n", "100000",
          "--tol", "25"),
         "warning: sum n=100000: tail_bound 1.63e+04 exceeds tol 25"),
        # a tol under the rounding of a sum near 1.6
        (("zeta", "--dist", "riemann", "--s-eval", "2", "--tol", "1e-15"),
         "warning: zeta: tail_bound 5.11e-15 exceeds tol 1e-15"),
        # just above the abscissa 1/2 the head stops at its 2^22 cap, where
        # the gap of the beta-edge form still weighs on a tail near 7e6
        (("zeta", "--dist", "beta", "--beta", "1", "--s-eval", "0.5000001", "--tol", "1e-12"),
         "warning: zeta: tail_bound 8.21e-08 exceeds tol 1e-12"),
    ],
    ids=["game-exact-cap", "sum-power-law-cap", "zeta-rounding", "zeta-generic-cap"],
)
def test_missed_tol_warns_on_stderr(capsys, argv, warning):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out
    assert err == warning + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("game", "exact", "--p", "0.5,0.5"),
        ("sum", "--dist", "riemann", "--n", "10,100", "--kmin", "2"),
        ("sum", "--dist", "beta", "--beta", "1", "--n", "100", "--tol", "1e-4"),
        ("zeta", "--dist", "riemann", "--s-eval", "2"),
    ],
    ids=["game-exact", "sum-power-law", "sum-generic", "zeta"],
)
def test_met_tol_writes_no_stderr(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out
    assert err == ""


def test_predict_matches_library(capsys):
    code, out, _ = run_cli(capsys, "predict", "--kind", "mainisdef", "--c", "2", "--beta", "1",
                           "--n", "10000")
    assert code == 0
    expected = momzeta.binom_sums.predict("mainisdef", 10000.0, c=2.0, beta=1.0).value
    assert json.loads(out)["results"]["value"] == expected


def test_moments_beta_tail_column(capsys):
    code, out, _ = run_cli(capsys, "moments", "--dist", "beta", "--beta", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,m_k,k_pow_alpha_m_k,tail_L"
    k, _, scaled, tail_l = (float(v) for v in lines[-1].split(","))
    assert k == 10_000
    assert scaled == pytest.approx(tail_l, rel=0.01)


def test_dn_csv_headers(capsys):
    code, out, _ = run_cli(capsys, "dn", "--n", "1,10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,d_n,abs_dev,scaled_dev"
    assert float(lines[1].split(",")[1]) == pytest.approx(0.42278433509846714, abs=1e-10)


def test_identity_grid(capsys):
    code, out, _ = run_cli(capsys, "identity")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "variant,L,alpha,quadrature,closed_form,abs_diff"
    assert len(lines) == 1 + 3 * 4  # three L values, three power alphas plus the log variant
    for line in lines[1:]:
        assert float(line.split(",")[-1]) <= 1e-6


def test_identity_at_large_L_exits_0(capsys):
    # the quadrature's error test charges the rounding of its sums, ~1e-6 at L = 1e8
    code, out, _ = run_cli(capsys, "identity", "--l-grid", "1e8", "--alpha-grid", "1.5")
    assert code == 0
    quad, closed = (float(v) for v in out.splitlines()[1].split(",")[3:5])
    assert abs(quad - closed) <= 1e-13 * closed


def test_table_edge_comes_from_its_last_segment(tmp_path, capsys):
    table = tmp_path / "d.csv"
    table.write_text("x,f\n0,1.5\n1,0.5\n")
    argv = ("moments", "--dist", "tabulated", "--table", str(table), "--k-max", "100")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,m_k,k_pow_alpha_m_k,tail_L"
    assert {line.split(",")[-1] for line in lines[1:]} == {"0.5"}  # tail_L = f[-1]
    # the edge is only derived: --c/--beta, right or wrong, alone or together,
    # are usage errors (--c is no flag of moments at all)
    for edge, error in [(("--c", "0.5", "--beta", "0"), "unrecognized arguments: --c 0.5"),
                        (("--c", "0.7", "--beta", "0"), "unrecognized arguments: --c 0.7"),
                        (("--c", "0.5"), "unrecognized arguments: --c 0.5"),
                        (("--beta", "1"), "--dist tabulated takes no --beta")]:
        with pytest.raises(SystemExit) as exc:
            main([*argv, *edge])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.rstrip().endswith(error)
    # the alpha1 predictor reads c = f[-1] from the table
    code, out, _ = run_cli(capsys, "sum", "--dist", "tabulated", "--table", str(table),
                           "--kmin", "2", "--n", "100,1000", "--tol", "1", "--predict", "alpha1")
    assert code == 0
    for line in out.splitlines()[1:]:
        n, prediction = (float(v) for v in line.split(",")[:3:2])
        assert prediction == pytest.approx(0.5 * n * math.log(n), rel=1e-15)


def test_short_table_row_is_numeric_failure(tmp_path, capsys):
    table = tmp_path / "d.csv"
    table.write_text("x,f\n0,1.5\n1\n")
    code, out, err = run_cli(capsys, "moments", "--dist", "tabulated", "--table", str(table))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "d.csv, line 3" in err


@pytest.mark.parametrize("argv", [
    ("moments",),
    ("sum", "--n", "10", "--kmin", "2", "--tol", "1"),
    ("game", "simulate", "--n-sets", "3", "--trials", "10"),
], ids=["moments", "sum", "game-simulate"])
def test_table_with_nan_is_numeric_failure(tmp_path, capsys, argv):
    # past the mass check, a NaN would print null moments and sum to the 2^22 cap
    table = tmp_path / "nan.csv"
    table.write_text("x,f\n0,1.5\n0.5,nan\n1,0.5\n")
    code, out, err = run_cli(capsys, *argv, "--dist", "tabulated", "--table", str(table))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "finite" in err


# a valid invocation of each subcommand, and the flags it does not read
_BARE_ARGV = {
    "zeta": ["zeta", "--dist", "riemann", "--s-eval", "2"],
    "moments": ["moments", "--dist", "uniform"],
    "predict": ["predict", "--kind", "riemann", "--n", "100"],
    "game-exact": ["game", "exact", "--p", "0.5"],
    "identity": ["identity"],
    "sum": ["sum", "--dist", "riemann", "--n", "10"],
    "dn": ["dn", "--n", "10"],
    "game-simulate": ["game", "simulate", "--p", "0.5"],
    "verify": ["verify", "--criteria", "5"],
}
_UNREAD_FLAGS = [
    *((cmd, flag) for cmd in ("zeta", "moments", "predict", "game-exact", "identity")
      for flag in ("--workers", "--seed")),
    ("sum", "--seed"), ("dn", "--seed"), ("verify", "--workers"),
    # every sweep and simulation runs in the calling process
    ("sum", "--workers"), ("dn", "--workers"), ("game-simulate", "--workers"),
]


@pytest.mark.parametrize("cmd, flag", _UNREAD_FLAGS, ids=[f"{c}{f}" for c, f in _UNREAD_FLAGS])
def test_unread_flags_are_usage_errors(capsys, cmd, flag):
    with pytest.raises(SystemExit) as exc:
        main([*_BARE_ARGV[cmd], flag, "2"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--dist", "beta"), ("--beta", "1"), ("--c", "2"), ("--table", "d.csv"), ("--s", "2"),
    ("--n-sets", "5"),
])
def test_game_simulate_fixed_p_rejects_random_p_flags(capsys, flag, value):
    # --p plays fixed measures; a random-p flag beside it would be ignored
    with pytest.raises(SystemExit) as exc:
        main(["game", "simulate", "--p", "0.5", "--trials", "10", flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


# --c is an option of predict alone: the other commands read a law's
# parameters from the sequence they sum
_NO_C = "unrecognized arguments: --c"


@pytest.mark.parametrize("argv, error", [
    (["moments", "--dist", "uniform", "--c", "5", "--beta", "3"], f"{_NO_C} 5"),
    (["zeta", "--dist", "riemann", "--s", "3", "--s-eval", "2"], "takes no --s"),
    (["zeta", "--dist", "beta", "--beta", "1", "--table", "d.csv", "--s-eval", "2"],
     "takes no --table"),
    (["zeta", "--dist", "riemann-scaled", "--s", "2", "--c", "1", "--s-eval", "2"], f"{_NO_C} 1"),
    (["sum", "--dist", "riemann", "--n", "10", "--c", "1"], f"{_NO_C} 1"),
    (["sum", "--dist", "riemann", "--n", "10", "--predict", "alpha1", "--c", "1",
      "--beta", "0"], f"{_NO_C} 1"),
    (["sum", "--dist", "uniform", "--n", "10", "--predict", "riemann", "--s", "2"], "takes no --s"),
    (["game", "simulate", "--dist", "uniform", "--n-sets", "3", "--s", "2"], "takes no --s"),
    # a density's edge is derived from its form, never given
    (["zeta", "--dist", "beta", "--beta", "1", "--c", "2", "--s-eval", "2"], f"{_NO_C} 2"),
    (["moments", "--dist", "tabulated", "--table", "d.csv", "--c", "0.5", "--beta", "0"],
     f"{_NO_C} 0.5"),
    # ... also for the predictor, which reads the density's derived edge
    (["sum", "--dist", "beta", "--beta", "1", "--c", "5", "--n", "10", "--predict", "mainisdef"],
     f"{_NO_C} 5"),
    (["sum", "--dist", "tabulated", "--table", "d.csv", "--n", "10", "--predict", "alpha1",
      "--c", "0.7"], f"{_NO_C} 0.7"),
    (["sum", "--dist", "uniform", "--n", "10", "--predict", "mainisdef", "--c", "1", "--beta",
      "0"], f"{_NO_C} 1"),
    # ... and for an abstract sequence's, which reads its law (1/Gamma(s), s - 1)
    (["sum", "--dist", "riemann", "--kmin", "2", "--n", "100", "--predict", "alpha1", "--c", "1"],
     f"{_NO_C} 1"),
    (["sum", "--dist", "riemann-scaled", "--s", "2", "--n", "100", "--predict", "mainisdef",
      "--c", "2", "--beta", "1"], f"{_NO_C} 2"),
    # a sum --predict kind reads no flags of its own
    (["sum", "--dist", "riemann", "--n", "10", "--predict", "riemann_scaled", "--s", "2"],
     "--dist riemann takes no --s"),
    (["moments", "--dist", "uniform", "--beta", "3"], "--dist uniform takes no --beta"),
    # a sum --predict kind applies only at its kmin and to the tails its law fits
    (["sum", "--dist", "beta", "--beta", "1", "--kmin", "2", "--n", "100", "--predict", "alpha1"],
     "alpha1 needs a finite L > 0, alpha = 1 and a finite n >= 1, "
     "got log L=0.6931471805599453, alpha=2.0, n=100"),
    (["sum", "--dist", "uniform", "--kmin", "2", "--n", "100", "--predict", "riemann"],
     "riemann predicts m_j = 1/j only, not L=1, alpha=1, shift=1"),
    (["sum", "--dist", "beta", "--beta", "2", "--kmin", "1", "--n", "100", "--predict", "riemann"],
     "riemann predicts A(n; 2), not A(n; 1)"),
    (["sum", "--dist", "beta", "--beta", "2", "--kmin", "2", "--n", "100", "--predict",
      "mainisdef"], "mainisdef predicts A(n; 1), not A(n; 2)"),
    (["sum", "--dist", "riemann", "--kmin", "2", "--n", "100", "--predict", "mainisdef"],
     "mainisdef predicts A(n; 1), not A(n; 2)"),
], ids=["moments-uniform", "zeta-riemann", "zeta-beta", "zeta-scaled", "sum", "sum-alpha1",
        "sum-riemann", "simulate", "beta-c", "tabulated-c-beta", "predict-beta-c",
        "predict-tabulated-c", "predict-uniform-c-beta", "predict-riemann-c",
        "predict-scaled-c-beta", "predict-riemann-s", "moments-uniform-beta",
        "alpha1-at-alpha2", "riemann-on-uniform", "riemann-at-kmin1", "mainisdef-at-kmin2",
        "mainisdef-on-riemann"])
def test_flags_the_family_does_not_read_are_usage_errors(capsys, argv, error):
    # each --dist family reads its own parameters, no other command than
    # predict has --c, and a sum --predict kind must fit the summed sequence
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.rstrip().endswith(error)


@pytest.mark.parametrize("argv", [
    ["predict", "--kind", "alpha1", "--n", "100", "--c", "1"],
    ["predict", "--kind", "mainisdef", "--n", "100", "--c", "2", "--beta", "1"],
], ids=["alpha1-c", "mainisdef-c-beta"])
def test_flags_the_command_reads_are_accepted(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and out and err == ""


@pytest.mark.parametrize("argv, error", [
    (["--kind", "riemann", "--c", "5", "--beta", "3", "--s", "9"],
     "predict --kind riemann takes no --beta, --c, --s"),
    (["--kind", "riemann_scaled", "--s", "2", "--c", "1"],
     "predict --kind riemann_scaled takes no --c"),
    (["--kind", "alpha1", "--c", "1", "--beta", "1"], "predict --kind alpha1 takes no --beta"),
    (["--kind", "mainisdef", "--c", "2"], "predict --kind mainisdef needs --beta"),
    (["--kind", "mainisdef"], "predict --kind mainisdef needs --c, --beta"),
    (["--kind", "alpha1"], "predict --kind alpha1 needs --c"),
    (["--kind", "riemann_scaled"], "predict --kind riemann_scaled needs --s"),
], ids=["riemann-unread", "scaled-unread", "alpha1-unread", "mainisdef-missing-beta",
        "mainisdef-missing-both", "alpha1-missing", "scaled-missing"])
def test_predict_reads_only_its_kinds_flags(capsys, argv, error):
    # an unread flag is not echoed into the config, and a missing one is not a DomainError
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--n", "100", *argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.rstrip().endswith(error)


def _sum_rows(capsys, *argv):
    code, out, err = run_cli(capsys, "sum", *argv, "--format", "json")
    assert code == 0 and err == ""
    return json.loads(out)["results"]["rows"]


def test_sum_predictors_read_the_sequence_law(capsys):
    # j^(-2) has (L, alpha) = (1, 2), so mainisdef is Gamma(1/2) n^(1/2), the
    # riemann_scaled law at s = alpha = 2
    argv = ("--dist", "riemann-scaled", "--s", "2", "--n", "10,1000,100000")
    main_term = _sum_rows(capsys, *argv, "--predict", "mainisdef")
    scaled = _sum_rows(capsys, *argv, "--predict", "riemann_scaled")
    for a, b in zip(main_term, scaled):
        assert a["prediction"] == pytest.approx(b["prediction"], rel=1e-15)
        assert a["value"] == b["value"]
    # 1/j has L = 1, so alpha1 predicts n log n
    for row in _sum_rows(capsys, "--dist", "riemann", "--kmin", "2", "--n", "10,1000",
                         "--predict", "alpha1"):
        assert row["prediction"] == pytest.approx(row["n"] * math.log(row["n"]), rel=1e-15)
    # s = 200, past where Gamma(s) overflows: both laws read (L, alpha) = (1, 200)
    for kind in ("riemann_scaled", "mainisdef"):
        (row,) = _sum_rows(capsys, "--dist", "riemann-scaled", "--s", "200", "--n", "10",
                           "--predict", kind)
        assert row["prediction"] == pytest.approx(math.gamma(1.0 - 1.0 / 200) * 10 ** (1.0 / 200))


@pytest.mark.parametrize("argv", [
    ["game", "simulate", "--p", "0.5", "--p", "0.9", "--trials", "1000"],
    ["game", "simulate", "--p", "0.5", "--trials", "1000", "--p", "0.5"],
    ["game", "exact", "--p", "0.5", "--p", "0.9"],
], ids=["simulate", "simulate-same-value", "exact"])
def test_repeated_p_is_a_usage_error(capsys, argv):
    # argparse would keep only the last --p and play [0.9]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--p given more than once" in err


@pytest.mark.parametrize("flag, value", [
    ("--k-max", "-5"), ("--k-max", "0"), ("--points", "0"), ("--points", "-1"),
])
def test_moments_rejects_sizes_below_one(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["moments", "--dist", "uniform", flag, value])
    assert exc.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--p", "0.5", "--trials", "0"],
    ["--p", "0.5", "--trials", "-3"],
    ["--dist", "uniform", "--n-sets", "5", "--trials", "0"],
    ["--dist", "uniform", "--n-sets", "0"],
    ["--dist", "beta", "--beta", "1", "--n-sets", "-2"],
], ids=["trials0", "trials-neg", "random-p-trials0", "n-sets0", "n-sets-neg"])
def test_game_simulate_rejects_sizes_below_one(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["game", "simulate", *argv])
    assert exc.value.code == 2
    assert ">= 1" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sum", "--dist", "riemann"])  # missing --n
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_single_criterion_deterministic(capsys):
    code_a, out_a, _ = run_cli(capsys, "verify", "--criteria", "7", "--seed", "42")
    code_b, out_b, _ = run_cli(capsys, "verify", "--criteria", "7", "--seed", "42")
    assert code_a == 0 and code_b == 0
    assert out_a == out_b
    report = json.loads(out_a)
    assert report["results"]["all_passed"] is True
    assert report["results"]["criteria"][0]["id"] == "7"
    assert report["config"]["seed"] == 42


def test_verify_roundtrip_schema(capsys):
    _, out, _ = run_cli(capsys, "verify", "--criteria", "5,10", "--seed", "42")
    report = json.loads(out)
    assert report["schema"] == 1
    assert set(report["config"]) == {"command", "criteria", "seed"}
    for entry in report["results"]["criteria"]:
        assert set(entry) == {"id", "description", "passed", "details"}


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("MOMZETA_SEED", "7")
    _, out_env, _ = run_cli(capsys, "game", "simulate", "--p", "0.5", "--trials", "4096")
    monkeypatch.delenv("MOMZETA_SEED")
    _, out_flag, _ = run_cli(
        capsys, "game", "simulate", "--p", "0.5", "--trials", "4096", "--seed", "7"
    )
    assert out_env == out_flag


def test_game_simulate_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "game", "simulate", "--p", "0.5,0.5", "--trials", "8192",
        "--seed", "42", "-o", str(out_path),
    )
    assert code == 0 and out == ""
    report = json.loads(out_path.read_text())
    assert report["results"]["mode"] == "fixed-p"
    assert report["results"]["trials"] == 8192
    assert report["results"]["target"] == pytest.approx(8.0 / 3.0, abs=1e-9)


def test_game_simulate_random_p(capsys):
    code, out, _ = run_cli(
        capsys, "game", "simulate", "--dist", "beta", "--beta", "1",
        "--n-sets", "20", "--trials", "4096", "--seed", "3",
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["mode"] == "random-p"
    assert results["target_kind"] == "one-minus-alt-sum"
    assert abs(results["mean"] - results["target"]) <= 6.0 * results["stderr"]


# ---------------------------------------------------------------------------
# import budget: mpmath loads only in the functions that use it, numpy.random
# only with the first simulation, numpy.polynomial only with the identity
# quadrature, and the runtime needs no scipy at all
# ---------------------------------------------------------------------------

_HEAVY_PROBE = """
import contextlib, io, json, sys
import momzeta, momzeta.cli
# the non-integer beta coefficients take their rationals on first use, and
# the acceptance checks load with verify
assert not {"fractions", "decimal", "momzeta.acceptance"} & set(sys.modules)
code = 0
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = momzeta.cli.main(sys.argv[1:])
heavy = ("scipy", "mpmath", "numpy.random", "numpy.polynomial")
print(json.dumps([code, sorted(m for m in heavy if m in sys.modules)]))
"""


@pytest.mark.parametrize(
    "argv, loaded",
    [
        ([], []),
        (["predict", "--kind", "riemann", "--n", "5000"], []),
        (["sum", "--dist", "riemann", "--n", "10,1000", "--kmin", "2", "--predict", "riemann"], []),
        (["game", "exact", "--p", "0.5,0.9,0.99"], []),
        (["game", "simulate", "--p", "0.5,0.9", "--trials", "4096", "--seed", "1"],
         ["numpy.random"]),
        (["dn", "--n", "10,100"], []),
        (["verify", "--criteria", "5", "--seed", "1"], []),
        (["verify", "--criteria", "8", "--seed", "1"], ["numpy.random"]),
        (["sum", "--dist", "beta", "--beta", "1", "--n", "100", "--tol", "1e-3"], []),
        (["sum", "--dist", "beta", "--beta", "2.5", "--n", "100", "--tol", "1e-3"], []),
        (["verify", "--criteria", "10", "--seed", "1"], ["numpy.polynomial"]),
        (["sum", "--dist", "riemann", "--method", "naive", "--n", "10", "--kmin", "2"], ["mpmath"]),
    ],
    ids=["import", "predict", "sum", "game-exact", "game-simulate", "dn", "verify",
         "verify-simulate", "sum-beta", "sum-beta-non-integer", "verify-quadrature", "sum-naive"],
)
def test_heavy_imports_load_on_demand(argv, loaded):
    src = os.path.dirname(os.path.dirname(momzeta.__file__))
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", _HEAVY_PROBE, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, loaded]


_NO_SCIPY_PROBE = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # any scipy import raises ImportError
import momzeta.cli
beta = ["--dist", "beta", "--beta", "2.5"]
runs = {}
for argv in (["verify", "--seed", "1"], ["identity"], ["zeta", *beta, "--s-eval", "1"],
             ["moments", *beta], ["sum", *beta, "--n", "100,10000", "--tol", "1e-6"],
             ["game", "simulate", *beta, "--n-sets", "20", "--trials", "4096", "--seed", "1"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        runs[argv[0]] = [momzeta.cli.main(argv), out.getvalue()]
print(json.dumps(runs))
"""


def test_runtime_needs_no_scipy():
    # numpy and mpmath are the only runtime dependencies: every command that
    # once reached scipy (non-integer beta moments, the identity quadrature)
    # runs with scipy unimportable
    paths = [os.path.dirname(os.path.dirname(momzeta.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_PROBE], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert {cmd: code for cmd, (code, _) in runs.items()} == dict.fromkeys(runs, 0)
    criteria = json.loads(runs["verify"][1])["results"]["criteria"]
    assert [c["passed"] for c in criteria] == [True] * 11


def test_zeta_sources_build_without_mpmath():
    # the naive oracle's sources import mpmath when first called, not when built
    paths = [os.path.dirname(os.path.dirname(momzeta.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    probe = ("import sys, momzeta; momzeta.riemann_zeta_source(); momzeta.uniform_zeta_source(); "
             "momzeta.scaled_riemann_zeta_source(2.0); print('mpmath' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

"""End-to-end checks of the command-line front end: exit codes, bytes, errors."""

import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from test_oracle import _JSON_PROBLEMS

from heatkern import cli, perturb
from heatkern.oracle import floquet_log_det
from heatkern.specfun import integrate_unit_interval


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_problem(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


COSINE = {"a": 1.0, "N": 1, "modes": [{"n": 1, "matrix": [[[0.5, 0.0]]]}]}


# ---------------------------------------------------------------- coeffs


def test_coeffs_single_is_bare_expression(capsys):
    code, out, err = run_cli(["coeffs", "--k", "1"], capsys)
    assert (code, out, err) == (0, "Q\n", "")
    code, out, _ = run_cli(["coeffs", "--k", "2"], capsys)
    assert code == 0
    assert out == "-1/3*Q'' + Q*Q\n"


def test_coeffs_table_and_json(capsys):
    code, out, _ = run_cli(["coeffs", "--upto", "2"], capsys)
    assert code == 0
    assert out.splitlines() == ["k,expression", "0,1", "1,Q", "2,-1/3*Q'' + Q*Q"]
    code, out, _ = run_cli(["coeffs", "--upto", "1", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == [
        {"k": 0, "expression": "1"},
        {"k": 1, "expression": "Q"},
    ]


@pytest.mark.parametrize("args", [
    ["coeffs", "--k", "1200"],
    ["invariants", "--k", "1200"],
    ["kdv", "--flow", "1200", "--steps", "10", "--grid", "64"],
    ["kdv", "--flow", "1200", "--grid", "64"],
], ids=["coeffs", "invariants", "kdv", "kdv-suggested-steps"])
def test_order_beyond_memory_is_refused(args):
    # in a fresh interpreter: a depth-first recursion to such an order ended
    # in a RecursionError traceback, building it would exhaust memory, and
    # without --steps the step estimate for the flow overflowed first
    proc = subprocess.run([sys.executable, "-m", "heatkern.cli"] + args,
                          capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert len(proc.stderr.splitlines()) == 1
    payload = json.loads(proc.stderr)
    assert payload["error"] == "config"
    assert payload["reason"].startswith("[a_1200] cannot be built in memory")


def test_coeffs_order_12_still_runs():
    proc = subprocess.run([sys.executable, "-m", "heatkern.cli", "coeffs", "--k", "12"],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    # [a_12] has F(23) = 28657 words
    assert len(proc.stdout.replace(" - ", " + ").split(" + ")) == 28657


# ------------------------------------------------------------- invariants


def test_invariants_free_k0(capsys):
    code, out, err = run_cli(
        ["invariants", "--k", "0", "--problem", "free_a1_N1.json"], capsys)
    assert (code, err) == (0, "")
    assert out == "6.2831853071795862\n"


def test_invariants_constant_table(capsys):
    code, out, _ = run_cli(
        ["invariants", "--upto", "3", "--problem", "constant_a1_N1.json"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,A_k,grid"
    for line in lines[1:]:
        value = float(line.split(",")[1])
        assert abs(value - 2.0 * math.pi) <= 1e-12


def test_invariants_explicit_path(tmp_path, capsys):
    path = write_problem(tmp_path, "wide.json", {
        "a": 2.0, "N": 1, "modes": [{"n": 0, "matrix": [[[0.25, 0.0]]]}],
    })
    code, out, _ = run_cli(["invariants", "--k", "0", "--problem", path], capsys)
    assert code == 0
    assert out == "12.566370614359172\n"


# ----------------------------------------------------------- error channel


def test_missing_problem_is_config_error(capsys):
    code, out, err = run_cli(["invariants", "--k", "0", "--problem", "nope.json"],
                             capsys)
    assert (code, out) == (2, "")
    assert err.endswith("\n") and err.count("\n") == 1
    payload = json.loads(err)
    assert payload["exit"] == 2 and payload["error"] == "config"


def test_malformed_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(["invariants", "--k", "0", "--problem", str(path)],
                           capsys)
    assert code == 2
    assert json.loads(err)["error"] == "config"


def test_non_finite_or_non_integer_problem_data_is_config_error(tmp_path, capsys):
    bad = [
        {"a": 1.0, "N": 1, "modes": [{"n": 1, "matrix": [[[math.nan, 0.0]]]}]},
        {"a": 1.0, "N": 1, "modes": [{"n": 1, "matrix": [[[0.5, math.inf]]]}]},
        {"a": 1.0, "N": 1, "modes": [{"n": 0, "matrix": [[[-math.inf, 0.0]]]}]},
        {"a": 1.0, "N": 1, "modes": [{"n": 1.5, "matrix": [[[0.5, 0.0]]]}]},
        {"a": 1.0, "N": 1.5, "modes": [{"n": 1, "matrix": [[[0.5, 0.0]]]}]},
    ]
    for i, obj in enumerate(bad):
        path = write_problem(tmp_path, f"bad{i}.json", obj)
        for args in (["det", "--lam-grid=-4", "--n-max", "16"], ["invariants", "--k", "2"]):
            code, out, err = run_cli(args + ["--problem", path], capsys)
            assert (code, out) == (2, ""), obj
            assert len(err.splitlines()) == 1
            assert json.loads(err)["error"] == "config"


@pytest.mark.parametrize("obj, reason", [
    ({"a": 1.0, "N": 1, "modes": [{"matrix": [[[0.5, 0.0]]]}]}, "with n and matrix"),
    ({"a": 1.0, "N": 1, "modes": {"n": 1, "matrix": [[[0.5, 0.0]]]}}, "must be a list"),
    ({"a": 1.0, "N": 1, "modes": [{"n": 1, "matrix": [[0.5, 0.0]]}]}, "[re, im] pairs"),
    ({"a": 1.0, "N": 0, "modes": []}, "N must be >= 1"),
    # JSON integers of 401 digits have no float64 value
    ({"a": 10 ** 400, "N": 1, "modes": []}, "radius a is beyond the float64 range"),
    ({"a": 1.0, "N": 1, "modes": [{"n": 1, "matrix": [[[10 ** 400, 0]]]}]},
     "mode 1: matrix must be N rows of N [re, im] pairs of float64 numbers"),
    # JSON booleans and strings are not numbers, although float() takes them
    ({"a": True, "N": 1, "modes": []}, "radius a must be a number, got True"),
    ({"a": "1.5", "N": 1, "modes": []}, "radius a must be a number, got '1.5'"),
    ({"a": 1.0, "N": 1, "modes": [{"n": 1, "matrix": [[[True, False]]]}]},
     "mode 1: matrix must be N rows of N [re, im] pairs of float64 numbers "
     "(entry must be a number, got True)"),
    # the adjointness check must not overflow near the float64 limit
    ({"a": 1.0, "N": 1, "modes": [{"n": 0, "matrix": [[[1e308, 1e308]]]}]},
     "violates q_{-n} = q_n^dagger"),
], ids=["no-n", "modes-object", "matrix-too-flat", "N-zero", "a-beyond-float64",
        "entry-beyond-float64", "a-boolean", "a-string", "entry-boolean",
        "non-adjoint-near-overflow"])
@pytest.mark.filterwarnings("error")
def test_malformed_problem_schema_is_config_error(tmp_path, capsys, obj, reason):
    path = write_problem(tmp_path, "bad.json", obj)
    code, out, err = run_cli(["invariants", "--k", "2", "--problem", path], capsys)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "config" and reason in payload["reason"]


def test_non_adjoint_mode_pair_is_config_error(tmp_path, capsys):
    obj = {"a": 1.0, "N": 1, "modes": [{"n": 1, "matrix": [[[0.5, 0.25]]]},
                                       {"n": -1, "matrix": [[[0.5, 0.25]]]}]}
    path = write_problem(tmp_path, "pair.json", obj)
    for args in (["det", "--lam-grid=-4", "--n-max", "16"], ["invariants", "--k", "2"]):
        code, out, err = run_cli(args + ["--problem", path], capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "config"


@settings(max_examples=150, deadline=None)
@given(obj=_JSON_PROBLEMS)
@example(obj={"a": 1.0, "N": 1, "modes": [{"n": 0, "matrix": [[[1e308, 1e308]]]}]})
# A_2 overflows: (n/a)^2 for a tiny radius, Q^2 for a huge mode
@example(obj={"a": 1e-200, "N": 1, "modes": [{"n": 1, "matrix": [[[0.5, 0.0]]]}]})
@example(obj={"a": 1.0, "N": 1, "modes": [{"n": 1, "matrix": [[[1e300, 0.0]]]}]})
def test_any_problem_json_runs_or_is_refused_in_one_line(obj):
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "problem.json"
        path.write_text(json.dumps(obj))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(["invariants", "--k", "2", "--problem", str(path)])
    assert [str(w.message) for w in caught] == []
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code in (2, 3)
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1
        assert json.loads(err.getvalue())["exit"] == code


def test_cli_import_skips_scipy_integrate():
    probe = "import sys, heatkern.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True).stdout
    assert out == "False\n"


def test_bad_flag_is_config_error(capsys):
    code, _, err = run_cli(["trace", "--t-grid", "0.1", "--format", "xml"], capsys)
    assert code == 2
    assert json.loads(err)["exit"] == 2
    code, _, err = run_cli(["trace", "--t-grid", "0,-1"], capsys)
    assert code == 2
    code, _, err = run_cli(["verify", "--only", "no-such-check"], capsys)
    assert code == 2


@pytest.mark.parametrize("args, flag", [
    (["trace", "--t-grid", "0.1", "--n-max", "0"], "--n-max"),
    (["trace", "--t-grid", "0.1", "--order", "-1"], "--order"),
    (["kdv", "--flow", "0"], "--flow"),
    (["kdv", "--flow", "1", "--record", "1"], "--record"),
    (["kdv", "--flow", "1", "--steps", "0"], "--steps"),
    (["coeffs", "--k", "-1"], "--k"),
    (["invariants", "--upto", "-1"], "--upto"),
    (["kdv", "--flow", "1", "--s-end", "inf"], "--s-end"),
    (["trace", "--t-grid", "0.1", "--check-tol", "0"], "--check-tol"),
    (["trace", "--t-grid", "0.1,nan"], "--t-grid"),
    (["det", "--lam-grid=1,inf"], "--lam-grid"),
    (["kdv", "--flow", "1", "--invariants", ","], "--invariants"),
])
def test_flag_refusal_names_its_flag(capsys, args, flag):
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "config"
    assert payload["reason"].startswith(f"argument {flag}: must be ")


@pytest.mark.parametrize("args", [
    ["invariants", "--k", "0", "--problem", "huge-mode"],
    ["det", "--lam-grid=-4", "--n-max", str(10 ** 15)],
], ids=["mode-index", "n-max"])
def test_unallocatable_size_is_config_error(tmp_path, capsys, args):
    # 10**15 modes ask for petabytes, which numpy refuses before touching
    # any memory; a size that could be allocated must not be tried here
    huge = {"a": 1.0, "N": 1, "modes": [{"n": 10 ** 15, "matrix": [[[0.5, 0.0]]]}]}
    args = [write_problem(tmp_path, "huge.json", huge) if a == "huge-mode" else a
            for a in args]
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "config"
    assert payload["reason"].startswith(f"{args[0]} needs more memory")
    assert "Unable to allocate" in payload["reason"]


@pytest.mark.parametrize("t", ["1e-320", "1e300"], ids=["subnormal", "huge"])
def test_float64_overflow_is_resolution_error(capsys, t):
    # 1e-320 overflows the n_max suggestion (EXP_CUT / t = inf), 1e300 the
    # powers of t in the resummed series; neither may end in a traceback
    code, out, err = run_cli(["trace", "--t-grid", t], capsys)
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "resolution"
    assert payload["reason"].startswith("trace left the float64 range")


def test_help_exits_zero(capsys):
    code = cli.main(["--help"])
    out = capsys.readouterr().out
    assert code == 0
    assert "coeffs" in out and "verify" in out


# ----------------------------------------------------------------- sweeps


def test_trace_rows_and_check_tol(capsys):
    base = ["trace", "--problem", "constant_a1_N1.json",
            "--t-grid", "0.05,0.1", "--n-max", "48"]
    code, out, err = run_cli(base + ["--check-tol", "1e-6"], capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "t,omega_oracle,omega_order2,omega_resummed"
    assert len(lines) == 3 and all(len(l.split(",")) == 4 for l in lines[1:])
    code, out, err = run_cli(base + ["--check-tol", "1e-15"], capsys)
    assert code == 4
    assert out.splitlines()[0] == "t,omega_oracle,omega_order2,omega_resummed"
    assert json.loads(err)["error"] == "verification"


def test_det_rows_negative_lambda(capsys):
    code, out, err = run_cli(
        ["det", "--problem", "constant_a1_N1.json", "--lam-grid=-16",
         "--n-max", "96"], capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "lam,log_det_oracle,weyl,gamma"
    lam, log_det, weyl, _gamma = (float(v) for v in lines[1].split(","))
    assert lam == -16.0
    assert abs(weyl - 8.0 * math.pi) <= 1e-12
    # exact answer for Q = 1: eigenvalues n^2 + 1 - lam over the integers
    exact = 2.0 * math.log(2.0 * math.sinh(math.pi * math.sqrt(17.0)))
    assert abs(log_det - exact) <= 1e-8 * abs(exact)


def test_det_resolution_refusal(tmp_path, capsys):
    # 10 cos x at n_max 8: the third-order tail estimate of the Hill
    # determinant is far above 1e-8 of log Det
    path = write_problem(tmp_path, "cos10.json",
                         {"a": 1.0, "N": 1, "modes": [{"n": 1, "matrix": [[[5.0, 0.0]]]}]})
    args = ["det", "--problem", path, "--lam-grid=-11"]
    code, out, err = run_cli(args + ["--n-max", "8"], capsys)
    assert (code, out) == (3, "")
    payload = json.loads(err)
    assert payload["exit"] == 3 and payload["error"] == "resolution"
    assert "third-order tail estimate" in payload["reason"]
    # the suggestion names only what a flag sets, and it is the smallest
    # sufficient one
    assert list(payload["suggestion"]) == ["n_max"]
    n_max = payload["suggestion"]["n_max"]
    assert n_max > 8
    code, out, err = run_cli(args + ["--n-max", str(n_max - 1)], capsys)
    assert code == 3
    code, out, err = run_cli(args + ["--n-max", str(n_max)], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("lam,log_det_oracle,weyl,gamma\n-11,")
    value = float(out.splitlines()[1].split(",")[1])
    assert abs(value - floquet_log_det(cli.load_problem(path), -11.0)) <= 1e-10


def test_reachable_truncation_suggests_n_max(capsys):
    # zeta's Mellin route anchors its tail on the computed spectrum
    code, out, err = run_cli(["zeta", "--s-grid", "2", "--lam=-1e6"], capsys)
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1
    assert json.loads(err)["suggestion"] == {"n_max": 14969}
    # the Hill determinant needs no such truncation: 2 log(2 sinh 1000 pi)
    code, out, err = run_cli(["det", "--lam-grid=-1e6"], capsys)
    assert (code, err) == (0, "")
    value = float(out.splitlines()[1].split(",")[1])
    exact = 2.0 * (1000.0 * math.pi + math.log1p(-math.exp(-2000.0 * math.pi)))
    assert abs(value - exact) <= 1e-15 * exact


@pytest.mark.parametrize("args", [
    ["zeta", "--s-grid", "2", "--lam=-1e300"],
    ["trace", "--t-grid", "1e-300"],
], ids=["zeta", "trace"])
def test_unreachable_truncation_suggests_nothing(capsys, args):
    # the n_max that would anchor the tail has some 150 digits; no memory
    # holds its Galerkin band, so the refusal names no n_max
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "resolution" and "suggestion" not in payload
    assert payload["reason"].endswith("; no n_max that fits in memory can anchor the tail")


def test_det_far_below_the_spectrum_is_the_free_closed_form(capsys):
    # sigma = 1e300: K vanishes in float64 and log(2 sinh x) = x + log1p(...)
    # stays finite, so log Det equals its Weyl part
    code, out, err = run_cli(["det", "--lam-grid=-1e300"], capsys)
    assert (code, err) == (0, "")
    lam, value, weyl, gamma = out.splitlines()[1].split(",")
    assert float(value) == float(weyl) == 2.0 * math.pi * 1e150


def test_det_at_or_above_lambda_1_is_config_error(tmp_path, capsys):
    # cos x has lambda_1 = -0.378: at -0.2 the Cholesky fails.  With
    # Q = cos x - 1, lambda_1 <= tr q_0 = -1 refuses -0.5 before it.
    shifted = {"a": 1.0, "N": 1, "modes": [{"n": 0, "matrix": [[[-1.0, 0.0]]]},
                                           {"n": 1, "matrix": [[[0.5, 0.0]]]}]}
    for name, obj, lam in (("cos.json", COSINE, "-0.2"), ("shifted.json", shifted, "-0.5")):
        path = write_problem(tmp_path, name, obj)
        code, out, err = run_cli(["det", "--problem", path, f"--lam-grid={lam}"], capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "config" and "not below the spectrum" in payload["reason"]


def test_det_runs_no_eigensolve_and_no_invariants(tmp_path, capsys, monkeypatch):
    import heatkern.diffpoly as dp
    from scipy import linalg

    def refuse(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(linalg, "eigvals_banded", refuse)
    monkeypatch.setattr(dp, "evaluate", refuse)
    path = write_problem(tmp_path, "cos.json", COSINE)
    code, out, err = run_cli(["det", "--problem", path, "--lam-grid=-1,-26"], capsys)
    assert (code, err) == (0, "") and len(out.splitlines()) == 3
    # the patches bite: zeta needs both
    with pytest.raises(AssertionError, match="called"):
        run_cli(["zeta", "--problem", path, "--s-grid", "2"], capsys)


def test_zeta_rows_match_lattice_sum(capsys):
    code, out, _ = run_cli(
        ["zeta", "--problem", "free_a1_N1.json", "--s-grid", "2.5",
         "--lam", "-1", "--n-max", "48"], capsys)
    assert code == 0
    s, value = (float(v) for v in out.splitlines()[1].split(","))
    assert s == 2.5
    direct = sum((n * n + 1.0) ** -2.5 for n in range(-4000, 4001))
    assert abs(value - direct) <= 1e-10 * direct


def test_zeta_continued_below_one_half(capsys):
    code, out, err = run_cli(
        ["zeta", "--problem", "free_a1_N1.json", "--s-grid=0.25,-0.25,-2"],
        capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "s,zeta" and len(lines) == 4
    assert lines[3] == "-2,0"     # the continuation's zero, never "-0"
    for s in ("0.5", "-1.5", "-6"):
        code, out, err = run_cli(
            ["zeta", "--problem", "free_a1_N1.json", f"--s-grid={s}"], capsys)
        assert (code, out) == (2, ""), s
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "config" and f"s={s}" in payload["reason"]


def test_zeta_lambda_above_spectrum_is_config_error(capsys):
    code, _, err = run_cli(
        ["zeta", "--problem", "free_a1_N1.json", "--s-grid", "2.5",
         "--lam", "5"], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "config"


def test_zeta_non_finite_lam_is_config_error(capsys):
    for lam in ("nan", "-inf", "inf"):
        code, out, err = run_cli(
            ["zeta", "--problem", "free_a1_N1.json", "--s-grid", "1.5",
             f"--lam={lam}"], capsys)
        assert (code, out) == (2, ""), lam
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "config" and "--lam" in payload["reason"]


# -------------------------------------------------------------------- kdv


def test_kdv_csv_static_constant(capsys):
    code, out, err = run_cli(
        ["kdv", "--problem", "constant_a1_N1.json", "--flow", "1",
         "--s-end", "0.5", "--steps", "64", "--grid", "64", "--record", "5",
         "--invariants", "A2,I1"], capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert "# flow_k = 1" in lines
    assert "# gradient_rescale = -2" in lines
    assert "# invariant_rescale = -1" in lines
    assert "s,A2,I1" in lines
    assert "# drift A2 = 0" in lines and "# drift I1 = 0" in lines
    assert "# max_drift = 0" in lines
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 1 + 5  # header + record snapshots


def test_kdv_json_series(capsys):
    code, out, _ = run_cli(
        ["kdv", "--problem", "constant_a1_N1.json", "--flow", "1",
         "--s-end", "0.5", "--steps", "16", "--grid", "32", "--record", "3",
         "--invariants", "I1", "--format", "json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["flow_k"] == "1" and obj["steps"] == "16"
    assert obj["drifts"] == {"I1": 0.0} and obj["max_drift"] == 0.0
    assert len(obj["s"]) == 3 and obj["s"][-1] == 0.5
    for value in obj["series"]["I1"]:
        assert abs(value + 2.0 * math.pi) <= 1e-12


def test_kdv_divergence_exit3_with_suggestion(tmp_path, capsys):
    path = write_problem(tmp_path, "cosine.json", COSINE)
    code, out, err = run_cli(
        ["kdv", "--problem", path, "--flow", "2", "--s-end", "1.0",
         "--steps", "100", "--grid", "128"], capsys)
    assert (code, out) == (3, "")
    payload = json.loads(err)
    assert payload["error"] == "resolution"
    assert payload["suggestion"] == {"steps": 400}


def test_kdv_aliasing_exit3_with_required(tmp_path, capsys):
    wide = {"a": 1.0, "N": 1, "modes": [{"n": 3, "matrix": [[[0.2, 0.0]]]}]}
    path = write_problem(tmp_path, "wide.json", wide)
    code, _, err = run_cli(
        ["kdv", "--problem", path, "--flow", "1", "--steps", "8",
         "--grid", "8"], capsys)
    assert code == 3
    payload = json.loads(err)
    assert payload["error"] == "resolution"
    assert payload["suggestion"] == {"grid": 10}


def test_kdv_grid_refusal_with_or_without_steps(tmp_path, capsys):
    # the step heuristic samples Q0 only after the same 2/3-rule check
    wide = {"a": 1.0, "N": 1, "modes": [{"n": 40, "matrix": [[[0.2, 0.0]]]}]}
    path = write_problem(tmp_path, "wide40.json", wide)
    results = [run_cli(["kdv", "--problem", path, "--flow", "2", "--grid", "70"]
                       + steps, capsys) for steps in (["--steps", "100"], [])]
    assert results[0] == results[1]
    code, out, err = results[0]
    assert (code, out) == (3, "") and len(err.splitlines()) == 1
    assert json.loads(err)["suggestion"] == {"grid": 120}


def test_kdv_divergence_beyond_the_step_cap_suggests_nothing(tmp_path, capsys):
    path = write_problem(tmp_path, "cosine.json", COSINE)
    code, out, err = run_cli(
        ["kdv", "--problem", path, "--flow", "2", "--s-end", "1e30",
         "--steps", str(2 ** 52), "--grid", "64"], capsys)
    assert (code, out) == (3, "") and len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "resolution" and "suggestion" not in payload
    assert "no step count under the 2**53 cap helps" in payload["reason"]


def test_kdv_static_state_returns_without_stepping():
    # the default problem is free: no step changes it, so none is taken
    proc = subprocess.run(
        [sys.executable, "-m", "heatkern.cli", "kdv", "--flow", "2", "--s-end", "1e30",
         "--steps", str(2 ** 52), "--grid", "64"],
        capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    drifts = [l for l in proc.stdout.splitlines() if l.startswith("# drift ")]
    assert drifts and all(l.endswith(" = 0") for l in drifts)


@pytest.mark.parametrize("args", [
    ["--s-end", "1e300"],
    ["--steps", "100000000000000000000"],
], ids=["suggested", "given"])
def test_kdv_step_count_beyond_2_53_is_config_error(capsys, args):
    code, out, err = run_cli(["kdv", "--flow", "2"] + args, capsys)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "config"
    assert payload["reason"].startswith("steps must be between 1 and 2**53")


def test_kdv_nonpositive_grid_is_config_error(capsys):
    for grid in ("-4", "0"):
        code, out, err = run_cli(
            ["kdv", "--problem", "constant_a1_N1.json", "--flow", "2",
             "--steps", "10", "--grid", grid], capsys)
        assert (code, out) == (2, ""), grid
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "config"
        assert payload["reason"] == f"argument --grid: must be >= 1, got '{grid}'"


def test_unconverged_quadrature_is_resolution_error(monkeypatch, capsys):
    def kinked_beta(k, t):
        return integrate_unit_interval(lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)))

    monkeypatch.setattr(perturb, "beta_k", kinked_beta)
    code, out, err = run_cli(
        ["trace", "--problem", "constant_a1_N1.json", "--t-grid", "0.05",
         "--n-max", "48"], capsys)
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "resolution"
    assert "did not converge at 4096 nodes" in payload["reason"]


# ----------------------------------------------------------------- verify


def test_verify_single_check_exit0(capsys):
    code, out, err = run_cli(["verify", "--only", "determinant-benchmark"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("PASS determinant-benchmark:")


def test_verify_failing_check_exit4(capsys):
    code, out, err = run_cli(["verify", "--only", "perturbative-scaling"], capsys)
    assert code == 4
    assert out.startswith("FAIL perturbative-scaling:")
    payload = json.loads(err)
    assert payload["exit"] == 4
    assert "perturbative-scaling" in payload["reason"]


# ----------------------------------------------------------- output files


def test_output_file_matches_stdout(tmp_path, capsys):
    args = ["invariants", "--upto", "2", "--problem", "constant_a1_N1.json"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    target = tmp_path / "table.csv"
    code = cli.main(args + ["--output", str(target)])
    captured = capsys.readouterr()
    assert code == 0 and captured.out == ""
    assert target.read_text() == out


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "heatkern.cli", "invariants", "--k", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "6.2831853071795862\n"

"""End-to-end checks of the command-line front end: exit codes, bytes, errors."""

import contextlib
import hashlib
import io
import json
import math
import multiprocessing
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from test_oracle import _JSON_PROBLEMS

from heatkern import acceptance, cli, kdvflow, perturb
from heatkern.errors import ResolutionError
from heatkern.oracle import eigendata, floquet_log_det, log_det
from heatkern.periodic import PeriodicFunction
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
    ["coeffs", "--upto", "1200"],
    ["invariants", "--upto", "1200"],
    ["trace", "--t-grid", "1", "--order", "1200"],
    ["kdv", "--flow", "1200", "--steps", "10", "--grid", "64"],
    ["kdv", "--flow", "1200", "--grid", "64"],
], ids=["coeffs", "invariants", "coeffs-upto", "invariants-upto", "trace", "kdv",
        "kdv-suggested-steps"])
def test_order_beyond_memory_is_refused(args):
    # in a fresh interpreter: a depth-first recursion to such an order ended
    # in a RecursionError traceback, building it would exhaust memory, and
    # without --steps the step estimate for the flow overflowed first; a
    # range of orders is refused by its largest before the lower ones are
    # built (they take minutes and gigabytes from order 16 on)
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
    # json.loads reads Infinity and NaN as floats
    ({"a": math.inf, "N": 1, "modes": []},
     "circle radius a must be positive and finite, got inf"),
    ({"a": math.nan, "N": 1, "modes": []},
     "circle radius a must be positive and finite, got nan"),
    ({"a": 0, "N": 1, "modes": []}, "circle radius a must be positive and finite, got 0.0"),
    ({"a": 1.0, "N": 1, "modes": [{"n": 1, "matrix": [[[0.5, 0.0]]]},
                                  {"n": 1, "matrix": [[[0.5, 0.0]]]}]},
     "mode 1 listed twice"),
], ids=["no-n", "modes-object", "matrix-too-flat", "N-zero", "a-beyond-float64",
        "entry-beyond-float64", "a-boolean", "a-string", "entry-boolean",
        "non-adjoint-near-overflow", "a-infinite", "a-nan", "a-zero", "mode-twice"])
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


def test_cli_import_skips_the_process_pool():
    # verify imports its pool only when it runs, so no command pays for it
    probe = ("import sys, heatkern.cli; print([m for m in sys.modules if m in "
             "('multiprocessing', 'concurrent.futures.process')])")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


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
    assert json.loads(err)["suggestion"] == {"n_max": 14967}
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


@pytest.mark.parametrize("args", [
    ["trace", "--t-grid", "1"],
    ["det", "--lam-grid=-1"],
    ["zeta", "--s-grid", "2"],
], ids=["trace", "det", "zeta"])
def test_bandwidth_refusal_suggests_only_a_band_that_fits(tmp_path, capsys, args):
    # n_max must reach the bandwidth; at bandwidth 30000 that band is
    # 60001 x 60001 complex entries, some 57.6 GB, so nothing is suggested
    far = write_problem(tmp_path, "far.json", {"a": 1.0, "N": 1, "modes": [
        {"n": 30000, "matrix": [[[0.1, 0.0]]]}]})
    code, out, err = run_cli(args + ["--problem", far, "--n-max", "64"], capsys)
    assert (code, out) == (3, "") and len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "resolution" and "suggestion" not in payload
    assert payload["reason"] == ("n_max=64 cannot represent a bandwidth-30000 potential; "
                                 "no n_max that fits in memory can represent it")
    near = write_problem(tmp_path, "near.json", {"a": 1.0, "N": 1, "modes": [
        {"n": 5, "matrix": [[[0.1, 0.0]]]}]})
    code, out, err = run_cli(args + ["--problem", near, "--n-max", "2"], capsys)
    assert (code, out) == (3, "")
    assert json.loads(err)["suggestion"] == {"n_max": 5}


def test_trace_refuses_before_it_builds_any_invariant(tmp_path, capsys, monkeypatch):
    # the oracle column comes before any A_k, so a refused truncation costs
    # none; only an order predicted not to fit in memory is refused earlier
    def refuse(*args):
        raise AssertionError("an invariant was built before the oracle refused")

    far = write_problem(tmp_path, "far.json", {"a": 1.0, "N": 1, "modes": [
        {"n": 30000, "matrix": [[[0.1, 0.0]]]}]})
    monkeypatch.setattr(perturb, "global_invariant", refuse)
    code, out, err = run_cli(["trace", "--t-grid", "1", "--problem", far,
                              "--n-max", "64"], capsys)
    assert (code, out) == (3, "") and json.loads(err)["reason"].startswith("n_max=64 ")
    code, out, err = run_cli(["trace", "--t-grid", "1e-6", "--n-max", "8",
                              "--order", "40"], capsys)
    assert (code, out) == (2, "") and len(err.splitlines()) == 1
    assert " cannot be built in memory: " in json.loads(err)["reason"]


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


def test_det_at_or_above_zero_is_config_error(capsys):
    # the Weyl and gamma columns need lam < 0, even where log Det answers:
    # 2 log(2 sinh(pi sqrt 0.5)) for Q = 1 at lam = 0.5
    problem = cli.load_problem("constant_a1_N1.json")
    value = log_det(eigendata(problem, 64), 0.5)
    assert abs(value - 2.0 * math.log(2.0 * math.sinh(math.pi * math.sqrt(0.5)))) <= 1e-14
    for lam in ("0", "0.5"):
        code, out, err = run_cli(["det", "--problem", "constant_a1_N1.json",
                                  f"--lam-grid={lam}"], capsys)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "config", "exit": 2,
                                   "reason": "spectral forms need lam < 0"}


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


MATRIX_BW3 = {"a": 1.0, "N": 2, "modes": [
    {"n": 3, "matrix": [[[0.1, 0.0], [0.05, 0.0]], [[0.0, 0.0], [0.1, 0.0]]]}]}
WIDE40 = {"a": 1.0, "N": 1, "modes": [{"n": 40, "matrix": [[[0.2, 0.0]]]}]}


@pytest.mark.parametrize("problem, extra, code, reason", [
    (MATRIX_BW3, [], 2, "flows are scalar-only"),
    (MATRIX_BW3, ["--grid", "8"], 2, "flows are scalar-only"),
    (WIDE40, ["--grid", "70"], 3, "grid 70 cannot hold bandwidth 40 inside the "
                                  "2/3-rule band; need at least 120"),
    (COSINE, ["--flow", "40"], 2, "[a_40] cannot be built in memory"),
    (COSINE, ["--invariants", "B2"], 2, "unknown invariant name 'B2'"),
    (COSINE, ["--invariants", "I0"], 2, "rescaled invariants start at I1"),
    (COSINE, ["--invariants", "A40"], 2, "[a_40] cannot be built in memory"),
], ids=["matrix", "matrix-grid8", "grid", "flow40", "B2", "I0", "A40"])
def test_kdv_refusal_with_or_without_steps(tmp_path, capsys, monkeypatch,
                                           problem, extra, code, reason):
    # one gate refuses every flow input, and every invariant name is
    # resolved, before the step heuristic or the first RK4 step runs
    def no_steps(*args):
        raise AssertionError("the flow was integrated")

    monkeypatch.setattr(kdvflow, "_flow_operator", no_steps)
    path = write_problem(tmp_path, "problem.json", problem)
    results = [run_cli(["kdv", "--problem", path, "--flow", "2"] + extra + steps,
                       capsys) for steps in (["--steps", "100"], [])]
    assert results[0] == results[1]
    got, out, err = results[0]
    assert (got, out) == (code, "") and len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["reason"].startswith(reason)
    assert payload.get("suggestion") == ({"grid": 120} if code == 3 else None)


@pytest.mark.parametrize("fmt, digest", [
    ("csv", "1b28fd95099e8ee4ee5cd1c36363821d7098e89d4e895619acc90cb3a0913e93"),
    ("json", "c87ce242d1cf70acbcab5ace8e7ce13c64cd841f454538a3c3812177d7c21348"),
], ids=["csv", "json"])
def test_kdv_cosine_flow2_bytes(tmp_path, capsys, fmt, digest):
    path = write_problem(tmp_path, "cosine.json", COSINE)
    code, out, err = run_cli(["kdv", "--problem", path, "--flow", "2", "--s-end", "0.1",
                              "--grid", "64", "--format", fmt], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_kdv_divergence_beyond_the_step_cap_suggests_nothing(tmp_path, capsys):
    path = write_problem(tmp_path, "cosine.json", COSINE)
    code, out, err = run_cli(
        ["kdv", "--problem", path, "--flow", "2", "--s-end", "1e30",
         "--steps", str(2 ** 52), "--grid", "64"], capsys)
    assert (code, out) == (3, "") and len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "resolution" and "suggestion" not in payload
    assert "no step count under the 2**53 cap helps" in payload["reason"]


@pytest.mark.parametrize("flow, planned", [("3", "3.28e+08"), ("4", "8.28e+12")])
def test_kdv_refuses_a_planned_run_of_hours(tmp_path, capsys, flow, planned):
    # at the defaults (s_end 1, grid 256) flows 3 and 4 on cos x would plan
    # hours of steps; the refusal comes at once and its s_end fits the plan
    path = write_problem(tmp_path, "cosine.json", COSINE)
    start = time.perf_counter()
    code, out, err = run_cli(["kdv", "--problem", path, "--flow", flow], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "") and len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["reason"].startswith(f"flow {flow} plans {planned} steps")
    fits = payload["suggestion"]["s_end"]
    cosine = PeriodicFunction.cosine(1.0)
    assert kdvflow.suggested_steps(int(flow), cosine, fits, 256) <= kdvflow._MAX_PLANNED_STEPS


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


# ----------------------------------------------------------------- tables

MATRIX_2X2 = {"a": 1.5, "N": 2, "modes": [
    {"n": 0, "matrix": [[[0.3, 0.0], [0.1, 0.2]], [[0.1, -0.2], [-0.4, 0.0]]]},
    {"n": 1, "matrix": [[[0.25, 0.0], [0.05, 0.1]], [[0.0, 0.0], [0.2, 0.0]]]}]}

# every table command; "M22" stands for the file of MATRIX_2X2
TABLES = {
    "coeffs": ["coeffs", "--upto", "4"],
    "coeffs-k": ["coeffs", "--k", "3"],
    "invariants": ["invariants", "--upto", "4", "--problem", "M22"],
    "invariants-k": ["invariants", "--k", "2", "--problem", "M22"],
    "trace": ["trace", "--problem", "M22", "--t-grid", "0.1,0.5", "--n-max", "40"],
    "det": ["det", "--problem", "M22", "--lam-grid=-4,-9.5", "--n-max", "40"],
    "zeta": ["zeta", "--problem", "free_a1_N1.json", "--s-grid", "1.5,2.5,-2",
             "--lam", "-1"],
}


def _table_out(tmp_path, capsys, name, fmt):
    path = write_problem(tmp_path, "m22.json", MATRIX_2X2)
    args = [path if arg == "M22" else arg for arg in TABLES[name]]
    code, out, err = run_cli(args + ["--format", fmt], capsys)
    assert (code, err) == (0, "")
    return out


@pytest.mark.parametrize("name, fmt, digest", [
    ("coeffs", "csv", "925c0af3f703f9e5651bca372d1b4aaa8ecb7918b7e0fbe071239a1a23e375c8"),
    ("coeffs", "json", "5660f652b5d9f319074e693dd24344e41def32bdcd7e78172f120cf10ced4f7c"),
    ("coeffs-k", "csv", "8db4a151698dfd7476edc6e259c5e42a2cc0a672fb29580ded2e3a9f77f42952"),
    ("coeffs-k", "json", "62bdd180fb109aefcd03df3ffe647fce0630ac8c04870f0c0bc7c962247f025a"),
    ("invariants", "csv", "b38bcc2195c9cf50f2fa0b35e8bd39d41363fb598e591836e76696b38d579158"),
    ("invariants", "json", "304a9f8ef546aa4d3eab9de4d522e06c84f9f93553b5e558632bbfc8a8cfcdf4"),
    ("invariants-k", "csv", "7a872a8dd14b39c9dec363d9d1338f3824ab39cc5c2e6631f2e65fc011223b5a"),
    ("invariants-k", "json", "f297377ca5c23c2b2531f5351e8b8c80c2e3c607eacff8b8c332a45dcc683438"),
    ("trace", "csv", "5045265267815cdbcad43f3765e306a5f16a8f4a807d3e23bbe91db1284dddb6"),
    ("trace", "json", "2cbfffe5ba9445adc148b05e18722ba6fa5c094f31b3a8108a61471523a2b243"),
    ("det", "csv", "7f8b2e7171750d9e2e874f9851f6fb9e4b8d0b3f84ba5664e917a9b45e115748"),
    ("det", "json", "620b2150967673eff7f1e6501e7cae0d389529b9dc5dc737a05a7aeab04985fa"),
    ("zeta", "csv", "96400506f988242adede35f4b08114a0ac80ee5cde0d18cb9e487007cde3354f"),
    ("zeta", "json", "0a454c2c485047b7c0e3c0b979a47328787b37e08f0fa57ff74577c4aa2de1aa"),
])
def test_table_bytes(tmp_path, capsys, name, fmt, digest):
    out = _table_out(tmp_path, capsys, name, fmt)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _same_cell(cell: str, value) -> bool:
    """A CSV cell and a JSON value: the same text or int, or the same float bits."""
    if isinstance(value, float):
        return float(cell).hex() == value.hex()
    return cell == str(value)


@pytest.mark.parametrize("name", TABLES)
def test_csv_and_json_hold_the_same_rows(tmp_path, capsys, name):
    lines = _table_out(tmp_path, capsys, name, "csv").splitlines()
    records = json.loads(_table_out(tmp_path, capsys, name, "json"))
    if name.endswith("-k"):   # one order: the CSV is its bare expression or value
        (line,), (record,) = lines, records
        assert _same_cell(line, record.get("expression", record.get("value")))
        return
    header, *rows = (line.split(",") for line in lines)
    keys = [{"A_k": "value"}.get(column, column) for column in header]
    assert len(rows) == len(records)
    for row, record in zip(rows, records):
        assert sorted(record) == sorted(keys)
        for key, cell in zip(keys, row):
            assert _same_cell(cell, record[key]), (key, cell, record[key])


def test_kdv_text_and_json_hold_the_same_run(tmp_path, capsys):
    path = write_problem(tmp_path, "cosine.json", COSINE)
    args = ["kdv", "--problem", path, "--flow", "2", "--s-end", "0.1", "--grid", "64"]
    lines = run_cli(args, capsys)[1].splitlines()
    obj = json.loads(run_cli(args + ["--format", "json"], capsys)[1])
    notes = dict(line[2:].split(" = ") for line in lines if line.startswith("# "))
    header, *rows = (line.split(",") for line in lines if not line.startswith("#"))
    assert header == ["s", "A2", "A3", "A4", "A5"]
    columns = [obj["s"]] + [obj["series"][name] for name in header[1:]]
    for i, column in enumerate(columns):
        assert len(column) == len(rows)
        assert all(map(_same_cell, (row[i] for row in rows), column))
    for name in header[1:]:
        assert _same_cell(notes.pop(f"drift {name}"), obj["drifts"][name])
    assert _same_cell(notes.pop("max_drift"), obj["max_drift"])
    assert sorted(obj) == sorted([*notes, "s", "series", "drifts", "max_drift"])
    assert all(obj[key] == value for key, value in notes.items())


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


@pytest.mark.parametrize("workers", [1, 2])
def test_verify_bytes(workers, monkeypatch, capsys):
    # the same bytes in process and through the pool (two workers even on
    # one CPU)
    monkeypatch.setattr(acceptance, "_worker_count", lambda jobs: min(jobs, workers))
    code, out, err = run_cli(["verify"], capsys)
    assert code == 4
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a403506f1abb254b871e58a3037b689144e803a5bc16fcba1df2151a1df273d7")
    assert err == ('{"error": "verification", "exit": 4, "reason": '
                   '"1 of 10 checks failed: perturbative-scaling"}\n')


def test_verify_reports_a_worker_that_raises(monkeypatch, capsys):
    def blow_up(*args, **kwargs):
        raise ResolutionError("flow blew up", suggestion={"steps": 4})

    monkeypatch.setattr(acceptance, "integrate_flow", blow_up)
    monkeypatch.setattr(acceptance, "_worker_count", lambda jobs: 2)
    code, out, err = run_cli(["verify", "--only", "conservation-involution"], capsys)
    assert code == 4
    expected = acceptance.run_check("conservation-involution")
    assert expected.detail == "raised ResolutionError: flow blew up"
    assert out == f"FAIL conservation-involution: {expected.detail}\n"
    assert len(err.splitlines()) == 1 and json.loads(err)["exit"] == 4
    assert multiprocessing.active_children() == []


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

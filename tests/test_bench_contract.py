"""What the benchmark under ``bench/`` calls in the program, at its smoke
sizes: the references its gates compare against, its symbolic operations
and the functions its tracer wraps.  A change to the program that breaks
one of these calls fails here, not only when the benchmark runs."""

import importlib
import math
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    modules = {name: importlib.import_module(name)
               for name in ("checks", "child", "inputs", "run", "tracer")}
    modules["problems"] = modules["inputs"].write_problems(7, tmp_path)
    return modules


def test_references_run_through_the_memo(bench):
    size = bench["run"].SIZES["smoke"]
    refs = bench["checks"].References(bench["problems"], size)
    memo_calls = []
    memoised = refs._memoised
    refs._memoised = lambda *args: memo_calls.append(args) or memoised(*args)
    # only the trace rows read A_k (through perturb.global_invariant, which
    # is swapped for the memo); the Hill determinant of the matrix rows
    # reads none
    sweeps = {
        "det_matrix": lambda: refs.det_matrix(size["det_matrix_lams"][:2]),
        "det_scalar": lambda: refs.det_scalar(size["det_scalar_lams"][:2]),
        "trace": lambda: refs.trace(size["trace_ts"][:2]),
        "zeta": lambda: refs.zeta(size["zeta_ss"][:2], bench["inputs"].ZETA_LAM),
    }
    for name, sweep in sweeps.items():
        before = len(memo_calls)
        rows = sweep()
        assert len(rows) == 2, name
        assert all(math.isfinite(v) for row in rows for v in row), name
        assert (len(memo_calls) > before) == (name == "trace"), name


def test_symbolic_operations_run(bench):
    job = {"sizes": bench["run"].SIZES["smoke"]["symbolic"], "problems": bench["problems"]}
    ops = bench["child"].run_symbolic(job)
    assert ops and [op["name"] for op in ops if op["error"] is not None] == []


def test_tracer_targets_resolve(bench):
    missing = [f"{module}.{name}" for module, names in bench["tracer"].TARGETS.items()
               for name in names if not hasattr(importlib.import_module(module), name)]
    assert missing == []

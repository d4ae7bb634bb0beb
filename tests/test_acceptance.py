"""End-to-end acceptance gate: one test per advertised guarantee.

Each test prints a PASS/FAIL line with the measured numbers (run pytest with
``-rA`` or ``-s`` to see the lines for passing criteria too).

Known red: ``perturbative-scaling`` demands a cubic error law that a
zero-mean cosine perturbation cannot produce -- its expansions are even in
the amplitude, so the leading neglected term is quartic.  Both halves
measure slope 4.00: the heat trace against ``omega_exact2``, and the Hill
determinant's relative part against ``gamma``.  The check asserts the
requirement as stated instead of weakening it; the analysis lives in the
repository notes.
"""

import concurrent.futures
import dataclasses
import json
import multiprocessing

import pytest

from heatkern import acceptance
from heatkern.acceptance import CHECK_NAMES, run_check

# Summary lines pinned byte for byte: speed-ups of the hp eigenvalues and of
# the flow integrator must leave what these checks measure unchanged.
PINNED_DETAIL = {
    "small-t-asymptotics": (
        "residual of the 6-term series: slope 6.9953 (need 7 +- 0.3), "
        "range 2.61e-24..2.55e-10"),
    "conservation-involution": (
        "flow-2 drift A2..A5: 8.32e-12; cross-drifts I_m under flows 1/2/3: "
        "1.58e-14/5.13e-12/2.84e-11 (tol 1e-6); halving ratios 16.1..17.8 "
        "(need ~16)"),
}


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_acceptance_criterion(name):
    result = run_check(name)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"
    if name in PINNED_DETAIL:
        assert result.detail == PINNED_DETAIL[name]


def test_small_t_asymptotics_solves_its_hp_spectrum_once(monkeypatch):
    # its nine heat times read one 50-digit spectrum cached on the truncation
    import heatkern.oracle as oracle

    calls = []
    solve = oracle.eigenvalues_hp
    monkeypatch.setattr(oracle, "eigenvalues_hp",
                        lambda *args: calls.append(args) or solve(*args))
    assert run_check("small-t-asymptotics").passed
    assert len(calls) == 1


def test_perturbative_scaling_needs_no_period_map(monkeypatch):
    # gamma is measured on the Hill determinant's relative part, so both
    # halves read the eps^4 law; the period map is never reached
    import heatkern.oracle as oracle

    def refuse(*args):
        raise AssertionError("perturbative-scaling called the period map")

    monkeypatch.setattr(oracle, "floquet_log_det", refuse)
    result = run_check("perturbative-scaling")
    assert not result.passed
    assert result.detail == (
        "error slopes: Omega 4.0002, gamma 4.00 (need 3 +- 0.3 both; "
        "expansions in 2 eps cos are even in eps, so the true law of both "
        "is eps^4)")


# short flow runs keep the tests of run_all fast
SHORT_FLOW_RUNS = (
    (2, 0.1, 200, 64, 5, ("A2", "A3", "A4", "A5", "I1", "I2", "I3")),
    (1, 0.1, 8, 64, 3, ("I1", "I2", "I3")),
    (3, 0.001, 100, 32, 3, ("I1", "I2", "I3")),
    (2, 0.1, 50, 32, 5, ("A2", "A3", "A4")),
    (2, 0.1, 100, 32, 5, ("A2", "A3", "A4")))


def test_pool_gives_the_results_of_run_check(monkeypatch):
    # two workers put the pool route under test on a one-CPU machine too
    monkeypatch.setattr(acceptance, "_FLOW_RUNS", SHORT_FLOW_RUNS)
    monkeypatch.setattr(acceptance, "_worker_count", lambda jobs: 2)
    pools = []

    class RecordedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
    names = ["determinant-benchmark", "perturbative-scaling", "conservation-involution"]
    pooled = acceptance.run_all(names)
    assert len(pools) == 1
    assert pooled == [run_check(name) for name in names]
    assert [result.passed for result in pooled[:2]] == [True, False]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2], ids=["in-process", "pool"])
def test_results_hold_plain_json_values(monkeypatch, workers):
    # a check that returns a numpy bool must still report a real bool
    monkeypatch.setattr(acceptance, "_FLOW_RUNS", SHORT_FLOW_RUNS)
    monkeypatch.setattr(acceptance, "_worker_count", lambda jobs: workers)
    results = acceptance.run_all()
    assert [result.name for result in results] == list(CHECK_NAMES)
    for result in results:
        assert type(result.passed) is bool, result.name
        json.dumps(dataclasses.asdict(result))
    assert multiprocessing.active_children() == []

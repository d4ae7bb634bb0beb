"""One fresh interpreter of the benchmark: import the CLI, run a job, report.

Run as ``python3 bench/child.py JOB.json`` with ``src`` on ``PYTHONPATH``;
``run.py`` starts it.  The first thing it does is ``import heatkern.cli``
and take a CLOCK_MONOTONIC stamp, so that the parent can compute set-up
time from its own spawn stamp.  The job file says what to run:

* ``import``: nothing more (set-up samples; one of them also reports
  provenance);
* ``cli``: ``heatkern.cli.main(argv)`` for each entry of ``commands``;
* ``symbolic``: the exact-algebra operations (command ⑤ of the
  ``spectral`` workload).

Results (timings, exit codes, values for checking, peak RSS, spans) go to
the job's ``result`` path as JSON.
"""

import time

import heatkern.cli

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import sys  # noqa: E402

MODULES = len(sys.modules)

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def _timed(fn) -> tuple[object, float, str | None]:
    """(value, seconds, error); an operation that raises is timed up to the
    raise and reported as failed."""
    start = time.perf_counter()
    try:
        value, error = fn(), None
    except Exception as exc:  # run.py counts it as a failed operation
        value, error = None, f"{type(exc).__name__}: {exc}"
    return value, time.perf_counter() - start, error


def run_cli(job) -> list[dict]:
    ops = []
    for command in job["commands"]:
        code, seconds, error = _timed(lambda: heatkern.cli.main(command["argv"]))
        ops.append({"name": command["name"], "exit": code, "seconds": seconds,
                    "error": error})
    return ops


def _digest(poly) -> str:
    return hashlib.sha256(repr(poly).encode()).hexdigest()


def run_symbolic(job) -> list[dict]:
    from heatkern.cli import load_problem
    from heatkern.diffpoly import commutative_image
    from heatkern.heatcoeffs import (
        diagonal_coefficient_recursive,
        global_invariant,
        taylor_coefficient,
    )

    sizes = job["sizes"]
    scalar = load_problem(job["problems"]["sym_scalar"])
    matrix = load_problem(job["problems"]["sym_matrix"])
    steps = []
    for k in range(sizes["taylor"] + 1):
        steps.append((f"taylor:{k}", lambda k=k: _digest(taylor_coefficient(k, 0))))
    for k in range(sizes["recursive_scalar"] + 1):
        steps.append((f"recursive_scalar:{k}", lambda k=k: _digest(
            diagonal_coefficient_recursive(k, scalar=True))))
    for k in range(sizes["recursive_matrix"] + 1):
        steps.append((f"recursive_matrix:{k}", lambda k=k: _digest(
            diagonal_coefficient_recursive(k))))
    for k in range(sizes["cross_matrix"] + 1):
        steps.append((f"cross_matrix:{k}", lambda k=k: (
            diagonal_coefficient_recursive(k) == taylor_coefficient(k, 0))))
    for k in range(sizes["cross_scalar"] + 1):
        steps.append((f"cross_scalar:{k}", lambda k=k: (
            diagonal_coefficient_recursive(k, scalar=True)
            == commutative_image(taylor_coefficient(k, 0)))))
    for k in range(sizes["invariant_scalar"] + 1):
        steps.append((f"invariant_scalar:{k}",
                      lambda k=k: global_invariant(k, scalar.Q).value))
    for k in range(sizes["invariant_matrix"] + 1):
        steps.append((f"invariant_matrix:{k}",
                      lambda k=k: global_invariant(k, matrix.Q).value))
    ops = []
    for name, fn in steps:
        value, seconds, error = _timed(fn)
        ops.append({"name": name, "value": value, "seconds": seconds, "error": error})
    return ops


def main() -> None:
    job = json.loads(Path(sys.argv[1]).read_text())
    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = {"ready": READY, "modules": MODULES}
    if job.get("provenance"):
        from provenance import runtime_provenance

        out["provenance"] = runtime_provenance()
    start = time.perf_counter()
    if job["kind"] == "cli":
        out["ops"] = run_cli(job)
    elif job["kind"] == "symbolic":
        out["ops"] = run_symbolic(job)
    else:
        out["ops"] = []
    out["run_s"] = time.perf_counter() - start
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        from tracer import summarize

        out["layers"] = summarize(tracer.spans, tracer.counts)
        out["spans"] = tracer.spans
        out["missing"] = tracer.missing
    Path(job["result"]).write_text(json.dumps(out))


if __name__ == "__main__":
    main()

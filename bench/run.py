"""heatkern benchmark runner.

    python3 bench/run.py --workload {spectral,verify} --seed N \
        --seconds S --trace {0,1} [--size {full,smoke}]

Every operation runs in a fresh interpreter (``bench/child.py``) started
from this process one at a time, because that is what a command-line user
pays for: import cost, empty Taylor and recursion caches, a fresh
eigensolve.  The program keeps its default threads; the benchmark sets
neither ``HEATKERN_THREADS`` nor the BLAS thread count.

A run first starts ``SETUP_STARTS`` import-only interpreters (set-up
samples, which also warm the byte-code and file caches).  It then starts
another iteration of the workload while at least half of one (the median
so far) fits in ``--seconds``, so that a run measures ``--seconds`` on
average; there is at least one iteration, and with ``--trace 1`` untraced
and traced iterations alternate, at least one of each.  Last, it checks
every output against references computed outside the timed section.  The
last line of stdout is the JSON result; lines before it, starting with
``#``, repeat every metric by name and unit for a human reader, with
provenance.
Spans and the full record are written under ``.bench_work/``.

Exit status 0 means the run completed (its ``correct`` field says whether
every output passed); 2 means the benchmark could not run at all (no
``src/heatkern`` to measure, bad arguments), with no result printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
from provenance import machine_provenance  # noqa: E402
from tracer import combine  # noqa: E402

SETUP_STARTS = 4
CHILD_TIMEOUT = 170.0

SIZES = {
    "full": {
        "det_matrix_nmax": 400, "det_scalar_nmax": 1000,
        "trace_nmax": 400, "zeta_nmax": 1000,
        "ref_matrix_nmax": 300, "ref_zeta_nmax": 600,
        "det_matrix_lams": inputs.DET_MATRIX_LAMS,
        "det_scalar_lams": inputs.DET_SCALAR_LAMS,
        "trace_ts": inputs.TRACE_TS, "zeta_ss": inputs.ZETA_SS,
        "symbolic": {"taylor": 10, "recursive_scalar": 12, "recursive_matrix": 8,
                     "cross_matrix": 8, "cross_scalar": 10,
                     "invariant_scalar": 10, "invariant_matrix": 8},
        "verify_only": None,
    },
    # tiny sizes for the self-test: seconds per run, same code paths
    "smoke": {
        "det_matrix_nmax": 48, "det_scalar_nmax": 60,
        "trace_nmax": 48, "zeta_nmax": 60,
        "ref_matrix_nmax": 40, "ref_zeta_nmax": 45,
        "det_matrix_lams": (-1.0, -2.0, -5.0),
        "det_scalar_lams": (-1.0, -2.0, -5.0),
        "trace_ts": (0.03, 0.05, 0.08), "zeta_ss": (1.5, 2.0, 2.5),
        "symbolic": {"taylor": 4, "recursive_scalar": 4, "recursive_matrix": 3,
                     "cross_matrix": 3, "cross_scalar": 4,
                     "invariant_scalar": 4, "invariant_matrix": 3},
        "verify_only": "determinant-benchmark",
    },
}

# the spectral workload's commands ① to ④: metric name, command key
SPECTRAL = (
    ("det_matrix_s", "det_matrix"),
    ("det_scalar_s", "det_scalar"),
    ("trace_s", "trace"),
    ("zeta_s", "zeta"),
)


def _grid(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def spectral_argv(key: str, problems: dict, size: dict, output: str) -> list[str]:
    if key == "det_matrix":
        args = ["det", "--problem", problems["matrix"], "--n-max",
                str(size["det_matrix_nmax"]), "--lam-grid=" + _grid(size["det_matrix_lams"])]
    elif key == "det_scalar":
        args = ["det", "--problem", problems["scalar_even"], "--n-max",
                str(size["det_scalar_nmax"]), "--lam-grid=" + _grid(size["det_scalar_lams"])]
    elif key == "trace":
        args = ["trace", "--problem", problems["matrix"], "--n-max",
                str(size["trace_nmax"]), "--t-grid", _grid(size["trace_ts"])]
    else:
        args = ["zeta", "--problem", problems["scalar_even"], "--n-max",
                str(size["zeta_nmax"]), "--s-grid", _grid(size["zeta_ss"]),
                f"--lam={inputs.ZETA_LAM!r}"]
    return args + ["--output", output]


class Run:
    """State of one benchmark run: children started, samples, failures."""

    def __init__(self, args):
        self.args = args
        self.size = SIZES[args.size]
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
        self.dir = WORK / tag
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        self.problems = inputs.write_problems(args.seed, self.dir / "problems")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src") + (
            os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.children = 0
        self.setup = []          # seconds from spawn to `import heatkern.cli` returned
        self.rss_kb = []
        self.modules = []
        self.provenance = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.iterations: list[dict] = []
        self.invariant_refs: dict[tuple[str, str], float] = {}

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print(f"# FAILED {what}", file=sys.stderr)

    def spawn(self, job: dict) -> dict | None:
        """Start one child interpreter, wait for it, return its result."""
        self.children += 1
        stem = self.dir / f"child{self.children:03d}"
        job = dict(job, result=str(stem) + ".result.json")
        Path(str(stem) + ".job.json").write_text(json.dumps(job))
        with open(str(stem) + ".log", "w") as log:
            spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
            try:
                subprocess.run([sys.executable, str(BENCH / "child.py"),
                                str(stem) + ".job.json"], env=self.env, cwd=str(ROOT),
                               stdin=subprocess.DEVNULL, stdout=log, stderr=log,
                               timeout=CHILD_TIMEOUT, check=False)
            except subprocess.TimeoutExpired:
                return None
        try:
            result = json.loads(Path(job["result"]).read_text())
        except (OSError, ValueError):
            return None
        self.setup.append(result["ready"] - spawned)
        self.rss_kb.append(result["rss_kb"])
        self.modules.append(result["modules"])
        return result

    def setup_samples(self) -> None:
        for i in range(SETUP_STARTS):
            self.attempted += 1
            result = self.spawn({"kind": "import", "provenance": i == 0})
            if result is None:
                self.fail(f"import-only start {i} produced no result")
            elif i == 0:
                self.provenance = result.get("provenance", {})

    # -- one iteration of each workload -------------------------------------

    def _keep_trace(self, it: dict, result: dict | None) -> None:
        if result is not None and it["traced"]:
            it["layers"].append(result.get("layers", {}))
            it["spans"].append(result.get("spans", []))

    def _cli(self, it: dict, name: str, argv: list[str], output: str) -> None:
        """One CLI command in its own interpreter, recorded as operation
        ``name`` of iteration ``it``."""
        result = self.spawn({"kind": "cli", "trace": it["traced"],
                             "commands": [{"name": name, "argv": argv}]})
        op = (result or {}).get("ops", [{}])[0]
        it["ops"][name] = dict(op, output=output, no_result=result is None)
        self._keep_trace(it, result)

    def iterate_spectral(self, it: dict) -> None:
        for _metric, key in SPECTRAL:
            output = str(self.dir / f"it{len(self.iterations)}-{key}.csv")
            self._cli(it, key, spectral_argv(key, self.problems, self.size, output), output)
        self.iterate_symbolic(it)

    def iterate_verify(self, it: dict) -> None:
        output = str(self.dir / f"it{len(self.iterations)}-verify.txt")
        argv = ["verify", "--output", output]
        if self.size["verify_only"]:
            argv += ["--only", self.size["verify_only"]]
        self._cli(it, "verify", argv, output)

    def iterate_symbolic(self, it: dict) -> None:
        """Command ⑤: the exact [a_k] algebra in one interpreter; its
        operations are named ``<step>:<k>``."""
        result = self.spawn({"kind": "symbolic", "trace": it["traced"],
                             "problems": self.problems, "sizes": self.size["symbolic"]})
        if result is None:
            it["ops"]["symbolic"] = {"no_result": True}
            return
        for op in result["ops"]:
            it["ops"][op["name"]] = op
        self._keep_trace(it, result)

    def measure(self) -> None:
        iterate = getattr(self, "iterate_" + self.args.workload)
        started = time.perf_counter()
        walls = []
        while True:
            n = len(self.iterations)
            it = {"traced": bool(self.args.trace) and n % 2 == 1,
                  "ops": {}, "layers": [], "spans": []}
            t0 = time.perf_counter()
            iterate(it)
            self.iterations.append(it)
            walls.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - started
            # with tracing, at least one untraced and one traced iteration
            if n == 0 and self.args.trace:
                continue
            # another iteration while half of one fits: a run measures
            # --seconds on average instead of up to one iteration less
            if elapsed + statistics.median(walls) / 2 > self.args.seconds:
                break

    # -- correctness ----------------------------------------------------------

    def check(self) -> dict[str, float]:
        """Gate every operation; return the worst error per reference."""
        sys.path.insert(0, str(ROOT / "src"))
        worst: dict[str, float] = {}
        refs = None
        if self.args.workload == "spectral":
            refs = checks.References(self.problems, self.size)
        for n, it in enumerate(self.iterations):
            for name, op in it["ops"].items():
                self.attempted += 1
                try:
                    ok, errors, detail = self._check_op(name, op, refs)
                except Exception as exc:  # a malformed output is a failed operation
                    ok, errors, detail = False, {}, f"{type(exc).__name__}: {exc}"
                for key, value in errors.items():
                    worst[key] = max(worst.get(key, 0.0), value)
                if not ok:
                    self.fail(f"iteration {n} {name}: {detail}")
        return worst

    def _check_op(self, name, op, refs):
        if op.get("no_result"):
            return False, {}, "child interpreter produced no result"
        if op.get("error"):
            return False, {}, op["error"]
        if ":" in name:
            return self._check_symbolic(name, op)
        text = Path(op["output"]).read_text()
        op["sha256"] = hashlib.sha256(text.encode()).hexdigest()
        if self.args.workload == "verify":
            ok, _, detail = checks.check_verify(op["exit"], text, self.size["verify_only"])
            return ok, {}, detail
        if op["exit"] != 0:
            return False, {}, f"exit code {op['exit']}"
        size = self.size
        if name == "det_matrix":
            ok, err, detail = checks.check_det_matrix(text, size["det_matrix_lams"], refs)
            return ok, {"check.det_matrix_rel_err": err}, detail
        if name == "det_scalar":
            ok, err, detail = checks.check_det_scalar(text, size["det_scalar_lams"], refs)
            return ok, {"check.det_scalar_rel_err": err}, detail
        if name == "trace":
            ok, err, detail, series = checks.check_trace(text, size["trace_ts"], refs)
            return ok, {"check.trace_rel_err": err, "check.trace_series_rel_err": series}, detail
        ok, err, detail = checks.check_zeta(text, size["zeta_ss"], inputs.ZETA_LAM, refs)
        return ok, {"check.zeta_rel_err": err}, detail

    def _check_symbolic(self, name, op):
        kind, _, k = name.partition(":")
        if kind in ("taylor", "recursive_scalar", "recursive_matrix"):
            return isinstance(op["value"], str), {}, "digest"
        if kind in ("cross_matrix", "cross_scalar"):
            return op["value"] is True, {}, "routes differ" if op["value"] is not True else "ok"
        from heatkern.cli import load_problem

        which = "scalar" if kind == "invariant_scalar" else "matrix"
        if (which, k) not in self.invariant_refs:
            problem = load_problem(self.problems["sym_" + which])
            self.invariant_refs[(which, k)] = checks.invariant_reference(which, int(k), problem)
        ok, err, detail = checks.check_invariant(op["value"], self.invariant_refs[(which, k)])
        return ok, {"check.invariant_rel_err": err}, detail

    # -- metrics ----------------------------------------------------------------

    def op_seconds(self, it) -> float | None:
        times = [op.get("seconds") for op in it["ops"].values()]
        if not times or any(t is None for t in times):
            return None
        return math.fsum(times)

    def metrics(self, worst: dict[str, float]) -> dict[str, float]:
        plain = [it for it in self.iterations if not it["traced"]]
        traced = [it for it in self.iterations if it["traced"]]
        run_plain = [s for s in map(self.op_seconds, plain) if s is not None]
        values = {
            "setup_s": statistics.median(self.setup) if self.setup else None,
            "run_s": statistics.median(run_plain) if run_plain else None,
            "peak_rss_mb": max(self.rss_kb) / 1024.0 if self.rss_kb else None,
            "fail_ratio": len(self.failures) / self.attempted,
            "cli.imported_modules": statistics.median(self.modules) if self.modules else None,
        }
        for metric, key in SPECTRAL:
            secs = [it["ops"][key]["seconds"] for it in plain
                    if key in it["ops"] and it["ops"][key]["seconds"] is not None]
            values[metric] = statistics.median(secs) if secs else 0.0
        secs = [math.fsum(op["seconds"] for name, op in it["ops"].items() if ":" in name)
                for it in plain if any(":" in name for name in it["ops"])]
        values["symbolic_s"] = statistics.median(secs) if secs else 0.0
        if traced:
            layer_runs = [combine(it["layers"]) for it in traced]
            keys = set().union(*layer_runs)
            for key in keys:
                values[key] = statistics.median(run.get(key, 0.0) for run in layer_runs)
            run_traced = [s for s in map(self.op_seconds, traced) if s is not None]
            if run_traced and run_plain:
                values["trace.run_s"] = statistics.median(run_traced)
                values["trace.overhead_s"] = values["trace.run_s"] - values["run_s"]
        values.update(worst)
        return values

    def write_spans(self) -> None:
        spans = [{"iteration": n, "interpreter": i, "spans": spans}
                 for n, it in enumerate(self.iterations) if it["traced"]
                 for i, spans in enumerate(it["spans"])]
        if spans:
            (self.dir / "spans.json").write_text(json.dumps(
                {"fields": ["id", "name", "start", "end", "parent", "thread"],
                 "interpreters": spans}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("spectral", "verify"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=tuple(SIZES))
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running child interpreter before this process exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "heatkern" / "__init__.py").is_file():
        print("bench: no src/heatkern next to the benchmark; nothing to measure",
              file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    run = Run(args)
    phases = [time.perf_counter()]
    run.setup_samples()
    phases.append(time.perf_counter())
    run.measure()
    phases.append(time.perf_counter())
    worst = run.check()
    phases.append(time.perf_counter())
    values = run.metrics(worst)
    run.write_spans()

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, missing = {}, []
    for entry in wanted:
        value = values.get(entry["name"], 0.0 if args.trace else None)
        if value is None:
            missing.append(entry["name"])
            continue
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    if missing:
        print(f"bench: no measurement for {', '.join(missing)}; every operation failed?",
              file=sys.stderr)
        return 1

    prov = dict(machine_provenance(ROOT, args.seed), **run.provenance)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "provenance": prov,
              "phase_s": dict(zip(("setup", "measure", "check"),
                                  (end - start for start, end in zip(phases, phases[1:])))),
              "iterations": len(run.iterations), "setup_samples": run.setup,
              "iteration_run_s": [{"traced": it["traced"], "run_s": run.op_seconds(it)}
                                  for it in run.iterations],
              "values": values, "failures": run.failures,
              "outputs": [{name: op.get("sha256") for name, op in it["ops"].items()
                           if "sha256" in op} for it in run.iterations]}
    (run.dir / "record.json").write_text(json.dumps(record, indent=1, default=str))

    print("# provenance " + json.dumps(prov, sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(run.iterations)} iterations, {len(run.setup)} interpreter starts, "
          f"{run.attempted} operations, {len(run.failures)} failed")
    for entry in spec["end_to_end"] + spec["per_layer"]:
        if entry["name"] in values and values[entry["name"]] is not None:
            print(f"# {entry['name']} = {values[entry['name']]:.6g} {entry['unit']}")
    for op in (record["outputs"][0] if record["outputs"] else {}).items():
        print(f"# sha256 {op[0]} {op[1]}")
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": len(run.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

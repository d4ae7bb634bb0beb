"""Self-test of the benchmark harness; takes about a minute.

    python3 bench/selftest.py

1. Checks ``BENCHMARK.json`` against the benchmark's file contract (keys,
   name and unit syntax, bounds, the ``setup_s`` metric).
2. Runs every workload at ``--size smoke`` with ``--trace 0`` and
   ``--trace 1`` and checks the last output line: exactly the keys
   ``correct``, ``attempted``, ``failed``, ``metrics``; every operation
   correct; and exactly the end-to-end (resp. per-layer) metric names with
   their units and finite values.
3. Copies only ``BENCHMARK.json`` and the benchmark's directories to an
   empty directory and checks that the benchmark refuses to run there:
   nonzero exit, no result line.

Exits 0 when all of it holds and prints each problem otherwise.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check_spec(spec: dict) -> list[str]:
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    if not (1 <= len(spec["paths"]) <= 16) or not all(
            PATH.match(p) and not p.startswith("/") and ".." not in p.split("/")
            for p in spec["paths"]):
        problems.append("paths malformed")
    if not (isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number in 1..60")
    if not (2 <= len(spec["workloads"]) <= 8):
        problems.append("need 2..8 workloads")
    names = []
    for w in spec["workloads"]:
        names.append(w["name"])
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload {w['name']}: malformed")
    for group, fields, low, high in (("end_to_end", {"name", "unit", "better", "bound"}, 1, 16),
                                     ("per_layer", {"name", "unit", "better"}, 1, 128)):
        entries = spec[group]
        if not (low <= len(entries) <= high):
            problems.append(f"{group}: {len(entries)} entries")
        for m in entries:
            names.append(m["name"])
            if set(m) != fields or not UNIT.match(m["unit"]) or m["better"] not in (
                    "lower", "higher"):
                problems.append(f"{group} {m['name']}: malformed")
            if "bound" in m and not (0 < m["bound"] <= 0.25):
                problems.append(f"{m['name']}: bound outside (0, 0.25]")
    for name in names:
        if not NAME.match(name):
            problems.append(f"bad name {name!r}")
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s (unit s, lower is better) missing")
    elif setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s should carry the largest bound")
    if len(json.dumps(spec)) > 64 * 1024:
        problems.append("BENCHMARK.json larger than 64 KiB")
    return problems


def check_result(line: str, expected: list[dict]) -> list[str]:
    try:
        result = json.loads(line)
    except ValueError:
        return [f"last line is not JSON: {line[:120]!r}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(result)}"]
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"correct={result['correct']} failed={result['failed']}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted={result['attempted']!r}")
    want = {m["name"]: m["unit"] for m in expected}
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(f"metric names differ: missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}")
    for name, entry in got.items():
        value = entry.get("value")
        if entry.get("unit") != want.get(name) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"metric {name}: {entry}")
    return problems


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    argv = [sys.executable if c == "python3" else c for c in command]
    return subprocess.run(argv + ["--workload", workload, "--seed", "7", "--seconds", "1",
                                  "--trace", str(trace), "--size", "smoke"],
                          cwd=str(cwd), capture_output=True, text=True, timeout=600)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_spec(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            done = run_bench(ROOT, workload, trace)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append(f"{workload} trace {trace}: exit {done.returncode}, "
                                f"stderr {done.stderr[-400:]!r}")
                continue
            problems += [f"{workload} trace {trace}: {p}"
                         for p in check_result(lines[-1], spec[group])]
            print(f"ran {workload} trace {trace}", flush=True)
    bare = ROOT / ".bench_work" / "selftest-bare"
    if bare.exists():
        shutil.rmtree(bare)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(bare, spec["workloads"][0]["name"], 0)
    if done.returncode == 0 or done.stdout.strip():
        problems.append(f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}")
    shutil.rmtree(bare)
    for problem in problems:
        print("PROBLEM " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

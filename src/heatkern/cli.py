"""Command-line front end.

Subcommands
-----------
``coeffs``
    Symbolic diagonal coefficients ``[a_k]`` (``--k 1`` prints ``Q``).
``invariants``
    Integrated invariants ``A_k`` of a problem file.
``trace``
    Heat-trace table over a t-grid: oracle vs second-order vs resummed.
``det``
    Log-determinant table over a lambda-grid: oracle vs Weyl vs correction.
``zeta``
    Spectral zeta values over an s-grid at fixed lambda.
``kdv``
    Hierarchy flow run with a conservation report.
``verify``
    The acceptance suite; one PASS/FAIL line per named check.

Conventions
-----------
* Problem files are JSON, schema ``{"a": ..., "N": ..., "modes": [...]}``.
  A name that does not exist on disk is looked up among the bundled
  problems (``free_a1_N1.json``, ``constant_a1_N1.json``); the free one is
  the default.
* Floats in text and CSV output are printed with ``%.17g`` so identical
  configurations produce byte-identical artifacts; JSON output relies on
  Python's exact round-trip float form.
* Exit codes: 0 success, 2 configuration error, 3 numeric-resolution
  refusal, 4 verification failure.  Every nonzero exit writes exactly one
  JSON line to stderr with the machine-readable reason.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .acceptance import CHECK_NAMES, run_all
from .errors import AliasingError, ResolutionError
from .heatcoeffs import global_invariant, taylor_coefficient
from .kdvflow import (
    conservation_report,
    gradient_rescale,
    integrate_flow,
    invariant_rescale,
    suggested_steps,
)
from .oracle import SpectralProblem, eigendata, zeta
from .perturb import det_comparison_rows, trace_comparison_rows

DEFAULT_PROBLEM = "free_a1_N1.json"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Validated bundle of one subcommand invocation."""

    command: str
    problem: str = DEFAULT_PROBLEM
    k: int | None = None
    upto: int | None = None
    t_grid: tuple[float, ...] = ()
    lam_grid: tuple[float, ...] = ()
    s_grid: tuple[float, ...] = ()
    lam: float = -1.0
    n_max: int = 64
    order: int = 6
    flow: int = 2
    grid: int = 256
    s_end: float = 1.0
    steps: int | None = None
    record: int = 33
    invariants: tuple[str, ...] = ("A2", "A3", "A4", "A5")
    only: str | None = None
    check_tol: float | None = None
    fmt: str = "csv"
    output: str | None = None

    def __post_init__(self):
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"output format must be csv or json, not {self.fmt!r}")
        for name in ("t_grid", "lam_grid", "s_grid"):
            if any(not math.isfinite(v) for v in getattr(self, name)):
                raise ValueError(f"{name.replace('_', '-')} entries must be finite")
        if any(t <= 0.0 for t in self.t_grid):
            raise ValueError("t-grid entries must be positive")
        needed = {"trace": "t_grid", "det": "lam_grid", "zeta": "s_grid"}.get(self.command)
        if needed is not None and not getattr(self, needed):
            raise ValueError(f"{self.command} needs a nonempty {needed.replace('_', '-')}")
        for name, low in (("k", 0), ("upto", 0), ("steps", 1)):
            value = getattr(self, name)
            if value is not None and value < low:
                raise ValueError(f"--{name} must be >= {low}")
        if self.n_max < 1 or self.order < 0 or self.flow < 1 or self.record < 2:
            raise ValueError("n-max, order, flow and record are out of range")
        if not math.isfinite(self.lam):
            raise ValueError("--lam must be finite")
        if not (math.isfinite(self.s_end) and self.s_end > 0.0):
            raise ValueError("--s-end must be positive and finite")
        if self.command == "kdv" and not self.invariants:
            raise ValueError("kdv needs at least one invariant name")
        if self.check_tol is not None and not self.check_tol > 0.0:
            raise ValueError("--check-tol must be positive")


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags through the one-line error channel."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="heatkern", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, text: str, fmt: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=text, description=text)
        if fmt:
            p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                           default="csv", help="table format (default csv)")
        p.add_argument("--output", default=None,
                       help="write to this file instead of stdout")
        return p

    p = add("coeffs", "print symbolic diagonal coefficients [a_k]")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--k", type=int, help="single order")
    g.add_argument("--upto", type=int, help="table of orders 0..K")

    p = add("invariants", "integrated invariants A_k of a problem")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--k", type=int, help="single order")
    g.add_argument("--upto", type=int, help="table of orders 0..K")
    p.add_argument("--problem", default=DEFAULT_PROBLEM)

    p = add("trace", "heat-trace comparison over a t-grid")
    p.add_argument("--problem", default=DEFAULT_PROBLEM)
    p.add_argument("--t-grid", dest="t_grid", required=True,
                   help="comma-separated positive times")
    p.add_argument("--n-max", dest="n_max", type=int, default=64,
                   help="eigenbasis cutoff for the oracle column")
    p.add_argument("--order", type=int, default=6,
                   help="resummation order (default 6)")
    p.add_argument("--check-tol", dest="check_tol", type=float, default=None,
                   help="fail (exit 4) if |resummed - oracle| exceeds this "
                        "relative tolerance anywhere on the grid")

    p = add("det", "log-determinant comparison over a lambda-grid")
    p.add_argument("--problem", default=DEFAULT_PROBLEM)
    p.add_argument("--lam-grid", dest="lam_grid", required=True,
                   help="comma-separated spectral shifts lambda")
    p.add_argument("--n-max", dest="n_max", type=int, default=64)

    p = add("zeta", "spectral zeta values over an s-grid")
    p.add_argument("--problem", default=DEFAULT_PROBLEM)
    p.add_argument("--s-grid", dest="s_grid", required=True,
                   help="comma-separated exponents s")
    p.add_argument("--lam", type=float, default=-1.0,
                   help="spectral shift, must lie below the spectrum")
    p.add_argument("--n-max", dest="n_max", type=int, default=64)

    p = add("kdv", "run a hierarchy flow and report conservation")
    p.add_argument("--problem", default=DEFAULT_PROBLEM)
    p.add_argument("--flow", type=int, required=True, help="hierarchy index k >= 1")
    p.add_argument("--s-end", dest="s_end", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=None,
                   help="time steps (default: stability heuristic)")
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--record", type=int, default=33,
                   help="number of snapshots kept (default 33)")
    p.add_argument("--invariants", default="A2,A3,A4,A5",
                   help='comma list of invariant names, e.g. "A2,I1"')

    p = add("verify", "run the acceptance suite", fmt=False)
    p.add_argument("--only", choices=CHECK_NAMES, default=None,
                   help="run a single named check")

    return parser


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(piece) for piece in text.split(","))
    except ValueError as exc:
        raise ValueError(f"{flag}: expected comma-separated floats, got {text!r}") from exc


def _parse(argv) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    kwargs: dict = {"command": ns.command}
    for name in ("problem", "k", "upto", "lam", "n_max", "order", "flow", "grid",
                 "s_end", "steps", "record", "only", "check_tol", "fmt", "output"):
        if getattr(ns, name, None) is not None:
            kwargs[name] = getattr(ns, name)
    for gname, flag in (("t_grid", "--t-grid"), ("lam_grid", "--lam-grid"),
                        ("s_grid", "--s-grid")):
        if getattr(ns, gname, None) is not None:
            kwargs[gname] = _parse_floats(getattr(ns, gname), flag)
    if getattr(ns, "invariants", None) is not None:
        kwargs["invariants"] = tuple(
            piece.strip() for piece in ns.invariants.split(",") if piece.strip()
        )
    return RunConfig(**kwargs)


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _fail(code: int, kind: str, reason: str, **extra) -> int:
    payload = {"error": kind, "exit": code, "reason": reason}
    payload.update(extra)
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    return code


def _emit(config: RunConfig, text: str) -> None:
    if config.output:
        Path(config.output).write_text(text)
    else:
        sys.stdout.write(text)


def load_problem(name: str) -> SpectralProblem:
    """Load a problem JSON from disk, falling back to the bundled set."""
    path = Path(name)
    if not path.exists():
        bundled = resources.files("heatkern").joinpath("problems", name)
        if not bundled.is_file():
            raise ValueError(f"problem file not found: {name}")
        path = Path(str(bundled))
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"problem file {name} is not valid JSON: {exc}") from exc
    return SpectralProblem.from_json_obj(obj)


def _rows_text(config: RunConfig, columns: tuple[str, ...], rows) -> str:
    if config.fmt == "json":
        records = [dict(zip(columns, (float(v) for v in row))) for row in rows]
        return json.dumps(records, indent=1, sort_keys=True) + "\n"
    head = ",".join(columns)
    body = "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    return head + "\n" + body


# ---------------------------------------------------------------------------
# symbolic rendering
# ---------------------------------------------------------------------------

_PRIMES = {0: "Q", 1: "Q'", 2: "Q''", 3: "Q'''"}


def _render_factor(d: int) -> str:
    return _PRIMES.get(d, f"Q^({d})")


def render_poly(poly) -> str:
    """Conventional one-line form of a symbolic coefficient.

    Words become primed products (``Q*Q``, ``Q''``), unit coefficients are
    dropped, and terms are ordered by word length then lexicographically,
    so ``[a_1]`` renders as ``Q`` and ``[a_2]`` as ``-1/3*Q'' + Q*Q``.
    """
    monos = sorted(poly.terms(), key=lambda m: (len(m.word), m.word))
    if not monos:
        return "0"
    pieces = []
    for mono in monos:
        magnitude = abs(mono.coeff)
        if not mono.word:
            text = str(magnitude)
        elif magnitude == 1:
            text = "*".join(_render_factor(d) for d in mono.word)
        else:
            text = f"{magnitude}*" + "*".join(_render_factor(d) for d in mono.word)
        pieces.append(("-" if mono.coeff < 0 else "+", text))
    sign, head = pieces[0]
    out = head if sign == "+" else "-" + head
    for sign, text in pieces[1:]:
        out += f" {sign} {text}"
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _orders(config: RunConfig) -> list[int]:
    if config.k is not None:
        return [config.k]
    return list(range(config.upto + 1))


def _cmd_coeffs(config: RunConfig) -> int:
    rows = [(k, render_poly(taylor_coefficient(k, 0))) for k in _orders(config)]
    if config.fmt == "json":
        text = json.dumps([{"k": k, "expression": e} for k, e in rows],
                          indent=1, sort_keys=True) + "\n"
    elif config.k is not None:
        text = rows[0][1] + "\n"
    else:
        text = "k,expression\n" + "".join(f"{k},{e}\n" for k, e in rows)
    _emit(config, text)
    return 0


def _cmd_invariants(config: RunConfig) -> int:
    problem = load_problem(config.problem)
    values = [global_invariant(k, problem.Q) for k in _orders(config)]
    if config.fmt == "json":
        text = json.dumps(
            [{"k": g.k, "value": g.value, "grid": g.grid} for g in values],
            indent=1, sort_keys=True) + "\n"
    elif config.k is not None:
        text = _fmt(values[0].value) + "\n"
    else:
        text = "k,A_k,grid\n" + "".join(
            f"{g.k},{_fmt(g.value)},{g.grid}\n" for g in values)
    _emit(config, text)
    return 0


def _cmd_trace(config: RunConfig) -> int:
    problem = load_problem(config.problem)
    eigen = eigendata(problem, config.n_max)
    rows = trace_comparison_rows(problem, eigen, config.t_grid, config.order)
    columns = ("t", "omega_oracle", "omega_order2", "omega_resummed")
    _emit(config, _rows_text(config, columns, rows))
    if config.check_tol is not None:
        worst = max(abs(r[3] - r[1]) / max(abs(r[1]), 1e-300) for r in rows)
        if worst > config.check_tol:
            return _fail(4, "verification",
                         f"resummed trace deviates from oracle by {worst:.3e} "
                         f"(allowed {config.check_tol:.3e})")
    return 0


def _cmd_det(config: RunConfig) -> int:
    problem = load_problem(config.problem)
    eigen = eigendata(problem, config.n_max)
    rows = det_comparison_rows(problem, eigen, config.lam_grid)
    columns = ("lam", "log_det_oracle", "weyl", "gamma")
    _emit(config, _rows_text(config, columns, rows))
    return 0


def _cmd_zeta(config: RunConfig) -> int:
    problem = load_problem(config.problem)
    eigen = eigendata(problem, config.n_max)
    rows = [(s, zeta(eigen, s, config.lam)) for s in config.s_grid]
    _emit(config, _rows_text(config, ("s", "zeta"), rows))
    return 0


def _cmd_kdv(config: RunConfig) -> int:
    problem = load_problem(config.problem)
    steps = config.steps
    if steps is None:
        steps = suggested_steps(config.flow, problem.Q, config.s_end, config.grid)
    trajectory = integrate_flow(config.flow, problem.Q, config.s_end, steps,
                                grid=config.grid, record=config.record)
    report = conservation_report(trajectory, list(config.invariants))
    meta = (
        ("flow_k", str(config.flow)),
        ("grid", str(report.grid)),
        ("steps", str(steps)),
        ("dt", _fmt(report.dt)),
        ("gradient_rescale", str(gradient_rescale(config.flow))),
        ("invariant_rescale", str(invariant_rescale(config.flow))),
    )
    names = list(config.invariants)
    if config.fmt == "json":
        obj = {key: value for key, value in meta}
        obj["s"] = [float(s) for s in report.s]
        obj["series"] = {name: [float(v) for v in report.series[name]]
                         for name in names}
        obj["drifts"] = {name: float(report.drifts[name]) for name in names}
        obj["max_drift"] = float(report.max_drift)
        text = json.dumps(obj, indent=1, sort_keys=True) + "\n"
    else:
        lines = [f"# {key} = {value}" for key, value in meta]
        lines.append("s," + ",".join(names))
        for i, s in enumerate(report.s):
            lines.append(",".join(
                [_fmt(s)] + [_fmt(report.series[name][i]) for name in names]))
        for name in names:
            lines.append(f"# drift {name} = {_fmt(report.drifts[name])}")
        lines.append(f"# max_drift = {_fmt(report.max_drift)}")
        text = "\n".join(lines) + "\n"
    _emit(config, text)
    return 0


def _cmd_verify(config: RunConfig) -> int:
    only = None if config.only is None else [config.only]
    results = run_all(only)
    lines = []
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        lines.append(f"{status} {result.name}: {result.detail}")
    _emit(config, "\n".join(lines) + "\n")
    failed = [result.name for result in results if not result.passed]
    if failed:
        return _fail(4, "verification",
                     f"{len(failed)} of {len(results)} checks failed: "
                     + ",".join(failed))
    return 0


_HANDLERS = {
    "coeffs": _cmd_coeffs,
    "invariants": _cmd_invariants,
    "trace": _cmd_trace,
    "det": _cmd_det,
    "zeta": _cmd_zeta,
    "kdv": _cmd_kdv,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    try:
        config = _parse(argv)
    except SystemExit as exc:  # --help and friends
        return exc.code if isinstance(exc.code, int) else 0
    except ValueError as exc:
        return _fail(2, "config", str(exc))
    try:
        return _HANDLERS[config.command](config)
    except AliasingError as exc:  # ValueError subclass: must come first
        return _fail(3, "resolution", str(exc), required=exc.required)
    except ResolutionError as exc:
        extra = {}
        if exc.suggestion:
            extra["suggestion"] = exc.suggestion
        return _fail(3, "resolution", str(exc), **extra)
    except (ValueError, OSError) as exc:
        return _fail(2, "config", str(exc))


if __name__ == "__main__":
    sys.exit(main())

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
* Each flag's ``type=`` converts and range-checks it inside argparse, and
  each handler reads the parsed namespace; a refused flag is named in the
  reason, e.g. ``argument --n-max: must be >= 1, got '0'``.
* Exit codes: 0 success, 2 configuration error (including a problem size
  or cutoff too large to allocate), 3 numeric-resolution refusal, 4
  verification failure.  Every nonzero exit writes exactly one JSON line
  to stderr with the machine-readable reason.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources
from pathlib import Path

from .acceptance import CHECK_NAMES, run_all
from .errors import ResolutionError
from .heatcoeffs import global_invariant, refuse_beyond_memory, taylor_coefficient
from .kdvflow import (
    conservation_report,
    gradient_rescale,
    integrate_flow,
    invariant_orders,
    invariant_rescale,
    suggested_steps,
)
from .oracle import SpectralProblem, eigendata, zeta
from .perturb import det_comparison_rows, trace_comparison_rows

DEFAULT_PROBLEM = "free_a1_N1.json"


# ---------------------------------------------------------------------------
# flags
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags through the one-line error channel."""

    def error(self, message):
        raise ValueError(message)


def _checked(convert, ok, need: str):
    """argparse ``type=``: convert the text, then refuse it unless ``ok``.

    A ValueError from ``convert`` reads "invalid <convert> value"; a value
    that converts but fails ``ok`` reads "must be <need>".
    """

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text!r}")
        return value

    parse.__name__ = convert.__name__
    return parse


def _at_least(low: int):
    return _checked(int, lambda v: v >= low, f">= {low}")


def _positive(v: float) -> bool:
    return v > 0.0 and math.isfinite(v)


def floats(text: str) -> tuple[float, ...]:
    # public name: argparse quotes it in "invalid floats value: ..."
    return tuple(float(piece) for piece in text.split(","))


def _names(text: str) -> tuple[str, ...]:
    return tuple(piece.strip() for piece in text.split(",") if piece.strip())


_finite = _checked(float, math.isfinite, "finite")
_positive_finite = _checked(float, _positive, "positive and finite")
_finite_list = _checked(floats, lambda vs: all(map(math.isfinite, vs)),
                        "comma-separated finite floats")
_positive_list = _checked(floats, lambda vs: all(map(_positive, vs)),
                          "comma-separated positive finite floats")
_name_list = _checked(_names, bool, "a non-empty comma list of names")


def _build_parser() -> _Parser:
    parser = _Parser(prog="heatkern", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, text: str, handler, *, orders: bool = False,
            problem: bool = True, n_max: bool = False,
            fmt: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=text, description=text)
        p.set_defaults(handler=handler)
        if orders:
            g = p.add_mutually_exclusive_group(required=True)
            g.add_argument("--k", type=_at_least(0), help="single order")
            g.add_argument("--upto", type=_at_least(0), help="table of orders 0..K")
        if problem:
            p.add_argument("--problem", default=DEFAULT_PROBLEM)
        if n_max:
            p.add_argument("--n-max", type=_at_least(1), default=64,
                           help="eigenbasis cutoff for the oracle column")
        if fmt:
            p.add_argument("--format", choices=("csv", "json"),
                           default="csv", help="table format (default %(default)s)")
        p.add_argument("--output", help="write to this file instead of stdout")
        return p

    add("coeffs", "print symbolic diagonal coefficients [a_k]", _cmd_coeffs,
        orders=True, problem=False)

    add("invariants", "integrated invariants A_k of a problem", _cmd_invariants,
        orders=True)

    p = add("trace", "heat-trace comparison over a t-grid", _cmd_trace, n_max=True)
    p.add_argument("--t-grid", type=_positive_list, required=True,
                   help="comma-separated positive times")
    p.add_argument("--order", type=_at_least(0), default=6,
                   help="resummation order (default %(default)s)")
    p.add_argument("--check-tol", type=_positive_finite,
                   help="fail (exit 4) if |resummed - oracle| exceeds this "
                        "relative tolerance anywhere on the grid")

    p = add("det", "log-determinant comparison over a lambda-grid", _cmd_det,
            n_max=True)
    p.add_argument("--lam-grid", type=_finite_list, required=True,
                   help="comma-separated spectral shifts lambda")

    p = add("zeta", "spectral zeta values over an s-grid", _cmd_zeta, n_max=True)
    p.add_argument("--s-grid", type=_finite_list, required=True,
                   help="comma-separated exponents s")
    p.add_argument("--lam", type=_finite, default=-1.0,
                   help="spectral shift, must lie below the spectrum")

    p = add("kdv", "run a hierarchy flow and report conservation", _cmd_kdv)
    p.add_argument("--flow", type=_at_least(1), required=True,
                   help="hierarchy index k >= 1")
    p.add_argument("--s-end", type=_positive_finite, default=1.0)
    p.add_argument("--steps", type=_at_least(1),
                   help="time steps (default: stability heuristic)")
    p.add_argument("--grid", type=_at_least(1), default=256)
    p.add_argument("--record", type=_at_least(2), default=33,
                   help="number of snapshots kept (default %(default)s)")
    p.add_argument("--invariants", type=_name_list, default="A2,A3,A4,A5",
                   help='comma list of invariant names, e.g. "A2,I1"')

    p = add("verify", "run the acceptance suite", _cmd_verify,
            problem=False, fmt=False)
    p.add_argument("--only", choices=CHECK_NAMES, help="run a single named check")

    return parser


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    return "%.17g" % float(x)


def _fail(code: int, kind: str, reason: str, **extra) -> int:
    """One JSON line on stderr; ``extra`` fields that are empty are left out."""
    payload = {"error": kind, "exit": code, "reason": reason}
    payload.update((key, value) for key, value in extra.items() if value)
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    return code


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.output:
        Path(args.output).write_text(text)
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


def _table(args: argparse.Namespace, header: tuple[str, ...], rows, keys=None) -> str:
    """Every table's text: CSV is the header line and one line per row
    (strings as they are, numbers through ``_fmt``); ``--format json`` is one
    record per row, keyed by ``keys`` (default ``header``)."""
    if args.format == "json":
        records = [dict(zip(keys or header, row)) for row in rows]
        return json.dumps(records, indent=1, sort_keys=True) + "\n"
    return "".join(",".join(v if isinstance(v, str) else _fmt(v) for v in row) + "\n"
                   for row in (header, *rows))


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
    pieces = []
    for mono in poly.terms():
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


def _orders(args: argparse.Namespace, scalar: bool) -> list[int]:
    """The orders asked for, refused before any is built when the largest
    would not fit in memory (in the commutative quotient when ``scalar``)."""
    refuse_beyond_memory(args.upto if args.k is None else args.k, scalar)
    if args.k is not None:
        return [args.k]
    return list(range(args.upto + 1))


def _cmd_coeffs(args: argparse.Namespace) -> int:
    rows = [(k, render_poly(taylor_coefficient(k, 0))) for k in _orders(args, False)]
    bare = args.k is not None and args.format == "csv"   # one order: its expression
    _emit(args, rows[0][1] + "\n" if bare else _table(args, ("k", "expression"), rows))
    return 0


def _cmd_invariants(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    rows = [(k, g.value, g.grid) for k in _orders(args, problem.Q.matrix_dim == 1)
            for g in [global_invariant(k, problem.Q)]]
    bare = args.k is not None and args.format == "csv"   # one order: its value
    _emit(args, _fmt(rows[0][1]) + "\n" if bare else
          _table(args, ("k", "A_k", "grid"), rows, keys=("k", "value", "grid")))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    eigen = eigendata(problem, args.n_max)
    rows = trace_comparison_rows(problem, eigen, args.t_grid, args.order)
    _emit(args, _table(args, ("t", "omega_oracle", "omega_order2", "omega_resummed"),
                       rows))
    if args.check_tol is not None:
        worst = max(abs(r[3] - r[1]) / max(abs(r[1]), 1e-300) for r in rows)
        if worst > args.check_tol:
            return _fail(4, "verification",
                         f"resummed trace deviates from oracle by {worst:.3e} "
                         f"(allowed {args.check_tol:.3e})")
    return 0


def _cmd_det(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    eigen = eigendata(problem, args.n_max)
    rows = det_comparison_rows(problem, eigen, args.lam_grid)
    _emit(args, _table(args, ("lam", "log_det_oracle", "weyl", "gamma"), rows))
    return 0


def _cmd_zeta(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    eigen = eigendata(problem, args.n_max)
    rows = [(s, zeta(eigen, s, args.lam)) for s in args.s_grid]
    _emit(args, _table(args, ("s", "zeta"), rows))
    return 0


def _cmd_kdv(args: argparse.Namespace) -> int:
    problem = load_problem(args.problem)
    names = list(args.invariants)
    invariant_orders(names)  # a bad name is refused before the flow runs
    steps = args.steps
    if steps is None:
        steps = suggested_steps(args.flow, problem.Q, args.s_end, args.grid)
    trajectory = integrate_flow(args.flow, problem.Q, args.s_end, steps,
                                grid=args.grid, record=args.record)
    report = conservation_report(trajectory, names)
    meta = (
        ("flow_k", str(args.flow)),
        ("grid", str(args.grid)),
        ("steps", str(steps)),
        ("dt", _fmt(args.s_end / steps)),
        ("gradient_rescale", str(gradient_rescale(args.flow))),
        ("invariant_rescale", str(invariant_rescale(args.flow))),
    )
    if args.format == "json":
        obj = {key: value for key, value in meta}
        obj["s"] = [state.s for state in trajectory]
        obj["series"] = {name: [float(v) for v in report.series[name]]
                         for name in names}
        obj["drifts"] = {name: float(report.drifts[name]) for name in names}
        obj["max_drift"] = float(report.max_drift)
        text = json.dumps(obj, indent=1, sort_keys=True) + "\n"
    else:
        rows = zip([state.s for state in trajectory], *(report.series[n] for n in names))
        drifts = [f"# drift {name} = {_fmt(report.drifts[name])}\n" for name in names]
        text = ("".join(f"# {key} = {value}\n" for key, value in meta)
                + _table(args, ("s", *names), rows) + "".join(drifts)
                + f"# max_drift = {_fmt(report.max_drift)}\n")
    _emit(args, text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    only = None if args.only is None else [args.only]
    results = run_all(only)
    lines = []
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        lines.append(f"{status} {result.name}: {result.detail}")
    _emit(args, "\n".join(lines) + "\n")
    failed = [result.name for result in results if not result.passed]
    if failed:
        return _fail(4, "verification",
                     f"{len(failed)} of {len(results)} checks failed: "
                     + ",".join(failed))
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # --help and friends
        return exc.code if isinstance(exc.code, int) else 0
    except ValueError as exc:
        return _fail(2, "config", str(exc))
    try:
        return args.handler(args)
    except ResolutionError as exc:
        return _fail(3, "resolution", str(exc), suggestion=exc.suggestion)
    except (ValueError, OSError) as exc:
        return _fail(2, "config", str(exc))
    except MemoryError as exc:  # a problem size or cutoff too large to allocate
        return _fail(2, "config", f"{args.command} needs more memory than is "
                                  f"available: {exc}")
    except ArithmeticError as exc:  # float64 overflow or a Newton refinement
        return _fail(3, "resolution", f"{args.command} left the float64 range "
                                      f"or did not converge: {exc}")


if __name__ == "__main__":
    sys.exit(main())

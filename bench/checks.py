"""Correctness gates for every benchmark operation.

`run.py` calls these after the timed section, in its own process, with
``src`` first on ``sys.path``.  Each gate returns ``(ok, worst_error,
detail)``.  A changed output byte is not a failure by itself: rows are
compared numerically against references, with tolerances set from the
agreement the seed code reaches (README.md lists them).

References:

* ``det`` rows: the same sweep at a lower ``n_max`` (matrix problem) or the
  independent period-map determinant ``floquet_log_det`` (scalar problem);
* ``trace`` rows: the same sweep at a lower ``n_max``, and the resummed
  series against the eigenvalue oracle at small ``t``, which checks the
  invariants ``A_0..A_6`` against the spectrum;
* ``zeta`` rows: the same sweep at a lower ``n_max``;
* symbolic invariants: closed forms for ``k <= 2``; the commutative image
  (scalar) or a translated, unitarily conjugated copy of the potential on
  a doubled grid (matrix) beyond.
"""

from __future__ import annotations

import cmath
import csv
import io
import math

VERIFY_CHECKS = (
    "symbolic-ground-truth", "recursion-cross-validation", "free-trace-identity",
    "small-t-asymptotics", "determinant-benchmark", "perturbative-scaling",
    "special-function-identities", "variational-derivative",
    "conservation-involution", "w-identity",
)
VERIFY_KNOWN_RED = "perturbative-scaling"

# gates (relative errors); the seed code's worst agreement is in README.md
DET_MATRIX_TOL = 1e-9
DET_SCALAR_TOL_NEAR = 1e-7      # lam > -16, where the two routes agree least
DET_SCALAR_TOL_FAR = 1e-9
DET_SCALAR_NEAR = -16.0
TRACE_TOL = 1e-10
SERIES_T_MAX = 0.04             # the 6-term series resolves the trace below this t
SERIES_TOL = 1e-10
ZETA_TOL = 1e-6
SAME_CODE_TOL = 1e-12           # n_max-independent columns, same formulas
INVARIANT_TOL = 1e-10


def parse_rows(text: str, columns: tuple[str, ...]) -> list[list[float]]:
    """CSV table with the expected header; raises ValueError otherwise."""
    table = list(csv.reader(io.StringIO(text)))
    if not table or tuple(table[0]) != columns:
        raise ValueError(f"unexpected header {table[:1]}")
    rows = [[float(v) for v in row] for row in table[1:]]
    if any(len(row) != len(columns) or not all(map(math.isfinite, row)) for row in rows):
        raise ValueError("ragged or non-finite row")
    return rows


def rel_err(value: float, ref: float, floor: float = 1e-300) -> float:
    return abs(value - ref) / max(abs(ref), floor)


class References:
    """Reference values of one run, computed once and shared by all of its
    iterations.  ``global_invariant`` is memoised inside this process only,
    so reference sweeps do not pay the per-lambda recomputation."""

    def __init__(self, problems: dict[str, str], sizes: dict):
        from heatkern import oracle
        from heatkern.cli import load_problem

        self.sizes = sizes
        self.matrix = load_problem(problems["matrix"])
        self.scalar = load_problem(problems["scalar_even"])
        self._cache: dict = {}
        memo: dict = {}
        original = oracle.global_invariant

        def memoised(k, Q, grid=None):
            key = (k, id(Q), grid)
            if key not in memo:
                memo[key] = original(k, Q, grid)
            return memo[key]

        self._memoised = memoised

    def _with_memo(self, fn):
        import heatkern.oracle as oracle
        import heatkern.perturb as perturb

        saved = [(m, m.global_invariant) for m in (oracle, perturb)]
        for module, _ in saved:
            module.global_invariant = self._memoised
        try:
            return fn()
        finally:
            for module, value in saved:
                module.global_invariant = value

    def _eigen(self, name, problem, n_max):
        from heatkern.oracle import eigendata

        key = ("eigen", name, n_max)
        if key not in self._cache:
            self._cache[key] = eigendata(problem, n_max)
        return self._cache[key]

    def det_matrix(self, lams) -> list:
        from heatkern.perturb import det_comparison_rows

        key = ("det_matrix", tuple(lams))
        if key not in self._cache:
            eigen = self._eigen("matrix", self.matrix, self.sizes["ref_matrix_nmax"])
            self._cache[key] = self._with_memo(
                lambda: det_comparison_rows(self.matrix, eigen, lams))
        return self._cache[key]

    def det_scalar(self, lams) -> list:
        from heatkern.oracle import floquet_log_det
        from heatkern.perturb import bq_gamma, weyl_log_det

        key = ("det_scalar", tuple(lams))
        if key not in self._cache:
            p = self.scalar
            self._cache[key] = [
                (lam, floquet_log_det(p, lam), weyl_log_det(p, lam),
                 bq_gamma(p, 0.5, lam).gamma) for lam in lams]
        return self._cache[key]

    def trace(self, ts) -> list:
        from heatkern.perturb import trace_comparison_rows

        key = ("trace", tuple(ts))
        if key not in self._cache:
            eigen = self._eigen("matrix", self.matrix, self.sizes["ref_matrix_nmax"])
            self._cache[key] = self._with_memo(
                lambda: trace_comparison_rows(self.matrix, eigen, ts))
        return self._cache[key]

    def zeta(self, ss, lam) -> list:
        from heatkern.oracle import zeta

        key = ("zeta", tuple(ss), lam)
        if key not in self._cache:
            eigen = self._eigen("scalar", self.scalar, self.sizes["ref_zeta_nmax"])
            self._cache[key] = [(s, zeta(eigen, s, lam)) for s in ss]
        return self._cache[key]


def _compare(rows, refs, oracle_tol) -> tuple[bool, float, str]:
    """Rowwise relative comparison.  Column 0 (the grid) must equal the
    reference, column 1 (the oracle) must agree within ``oracle_tol(row)``,
    later columns (n_max-independent formulas) within ``SAME_CODE_TOL``.
    Returns (ok, worst column-1 error, detail)."""
    if len(rows) != len(refs):
        return False, math.inf, f"{len(rows)} rows, expected {len(refs)}"
    worst, bad = 0.0, []
    for row, ref in zip(rows, refs):
        if row[0] != ref[0]:
            return False, math.inf, f"grid value {row[0]!r} != {ref[0]!r}"
        for j in range(1, len(ref)):
            err = rel_err(row[j], ref[j], 1e-12)
            tol = oracle_tol(row) if j == 1 else SAME_CODE_TOL
            if j == 1:
                worst = max(worst, err)
            if err > tol:
                bad.append(f"row {row[0]:g} column {j}: {err:.2e} > {tol:.0e}")
    return not bad, worst, "; ".join(bad[:3]) or "ok"


def check_det_matrix(text, lams, refs: References):
    rows = parse_rows(text, ("lam", "log_det_oracle", "weyl", "gamma"))
    return _compare(rows, refs.det_matrix(lams), lambda row: DET_MATRIX_TOL)


def check_det_scalar(text, lams, refs: References):
    rows = parse_rows(text, ("lam", "log_det_oracle", "weyl", "gamma"))

    def oracle_tol(row):
        return DET_SCALAR_TOL_NEAR if row[0] > DET_SCALAR_NEAR else DET_SCALAR_TOL_FAR

    return _compare(rows, refs.det_scalar(lams), oracle_tol)


def check_trace(text, ts, refs: References):
    """Returns the oracle-column gate plus the worst series error."""
    rows = parse_rows(text, ("t", "omega_oracle", "omega_order2", "omega_resummed"))
    ok, worst, detail = _compare(rows, refs.trace(ts), lambda row: TRACE_TOL)
    series = [rel_err(row[3], row[1]) for row in rows if row[0] < SERIES_T_MAX]
    series_worst = max(series, default=0.0)
    if series_worst > SERIES_TOL:
        ok = False
        detail += f"; resummed series off the oracle by {series_worst:.2e} for t < {SERIES_T_MAX}"
    return ok, worst, detail, series_worst


def check_zeta(text, ss, lam, refs: References):
    rows = parse_rows(text, ("s", "zeta"))
    return _compare(rows, refs.zeta(ss, lam), lambda row: ZETA_TOL)


def check_verify(exit_code, text, only=None):
    """Exit 4 with exactly the known-red check failing, or, for a single
    green check run with ``--only``, exit 0 and one PASS line."""
    names = VERIFY_CHECKS if only is None else (only,)
    expected = {n: n != VERIFY_KNOWN_RED for n in names}
    seen = {}
    for line in text.splitlines():
        status, _, rest = line.partition(" ")
        seen[rest.split(":", 1)[0]] = status == "PASS"
    want_exit = 0 if all(expected.values()) else 4
    ok = seen == expected and exit_code == want_exit
    passed = sum(seen.values())
    return ok, 0.0, f"exit {exit_code}, {passed} PASS of {len(seen)}"


# ----------------------------------------------------------------- symbolic

def _closed_form(k: int, problem) -> float | None:
    """A_0 = 2 pi a N, A_1 = 2 pi a tr q0, A_2 = 2 pi a sum_n ||q_n||_F^2."""
    import numpy as np

    Q, a = problem.Q, problem.a
    if k == 0:
        return 2.0 * math.pi * a * problem.dim
    if k == 1:
        return 2.0 * math.pi * a * float(np.trace(Q.mean()).real)
    if k == 2:
        return 2.0 * math.pi * a * sum(
            float(np.sum(np.abs(Q.mode(n)) ** 2))
            for n in range(-Q.bandwidth, Q.bandwidth + 1))
    return None


def _moved_copy(problem):
    """U Q(x + c) U^H: the same integrated invariants, different samples."""
    import numpy as np
    from heatkern.periodic import PeriodicFunction

    Q, dim = problem.Q, problem.dim
    c = 0.7
    theta = 0.3
    u = np.eye(dim, dtype=complex)
    if dim == 2:
        u = np.array([[math.cos(theta), -math.sin(theta) * cmath.exp(0.4j)],
                      [math.sin(theta) * cmath.exp(-0.4j), math.cos(theta)]])
    modes = np.stack([u @ Q.mode(n) @ u.conj().T * cmath.exp(1j * n * c / Q.a)
                      for n in range(-Q.bandwidth, Q.bandwidth + 1)])
    return PeriodicFunction(Q.a, modes)


def invariant_reference(kind: str, k: int, problem) -> float:
    from heatkern import diffpoly as dp
    from heatkern.heatcoeffs import global_invariant, taylor_coefficient

    closed = _closed_form(k, problem)
    if closed is not None:
        return closed
    if kind == "scalar":
        poly = dp.commutative_image(taylor_coefficient(k, 0))
        need = dp.min_grid(poly, problem.Q.bandwidth)
        grid = 1 << max(3, (need - 1).bit_length())
        return dp.evaluate(poly, problem.Q, grid).trace_integral()
    default = global_invariant(k, problem.Q).grid
    return global_invariant(k, _moved_copy(problem), grid=2 * default).value


def check_invariant(value, ref) -> tuple[bool, float, str]:
    if not isinstance(value, float) or not math.isfinite(value):
        return False, math.inf, f"value {value!r} is not a finite float"
    err = rel_err(value, ref, 1.0)
    return err <= INVARIANT_TOL, err, f"{err:.2e}"

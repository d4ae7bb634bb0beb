"""Seeded problem generator for the benchmark.

Only this module sees the seed; the program under test sees the problem
files it writes and the command lines built from the fixed grids below.
Pure Python (``random.Random``), so a seed gives the same bytes on every
numpy version.

Every potential is scaled so that ``sum_n ||q_n||_2 <= 0.9`` over all
modes ``n`` in Z (operator norm).  Then ``sup_x ||Q(x)|| <= 0.9`` and the
spectrum of ``-D^2 + Q`` lies above ``-0.9``, so the fixed lambda-grids
(all ``<= -1``) stay below the spectrum for every seed.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from pathlib import Path

TOTAL_NORM = 0.9

# fixed grids: the seed changes the potentials, never the amount of work
DET_MATRIX_LAMS = tuple(-float(round(v)) for v in
                        (math.exp(math.log(400.0) * i / 11) for i in range(12)))
DET_SCALAR_LAMS = tuple(-float(round(v)) for v in
                        (math.exp(math.log(3600.0) * i / 15) for i in range(16)))
TRACE_TS = tuple(0.002 * 1.6 ** i for i in range(14))
ZETA_SS = tuple(1.5 + 0.5 * i for i in range(6))
ZETA_LAM = -1.0


def _matmul(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(len(y))) for j in range(len(y[0]))]
            for i in range(len(x))]


def _adjoint(x):
    return [[x[j][i].conjugate() for j in range(len(x))] for i in range(len(x[0]))]


def _op_norm(x) -> float:
    """Spectral norm: sqrt of the top eigenvalue of x^H x (Hermitian 2x2
    closed form, or the absolute value for 1x1)."""
    g = _matmul(_adjoint(x), x)
    if len(g) == 1:
        return math.sqrt(g[0][0].real)
    tr = (g[0][0] + g[1][1]).real
    det = (g[0][0] * g[1][1] - g[0][1] * g[1][0]).real
    return math.sqrt(0.5 * tr + math.sqrt(max(0.25 * tr * tr - det, 0.0)))


def _frobenius(x) -> float:
    return math.sqrt(sum(abs(v) ** 2 for row in x for v in row))


def _sample(modes: dict[int, list], x: float):
    """Q(x) = sum_n q_n e^{inx} with q_{-n} = q_n^H (radius 1)."""
    dim = len(modes[0])
    out = [[0j] * dim for _ in range(dim)]
    for n, q in modes.items():
        terms = [(q, cmath.exp(1j * n * x))]
        if n:
            terms.append((_adjoint(q), cmath.exp(-1j * n * x)))
        for m, phase in terms:
            for i in range(dim):
                for j in range(dim):
                    out[i][j] += m[i][j] * phase
    return out


def _scaled(modes: dict[int, list]) -> dict[int, list]:
    total = sum(_op_norm(q) * (1 if n == 0 else 2) for n, q in modes.items())
    s = TOTAL_NORM / total
    return {n: [[v * s for v in row] for row in q] for n, q in modes.items()}


def _noncommuting(modes: dict[int, list], floor: float = 0.05) -> bool:
    """True when Q(x) and Q(y) fail to commute at some pair of sample points
    by at least ``floor`` of the largest ||Q||^2 (Frobenius)."""
    xs = [2.0 * math.pi * j / 12 for j in range(12)]
    samples = [_sample(modes, x) for x in xs]
    scale = max(_frobenius(s) for s in samples) ** 2
    worst = 0.0
    for i, p in enumerate(samples):
        for q in samples[i + 1:]:
            pq, qp = _matmul(p, q), _matmul(q, p)
            comm = [[pq[r][c] - qp[r][c] for c in range(len(p))] for r in range(len(p))]
            worst = max(worst, _frobenius(comm))
    return worst >= floor * scale


def _cplx(rng: random.Random) -> complex:
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))


def matrix_modes(rng: random.Random, bandwidth: int = 3) -> dict[int, list]:
    """2x2 Hermitian potential of the given bandwidth, pointwise
    non-commuting, scaled to the norm budget."""
    while True:
        d0, d1, off = rng.uniform(-1, 1), rng.uniform(-1, 1), _cplx(rng)
        modes = {0: [[complex(d0), off], [off.conjugate(), complex(d1)]]}
        for n in range(1, bandwidth + 1):
            modes[n] = [[_cplx(rng) for _ in range(2)] for _ in range(2)]
        modes = _scaled(modes)
        if _noncommuting(modes):
            return modes


def even_scalar_modes(rng: random.Random) -> dict[int, list]:
    """Real even scalar q0 + 2 q1 cos x with q1 != 0, scaled to the budget."""
    q0 = rng.uniform(-1.0, 1.0)
    q1 = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.0)
    return _scaled({0: [[complex(q0)]], 1: [[complex(q1)]]})


def scalar_modes(rng: random.Random, bandwidth: int = 2) -> dict[int, list]:
    """General (complex-mode, not even) scalar potential."""
    modes = {0: [[complex(rng.uniform(-1.0, 1.0))]]}
    for n in range(1, bandwidth + 1):
        modes[n] = [[_cplx(rng)]]
    return _scaled(modes)


def problem_json(modes: dict[int, list]) -> dict:
    """The program's problem-file schema: modes n >= 0 as [re, im] pairs."""
    return {
        "a": 1.0,
        "N": len(modes[0]),
        "modes": [{"n": n, "matrix": [[[v.real, v.imag] for v in row] for row in q]}
                  for n, q in sorted(modes.items())],
    }


def write_problems(seed: int, directory: Path) -> dict[str, str]:
    """Write every problem file for ``seed`` and return name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    makers = {
        "matrix": matrix_modes,
        "scalar_even": even_scalar_modes,
        "sym_scalar": scalar_modes,
        "sym_matrix": matrix_modes,
    }
    paths = {}
    for index, (name, make) in enumerate(makers.items()):
        # one independent stream per problem: adding a problem later does
        # not change the others for the same seed
        rng = random.Random(f"heatkern-bench:{seed}:{index}")
        path = directory / f"{name}.json"
        path.write_text(json.dumps(problem_json(make(rng)), sort_keys=True) + "\n")
        paths[name] = str(path)
    return paths

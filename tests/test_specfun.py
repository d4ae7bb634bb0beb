"""Special-function layer: dual series, defining integrals, closed forms.

Oracles used here and nowhere in the implementation: scipy's Dawson
function and error function for alpha, brute-force lattice sums for theta,
the arcsin closed form of f_{-1/2}, and the node-doubling quadrature itself
for the f_q shortcuts.
"""

import math

import numpy as np
import pytest
from scipy.special import dawsn, erf

from heatkern.errors import ResolutionError
from heatkern.specfun import (
    alpha,
    alpha_ode_residual,
    alpha_prime,
    f_q,
    f_q_quadrature,
    integrate_unit_interval,
    theta,
)


# -- theta -----------------------------------------------------------------


def _theta_direct(t, n_terms=400):
    # sqrt(t/pi) * sum_n exp(-t n^2): the dual representation, summed naively
    s = 1.0 + 2.0 * math.fsum(math.exp(-t * n * n) for n in range(1, n_terms))
    return math.sqrt(t / math.pi) * s


def test_theta_duality():
    for t in np.geomspace(0.01, 10.0, 40):
        assert abs(theta(t) - _theta_direct(t)) <= 1e-12


def test_theta_small_t_limit():
    assert theta(1e-8) == 1.0
    assert theta(0.05) == pytest.approx(1.0, abs=1e-15)


def test_theta_at_one():
    expected = 1.0 + 2.0 * math.exp(-math.pi**2) + 2.0 * math.exp(-4.0 * math.pi**2)
    assert abs(theta(1.0) - expected) < 1e-15


def test_theta_domain_and_invariant():
    with pytest.raises(ValueError):
        theta(0.0)
    with pytest.raises(ValueError):
        theta(-1.0)
    for t in (0.01, 1.0, 3.0, 100.0):
        assert theta(t) >= 1.0


# -- alpha -----------------------------------------------------------------


def _alpha_oracle(z):
    # closed forms via scipy: Dawson integral for z > 0, erf for z < 0
    if z > 0:
        r = math.sqrt(z)
        return float(2.0 / r * dawsn(r / 2.0))
    if z < 0:
        y = -z
        r = math.sqrt(y)
        return float(math.exp(y / 4.0) * math.sqrt(math.pi / y) * erf(r / 2.0))
    return 1.0


def test_alpha_against_closed_forms():
    for z in np.geomspace(1e-3, 1e3, 60):
        err = abs(alpha(z) - _alpha_oracle(z))
        assert err <= 1e-11 * max(1.0, abs(_alpha_oracle(z)))
    for z in -np.geomspace(1e-3, 1e3, 40):
        err = abs(alpha(z) - _alpha_oracle(z))
        assert err <= 1e-11 * abs(_alpha_oracle(z))


def test_alpha_basics():
    assert alpha(0.0) == 1.0
    # leading series behaviour 1 - z/6
    for z in (1e-6, -1e-6):
        assert abs(alpha(z) - (1.0 - z / 6.0)) < 1e-13


def test_alpha_large_argument_law():
    for z in (1e3, 1e4):
        assert abs(z * alpha(z) - 2.0) < 5.0 / z * 2.0


def test_alpha_ode_residual():
    for z in np.geomspace(1e-3, 1e3, 80):
        assert abs(alpha_ode_residual(z)) <= 1e-10


def test_alpha_prime_is_derivative():
    for z in (0.5, 10.0, 50.0, 200.0):
        h = 1e-5 * max(1.0, z)
        fd = (alpha(z + h) - alpha(z - h)) / (2 * h)
        assert abs(alpha_prime(z) - fd) < 1e-8 * max(1.0, abs(fd))


# -- f_q -----------------------------------------------------------------


def test_f_q_at_zero_and_domain():
    for q in (-1.5, -0.5, 0.0, 2.0, 0.37):
        assert f_q(q, 0.0) == 1.0
    with pytest.raises(ValueError):
        f_q(1.0, -0.1)


def test_f_minus_three_halves_closed_form():
    assert f_q(-1.5, 4.0) == 0.5
    for z in np.linspace(0.0, 100.0, 41):
        assert abs(f_q_quadrature(-1.5, z) - 4.0 / (z + 4.0)) <= 1e-10


def _f_minus_half_closed(z):
    # (2/sqrt(z)) arcsin((1 + 4/z)^{-1/2}), the q = -1/2 member in closed form
    if z == 0.0:
        return 1.0
    return (2.0 / math.sqrt(z)) * math.asin(1.0 / math.sqrt(1.0 + 4.0 / z))


def test_f_minus_half_against_quadrature():
    # the arcsin closed form is checked against the defining integral, which
    # is what f_q actually evaluates at q = -1/2
    for z in np.linspace(0.0, 100.0, 26):
        quad = f_q(-0.5, z)
        assert abs(quad - _f_minus_half_closed(z)) <= 1e-11
        assert abs(quad - f_q_quadrature(-0.5, z)) <= 1e-15


def test_f_q_polynomial_cases():
    for z in np.linspace(0.0, 50.0, 11):
        assert abs(f_q(0, z) - 1.0) <= 1e-12
        assert abs(f_q(1, z) - (1.0 + z / 6.0)) <= 1e-12 * (1 + z)
        for q in (2, 3):
            assert abs(f_q(q, z) - f_q_quadrature(q, z)) <= 1e-12 * f_q(q, z)


def test_f_q_large_z_slope():
    # generic q: f_q ~ const * z^q; q = -3/2 is excluded because there the
    # asymptotic constant Gamma(q+1)^2/Gamma(2q+2) vanishes (Gamma(-1) pole)
    # and the true decay is the subleading 4/z
    for q in (-0.5, 0.37, 1.0, 2.0):
        lo, hi = 1e3, 1e5
        slope = (math.log(f_q(q, hi)) - math.log(f_q(q, lo))) / (math.log(hi) - math.log(lo))
        assert abs(slope - q) <= 0.02 * max(1.0, abs(q))
    lo, hi = 1e3, 1e5
    slope = (math.log(f_q(-1.5, hi)) - math.log(f_q(-1.5, lo))) / (math.log(hi) - math.log(lo))
    assert abs(slope + 1.0) <= 0.02


def test_f_q_large_z_constant():
    # f_q(z) ~ Gamma(q+1)^2 / Gamma(2q+2) * z^q; q = -1/2 goes through the
    # quadrature, whose 4096-node cap is reached between z = 1e5 and 1e6
    # (the integrand's boundary layer at xi = 1 has width ~ 1/z)
    for q, z in ((1.0, 1e6), (2.0, 1e6), (-0.5, 1e5)):
        c = math.gamma(q + 1.0) ** 2 / math.gamma(2.0 * q + 2.0)
        assert abs(f_q(q, z) / (c * z**q) - 1.0) < 2e-2
    with pytest.raises(ResolutionError):
        f_q(-0.5, 1e6)


# -- quadrature helper -----------------------------------------------------


def test_integrate_unit_interval():
    assert abs(integrate_unit_interval(lambda x: x * x) - 1.0 / 3.0) < 1e-15
    assert abs(integrate_unit_interval(np.exp) - (math.e - 1.0)) < 1e-14


def test_integrate_unit_interval_refuses_at_node_cap():
    # a square-root kink inside the interval defeats Gauss-Legendre doubling:
    # successive rules still differ by about 3e-6 at 2048 -> 4096 nodes
    with pytest.raises(ResolutionError, match="did not converge at 4096 nodes"):
        integrate_unit_interval(lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)))

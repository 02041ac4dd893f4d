"""Orthogonal polynomial machinery and the closed-form spectra built on it."""

import math

import numpy as np
import pytest
from scipy import special

from clt_spectra import (
    PolyFamily,
    addition_check_hermite,
    addition_check_laguerre,
    closed_theta,
    gamma_jst,
    hermite_lambda,
    hermite_value,
    laguerre_lambda,
    laguerre_lambda_sum,
    laguerre_value,
)
from clt_spectra.closed_forms import _legendre_rule


def test_hermite_matches_scipy():
    x = np.linspace(-4.0, 4.0, 41)
    for k in range(7):
        np.testing.assert_allclose(
            hermite_value(k, x), special.eval_hermitenorm(k, x), atol=1e-10
        )


def test_laguerre_matches_scipy():
    x = np.linspace(0.0, 8.0, 33)
    for k in range(7):
        np.testing.assert_allclose(
            laguerre_value(k, 1.5, x), special.eval_genlaguerre(k, 1.5, x), atol=1e-10
        )


@pytest.mark.parametrize("kind,alpha", [("hermite", 1.0), ("laguerre", 0.0), ("laguerre", 3.0)])
def test_orthonormality(kind, alpha):
    fam = PolyFamily(kind, alpha)
    assert fam.orthonormality_residual() <= 1e-8


def test_legendre_rule_is_read_only():
    t, w = _legendre_rule()
    assert not t.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        w *= 2.0
    assert _legendre_rule()[1] is w


@pytest.mark.parametrize("kind,alpha", [("hermite", 1.0), ("laguerre", 3.0)])
def test_orthonormality_residual_repeats(kind, alpha):
    fam = PolyFamily(kind, alpha)
    assert fam.orthonormality_residual() == fam.orthonormality_residual()


def test_hermite_addition_random():
    """Scaled-argument expansion of He_m((x+y)/sqrt(n)) over products He_j He_{m-j}."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(0, 7))
        n = int(rng.integers(2, 6))
        tau2 = float(rng.uniform(0.5, 2.0))
        x, y = rng.uniform(-3.0, 3.0, size=2)
        worst = max(worst, abs(addition_check_hermite(m, n, tau2, float(x), float(y))))
    assert worst <= 1e-9


def test_laguerre_addition_random():
    """Two-variable Laguerre sum rule L_m^(a+b+1)(x+y) = sum_j L_j^(a) L_{m-j}^(b)."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(0, 7))
        a, b = rng.uniform(-0.5, 3.0, size=2)
        x, y = rng.uniform(0.0, 5.0, size=2)
        worst = max(worst, abs(addition_check_laguerre(m, float(a), float(b), float(x), float(y))))
    assert worst <= 1e-9


def test_gaussian_eigenvalue_formula():
    assert hermite_lambda(2, 0) == 1.0
    assert hermite_lambda(2, 2) == 0.25
    assert abs(hermite_lambda(3, 4) - 3.0**-4) <= 1e-15
    with pytest.raises(ValueError):
        hermite_lambda(1, 2)


def test_gamma_eigenvalue_formula():
    # product form of C(k+beta-1, k) / C(k+beta*n-1, k)
    assert abs(laguerre_lambda(1.0, 2, 2) - 1.0 / 3.0) <= 1e-15
    assert abs(laguerre_lambda(4.0, 2, 1) - 0.5) <= 1e-15
    for k in range(8):
        direct = special.binom(k + 3, k) / special.binom(k + 7, k)
        assert abs(laguerre_lambda(4.0, 2, k) - direct) <= 1e-13


def test_gamma_eigenvalues_sum_to_trace():
    """Telescoping check: the beta=4, n=2 eigenvalue series sums to 7/3.

    lambda_k = 840/((k+4)(k+5)(k+6)(k+7)), so the tail past 4000 terms is
    about 840/(3 K^3) = 4.4e-9.
    """
    total = laguerre_lambda_sum(4.0, 2, 4000)
    assert abs(total - 7.0 / 3.0) <= 1e-8


@pytest.mark.parametrize("beta", [2, 4.0, 7.5])
@pytest.mark.parametrize("n", [2, 3])
def test_laguerre_lambda_sum_is_the_termwise_sum(beta, n):
    """Bit for bit at every length, so a shifted term or count shows."""
    terms = [laguerre_lambda(beta, n, k) for k in range(400)]
    for count in range(len(terms) + 1):
        assert laguerre_lambda_sum(beta, n, count) == sum(terms[:count]), count


def test_hermite_eigenvalues_sum_to_trace():
    total = sum(hermite_lambda(2, k) for k in range(60))
    assert abs(total - 2.0) <= 1e-12


def test_closed_theta_values():
    assert abs(closed_theta("gaussian", None, 2) - 1.0) <= 1e-15
    assert abs(closed_theta("gaussian", None, 5) - 4.0) <= 1e-15
    assert abs(closed_theta("gamma", {"beta": 2.0}, 2) - 2.0 / 3.0) <= 1e-15
    assert abs(closed_theta("gamma", {"beta": 4.0}, 2) - 4.0 / 5.0) <= 1e-15


def test_closed_theta_gamma_limits_to_gaussian():
    big = closed_theta("gamma", {"beta": 1e6}, 3)
    assert abs(big - closed_theta("gaussian", None, 3)) <= 2e-6


def test_gamma_jst_values():
    """J_st(gamma(beta)) = 2/(beta - 2), infinite at beta <= 2."""
    assert abs(gamma_jst(4.0) - 1.0) <= 1e-15
    assert abs(gamma_jst(8.0) - 1.0 / 3.0) <= 1e-15
    assert math.isinf(gamma_jst(2.0))


def test_addition_degree_zero_exact():
    assert abs(addition_check_hermite(0, 2, 1.0, 0.7, -0.3)) <= 1e-15
    assert abs(addition_check_laguerre(0, 0.5, 1.5, 0.7, 0.3)) <= 1e-15

"""Orthogonal polynomial machinery and the closed-form spectra built on it."""

import math

import numpy as np
import pytest
from scipy import special

from clt_spectra import (
    DiscretePMF,
    DistributionSpec,
    GridDensity,
    PolyFamily,
    addition_check_hermite,
    addition_check_laguerre,
    exact_spectrum,
    exact_theta,
    gamma_jst,
    gauss_legendre,
    hermite_value,
    laguerre_value,
    meixner_lambdas,
    meixner_theta,
    meixner_v2,
    theta,
    trapezoid_weights,
)
from clt_spectra.closed_forms import ORTHONORMALITY_NODES


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
    t, w = gauss_legendre(ORTHONORMALITY_NODES)
    assert not t.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        w *= 2.0
    assert gauss_legendre(ORTHONORMALITY_NODES)[1] is w


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
    assert meixner_lambdas(0.0, 2, 1, 3) == [1.0, 0.5, 0.25]
    assert abs(meixner_lambdas(0.0, 3, 1, 5)[4] - 3.0**-4) <= 1e-15
    with pytest.raises(ValueError):
        meixner_lambdas(0.0, 1, 1, 3)


def test_gamma_eigenvalue_formula():
    # product form of C(k+beta-1, k) / C(k+beta*n-1, k)
    assert abs(meixner_lambdas(1.0, 2, 1, 3)[2] - 1.0 / 3.0) <= 1e-15
    assert abs(meixner_lambdas(0.25, 2, 1, 2)[1] - 0.5) <= 1e-15
    for k, lam in enumerate(meixner_lambdas(0.25, 2, 1, 8)):
        direct = special.binom(k + 3, k) / special.binom(k + 7, k)
        assert abs(lam - direct) <= 1e-13


def test_gamma_eigenvalues_sum_to_trace():
    """Telescoping check: the beta=4, n=2 eigenvalue series sums to 7/3.

    lambda_k = 840/((k+4)(k+5)(k+6)(k+7)), so the tail past 4000 terms is
    about 840/(3 K^3) = 4.4e-9.
    """
    total = sum(meixner_lambdas(0.25, 2, 1, 4000))
    assert abs(total - 7.0 / 3.0) <= 1e-8


@pytest.mark.parametrize("beta", [2, 4.0, 7.5])
@pytest.mark.parametrize("n", [2, 3])
def test_laguerre_lambda_sum_is_the_termwise_sum(beta, n):
    """Bit for bit at every length, so a shifted term or count shows."""
    v2 = 1.0 / beta
    terms = []
    for k in range(400):
        lam = 1.0
        for j in range(k):
            lam *= (1 + j * v2) / (n + j * v2)
        terms.append(lam)
    for count in range(len(terms) + 1):
        lams = meixner_lambdas(v2, n, 1, count)
        assert lams == terms[:count] and sum(lams) == sum(terms[:count]), count


def test_hermite_eigenvalues_sum_to_trace():
    total = sum(meixner_lambdas(0.0, 2, 1, 60))
    assert abs(total - 2.0) <= 1e-12


def test_closed_theta_values():
    assert abs(meixner_theta(0.0, 2, 1) - 1.0) <= 1e-15
    assert abs(meixner_theta(0.0, 5, 1) - 4.0) <= 1e-15
    assert abs(meixner_theta(0.5, 2, 1) - 2.0 / 3.0) <= 1e-15
    assert abs(meixner_theta(0.25, 2, 1) - 4.0 / 5.0) <= 1e-15


def test_closed_theta_gamma_limits_to_gaussian():
    big = meixner_theta(meixner_v2(DistributionSpec.gamma(1e6)), 3, 1)
    assert abs(big - meixner_theta(meixner_v2(DistributionSpec.gaussian()), 3, 1)) <= 2e-6


def test_meixner_v2_lookup():
    assert meixner_v2(DistributionSpec.gaussian(2.0)) == 0.0
    assert meixner_v2(DistributionSpec.gamma(4.0)) == 0.25
    assert meixner_v2(DistributionSpec.uniform()) is None
    assert meixner_v2(DistributionSpec.discrete([0.0, 1.0], [0.5, 0.5])) is None
    with pytest.raises(ValueError, match="beta must be positive"):
        meixner_v2(DistributionSpec.gamma(-1.0))


@pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (5, 3), (40, 20)])
def test_meixner_block_pairs(n, m):
    """Beyond m = 1: (m/n)^k for the gaussian, theta = m/(n lambda_2) - 1 = (n - m)/(m + v2)."""
    assert max(abs(lam - (m / n) ** k) for k, lam in enumerate(meixner_lambdas(0.0, n, m, 6))) <= 1e-15
    for v2 in (0.0, 0.25, 1.0, -0.5):
        lam2 = meixner_lambdas(v2, n, m, 3)[2]
        assert abs(meixner_theta(v2, n, m) - (m / (n * lam2) - 1.0)) <= 1e-12 * max(1.0, n / m)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_binomial_spectrum_is_meixner_with_negative_v2(N):
    """binomial(N, p) has V(mu) = mu - mu^2/N: the exact spectrum is the product with v2 = -1/N.

    Its S_m support has mN + 1 atoms, so the spectrum stops at k = mN, where the
    factor (m + j v2) reaches 0; for the Bernoulli at m = 1 theta is infinite.
    """
    p = 0.3
    probs = np.array([math.comb(N, k) * p**k * (1 - p) ** (N - k) for k in range(N + 1)])
    pmf = DiscretePMF(tuple(float(k) for k in range(N + 1)), tuple(probs / probs.sum()))
    for n, m in [(2, 1), (3, 1), (3, 2), (5, 3), (10, 4), (40, 20)]:
        count = min(6, m * N + 1)
        got = np.sort(exact_spectrum(pmf, n, m).eigenvalues)[::-1][:count]
        want = meixner_lambdas(-1.0 / N, n, m, count)
        assert np.abs(got - want).max() <= 1e-14, (n, m)
        th, closed = exact_theta(pmf, n, m).theta, meixner_theta(-1.0 / N, n, m)
        if N * m == 1:
            assert th == closed == math.inf, n
        else:
            assert abs(th - closed) <= 1e-12 * closed, (n, m)


def test_hyperbolic_secant_grid_theta_is_meixner_with_v2_one():
    """The hyperbolic secant law, pdf 1/(2 cosh(pi x/2)), has V(mu) = 1 + mu^2.

    Its tails at +-24 are e^-37.7, so the grid theta meets (n - m)/(m + 1).
    """
    nodes = np.linspace(-24.0, 24.0, 512)
    step = float(nodes[1] - nodes[0])
    values = 1.0 / (2.0 * np.cosh(np.pi * nodes / 2.0))
    d = GridDensity(nodes, values / (trapezoid_weights(len(nodes), step) @ values), step)
    for n, m in [(2, 1), (3, 1), (3, 2), (4, 3)]:
        assert abs(theta(d, n, m).theta - meixner_theta(1.0, n, m)) <= 1e-9, (n, m)


def test_gamma_jst_values():
    """J_st(gamma(beta)) = 2/(beta - 2), infinite at beta <= 2."""
    assert abs(gamma_jst(4.0) - 1.0) <= 1e-15
    assert abs(gamma_jst(8.0) - 1.0 / 3.0) <= 1e-15
    assert math.isinf(gamma_jst(2.0))


def test_addition_degree_zero_exact():
    assert abs(addition_check_hermite(0, 2, 1.0, 0.7, -0.3)) <= 1e-15
    assert abs(addition_check_laguerre(0, 0.5, 1.5, 0.7, 0.3)) <= 1e-15

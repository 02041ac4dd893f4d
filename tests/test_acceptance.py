"""Acceptance suite: the full contract, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion. Tolerances here are the contract values, not the (much smaller)
measured errors; unit tests elsewhere pin the tighter numbers.
"""

import math
import time

import numpy as np

from clt_spectra import (
    DiscretePMF,
    DistributionSpec,
    GridConfig,
    build_density,
    build_kernel,
    chain_lower,
    convolve_self,
    efron_stein,
    exact_spectrum,
    exact_theta,
    fisher_lower_bound,
    fisher_upper_bound,
    gauss_chi2_closed,
    gauss_chi2_quad,
    jst,
    moments,
    pmf_power,
    projection_inequality,
    spectrum,
    subgauss_chi2_bound,
    theta,
    trace_T,
    verify_all,
)
from clt_spectra.closed_forms import addition_check_hermite, addition_check_laguerre

GAUSS = DistributionSpec.gaussian(1.0)
CFG1024 = GridConfig(node_count=1024)

EQUAL3 = DiscretePMF((0.0, 1.0, 2.0), (1 / 3, 1 / 3, 1 / 3))
BINOM3 = DiscretePMF((0.0, 1.0, 2.0), (0.25, 0.5, 0.25))
SKEW3 = DiscretePMF((0.0, 1.0, 3.0), (0.5, 0.3, 0.2))


def test_01_gaussian_spectrum_is_geometric():
    """n=2 Gaussian eigenvalues equal 2^-k for k <= 4 within 1e-3, under 10 s."""
    t0 = time.time()
    d = build_density(GAUSS, CFG1024)
    sp = spectrum(build_kernel(d, 2, 1, CFG1024))
    elapsed = time.time() - t0
    expect = 2.0 ** -np.arange(5)
    rel = np.abs(sp.eigenvalues[:5] - expect) / expect
    assert rel.max() <= 1e-3
    assert elapsed < 10.0


def test_02_theta_closed_forms():
    """theta(2) is 1 for Gaussian and beta/(beta+1) for gamma; theta(3) Gaussian is 2."""
    d = build_density(GAUSS, CFG1024)
    assert abs(theta(d, 2, 1).theta - 1.0) <= 0.02
    assert abs(theta(d, 3, 1).theta - 2.0) <= 0.06
    for beta in (1.0, 2.0, 4.0):
        db = build_density(DistributionSpec.gamma(beta), CFG1024)
        want = beta / (beta + 1.0)
        assert abs(theta(db, 2, 1).theta - want) <= 0.02 * want, beta


def test_03_gaussian_trace():
    """T_2 of the standard Gaussian equals 2, and equals the geometric series."""
    d = build_density(GAUSS, CFG1024)
    tr = trace_T(build_kernel(d, 2, 1, CFG1024))
    assert abs(tr.value - 2.0) <= 1e-3
    series = sum(2.0**-k for k in range(60))
    assert abs(tr.value - series) <= 1e-3


def test_04_top_nontrivial_eigenvalue_is_m_over_n():
    """lambda_1 = m/n: 1e-3 on grids, 1e-12 exactly on pmfs."""
    d = build_density(GAUSS, CFG1024)
    for n, m in ((2, 1), (3, 1), (3, 2)):
        sp = spectrum(build_kernel(d, n, m, CFG1024))
        assert abs(sp.eigenvalues[1] - m / n) <= 1e-3, (n, m)
    for pmf in (EQUAL3, BINOM3, SKEW3):
        for n, m in ((2, 1), (3, 1), (3, 2)):
            sp = exact_spectrum(pmf, n, m)
            assert abs(sp.eigenvalues[1] - m / n) <= 1e-12, (n, m)


def test_05_exact_three_point_oracle():
    """Equal weights on {0,1,2}: spectrum (1, 1/2, 1/6), theta(2) = 2, theta(3) >= 4."""
    sp = exact_spectrum(EQUAL3, 2)
    assert np.abs(sp.eigenvalues - np.array([1.0, 0.5, 1.0 / 6.0])).max() <= 1e-12
    assert abs(exact_theta(EQUAL3, 2).theta - 2.0) <= 1e-12
    assert exact_theta(EQUAL3, 3).theta >= 4.0 - 1e-12


def test_06_gamma_fisher_chain():
    """Gamma(4): J_st(S_n) = 2/(4n-2) within 1%, both bounds hold, products non-increasing."""
    cfg = GridConfig(node_count=4096)
    d = build_density(DistributionSpec.gamma(4.0), cfg)
    th2 = theta(d, 2, 1).theta
    ms = moments(d, kmax=4)
    jst_y = jst(d).value
    values = {}
    for n in range(1, 5):
        jn = jst(convolve_self(d, n)).value
        closed = 2.0 / (4.0 * n - 2.0)
        assert abs(jn - closed) / closed <= 0.01, n
        values[n] = jn
    for n in range(2, 5):
        up = fisher_upper_bound(values[n], jst_y, th2, n)
        lo = fisher_lower_bound(values[n], ms.skewness, ms.sigma_stat, n)
        assert up.passed and up.slack > 0, n
        assert lo.passed and lo.slack > 0, n
    prods = [(1.0 + (n - 1) * 0.8) * values[n] for n in range(1, 5)]
    for a_prev, a_next in zip(prods, prods[1:]):
        assert a_next <= a_prev * 1.01


def test_07_variance_decomposition():
    """Sum-statistic variance identity at 1e-12; projection bound on 50 random h."""
    for pmf in (EQUAL3, BINOM3, SKEW3):
        for k in range(2, 6):
            atoms, _ = pmf_power(pmf, k).arrays()
            h = atoms**3 - 2.0 * atoms**2 + atoms + 0.5 * np.sin(atoms)
            h = h / np.abs(h).max()
            assert abs(efron_stein(h, pmf, k).identity_residual) <= 1e-12, (k,)
    rng = np.random.default_rng(42)
    for _ in range(50):
        k = int(rng.integers(3, 5))
        h = rng.standard_normal(len(pmf_power(BINOM3, k).atoms))
        lhs, rhs = projection_inequality(h, BINOM3, k, 2)
        assert lhs - rhs >= -1e-12
    atoms, _ = pmf_power(BINOM3, 3).arrays()
    quad = (atoms - 3.0) ** 2
    lhs, rhs = projection_inequality(quad, BINOM3, 3, 2)
    assert abs(lhs - rhs) <= 1e-12


def test_08_chi2_closed_form_and_subgauss_ceiling():
    """Closed chi-square matches 2-D quadrature; Gaussian ceiling matches 1/sqrt(1-4t)."""
    rng = np.random.default_rng(42)
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, 2)
        y = rng.uniform(-1.0, 1.0, 2)
        rho = float(rng.uniform(-0.6, 0.6))
        delta = float(rng.uniform(0.8, 1.5))
        closed = gauss_chi2_closed(x, y, rho, delta)
        assert abs(closed - gauss_chi2_quad(x, y, rho, delta)) <= 1e-6 * max(1.0, abs(closed))
    for n in (4, 5, 6, 8):
        t = 1.0 / (n - 1)
        res = subgauss_chi2_bound(GAUSS, 1.0, n)
        if 1.0 - 4.0 * t <= 0:
            assert res.divergent, n
        else:
            assert not res.divergent, n
            closed = 1.0 / math.sqrt(1.0 - 4.0 * t)
            assert abs(res.exp_factor - closed) / closed <= 0.01, n


def test_09_addition_formulas():
    """Hermite and Laguerre product expansions: 100 random draws each, <= 1e-9."""
    rng = np.random.default_rng(42)
    worst_h = worst_l = 0.0
    for _ in range(100):
        mh = int(rng.integers(0, 7))
        n = int(rng.integers(2, 6))
        tau2 = float(rng.uniform(0.5, 2.0))
        xh, yh = rng.uniform(-3.0, 3.0, 2)
        worst_h = max(worst_h, abs(addition_check_hermite(mh, n, tau2, float(xh), float(yh))))
        ml = int(rng.integers(0, 7))
        a, b = rng.uniform(-0.5, 3.0, 2)
        xl, yl = rng.uniform(0.0, 5.0, 2)
        worst_l = max(worst_l, abs(addition_check_laguerre(ml, float(a), float(b), float(xl), float(yl))))
    assert worst_h <= 1e-9
    assert worst_l <= 1e-9


def test_10_full_battery():
    """verify-all: every asserted report green, control red, under 3 minutes."""
    t0 = time.time()
    reports = verify_all()
    elapsed = time.time() - t0
    assert elapsed < 180.0
    hard = [r for r in reports if not r.passed and not r.context.get("expected_failure")]
    assert hard == [], [r.name for r in hard]
    control = [r for r in reports if r.context.get("expected_failure")]
    assert control and all(not r.passed for r in control)
    by_name = {}
    for r in reports:
        by_name.setdefault(r.name, []).append(r)
    for needed in (
        "cramer-rao-nonneg",
        "jst-scale-invariance",
        "adjointness-random-polys",
        "score-projection",
        "exact-chain-(3,2)-uniform{0,1,2}",
    ):
        assert needed in by_name, needed
        assert all(r.passed for r in by_name[needed]), needed

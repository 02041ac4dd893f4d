"""Bound constructors, chi-square oracles, and the rate formulas."""

import math

import numpy as np
import pytest

from clt_spectra import (
    DistributionSpec,
    GridConfig,
    build_density,
    chain_lower,
    convolve_self,
    de_bruijn_rate,
    de_bruijn_rate_quad,
    eigen_tail_asymptote,
    fisher_lower_bound,
    fisher_upper_bound,
    gauss_chi2_closed,
    gauss_chi2_quad,
    jst,
    make_report,
    monotonicity_reports,
    monotonicity_sequence,
    moments,
    subgauss_chi2_bound,
    theta_lower_from_poincare,
    theta_moment_parts,
    theta_moment_parts_quadrature,
    theta_upper_from_sigma,
)
from clt_spectra import inequalities
from clt_spectra.densities import trapezoid_weights
from clt_spectra.inequalities import CHI2_QUAD_NODES, CHI2_QUAD_WIDTH, _pair_expectation


def test_make_report_orientation():
    r = make_report("x", 1.0, 2.0)
    assert r.passed and r.slack == 1.0
    r = make_report("x", 2.0, 1.0)
    assert not r.passed
    r = make_report("x", 2.0, 1.0, tol=1.5)
    assert r.passed


def test_make_report_double_inf_fails():
    r = make_report("x", math.inf, math.inf)
    assert not r.passed
    assert math.isnan(r.slack)


def test_make_report_rejects_bad_provenance():
    with pytest.raises(ValueError):
        make_report("x", 0.0, 1.0, lhs_kind="guessed")


def test_chain_lower_values():
    # theta2 = 2: (1 + 2(n-1))/(1 + 2(m-1)) - 1
    assert abs(chain_lower(2.0, 3, 2) - (5.0 / 3.0 - 1.0)) <= 1e-15
    assert abs(chain_lower(2.0, 4, 2) - (7.0 / 3.0 - 1.0)) <= 1e-15
    with pytest.raises(ValueError):
        chain_lower(1.0, 2, 2)


def test_chain_lower_reads_roundoff_as_zero():
    """A Sidon pmf's exact theta2 = 0 can come out a few ulps negative."""
    assert chain_lower(-2e-16, 3, 2) == 0.0
    with pytest.raises(ValueError):
        chain_lower(-1e-6, 3, 2)


def test_theta_sigma_ceiling():
    r = theta_upper_from_sigma(1.0, 2.0, n=2)
    assert r.rhs == 1.0 and r.passed
    r = theta_upper_from_sigma(2.0, 2.0, n=3)
    assert r.rhs == 2.0 and r.passed


def test_fisher_bound_constructors():
    r = fisher_upper_bound(0.3, 1.0, 0.8, 2)
    assert abs(r.rhs - 1.0 / 1.8) <= 1e-15
    assert r.passed
    r = fisher_lower_bound(0.3, 1.0, 2.5, 2)
    assert abs(r.lhs - 1.0 / 4.5) <= 1e-15
    assert r.passed


def test_poincare_floor():
    r = theta_lower_from_poincare(1.0, 1.0, 1.0)
    assert r.lhs == 0.5 and r.passed
    with pytest.raises(ValueError):
        theta_lower_from_poincare(1.0, 0.0, 1.0)


def test_moment_bound_k2_equals_sigma_form():
    """At k = 2 the projection bound collapses to 2/Sigma."""
    d = build_density(DistributionSpec.gamma(4.0), GridConfig(node_count=2048))
    ms = moments(d, kmax=4)
    parts = theta_moment_parts(ms, 2)
    assert abs(parts.bound - 2.0 / ms.sigma_stat) <= 1e-9 * parts.bound


def test_moment_bound_projection_routes_agree():
    d = build_density(DistributionSpec.gamma(4.0), GridConfig(node_count=2048))
    parts = theta_moment_parts(moments(d, kmax=3), 3)
    rel = abs(parts.e_cstar_h_sq - parts.e_cstar_h_sq_direct) / parts.e_cstar_h_sq
    assert rel <= 1e-9


def test_moment_bound_quadrature_route():
    """Direct integration of E h(S_2)^2 agrees with the closed expansion to O(h^2)."""
    d = build_density(DistributionSpec.gamma(4.0), GridConfig(node_count=4096))
    closed = theta_moment_parts(moments(d, kmax=3), 3)
    quad = theta_moment_parts_quadrature(d, 3)
    assert abs(quad.bound - closed.bound) / closed.bound <= 1e-4


def test_monotonicity_report_direction():
    good = [(1, 1.0), (2, 0.6), (3, 0.52)]
    assert all(r.passed for r in monotonicity_reports(good))
    bad = [(1, 1.0), (2, 1.2)]
    assert not monotonicity_reports(bad)[0].passed


def test_monotonicity_sequence_folds_each_law_once():
    """The running fold is the left fold convolve_self repeats for every n: the same products, bit for bit."""
    d = build_density(DistributionSpec.gamma(4.0), GridConfig(node_count=512))
    theta2 = 0.8
    want = [(n, (1.0 + (n - 1) * theta2) * jst(convolve_self(d, n)).value) for n in range(1, 9)]
    assert monotonicity_sequence(d, theta2, 8) == want


def test_subgauss_divergence_threshold():
    """t = 1/(n-1); the Gaussian pair integral exists iff 1 - 4t > 0, i.e. n >= 6."""
    spec = DistributionSpec.gaussian(1.0)
    for n, want in ((4, True), (5, True), (6, False), (8, False)):
        res = subgauss_chi2_bound(spec, 1.0, n)
        assert res.divergent is want, (n, res.growth)


@pytest.mark.parametrize("n,closed", [(6, math.sqrt(5.0)), (8, math.sqrt(7.0 / 3.0))])
def test_subgauss_matches_closed_form(n, closed):
    res = subgauss_chi2_bound(DistributionSpec.gaussian(1.0), 1.0, n)
    assert abs(res.exp_factor - closed) / closed <= 0.01


def _dense_pair_expectation(d, t):
    """wv @ exp(t (x_i - x_j)^2) @ wv with the full N x N matrix."""
    wv = d.weights() * d.values
    with np.errstate(over="ignore", invalid="ignore"):
        return float(wv @ np.exp(t * (d.nodes[:, None] - d.nodes[None, :]) ** 2) @ wv)


@pytest.mark.parametrize(
    "spec,half_width",
    [(DistributionSpec.gaussian(1.0), 12.0), (DistributionSpec.gaussian(0.7), 18.0), (DistributionSpec.uniform(-1.0, 1.0), 6.0)],
)
def test_pair_expectation_matches_dense_sum(spec, half_width):
    d = build_density(spec, GridConfig(node_count=301, half_width_sigmas=half_width))
    for t in (0.05, 0.2, 0.25, 1.0 / 3.0):
        want = _dense_pair_expectation(d, t)
        assert math.isfinite(want)
        assert abs(_pair_expectation(d, t) - want) <= 1e-12 * abs(want), t


def test_pair_expectation_overflow_is_not_finite():
    """An overflowing exponent must stay visible so that the divergence flag is set."""
    d = build_density(DistributionSpec.gaussian(1.0), GridConfig(node_count=301, half_width_sigmas=18.0))
    assert not math.isfinite(_dense_pair_expectation(d, 20.0))
    assert not math.isfinite(_pair_expectation(d, 20.0))


def test_subgauss_discrete_always_finite():
    spec = DistributionSpec.discrete([0.0, 1.0], [0.5, 0.5])
    res = subgauss_chi2_bound(spec, 0.5, 2)
    assert not res.divergent and math.isfinite(res.value)


def test_chi2_closed_special_points():
    # coincident centers: rho^2/(1 - rho^2)
    assert abs(gauss_chi2_closed((0, 0), (0, 0), 0.6, 1.0) - 0.36 / 0.64) <= 1e-12
    # unit shift, independent coordinates: e - 1
    assert abs(gauss_chi2_closed((1, 0), (0, 0), 0.0, 1.0) - (math.e - 1.0)) <= 1e-12
    # diagonal shift at rho = 1/2: (4/3) e^4 - 1
    want = 4.0 * math.exp(4.0) / 3.0 - 1.0
    assert abs(gauss_chi2_closed((1, 1), (0, 0), 0.5, 1.0) - want) <= 1e-9


def _chi2_draws(seed: int):
    """The 20 (x, y, rho, delta) draws verify_all's chi2 battery makes at seed."""
    rng = np.random.default_rng(seed)
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, 2)
        y = rng.uniform(-1.0, 1.0, 2)
        rho = float(rng.uniform(-0.6, 0.6))
        delta = float(rng.uniform(0.8, 1.5))
        yield x, y, rho, delta


def test_chi2_closed_vs_quadrature_random():
    for x, y, rho, delta in _chi2_draws(42):
        closed = gauss_chi2_closed(x, y, rho, delta)
        quadv = gauss_chi2_quad(x, y, rho, delta)
        assert abs(closed - quadv) <= 1e-6 * max(1.0, abs(closed))


# Seeds at which a window around x and y (rather than around the mass of
# f^2/g) cut off the integrand and failed verify_all's 1e-6 tolerance.
WINDOW_SEEDS = [6, 13, 59, 106, 109, 112, 114, 115, 116, 118, 120, 2122847536]


@pytest.mark.parametrize("seed", WINDOW_SEEDS)
def test_chi2_quadrature_window_holds_the_mass(seed):
    for x, y, rho, delta in _chi2_draws(seed):
        closed = gauss_chi2_closed(x, y, rho, delta)
        quadv = gauss_chi2_quad(x, y, rho, delta)
        assert abs(closed - quadv) <= 1e-6 * max(1.0, abs(closed))


# far corners of the battery's draw box, at its largest |rho| and smallest delta
CORNER_DRAWS = [((0.9, -0.9), (-0.9, 0.9), rho, 0.8) for rho in (0.6, -0.6)]


@pytest.mark.parametrize("seed", WINDOW_SEEDS + ["corners"])
def test_chi2_quadrature_default_grid_is_converged(seed, monkeypatch):
    """The CHI2_QUAD_NODES grid agrees to 1e-12 with the closed form and with 1200 x 1200 nodes.

    Error measured as the chi2 battery measures it, |q - ref| / max(|ref|, 1).
    """
    draws = list(CORNER_DRAWS if seed == "corners" else _chi2_draws(seed))
    got = [gauss_chi2_quad(*draw) for draw in draws]
    monkeypatch.setattr(inequalities, "CHI2_QUAD_NODES", 1200)
    for draw, q in zip(draws, got):
        for want in (gauss_chi2_closed(*draw), gauss_chi2_quad(*draw)):
            assert abs(q - want) <= 1e-12 * max(abs(want), 1.0), draw


def _meshgrid_chi2_quad(x, y, rho, delta):
    """gauss_chi2_quad with the full meshgrid exponent, kept as the reference."""
    nodes, width = CHI2_QUAD_NODES, CHI2_QUAD_WIDTH
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r_inv = np.linalg.inv(np.array([[1.0, rho], [rho, 1.0]]))
    det = 1 - rho * rho
    a_inv = np.linalg.inv(2.0 * r_inv - np.eye(2))
    centre = a_inv @ (2.0 * r_inv @ x - y)
    half = width * delta * np.sqrt(np.diag(a_inv))
    c0 = np.linspace(centre[0] - half[0], centre[0] + half[0], nodes)
    c1 = np.linspace(centre[1] - half[1], centre[1] + half[1], nodes)
    g0, g1 = np.meshgrid(c0, c1, indexing="ij")
    dx0 = g0 - x[0]
    dx1 = g1 - x[1]
    qf = (r_inv[0, 0] * dx0**2 + 2 * r_inv[0, 1] * dx0 * dx1 + r_inv[1, 1] * dx1**2) / delta**2
    qg = ((g0 - y[0]) ** 2 + (g1 - y[1]) ** 2) / delta**2
    integrand = np.exp(qg / 2 - qf) / (2 * math.pi * delta**2 * det)
    w0 = trapezoid_weights(nodes, c0[1] - c0[0])
    w1 = trapezoid_weights(nodes, c1[1] - c1[0])
    return float(w0 @ integrand @ w1) - 1.0


@pytest.mark.parametrize("seed", [6, 59, 106])
def test_chi2_quadrature_matches_meshgrid_formula(seed):
    """Relative error as the chi2 battery measures it, |q - ref| / max(|ref|, 1).

    Both sides run on CHI2_QUAD_NODES x CHI2_QUAD_NODES nodes: the two forms
    differ only in the arithmetic at each node, not in the nodes or weights.
    """
    for x, y, rho, delta in _chi2_draws(seed):
        want = _meshgrid_chi2_quad(x, y, rho, delta)
        got = gauss_chi2_quad(x, y, rho, delta)
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0), (x, y, rho, delta)


def test_de_bruijn_rate():
    assert abs(de_bruijn_rate(2.0, 1.0, 2) - math.log(3.0) / 2.0) <= 1e-12
    for c, d, n in ((2.0, 1.0, 2), (3.0, 1.5, 4), (2.0, 1.0, 8)):
        assert abs(de_bruijn_rate(c, d, n) - de_bruijn_rate_quad(c, d, n)) <= 1e-8
    with pytest.raises(ValueError):
        de_bruijn_rate(1.0, 2.0, 2)


def test_de_bruijn_rate_quad_matches_closed_form_on_a_grid():
    """The fixed Gauss-Legendre rule is within 1e-12 of the partial fractions, the battery's three triples included.

    The grid reaches a pole 1e-5 past u = 1 (c = 100, d = 1e-3, n = 2).
    """
    triples = [
        (c, d, n)
        for c in (1.01, 1.5, 2.0, 3.0, 10.0, 100.0)
        for d in (1e-3, 0.1, 0.5, 1.0, 1.5)
        for n in (2, 3, 4, 8, 32, 1000)
        if c > d
    ]
    assert {(2.0, 1.0, 2), (3.0, 1.5, 4), (2.0, 1.0, 8)} <= set(triples)
    for c, d, n in triples:
        assert abs(de_bruijn_rate_quad(c, d, n) - de_bruijn_rate(c, d, n)) <= 1e-12, (c, d, n)


def test_de_bruijn_rate_halves_with_n():
    """The closed rate decays like 1/n: doubling n roughly halves it."""
    v8, v16, v32 = (de_bruijn_rate(2.0, 1.0, n) for n in (8, 16, 32))
    assert abs(v16 / v8 - 0.5) <= 0.2
    assert abs(v32 / v16 - 0.5) <= 0.2


def test_eigen_tail_asymptote():
    assert eigen_tail_asymptote(1.0, 2.0) == 0.5
    with pytest.raises(ValueError):
        eigen_tail_asymptote(-1.0, 2.0)

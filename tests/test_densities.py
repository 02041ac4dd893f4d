"""Grid densities: construction, moments, convolution, score, Fisher."""

import math

import numpy as np
import pytest
from scipy import signal, special, stats

from clt_spectra import densities
from clt_spectra.cli import run
from clt_spectra import (
    DistributionSpec,
    FisherUnavailableError,
    GridConfig,
    build_density,
    convolve_self,
    fisher,
    gaussian_regularize,
    jst,
    moments,
    parse_spec,
    rescale,
    score,
    write_density_file,
)


def test_gaussian_density_matches_norm_pdf():
    d = build_density(DistributionSpec.gaussian(1.0), GridConfig(node_count=1024))
    ref = stats.norm.pdf(d.nodes)
    np.testing.assert_allclose(d.values, ref, atol=1e-12)
    assert abs(float(d.weights() @ d.values) - 1.0) <= 1e-12


def test_gaussian_mean_variance():
    d = build_density(DistributionSpec.gaussian(1.7), GridConfig(node_count=1024))
    assert abs(d.mean()) <= 1e-12
    assert abs(d.variance() - 1.7**2) <= 1e-8


def test_gamma_density_centered():
    """gamma:beta=4 is shifted to mean zero; shape comes from scipy.stats.gamma."""
    d = build_density(DistributionSpec.gamma(4.0), GridConfig(node_count=2048))
    # tail mass beyond the 12-sigma grid (~2e-9, lever arm ~10) moves the mean at 1e-7
    assert abs(d.mean()) <= 1e-6
    assert abs(d.variance() - 4.0) <= 1e-5
    ref = stats.gamma.pdf(d.nodes + 4.0, a=4.0)
    np.testing.assert_allclose(d.values, ref, atol=1e-10)


def test_uniform_density_mass():
    d = build_density(DistributionSpec.uniform(-1.0, 1.0), GridConfig(node_count=1024))
    assert abs(d.mean()) <= 1e-12
    # support jumps sit off-lattice, so the edge cells carry O(h) quadrature error
    assert abs(d.variance() - 1.0 / 3.0) <= 5e-3


@pytest.mark.parametrize(
    "text,family",
    [
        ("gaussian:sigma=1", "gaussian"),
        ("gamma:beta=4,centered=true", "gamma"),
        ("uniform:a=-1,b=1", "uniform"),
        ("mixture:w=0.5,mu=-1,sigma=1;w=0.5,mu=1,sigma=1", "mixture"),
        ("discrete:0=0.25,1=0.5,2=0.25", "discrete"),
    ],
)
def test_parse_spec_families(text, family):
    assert parse_spec(text).family == family


def test_parse_spec_rejects_unknown():
    with pytest.raises(ValueError):
        parse_spec("cauchy:gamma=1")
    with pytest.raises(ValueError):
        parse_spec("gamma:shape=4")


def test_moments_gaussian():
    d = build_density(DistributionSpec.gaussian(1.0), GridConfig(node_count=2048))
    ms = moments(d, kmax=4)
    assert abs(ms.variance - 1.0) <= 1e-8
    assert abs(ms.skewness) <= 1e-8
    # mu4/sigma^4 - gamma3^2 - 1 = 3 - 0 - 1
    assert abs(ms.sigma_stat - 2.0) <= 1e-6


def test_moments_gamma():
    """Gamma(beta): skewness 2/sqrt(beta), excess statistic 2 + 2/beta."""
    d = build_density(DistributionSpec.gamma(4.0), GridConfig(node_count=2048))
    ms = moments(d, kmax=4)
    # residual error is the truncated 12-sigma tail under an x^4 lever, not grid spacing
    assert abs(ms.skewness - 1.0) <= 1e-5
    assert abs(ms.sigma_stat - 2.5) <= 1e-4


@pytest.mark.parametrize("kmax", [0, 1, 13])
def test_moments_refuses_kmax_outside_2_to_12(kmax):
    """Sigma reads the fourth moment: kmax = 1 was accepted and then raised IndexError on central[2]."""
    d = build_density(DistributionSpec.gaussian(1.0), GridConfig(node_count=256))
    with pytest.raises(ValueError, match=r"kmax must lie in \[2, 12\]"):
        moments(d, kmax=kmax)


def test_convolution_doubles_gaussian_variance():
    d = build_density(DistributionSpec.gaussian(1.0), GridConfig(node_count=1024))
    d2 = convolve_self(d, 2)
    assert abs(d2.variance() - 2.0) <= 1e-6
    ref = stats.norm.pdf(d2.nodes, scale=math.sqrt(2.0))
    np.testing.assert_allclose(d2.values, ref, atol=1e-7)


def test_convolution_adds_gamma_shapes():
    d = build_density(DistributionSpec.gamma(4.0), GridConfig(node_count=2048))
    d3 = convolve_self(d, 3)
    # sum of three centered gamma(4) variables is a centered gamma(12)
    ref = stats.gamma.pdf(d3.nodes + 12.0, a=12.0)
    np.testing.assert_allclose(d3.values, ref, atol=2e-6)


@pytest.mark.parametrize("spec", [DistributionSpec.gamma(4.0), DistributionSpec.gaussian(1.0)])
def test_convolve_matches_scipy_fftconvolve(spec, monkeypatch):
    """Each convolution in convolve_self(d, 3) and gaussian_regularize(d, 0.5) equals scipy's direct convolution of
    the whole grids, cut at TAIL_CUT_REL of the peak and renormalized: the positive windows land at their offset."""
    d = build_density(spec, GridConfig(node_count=1024))
    calls = []
    real = densities.convolve

    def recording(d1, d2):
        out = real(d1, d2)
        calls.append((d1, d2, out))
        return out

    monkeypatch.setattr(densities, "convolve", recording)
    convolve_self(d, 3)
    gaussian_regularize(d, 0.5)
    assert len(calls) == 3
    for d1, d2, ours in calls:
        raw = signal.convolve(d1.values, d2.values, method="direct") * d1.step
        raw[raw < raw.max() * densities.TAIL_CUT_REL] = 0.0
        ref = raw / (densities.trapezoid_weights(len(raw), d1.step) @ raw)
        assert ours.values.shape == ref.shape
        assert np.abs(ours.values - ref).max() <= 1e-15 * ref.max()


@pytest.mark.parametrize("n", [8, 16])
def test_gamma_sums_have_no_holes(n):
    """A direct sum is positive wherever the true sum is, so S_8 and S_16 of gamma beta=4 at 4096 nodes have no
    zero inside their positive window, and the finite-difference J_st reads the closed 2/(4n - 2) within 1e-5."""
    d = build_density(DistributionSpec.gamma(4.0), GridConfig(node_count=4096))
    s = convolve_self(d, n)
    i0, i1 = s.positive_window()
    assert (s.values[i0 : i1 + 1] > densities.DENSITY_FLOOR).all()
    closed = 2.0 / (4 * n - 2)
    assert abs(jst(s).value - closed) <= 1e-5 * closed


def test_trapezoid_weights():
    w = densities.trapezoid_weights(5, 0.5)
    assert w.tolist() == [0.25, 0.5, 0.5, 0.5, 0.25]
    d = build_density(DistributionSpec.gaussian(1.0), GridConfig(node_count=64))
    assert np.array_equal(d.weights(), densities.trapezoid_weights(64, d.step))


def test_log_gamma_matches_scipy_gammaln():
    """Bit for bit at the integers 1..13 (the exact factorial), within 8 ulp of max(|value|, 1) on (0.05, 60).

    The ulp is taken of max(|value|, 1) because log Gamma has zeros at 1 and
    2, where both functions carry an absolute error near 1e-17. math.lgamma
    is the larger part of the 8: against mpmath it is up to 7 such ulp off,
    gammaln up to 3.
    """
    for k in range(1, 14):
        assert densities.log_gamma(k) == float(special.gammaln(k)), k
        assert densities.log_gamma(float(k)) == float(special.gammaln(k)), k
    x = np.concatenate([np.linspace(0.05, 60.0, 4000), np.random.default_rng(0).uniform(0.05, 60.0, 4000)])
    ref = special.gammaln(x)
    ours = np.array([densities.log_gamma(float(v)) for v in x])
    assert (np.abs(ours - ref) <= 8 * np.spacing(np.maximum(np.abs(ref), 1.0))).all()


def test_gauss_legendre_matches_scipy_roots_legendre():
    """The 2000-node rule: nodes within 4e-16 of scipy's, moments no worse, weights summing to 2.

    The x^(2k) moments for k < 400 are compared with 2/(2k+1): the high ones
    are carried by the nodes next to +-1, where scipy's weights are off by
    about 2e-8 relative and the Newton weights here by about 4e-12.
    """
    x, w = densities.gauss_legendre(2000)
    xs, ws = special.roots_legendre(2000)
    assert np.all(np.diff(x) > 0)
    assert np.abs(x - xs).max() <= 4e-16
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert abs(math.fsum(w) - 2.0) <= 1e-14

    def moment_errors(nodes, weights):
        return np.array([abs(math.fsum(weights * nodes ** (2 * k)) * (2 * k + 1) / 2.0 - 1.0) for k in range(400)])

    ours, scipys = moment_errors(x, w), moment_errors(xs, ws)
    assert ours.max() <= scipys.max()
    # where scipy's error is above the round-off of the sum, the rule here is no worse
    assert (ours <= np.maximum(scipys, 1e-15)).all()


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 17, 64, 65])
def test_gauss_legendre_small_rules_are_exact_to_their_degree(count):
    x, w = densities.gauss_legendre(count)
    np.testing.assert_allclose(x, special.roots_legendre(count)[0], rtol=0, atol=4e-16)
    for k in range(2 * count):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        assert abs(math.fsum(w * x**k) - exact) <= 1e-14, k


def test_gauss_legendre_refuses_an_empty_rule():
    with pytest.raises(ValueError, match="count must be >= 1"):
        densities.gauss_legendre(0)


def test_score_gaussian_is_linear():
    d = build_density(DistributionSpec.gaussian(2.0), GridConfig(node_count=1024))
    s = score(d)
    sel = s.valid & (np.abs(s.nodes) < 5.0)
    np.testing.assert_allclose(s.values[sel], -s.nodes[sel] / 4.0, atol=1e-5)


def test_fisher_gaussian():
    d = build_density(DistributionSpec.gaussian(2.0), GridConfig(node_count=2048))
    assert abs(fisher(d) - 0.25) <= 1e-6


def test_jst_gaussian_zero():
    d = build_density(DistributionSpec.gaussian(1.0), GridConfig(node_count=1024))
    assert abs(jst(d).value) <= 1e-9


def test_jst_gamma_closed_form():
    """J_st(gamma(beta)) = 2/(beta-2); beta=4 gives 1."""
    d = build_density(DistributionSpec.gamma(4.0), GridConfig(node_count=4096))
    assert abs(jst(d).value - 1.0) <= 5e-3


def test_jst_scale_invariant():
    d = build_density(DistributionSpec.gamma(4.0), GridConfig(node_count=2048))
    v0 = jst(d).value
    v1 = jst(rescale(d, 1.7)).value
    assert abs(v1 - v0) <= 1e-6


def test_fisher_refuses_uniform():
    d = build_density(DistributionSpec.uniform(-1.0, 1.0), GridConfig(node_count=1024))
    with pytest.raises(FisherUnavailableError):
        fisher(d)


def test_density_file_round_trip(tmp_path):
    d = build_density(DistributionSpec.gamma(4.0), GridConfig(node_count=2048))
    path = tmp_path / "g4.dat"
    write_density_file(str(path), d)
    d2 = build_density(parse_spec(f"file:{path}"))
    assert abs(jst(d2).value - jst(d).value) <= 1e-9


def test_regularize_records_the_mass_it_cuts():
    """The regularized density's clamped_mass adds the tail cut of the smoothing convolution (it once read 0)."""
    d = build_density(DistributionSpec.gamma(4.0), GridConfig(node_count=1024), n_hint=2)
    assert d.clamped_mass == 0.0
    reg = gaussian_regularize(d, 0.5)
    assert 0.0 < reg.clamped_mass < 1e-12


def test_regularize_refuses_grids_beyond_the_cap(capsys):
    """N + 2m nodes above MAX_GRID_NODES are refused before the kernel is allocated; the CLI exits 1."""
    d = build_density(DistributionSpec.gaussian(1.0), GridConfig(node_count=512), n_hint=2)
    half = (densities.MAX_GRID_NODES - len(d.nodes)) // 2
    ok = gaussian_regularize(d, half * d.step / 12.0 * (1 - 1e-9))
    assert len(ok.nodes) <= densities.MAX_GRID_NODES
    delta = (half + 1) * d.step / 12.0
    with pytest.raises(ValueError, match="grid overflow"):
        gaussian_regularize(d, delta)
    assert run(["density", "--spec", "gaussian:sigma=1", "--nodes", "512", "--delta", repr(delta)]) == 1
    assert "grid overflow" in capsys.readouterr().err


def test_grid_config_refuses_more_nodes_than_the_cap(capsys):
    with pytest.raises(ValueError, match="node_count"):
        GridConfig(node_count=densities.MAX_GRID_NODES + 1)
    assert GridConfig(node_count=densities.MAX_GRID_NODES).node_count == densities.MAX_GRID_NODES
    assert run(["theta", "--nodes", str(densities.MAX_GRID_NODES + 1)]) == 1
    assert "node_count" in capsys.readouterr().err


def test_regularized_pmf_mass_and_variance():
    spikes = DistributionSpec.discrete([0.0, 1.0, 2.0], [0.25, 0.5, 0.25])
    d = build_density(spikes, GridConfig(node_count=2048))
    reg = gaussian_regularize(d, 0.1)
    assert abs(float(reg.weights() @ reg.values) - 1.0) <= 1e-9
    # smoothing by N(0, delta^2) adds exactly delta^2 of variance
    assert abs((reg.variance() - d.variance()) - 0.01) <= 1e-6


@pytest.mark.parametrize(
    "argv",
    [
        ["density", "--spec", "gaussian:sigma=inf"],
        ["theta", "--spec", "gamma:beta=nan"],
        ["closed-form", "--spec", "gamma:beta=nan"],
        ["density", "--spec", "uniform:a=-inf,b=1"],
        ["density", "--spec", "mixture:w=0.5,mu=nan,sigma=1;w=0.5,mu=1,sigma=1"],
        ["theta", "--exact", "--spec", "discrete:0=0.5,inf=0.5"],
        ["theta", "--exact", "--spec", "discrete:0=0.5,1=nan"],
    ],
)
def test_cli_refuses_non_finite_spec_parameters(argv, capsys):
    """nan or inf in a spec used to run on: closed-form printed a table of "nan", density a mass of "nan"."""
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["density", "--spec", "gamma:beta=-1"], "gamma beta must be positive"),
        (["theta", "--spec", "gamma:beta=0"], "gamma beta must be positive"),
        (["closed-form", "--spec", "gaussian:sigma=-2"], "gaussian sigma must be positive"),
        (["density", "--spec", "gaussian:sigma=0"], "gaussian sigma must be positive"),
        (["density", "--spec", "uniform:a=1,b=1"], "uniform needs a < b"),
        (["density", "--spec", "mixture:w=0.5,mu=0,sigma=1;w=0,mu=1,sigma=1"], "mixture weights and sigmas"),
        (["density", "--spec", "mixture:w=0.5,mu=0,sigma=1;w=0.5,mu=1,sigma=-1"], "mixture weights and sigmas"),
        (["theta", "--exact", "--spec", "discrete:0=0.5,1=0"], "discrete probabilities must be positive"),
        (["theta", "--spec", "gamma:beta=0.25", "--n", "2", "--m", "1"],
         "gamma beta=0.25 has an unbounded density at its support edge x = -0.25,"),
        (["density", "--spec", "gamma:beta=0.5,centered=false"],
         "gamma beta=0.5 has an unbounded density at its support edge x = 0,"),
    ],
)
def test_cli_refuses_out_of_range_spec_parameters(argv, message, capsys):
    """A negative beta used to exit 1 with "math domain error"; a negative sigma printed a closed-form table.

    Gamma beta < 1 is refused by the grid commands: beta=0.25 printed theta 0.249 against 0.2 and exited 0.
    """
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_spec_checks_its_parameters_once_at_construction():
    for make in (
        lambda: DistributionSpec.gaussian(-1.0),
        lambda: DistributionSpec.gamma(0.0),
        lambda: DistributionSpec.uniform(2.0, -2.0),
        lambda: DistributionSpec.mixture([(1.0, 0.0, 0.0)]),
        lambda: DistributionSpec.discrete([0.0, 1.0], [1.0, -0.5]),
    ):
        with pytest.raises(ValueError, match="positive|a < b"):
            make()


@pytest.mark.parametrize("column", [0, 1])
def test_cli_refuses_a_density_file_with_a_nan(column, tmp_path, capsys):
    """One nan in a file slipped past the sign and mass checks, which are both False on nan."""
    x = np.linspace(-6.0, 6.0, 121)
    table = np.column_stack([x, np.exp(-x * x / 2) / math.sqrt(2 * math.pi)])
    table[60, column] = np.nan
    path = tmp_path / "nan.txt"
    np.savetxt(path, table)
    assert run(["density", "--spec", f"file:{path}"]) == 1
    assert "finite" in capsys.readouterr().err
    with pytest.raises(ValueError, match="finite"):
        densities.GridDensity(table[:, 0], table[:, 1], float(x[1] - x[0]))

"""Grid densities: construction, moments, convolution, score, Fisher."""

import math

import numpy as np
import pytest
from scipy import fft, signal, stats

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


def test_fft_length_matches_scipy_next_fast_len():
    sizes = list(range(1, 4097))
    sizes += np.random.default_rng(0).integers(4097, densities.MAX_GRID_NODES + 1, 2000).tolist()
    sizes.append(densities.MAX_GRID_NODES)
    got = [densities._fft_length(n) for n in sizes]
    want = [fft.next_fast_len(n, real=True) for n in sizes]
    assert got == want


@pytest.mark.parametrize("na,nb", [(3, 5), (512, 73), (1024, 1024), (2047, 1024), (4096, 4096)])
def test_fft_convolve_matches_scipy_fftconvolve(na, nb):
    rng = np.random.default_rng(na * nb)
    a, b = rng.random(na), rng.random(nb)
    ref = signal.fftconvolve(a, b)
    got = densities._fft_convolve(a, b)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-15 * ref.max()


@pytest.mark.parametrize("spec", [DistributionSpec.gamma(4.0), DistributionSpec.gaussian(1.0)])
def test_convolve_matches_scipy_fftconvolve(spec, monkeypatch):
    d = build_density(spec, GridConfig(node_count=1024))
    ours = convolve_self(d, 3)
    reg = gaussian_regularize(d, 0.5)
    monkeypatch.setattr(densities, "_fft_convolve", signal.fftconvolve)
    ref = convolve_self(d, 3)
    ref_reg = gaussian_regularize(d, 0.5)
    assert np.abs(ours.values - ref.values).max() <= 1e-15 * ref.values.max()
    assert np.abs(reg.values - ref_reg.values).max() <= 1e-15 * ref_reg.values.max()


def test_trapezoid_weights():
    w = densities.trapezoid_weights(5, 0.5)
    assert w.tolist() == [0.25, 0.5, 0.5, 0.5, 0.25]
    d = build_density(DistributionSpec.gaussian(1.0), GridConfig(node_count=64))
    assert np.array_equal(d.weights(), densities.trapezoid_weights(64, d.step))


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
    """The regularized density's clamped_mass adds the FFT cut of the smoothing convolution (it once read 0)."""
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

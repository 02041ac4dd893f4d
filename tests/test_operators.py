"""Conditional-expectation kernels: spectra, adjointness, trace, trivial modes."""

import tracemalloc

import numpy as np
import pytest

from clt_spectra import (
    DiscretePMF,
    DistributionSpec,
    GridConfig,
    GridDensity,
    apply_C,
    apply_Cstar,
    build_density,
    build_kernel,
    exact_operator,
    exact_spectrum,
    gram_matrix,
    spectrum,
    theta,
    theta_from_spectrum,
    trace_T,
    trapezoid_weights,
)
from clt_spectra import operators
from clt_spectra.operators import SpectrumResult, classify_trivial

CFG = GridConfig(node_count=1024)


def _gaussian_kernel(n=2, m=1, cfg=CFG):
    d = build_density(DistributionSpec.gaussian(1.0), cfg)
    return build_kernel(d, n, m, cfg)


def _dense_B(kern):
    """The dense factor dy table ds: the reference for the operator ``kern.B``."""
    return kern.dy[:, None] * kern.table * kern.ds


def test_gaussian_spectrum_geometric():
    """Gaussian eigenvalues are n^-k; n=2 gives 1, 1/2, 1/4, ..."""
    sp = spectrum(_gaussian_kernel())
    expect = 2.0 ** -np.arange(5)
    rel = np.abs(sp.eigenvalues[:5] - expect) / expect
    assert rel.max() <= 1e-3


def test_dks_top_eigenvalue():
    """Largest eigenvalue after the constant is m/n (Dembo-Kagan-Shepp)."""
    for n, m in ((2, 1), (3, 1), (3, 2)):
        sp = spectrum(_gaussian_kernel(n, m))
        assert abs(sp.eigenvalues[1] - m / n) <= 1e-3


def test_trivial_modes_flagged():
    sp = spectrum(_gaussian_kernel())
    assert sp.trivial_indices == (0, 1)
    assert sp.const_corr >= 0.9999
    assert sp.lin_corr >= 0.9999


def test_theta_gaussian_values():
    d = build_density(DistributionSpec.gaussian(1.0), CFG)
    assert abs(theta(d, 2, 1).theta - 1.0) <= 0.02
    assert abs(theta(d, 3, 1).theta - 2.0) <= 0.06


def test_adjointness():
    """<C f, g>_{p_n} = <f, C* g>_{p_m} for random polynomial test functions."""
    kern = _gaussian_kernel()
    rng = np.random.default_rng(42)
    wn = kern.total.weights() * kern.total.values
    wm = kern.summand.weights() * kern.summand.values
    for _ in range(10):
        cf = rng.standard_normal(3)
        cg = rng.standard_normal(3)
        f = np.polyval(cf, kern.summand.nodes / 2.0)
        g = np.polyval(cg, kern.total.nodes / 2.0)
        lhs = float((apply_C(kern, f).values * g) @ wn)
        rhs = float((apply_Cstar(kern, g).values * f) @ wm)
        assert abs(lhs - rhs) <= 1e-6 * max(1.0, abs(lhs))


def test_apply_c_preserves_constants():
    kern = _gaussian_kernel()
    out = apply_C(kern, np.ones_like(kern.summand.nodes))
    bulk = kern.total.values >= 1e-4 * kern.total.values.max()
    assert np.abs(out.values[bulk] - 1.0).max() <= 1e-8


def test_apply_c_contracts_linear():
    """The conditional mean of S_m given S_n = s is (m/n) s."""
    kern = _gaussian_kernel(3, 2)
    out = apply_C(kern, kern.summand.nodes)
    bulk = kern.total.values >= 1e-4 * kern.total.values.max()
    resid = out.values[bulk] - (2.0 / 3.0) * kern.total.nodes[bulk]
    assert np.abs(resid).max() <= 1e-6


def test_gram_matrix_symmetric_psd():
    g = gram_matrix(_dense_B(_gaussian_kernel()))
    assert np.abs(g - g.T).max() <= 1e-12
    w = np.linalg.eigvalsh(g)
    assert w.min() >= -1e-10


def test_trace_gaussian():
    tr = trace_T(_gaussian_kernel())
    assert abs(tr.value - 2.0) <= 1e-3
    # T = 1 + chi2 by construction
    assert abs(tr.value - 1.0 - tr.chi2) <= 1e-12


def test_trace_matches_eigenvalue_sum():
    kern = _gaussian_kernel()
    tr = trace_T(kern)
    lam = np.linalg.eigvalsh(gram_matrix(_dense_B(kern)))
    assert abs(tr.value - lam.sum()) <= 1e-8
    # the default spectrum of a block the probe does not certify still returns every eigenvalue: the full list the
    # trace is checked against
    kern = build_kernel(build_density(DistributionSpec.gamma(4.0), CFG), 3, 2, CFG)
    sp = spectrum(kern)
    assert sp.solver == "ritz" and len(sp.eigenvalues) == len(kern.summand.nodes)
    assert abs(trace_T(kern).value - sp.eigenvalues.sum()) <= 1e-8


def test_theta_from_spectrum_requires_nontrivial():
    sp = spectrum(_gaussian_kernel())
    th = theta_from_spectrum(sp)
    assert th.lambda2 < 0.5
    assert th.theta == pytest.approx(1.0, rel=0.02)


def test_classify_trivial_plain():
    lam = np.array([1.0, 0.5, 0.25, 0.125])
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0, 0.0])
    phi = np.eye(4)
    i_const, i_lin, c_corr, l_corr = classify_trivial(lam, phi, e0, e1)
    assert (i_const, i_lin) == (0, 1)
    assert c_corr >= 0.9999 and l_corr >= 0.9999


def test_classify_trivial_degenerate_rotation():
    """A repeated eigenvalue lets the solver rotate the eigenbasis arbitrarily.

    The linear mode must still be recovered from inside the rotated cluster,
    the leftover cluster member must stay non-trivial, and the reported index
    must not depend on the rotation (it did when the best-aligned member was
    reported: 1 at angle 0.3, 2 at angle 1.2).
    """
    lam = np.array([1.0, 0.5, 0.5, 0.125])
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0, 0.0])
    for angle in (0.3, 1.2):
        c, s = np.cos(angle), np.sin(angle)
        phi = np.eye(4)
        phi[:, 1] = [0.0, c, s, 0.0]
        phi[:, 2] = [0.0, -s, c, 0.0]
        i_const, i_lin, c_corr, l_corr = classify_trivial(lam, phi, e0, e1)
        assert (i_const, i_lin) == (0, 2)
        assert l_corr >= 0.9999


def test_classify_trivial_rejects_garbage():
    lam = np.array([1.0, 0.5, 0.25])
    e0 = np.array([1.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0])
    phi = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [0.0, 0.8, -0.6]])
    with pytest.raises(ValueError):
        classify_trivial(lam, phi, e0, e1)


def test_kernel_row_sums():
    kern = _gaussian_kernel()
    assert kern.row_sum_err <= 1e-6
    assert kern.masked_mass <= 1e-8


BLOCK_CASES = [
    (DistributionSpec.gamma(4.0), 2, 1),
    (DistributionSpec.gaussian(1.0), 3, 2),
    (DistributionSpec.gaussian(1.0), 4, 3),
]


@pytest.mark.parametrize("spec,n,m", BLOCK_CASES, ids=["gamma-2-1", "gaussian-3-2", "gaussian-4-3"])
def test_support_block_solve_matches_full_eigh(spec, n, m):
    """Solving only the support block of the S_m mass gives the full matrix's answer."""
    cfg = GridConfig(node_count=512)
    kern = build_kernel(build_density(spec, cfg), n, m, cfg)
    mass = kern.summand.weights() * kern.summand.values
    ny = len(mass)
    assert (mass == 0).sum() > 0  # the case has zero-mass rows to deflate
    sp = spectrum(kern)

    lam, phi = np.linalg.eigh(gram_matrix(_dense_B(kern)))
    lam, phi = np.clip(lam[::-1], 0.0, 1.0), phi[:, ::-1]
    assert len(sp.eigenvalues) == ny
    assert np.abs(sp.eigenvalues - lam).max() <= 1e-13

    e_const = np.sqrt(mass) / np.linalg.norm(np.sqrt(mass))
    e_lin = np.sqrt(mass) * (kern.summand.nodes - mass @ kern.summand.nodes)
    e_lin /= np.linalg.norm(e_lin)
    assert classify_trivial(lam, phi, e_const, e_lin)[:2] == sp.trivial_indices

    top = len(sp.eigenfunctions)
    full = phi[:, :top].T  # eigenvectors in the symmetrized basis
    block = sp.eigenfunctions * np.sqrt(mass)
    for k in range(top):
        sign = np.sign(full[k] @ block[k])
        assert np.linalg.norm(block[k] - sign * full[k]) <= 1e-12

    # Lidskii: the eigenvalue sum is the trace, up to what the clamp to [0, 1]
    # moved (2.4e-10 at gamma (2, 1), where lambda_0 comes out above 1)
    assert abs(sp.eigenvalues.sum() - lam.sum()) <= 1e-12
    assert abs(trace_T(kern).value - sp.eigenvalues.sum()) <= sp.clamp_magnitude + 1e-12


def _block_gram(op, mass):
    """The support-block Gram matrix ``_eigensystem`` solves."""
    rows = operators._hull(mass > 0)
    B = _dense_B(op)
    return gram_matrix(B[rows, operators._hull(B[rows].any(axis=0))])


def _kernel_probe(kern):
    """The matrix-free rank probe ``_eigensystem`` runs on a grid kernel's support block: L and trace(E) per pivot."""
    rows = operators._hull(kern.summand.values > 0)
    return operators._low_rank_factor(kern.gram_diag(rows), lambda p: kern.gram_row(rows, p))


def test_low_rank_factor_bounds_the_spectrum():
    """On a PSD matrix with eigenvalues 2^-k the probe stops at the trace tolerance, and Weyl holds."""
    h = 400
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((h, h)))
    lam = 0.5 ** np.arange(h)
    S = (q * lam) @ q.T
    L, traces = operators._low_rank_factor(S.diagonal(), S.__getitem__)
    assert traces[-1] <= operators.RANK_TRACE_TOL * np.trace(S)
    r = len(L)
    tail = float(np.trace(S) - np.trace(L @ L.T))  # trace(E)
    assert 0.0 <= tail <= operators.RANK_TRACE_TOL * np.trace(S)
    # the best rank-r truncation meeting the tolerance needs 46 terms; pivoting costs a few more
    assert 46 <= r <= 56
    ritz = np.concatenate((np.linalg.eigvalsh(L @ L.T)[::-1][:r], np.zeros(h - r)))
    assert np.all(ritz <= lam + 1e-15) and np.all(lam <= ritz + tail + 1e-15)
    # a full-rank matrix exhausts the pivot cap
    S = np.diag(np.linspace(1.0, 2.0, h))
    L, traces = operators._low_rank_factor(S.diagonal(), S.__getitem__)
    assert len(L) == h // 4 and traces[-1] > operators.RANK_TRACE_TOL * np.trace(S)


LOW_RANK_CASES = [(2, 1), (3, 2), (4, 3)]


@pytest.mark.parametrize("n,m", LOW_RANK_CASES, ids=["2-1", "3-2", "4-3"])
def test_certified_low_rank_solve_matches_eigh(n, m):
    """Gaussian Gram blocks have numerical rank about log eps / log(m/n): the r x r core gives eigh's answer."""
    kern = _gaussian_kernel(n, m)
    mass = kern.summand.weights() * kern.summand.values
    h = len(_block_gram(kern, mass))
    traces = _kernel_probe(kern)[1]
    assert traces[-1] <= operators.RANK_TRACE_TOL * traces[0]
    sp = spectrum(kern)
    assert sp.solver == "low-rank"
    nonzero = np.count_nonzero(sp.eigenvalues)
    assert nonzero < h // 4
    assert not sp.eigenvalues[nonzero:].any()  # the tail is exact zeros

    lam, phi = np.linalg.eigh(gram_matrix(_dense_B(kern)))
    lam, phi = np.clip(lam[::-1], 0.0, 1.0), phi[:, ::-1]
    assert len(sp.eigenvalues) == len(lam)
    assert np.abs(sp.eigenvalues - lam).max() <= 1e-13

    e_const = np.sqrt(mass) / np.linalg.norm(np.sqrt(mass))
    e_lin = np.sqrt(mass) * (kern.summand.nodes - mass @ kern.summand.nodes)
    e_lin /= np.linalg.norm(e_lin)
    assert classify_trivial(lam, phi, e_const, e_lin)[:2] == sp.trivial_indices

    # eigenfunction values below the mass floor are written as 0 on either branch
    kept = mass >= operators.EIGENFUNCTION_MASS_FLOOR * mass.max()
    block = sp.eigenfunctions * np.sqrt(mass)
    for k in range(8):
        sign = np.sign(phi[:, k] @ block[k])
        assert np.linalg.norm(block[k] - sign * phi[:, k] * kept) <= 1e-12
    assert abs(sp.eigenvalues.sum() - trace_T(kern).value) <= 1e-12


def _gamma_2048_kernel():
    cfg = GridConfig(node_count=2048)
    kern = build_kernel(build_density(DistributionSpec.gamma(4.0), cfg), 2, 1, cfg)
    return kern, kern.summand.weights() * kern.summand.values, kern.summand.nodes


def test_gamma_block_takes_the_ritz_path():
    """A gamma block fails the rank probe and takes the Krylov solve: eigvalsh plus top-K Ritz vectors give eigh's answer."""
    kern, mass, nodes = _gamma_2048_kernel()
    S = _block_gram(kern, mass)
    traces = _kernel_probe(kern)[1]
    assert traces[-1] > operators.RANK_TRACE_TOL * traces[0]
    sp = spectrum(kern)
    assert sp.solver == "ritz" and 8 <= sp.k < operators.RANK_PROBE_MAX

    lam, block_phi = np.linalg.eigh(S)
    lam = np.concatenate((np.clip(lam[::-1], 0.0, 1.0), np.zeros(len(mass) - len(lam))))
    phi = np.zeros((len(mass), len(S)))
    phi[operators._hull(mass > 0)] = block_phi[:, ::-1]
    assert np.abs(sp.eigenvalues - lam).max() <= 1e-13

    e_const = np.sqrt(mass) / np.linalg.norm(np.sqrt(mass))
    e_lin = np.sqrt(mass) * (nodes - mass @ nodes)
    e_lin /= np.linalg.norm(e_lin)
    assert classify_trivial(lam[: len(S)], phi, e_const, e_lin)[:2] == sp.trivial_indices

    kept = mass >= operators.EIGENFUNCTION_MASS_FLOOR * mass.max()
    block = sp.eigenfunctions * np.sqrt(mass)
    for k in range(8):
        sign = np.sign(phi[:, k] @ block[k])
        assert np.linalg.norm(block[k] - sign * phi[:, k] * kept) <= 1e-12
    assert abs(sp.eigenvalues.sum() - trace_T(kern).value) <= sp.clamp_magnitude + 1e-12


def _psd_with_spectrum(lam, seed=5):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(lam), len(lam))))
    return gram_matrix(q * np.sqrt(lam)), q


def test_gamma_block_shares_the_krylov_solve():
    """Gamma beta = 1 at (3, 2) on 1024 nodes takes the Krylov solve with the exact operators: its eigenvalues are
    eigvalsh's bytes, and its top 8 eigenvectors are eigh's up to sign."""
    cfg = GridConfig(node_count=1024)
    kern = build_kernel(build_density(DistributionSpec.gamma(1.0), cfg), 3, 2, cfg)
    mass = kern.summand.weights() * kern.summand.values
    sp = spectrum(kern)
    assert sp.solver == "ritz"
    S = kern.gram(operators._hull(mass > 0))
    lam = np.linalg.eigvalsh(S)
    assert np.array_equal(sp.eigenvalues[: len(S)], np.clip(lam[::-1], 0.0, 1.0))
    vals, V, solver, _ = _probe_solve(S, True, _kernel_probe(kern)[0])
    assert solver == "ritz" and np.array_equal(vals, lam)
    ref = np.linalg.eigh(S)[1][:, -8:]
    signs = np.sign(np.sum(ref * V[:, -8:], axis=0))
    assert np.abs(V[:, -8:] * signs - ref).max() <= 1e-12


def _row_probe(S):
    """The rank probe's factor L of a matrix given by its rows."""
    return operators._low_rank_factor(S.diagonal(), S.__getitem__)[0]


def _probe_solve(S, full, L):
    """The certified Krylov step on the budget and start block that the probe factor L of S gives, as ``_eigensystem``
    runs it, or None where that budget does not fit: None leaves S to eigh."""
    budget, start = operators._probe_budget(*operators._core_eigh(L), len(S))
    return operators._certified_krylov(S, full, budget, start) if operators._krylov_fits(budget, len(S)) else None


def test_ritz_gate_sends_flat_and_degenerate_spectra_to_eigh():
    """A remainder the probe cannot shrink leaves S to eigh: a flat spectrum's Krylov run does not converge, and a
    cluster wider than the probe names a budget that does not fit. Fast decay takes the Krylov solve."""
    h = 600
    flat, _ = _psd_with_spectrum(np.linspace(1.0, 2.0, h))
    degenerate, _ = _psd_with_spectrum(np.concatenate((np.full(h // 2, 0.5), np.zeros(h - h // 2))))
    assert operators._krylov_fits(operators._probe_budget(*operators._core_eigh(_row_probe(flat)), h)[0], h)
    for S in (flat, degenerate):
        assert _probe_solve(S, True, _row_probe(S)) is None

    lam_true = (1.0 + np.arange(h)) ** -6.0
    S, _ = _psd_with_spectrum(lam_true)
    lam, phi, solver, _ = _probe_solve(S, True, _row_probe(S))
    assert solver == "ritz" and phi.shape == (h, 8)
    assert np.abs(lam - np.sort(lam_true)).max() <= 1e-15
    assert np.linalg.norm(S @ phi - phi * lam[-8:], axis=0).max() <= operators.RITZ_RESID_TOL * lam[-1]
    assert np.abs(phi.T @ phi - np.eye(8)).max() <= 1e-14


def test_ritz_cross_check_rejects_a_seed_missing_an_eigenvector(monkeypatch):
    """Exact eigenpairs (small residuals) whose values skip lambda_3 are caught only by the eigvalsh cross-check, which
    leaves S to eigh; the same pairs without the skip are kept. The 300-row block fits KRYLOV_MIN_BLOCKS blocks, so
    its full solve reaches the cross-check."""
    h, k = 300, 8
    S, q = _psd_with_spectrum(0.9 ** np.arange(h))
    lam = np.linalg.eigvalsh(S)
    assert operators._probe_budget(*operators._core_eigh(_row_probe(S)), h)[0] == (12, operators.KRYLOV_MIN_BLOCKS)
    for skip in (None, 3):
        picked = [j for j in range(k + 1) if j != skip][:k][::-1]  # ascending, as _block_krylov_top returns them
        found = lam[::-1][picked], q[:, picked], float(lam[::-1][k + 1]), {}  # the grid path does not read theta_{K+1}
        monkeypatch.setattr(operators, "_block_krylov_top", lambda *args, found=found: found)
        kept = _probe_solve(S, True, _row_probe(S))
        if skip is None:
            vals, V, solver, _ = kept
            assert solver == "ritz" and np.array_equal(vals, lam) and V is found[1]
        else:
            assert kept is None


def test_krylov_certificate_catches_a_cluster_wider_than_the_block(monkeypatch):
    """A top cluster of 30 equal eigenvalues and a start block of 16 columns: the Krylov space holds only 16 of them,
    and its Ritz pairs converge (four distinct eigenvalues), so only the certificate sees the other 14. The step then
    returns None, which leaves the block to eigh on S formed afresh."""
    h = 600
    lam_true = np.concatenate(([1.0], np.full(30, 0.8), np.full(100, 0.5), np.full(h - 131, 0.2)))
    S, _ = _psd_with_spectrum(lam_true)
    certified, certify = [], operators._certify_tail
    monkeypatch.setattr(operators, "_certify_tail", lambda *args: certified.append(certify(*args)) or certified[-1])
    assert operators._certified_krylov(S, False, (16, 5), np.empty((h, 0))) is None
    assert certified == [False]


def test_krylov_budget_beyond_a_quarter_of_the_rows_goes_to_eigh(monkeypatch):
    """Where the blocks the budget names would fill more than KRYLOV_MAX_FRACTION of the rows, eigh runs at once: no
    Krylov step, no eigvalsh and no pairs. Eight generic atoms at (3, 2) have h = 36 and a budget of 3 blocks of 12."""
    pmf = DiscretePMF(tuple(np.sort(np.random.default_rng(8).uniform(0.0, 10.0, 8))), tuple(np.full(8, 0.125)))
    op = exact_operator(pmf, 3, 2)
    S = op.gram(slice(0, len(op.summand.atoms)))
    assert len(S) == 36 and not operators._krylov_fits((12, 3), len(S))

    def unreachable(*args):
        raise AssertionError("called on a budget that does not fit")

    monkeypatch.setattr(operators, "_block_krylov_top", unreachable)
    monkeypatch.setattr(np.linalg, "eigvalsh", unreachable)
    monkeypatch.setattr(type(op), "gram_pairs", unreachable)
    sp = exact_spectrum(pmf, 3, 2)
    assert sp.solver == "dense"
    assert np.array_equal(sp.eigenvalues, np.clip(np.linalg.eigh(S)[0][::-1], 0.0, 1.0))


SMALL_HEAD_CASES = [(DistributionSpec.gamma(1.0), 512, 3, 1), (DistributionSpec.uniform(-1.0, 1.0), 1024, 4, 1)]


@pytest.mark.parametrize("spec,nodes,n,m", SMALL_HEAD_CASES, ids=["gamma1-3-1-512", "uniform-4-1-1024"])
def test_small_grid_head_blocks_go_straight_to_eigh(spec, nodes, n, m, monkeypatch):
    """Gamma beta = 1 at (3, 1) on 512 nodes (h = 277) and uniform at (4, 1) on 1024 (h = 148) fit 5 and 3 blocks of
    12 columns, fewer than KRYLOV_MIN_BLOCKS, and their Krylov solves missed: a head and a full spectrum alike take
    eigh without a Krylov step and return eigh's values."""
    cfg = GridConfig(node_count=nodes)
    kern = build_kernel(build_density(spec, cfg), n, m, cfg)
    rows = operators._hull(kern.summand.values > 0)
    ref = np.clip(np.linalg.eigh(kern.gram(rows))[0][::-1], 0.0, 1.0)
    calls, krylov = [], operators._block_krylov_top
    monkeypatch.setattr(operators, "_block_krylov_top", lambda *args: calls.append(args[3]) or krylov(*args))
    head = spectrum(kern, full=False)
    assert calls == [] and head.solver == "dense"
    assert np.array_equal(head.eigenvalues[: len(ref)], ref)
    full = spectrum(kern)
    assert calls == [] and full.solver == "dense"
    assert np.array_equal(full.eigenvalues, head.eigenvalues)


def _gram_eigensolves(monkeypatch, h):
    """Count the calls of eigvalsh and of eigh on an h x h matrix (the probe's core and the Krylov step's T are
    smaller)."""
    calls = {"eigvalsh": 0, "eigh": 0}
    for name in calls:
        solve = getattr(np.linalg, name)

        def counted(a, *args, name=name, solve=solve, **kwargs):
            calls[name] += len(a) == h
            return solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_full_spectrum_without_a_ritz_result_pays_eigh_alone(monkeypatch):
    """Gamma beta = 4 at (2, 1) on 1024 nodes (h = 597) whose Krylov run misses, and gamma beta = 1 at (3, 1) on 512
    nodes (h = 277) whose budget does not fit, solve their full spectrum with one eigh and no eigvalsh: the
    cross-check runs only after a converged Krylov run."""
    monkeypatch.setattr(operators, "_block_krylov_top", lambda *args: None)
    for spec, nodes, n, m in [(DistributionSpec.gamma(4.0), 1024, 2, 1), SMALL_HEAD_CASES[0]]:
        cfg = GridConfig(node_count=nodes)
        kern = build_kernel(build_density(spec, cfg), n, m, cfg)
        rows = operators._hull(kern.summand.values > 0)
        ref = np.clip(np.linalg.eigh(kern.gram(rows))[0][::-1], 0.0, 1.0)
        with monkeypatch.context() as patch:
            calls = _gram_eigensolves(patch, rows.stop - rows.start)
            sp = spectrum(kern)
        assert sp.solver == "dense" and calls == {"eigvalsh": 0, "eigh": 1}
        assert np.array_equal(sp.eigenvalues[: len(ref)], ref)


def test_failed_grid_certificate_reforms_the_gram_matrix(monkeypatch):
    """Gamma beta = 4 at (3, 2) on 1024 nodes converges in its head solve; a certificate that runs over S, consuming
    it, and then fails leaves the block to eigh on a Gram matrix formed afresh: eigh's values of the block's Gram
    matrix."""
    kern = build_kernel(build_density(DistributionSpec.gamma(4.0), CFG), 3, 2, CFG)
    rows = operators._hull(kern.summand.values > 0)
    ref = np.clip(np.linalg.eigh(kern.gram(rows))[0][::-1], 0.0, 1.0)
    certify = operators._certify_tail
    monkeypatch.setattr(operators, "_certify_tail", lambda *args: certify(*args) and False)
    sp = spectrum(kern, full=False)
    assert sp.solver == "dense" and len(sp.eigenvalues) == len(kern.summand.nodes)
    assert np.array_equal(sp.eigenvalues[: len(ref)], ref) and not sp.eigenvalues[len(ref) :].any()


HEAD_CASES = [
    (DistributionSpec.gamma(4.0), 2, 1),
    (DistributionSpec.gamma(4.0), 3, 2),
    (DistributionSpec.gamma(4.0), 4, 3),
    (DistributionSpec.uniform(-1.0, 1.0), 4, 3),
]


@pytest.mark.parametrize("spec,n,m", HEAD_CASES, ids=["gamma-2-1", "gamma-3-2", "gamma-4-3", "uniform-4-3"])
def test_head_spectrum_takes_the_certified_krylov_solve(spec, n, m, monkeypatch):
    """Without ``full`` a block the probe does not certify takes the exact operators' certified top-K solve and never
    calls eigvalsh: its K values are eigvalsh's top K within RITZ_RESID_TOL * lambda_max, lambda_{K+1} <= tail_bound
    < lambda_K, and theta is the full solve's to 1e-12."""
    kern = build_kernel(build_density(spec, CFG), n, m, CFG)
    lam = np.linalg.eigvalsh(kern.gram(operators._hull(kern.summand.values > 0)))[::-1]
    full = theta_from_spectrum(spectrum(kern)).theta

    def unreachable(*args, **kwargs):
        raise AssertionError("eigvalsh called on a head solve")

    monkeypatch.setattr(np.linalg, "eigvalsh", unreachable)
    sp = spectrum(kern, full=False)
    K = len(sp.eigenvalues)
    assert sp.solver == "krylov" and sp.k == K >= operators.SPECTRUM_HEAD
    assert np.abs(sp.eigenvalues - np.clip(lam[:K], 0.0, 1.0)).max() <= operators.RITZ_RESID_TOL * lam[0]
    assert lam[K] <= sp.health["tail_bound"] < lam[K - 1]
    assert sp.health["ritz_residual"] <= operators.RITZ_RESID_TOL * lam[0] and sp.health["krylov_blocks"] >= 1
    assert abs(theta_from_spectrum(sp).theta - full) <= 1e-12


def test_head_certificate_sits_above_the_gap_midpoint():
    """A probe factor that holds the top 8 eigenvectors exactly (theta_K = 0.12 above a tail spread over [0, 0.1])
    converges in one block, where theta_{K+1} = 0.055 comes from the pseudo-random columns alone: the Ritz gap's
    midpoint 0.0875 lies under lambda_{K+1} = 0.1 and could not be certified. Sigma three quarters up the gap is, and
    bounds lambda_{K+1}."""
    head = np.array([1.0, 0.8, 0.6, 0.5, 0.4, 0.3, 0.2, 0.12])
    S, q = _psd_with_spectrum(np.concatenate((head, np.linspace(0.1, 0.0, 392))))
    L = np.sqrt(head)[:, None] * q[:, :8].T  # S - L^T L is the PSD tail
    vals, V, solver, record = _probe_solve(S, False, L)
    K = len(vals)
    sigma, theta_k = record["tail_bound"], vals[0]
    assert solver == "krylov" and K == 8 and record["krylov_blocks"] == 1
    assert 0.1 <= sigma < theta_k
    midpoint = theta_k - 2.0 * (theta_k - sigma)  # sigma = theta_K - (theta_K - theta_{K+1}) / 4
    assert midpoint < 0.1


PROBE_CASES = [
    (DistributionSpec.gaussian(1.0), 2, 1, True, "low-rank"),
    (DistributionSpec.gamma(4.0), 3, 2, False, "krylov"),
    (DistributionSpec.gamma(4.0), 2, 1, True, "ritz"),
    (DistributionSpec.uniform(-1.0, 1.0), 3, 2, False, "dense"),
]


def test_one_rank_probe_per_grid_spectrum(monkeypatch):
    """Whichever solver follows, a grid spectrum (512 nodes) runs the matrix-free pivoted Cholesky exactly once."""
    calls = []
    probe = operators._low_rank_factor
    monkeypatch.setattr(operators, "_low_rank_factor", lambda *args: calls.append(args) or probe(*args))
    cfg = GridConfig(node_count=512)
    for spec, n, m, full, solver in PROBE_CASES:
        calls.clear()
        sp = spectrum(build_kernel(build_density(spec, cfg), n, m, cfg), full=full)
        assert (sp.solver, len(calls)) == (solver, 1), (spec, n, m)


def test_a_block_too_small_to_probe_reaches_eigh():
    """A 3-node law gives a 3-row block, where the probe takes no pivot (a quarter of the rows is 0) and the Krylov
    budget holds no block: both solves go to eigh and classify the constant and the linear mode."""
    x = np.array([-1.0, 0.0, 1.0])
    v = np.array([0.25, 0.5, 0.25])
    kern = build_kernel(GridDensity(x, v / (trapezoid_weights(3, 1.0) @ v), 1.0), 2, 1)
    assert len(_kernel_probe(kern)[0]) == 0
    S = kern.gram(slice(0, 3))
    ref = np.clip(np.linalg.eigh(S)[0][::-1], 0.0, 1.0)
    for full in (True, False):
        sp = spectrum(kern, full=full)
        assert sp.solver == "dense" and sp.k == 3 and sp.trivial_indices == (0, 1)
        assert np.array_equal(sp.eigenvalues, ref)
    assert operators._probe_budget(*operators._core_eigh(np.empty((0, 3))), 3)[0] == (operators.KRYLOV_GUARD, 0)


def test_head_spectrum_holds_one_gram_matrix():
    """Gamma beta = 4 at (3, 2) on 1024 nodes (h = 1140): the head solve's numpy arrays peak below 1.5 h^2 doubles, S
    and the probe's arrays included, so no second h x h array exists (a dense fallback's eigenvectors would be one).
    LAPACK's own workspace is not traced; the eigvalsh test above covers that copy."""
    kern = build_kernel(build_density(DistributionSpec.gamma(4.0), CFG), 3, 2, CFG)
    h = np.count_nonzero(kern.summand.values > 0)
    tracemalloc.start()
    try:
        sp = spectrum(kern, full=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sp.solver == "krylov"
    assert 8 * h * h < peak < 1.5 * 8 * h * h


GRAM_CASES = [(spec, n, m, 512) for spec, n, m in BLOCK_CASES] + [
    (DistributionSpec.uniform(-1.0, 1.0), 4, 3, 512),  # h = 220, one strip shorter than GRAM_STRIP
    (DistributionSpec.gamma(4.0), 3, 2, 1024),  # h = 1141, five strips, the last 117 rows
]


@pytest.mark.parametrize(
    "spec,n,m,nodes", GRAM_CASES, ids=["gamma-2-1", "gaussian-3-2", "gaussian-4-3", "uniform-4-3", "gamma-3-2-1024"]
)
def test_tiled_gram_matches_the_dense_block_product(spec, n, m, nodes):
    """``gram`` gives B[rows] B[rows]^T to 1e-14 of its largest entry, exactly symmetric, and exactly 0 off its band."""
    cfg = GridConfig(node_count=nodes)
    kern = build_kernel(build_density(spec, cfg), n, m, cfg)
    rows = operators._hull(kern.summand.values > 0)
    h = rows.stop - rows.start
    if spec.family == "uniform":
        assert h < operators.GRAM_STRIP
    if nodes == 1024:
        assert h > 4 * operators.GRAM_STRIP and h % operators.GRAM_STRIP
    B = _dense_B(kern)[rows]
    ref = B @ B.T
    S = kern.gram(rows)
    assert np.abs(S - ref).max() <= 1e-14 * np.abs(ref).max()
    assert np.array_equal(S, S.T)
    span = operators._hull(kern.partial.values > 0)
    lag = np.abs(np.subtract.outer(np.arange(h), np.arange(h)))
    assert not S[lag >= span.stop - span.start].any()
    if nodes == 1024:
        assert (lag >= span.stop - span.start).sum() > h * h // 10  # the band leaves a tenth of S out


def test_tiled_gram_allocates_only_the_matrix_and_two_strips():
    """Gamma beta = 4 at (3, 2) on 1024 nodes: ``gram`` peaks below S, two strips and 1 MB; the whole h x c block of
    B's rows (16 MB) beside S would exceed that."""
    cfg = GridConfig(node_count=1024)
    kern = build_kernel(build_density(DistributionSpec.gamma(4.0), cfg), 3, 2, cfg)
    rows = operators._hull(kern.summand.values > 0)
    h = rows.stop - rows.start
    span = operators._hull(kern.partial.values > 0)
    width = span.stop - span.start
    strips = 2 * 8 * operators.GRAM_STRIP * (operators.GRAM_STRIP + width - 1)
    bound = 8 * h * h + strips + (1 << 20)
    assert 8 * h * (h + width - 1) > strips + (1 << 20)
    tracemalloc.start()
    try:
        kern.gram(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


MATRIX_FREE_CASES = [
    (DistributionSpec.gaussian(1.0), 2, 1),
    (DistributionSpec.gaussian(1.0), 3, 1),
    (DistributionSpec.gaussian(1.0), 4, 1),
    (DistributionSpec.gamma(4.0), 3, 2),
    (DistributionSpec.uniform(-1.0, 1.0), 4, 3),
]


@pytest.mark.parametrize(
    "spec,n,m", MATRIX_FREE_CASES, ids=["gaussian-2-1", "gaussian-3-1", "gaussian-4-1", "gamma-3-2", "uniform-4-3"]
)
def test_matrix_free_gram_rows_match_the_block_product(spec, n, m):
    """gram_diag and gram_row give the rows' Gram matrix without forming it.

    Compared with the block product in extended precision to 1e-15 of the
    largest diagonal entry, and with ``gram``'s tiles, whose own rounding
    reaches about 2e-15 on these blocks, to 4e-15.
    """
    cfg = GridConfig(node_count=512)
    kern = build_kernel(build_density(spec, cfg), n, m, cfg)
    rows = operators._hull(kern.summand.values > 0)
    h = rows.stop - rows.start
    if n - m >= 2:
        assert len(kern.partial.values) > h  # p_t is longer than the hull: lags are cut at both ends
    if spec.family == "uniform":
        assert not (kern.ds > 0).all()  # masked columns are 0 in ds
    block = _dense_B(kern)[rows].astype(np.longdouble)  # 80-bit on x86-64
    S = kern.gram(rows)
    scale = S.diagonal().max()

    diag = kern.gram_diag(rows)
    assert np.abs(diag - (block * block).sum(axis=1)).max() <= 1e-15 * scale
    assert np.abs(diag - S.diagonal()).max() <= 4e-15 * scale
    for p in sorted({0, 1, h // 3, h // 2, h - 2, h - 1, int(np.argmax(diag))}):
        row = kern.gram_row(rows, p)
        assert np.abs(row - block @ block[p]).max() <= 1e-15 * scale
        assert np.abs(row - S[p]).max() <= 4e-15 * scale


def test_low_rank_spectrum_never_forms_the_gram_matrix(monkeypatch):
    """A gaussian block is certified and solved from probe rows alone: 8192 nodes run in 64 MiB.

    Forming the 8192 x 8192 Gram matrix there would take about 537 MB.
    """
    cfg = GridConfig(node_count=8192)
    kern = build_kernel(build_density(DistributionSpec.gaussian(1.0), cfg), 2, 1, cfg)

    def refuse(self, *args):
        raise AssertionError("the N^2 Gram matrix was built")

    monkeypatch.setattr(operators.ConditionalKernel, "gram", refuse)
    monkeypatch.setattr(operators, "_available_bytes", lambda: 64 << 20)
    sp = spectrum(kern)
    assert sp.solver == "low-rank" and sp.k < operators.RANK_PROBE_MAX
    assert np.abs(sp.eigenvalues[:5] - 2.0 ** -np.arange(5)).max() <= 1e-3
    assert abs(sp.eigenvalues.sum() - trace_T(kern).value) <= 1e-12


def test_rank_probe_memory_is_checked_before_the_probe(monkeypatch):
    """The probe's L and core need RANK_PROBE_MAX h doubles at least; short of that it refuses before reading a row."""
    kern = _gaussian_kernel()
    h = np.count_nonzero(kern.summand.values > 0)

    def refuse(*args):
        raise AssertionError("the probe ran")

    monkeypatch.setattr(operators.ConditionalKernel, "gram_diag", refuse)
    monkeypatch.setattr(operators.ConditionalKernel, "gram_row", refuse)
    monkeypatch.setattr(operators, "_available_bytes", lambda: 8 * operators.RANK_PROBE_MAX * h - 1)
    with pytest.raises(ValueError, match="too large for memory.*rank probe"):
        spectrum(kern)


def test_eigen_residual_through_the_factor_runs_in_linear_memory(monkeypatch):
    """At 8192 nodes in 64 MiB, the top eigenpairs of ``spectrum`` satisfy ||B (B^T phi) - lambda phi|| <= 1e-9.

    The dense factor there is 8192 x 16383, about 1.07 GB.
    """
    monkeypatch.setattr(operators, "_available_bytes", lambda: 64 << 20)
    cfg = GridConfig(node_count=8192)
    kern = build_kernel(build_density(DistributionSpec.gaussian(1.0), cfg), 2, 1, cfg)
    sp = spectrum(kern)
    wy = kern.summand.weights() * kern.summand.values
    phi = (sp.eigenfunctions * np.sqrt(wy)).T
    B = kern.B
    assert B.shape == (len(kern.dy), len(kern.ds)) and B.nbytes < 64 * len(kern.ds)
    resid = np.linalg.norm(B @ (B.T @ phi) - phi * sp.eigenvalues[: phi.shape[1]], axis=0)
    assert resid.max() <= 1e-9


FACTOR_CASES = [
    (DistributionSpec.gamma(4.0), 3, 2),
    (DistributionSpec.uniform(-1.0, 1.0), 4, 3),
]


@pytest.mark.parametrize("spec,n,m", FACTOR_CASES, ids=["gamma-3-2", "uniform-4-3"])
def test_kernel_factor_matches_the_dense_factor(spec, n, m):
    """B @ z and B.T @ x equal the dense dy table ds products to 1e-14 relative, for 1-D and 8-column inputs."""
    cfg = GridConfig(node_count=512)
    kern = build_kernel(build_density(spec, cfg), n, m, cfg)
    if spec.family == "uniform":
        assert not (kern.ds > 0).all()  # masked columns are 0 in ds
    B, dense = kern.B, _dense_B(kern)
    assert B.shape == dense.shape and B.T.shape == dense.T.shape
    assert B.nbytes == kern.dy.nbytes + kern.partial.values.nbytes + kern.ds.nbytes
    rng = np.random.default_rng(11)
    Z = rng.standard_normal((dense.shape[1], 8))
    X = rng.standard_normal((dense.shape[0], 8))
    for op, ref, v in ((B, dense, Z), (B.T, dense.T, X), (B.T.T, dense, Z)):
        for arg in (v, v[:, 0], v[:, ::2]):
            want = ref @ arg
            got = op @ arg
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    with pytest.raises(ValueError, match="kernel factor"):
        B @ X


def test_kernel_factor_allocates_linear_memory():
    """B (B^T V) on 8 columns at (1024, 4, 3) allocates under 2 MB; the dense factor there takes about 96 MB."""
    kern = _gaussian_kernel(4, 3)
    ny, ns = len(kern.dy), len(kern.ds)
    V = np.random.default_rng(2).standard_normal((ny, 8))
    tracemalloc.start()
    try:
        B = kern.B
        B @ (B.T @ V)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * ny * ns > 90e6
    assert peak < 2e6


def test_refused_grid_solve_never_forms_the_gram_matrix(monkeypatch):
    """A block the matrix-free probe does not certify is refused on the eigensolve's memory before ``gram`` runs."""
    cfg = GridConfig(node_count=512)
    kern = build_kernel(build_density(DistributionSpec.gamma(4.0), cfg), 3, 2, cfg)
    h = np.count_nonzero(kern.summand.values > 0)

    def refuse(self, *args):
        raise AssertionError("the Gram matrix was formed")

    probe = 8 * operators.PROBE_COPIES * operators.RANK_PROBE_MAX * h
    assert probe < 8 * operators.SOLVE_SQUARES * h * h
    monkeypatch.setattr(operators.ConditionalKernel, "gram", refuse)
    monkeypatch.setattr(operators, "_available_bytes", lambda: probe)
    with pytest.raises(ValueError, match="too large for memory.*eigensolve"):
        spectrum(kern)


def test_grid_spectrum_reads_the_memory_left_once(monkeypatch):
    """The probe's, the solve's and the Gram matrix's checks of one gamma spectrum share one reading."""
    cfg = GridConfig(node_count=512)
    kern = build_kernel(build_density(DistributionSpec.gamma(4.0), cfg), 3, 2, cfg)
    reads, checks, available, check = [], [], operators._available_bytes, operators._check_memory
    monkeypatch.setattr(operators, "_available_bytes", lambda: reads.append(1) or available())
    monkeypatch.setattr(operators, "_check_memory", lambda *args: checks.append(args[3]) or check(*args))
    assert spectrum(kern).solver == "ritz"
    assert len(checks) == 3 and "strips" in checks[-1]
    assert len(reads) == 1
    check("grid", 3, 2, "a part", 8, "none")  # outside a solve every check reads again
    assert len(reads) == 2


def _fake_reads(monkeypatch, files):
    def read(path):
        if path not in files:
            raise OSError(path)
        return files[path]

    monkeypatch.setattr(operators, "_read", read)


MEMINFO = "MemTotal:       8000000 kB\nMemAvailable:   4000000 kB\n"


def test_available_bytes_takes_cgroup_limit_below_meminfo(monkeypatch):
    _fake_reads(monkeypatch, {
        "/proc/meminfo": MEMINFO,
        "/sys/fs/cgroup/memory.max": "3000000000\n",
        "/sys/fs/cgroup/memory.current": "1000000000\n",
    })
    assert operators._available_bytes() == 2_000_000_000


def test_available_bytes_ignores_unlimited_cgroup(monkeypatch):
    _fake_reads(monkeypatch, {
        "/proc/meminfo": MEMINFO,
        "/sys/fs/cgroup/memory.max": "max\n",
        "/sys/fs/cgroup/memory.current": "1000000000\n",
    })
    assert operators._available_bytes() == 4_000_000 * 1024


def test_available_bytes_unreadable(monkeypatch):
    _fake_reads(monkeypatch, {"/proc/meminfo": MEMINFO})
    assert operators._available_bytes() == 4_000_000 * 1024
    _fake_reads(monkeypatch, {})
    assert operators._available_bytes() is None


CONVOLUTION_CASES = [
    (DistributionSpec.gaussian(1.0), 2, 1),
    (DistributionSpec.gamma(4.0), 3, 2),
]


@pytest.mark.parametrize("spec,n,m", CONVOLUTION_CASES, ids=["gaussian-2-1", "gamma-3-2"])
def test_convolution_consumers_match_dense_kernel(monkeypatch, spec, n, m):
    """trace_T, apply_C, apply_Cstar and row_sum_err agree with the dense B/table forms, without building B."""
    cfg = GridConfig(node_count=512)
    kern = build_kernel(build_density(spec, cfg), n, m, cfg)
    rng = np.random.default_rng(7)
    f = np.polyval(rng.standard_normal(3), kern.summand.nodes / 3.0)
    g = np.polyval(rng.standard_normal(3), kern.total.nodes / 3.0)
    with monkeypatch.context() as mp:
        mp.setattr(operators, "_available_bytes", lambda: 1 << 20)
        tr = trace_T(kern).value
        cf = apply_C(kern, f)
        cstar_g = apply_Cstar(kern, g)
        row_sum_err = kern.row_sum_err
    assert "B" not in vars(kern)

    B, table = _dense_B(kern), kern.table
    wy, ws = kern.summand.weights(), kern.total.weights()
    live = kern.ds > 0
    ref_tr = float((B * B).sum())
    ref_cf = np.zeros(len(ws))
    ref_cf[live] = ((wy * kern.summand.values * f) @ table)[live] / kern.total.values[live]
    ref_cstar_g = table @ (ws * g)
    ref_rows = table @ ws
    ref_row_sum_err = float(np.abs(ref_rows[kern.summand.values > 0] - 1.0).max())

    assert abs(tr - ref_tr) <= 1e-12 * ref_tr
    assert np.abs(cf.values - ref_cf).max() <= 1e-12 * np.abs(ref_cf).max()
    assert np.array_equal(cf.valid, live)
    assert np.abs(cstar_g.values - ref_cstar_g).max() <= 1e-12 * np.abs(ref_cstar_g).max()
    assert abs(row_sum_err - ref_row_sum_err) <= 1e-12 * np.abs(ref_rows).max()


def test_table_is_a_read_only_toeplitz_view():
    kern = _gaussian_kernel()
    table, p_t = kern.table, kern.partial.values
    assert not table.flags.writeable
    assert table.base is not None
    ny, ns = len(kern.summand.nodes), len(kern.total.nodes)
    assert table.shape == (ny, ns)
    for i in (0, 1, ny // 2, ny - 1):
        assert np.array_equal(table[i, i : i + len(p_t)], p_t)
        assert not table[i, :i].any() and not table[i, i + len(p_t) :].any()


def test_theta_roundoff_below_zero_reads_as_zero():
    """A theta a few ulps below 0 is 0; one visibly below 0 is reported as it is."""

    def theta_at(lam2):
        lam = np.array([1.0, lam2, 0.5]) if lam2 > 0.5 else np.array([1.0, 0.5, lam2])
        sp = SpectrumResult(
            eigenvalues=lam, eigenfunctions=np.eye(3), y_nodes=np.arange(3.0),
            trivial_indices=(0, 2) if lam2 > 0.5 else (0, 1), const_corr=1.0, lin_corr=1.0,
            clamp_magnitude=0.0, n=2, m=1,
        )
        return theta_from_spectrum(sp).theta

    assert theta_at(0.5 + 2e-16) == 0.0
    assert theta_at(0.5 + 1e-6) == pytest.approx(-2e-6, rel=1e-5)
    assert theta_at(0.25) == 1.0

"""Exact finite-support operators and the variance decomposition."""

import math
import tracemalloc
from functools import reduce
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clt_spectra import (
    DiscretePMF,
    chain_lower,
    component_cross_moment,
    convolve_pmf,
    efron_stein,
    exact_operator,
    exact_spectrum,
    exact_theta,
    parse_spec,
    pmf_power,
    projection_inequality,
)
from clt_spectra import discrete, operators
from clt_spectra.cli import run
from clt_spectra.closed_forms import meixner_lambdas
from clt_spectra.discrete import ATOM_TOL, _coalesce
from clt_spectra.verify import PMF_LATTICE4, PMF_SIDON4, PMF_SKEW3, PMF_UNIFORM3

UNIFORM3 = DiscretePMF((0.0, 1.0, 2.0), (0.25, 0.5, 0.25))
EQUAL3 = DiscretePMF((0.0, 1.0, 2.0), (1 / 3, 1 / 3, 1 / 3))
SKEW3 = DiscretePMF((0.0, 1.0, 3.0), (0.5, 0.3, 0.2))
SIDON4 = DiscretePMF((0.0, 1.0, 2.5, 4.0), (0.28, 0.16, 0.31, 0.25))
BERNOULLI = DiscretePMF((0.0, 1.0), (0.5, 0.5))
NONLATTICE12_SPEC = (
    "discrete:0=0.11,1.37=0.09,2.9=0.1,3.3=0.08,4.71=0.07,5.2=0.09,6.05=0.08,7.43=0.09,8.1=0.07,8.88=0.08,"
    "9.5=0.07,9.97=0.07"
)
NONLATTICE12 = DiscretePMF.from_spec(parse_spec(NONLATTICE12_SPEC))
_W12 = np.random.default_rng(12).uniform(0.2, 1.0, 12)
GENERIC12 = DiscretePMF(tuple(np.sort(np.random.default_rng(12).uniform(0.0, 10.0, 12))), tuple(_W12 / _W12.sum()))
_W8 = np.random.default_rng(8).uniform(0.2, 1.0, 8)
GENERIC8 = DiscretePMF(tuple(np.sort(np.random.default_rng(8).uniform(0.0, 10.0, 8))), tuple(_W8 / _W8.sum()))


def test_pmf_validation():
    with pytest.raises(ValueError):
        DiscretePMF((0.0, 1.0), (0.7, 0.7))
    with pytest.raises(ValueError):
        DiscretePMF((0.0, 0.0), (0.5, 0.5))


def test_pmf_arrays_are_built_once_and_read_only():
    """``arrays()`` returns the same read-only float pair on every call; equality and hashing read the tuples."""
    a, p = SKEW3.arrays()
    assert SKEW3.arrays()[0] is a and SKEW3.arrays()[1] is p
    assert a.dtype == p.dtype == np.float64
    assert not a.flags.writeable and not p.flags.writeable
    assert np.array_equal(a, SKEW3.atoms) and np.array_equal(p, SKEW3.probs)
    with pytest.raises(ValueError, match="read-only"):
        a[0] = 1.0
    twin = DiscretePMF((0.0, 1.0, 3.0), (0.5, 0.3, 0.2))
    assert twin == SKEW3 and hash(twin) == hash(SKEW3) and twin.arrays()[0] is not a
    assert repr(twin) == "DiscretePMF(atoms=(0.0, 1.0, 3.0), probs=(0.5, 0.3, 0.2))"


def test_exact_spectrum_reads_the_memory_left_twice(monkeypatch):
    """One reading for the operator's pairs and one for the whole solve (the probe, the solve, the scattered Gram)."""
    reads, available = [], operators._available_bytes
    monkeypatch.setattr(operators, "_available_bytes", lambda: reads.append(1) or available())
    exact_spectrum(NONLATTICE12, 5, 4)
    assert len(reads) == 2


def test_pmf_power_binomial():
    p2 = pmf_power(DiscretePMF((0.0, 1.0), (0.5, 0.5)), 2)
    atoms, probs = p2.arrays()
    np.testing.assert_allclose(atoms, [0.0, 1.0, 2.0])
    np.testing.assert_allclose(probs, [0.25, 0.5, 0.25], atol=1e-15)


def test_sum_law_underflow_names_the_fold():
    """The binomial's end atoms fall below the smallest double first at n = 1075."""
    coin = DiscretePMF((0.0, 1.0), (0.5, 0.5))
    assert min(pmf_power(coin, 1074).probs) > 0.0
    with pytest.raises(ValueError, match=r"^the law of S_1075 underflows: 2 of its 1076 atom probabilities"):
        pmf_power(coin, 1075)


def test_convolve_pmf_merges_colliding_sums():
    p = DiscretePMF((0.0, 1.0), (0.5, 0.5))
    q = DiscretePMF((0.0, 1.0, 2.0), (0.25, 0.5, 0.25))
    r = convolve_pmf(p, q)
    atoms, probs = r.arrays()
    assert len(atoms) == 4
    assert abs(probs.sum() - 1.0) <= 1e-15


def _tol(atoms):
    """The coalescing tolerance: ATOM_TOL relative to the largest |atom| once that exceeds 1."""
    return ATOM_TOL * max(1.0, np.abs(atoms).max())


def _coalesce_by_running_sum(atoms, probs):
    """Reference: walk the sorted atoms, adding each to the group of the first atom it lies within the tolerance of."""
    order = np.argsort(atoms, kind="stable")
    tol = _tol(atoms)
    keep_a, keep_p = [], []
    for x, q in zip(atoms[order], probs[order]):
        if keep_a and x - keep_a[-1] <= tol:
            keep_p[-1] += q
        else:
            keep_a.append(x)
            keep_p.append(q)
    return np.asarray(keep_a), np.asarray(keep_p)


def test_coalesce_matches_running_sum():
    """Groups start at their first atom, so a chain spaced just under the tolerance splits every second atom; sums keep their bytes."""
    chain = 3.0 + 0.9 * _tol(3.0) * np.arange(10)
    atoms, probs = _coalesce(chain, np.full(10, 0.1))
    assert np.array_equal(atoms, chain[::2])
    assert np.array_equal(probs, np.full(5, 0.1 + 0.1))

    rng = np.random.default_rng(11)
    for trial in range(60):
        k = int(rng.integers(2, 25))
        a = np.sort(rng.choice(60, size=k, replace=False) * (0.1 if trial % 2 else 0.37))
        p = rng.dirichlet(np.ones(k))
        sums, prods = (a[:, None] + a[None, :]).ravel(), (p[:, None] * p[None, :]).ravel()
        if trial % 3 == 0:  # a chain inside the sum support
            sums = np.concatenate((sums, sums[0] + 0.9 * _tol(sums) * np.arange(1, 8)))
            prods = np.concatenate((prods, np.full(7, prods[0])))
        got, want = _coalesce(sums, prods), _coalesce_by_running_sum(sums, prods)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_equal_weight_gram_closed_form():
    """Hand-checkable 3x3 operator for uniform weights on {0,1,2}, n=2."""
    op = exact_operator(EQUAL3, 2, 1)
    target = np.array([[11.0, 5.0, 2.0], [5.0, 8.0, 5.0], [2.0, 5.0, 11.0]]) / 18.0
    assert np.abs(op.gram(slice(0, 3)) - target).max() <= 1e-14


def test_equal_weight_eigenvalues():
    sp = exact_spectrum(EQUAL3, 2)
    np.testing.assert_allclose(sp.eigenvalues, [1.0, 0.5, 1.0 / 6.0], atol=1e-12)


def test_equal_weight_theta():
    assert abs(exact_theta(EQUAL3, 2).theta - 2.0) <= 1e-12
    assert exact_theta(EQUAL3, 3).theta >= 4.0 - 1e-12


@pytest.mark.parametrize("pmf", [EQUAL3, UNIFORM3, SKEW3], ids=["equal3", "uniform3", "skew3"])
@pytest.mark.parametrize("nm", [(2, 1), (3, 1), (3, 2)])
def test_exact_dks_eigenvalue(pmf, nm):
    n, m = nm
    sp = exact_spectrum(pmf, n, m)
    assert abs(sp.eigenvalues[1] - m / n) <= 1e-12


def test_two_atom_sentinel():
    """Two atoms leave no room beyond constants and linears: theta is inf."""
    th = exact_theta(DiscretePMF((-1.0, 1.0), (0.5, 0.5)), 2)
    assert math.isinf(th.theta)
    assert th.lambda2 == 0.0


def test_sidon_degeneracy():
    """Atoms with collision-free pairwise sums pin an eigenspace at m/n.

    Conditioned on S_2 = u + v with u != v the summand is uniform on {u, v}
    whatever the weights are, so lambda_2 = m/n exactly, the eigenvalue has
    multiplicity 2 and theta collapses to 0.
    """
    sp = exact_spectrum(SIDON4, 2, 1)
    count = int(np.sum(np.abs(sp.eigenvalues - 0.5) <= 1e-12))
    assert count == 2
    th = exact_theta(SIDON4, 2)
    assert abs(th.theta) <= 1e-12
    assert abs(th.lambda2 - 0.5) <= 1e-12


def _difference_table(p, n, m):
    """Reference: P(S_{n-m} = s_k - y_i), every difference s_k - y_i looked up in the S_{n-m} support."""
    pm, pt = pmf_power(p, m), pmf_power(p, n - m)
    ay, _ = pm.arrays()
    at, qt = pt.arrays()
    an, _ = convolve_pmf(pm, pt).arrays()
    diffs = an[None, :] - ay[:, None]
    idx = np.clip(np.searchsorted(at, diffs - ATOM_TOL), 0, len(at) - 1)
    return np.where(np.abs(at[idx] - diffs) <= ATOM_TOL, qt[idx], 0.0)


EXACT_CASES = [(NONLATTICE12, 5, 4)] + [
    (pmf, n, m)
    for pmf in (PMF_UNIFORM3, PMF_SKEW3, PMF_LATTICE4, PMF_SIDON4)
    for n, m in ((2, 1), (3, 2), (5, 4))
]


def _dense(op, vals):
    """Reference: ``vals`` at the sum-index pairs scattered into a zero (|S_m|, |S_n|) matrix."""
    out = np.zeros((len(op.summand.atoms), len(op.total.atoms)))
    out[np.arange(len(out))[:, None], op.index] = vals
    return out


def _dense_Cstar(op):
    """Reference: the dense adjoint, C*[i, k] = P(S_{n-m} = s_k - y_i)."""
    return _dense(op, np.broadcast_to(op.partial.arrays()[1], op.index.shape))


@pytest.mark.parametrize("pmf, n, m", EXACT_CASES)
def test_scattered_operator_matches_difference_table(pmf, n, m):
    """Scattering each S_{n-m} atom into its sum column gives the difference lookup's table and B bit for bit."""
    op = exact_operator(pmf, n, m)
    table = _difference_table(pmf, n, m)
    _, qy = op.summand.arrays()
    _, qn = op.total.arrays()
    assert np.array_equal(_dense_Cstar(op), table)
    assert np.array_equal(_dense(op, op.values), np.sqrt(qy)[:, None] * table / np.sqrt(qn)[None, :])


@pytest.mark.parametrize("pmf, n, m", EXACT_CASES)
def test_pair_maps_match_the_dense_product(pmf, n, m):
    """C and C* applied from the pairs are the dense products to 1e-15, and adjoint in L2(S_n) and L2(S_m)."""
    op = exact_operator(pmf, n, m)
    _, qy = op.summand.arrays()
    _, qn = op.total.arrays()
    Cstar = _dense_Cstar(op)
    C = (Cstar * qy[:, None]).T / qn[:, None]
    rng = np.random.default_rng(n * 10 + m)
    for _ in range(3):
        f, g = rng.standard_normal(len(qy)), rng.standard_normal(len(qn))
        Cf, Cstar_g = op.apply_C(f), op.apply_Cstar(g)
        assert np.abs(Cf - C @ f).max() <= 1e-15
        assert np.abs(Cstar_g - Cstar @ g).max() <= 1e-15
        lhs, rhs = float((qn * g) @ Cf), float((qy * Cstar_g) @ f)
        assert abs(lhs - rhs) <= 1e-14


def _sizes(pmf, n, m):
    """|S_m|, |S_{n-m}|, |S_n| and the column-sharing pair count P of the exact operator."""
    op = exact_operator(pmf, n, m)
    counts = np.bincount(op.index.ravel(), minlength=len(op.total.atoms))
    return len(op.summand.atoms), len(op.partial.atoms), len(op.total.atoms), int(counts @ counts)


def test_exact_operator_refuses_beyond_memory(monkeypatch, capsys):
    """The sum-index pairs are checked against available memory before they are looked up; the CLI exits 1."""
    ny, nt, _, _ = _sizes(NONLATTICE12, 5, 4)
    monkeypatch.setattr(operators, "_available_bytes", lambda: 32 * ny * nt - 1)

    def unreachable(*args):
        raise AssertionError("the sum lookup ran before the memory check")

    monkeypatch.setattr(discrete, "_sum_index", unreachable)
    with pytest.raises(ValueError, match="exact operator too large for memory"):
        exact_operator(NONLATTICE12, 5, 4)
    argv = ["--exact", "--spec", NONLATTICE12_SPEC, "--n", "5", "--m", "4"]
    assert run(["theta", *argv]) == 1
    assert run(["trace", *argv]) == 1
    assert "too large for memory" in capsys.readouterr().err


def test_exact_memory_guard_reserves_the_solve_only_where_it_runs(monkeypatch, capsys):
    """Room for the pairs and the scattered Gram matrix but not for the eigensolve: the trace runs, the spectrum is refused.

    The pairs take 8 * 4 |S_m| |S_{n-m}| bytes, the scatter 8 (5 P + |S_m|^2), the solve 8 * SOLVE_SQUARES |S_m|^2.
    """
    ny, nt, _, pairs = _sizes(NONLATTICE12, 5, 4)
    scatter, solve = 8 * (5 * pairs + ny * ny), 8 * operators.SOLVE_SQUARES * ny * ny
    assert 32 * ny * nt < scatter < solve
    monkeypatch.setattr(operators, "_available_bytes", lambda: solve - 1)
    op = exact_operator(NONLATTICE12, 5, 4)
    assert op.gram(slice(0, ny)).shape == (ny, ny)
    with pytest.raises(ValueError, match="exact operator too large for memory.*eigensolve"):
        exact_spectrum(NONLATTICE12, 5, 4)
    argv = ["--exact", "--spec", NONLATTICE12_SPEC, "--n", "5", "--m", "4"]
    assert run(["trace", *argv]) == 0
    assert run(["theta", *argv]) == 1
    assert "too large for memory" in capsys.readouterr().err


def test_exact_spectrum_needs_no_room_for_the_dense_table_and_B(monkeypatch):
    """With less memory than the dense table and B take, the spectrum runs on the pairs.

    Twelve generic real atoms never collide: at (5, 4) the table is 1365 x 4368.
    """
    ny, _, ns, _ = _sizes(GENERIC12, 5, 4)
    assert (ny, ns) == (1365, 4368)
    solve = 8 * operators.SOLVE_SQUARES * ny * ny
    assert solve < 16 * ny * ns
    monkeypatch.setattr(operators, "_available_bytes", lambda: solve)
    sp = exact_spectrum(GENERIC12, 5, 4)
    assert sp.eigenvalues[sp.trivial_indices[1]] == pytest.approx(0.8, abs=1e-12)


def test_generic_block_takes_the_certified_krylov_path():
    """No two sums of the 12 atoms coincide, so the (5, 4) block (h = 1365) has the eigenvalues C(4, k) / C(5, k)
    with multiplicities 1, 11, 66, 286, 1001. The certified block Krylov solve returns eigh's top K = 12 (the constant
    and the whole m/n cluster), eigh's trivial indices and cluster eigenspaces, theta = 0, and a tail bound that eigh's
    13th eigenvalue stays below."""
    op = exact_operator(GENERIC12, 5, 4)
    ay, qy = op.summand.arrays()
    S = op.gram(slice(0, len(ay)))
    lam, U = np.linalg.eigh(S)
    lam, U = lam[::-1], U[:, ::-1]
    sp = exact_spectrum(GENERIC12, 5, 4)
    assert sp.solver == "krylov" and sp.k == len(sp.eigenvalues) == 12
    assert np.abs(sp.eigenvalues - np.clip(lam[:12], 0.0, 1.0)).max() <= 1e-13
    assert np.count_nonzero(np.abs(sp.eigenvalues - 0.8) <= 1e-12) == 11
    assert operators.theta_from_spectrum(sp).theta == 0.0
    assert lam[12] < sp.health["tail_bound"] < lam[11]

    e_const = np.sqrt(qy) / np.linalg.norm(np.sqrt(qy))
    e_lin = np.sqrt(qy) * (ay - qy @ ay)
    e_lin /= np.linalg.norm(e_lin)
    assert operators.classify_trivial(lam, U, e_const, e_lin)[:2] == sp.trivial_indices == (0, 11)

    # the head eigenfunctions lie in eigh's cluster eigenspaces: the constant mode, then the m/n cluster
    block = sp.eigenfunctions.T * np.sqrt(qy)[:, None]
    for k in range(len(block.T)):
        cluster = U[:, :1] if k == 0 else U[:, 1:12]
        assert np.linalg.norm(block[:, k] - cluster @ (cluster.T @ block[:, k])) <= 1e-12

    vals, V, solver, record = operators._certified_krylov(S.copy(), False, (16, 5), np.empty((len(S), 0)))
    assert solver == "krylov" and record.keys() == {"tail_bound", "ritz_residual", "krylov_blocks"}
    assert record["krylov_blocks"] == sp.health["krylov_blocks"]
    assert abs(record["tail_bound"] - sp.health["tail_bound"]) <= 1e-13
    assert np.linalg.norm(S @ V - V * vals, axis=0).max() <= operators.RITZ_RESID_TOL * vals[-1]
    for cluster in (slice(11, 12), slice(0, 11)):  # ascending: the m/n cluster, then the constant
        mine, ref = V[:, cluster], U[:, 11 - cluster.stop + 1 : 12 - cluster.start][:, ::-1]
        assert np.linalg.norm(ref - mine @ (mine.T @ ref)) <= 1e-12
        assert np.linalg.norm(mine - ref @ (ref.T @ mine)) <= 1e-12


GENERIC12_SPEC = (
    "discrete:0.02827=0.061,1.15079=0.145,1.79291=0.053,1.8932=0.052,2.30541=0.073,2.50824=0.058,3.49889=0.112,"
    "5.41466=0.044,6.70446=0.139,8.5813=0.135,8.96309=0.031,9.46753=0.096"
)


def test_exact_head_solve_peaks_below_three_quarters_of_the_gram_matrix():
    """The generic 12-atom (5, 4) block (h = 1365) is solved from its pairs: the traced peak of the whole spectrum
    stays below 0.75 * 8 h^2 bytes, where the Gram matrix alone took 8 h^2 and the call peaked at 1.33 * 8 h^2."""
    h = len(pmf_power(GENERIC12, 4).atoms)
    sp, peak = _traced_peak(lambda: exact_spectrum(GENERIC12, 5, 4))
    assert sp.solver == "krylov" and h == 1365
    assert peak < 0.75 * 8 * h * h


def test_exact_head_solve_matches_the_dense_gram_path(monkeypatch):
    """Products and block rows from the pairs give the dense Gram matrix's head solve: eigenvalues and tail bound within
    1e-13, the same K, solver, block count and trivial indices."""
    sp = exact_spectrum(GENERIC12, 5, 4)
    # the dense Gram matrix's path: the same solve on the formed S
    monkeypatch.setattr(discrete.ExactOperator, "gram_pairs", lambda self, rows, budget, avail: self.gram(rows, avail))
    ref = exact_spectrum(GENERIC12, 5, 4)
    assert (sp.solver, sp.k, sp.trivial_indices) == (ref.solver, ref.k, ref.trivial_indices) == ("krylov", 12, (0, 11))
    assert len(sp.eigenvalues) == len(ref.eigenvalues)
    assert np.abs(sp.eigenvalues - ref.eigenvalues).max() <= 1e-13
    assert abs(sp.health["tail_bound"] - ref.health["tail_bound"]) <= 1e-13
    assert sp.health["krylov_blocks"] == ref.health["krylov_blocks"]


@pytest.mark.parametrize("pmf, n, m", [(GENERIC12, 5, 4), (NONLATTICE12, 5, 4), (PMF_SIDON4, 5, 4), (GENERIC8, 3, 2)])
def test_exact_gram_block_rows_match_the_scattered_gram(pmf, n, m):
    """Block rows built from the column-sharing pairs are the scattered Gram matrix's bytes, for every row block the
    certificate reads, an inner block row, and an inner row range; X @ S from the pairs is the dense product to 1e-15."""
    op = exact_operator(pmf, n, m)
    ny, _, ns, pairs = _sizes(pmf, n, m)
    assert pairs <= ny * ns  # scattered, not the dense block product
    for rows in (slice(0, ny), slice(1, ny - 1)):
        S, G = op.gram(rows), op.gram_pairs(rows, (4, 1))
        h = len(S)
        assert G.shape == S.shape
        for a in range(0, h, operators.CHOLESKY_BLOCK):
            b = min(a + operators.CHOLESKY_BLOCK, h)
            out = np.full((b - a, b), np.nan)
            assert G.block_row(a, b, out) is out and np.array_equal(out, S[a:b, :b])
        a, b = h // 3, h // 2
        assert np.array_equal(G.block_row(a, b, np.empty((b - a, b))), S[a:b, :b])
        X = np.random.default_rng(h).standard_normal((5, h))
        assert np.abs(X @ G - X @ S).max() <= 1e-15 * np.abs(X).sum(axis=1).max()


def test_failed_exact_certificate_falls_back_to_eigh(monkeypatch):
    """A certificate asked for a bound below lambda_13 = 0.6 fails on the pairs' block rows; the block then forms S
    and returns eigh's bytes, as an exact block without a budget does."""
    certified, certify = [], operators._certify_tail
    monkeypatch.setattr(
        operators, "_certify_tail", lambda S, V, ritz, sigma: certified.append(certify(S, V, ritz, 0.5)) or certified[-1]
    )
    sp = exact_spectrum(GENERIC12, 5, 4)
    assert certified == [False]
    op = exact_operator(GENERIC12, 5, 4)
    lam = np.linalg.eigh(op.gram(slice(0, len(op.summand.atoms))))[0][::-1]
    assert sp.solver == "dense" and sp.health.keys() == {"support_size"}
    assert np.array_equal(sp.eigenvalues, np.clip(lam, 0.0, 1.0))


def test_exact_head_solve_runs_where_the_dense_fallback_would_not_fit(monkeypatch, capsys):
    """With room for the pairs' solve but not the dense eigensolve, the head solve runs without forming S; a block that
    reaches the fallback is refused before S exists, with the dense path's exit-1 message. Without room for the head
    solve's own factor rows, it is refused before it starts."""
    pmf = DiscretePMF.from_spec(parse_spec(GENERIC12_SPEC))
    h = len(pmf_power(pmf, 4).atoms)
    monkeypatch.setattr(operators, "_available_bytes", lambda: 8 * operators.SOLVE_SQUARES * h * h - 1)
    gram = discrete.ExactOperator.gram

    def refuse(self, *args):
        raise AssertionError("the Gram matrix was formed")

    monkeypatch.setattr(discrete.ExactOperator, "gram", refuse)
    assert exact_spectrum(pmf, 5, 4).solver == "krylov"
    argv = ["theta", "--exact", "--spec", GENERIC12_SPEC, "--n", "5", "--m", "4"]
    assert run(argv) == 0
    monkeypatch.setattr(operators, "_certify_tail", lambda *args: False)
    with pytest.raises(ValueError, match="exact operator too large for memory.*eigensolve of a 1365 x 1365"):
        exact_spectrum(pmf, 5, 4)
    capsys.readouterr()
    assert run(argv) == 1
    assert "too large for memory" in capsys.readouterr().err
    monkeypatch.setattr(discrete.ExactOperator, "gram", gram)
    monkeypatch.setattr(operators, "_available_bytes", lambda: 8 * operators.SOLVE_SQUARES * h * h)
    assert exact_spectrum(pmf, 5, 4).solver == "dense"
    monkeypatch.setattr(operators, "_available_bytes", lambda: 8 * h * h // 2)  # below the factor rows alone
    with pytest.raises(ValueError, match="exact operator too large for memory.*certified Krylov solve of 1365 rows"):
        exact_spectrum(pmf, 5, 4)


def test_generic_krylov_spectrum_repeats_its_bytes():
    first, second = exact_spectrum(GENERIC12, 5, 4), exact_spectrum(GENERIC12, 5, 4)
    assert first.solver == "krylov"
    assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
    assert first.eigenfunctions.tobytes() == second.eigenfunctions.tobytes()
    assert first.health == second.health and first.trivial_indices == second.trivial_indices


def test_krylov_budget_only_where_no_sums_coincide():
    """Distinct n-sums bound the Krylov solve at m + 1 blocks, as wide as the first clusters holding 8 eigenvalues plus
    the guard; coinciding sums (a lattice) give no budget."""
    assert discrete._krylov_budget(12, 5, 4, math.comb(16, 5), 8) == (12 + operators.KRYLOV_GUARD, 5)
    assert discrete._krylov_budget(7, 6, 5, math.comb(12, 6), 8) == (1 + 6 + 21 + operators.KRYLOV_GUARD, 6)
    assert discrete._krylov_budget(12, 5, 4, math.comb(16, 5) - 1, 8) is None
    assert discrete._krylov_budget(1, 3, 2, 1, 8) is None
    op = exact_operator(NONLATTICE12, 5, 4)  # decimal atoms: some sums coincide
    assert discrete._krylov_budget(12, 5, 4, len(op.total.atoms), 8) is None


def test_exact_blocks_never_call_eigvalsh(monkeypatch):
    """Lattice blocks (h = 64 and 130 here) go straight to eigh and generic ones take the Krylov path: neither calls
    eigvalsh, which only the grid's cross-check of its Krylov result reads."""

    def unreachable(*args, **kwargs):
        raise AssertionError("eigvalsh called on an exact block")

    lattice = DiscretePMF.from_spec(parse_spec("discrete:0=0.2,1=0.1,3=0.15,4=0.1,7=0.2,9=0.1,11=0.15"))
    monkeypatch.setattr(np.linalg, "eigvalsh", unreachable)
    solvers = []
    for pmf, n, m in [(lattice, 7, 6), (lattice, 13, 12), (GENERIC12, 5, 4)]:
        sp = exact_spectrum(pmf, n, m)
        solvers.append((len(pmf_power(pmf, m).atoms) >= 55, sp.solver))
    assert solvers == [(True, "dense"), (True, "dense"), (True, "krylov")]


def test_exact_spectra_run_no_rank_probe(monkeypatch):
    """An exact block goes straight to its Krylov budget or to eigh: no pivoted Cholesky runs on any of them."""

    def unreachable(*args):
        raise AssertionError("rank probe run on an exact block")

    monkeypatch.setattr(operators, "_low_rank_factor", unreachable)
    lattice = DiscretePMF.from_spec(parse_spec("discrete:0=0.2,1=0.1,3=0.15,4=0.1,7=0.2,9=0.1,11=0.15"))
    solvers = [exact_spectrum(pmf, n, m).solver for pmf, n, m in [(lattice, 7, 6), (GENERIC12, 5, 4), (BERNOULLI, 3, 2)]]
    assert solvers == ["dense", "krylov", "dense"]


@pytest.mark.parametrize("n, m", [(1000, 100), (1070, 200), (1000, 60)])
def test_bernoulli_exact_spectrum_is_the_binomial_meixner_spectrum(n, m):
    """Bernoulli(1/2) summands are binomial Meixner laws with v2 = -1: the exact head is meixner_lambdas(-1, n, m, 8)
    to 1e-14 and theta = (n - m)/(m - 1) to 1e-12 relative. These blocks (h = m + 1) go to eigh."""
    sp = exact_spectrum(BERNOULLI, n, m)
    assert sp.solver == "dense" and len(sp.eigenvalues) == m + 1
    assert np.abs(sp.eigenvalues[:8] - meixner_lambdas(-1.0, n, m, 8)).max() <= 1e-14
    want = (n - m) / (m - 1)
    assert abs(operators.theta_from_spectrum(sp).theta - want) <= 1e-12 * want


@pytest.mark.parametrize("pmf, n, m", EXACT_CASES)
def test_exact_gram_equals_the_dense_product(pmf, n, m, monkeypatch):
    """The Gram matrix from the pairs is B B^T to 1e-15 and exactly symmetric.

    Scattered when the column-sharing pairs number at most the dense block's
    entries; otherwise the dense block product, which gives B B^T's bytes.
    """
    op = exact_operator(pmf, n, m)
    ny, _, ns, pairs = _sizes(pmf, n, m)
    products = []
    monkeypatch.setattr(discrete, "gram_matrix", lambda b: products.append(b) or operators.gram_matrix(b))
    S = op.gram(slice(0, ny))
    B = _dense(op, op.values)
    assert len(products) == (0 if pairs <= B.size else 1)
    assert np.abs(S - B @ B.T).max() <= 1e-15
    assert np.array_equal(S, S.T)
    if products:
        assert np.array_equal(S, operators.gram_matrix(B))
    rows = slice(1, ny - 1)  # an inner row range reads its own rows and columns
    assert np.abs(op.gram(rows) - B[rows] @ B[rows].T).max() <= 1e-15


def test_exact_cases_take_both_gram_builds():
    """Lattice supports pile their sums into few columns and take the dense product; the rest are scattered."""
    sides = {}
    for pmf, n, m in EXACT_CASES:
        ny, _, ns, pairs = _sizes(pmf, n, m)
        sides[(pmf.atoms, n, m)] = pairs <= ny * ns
    assert set(sides.values()) == {True, False}
    assert not sides[(PMF_UNIFORM3.atoms, 2, 1)] and sides[(NONLATTICE12.atoms, 5, 4)]


@pytest.mark.parametrize("pmf", sorted({pmf for pmf, _, _ in EXACT_CASES}, key=lambda p: p.atoms))
def test_product_grid_index_matches_the_raw_sum_lookup(pmf):
    """The index of y_1 + ... + y_k built level by level, and h read through the S_{k-1} x atoms table at the
    S_{k-1} index one last argument at a time, both give h at the raw float sum's index in the S_k support."""
    a, _ = pmf.arrays()
    laws = discrete._sum_laws(pmf, 5)
    rng = np.random.default_rng(len(a))
    for k in range(1, 6):
        assert laws[k] == pmf_power(pmf, k)
        h = rng.standard_normal(len(laws[k].atoms))
        lead = np.zeros(())
        for _ in range(k - 1):
            lead = np.add.outer(lead, a)
        raw = h[discrete._sum_index(lead, a, laws[k].arrays()[0])]
        index = discrete._grid_index(laws[: k + 1])
        assert index.shape == (len(a),) * k
        assert np.array_equal(h[index], raw)
        table = h[discrete._sum_index(laws[k - 1].arrays()[0], a, laws[k].arrays()[0])]
        lead_index = discrete._grid_index(laws[:k])
        for j in range(len(a)):
            assert np.array_equal(table[:, j][lead_index], raw[..., j])


def test_exact_adjointness():
    op = exact_operator(SKEW3, 3, 2)
    _, probs_n = op.total.arrays()
    _, probs_m = op.summand.arrays()
    rng = np.random.default_rng(42)
    for _ in range(5):
        f = rng.standard_normal(len(probs_m))
        g = rng.standard_normal(len(probs_n))
        lhs = float((op.apply_C(f) * g) @ probs_n)
        rhs = float((f * op.apply_Cstar(g)) @ probs_m)
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def _poly_h(p, k):
    atoms, _ = pmf_power(p, k).arrays()
    h = atoms**3 - 2.0 * atoms**2 + atoms + 0.5 * np.sin(atoms)
    return h / np.abs(h).max()


@pytest.mark.parametrize("pmf", [EQUAL3, UNIFORM3, SKEW3], ids=["equal3", "uniform3", "skew3"])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_variance_identity(pmf, k):
    """Var h(S_k) = sum_r C(k,r) E h_r^2 with machine-precision residual."""
    dec = efron_stein(_poly_h(pmf, k), pmf, k)
    assert abs(dec.identity_residual) <= 1e-12


def _subset_efron_stein(h, p, k):
    """Reference: the mean and components by inclusion-exclusion over every conditioning subset.

    g_t(v) = E h(v + S_{k-t}) - Eh on the S_t support, and the order-r
    component is sum over subsets T of the r arguments of
    (-1)^(r - |T|) g_|T|(sum of the arguments in T).
    """
    powers = [pmf_power(p, t).arrays() for t in range(k + 1)]
    a, _ = p.arrays()
    ak = powers[k][0]
    d = len(a)

    def index(support, values):
        idx = np.clip(np.searchsorted(support, values - ATOM_TOL), 0, len(support) - 1)
        assert (np.abs(support[idx] - values) <= ATOM_TOL).all()
        return idx

    g = [(h[index(ak, at[:, None] + ar[None, :])] * pr).sum(axis=1) for (at, _), (ar, pr) in zip(powers, powers[::-1])]
    mean = float(g[0][0])
    components = {}
    for r in range(1, k + 1):
        comp = np.zeros((d,) * r)
        for t in range(r + 1):
            for subset in combinations(range(r), t):
                s = np.zeros((1,) * r)
                for i in subset:
                    s = s + a.reshape((1,) * i + (d,) + (1,) * (r - i - 1))
                comp = comp + (-1) ** (r - t) * (g[t][index(powers[t][0], s)] - mean)
        components[r] = comp
    return mean, components


@pytest.mark.parametrize("pmf", [EQUAL3, SKEW3, SIDON4, PMF_LATTICE4], ids=["equal3", "skew3", "sidon4", "lattice4"])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_product_form_matches_subset_sum(pmf, k):
    """The Hoeffding product (I - E_1)...(I - E_r) G_r gives the subset inclusion-exclusion components."""
    rng = np.random.default_rng(k)
    for h in (_poly_h(pmf, k), rng.uniform(-1.0, 1.0, len(pmf_power(pmf, k).atoms))):
        dec = efron_stein(h, pmf, k)
        mean, components = _subset_efron_stein(h, pmf, k)
        assert abs(dec.mean_shift - mean) <= 1e-14
        assert sorted(dec.components) == sorted(components)
        for r, comp in components.items():
            assert dec.components[r].shape == comp.shape
            assert np.abs(dec.components[r] - comp).max() <= 1e-14


def test_component_orthogonality():
    """Components of different order, or with different argument sets, are uncorrelated."""
    dec = efron_stein(_poly_h(UNIFORM3, 3), UNIFORM3, 3)
    assert abs(component_cross_moment(dec, UNIFORM3, 1, 2, (0,), (0, 1))) <= 1e-12
    assert abs(component_cross_moment(dec, UNIFORM3, 1, 1, (0,), (1,))) <= 1e-12
    assert abs(component_cross_moment(dec, UNIFORM3, 2, 3, (0, 1), (0, 1, 2))) <= 1e-12


def _cube_on_uniform3():
    atoms, _ = pmf_power(UNIFORM3, 3).arrays()
    return efron_stein(atoms**3, UNIFORM3, 3)


def test_cross_moment_refuses_a_slot_repeated_within_a_tuple():
    """(0, 0) names one summand twice; it once read the diagonal of h_2 and returned 81.0."""
    dec = _cube_on_uniform3()
    for args_r, args_t in (((0, 0), (1, 2)), ((0, 1), (2, 2))):
        with pytest.raises(ValueError, match="slot repeats"):
            component_cross_moment(dec, UNIFORM3, 2, 2, args_r, args_t)


@pytest.mark.parametrize("r, t", [(4, 1), (1, 4), (0, 1)])
def test_cross_moment_refuses_an_order_outside_the_decomposition(r, t):
    """An order above k once raised a bare KeyError from the components mapping."""
    with pytest.raises(ValueError, match=r"orders must lie in 1\.\.3"):
        component_cross_moment(_cube_on_uniform3(), UNIFORM3, r, t, (0,) * r, tuple(range(1, t + 1)))


def test_cross_moment_open_grids_match_the_full_index():
    """Broadcast open grids give the full meshgrid's value bit for bit, for slots in any order and order k too."""
    dec = _cube_on_uniform3()
    a, prob = UNIFORM3.arrays()
    for r, t, args_r, args_t in [(1, 2, (2,), (2, 0)), (2, 2, (1, 0), (0, 2)), (3, 3, (2, 0, 1), (0, 1, 2))]:
        slots = sorted(set(args_r) | set(args_t))
        u = len(slots)
        grids = np.meshgrid(*([np.arange(len(a))] * u), indexing="ij")
        full_r = dec.components[r][tuple(grids[slots.index(s)] for s in args_r)]
        full_t = dec.components[t][tuple(grids[slots.index(s)] for s in args_t)]
        weight = np.ones((1,) * u)
        for i in range(u):
            weight = weight * prob.reshape((1,) * i + (-1,) + (1,) * (u - i - 1))
        assert component_cross_moment(dec, UNIFORM3, r, t, args_r, args_t) == float((weight * full_r * full_t).sum())


def test_cross_moment_builds_no_full_integer_index():
    """u = 4 slots on 20 atoms: u full meshgrid index arrays alone would take 8 u d^u bytes (5.1 MB)."""
    pmf = _lattice20()
    dec = efron_stein(_poly_h(pmf, 3), pmf, 3)
    value, peak = _traced_peak(lambda: component_cross_moment(dec, pmf, 2, 2, (0, 1), (2, 3)))
    assert abs(value) <= 1e-12
    assert peak < 8 * 4 * 20**4


def test_quadratic_statistic_truncates():
    """(S_3 - E S_3)^2 has no order-3 interaction component."""
    atoms, _ = pmf_power(UNIFORM3, 3).arrays()
    mu = sum(a * w for a, w in zip(*UNIFORM3.arrays()))
    dec = efron_stein((atoms - 3 * mu) ** 2, UNIFORM3, 3)
    assert dec.component_sq[3] <= 1e-12


def test_projection_bound_random_h():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        h = rng.standard_normal(len(pmf_power(UNIFORM3, 3).atoms))
        lhs, rhs = projection_inequality(h, UNIFORM3, 3, 2)
        worst = min(worst, lhs - rhs)
    assert worst >= -1e-12


def _projection_one_power_per_law(h, p, k, l):
    """projection_inequality with each sum law from its own ``pmf_power`` call, kept as the reference."""
    h = np.asarray(h, dtype=float)
    ak, qk = pmf_power(p, k).arrays()
    mean = float(qk @ h)
    hc = h - mean
    lhs = float(qk @ hc**2)
    a1, q1 = p.arrays()
    akm1, qkm1 = pmf_power(p, k - 1).arrays()
    h1 = (hc[discrete._sum_index(a1, akm1, ak)] * qkm1).sum(axis=1)
    e_h1_sq = float(q1 @ h1**2)
    al, ql = pmf_power(p, l).arrays()
    akl, qkl = pmf_power(p, k - l).arrays()
    hhat = (hc[discrete._sum_index(al, akl, ak)] * qkl).sum(axis=1)
    e_hhat_sq = float(ql @ hhat**2)
    rhs = k * e_h1_sq + (k * (k - 1) / (l * (l - 1))) * (e_hhat_sq - l * e_h1_sq)
    return lhs, rhs


@pytest.mark.parametrize("pmf", [UNIFORM3, SKEW3, GENERIC8], ids=["uniform3", "skew3", "generic8"])
@pytest.mark.parametrize("k, l", [(3, 2), (4, 2), (5, 3)])
def test_projection_inequality_folds_the_sum_laws_once(pmf, k, l):
    """One fold of the sum laws gives the bytes of one ``pmf_power`` per law, and those are the left fold."""
    for r in range(k + 1):
        fold = reduce(convolve_pmf, [pmf] * r) if r else DiscretePMF((0.0,), (1.0,))
        assert pmf_power(pmf, r) == fold
    h = np.random.default_rng(k * 10 + l).standard_normal(len(pmf_power(pmf, k).atoms))
    assert projection_inequality(h, pmf, k, l) == _projection_one_power_per_law(h, pmf, k, l)


def test_efron_stein_symmetry_check_raises_on_nan():
    h = _poly_h(UNIFORM3, 3)
    h[2] = np.nan
    with pytest.raises(AssertionError, match="not symmetric"):
        efron_stein(h, UNIFORM3, 3)


def test_efron_stein_symmetry_check_raises_on_an_asymmetric_component(monkeypatch):
    """A top-order slab skewed in one pair of arguments fails the check as it is built."""
    top_stacks = discrete._top_stacks

    def skewed(*args):
        for stack in top_stacks(*args):
            stack[-2, -1, ..., -1] += 1.0  # the stack's last slab
            yield stack

    monkeypatch.setattr(discrete, "_top_stacks", skewed)
    with pytest.raises(AssertionError, match="order-3 component is not symmetric"):
        efron_stein(_poly_h(SKEW3, 3), SKEW3, 3)


def test_efron_stein_symmetry_check_raises_on_an_asymmetric_lower_order(monkeypatch):
    """A grid index that is not a function of the sum (one pair of arguments skewed) fails the check at order 2,
    the first order it reaches, before the top order is built."""
    grid_index = discrete._grid_index

    def skewed(laws):
        index = grid_index(laws)
        index[-2, -1] = index[-1, -1]
        return index

    monkeypatch.setattr(discrete, "_grid_index", skewed)
    with pytest.raises(AssertionError, match="order-2 component is not symmetric"):
        efron_stein(_poly_h(SKEW3, 3), SKEW3, 3)


def _lattice20():
    w = np.random.default_rng(20).uniform(0.2, 1.0, 20)
    return DiscretePMF(tuple(float(a) for a in range(20)), tuple(w / w.sum()))


def _traced_peak(call):
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_efron_stein_peak_stays_below_half_the_product_grid():
    """At k = 5 on 20 atoms the d^k table alone is 8 * 20^5 bytes (24.4 MiB); the top order comes one
    d^(k-1) slab at a time, so the whole call peaks below half of that (it read 28 MB with the table)."""
    pmf = _lattice20()
    h = _poly_h(pmf, 5)
    dec, peak = _traced_peak(lambda: efron_stein(h, pmf, 5))
    assert peak < 8 * 20**5 / 2
    assert abs(dec.identity_residual) <= 1e-12


def test_efron_stein_stacks_small_slabs(monkeypatch):
    """At k = 3 on 20 atoms a top-order slab holds 400 values, so its 20 slabs come in two stacks of
    SLAB_STACK // 400 = 10. The result is the one-slab-per-stack decomposition's: the lower orders bit for bit, the top
    order and E h_3^2 to 1e-15, the identity residual to 1e-12."""
    pmf, k = _lattice20(), 3
    h = _poly_h(pmf, k)
    sizes, top_stacks = [], discrete._top_stacks
    monkeypatch.setattr(discrete, "_top_stacks", lambda *args: (sizes.append(s.shape) or s for s in top_stacks(*args)))
    dec = efron_stein(h, pmf, k)
    assert sizes == [(20, 20, 10)] * 2
    monkeypatch.setattr(discrete, "SLAB_STACK", 1)
    sizes.clear()
    ref = efron_stein(h, pmf, k)
    assert sizes == [(20, 20, 1)] * 20
    for r in (1, 2):
        assert np.array_equal(dec.components[r], ref.components[r]) and dec.component_sq[r] == ref.component_sq[r]
    assert np.abs(dec.components[3] - ref.components[3]).max() <= 1e-15
    assert abs(dec.component_sq[3] - ref.component_sq[3]) <= 1e-15 * ref.component_sq[3]
    assert abs(dec.identity_residual) <= 1e-12 and abs(ref.identity_residual) <= 1e-12


def test_components_mapping_stores_the_lower_orders_and_rebuilds_the_top():
    """Keys 1..k, each of shape (d,)*r; order k is rebuilt on each read, equal every time; nothing else is a key."""
    k, d = 4, len(SIDON4.atoms)
    comps = efron_stein(_poly_h(SIDON4, k), SIDON4, k).components
    assert list(comps) == [1, 2, 3, 4] and len(comps) == k
    for r in range(1, k + 1):
        assert r in comps and comps[r].shape == (d,) * r
    first, second = comps[k], comps[k]
    assert first is not second and np.array_equal(first, second)
    for r in (0, k + 1, -1):
        assert r not in comps
        with pytest.raises(KeyError):
            comps[r]
    with pytest.raises(TypeError):
        comps[1] = np.zeros(d)
    with pytest.raises(ValueError, match="read-only"):
        comps[1][0] = 0.0


def test_projection_equality_quadratic():
    """Quadratic h saturates the projection bound at l = 2."""
    atoms, _ = pmf_power(UNIFORM3, 3).arrays()
    mu = sum(a * w for a, w in zip(*UNIFORM3.arrays()))
    h = (atoms - 3 * mu) ** 2
    lhs, rhs = projection_inequality(h, UNIFORM3, 3, 2)
    assert abs(lhs - rhs) <= 1e-12


# Random small pmfs, drawn like the exact-oracle benchmark's: 3-5 atoms that
# are either distinct integers (colliding sums) or well-separated reals
# (generic sums), weights from [0.2, 1] normalised.
PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=50, database=None)


@st.composite
def small_pmfs(draw):
    d = draw(st.integers(3, 5))
    if draw(st.booleans()):
        ints = draw(st.lists(st.integers(0, 12), min_size=d, max_size=d, unique=True))
        atoms = sorted(float(a) for a in ints)
    else:
        gaps = draw(st.lists(st.floats(0.5, 3.0), min_size=d - 1, max_size=d - 1))
        atoms = list(np.cumsum([0.0] + gaps))
    w = np.asarray(draw(st.lists(st.floats(0.2, 1.0), min_size=d, max_size=d)))
    return DiscretePMF(tuple(atoms), tuple(w / w.sum()))


@PROPERTY_SETTINGS
@given(small_pmfs())
def test_property_dks_eigenvalue(pmf):
    """The mode labelled linear carries eigenvalue m/n."""
    for n, m in [(2, 1), (3, 1), (3, 2)]:
        sp = exact_spectrum(pmf, n, m)
        assert abs(sp.eigenvalues[sp.trivial_indices[1]] - m / n) <= 1e-12


@PROPERTY_SETTINGS
@given(small_pmfs())
def test_property_theta_nonnegative_and_chain(pmf):
    thetas = {nm: exact_theta(pmf, *nm).theta for nm in [(2, 1), (3, 1), (3, 2)]}
    assert all(th >= -1e-12 for th in thetas.values())
    assert chain_lower(thetas[(2, 1)], 3, 2) <= thetas[(3, 2)] + 1e-10


@PROPERTY_SETTINGS
@given(small_pmfs())
def test_property_variance_identity(pmf):
    for k in (2, 3):
        dec = efron_stein(_poly_h(pmf, k), pmf, k)
        assert abs(dec.identity_residual) <= 1e-12


@pytest.mark.parametrize(
    "argv",
    [
        ["theta", "--exact", "--spec", "discrete:0=0.1,137.1=0.2,290.7=0.3,1e4=0.4", "--n", "3", "--m", "2"],
        *(["efron-stein", "--spec", "discrete:0=1,1000=1,2500=1", "--n", str(k)] for k in (3, 4, 5)),
    ],
    ids=["theta-sums-near-1e4", "efron-stein-3", "efron-stein-4", "efron-stein-5"],
)
def test_tolerances_scale_with_the_atoms(argv, capsys):
    """Sums near 1e4 round by more than 1e-12, and a statistic of size 1e7 has round-off asymmetry above 1e-10:
    both once exited 1 (sum support mismatch) or raised (component not symmetric)."""
    assert run(argv) == 0
    capsys.readouterr()

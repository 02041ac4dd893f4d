"""Checkable inequality reports for the spectral and Fisher quantities.

Every bound is packaged as a BoundReport with an lhs, an rhs, a provenance
label on each side, and a normalized orientation: slack = rhs - lhs, pass
iff slack >= -tol. Report assembly across whole families lives in verify;
this module holds the individual formulas.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .densities import (
    DistributionSpec,
    GridConfig,
    GridDensity,
    MomentSet,
    _discrete_arrays,
    _partial_sums,
    build_density,
    convolve,
    gauss_legendre,
    jst,
    trapezoid_weights,
)
from .operators import THETA_ROUNDOFF

__all__ = [
    "BoundReport",
    "MomentBoundParts",
    "SubgaussResult",
    "make_report",
    "fisher_upper_bound",
    "fisher_lower_bound",
    "theta_upper_from_sigma",
    "theta_moment_parts",
    "theta_moment_parts_quadrature",
    "theta_lower_from_poincare",
    "chain_lower",
    "monotonicity_sequence",
    "monotonicity_reports",
    "subgauss_chi2_bound",
    "gauss_chi2_closed",
    "gauss_chi2_quad",
    "eigen_tail_asymptote",
    "de_bruijn_rate",
    "de_bruijn_rate_quad",
]

_PROVENANCE = ("measured", "closed-form", "moment-formula")

# Relative growth of the pair expectation between the base and the widened
# quadrature window above which the integrand is treated as divergent.
SUBGAUSS_GROWTH_TOL = 1e-3

# Fixed grid sizes and tolerance; the docstrings of subgauss_chi2_bound,
# gauss_chi2_quad and monotonicity_reports say what each one sets.
SUBGAUSS_NODES = 2048
CHI2_QUAD_NODES = 256
CHI2_QUAD_WIDTH = 10.0
MONOTONE_STEP_TOL = 0.01
# the size of closed_forms.ORTHONORMALITY_NODES, so one cached rule serves both
DE_BRUIJN_QUAD_NODES = 2000


@dataclass(frozen=True)
class BoundReport:
    """One inequality instance, oriented so that pass means lhs <= rhs + tol."""

    name: str
    lhs: float
    rhs: float
    slack: float
    tol: float
    passed: bool
    lhs_kind: str
    rhs_kind: str
    n: int | None = None
    m: int | None = None
    context: dict = field(default_factory=dict)


def make_report(
    name: str,
    lhs: float,
    rhs: float,
    tol: float = 0.0,
    lhs_kind: str = "measured",
    rhs_kind: str = "closed-form",
    n: int | None = None,
    m: int | None = None,
    context: dict | None = None,
) -> BoundReport:
    if lhs_kind not in _PROVENANCE or rhs_kind not in _PROVENANCE:
        raise ValueError(f"provenance labels must be one of {_PROVENANCE}")
    if math.isinf(rhs) and math.isinf(lhs):
        slack = math.nan
        passed = False
    else:
        slack = rhs - lhs
        passed = slack >= -tol
    return BoundReport(
        name=name,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        tol=tol,
        passed=passed,
        lhs_kind=lhs_kind,
        rhs_kind=rhs_kind,
        n=n,
        m=m,
        context=dict(context or {}),
    )


def fisher_upper_bound(jst_un: float, jst_y: float, theta2: float, n: int, tol: float = 0.0, **ctx) -> BoundReport:
    """J_st of the n-fold sum against the 1/n-rate bound J_st(Y)/(1+theta2(n-1)).

    theta2 = 0 degenerates to the constant bound J_st(Y); n = 1 is the trivial
    self-comparison.
    """
    if theta2 < 0:
        raise ValueError("theta2 must be nonnegative")
    if n < 1:
        raise ValueError("n must be >= 1")
    rhs = jst_y / (1.0 + theta2 * (n - 1))
    return make_report(
        "fisher-upper", jst_un, rhs, tol=tol, lhs_kind="measured", rhs_kind="closed-form", n=n, context=ctx
    )


def fisher_lower_bound(jst_un: float, gamma3: float, sigma_stat: float, n: int, tol: float = 0.0, **ctx) -> BoundReport:
    """Skewness floor gamma3^2/(Sigma + 2(n-1)) <= J_st of the n-fold sum."""
    denom = sigma_stat + 2.0 * (n - 1)
    if denom == 0:
        raise ValueError("Sigma + 2(n-1) must be nonzero")
    lhs = gamma3 * gamma3 / denom
    return make_report(
        "fisher-lower", lhs, jst_un, tol=tol, lhs_kind="moment-formula", rhs_kind="measured", n=n, context=ctx
    )


def theta_upper_from_sigma(theta_n: float, sigma_stat: float, n: int = 2, tol: float = 0.0, **ctx) -> BoundReport:
    """theta against the fourth-moment ceiling 2(n-1)/Sigma (equality for
    gaussian and gamma at n = 2, strict slack for laws whose optimal test
    function is not quadratic)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    rhs = math.inf if sigma_stat == 0 else 2.0 * (n - 1) / sigma_stat
    return make_report(
        "theta-sigma-upper", theta_n, rhs, tol=tol, lhs_kind="measured", rhs_kind="moment-formula", n=n, context=ctx
    )


@dataclass(frozen=True)
class MomentBoundParts:
    """Intermediate quantities of the order-k moment bound on theta at n = 2.

    The test function is h(s) = s^k - a s - M_k on the centered two-fold sum,
    with a = M_{k+1}/(2 sigma^2) killing the linear component and M_j the
    j-th central moment of the sum. e_u_sq is the second moment of the pure
    interaction part U = sum_l C(k,l) (Y1^l - m_l)(Y2^{k-l} - m_{k-l});
    e_cstar_h_sq is the one-variable projection's second moment obtained from
    the decomposition identity, e_cstar_h_sq_direct the same number from the
    projection's explicit polynomial coefficients. The bound is
    e_u_sq / (2 e_cstar_h_sq).
    """

    k: int
    e_h_sq: float
    e_u_sq: float
    e_cstar_h_sq: float
    e_cstar_h_sq_direct: float
    bound: float


def _parts_from_central_moments(m: list[float], k: int, e_h_sq_override: float | None = None) -> MomentBoundParts:
    # m[j] = j-th central moment of the summand, j = 0..2k (m[0]=1, m[1]=0)
    var = m[2]
    M = [sum(comb(j, i) * m[i] * m[j - i] for i in range(j + 1)) for j in range(2 * k + 1)]
    a = M[k + 1] / (2.0 * var)
    e_h_sq = M[2 * k] - M[k] ** 2 - M[k + 1] ** 2 / (2.0 * var)
    if e_h_sq_override is not None:
        e_h_sq = e_h_sq_override
    e_u_sq = 0.0
    for l in range(1, k):
        for j in range(1, k):
            e_u_sq += (
                comb(k, l)
                * comb(k, j)
                * (m[l + j] - m[l] * m[j])
                * (m[2 * k - l - j] - m[k - l] * m[k - j])
            )
    e_cstar = (e_h_sq - e_u_sq) / 2.0
    # projection polynomial phi(t) = sum_l C(k,l) m_{k-l} t^l - a t - M_k in
    # the centered variable t
    c = [comb(k, l) * m[k - l] for l in range(k + 1)]
    c[0] -= M[k]
    c[1] -= a
    e_cstar_direct = sum(c[l] * c[j] * m[l + j] for l in range(k + 1) for j in range(k + 1))
    scale = max(abs(e_h_sq), 1.0)
    if e_cstar <= 1e-12 * scale:
        raise ValueError("moment bound unavailable: degenerate projection (E(C*h)^2 <= 0)")
    return MomentBoundParts(
        k=k,
        e_h_sq=e_h_sq,
        e_u_sq=e_u_sq,
        e_cstar_h_sq=e_cstar,
        e_cstar_h_sq_direct=e_cstar_direct,
        bound=e_u_sq / (2.0 * e_cstar),
    )


def theta_moment_parts(moments: MomentSet, k: int) -> MomentBoundParts:
    """Order-k moment bound on theta at n = 2 from closed moment arithmetic.

    At k = 2 the bound collapses to 2/Sigma exactly. Requires central moments
    through order 2k.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if len(moments.central_moments) < 2 * k:
        raise ValueError(f"need central moments through order {2 * k}")
    m = [moments.central(j) for j in range(2 * k + 1)]
    return _parts_from_central_moments(m, k)


def theta_moment_parts_quadrature(d: GridDensity, k: int) -> MomentBoundParts:
    """Same bound with every expectation taken by brute-force quadrature.

    E h(S_2)^2 is integrated directly against the convolved density rather
    than expanded in moments, so this route cross-checks the expansion
    constants independently.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    mu = d.mean()
    cent = d.nodes - mu
    wv = d.weights() * d.values
    m = [float(wv @ cent**j) for j in range(2 * k + 1)]
    var = m[2]
    p2 = convolve(d, d)
    s_cent = p2.nodes - 2.0 * mu
    M_k = sum(comb(k, i) * m[i] * m[k - i] for i in range(k + 1))
    M_k1 = sum(comb(k + 1, i) * m[i] * m[k + 1 - i] for i in range(k + 2))
    a = M_k1 / (2.0 * var)
    hv = s_cent**k - a * s_cent - M_k
    e_h_sq = float((p2.weights() * p2.values) @ hv**2)
    return _parts_from_central_moments(m, k, e_h_sq_override=e_h_sq)


def theta_lower_from_poincare(theta2: float, fisher_info: float, poincare_const: float, tol: float = 0.0, **ctx) -> BoundReport:
    """Spectral-gap floor 1/(2 J C_P) <= theta at n = 2.

    C_P is the Poincare constant of the summand law and must be supplied (or
    known in closed form, e.g. sigma^2 for a Gaussian); it is never estimated
    here. The product J * C_P is scale-invariant, as theta is.
    """
    if fisher_info <= 0 or poincare_const <= 0:
        raise ValueError("fisher_info and poincare_const must be positive")
    lhs = 1.0 / (2.0 * fisher_info * poincare_const)
    return make_report(
        "theta-poincare-lower", lhs, theta2, tol=tol, lhs_kind="closed-form", rhs_kind="measured", n=2, context=ctx
    )


def chain_lower(theta2: float, n: int, m: int) -> float:
    """Lower bound (1+(n-1) theta2)/(1+(m-1) theta2) - 1 on the (n, m) gap statistic.

    A theta2 within THETA_ROUNDOFF below 0 is read as 0.
    """
    if not n > m >= 2:
        raise ValueError(f"need n > m >= 2, got (n, m) = ({n}, {m})")
    if theta2 < -THETA_ROUNDOFF:
        raise ValueError("theta2 must be nonnegative")
    theta2 = max(theta2, 0.0)
    return (1.0 + (n - 1) * theta2) / (1.0 + (m - 1) * theta2) - 1.0


def monotonicity_sequence(base: GridDensity, theta2: float, n_max: int) -> list[tuple[int, float]]:
    """The products a_n = (1 + (n-1) theta2) J_st(S_n) for n = 1..n_max.

    The sequence is non-increasing when theta2 is (a lower bound on) the true
    gap statistic; theta2 = 0 recovers plain monotonicity of standardized
    Fisher information. The laws S_n are those of one fold, ``_partial_sums``.
    """
    if not 1 <= n_max <= 8:
        raise ValueError("n_max must lie in [1, 8]")
    return _monotone_products([jst(d_n).value for d_n in _partial_sums(base, n_max)], theta2)


def _monotone_products(jst_values: list[float], theta2: float) -> list[tuple[int, float]]:
    """The products (n, (1 + (n-1) theta2) J_st(S_n)) of J_st(S_1), J_st(S_2), ... in ``jst_values``."""
    return [(n, (1.0 + (n - 1) * theta2) * j) for n, j in enumerate(jst_values, start=1)]


def monotonicity_reports(seq: list[tuple[int, float]]) -> list[BoundReport]:
    """Per-step non-increase reports for a monotone product sequence.

    The tolerance is MONOTONE_STEP_TOL relative to the previous term plus a
    small absolute floor, so sequences that are identically zero up to grid
    noise (a Gaussian summand) do not fail on roundoff.
    """
    reports = []
    for (n0, a0), (n1, a1) in zip(seq, seq[1:]):
        reports.append(
            make_report(
                f"monotone-product-step-{n0}-{n1}",
                a1,
                a0,
                tol=MONOTONE_STEP_TOL * abs(a0) + 1e-6,
                lhs_kind="measured",
                rhs_kind="measured",
                n=n1,
                context={"a_prev": a0, "a_next": a1},
            )
        )
    return reports


@dataclass(frozen=True)
class SubgaussResult:
    """Regularized chi-square ceiling n/(n-1) E exp((X-X')^2 / ((n-1) delta^2)).

    divergent means the pair expectation kept growing when the quadrature
    window was widened: any finite value would then be set by the window, so
    value and exp_factor are reported as inf.
    """

    value: float
    exp_factor: float
    t: float
    divergent: bool
    growth: float
    method: str = "quadrature"


def _pair_expectation(d: GridDensity, t: float) -> float:
    """E exp(t (X - X')^2) on the grid of d.

    On a uniform grid exp(t (x_i - x_j)^2) depends only on the lag i - j, so
    the double sum is its 2N-1 lag values against the autocorrelation of the
    quadrature-weighted density. The lag offsets are taken as x_k - x_0, not
    k * step: step = x_1 - x_0 carries a rounding error relative to itself of
    order eps |x_0| / step, which the squared lags would amplify. An
    overflowing exponent gives a non-finite result.
    """
    wv = d.weights() * d.values
    offsets = d.nodes - d.nodes[0]
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.exp(t * offsets**2)
        return float(np.concatenate((e[:0:-1], e)) @ np.correlate(wv, wv, "full"))


def subgauss_chi2_bound(spec: DistributionSpec, delta: float, n: int) -> SubgaussResult:
    """Chi-square bound for the delta-regularized n-fold sum of the law spec.

    t = 1/((n-1) delta^2). The double integral is evaluated on the
    law's standard window of SUBGAUSS_NODES nodes and again on a 1.5x wider
    window; relative growth
    beyond SUBGAUSS_GROWTH_TOL flags divergence (for a Gaussian summand this
    trips exactly when 1 - 4 t sigma^2 <= 0). Bounded laws (discrete atoms,
    file-backed tables) cannot diverge and are integrated on their own
    support.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if delta <= 0:
        raise ValueError("delta must be positive")
    t = 1.0 / ((n - 1) * delta * delta)
    prefactor = n / (n - 1.0)

    if spec.family == "discrete":
        atoms, probs = _discrete_arrays(spec)
        e = float(probs @ np.exp(t * (atoms[:, None] - atoms[None, :]) ** 2) @ probs)
        return SubgaussResult(prefactor * e, e, t, False, 0.0)
    if spec.family == "file":
        d = build_density(spec, GridConfig(node_count=SUBGAUSS_NODES))
        e = _pair_expectation(d, t)
        return SubgaussResult(prefactor * e, e, t, False, 0.0)
    base = build_density(spec, GridConfig(node_count=SUBGAUSS_NODES, half_width_sigmas=12.0))
    wide = build_density(spec, GridConfig(node_count=int(SUBGAUSS_NODES * 1.5), half_width_sigmas=18.0))
    e_base = _pair_expectation(base, t)
    e_wide = _pair_expectation(wide, t)
    growth = e_wide / e_base - 1.0 if math.isfinite(e_base) and math.isfinite(e_wide) else math.inf
    if growth > SUBGAUSS_GROWTH_TOL:
        return SubgaussResult(math.inf, math.inf, t, True, growth)
    return SubgaussResult(prefactor * e_base, e_base, t, False, growth)


def gauss_chi2_closed(x, y, rho: float, delta: float) -> float:
    """Chi-square divergence between two bivariate Gaussian smoothing kernels.

    The reference has independent coordinates with scale delta centered at y;
    the other has correlation rho and the same scale centered at x. Closed
    form: exp((x-y)^T R_rho (x-y) / ((1-rho^2) delta^2)) / (1-rho^2) - 1.
    """
    if not abs(rho) < 1:
        raise ValueError("need |rho| < 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    r = np.array([[1.0, rho], [rho, 1.0]])
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    if d.shape != (2,):
        raise ValueError("x and y must be 2-vectors")
    q = float(d @ r @ d)
    return math.exp(q / ((1 - rho * rho) * delta * delta)) / (1 - rho * rho) - 1.0


def gauss_chi2_quad(x, y, rho: float, delta: float) -> float:
    """The same divergence by 2-D trapezoid quadrature of integral f^2/g - 1.

    f^2/g is itself an unnormalized Gaussian with precision A / delta^2,
    A = 2 R^-1 - I (positive definite for |rho| < 1), and mean
    A^-1 (2 R^-1 x - y). The window is centred there and spans CHI2_QUAD_WIDTH
    standard deviations of that Gaussian along each axis, so it holds the
    mass of the integrand wherever x and y sit.

    The window, not the step, sets the error. For a smooth integrand that
    decays to round-off at the window edge, the trapezoid rule converges
    geometrically in the step (Trefethen & Weideman, SIAM Review 56, 2014),
    so CHI2_QUAD_NODES = 256 per axis is far past convergence: over seeds
    0-199 of the chi-square battery's draws (|x|, |y| <= 1, |rho| <= 0.6,
    delta in [0.8, 1.5]) the worst relative error against
    ``gauss_chi2_closed`` is 1.3e-14 at 64 nodes, 5.1e-14 at 256 and 2.5e-13
    at 1200, where more exponentials only add round-off.
    """
    if not abs(rho) < 1:
        raise ValueError("need |rho| < 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r_inv = np.linalg.inv(np.array([[1.0, rho], [rho, 1.0]]))
    det = 1 - rho * rho
    a_inv = np.linalg.inv(2.0 * r_inv - np.eye(2))
    centre = a_inv @ (2.0 * r_inv @ x - y)
    half = CHI2_QUAD_WIDTH * delta * np.sqrt(np.diag(a_inv))
    c0 = np.linspace(centre[0] - half[0], centre[0] + half[0], CHI2_QUAD_NODES)
    c1 = np.linspace(centre[1] - half[1], centre[1] + half[1], CHI2_QUAD_NODES)
    dx0 = c0 - x[0]
    dx1 = c1 - x[1]
    # f^2/g in log space (f and g alone underflow far from x and y): the
    # exponent qg/2 - qf is a term in c0, a term in c1 and a rank-one cross term
    d2 = delta * delta
    e0 = ((c0 - y[0]) ** 2 / 2 - r_inv[0, 0] * dx0**2) / d2
    e1 = ((c1 - y[1]) ** 2 / 2 - r_inv[1, 1] * dx1**2) / d2
    expo = np.multiply.outer(dx0 * (-2 * r_inv[0, 1] / d2), dx1)
    expo += e0[:, None]
    expo += e1
    np.exp(expo, out=expo)
    w0 = trapezoid_weights(CHI2_QUAD_NODES, c0[1] - c0[0])
    w1 = trapezoid_weights(CHI2_QUAD_NODES, c1[1] - c1[0])
    return float(w0 @ expo @ w1) / (2 * math.pi * d2 * det) - 1.0


def eigen_tail_asymptote(var_x: float, delta: float) -> float:
    """Large-n ceiling 2 Var(X)/delta^2 on n times the second eigenvalue of the
    delta-regularized operator. Finite-n measurements are compared against it
    with slack reported, never asserted."""
    if var_x <= 0 or delta <= 0:
        raise ValueError("var_x and delta must be positive")
    return 2.0 * var_x / (delta * delta)


def de_bruijn_rate(c: float, d: float, n: int) -> float:
    """Closed form of the heat-flow integral behind the 1/n Fisher rate:

        integral_0^inf dt / ((1+t)(1+(n-1)(c+t d)))
            = log(c/d + 1/(d(n-1))) / (1 + (c-d)(n-1)),

    valid for c > d > 0, n >= 2 (partial fractions)."""
    _validate_rate_args(c, d, n)
    a = 1.0 + (n - 1) * c
    b = (n - 1) * d
    return math.log(a / b) / (a - b)


def de_bruijn_rate_quad(c: float, d: float, n: int) -> float:
    """The same integral by DE_BRUIJN_QUAD_NODES-point Gauss-Legendre quadrature, for cross-checking.

    t = u/(1-u) maps [0, inf) onto [0, 1), dt = du/(1-u)^2, and the
    integrand is evaluated as written, not through its partial fractions. In
    u it is analytic on [0, 1] with one pole past u = 1, at distance
    (n-1)d / (1 + (n-1)(c-d)), so the fixed rule converges geometrically:
    it is within 1e-12 of the closed form while that distance is 1e-5 or
    more. The sum is a math.fsum, which does not depend on the BLAS kernel.
    """
    _validate_rate_args(c, d, n)
    x, w = gauss_legendre(DE_BRUIJN_QUAD_NODES)
    u = (1.0 + x) / 2.0
    one_minus_u = (1.0 - x) / 2.0
    t = u / one_minus_u
    f = 1.0 / ((1.0 + t) * (1.0 + (n - 1) * (c + t * d)))
    return math.fsum(w * f / (one_minus_u * one_minus_u)) / 2.0


def _validate_rate_args(c: float, d: float, n: int) -> None:
    if not c > d > 0:
        raise ValueError(f"need c > d > 0, got c = {c}, d = {d}")
    if n < 2:
        raise ValueError("n must be >= 2")

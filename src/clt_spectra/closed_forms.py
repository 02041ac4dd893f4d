"""Analytic oracles for the Meixner laws, whose spectra are closed forms.

A law with a quadratic variance function V(mu) = v0 + v1 mu + v2 mu^2
(Morris 1982) has polynomial eigenfunctions, and the (n, m) operator
eigenvalues are lambda_k = prod_{j<k} (m + j v2)/(n + j v2), so theta =
(n - m)/(m + v2). The gaussian (v2 = 0, Hermite polynomials) and gamma(beta)
(v2 = 1/beta, generalized Laguerre polynomials) summands are the two spec
families among them. Everything here is closed-form or a three-term
recurrence; the grid pipeline is tested against these values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .densities import DistributionSpec, gauss_legendre, log_gamma

__all__ = [
    "PolyFamily",
    "hermite_value",
    "laguerre_value",
    "meixner_v2",
    "meixner_lambdas",
    "meixner_theta",
    "gamma_jst",
    "addition_check_hermite",
    "addition_check_laguerre",
]

MAX_ADDITION_DEGREE = 8

# degree range and Gauss-Legendre size of PolyFamily.orthonormality_residual
ORTHONORMALITY_KMAX = 10
ORTHONORMALITY_NODES = 2000


def hermite_value(k: int, x) -> NDArray[np.float64]:
    """Probabilists' Hermite polynomial He_k(x) by the three-term recurrence.

    He_0 = 1, He_1 = x, He_{j+1}(x) = x He_j(x) - j He_{j-1}(x). The
    recurrence is numerically stable for the degrees used here; coefficient
    expansion is deliberately avoided.
    """
    if k < 0:
        raise ValueError("degree must be >= 0")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if k == 0:
        return prev
    cur = x.copy()
    for j in range(1, k):
        prev, cur = cur, x * cur - j * prev
    return cur


def laguerre_value(k: int, alpha: float, x) -> NDArray[np.float64]:
    """Generalized Laguerre polynomial L_k^(alpha)(x) by recurrence."""
    if k < 0:
        raise ValueError("degree must be >= 0")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if k == 0:
        return prev
    cur = 1.0 + alpha - x
    for j in range(1, k):
        prev, cur = cur, ((2 * j + 1 + alpha - x) * cur - (j + alpha) * prev) / (j + 1)
    return cur


@dataclass(frozen=True)
class PolyFamily:
    """An orthonormal polynomial system with its weight density.

    kind "hermite" uses weight N(0, alpha) and e_k = He_k(x/sqrt(alpha)) /
    sqrt(k!); kind "laguerre" uses the Gamma(alpha+1) weight on (0, inf) and
    e_k = L_k^(alpha)(x) / sqrt(C(k+alpha, k)). Normalization constants are
    evaluated in log space so large degrees cannot overflow.
    """

    kind: str
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("hermite", "laguerre"):
            raise ValueError(f"kind must be 'hermite' or 'laguerre', got {self.kind!r}")
        if self.kind == "hermite" and self.alpha <= 0:
            raise ValueError("hermite variance parameter must be positive")
        if self.kind == "laguerre" and self.alpha <= -1:
            raise ValueError("laguerre order must exceed -1")

    def _log_norm_sq(self, k: int) -> float:
        if self.kind == "hermite":
            return log_gamma(k + 1)
        return log_gamma(k + self.alpha + 1) - log_gamma(k + 1) - log_gamma(self.alpha + 1)

    def orthonormal_value(self, k: int, x) -> NDArray[np.float64]:
        if self.kind == "hermite":
            raw = hermite_value(k, np.asarray(x, dtype=float) / math.sqrt(self.alpha))
        else:
            raw = laguerre_value(k, self.alpha, x)
        return raw * math.exp(-0.5 * self._log_norm_sq(k))

    def weight_pdf(self, x) -> NDArray[np.float64]:
        x = np.asarray(x, dtype=float)
        if self.kind == "hermite":
            return np.exp(-x * x / (2 * self.alpha)) / math.sqrt(2 * math.pi * self.alpha)
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = np.exp(self.alpha * np.log(x[pos]) - x[pos] - log_gamma(self.alpha + 1))
        return out

    def orthonormality_residual(self) -> float:
        """max |<e_j, e_k> - delta_jk| over j, k <= ORTHONORMALITY_KMAX by
        ORTHONORMALITY_NODES-point Gauss-Legendre quadrature.

        The quadrature window covers the weight far past its effective
        support for the polynomial degrees involved, so residuals reflect the
        recurrence and normalization, not truncation.
        """
        kmax = ORTHONORMALITY_KMAX
        t, w = gauss_legendre(ORTHONORMALITY_NODES)
        if self.kind == "hermite":
            half = 12.0 * math.sqrt(self.alpha) + 2.0 * kmax
            x = t * half
            w = w * half
        else:
            upper = 60.0 + 15.0 * (self.alpha + 1) + 4.0 * kmax
            x = (t + 1.0) * (upper / 2.0)
            w = w * (upper / 2.0)
        pw = self.weight_pdf(x)
        vals = np.stack([self.orthonormal_value(k, x) for k in range(kmax + 1)])
        gram = (vals * pw * w) @ vals.T
        return float(np.abs(gram - np.eye(kmax + 1)).max())


def meixner_v2(spec: DistributionSpec) -> float | None:
    """Leading coefficient v2 of the quadratic variance function of ``spec``'s law.

    Gaussian and gamma(beta) summands are Meixner laws, V(mu) = v0 + v1 mu +
    v2 mu^2, with v2 = 0 and v2 = 1/beta; any other family has no closed form
    here and gives None. This is the one place a family name selects a
    closed form.
    """
    if spec.family == "gaussian":
        return 0.0
    if spec.family == "gamma":
        return 1.0 / float(spec.params["beta"])
    return None


def meixner_lambdas(v2: float, n: int, m: int, count: int) -> list[float]:
    """The first ``count`` eigenvalues lambda_k = prod_{j<k} (m + j v2)/(n + j v2).

    These are the eigenvalues of the (n, m) composition for a Meixner summand
    with variance coefficient v2, each the previous one times its factor:
    (m/n)^k for the gaussian, C(k+m*beta-1, k) / C(k+n*beta-1, k) for
    gamma(beta), and for v2 = -1/N the binomial(N, p) spectrum, which ends
    at k = mN. A trace series is the ``sum`` of this list.
    """
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got (n, m) = ({n}, {m})")
    out = []
    lam = 1.0
    for j in range(count):
        out.append(lam)
        lam *= (m + j * v2) / (n + j * v2)
    return out


def meixner_theta(v2: float, n: int, m: int) -> float:
    """Closed gap statistic theta = m/(n lambda_2) - 1 = (n - m)/(m + v2).

    Infinite where lambda_2 = 0 (m + v2 = 0: the Bernoulli summand at m = 1).
    """
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got (n, m) = ({n}, {m})")
    if m + v2 == 0:
        return math.inf
    return (n - m) / (m + v2)


def gamma_jst(beta: float) -> float:
    """Standardized Fisher information of a gamma(beta) variable: 2/(beta-2).

    Infinite for beta <= 2, where the inverse second moment of the density
    diverges; the sentinel is returned, not raised.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if beta <= 2:
        return math.inf
    return 2.0 / (beta - 2.0)


def addition_check_hermite(m: int, n: int, tau2: float, x: float, y: float) -> float:
    """Residual of the Hermite addition rule splitting a sum into 1 + (n-1) parts.

    He_m((x+y)/sqrt(n tau2)) is expanded as a binomial combination of
    He_{m-k}(x/sqrt(tau2)) and He_k(y/sqrt((n-1) tau2)) with weights
    C(m,k) ((n-1)/n)^{k/2} (1/n)^{(m-k)/2}; the absolute difference between
    the two sides is returned.
    """
    if not 0 <= m <= MAX_ADDITION_DEGREE:
        raise ValueError(f"degree must lie in [0, {MAX_ADDITION_DEGREE}]")
    if n < 2:
        raise ValueError("n must be >= 2")
    if tau2 <= 0:
        raise ValueError("tau2 must be positive")
    lhs = float(hermite_value(m, (x + y) / math.sqrt(n * tau2)))
    rhs = 0.0
    for k in range(m + 1):
        rhs += (
            math.comb(m, k)
            * ((n - 1) / n) ** (k / 2)
            * (1 / n) ** ((m - k) / 2)
            * float(hermite_value(m - k, x / math.sqrt(tau2)))
            * float(hermite_value(k, y / math.sqrt((n - 1) * tau2)))
        )
    return abs(lhs - rhs)


def addition_check_laguerre(m: int, alpha: float, beta: float, x: float, y: float) -> float:
    """Residual of L_m^(alpha+beta+1)(x+y) = sum_i L_i^(alpha)(x) L_{m-i}^(beta)(y)."""
    if not 0 <= m <= MAX_ADDITION_DEGREE:
        raise ValueError(f"degree must lie in [0, {MAX_ADDITION_DEGREE}]")
    lhs = float(laguerre_value(m, alpha + beta + 1.0, x + y))
    rhs = 0.0
    for i in range(m + 1):
        rhs += float(laguerre_value(i, alpha, x)) * float(laguerre_value(m - i, beta, y))
    return abs(lhs - rhs)

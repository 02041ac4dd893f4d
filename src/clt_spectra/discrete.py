"""Exact finite-support counterpart of the grid operators.

For a pmf with a handful of atoms everything is small dense linear algebra:
sum supports come from exact convolution with atom coalescing, the operator
matrices are ratios of pmf values, and eigenvalues are exact to rounding.
This module is the oracle the grid pipeline is validated against, and it also
hosts the Efron-Stein (ANOVA) decomposition of functions of a sum.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
from numpy.typing import NDArray

from .densities import DistributionSpec
from .operators import SPECTRUM_HEAD, SpectrumResult, ThetaResult, theta_from_spectrum
from .operators import _check_memory, _eigensystem, _hull

__all__ = [
    "DiscretePMF",
    "ExactOperator",
    "ESDecomposition",
    "convolve_pmf",
    "pmf_power",
    "exact_operator",
    "exact_spectrum",
    "exact_theta",
    "efron_stein",
    "component_cross_moment",
    "projection_inequality",
]

ATOM_TOL = 1e-12  # coalescing tolerance for sum supports
SUPPORT_CAP = 20000
PRODUCT_SPACE_CAP = 10_000_000
_EXACT_REMEDY = "use fewer atoms or a smaller n"


@dataclass(frozen=True)
class DiscretePMF:
    atoms: tuple[float, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.atoms) != len(self.probs) or not self.atoms:
            raise ValueError("atoms and probs must be nonempty and equal length")
        a = np.asarray(self.atoms, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if (np.diff(a) <= ATOM_TOL).any():
            raise ValueError("atoms must be ascending and separated by more than the coalescing tolerance")
        if (p <= 0).any():
            raise ValueError("probabilities must be positive")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1 within 1e-12")

    @classmethod
    def from_spec(cls, spec: DistributionSpec) -> "DiscretePMF":
        if spec.family != "discrete":
            raise ValueError(f"expected a discrete spec, got {spec.family!r}")
        a = np.asarray(spec.params["atoms"], dtype=float)
        p = np.asarray(spec.params["probs"], dtype=float)
        p = p / p.sum()
        order = np.argsort(a)
        return cls(tuple(a[order]), tuple(p[order]))

    def arrays(self) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        return np.asarray(self.atoms, dtype=float), np.asarray(self.probs, dtype=float)

    def mean(self) -> float:
        a, p = self.arrays()
        return float(p @ a)

    def variance(self) -> float:
        a, p = self.arrays()
        mu = p @ a
        return float(p @ (a - mu) ** 2)


def _coalesce(atoms: NDArray[np.float64], probs: NDArray[np.float64]) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Sorted atoms with every atom within ATOM_TOL of its group's first atom merged into that group.

    A gap above ATOM_TOL always starts a group; only a run of closer atoms
    spanning more than ATOM_TOL is split atom by atom. ``np.bincount`` sums
    each group's probabilities in sorted order, as a running sum would.
    """
    order = np.argsort(atoms, kind="stable")
    a, p = atoms[order], probs[order]
    starts = np.concatenate(([True], np.diff(a) > ATOM_TOL))
    first = np.flatnonzero(starts)
    last = np.append(first[1:], len(a)) - 1
    wide = a[last] - a[first] > ATOM_TOL
    for i, j in zip(first[wide], last[wide]):
        head = a[i]
        for t in range(i + 1, j + 1):
            if a[t] - head > ATOM_TOL:
                starts[t] = True
                head = a[t]
    return a[starts], np.bincount(np.cumsum(starts) - 1, weights=p)


def convolve_pmf(p: DiscretePMF, q: DiscretePMF) -> DiscretePMF:
    ap, pp = p.arrays()
    aq, pq = q.arrays()
    if len(ap) * len(aq) > SUPPORT_CAP * 64:
        raise ValueError("support overflow during convolution")
    atoms = (ap[:, None] + aq[None, :]).ravel()
    probs = (pp[:, None] * pq[None, :]).ravel()
    a, pr = _coalesce(atoms, probs)
    if len(a) > SUPPORT_CAP:
        raise ValueError(f"support overflow: {len(a)} atoms (cap {SUPPORT_CAP})")
    return DiscretePMF(tuple(a), tuple(pr / pr.sum()))


def pmf_power(p: DiscretePMF, n: int) -> DiscretePMF:
    """Law of the n-fold i.i.d. sum; n = 0 gives the point mass at 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return DiscretePMF((0.0,), (1.0,))
    out = p
    for _ in range(n - 1):
        out = convolve_pmf(out, p)
    return out


def _sum_index(a: NDArray[np.float64], b: NDArray[np.float64], support: NDArray[np.float64]) -> NDArray[np.intp]:
    """Index in the sorted ``support`` of every a_i + b_j, shape a.shape + b.shape.

    A sum matches the support atom within ATOM_TOL of it; a sum with none
    raises, since the support was built to hold every such sum.
    """
    sums = np.add.outer(a, b)
    idx = np.minimum(np.searchsorted(support, sums - ATOM_TOL), len(support) - 1)
    if (np.abs(support[idx] - sums) > ATOM_TOL).any():
        raise ValueError("sum support mismatch; atom coalescing produced an inconsistent lattice")
    return idx


@dataclass
class ExactOperator:
    summand: DiscretePMF  # S_m
    total: DiscretePMF  # S_n
    partial: DiscretePMF  # S_{n-m}
    n: int
    m: int
    Cstar: NDArray[np.float64]  # (|S_m|, |S_n|): adjoint, Cstar[i, k] = P(S_{n-m} = s_k - y_i)
    B: NDArray[np.float64]  # symmetrizing factor, gram = B B^T

    @property
    def C(self) -> NDArray[np.float64]:
        """(|S_n|, |S_m|): forward conditional expectation, C[k, i] = P(S_m = y_i | S_n = s_k)."""
        _, qy = self.summand.arrays()
        _, qn = self.total.arrays()
        return (self.Cstar * qy[:, None]).T / qn[:, None]

    @property
    def health(self) -> dict:
        """Numerical health signals a spectrum of this operator reports."""
        return {"support_size": len(self.summand.atoms)}

    def support_block(self, rows: slice) -> NDArray[np.float64]:
        """``B[rows, cols]``, cols the hull of the columns those rows touch."""
        return self.B[rows, _hull(self.B[rows].any(axis=0))]

    def _check_memory(self, rows: int, cols: int, need: int) -> None:
        _check_memory("exact operator", self.n, self.m, rows, cols, need, _EXACT_REMEDY)


def exact_operator(p: DiscretePMF, n: int, m: int = 1) -> ExactOperator:
    """The exact operators between S_m and S_n.

    The table P(S_{n-m} = s_k - y_i) is scattered: atom t_j of S_{n-m} goes
    to row i, column y_i + t_j. Refused beforehand when the table and B
    would not fit in available memory.
    """
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got (n, m) = ({n}, {m})")
    pm = pmf_power(p, m)
    pt = pmf_power(p, n - m)
    pn = convolve_pmf(pm, pt)
    ay, qy = pm.arrays()
    at, qt = pt.arrays()
    an, qn = pn.arrays()
    ny, ns = len(ay), len(an)
    _check_memory("exact operator", n, m, ny, ns, 8 * 2 * ny * ns, _EXACT_REMEDY)
    table = np.zeros((ny, ns))
    table[np.arange(ny)[:, None], _sum_index(ay, at, an)] = qt
    B = np.sqrt(qy)[:, None] * table
    B /= np.sqrt(qn)[None, :]
    return ExactOperator(summand=pm, total=pn, partial=pt, n=n, m=m, Cstar=table, B=B)


def exact_spectrum(p: DiscretePMF, n: int, m: int = 1) -> SpectrumResult:
    """Eigen-decomposition of the exact C*C on the S_m support."""
    op = exact_operator(p, n, m)
    ay, qy = op.summand.arrays()
    return _eigensystem(op, qy, ay, SPECTRUM_HEAD)


def exact_theta(p: DiscretePMF, n: int, m: int = 1) -> ThetaResult:
    """Exact theta; +inf sentinel when the S_m support has no third mode."""
    return theta_from_spectrum(exact_spectrum(p, n, m))


# ---------------------------------------------------------------------------
# Efron-Stein / ANOVA decomposition of h(S_k)


@dataclass
class ESDecomposition:
    """Orthogonal decomposition h(S_k) - E h = sum over subsets of h_|T|.

    components[r] is the canonical order-r component on the product grid,
    shape (d,)*r with d the summand support size. component_sq[r] is
    E h_r(Y_1..Y_r)^2. The variance identity reads

        E (h(S_k) - E h)^2 = sum_r C(k, r) * component_sq[r].
    """

    k: int
    mean_shift: float
    total_second_moment: float
    components: dict[int, NDArray[np.float64]]
    component_sq: dict[int, float]
    identity_residual: float


def _axis(v: NDArray[np.float64], i: int, r: int) -> NDArray[np.float64]:
    """``v`` laid along axis i of an r-axis product grid."""
    return v.reshape((1,) * i + (len(v),) + (1,) * (r - i - 1))


def efron_stein(h: NDArray[np.float64], p: DiscretePMF, k: int) -> ESDecomposition:
    """Decompose h(S_k) into orthogonal interaction orders.

    h is a value table on the S_k support. It is centered internally (the
    subtracted mean is recorded); components of order >= 1 are unaffected by
    centering. With G_k = h(y_1 + ... + y_k) on the product grid (one sum
    lookup) and G_r = E[G_{r+1}] over its last argument, G_r is
    E[h(S_k) | Y_1..Y_r], and the order-r component is the Hoeffding product
    (I - E_1)...(I - E_r) G_r, E_i the expectation over argument i. Every
    reduction multiplies elementwise and sums, so the result does not depend
    on the BLAS kernel or its thread count.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    a, prob = p.arrays()
    d = len(a)
    if d**k > PRODUCT_SPACE_CAP:
        raise ValueError(f"product space {d}^{k} exceeds cap {PRODUCT_SPACE_CAP}")
    h = np.asarray(h, dtype=float)
    ak, qk = pmf_power(p, k).arrays()
    if len(h) != len(ak):
        raise ValueError(f"h must be tabulated on the S_{k} support ({len(ak)} atoms, got {len(h)})")
    mean = float((h * qk).sum())
    h_cent = h - mean

    lead = np.zeros(())  # y_1 + ... + y_{k-1} on the product grid
    for _ in range(k - 1):
        lead = np.add.outer(lead, a)
    G = [h_cent[_sum_index(lead, a, ak)]]  # G_k, ..., G_1
    for r in range(k, 1, -1):
        G.append((G[-1] * _axis(prob, r - 1, r)).sum(axis=-1))

    components: dict[int, NDArray[np.float64]] = {}
    component_sq: dict[int, float] = {}
    for r in range(1, k + 1):
        comp = G[k - r]
        weight = np.ones((1,) * r)
        for i in range(r):
            comp = comp - (comp * _axis(prob, i, r)).sum(axis=i, keepdims=True)
            weight = weight * _axis(prob, i, r)
        components[r] = comp
        component_sq[r] = float((weight * comp * comp).sum())
        if r >= 2:
            # exchangeability of the components follows from h being a
            # function of the sum; checked, not assumed
            if not np.allclose(comp, np.swapaxes(comp, 0, 1), atol=1e-10):
                raise AssertionError("order component is not symmetric in its arguments")

    total = float((qk * h_cent**2).sum())
    ssum = sum(comb(k, r) * component_sq[r] for r in range(1, k + 1))
    return ESDecomposition(
        k=k,
        mean_shift=mean,
        total_second_moment=total,
        components=components,
        component_sq=component_sq,
        identity_residual=total - ssum,
    )


def component_cross_moment(
    dec: ESDecomposition,
    p: DiscretePMF,
    r: int,
    t: int,
    args_r: tuple[int, ...],
    args_t: tuple[int, ...],
) -> float:
    """E[h_r(Y_{args_r}) * h_t(Y_{args_t})] over the joint product space.

    args name coordinate slots; distinct subsets (or distinct orders) must
    give 0 by ANOVA orthogonality.
    """
    if len(args_r) != r or len(args_t) != t:
        raise ValueError("argument tuples must match component orders")
    slots = sorted(set(args_r) | set(args_t))
    u = len(slots)
    a, prob = p.arrays()
    d = len(a)
    if d**u > PRODUCT_SPACE_CAP:
        raise ValueError("cross-moment product space too large")
    pos = {s: i for i, s in enumerate(slots)}
    grids = np.meshgrid(*([np.arange(d)] * u), indexing="ij")
    comp_r = dec.components[r][tuple(grids[pos[s]] for s in args_r)]
    comp_t = dec.components[t][tuple(grids[pos[s]] for s in args_t)]
    weight = np.ones((1,) * u)
    for i in range(u):
        weight = weight * _axis(prob, i, u)
    return float((weight * comp_r * comp_t).sum())


def projection_inequality(h: NDArray[np.float64], p: DiscretePMF, k: int, l: int) -> tuple[float, float]:
    """Second-moment lower bound for h(S_k) from its projection onto S_l.

    Returns (lhs, rhs) with

        lhs = E (h(S_k) - Eh)^2
        rhs = k E h1^2 + [k(k-1) / (l(l-1))] (E hhat(S_l)^2 - l E h1^2)

    where h1(u) = E h(u + S_{k-1}) - Eh and hhat(v) = E h(v + S_{k-l}) - Eh.
    lhs >= rhs always; equality holds whenever h has no interaction orders
    above 2 (in particular for quadratic h) at l = 2.
    """
    if not 2 <= l < k:
        raise ValueError(f"need 2 <= l < k, got (k, l) = ({k}, {l})")
    h = np.asarray(h, dtype=float)
    pk = pmf_power(p, k)
    ak, qk = pk.arrays()
    if len(h) != len(ak):
        raise ValueError("h must be tabulated on the S_k support")
    mean = float(qk @ h)
    hc = h - mean
    lhs = float(qk @ hc**2)

    a1, q1 = p.arrays()
    akm1, qkm1 = pmf_power(p, k - 1).arrays()
    h1 = (hc[_sum_index(a1, akm1, ak)] * qkm1).sum(axis=1)
    e_h1_sq = float(q1 @ h1**2)

    al, ql = pmf_power(p, l).arrays()
    akl, qkl = pmf_power(p, k - l).arrays()
    hhat = (hc[_sum_index(al, akl, ak)] * qkl).sum(axis=1)
    e_hhat_sq = float(ql @ hhat**2)

    rhs = k * e_h1_sq + (k * (k - 1) / (l * (l - 1))) * (e_hhat_sq - l * e_h1_sq)
    return lhs, rhs

"""Exact finite-support counterpart of the grid operators.

For a pmf with a handful of atoms everything is small linear algebra: sum
supports come from exact convolution with atom coalescing, the operators are
ratios of pmf values kept at the pairs (y_i, y_i + t_j) where they are
non-zero, and eigenvalues are exact to rounding.
This module is the oracle the grid pipeline is validated against, and it also
hosts the Efron-Stein (ANOVA) decomposition of functions of a sum.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field
from math import comb

import numpy as np
from numpy.typing import NDArray

from .densities import DistributionSpec, _discrete_arrays
from .operators import CHOLESKY_BLOCK, KRYLOV_GUARD, SPECTRUM_HEAD, SpectrumResult, ThetaResult, theta_from_spectrum
from .operators import _check_memory, _eigensystem, _hull, gram_matrix

__all__ = [
    "DiscretePMF",
    "ExactOperator",
    "ExactGram",
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

ATOM_TOL = 1e-12  # coalescing tolerance for sum supports, relative to the largest |atom| once that exceeds 1
SUPPORT_CAP = 20000
PRODUCT_SPACE_CAP = 10_000_000
# Values in one stack of top-order Efron-Stein slabs (``_top_stacks``): a
# d^(k-1) slab of fewer values shares its numpy calls with the next ones.
SLAB_STACK = 4096
_EXACT_REMEDY = "use fewer atoms or a smaller n"


@dataclass(frozen=True)
class DiscretePMF:
    """A pmf on ascending atoms; equality and hashing read the two tuples, ``arrays()`` their read-only float copies."""

    atoms: tuple[float, ...]
    probs: tuple[float, ...]
    _arrays: tuple[NDArray[np.float64], NDArray[np.float64]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.atoms) != len(self.probs) or not self.atoms:
            raise ValueError("atoms and probs must be nonempty and equal length")
        a = np.array(self.atoms, dtype=float)
        p = np.array(self.probs, dtype=float)
        a.flags.writeable = p.flags.writeable = False
        object.__setattr__(self, "_arrays", (a, p))
        gaps, tol = np.diff(a), _atom_tol(a)
        if (gaps < 0).any():
            raise ValueError("atoms must be ascending")
        if (gaps <= tol).any():
            i = int(np.argmax(gaps <= tol))
            raise ValueError(f"atoms {float(a[i])!r} and {float(a[i + 1])!r} lie within the coalescing tolerance "
                             f"{tol:g} of each other; merge them into one atom")
        if (p <= 0).any():
            raise ValueError("probabilities must be positive")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, not 1 within 1e-12")

    @classmethod
    def from_spec(cls, spec: DistributionSpec) -> "DiscretePMF":
        if spec.family != "discrete":
            raise ValueError(f"expected a discrete spec, got {spec.family!r}")
        a, p = _discrete_arrays(spec)
        order = np.argsort(a)
        return cls(tuple(a[order]), tuple(p[order]))

    def arrays(self) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """The atoms and probabilities as read-only float arrays, built once at construction."""
        return self._arrays

    def mean(self) -> float:
        a, p = self.arrays()
        return float(p @ a)


def _atom_tol(atoms: NDArray[np.float64]) -> float:
    """ATOM_TOL scaled by max(1, max |atom|): sums of large atoms round by more than an absolute 1e-12."""
    return ATOM_TOL * max(1.0, float(np.abs(atoms).max()))


def _coalesce(atoms: NDArray[np.float64], probs: NDArray[np.float64]) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Sorted atoms with every atom within the tolerance of its group's first atom merged into that group.

    The tolerance is ``_atom_tol(atoms)``. A gap above it always starts a
    group; only a run of closer atoms spanning more than it is split atom by
    atom. ``np.bincount`` sums each group's probabilities in sorted order, as
    a running sum would.
    """
    order = np.argsort(atoms, kind="stable")
    a, p = atoms[order], probs[order]
    tol = _atom_tol(a)
    starts = np.concatenate(([True], np.diff(a) > tol))
    first = np.flatnonzero(starts)
    last = np.append(first[1:], len(a)) - 1
    wide = a[last] - a[first] > tol
    for i, j in zip(first[wide], last[wide]):
        head = a[i]
        for t in range(i + 1, j + 1):
            if a[t] - head > tol:
                starts[t] = True
                head = a[t]
    return a[starts], np.bincount(np.cumsum(starts) - 1, weights=p)


def convolve_pmf(p: DiscretePMF, q: DiscretePMF) -> DiscretePMF:
    return _convolve(p, q, "the convolution")


def _convolve(p: DiscretePMF, q: DiscretePMF, law: str) -> DiscretePMF:
    """The law of X + Y for independent X ~ ``p`` and Y ~ ``q``; ``law`` names it in the refusals.

    A product of probabilities below the smallest double rounds to 0 (the
    binomial 0.5^n at n = 1075); that sum is refused, not passed on as an
    atom of probability 0.
    """
    ap, pp = p.arrays()
    aq, pq = q.arrays()
    if len(ap) * len(aq) > SUPPORT_CAP * 64:
        raise ValueError("support overflow during convolution")
    atoms = (ap[:, None] + aq[None, :]).ravel()
    probs = (pp[:, None] * pq[None, :]).ravel()
    a, pr = _coalesce(atoms, probs)
    if len(a) > SUPPORT_CAP:
        raise ValueError(f"support overflow: {len(a)} atoms (cap {SUPPORT_CAP})")
    pr /= pr.sum()
    if not pr.all():
        raise ValueError(
            f"{law} underflows: {len(pr) - np.count_nonzero(pr)} of its {len(pr)} atom probabilities are below "
            "the smallest double; use a smaller n"
        )
    return DiscretePMF(tuple(a), tuple(pr))


def pmf_power(p: DiscretePMF, n: int) -> DiscretePMF:
    """Law of the n-fold i.i.d. sum; n = 0 gives the point mass at 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _sum_laws(p, n)[n]


def _sum_laws(p: DiscretePMF, k: int) -> list[DiscretePMF]:
    """The laws of S_0, ..., S_k, one convolution each.

    S_0 is the point mass at 0, S_1 is ``p`` itself and S_r is S_{r-1}
    convolved with ``p``: a left fold, so every law is the one ``pmf_power``
    returns, bit for bit, and a caller that needs several of them folds once.
    """
    laws = [DiscretePMF((0.0,), (1.0,)), p][: k + 1]
    while len(laws) <= k:
        laws.append(_convolve(laws[-1], p, f"the law of S_{len(laws)}"))
    return laws


def _sum_index(a: NDArray[np.float64], b: NDArray[np.float64], support: NDArray[np.float64]) -> NDArray[np.intp]:
    """Index in the sorted ``support`` of every a_i + b_j, shape a.shape + b.shape.

    A sum matches the support atom within ``_atom_tol(support)`` of it; a
    sum with none raises, since the support was built to hold every such sum.
    """
    tol = _atom_tol(support)
    sums = np.add.outer(a, b)
    idx = np.minimum(np.searchsorted(support, sums - tol), len(support) - 1)
    if (np.abs(support[idx] - sums) > tol).any():
        raise ValueError("sum support mismatch; atom coalescing produced an inconsistent lattice")
    return idx


@dataclass
class ExactOperator:
    """The exact operators between S_m and S_n, kept as the pairs where they are non-zero.

    Row i of C* and of B is non-zero only in the columns ``index[i, j]`` of
    the sums y_i + t_j, t_j the atoms of S_{n-m}: there C*[i, k] =
    P(S_{n-m} = t_j) and B[i, k] = ``values[i, j]``. No dense
    (|S_m|, |S_n|) matrix is formed: C and C* are applied from the pairs.
    """

    summand: DiscretePMF  # S_m
    total: DiscretePMF  # S_n
    partial: DiscretePMF  # S_{n-m}
    n: int
    m: int
    index: NDArray[np.intp]  # (|S_m|, |S_{n-m}|): column of y_i + t_j in the S_n support
    values: NDArray[np.float64]  # (|S_m|, |S_{n-m}|): sqrt(q_m(y_i)) q_{n-m}(t_j) / sqrt(q_n(y_i + t_j))

    def apply_Cstar(self, g: NDArray[np.float64]) -> NDArray[np.float64]:
        """Adjoint map (C* g)(y_i) = E[g(S_n) | S_m = y_i] = sum_j q_{n-m}(t_j) g(y_i + t_j), on the S_m support."""
        _, qt = self.partial.arrays()
        return g[self.index] @ qt

    def apply_C(self, f: NDArray[np.float64]) -> NDArray[np.float64]:
        """Forward map (C f)(s_k) = E[f(S_m) | S_n = s_k], on the S_n support.

        One ``np.bincount`` sums q_m(y_i) q_{n-m}(t_j) f(y_i) over the pairs
        with y_i + t_j = s_k; dividing by q_n(s_k) conditions on S_n.
        """
        _, qy = self.summand.arrays()
        _, qt = self.partial.arrays()
        _, qn = self.total.arrays()
        weight = (qy * f)[:, None] * qt
        return np.bincount(self.index.ravel(), weights=weight.ravel(), minlength=len(qn)) / qn

    @property
    def health(self) -> dict:
        """Numerical health signals a spectrum of this operator reports."""
        return {"support_size": len(self.summand.atoms)}

    def gram(self, rows: slice, avail: int | None = None) -> NDArray[np.float64]:
        """The Gram matrix ``B[rows] @ B[rows].T``, built from the pairs, its memory checked against ``avail``.

        Column k of B adds b_a b_b to S[a, b] for every two rows a, b it holds,
        so the P = sum_k c_k^2 products (c_k the rows in column k) are all of
        S. When P is at most the size of the dense support block (the rows and
        the hull of the columns they touch), they are scattered: one
        ``np.bincount`` sums the ``_row_pairs`` into S, each entry over the
        columns its two rows share in ascending order, the same order for
        S[a, b] and S[b, a], so S is exactly symmetric and needs no BLAS.
        Otherwise (a lattice support, where sums pile up in few columns) the
        block is built and multiplied by ``gram_matrix``.
        """
        index, values = self.index[rows], self.values[rows]
        h = len(index)
        counts = np.bincount(index.ravel(), minlength=len(self.total.atoms))
        pairs = int(counts @ counts)
        cols = _hull(counts > 0)
        c = cols.stop - cols.start
        if pairs > h * c:
            self._check_memory(f"a {h} x {c} support block and its Gram matrix", 8 * h * (c + h), avail)
            block = np.zeros((h, c))
            block[np.arange(h)[:, None], index - cols.start] = values
            return gram_matrix(block)

        # five pair-sized arrays are alive at once, then S
        self._check_memory(f"{pairs} column-sharing pairs and a {h} x {h} Gram matrix", 8 * (5 * pairs + h * h), avail)
        order = np.argsort(index, axis=None, kind="stable")
        left, right, weight = _row_pairs(index, values, order, counts, 0, h)
        left *= h
        left += right
        del right, order
        return np.bincount(left, weights=weight, minlength=h * h).reshape(h, h)

    def gram_pairs(self, rows: slice, budget: tuple[int, int], avail: int | None = None) -> ExactGram:
        """The Gram matrix of ``rows`` as an ``ExactGram``, read through the pairs by the Krylov ``budget``'s solve.

        Checked first against ``avail`` for what the certified head solve
        holds besides S: the entries' column order, the certificate's factor
        rows, h (h + CHOLESKY_BLOCK) / 2 doubles, five arrays the size of
        the largest block row's pairs, and four copies of the h x width *
        blocks Krylov basis (the basis, its products and their grown
        copies). The dense S is checked for only where the fallback forms it
        (``operators._gram``).
        """
        index = self.index[rows]
        h = len(index)
        counts = np.bincount(index.ravel(), minlength=len(self.total.atoms))
        row_pairs = np.add.reduceat(counts[index].sum(axis=1), np.arange(0, h, CHOLESKY_BLOCK))
        width, blocks = budget
        need = 8 * (index.size + h * (h + CHOLESKY_BLOCK) // 2 + 5 * int(row_pairs.max()) + 4 * h * width * blocks)
        self._check_memory(f"the certified Krylov solve of {h} rows from their column-sharing pairs", need, avail)
        return ExactGram(self, rows, np.argsort(index, axis=None, kind="stable"), counts)

    def _check_memory(self, part: str, need: int, avail: int | None = None) -> None:
        _check_memory("exact operator", self.n, self.m, part, need, _EXACT_REMEDY, avail)


@dataclass(frozen=True)
class ExactGram:
    """The Gram matrix S = B[rows] B[rows]^T of an exact operator, read without forming it.

    ``X @ S`` for a block of rows X sums each row of X B column by column
    over the operator's stored pairs (one ``np.bincount``) and gathers it
    back through B's rows. ``block_row(a, b, out)`` scatters S[a:b, :b] from
    the column-sharing pairs whose left row lies in [a, b) (``_row_pairs``,
    from ``order``, the entries sorted by column, and ``counts``, the
    entries of each column), bit for bit those rows of
    ``ExactOperator.gram``; only one block's pairs exist at a time.
    """

    op: ExactOperator
    rows: slice
    order: NDArray[np.intp]
    counts: NDArray[np.intp]

    __array_ufunc__ = None  # ``X @ S`` with an array X calls ``__rmatmul__``

    @property
    def shape(self) -> tuple[int, int]:
        h = self.rows.stop - self.rows.start
        return h, h

    def __rmatmul__(self, X: NDArray[np.float64]) -> NDArray[np.float64]:
        index, values = self.op.index[self.rows], self.op.values[self.rows]
        col = index.ravel()
        out = np.empty_like(X)
        for r, x in enumerate(X):
            XB = np.bincount(col, weights=(x[:, None] * values).ravel(), minlength=len(self.counts))
            out[r] = np.einsum("ij,ij->i", XB[index], values)
        return out

    def block_row(self, a: int, b: int, out: NDArray[np.float64]) -> NDArray[np.float64]:
        """S[a:b, :b] written into ``out``, summed from the pairs of rows [a, b) in ``gram``'s order: its rows' bytes.

        One unbuffered ``np.add.at`` adds the products in pair order from 0,
        as ``np.bincount`` does, and writes no array of ``out``'s size.
        """
        index, values = self.op.index[self.rows], self.op.values[self.rows]
        left, right, weight = _row_pairs(index, values, self.order, self.counts, a, b)
        keep = right < b
        left = (left[keep] - a) * b
        left += right[keep]
        out[...] = 0.0
        np.add.at(out.reshape(-1), left, weight[keep])
        return out


def _row_pairs(
    index: NDArray[np.intp],
    values: NDArray[np.float64],
    order: NDArray[np.intp],
    counts: NDArray[np.intp],
    a: int,
    b: int,
) -> tuple[NDArray[np.intp], NDArray[np.intp], NDArray[np.float64]]:
    """Every two entries that share a column, the first in rows [a, b), as (left row, right row, product), in row order.

    ``order`` sorts the entries of ``index`` by column (stable, so by row
    within a column) and ``counts`` holds the entries of each column. The
    pairs run over the entries (i, j) of rows [a, b) in row-major order,
    which within a row is ascending column order (the sums y_i + t_j ascend
    with t_j), each paired with every entry of its column, its own
    included. So the products a scatter sums into S[i, k] arrive in
    ascending column order, whichever block of S it forms.
    """
    nt = index.shape[1]
    col = index.ravel()[a * nt : b * nt]
    first = np.cumsum(counts) - counts  # where each column's entries start in ``order``
    reps = counts[col]
    start = np.cumsum(reps) - reps
    left = np.repeat(np.arange(a * nt, b * nt), reps)
    right = np.arange(int(reps.sum()))
    right -= np.repeat(start - first[col], reps)
    right = order[right]
    weight = values.ravel()[left]
    weight *= values.ravel()[right]
    left //= nt
    right //= nt
    return left, right, weight


def exact_operator(p: DiscretePMF, n: int, m: int = 1) -> ExactOperator:
    """The exact operators between S_m and S_n as their sum-index pairs.

    Atom t_j of S_{n-m} sends row i to the column of y_i + t_j in the S_n
    support (``_sum_index``). Refused beforehand when the index and value
    arrays, and the lookup's temporaries, would not fit in available memory.
    """
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got (n, m) = ({n}, {m})")
    pm = pmf_power(p, m)
    pt = pmf_power(p, n - m)
    pn = _convolve(pm, pt, f"the law of S_{n}")
    ay, qy = pm.arrays()
    at, qt = pt.arrays()
    an, qn = pn.arrays()
    ny, nt = len(ay), len(at)
    _check_memory("exact operator", n, m, f"{ny} x {nt} sum-index pairs", 8 * 4 * ny * nt, _EXACT_REMEDY)
    index = _sum_index(ay, at, an)
    values = np.sqrt(qy)[:, None] * qt
    values /= np.sqrt(qn)[index]
    return ExactOperator(summand=pm, total=pn, partial=pt, n=n, m=m, index=index, values=values)


def _krylov_budget(d: int, n: int, m: int, total: int, top: int) -> tuple[int, int] | None:
    """Start-block width and block count that bound the Krylov solve of a d-atom law, or None where none is known.

    When no two sums of n atoms coincide (``total``, the size of the S_n
    support, is C(d - 1 + n, n)), S_n determines the multiset of the
    summands, and C*C acts on the functions of S_m that are symmetric of
    Efron-Stein order k (multisets of k of the d - 1 centred atom
    indicators, C(d - 2 + k, k) of them) as C(m, k) / C(n, k). The spectrum
    then has m + 1 distinct eigenvalues, so the block Krylov space is
    invariant after m + 1 blocks; the width holds the first clusters that
    reach ``top`` eigenvalues (at least the d of the constant and the m/n
    modes) plus KRYLOV_GUARD. Laws with coinciding sums (lattices) get no
    budget: their eigenvalues are simple and decay slowly, and a Krylov run
    capped at a quarter of the rows was measured to miss on them below
    about 1100 rows.
    """
    if d < 2 or total != comb(d - 1 + n, n):
        return None
    head = 0
    for k in range(m + 1):
        head += comb(d - 2 + k, k)
        if head >= top:
            break
    return head + KRYLOV_GUARD, m + 1


def exact_spectrum(p: DiscretePMF, n: int, m: int = 1) -> SpectrumResult:
    """Eigen-decomposition of the exact C*C on the S_m support.

    No rank probe runs. A law whose n-sums never coincide has a Krylov
    budget (``_krylov_budget``). Where it fits, the top K eigenpairs come
    from the certified block Krylov solve, started on fixed pseudo-random
    columns, and ``eigenvalues`` holds only those K (for 10 and 12 generic
    atoms at (5, 4), h = 715 and 1365), with the certified bound on the rest
    as ``health["tail_bound"]``. That solve never forms the Gram matrix: it
    reads its products and the certificate's block rows from the pairs
    (``ExactOperator.gram_pairs``), whose memory is checked first, and holds
    about h^2 / 2 doubles of factor rows at most. Only a certificate that
    fails sends the block to eigh, and only there is the Gram matrix formed
    (``ExactOperator.gram``) and its eigensolve's memory checked, refusing
    as every dense block does. Every other block (lattices, small blocks)
    forms the Gram matrix after that check and goes straight to eigh,
    returning all its eigenvalues. No exact block calls eigvalsh.
    """
    op = exact_operator(p, n, m)
    ay, qy = op.summand.arrays()
    budget = _krylov_budget(len(p.atoms), n, m, len(op.total.atoms), SPECTRUM_HEAD)
    return _eigensystem(op, qy, ay, budget)


def exact_theta(p: DiscretePMF, n: int, m: int = 1) -> ThetaResult:
    """Exact theta; +inf sentinel when the S_m support has no third mode."""
    return theta_from_spectrum(exact_spectrum(p, n, m))


# ---------------------------------------------------------------------------
# Efron-Stein / ANOVA decomposition of h(S_k)


class _Components(Mapping):
    """The components by order, read-only: orders 1..k-1 stored, order k rebuilt on each read and not kept.

    ``top()`` yields the order-k component a stack of slabs at a time, one
    slab per value of its last argument (``_top_stacks``, from the
    |S_{k-1}| x d table and the d^(k-1) index it closes over); a read of
    order k fills one (d,)*k array from them, so that array exists only
    while its reader holds it.
    """

    def __init__(
        self,
        lower: dict[int, NDArray[np.float64]],
        top: Callable[[], Iterator[NDArray[np.float64]]],
        shape: tuple[int, ...],
    ) -> None:
        self._lower, self._top, self._shape = lower, top, shape

    def __getitem__(self, r: int) -> NDArray[np.float64]:
        if r != len(self._shape):
            return self._lower[r]
        out = np.empty(self._shape)
        j = 0
        for stack in self._top():
            out[..., j : j + stack.shape[-1]] = stack
            j += stack.shape[-1]
        return out

    def __contains__(self, r: object) -> bool:
        return r in self._lower or r == len(self._shape)

    def __iter__(self) -> Iterator[int]:
        return iter(range(1, len(self._shape) + 1))

    def __len__(self) -> int:
        return len(self._shape)


@dataclass
class ESDecomposition:
    """Orthogonal decomposition h(S_k) - E h = sum over subsets of h_|T|.

    components[r] is the canonical order-r component on the product grid,
    shape (d,)*r with d the summand support size, in a read-only mapping
    with keys 1..k: orders below k are stored (read-only arrays), and order
    k, the one d^k-sized table, is rebuilt a stack of slabs at a time on
    each read and not kept. component_sq[r] is E h_r(Y_1..Y_r)^2. The
    variance identity reads

        E (h(S_k) - E h)^2 = sum_r C(k, r) * component_sq[r].
    """

    k: int
    mean_shift: float
    total_second_moment: float
    components: Mapping[int, NDArray[np.float64]]
    component_sq: dict[int, float]
    identity_residual: float


def _grid_index(laws: list[DiscretePMF]) -> NDArray[np.intp]:
    """The index in the S_r support (``laws[r]``) of y_1 + ... + y_r on the product grid, shape (d,)*r.

    ``laws`` are the sum laws S_0..S_r (``_sum_laws``). The index is built
    level by level: the S_i index is the S_{i-1} one sent through the small
    ``_sum_index(S_{i-1}, atoms, S_i)`` table, so no sum is formed or
    searched on the product grid.
    """
    supports = [law.arrays()[0] for law in laws]
    idx = np.zeros((), dtype=np.intp)  # the S_0 index of the empty sum
    for prev, cur in zip(supports[:-1], supports[1:]):
        idx = _sum_index(prev, supports[1], cur)[idx[..., None], np.arange(len(supports[1]))]
    return idx


def _axis(v: NDArray[np.float64], i: int, r: int) -> NDArray[np.float64]:
    """``v`` laid along axis i of an r-axis product grid."""
    return v.reshape((1,) * i + (len(v),) + (1,) * (r - i - 1))


def _expect(a: NDArray[np.float64], prob: NDArray[np.float64], i: int) -> NDArray[np.float64]:
    """The expectation of the product-grid table ``a`` over its argument i, which drops axis i.

    One ``np.einsum`` without ``optimize``: it multiplies and sums in its own
    loop, never through BLAS, and makes no temporary of ``a``'s size.
    """
    axes = list(range(a.ndim))
    return np.einsum(a, axes, prob, [i], axes[:i] + axes[i + 1 :])


def _mean_square(comp: NDArray[np.float64], prob: NDArray[np.float64], stacked: bool = False):
    """E comp^2 over every argument of a product-grid table: the square and the last argument's weights in one
    ``np.einsum``, then one argument at a time, so no temporary of the table's size exists. With ``stacked`` the last
    axis of ``comp`` indexes slabs, not an argument, and one mean square per slab is returned."""
    r = np.ndim(comp) - stacked  # the argument axes
    if not r:
        sq = comp * comp
    else:
        axes = list(range(np.ndim(comp)))
        sq = np.einsum(comp, axes, comp, axes, prob, [r - 1], axes[: r - 1] + axes[r:])
        for i in range(r - 2, -1, -1):
            sq = _expect(sq, prob, i)
    return sq if stacked else float(sq)


def _check_symmetric(comp: NDArray[np.float64], r: int, tol: float) -> None:
    """Raise unless comp[i, j, ...] and comp[j, i, ...] agree within ``tol`` at every coordinate.

    ``comp`` is a stored component or one stack of top-order slabs, so the
    one temporary, of its size, is O(d^(k-1)) or at most SLAB_STACK values; a
    NaN fails the test and raises.
    """
    asym = np.subtract(comp, comp.swapaxes(0, 1))
    if not np.abs(asym, out=asym).max() <= tol:
        raise AssertionError(f"order-{r} component is not symmetric in its arguments")


def _top_stacks(
    table: NDArray[np.float64], index: NDArray[np.intp], prob: NDArray[np.float64]
) -> Iterator[NDArray[np.float64]]:
    """The order-k component a stack of slabs at a time: slab j holds its values with the last argument at atom j.

    ``table`` is the centred h at s + a_j (s in the S_{k-1} support, a_j
    the atoms) and ``index`` the S_{k-1} index of y_1 + ... + y_{k-1} on
    the d^(k-1) grid (``_grid_index``). With G_k[..., j] = table[:, j] and
    G_{k-1} = (E table over j) both looked up at ``index``, slab j is
    (I - E_1)...(I - E_{k-1})(G_k[..., j] - G_{k-1}), centred in place, so
    no d^k table is formed. A stack holds consecutive slabs along its last
    axis, as many as fit in SLAB_STACK values and at least one, so a small
    d^(k-1) pays the per-call cost of numpy once per stack, not per slab.
    """
    prev = _expect(table, prob, 1)
    per = max(1, SLAB_STACK // index.size)
    for j in range(0, len(prob), per):
        stack = np.take(table[:, j : j + per] - prev[:, None], index, axis=0)
        for i in range(np.ndim(index)):
            stack -= np.expand_dims(_expect(stack, prob, i), i)
        yield stack


def efron_stein(h: NDArray[np.float64], p: DiscretePMF, k: int) -> ESDecomposition:
    """Decompose h(S_k) into orthogonal interaction orders, holding O(d^(k-1)) values at a time.

    h is a value table on the S_k support. It is centered internally (the
    subtracted mean is recorded); components of order >= 1 are unaffected by
    centering. The |S_{k-1}| x d table of h at s + a_j gives
    G_{k-1} = E[h(S_k) | Y_1..Y_{k-1}]: its expectation over the last
    summand, looked up on the d^(k-1) grid (``_grid_index``). G_r = E[G_{r+1}]
    over its last argument is E[h(S_k) | Y_1..Y_r], and the order-r
    component is the Hoeffding product (I - E_1)...(I - E_r) G_r, E_i the
    expectation over argument i, subtracted in place. Order k comes one
    slab per value of its last argument, a stack of slabs at a time
    (``_top_stacks``); each stack adds its slabs' shares to E h_k^2 and is
    checked and dropped. E h_r^2 contracts one argument at a
    time. Every reduction is an ``np.einsum`` without BLAS (``_expect``), so
    the result does not depend on the BLAS kernel or its thread count.

    Exchangeability of the components follows from h being a function of
    the sum; it is checked, not assumed, for every order from 2 up
    (``_check_symmetric``), to a bound that scales with h as its round-off
    does.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    a, prob = p.arrays()
    d = len(a)
    if d**k > PRODUCT_SPACE_CAP:
        raise ValueError(f"product space {d}^{k} exceeds cap {PRODUCT_SPACE_CAP}")
    h = np.asarray(h, dtype=float)
    sym_tol = 1e-10 * max(1.0, float(np.abs(h).max()))
    laws = _sum_laws(p, k)
    ak, qk = laws[k].arrays()
    if len(h) != len(ak):
        raise ValueError(f"h must be tabulated on the S_{k} support ({len(ak)} atoms, got {len(h)})")
    mean = float((h * qk).sum())
    h_cent = h - mean

    table = h_cent[_sum_index(laws[k - 1].arrays()[0], a, ak)]
    index = _grid_index(laws[:k])
    G = [_expect(table, prob, 1)[index]]  # G_{k-1}, ..., G_1
    for r in range(k - 1, 1, -1):
        G.append(_expect(G[-1], prob, r - 1))

    lower: dict[int, NDArray[np.float64]] = {}
    component_sq: dict[int, float] = {}
    for r in range(1, k):
        comp = G[k - 1 - r]  # read by no later order, so centred in place
        for i in range(r):
            comp -= np.expand_dims(_expect(comp, prob, i), i)
        comp.flags.writeable = False
        lower[r] = comp
        component_sq[r] = _mean_square(comp, prob)
        if r >= 2:
            _check_symmetric(comp, r, sym_tol)

    def top() -> Iterator[NDArray[np.float64]]:
        return _top_stacks(table, index, prob)

    slab_sq = np.empty(d)
    j = 0
    for stack in top():
        slab_sq[j : j + stack.shape[-1]] = _mean_square(stack, prob, stacked=True)
        j += stack.shape[-1]
        if k >= 3:
            _check_symmetric(stack, k, sym_tol)
    components = _Components(lower, top, (d,) * k)
    if k == 2:  # the slab index is one of the two arguments compared; the d^2 order is no larger than ``table``
        _check_symmetric(components[2], 2, sym_tol)
    component_sq[k] = float(_expect(slab_sq, prob, 0))

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

    args name coordinate slots, distinct within each tuple; distinct subsets
    (or distinct orders) must give 0 by ANOVA orthogonality. Each component
    is indexed with broadcast open grids, one (d,)-long axis per slot, so no
    u x d^u index exists, and the weighted product is formed in place.
    """
    if not (1 <= r <= dec.k and 1 <= t <= dec.k):
        raise ValueError(f"component orders must lie in 1..{dec.k}, got (r, t) = ({r}, {t})")
    if len(args_r) != r or len(args_t) != t:
        raise ValueError("argument tuples must match component orders")
    if len(set(args_r)) != r or len(set(args_t)) != t:
        raise ValueError(f"a slot repeats within an argument tuple: {args_r}, {args_t}")
    slots = sorted(set(args_r) | set(args_t))
    u = len(slots)
    a, prob = p.arrays()
    d = len(a)
    if d**u > PRODUCT_SPACE_CAP:
        raise ValueError("cross-moment product space too large")
    grid = {s: _axis(np.arange(d), i, u) for i, s in enumerate(slots)}
    comp_r = dec.components[r][tuple(grid[s] for s in args_r)]
    comp_t = dec.components[t][tuple(grid[s] for s in args_t)]
    weight = np.ones((1,) * u)
    for i in range(u):
        weight = weight * _axis(prob, i, u)
    weight *= comp_r
    weight *= comp_t
    return float(weight.sum())


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
    laws = _sum_laws(p, k)
    ak, qk = laws[k].arrays()
    if len(h) != len(ak):
        raise ValueError("h must be tabulated on the S_k support")
    mean = float(qk @ h)
    hc = h - mean
    lhs = float(qk @ hc**2)

    a1, q1 = p.arrays()
    akm1, qkm1 = laws[k - 1].arrays()
    h1 = (hc[_sum_index(a1, akm1, ak)] * qkm1).sum(axis=1)
    e_h1_sq = float(q1 @ h1**2)

    al, ql = laws[l].arrays()
    akl, qkl = laws[k - l].arrays()
    hhat = (hc[_sum_index(al, akl, ak)] * qkl).sum(axis=1)
    e_hhat_sq = float(ql @ hhat**2)

    rhs = k * e_h1_sq + (k * (k - 1) / (l * (l - 1))) * (e_hhat_sq - l * e_h1_sq)
    return lhs, rhs

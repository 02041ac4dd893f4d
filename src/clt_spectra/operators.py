"""Conditional-expectation operators between a partial sum and the full sum.

For S_m = Y_1 + ... + Y_m and S_n the n-fold sum (m < n), the forward operator
is C f(s) = E[f(S_m) | S_n = s] and its adjoint is C* g(y) = E[g(S_n) | S_m = y].
Both are induced by the kernel ratio

    tau(y, s) = p_{S_{n-m}}(s - y) / p_{S_n}(s),

and the spectrum of C*C carries the structure of interest: eigenvalue 1 on
constants, m/n on linear functions (the Dembo-Kagan-Shepp identity), and the
next eigenvalue lambda_2 defines the gap statistic

    theta = m / (n * lambda_2) - 1 >= 0.

Everything is discretized on the shared lattice built by densities.convolve,
so s_k - y_i lands exactly on node k - i of the S_{n-m} grid: the kernel is
Toeplitz, and C, C* and the trace are O(N) convolutions against p_{S_{n-m}}.
The eigenproblem is solved on the symmetrized Gram matrix S = B B^T with
B[i, k] = sqrt(w_i p_m(y_i)) tau(y_i, s_k) sqrt(w_k p_n(s_k)), which is
similar to the discretized C*C and keeps eigenvectors orthonormal in the
weighted inner product; only the rows of B that carry S_m mass are solved.
A grid kernel's B is an operator (``KernelFactor``), not a stored array:
B z and B^T x are O(N) correlations against p_{S_{n-m}}.
Every block is solved in one order. (1) Probe: a grid kernel's Gram matrix
S is probed by one pivoted Cholesky that reads diag(S) and a few of its rows
by direct correlations against p_{S_{n-m}}, without B or S; exact operators
are not probed. (2) Low rank or a budget: when the probe certifies S as
numerically low-rank (gaussian summands: eigenvalues (m/n)^k), only its
r x r core is diagonalized and nothing N^2-sized exists; otherwise that core
names a Krylov budget and start block, and an exact operator whose sums
never coincide names its own. (3) Krylov: grid and exact blocks share one
block Krylov solve for the top K eigenpairs, which reads S through its
products X S, and one certificate, which factors S's lower block rows
S[a:b, :b] packed in one array of about h^2 / 2 doubles. A grid spectrum
asked for all its eigenvalues (``spectrum``'s default, for callers that sum
or count them) forms the dense S, which eigvalsh needs; a grid head solve
writes only the packed rows (tile by tile from strips of B's rows,
``PackedGram``) and takes its products from them; an exact operator takes
its products from its non-zero pairs and fills the packed rows from them
after the Krylov run (discrete.ExactGram). Each checks memory for what it
holds. (4) Cross-check or certificate: the full grid spectrum takes every
eigenvalue from eigvalsh and keeps the Krylov pairs where their values
match it; any other block keeps only its K pairs, under a Cholesky
certificate, factored in place over the packed rows, that no eigenvalue
past them was missed (theta, the CLI, all but one battery pair). (5) Dense
eigh: a block whose budget does not fit, whose Krylov run does not
converge or whose check fails is solved by eigh, on S formed afresh once
the packed rows are freed, its eigensolve's memory checked just before.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace
import numpy as np
from numpy.typing import NDArray

from .densities import DENSITY_FLOOR, GridConfig, GridDensity, GridFunction, convolve, convolve_self

__all__ = [
    "ConditionalKernel",
    "KernelFactor",
    "SpectrumResult",
    "ThetaResult",
    "TraceResult",
    "build_kernel",
    "classify_trivial",
    "gram_matrix",
    "spectrum",
    "theta",
    "theta_from_spectrum",
    "trace_T",
    "apply_C",
    "apply_Cstar",
]

# An eigenvalue this small cannot be distinguished from a rank deficiency;
# theta is reported as +inf past it.
LAMBDA2_SENTINEL = 1e-12

# Minimum weighted correlation for classifying an eigenvector as the constant
# or the linear trivial mode.
TRIVIAL_CORR_MIN = 0.99

# Eigenvalues closer than this are one degenerate cluster for classification;
# genuinely distinct neighboring modes sit orders of magnitude further apart.
CLUSTER_TOL = 1e-8

# Rank probe: a pivoted Cholesky of a grid kernel's Gram matrix S (Harbrecht,
# Peters & Schneider, Appl. Numer. Math. 62, 2012), its rows computed by
# ``gram_row``, stops once the diagonal of the Schur complement
# E = S - L^T L sums to at most RANK_TRACE_TOL * trace(S), which bounds every
# eigenvalue error (Weyl) and the eigenvalue sum by trace(E). It gives up
# after RANK_PROBE_MAX pivots or a quarter of the block, where the r x r core
# would no longer be much cheaper than the dense solve. Its arrays (L, the
# QR's copy of L^T, Q and the eigenvectors Q W) take at most PROBE_COPIES
# RANK_PROBE_MAX h doubles. Exact operators are not probed.
RANK_PROBE_MAX = 128
RANK_TRACE_TOL = 64 * np.finfo(float).eps
PROBE_COPIES = 4

# Each row costs a correlation, so the probe also gives up once the decay of
# trace(E) has slowed over its last two windows of PROBE_WINDOW pivots and,
# slowing on at that ratio, would not reach the tolerance within the pivot
# budget. Gaussian decays speed up and never trip it; gamma and uniform
# blocks trip it after 16 to 24 pivots and go to the Krylov solve, whose
# start block the probe's Ritz vectors seed.
PROBE_WINDOW = 8

# Top-K path (block Lanczos, Golub & Underwood 1977), one for grid and exact
# blocks. A grid start block holds up to width - KRYLOV_GUARD top Ritz
# vectors of the probe's L^T L and fills the rest with fixed pseudo-random
# columns, which catch a cluster direction the probe's vectors can miss; an
# exact start block is all such columns. A Ritz pair is converged once its
# residual ||S v - theta v|| is at most RITZ_RESID_TOL * lambda_max, the
# level eigh itself reaches (about 6 eps on the grid blocks). An exact
# operator whose sums never coincide names a budget of m + 1 blocks of width
# columns (discrete._krylov_budget); a grid block is as wide as the
# ``_ritz_count`` of the probe's core spectrum plus the guard and takes as
# many blocks as fit. The solve runs where the blocks are at most
# KRYLOV_MAX_FRACTION of the h rows. Measured against eigh (2-vCPU SkylakeX,
# OpenBLAS, 2 threads, generic laws of 8 to 20 atoms, h = 120 to 1365):
# budgets of 0.06 to 0.18 of h took 0.32 to 0.79 of eigh's time, 0.25 to
# 0.34 about as long (0.83 to 1.20), and 0.4 to 1.0 of h 1.2 to 2.3 times as
# long. A grid block, whether its head or its full spectrum is read, also
# needs KRYLOV_MIN_BLOCKS blocks to fit; with fewer it goes straight to eigh.
# Measured on the head spectra of the 34 gamma (beta 1, 2, 4) and uniform
# blocks of 256 to 1024 nodes, (n, m) up to (4, 3), that fit 1 to 8 blocks
# (same host): with 1 to 5 blocks (h = 71 to 286) 23 of 28 Krylov solves
# missed, each such spectrum taking 1.12 to 1.65 times as long as with eigh
# alone, and the 28 took 225 against 194 ms; with 6 to 8 (h = 295 to 391) 3
# of 6 missed and the 6 took 114 against 105 ms; every block that fit 9 or
# more (21 blocks, h = 442 to 1567) converged, at 0.25 to 0.89 of eigh's
# time. The certificate's O(h^3 / 3) Cholesky runs in row blocks of
# CHOLESKY_BLOCK (64 took 19 ms at h = 1068 against 17 ms for LAPACK's own,
# 128 took 24 ms).
KRYLOV_GUARD = 4
RITZ_RESID_TOL = 32 * np.finfo(float).eps
KRYLOV_MAX_FRACTION = 0.25
KRYLOV_MIN_BLOCKS = 6
CHOLESKY_BLOCK = 64

# A grid kernel writes its Gram matrix tile by tile from strips of B's rows
# (``ConditionalKernel._gram_tiles``), GRAM_STRIP rows each, into the dense S
# of a full solve or a fallback (``gram``) or into the packed lower rows of a
# head solve (``gram_packed``); a multiple of CHOLESKY_BLOCK, so each strip
# covers whole bands of the packed rows. Measured on four gamma
# blocks of h = 597 to 2217 rows (2-vCPU SkylakeX, OpenBLAS, 2 threads), 256
# took 6.6 to 76 ms, 128 5.5 to 83 ms (45 against 32 ms at h = 1248), 512 6.2
# to 89 ms and 64 up to 1.7 times as long as 256; one product of the whole
# h x c support block of B took 6.8 to 207 ms.
GRAM_STRIP = 256

# Past the rank probe, the eigensolve needs about 8 SOLVE_SQUARES h^2 bytes on
# its worst (dense eigh) path: the h x h Gram matrix S, eigh's copy of S, its
# 2 h^2 workspace, its eigenvectors and the reversed copy of those. It is
# checked just before S is formed (``_gram``): by a full grid solve before its
# Krylov run (eigvalsh copies S), and by every block where eigh must run on S
# formed afresh, the only place a head solve, grid or exact, forms S. A head
# solve checks only what it holds instead (``ConditionalKernel.gram_packed``,
# ``discrete.ExactOperator.gram_pairs``). A refused solve pays no Gram
# product (the grid Gram's two row strips are checked with S, freed before
# the solve). The peak-RSS rise measured around one dense-path spectrum call,
# S included, is 8 (5.1 to 5.7) h^2 for h = 715 to 2380 (four exact operators at (5, 4) and
# five gamma and uniform grid kernels), so the check stands 5-17% above it.
SOLVE_SQUARES = 6

# An eigenfunction value f(y_i) = phi_i / sqrt(mass_i) is written as 0 where
# mass_i is below this fraction of the largest mass: there the roundoff of the
# unit eigenvector phi, of order eps, divided by sqrt(mass_i) is at least of
# order 1 / sqrt(max mass) and swamps values of unit size (the constant mode).
EIGENFUNCTION_MASS_FLOOR = np.finfo(float).eps ** 2

# Eigenfunctions a spectrum maps back to node values, and eigenvalues the theta
# diagnostics and the spectrum document show: theta reads lambda_2, and the
# head leaves room for a degenerate m/n cluster above it.
SPECTRUM_HEAD = 8

# theta measured on an exactly degenerate spectrum (a pmf whose pairwise sums
# never collide has lambda_2 = m/n, theta = 0) can land a few ulps below 0.
THETA_ROUNDOFF = 1e-12


@dataclass(frozen=True)
class KernelFactor:
    """The factor B = diag(dy) T diag(ds), T[i, k] = p_t[k - i], applied from its O(N) data.

    ``B @ z`` is dy * correlate(ds * z, p_t, "valid") and ``B.T @ x`` is
    ds * convolve(dy * x, p_t); a 2-D input is applied column by column.
    Direct, not FFT, for the reason ``ConditionalKernel.gram_diag`` gives.
    ``nbytes`` counts the three vectors it holds.
    """

    dy: NDArray[np.float64]
    p_t: NDArray[np.float64]
    ds: NDArray[np.float64]
    transposed: bool = False

    @property
    def shape(self) -> tuple[int, int]:
        ny, ns = len(self.dy), len(self.ds)
        return (ns, ny) if self.transposed else (ny, ns)

    @property
    def nbytes(self) -> int:
        return self.dy.nbytes + self.p_t.nbytes + self.ds.nbytes

    @property
    def T(self) -> KernelFactor:
        return replace(self, transposed=not self.transposed)

    def __matmul__(self, z) -> NDArray[np.float64]:
        z = np.asarray(z, dtype=float)
        rows, cols = self.shape
        if z.ndim not in (1, 2) or len(z) != cols:
            raise ValueError(f"cannot apply a {rows} x {cols} kernel factor to an array of shape {z.shape}")
        if z.ndim == 1:
            return self._apply(z)
        out = np.empty((rows, z.shape[1]))
        for j in range(z.shape[1]):
            out[:, j] = self._apply(z[:, j])
        return out

    def _apply(self, z: NDArray[np.float64]) -> NDArray[np.float64]:
        if self.transposed:
            return self.ds * np.convolve(self.dy * z, self.p_t)
        return self.dy * np.correlate(self.ds * z, self.p_t, "valid")


def _packed_size(h: int) -> int:
    """Doubles in the packed lower block rows of an h x h matrix (``_bands``), about h (h + CHOLESKY_BLOCK) / 2."""
    nb = CHOLESKY_BLOCK
    return sum((min(a + nb, h) - a) * min(a + nb, h) for a in range(0, h, nb))


def _bands(data: NDArray[np.float64], h: int):
    """(a, b, the view of S[a:b, :b]) for each band of CHOLESKY_BLOCK rows of the packed lower block rows ``data``.

    Band [a, b) starts past the full bands above it, nb (nb + 2 nb + ... + a) = a (a + nb) / 2 values.
    """
    nb = CHOLESKY_BLOCK
    for a in range(0, h, nb):
        b = min(a + nb, h)
        off = a * (a + nb) // 2
        yield a, b, data[off : off + (b - a) * b].reshape(b - a, b)


@dataclass(frozen=True)
class PackedGram:
    """A symmetric h x h matrix S held as its lower block rows S[a:b, :b], packed (``_bands``): about h^2 / 2 doubles.

    ``X @ S`` for a block of rows X takes, band by band, one product for
    the band's part of S on and below the diagonal, X[:, a:b] S[a:b, :b],
    and one for its transpose above it, X[:, :a] S[a:b, :a]^T.
    ``lower_rows()`` hands the buffer itself to the certificate, which
    factors it in place.
    """

    data: NDArray[np.float64]
    h: int

    __array_ufunc__ = None  # ``X @ S`` with an array X calls ``__rmatmul__``

    @property
    def shape(self) -> tuple[int, int]:
        return self.h, self.h

    def __rmatmul__(self, X: NDArray[np.float64]) -> NDArray[np.float64]:
        out = np.zeros(X.shape)
        for a, b, band in _bands(self.data, self.h):
            out[:, :b] += X[:, a:b] @ band
            out[:, a:b] += X[:, :a] @ band[:, :a].T
        return out

    def lower_rows(self) -> NDArray[np.float64]:
        return self.data


@dataclass
class ConditionalKernel:
    """Discretized kernel linking the S_m grid (rows) to the S_n grid (columns).

    Holds O(N) data only: the three laws and the factors ``dy`` = sqrt(w_y p_m)
    and ``ds`` = sqrt(w_s / p_n), 0 on masked columns. ``table[i, k]`` =
    p_{S_{n-m}}(s_k - y_i) is a read-only Toeplitz view over p_t, and the
    factor ``B`` = dy table ds is a ``KernelFactor``, applied by correlations
    against p_t and never stored as an array. The Gram matrix S of a block
    of B's rows is written tile by tile from strips of those rows
    (``_gram_tiles``): the dense S (``gram``), which only a full solve and
    the eigh fallback form, or, for a head solve, its lower block rows
    packed in about h^2 / 2 doubles (``gram_packed``). Its diagonal and
    single rows come from correlations against p_t alone (``gram_diag``,
    ``gram_row``).
    """

    summand: GridDensity  # law of S_m, the y-grid
    total: GridDensity  # law of S_n, the s-grid
    partial: GridDensity  # law of S_{n-m}
    n: int
    m: int
    dy: NDArray[np.float64]
    ds: NDArray[np.float64]
    row_sum_err: float
    masked_mass: float

    @property
    def table(self) -> NDArray[np.float64]:
        # row i is the length-ns window of the zero-padded p_t that starts at ny - 1 - i
        pad = np.zeros(len(self.dy) - 1)
        padded = np.concatenate((pad, self.partial.values, pad))
        return np.lib.stride_tricks.sliding_window_view(padded, len(self.ds))[::-1]

    @property
    def B(self) -> KernelFactor:
        return KernelFactor(self.dy, self.partial.values, self.ds)

    def _gram_tiles(self, rows: slice):
        """The tiles of B[rows] B[rows]^T on and above its diagonal, formed from strips of GRAM_STRIP rows.

        Yields (a, b, c, d, left, right) with S[a:b, c:d] = left @ right.T,
        c >= a, rows counted from ``rows.start``. With [t0, t1) the positive
        span of p_t, row i of B is 0 outside the columns [i + t0, i + t1),
        so the strip of rows [a, b) is the C-contiguous array of the
        elementwise products dy_i table[i, k] ds_k over its columns
        [a + t0, b - 1 + t1) alone. Its diagonal tile is the strip times its
        transpose (numpy's syrk, which mirrors the triangle, so the tile is
        exactly symmetric); against each later strip, one gemm over the
        columns the two share gives the tile above the diagonal. S is
        banded: S[i, j] = 0 once |i - j| >= t1 - t0, and the tiles of strips
        that share no column, never yielded, are 0. Two strips exist at a
        time; no h x c block of B does. A tile's rows start at a multiple of
        GRAM_STRIP, hence of CHOLESKY_BLOCK.
        """
        table = self.table
        span = _hull(self.partial.values > 0)
        width = span.stop - span.start  # columns one row touches
        r0, h = rows.start, rows.stop - rows.start
        nb = min(GRAM_STRIP, h)

        def strip(a: int, b: int, hi: int) -> NDArray[np.float64]:
            lo = r0 + a + span.start
            block = self.dy[r0 + a : r0 + b, None] * table[r0 + a : r0 + b, lo:hi]
            block *= self.ds[lo:hi]
            return block

        for a in range(0, h, nb):
            b = min(a + nb, h)
            hi = r0 + b - 1 + span.stop
            top = strip(a, b, hi)
            yield a, b, a, b, top, top
            for c in range(b, min(h, b - 1 + width), nb):  # later strips that share a column
                yield a, b, c, min(c + nb, h), top[:, c - a :], strip(c, min(c + nb, h), hi)

    def _strip_doubles(self, h: int) -> tuple[int, int]:
        """The rows of ``_gram_tiles``'s strips for an h-row block, and the doubles two strips take."""
        span = _hull(self.partial.values > 0)
        nb = min(GRAM_STRIP, h)
        return nb, 2 * nb * (nb + span.stop - span.start - 1)

    def gram(self, rows: slice, avail: int | None = None) -> NDArray[np.float64]:
        """The Gram matrix S = B[rows] B[rows]^T, each tile of ``_gram_tiles`` written into S.

        A tile above the diagonal is written in place and its transpose
        below it, so S is exactly symmetric. Checked for S and two strips
        against ``avail`` (``_check_memory``).
        """
        h = rows.stop - rows.start
        nb, strips = self._strip_doubles(h)
        self._check_memory(f"a {h} x {h} Gram matrix and two {nb}-row strips", 8 * (h * h + strips), avail)
        S = np.zeros((h, h))
        for a, b, c, d, left, right in self._gram_tiles(rows):
            tile = np.matmul(left, right.T, out=S[a:b, c:d])
            if c > a:
                S[c:d, a:b] = tile.T
        return S

    def gram_packed(self, rows: slice, budget: tuple[int, int], avail: int | None = None) -> PackedGram:
        """``gram(rows)``'s lower block rows as a ``PackedGram``, for the Krylov ``budget``'s solve and its certificate.

        Each tile of ``_gram_tiles`` is formed in one tile-sized array and
        its transpose written into the bands of its columns' rows (the
        diagonal tile's lower part into its own), so the bands hold
        ``gram``'s bytes; h x h is never allocated. Checked first against
        ``avail`` for what the certified head solve holds: the packed rows,
        h (h + CHOLESKY_BLOCK) / 2 doubles, two strips and the tile, and
        four copies of the h x width * blocks Krylov basis (the basis, its
        products and their grown copies). The dense S is checked for only
        where the fallback forms it (``_gram``).
        """
        h = rows.stop - rows.start
        nb, strips = self._strip_doubles(h)
        width, blocks = budget
        need = 8 * (_packed_size(h) + strips + nb * nb + 4 * h * width * blocks)
        self._check_memory(f"the certified Krylov solve of {h} rows from their packed Gram rows", need, avail)
        data = np.zeros(_packed_size(h))
        bands = list(_bands(data, h))
        buf = np.empty((nb, nb))
        for a, b, c, d, left, right in self._gram_tiles(rows):
            tile = np.matmul(left, right.T, out=buf[: b - a, : d - c])
            for r, e, band in bands[c // CHOLESKY_BLOCK : -(-d // CHOLESKY_BLOCK)]:
                stop = min(b, e)  # b past the diagonal tile, the band's own end on it
                band[:, a:stop] = tile[: stop - a, r - c : e - c].T
        return PackedGram(data, h)

    def gram_diag(self, rows: slice) -> NDArray[np.float64]:
        """The diagonal of ``gram(rows)`` without S, dy_i^2 (ds^2 * p_t^2)_i; ``trace_T`` sums it over every row.

        Direct, not FFT: ds^2 spans up to 1e14 and FFT roundoff would swamp the small terms.
        """
        p_t = self.partial.values
        return self.dy[rows] ** 2 * np.correlate(self.ds[rows.start : rows.stop + len(p_t) - 1] ** 2, p_t**2, "valid")

    def gram_row(self, rows: slice, p: int) -> NDArray[np.float64]:
        """Row ``p`` of ``gram(rows)`` without S, by one direct correlation with p_t.

        For the kernel row P = rows.start + p, S[P, P + l] = dy_P dy_{P+l}
        sum_j ds^2_{P+j} p_t[j] p_t[j - l]. It is computed for the lags l
        that reach a row in ``rows`` and can overlap p_t (|l| < len(p_t));
        the rest of the row is 0. Direct, not FFT, for the reason
        ``gram_diag`` gives.
        """
        p_t = self.partial.values
        nt, P = len(p_t), rows.start + p
        lo, hi = max(rows.start - P, 1 - nt), min(rows.stop - P, nt)
        # x[q] = ds^2_{P+q+lo} p_t[q+lo] (0 off p_t), so the valid correlation's l - lo entry is lag l
        x = np.zeros(hi - lo + nt - 1)
        x[-lo : nt - lo] = self.ds[P : P + nt] ** 2 * p_t
        out = np.zeros(rows.stop - rows.start)
        out[p + lo : p + hi] = self.dy[P] * self.dy[P + lo : P + hi] * np.correlate(x, p_t, "valid")
        return out

    def _check_memory(self, part: str, need: int, avail: int | None = None) -> None:
        _check_memory("grid", self.n, self.m, part, need, "use fewer grid nodes (--nodes)", avail)

    @property
    def health(self) -> dict:
        """Numerical health signals a spectrum of this kernel reports, p_{S_n}'s density signals included."""
        return {
            "row_sum_err": self.row_sum_err,
            "masked_mass": self.masked_mass,
            "truncated_mass": self.total.truncated_mass,
            "clamped_mass": self.total.clamped_mass,
            "warnings": list(self.total.warnings),
        }


@dataclass
class SpectrumResult:
    """Eigen-decomposition of the symmetrized C*C with trivial-mode labels."""

    eigenvalues: NDArray[np.float64]  # descending, clamped to [0, 1]; all Ny, or only the K certified ("krylov")
    eigenfunctions: NDArray[np.float64]  # shape (top, Ny), weighted-orthonormal
    y_nodes: NDArray[np.float64]
    trivial_indices: tuple[int, int]  # (constant mode, linear mode)
    const_corr: float
    lin_corr: float
    clamp_magnitude: float
    n: int
    m: int
    solver: str = "dense"  # "low-rank" (grid), "ritz" (grid, full), "krylov" (grid head or exact) or "dense"
    k: int = 0  # eigenvectors computed: r, K or the block size
    health: dict = field(default_factory=dict)  # the operator's ``health`` signals and the solver's record


@dataclass
class ThetaResult:
    """The eigenvalue-gap statistic theta = m/(n lambda_2) - 1."""

    theta: float
    lambda2: float
    n: int
    m: int
    diagnostics: dict


@dataclass
class TraceResult:
    """Operator trace T = integral of p_m p_n tau^2 (= chi^2 divergence + 1)."""

    value: float
    chi2: float
    masked_mass: float
    lower_bound_only: bool


def _read(path: str) -> str:
    with open(path, encoding="ascii") as fh:
        return fh.read()


def _available_bytes() -> int | None:
    """Bytes left to allocate, or None where it cannot be read.

    MemAvailable from /proc/meminfo, capped by the cgroup v2 room
    memory.max - memory.current where a limit is set.
    """
    avail = None
    try:
        for line in _read("/proc/meminfo").splitlines():
            if line.startswith("MemAvailable:"):
                avail = int(line.split()[1]) * 1024
    except (OSError, ValueError):
        pass
    try:
        limit = _read("/sys/fs/cgroup/memory.max").strip()
        if limit != "max":
            room = int(limit) - int(_read("/sys/fs/cgroup/memory.current"))
            avail = room if avail is None else min(avail, room)
    except (OSError, ValueError):
        pass
    return avail


def _check_memory(what: str, n: int, m: int, part: str, need: int, remedy: str, avail: int | None = None) -> None:
    """Refuse, before allocating, ``need`` bytes for ``part`` of an (n, m) operator beyond what is available.

    ``avail`` is a reading of ``_available_bytes`` the caller took for
    several checks; without one the memory left is read here.
    """
    if avail is None:
        avail = _available_bytes()
    if avail is not None and need > avail:
        raise ValueError(
            f"{what} too large for memory: (n, m) = ({n}, {m}) needs about {need / 2**30:.2f} GiB for {part}, "
            f"{avail / 2**30:.2f} GiB available; {remedy}"
        )


def _hull(mask: NDArray[np.bool_]) -> slice:
    """The shortest slice that holds every True entry of ``mask``."""
    idx = np.flatnonzero(mask)
    return slice(idx[0], idx[-1] + 1) if len(idx) else slice(0, 0)


def build_kernel(base: GridDensity, n: int, m: int = 1, cfg: GridConfig | None = None) -> ConditionalKernel:
    """Assemble the kernel for the m-fold vs n-fold sums of ``base``.

    Requires 1 <= m < n. The s-grid is the full sumset lattice of the y-grid
    and the S_{n-m} grid, which guarantees every row of tau integrates to 1
    against p_n (up to the renormalization of the convolved factors).
    ``cfg`` is not read: the kernel lives on the grids of ``base``, and
    columns where p_n is at most DENSITY_FLOOR are masked.
    """
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got (n, m) = ({n}, {m})")
    p_m = convolve_self(base, m)
    p_t = convolve_self(base, n - m)
    p_n = convolve(p_m, p_t)

    ny, nt, ns = len(p_m.nodes), len(p_t.nodes), len(p_n.nodes)
    if ns != ny + nt - 1:
        raise ValueError("grid misalignment: s-grid must be the sumset of the y and partial grids")
    ws = p_n.weights()
    live = p_n.values > DENSITY_FLOOR
    ds = np.zeros(ns)
    ds[live] = np.sqrt(ws[live] / p_n.values[live])

    # Row-stochasticity on rows that carry weight: sum_k ws_k p_t(s_k - y_i) = 1
    row_sums = np.correlate(ws, p_t.values, "valid")
    weighted_rows = p_m.values > 0
    row_sum_err = float(np.abs(row_sums[weighted_rows] - 1.0).max()) if weighted_rows.any() else 0.0
    masked_mass = float((ws * p_n.values)[~live].sum())
    return ConditionalKernel(
        summand=p_m,
        total=p_n,
        partial=p_t,
        n=n,
        m=m,
        dy=np.sqrt(p_m.weights() * p_m.values),
        ds=ds,
        row_sum_err=row_sum_err,
        masked_mass=masked_mass,
    )


def gram_matrix(B: NDArray[np.float64]) -> NDArray[np.float64]:
    """Symmetrized discretization of C*C (similar transform, same spectrum) from a factor ``B``.

    The exact spectrum passes a dense block where its sum-index pairs pile
    up, and the rank probe the triangle R of its factor's QR, whose Gram
    matrix is the small core the solve reads; the grid Gram
    writes the same product tile by tile (``ConditionalKernel.gram``).
    numpy computes ``B @ B.T`` of a C-contiguous B with syrk and mirrors the
    triangle, so S is exactly symmetric.
    """
    return B @ B.T


def _cluster_starts(desc: NDArray[np.float64]) -> NDArray[np.intp]:
    """The start of every cluster of the descending ``desc`` but the first: one past each drop above CLUSTER_TOL."""
    return np.flatnonzero(desc[:-1] - desc[1:] > CLUSTER_TOL) + 1


def classify_trivial(
    lam: NDArray[np.float64],
    phi: NDArray[np.float64],
    e_const: NDArray[np.float64],
    e_lin: NDArray[np.float64],
) -> tuple[int, int, float, float]:
    """Locate the constant and linear modes among the eigenvectors.

    The eigenvalue m/n can be exactly degenerate (pmfs whose off-diagonal
    sums never collide put a whole subspace at m/n), in which case eigh
    returns an arbitrary rotation of the eigenspace and no single vector
    aligns with the linear target. Eigenvalues are therefore grouped into
    near-equal clusters and the correlation is taken against the cluster's
    span. The reported index is the cluster's highest index (for the linear
    mode, the highest one the constant mode has not taken), which does not
    depend on the rotation; the rest of the cluster stays non-trivial, so
    theta reads the largest eigenvalue the cluster has left.

    ``lam`` must be descending, ``phi`` its eigenvector columns, the targets
    unit vectors in the symmetrized basis.
    """
    coef_const = phi.T @ e_const
    coef_lin = phi.T @ e_lin
    starts = np.concatenate(([0], _cluster_starts(lam)))
    stops = np.append(starts[1:], len(lam))

    def pick(coef):
        j = int(np.argmax(np.add.reduceat(coef**2, starts)))
        return range(starts[j], stops[j]), float(np.sqrt(np.sum(coef[starts[j] : stops[j]] ** 2)))

    cl_const, c_corr = pick(coef_const)
    cl_lin, l_corr = pick(coef_lin)
    i_const = cl_const[-1]
    i_lin = cl_lin[-1] - (cl_lin[-1] == i_const)
    if i_lin < cl_lin.start:
        raise ValueError("constant and linear modes collapsed onto one eigenvector")
    if c_corr < TRIVIAL_CORR_MIN or l_corr < TRIVIAL_CORR_MIN:
        raise ValueError(
            f"trivial-mode classification failed: const corr {c_corr:.4f} at {i_const}, "
            f"linear corr {l_corr:.4f} at {i_lin}"
        )
    return i_const, i_lin, c_corr, l_corr


def _probe_stalls(traces: list[float], budget: int) -> bool:
    """Whether trace(E), slowing on as over its last two PROBE_WINDOW pivots, misses the tolerance in ``budget`` pivots.

    With d0 and d1 the log-decrements of trace(E) over the two windows and
    d0 < d1 < 0 (slowing), each window left adds rho = d1 / d0 times the
    decrement of the one before.
    """
    j, w = len(traces) - 1, PROBE_WINDOW
    if j < 2 * w:
        return False
    d0 = math.log(traces[j - w] / traces[j - 2 * w])
    d1 = math.log(traces[j] / traces[j - w])
    if not d0 < d1 < 0.0:
        return False
    rho = d1 / d0
    ahead = d1 * rho * (1.0 - rho ** ((budget - j) / w)) / (1.0 - rho)
    return math.log(traces[j] / traces[0]) + ahead > math.log(RANK_TRACE_TOL)


def _low_rank_factor(
    diag: NDArray[np.float64], row: Callable[[int], NDArray[np.float64]]
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Rows of L with S = L^T L + E, and trace(E) after each pivot.

    Diagonally pivoted Cholesky of the PSD S, read through its diagonal
    ``diag`` and its rows ``row(p)``: each step takes the largest remaining
    diagonal entry of the Schur complement E as pivot. It stops once
    trace(E) <= RANK_TRACE_TOL * trace(S) (certified low rank), once
    ``_probe_stalls``, or after min(RANK_PROBE_MAX, h // 4) pivots (none
    below 4 rows). ``traces[j]`` is trace(E)
    after the first j rows of L, so ``traces[0]`` = trace(S) and
    ``traces[-1]`` goes with all of L.
    """
    h = len(diag)
    d = diag.copy()  # diag(E)
    traces = [d.sum()]
    L = np.empty((min(RANK_PROBE_MAX, h // 4), h))
    for k in range(len(L)):
        if traces[-1] <= RANK_TRACE_TOL * traces[0] or _probe_stalls(traces, len(L)):
            return L[:k], np.array(traces)
        p = int(np.argmax(d))
        col = row(p) - L[:k, p] @ L[:k]
        col /= math.sqrt(d[p])
        L[k] = col
        d -= col * col
        traces.append(d.sum())
    return L, np.array(traces)


def _core_eigh(L: NDArray[np.float64]) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Ascending eigenvalues of L^T L and their eigenvectors from the r x r core.

    With L^T = Q R, the eigenpairs of L^T L are those of R R^T =
    W diag(lam) W^T with eigenvectors Q W.
    """
    Q, R = np.linalg.qr(L.T)
    lam, W = np.linalg.eigh(gram_matrix(R))
    return lam, Q @ W


def _ritz_count(lam: NDArray[np.float64], top: int) -> int:
    """Eigenvectors the Ritz path computes, for the ascending spectrum ``lam``.

    The smallest K >= ``top`` that covers the first two eigenvalue clusters
    (the constant mode and the m/n cluster) and ends where a cluster ends, so
    ``classify_trivial``, which splits at the same ``_cluster_starts``, sees whole clusters.
    """
    ends = _cluster_starts(lam[::-1])[1:]
    j = int(np.searchsorted(ends, top))
    return int(ends[j]) if j < len(ends) else len(lam)


def _block_krylov_top(
    S, Y: NDArray[np.float64], top: int, blocks: int
) -> tuple[NDArray[np.float64], NDArray[np.float64], float, dict] | None:
    """The top K Ritz pairs of S from the block Krylov space of ``Y``, the next Ritz value and a record, or None.

    Block Lanczos (Golub & Underwood, 1977) with full reorthogonalization:
    the basis grows by the block S X, projected off the whole basis twice
    with a QR after each pass, and every step ends with a Rayleigh-Ritz
    step on all of it (T = Q S Q^T from the stored products, so T does not
    lean on the three-term recurrence). K is the ``_ritz_count`` of the Ritz
    values; once the top K residuals ||S v - theta v|| are at most
    RITZ_RESID_TOL * theta_max and the Ritz vectors are orthonormal to the
    same level, the Ritz values (ascending), the vectors (columns),
    theta_{K+1} and the record {"ritz_residual": the largest of those
    residuals, "krylov_blocks": the blocks the basis holds} are returned.
    The basis is held as rows (X S is the faster
    product) that grow a block at a time, up to ``blocks`` blocks: one that
    has not converged by then returns None. ``S`` is a dense array or an
    operator that computes X @ S for a block of rows X without the dense S:
    from S's packed lower rows (``PackedGram``) or an exact operator's
    pairs (``discrete.ExactGram``).
    """
    h, g = Y.shape
    cap = blocks * g
    Q, SQ, T = np.empty((0, h)), np.empty((0, h)), np.empty((cap, cap))
    X = np.linalg.qr(Y)[0].T
    while True:
        D = len(Q) + g
        new = slice(D - g, D)
        Q, SQ = np.vstack((Q, X)), np.vstack((SQ, X @ S))
        C = SQ[new] @ Q.T  # the new rows of T = Q S Q^T
        T[new, :D] = C
        T[:D, new] = C.T
        T[new, new] += C[:, new]
        T[new, new] *= 0.5
        ritz, W = np.linalg.eigh(T[:D, :D])
        k = _ritz_count(ritz, top)
        if k < D:
            Wk = np.ascontiguousarray(W[:, -k:].T)
            V = Wk @ Q
            R = Wk @ SQ
            R -= ritz[-k:, None] * V
            resid = float(np.linalg.norm(R, axis=1).max())
            orth = np.abs(V @ V.T - np.eye(k)).max()
            if resid <= RITZ_RESID_TOL * ritz[-1] and orth <= RITZ_RESID_TOL:
                return ritz[-k:], V.T, float(ritz[-k - 1]), {"ritz_residual": resid, "krylov_blocks": D // g}
        if D + g > cap:
            return None
        X = np.linalg.qr((SQ[new] - C @ Q).T)[0].T
        X -= (X @ Q.T) @ Q
        X = np.linalg.qr(X.T)[0].T


def _certify_tail(lower: NDArray[np.float64], V: NDArray[np.float64], ritz: NDArray[np.float64], sigma: float) -> bool:
    """Whether sigma I - (S - V diag(ritz) V^T) is positive definite, which proves lambda_{K+1}(S) < sigma.

    S - V diag(ritz) V^T + (the rank-K PSD V diag(ritz) V^T) = S, so by Weyl
    lambda_{K+1}(S) <= lambda_max(S - V diag(ritz) V^T) < sigma once the
    Cholesky factor exists. ``lower`` holds S's lower block rows S[a:b, :b]
    of CHOLESKY_BLOCK rows, packed (``_bands``), and is consumed: each block
    row of the shifted matrix is formed in place from S's and one product
    for the rank-K term, reduced against the blocks above it (forward
    substitution through the inverses of the diagonal blocks), and its
    diagonal block factored by ``np.linalg.cholesky``, which raises where
    the matrix is not positive definite (a NaN included). The buffer ends
    as the factor's rows, pass or fail, and the caller forms S afresh should
    eigh need it.
    """
    nb = CHOLESKY_BLOCK
    VR = V * ritz
    inv_t: list[NDArray[np.float64]] = []  # inverse transposes of the factor's diagonal blocks
    done: list[NDArray[np.float64]] = []  # the factor's block rows, L[a:b, :b]
    try:
        for a, b, row in _bands(lower, len(V)):
            np.subtract(VR[a:b] @ V[:b].T, row, out=row)
            idx = np.arange(b - a)
            row[idx, a + idx] += sigma
            for c, inv, above in zip(range(0, a, nb), inv_t, done):
                e = c + nb
                row[:, c:e] -= row[:, :c] @ above[:, :c].T
                row[:, c:e] = row[:, c:e] @ inv
            head = row[:, :a]
            L = np.linalg.cholesky(row[:, a:b] - head @ head.T)
            inv_t.append(np.linalg.inv(L).T)
            row[:, a:b] = L
            done.append(row)
    except np.linalg.LinAlgError:
        return False
    return True


def _krylov_fits(budget: tuple[int, int] | None, h: int) -> bool:
    """Whether a (width, blocks) budget names at least one block and its blocks fit in KRYLOV_MAX_FRACTION of h rows."""
    width, blocks = budget or (0, 0)
    return 0 < blocks * width <= KRYLOV_MAX_FRACTION * h


def _probe_budget(
    mu: NDArray[np.float64], U: NDArray[np.float64], h: int
) -> tuple[tuple[int, int], NDArray[np.float64]]:
    """A grid block's Krylov (width, blocks) budget and start block from its probe's core eigenpairs (``_core_eigh``).

    The width is the ``_ritz_count`` of the ascending ``mu`` plus
    KRYLOV_GUARD, with as many blocks as fit in KRYLOV_MAX_FRACTION of the h
    rows, and none where fewer than KRYLOV_MIN_BLOCKS fit; the start block
    holds up to width - KRYLOV_GUARD of the top eigenvectors ``U``.
    """
    width = _ritz_count(mu, SPECTRUM_HEAD) + KRYLOV_GUARD
    blocks = int(KRYLOV_MAX_FRACTION * h) // width
    return (width, blocks if blocks >= KRYLOV_MIN_BLOCKS else 0), U[:, max(len(mu) + KRYLOV_GUARD - width, 0) :]


def _certified_krylov(
    S, full: bool, budget: tuple[int, int], start: NDArray[np.float64]
) -> tuple[NDArray[np.float64], NDArray[np.float64], str, dict] | None:
    """The certified top eigenpairs of the PSD ``S`` from a block Krylov solve, the solver and its record, or None.

    ``S`` is the dense S of a ``full`` solve, or for any other an operator
    that gives the solve its products X @ S and the certificate S's packed
    lower block rows (``lower_rows()``): a grid head solve's ``PackedGram``,
    which hands over the rows its products read, or an exact operator's
    ``discrete.ExactGram``, which fills them from its pairs only now. The
    solve (``_block_krylov_top``, the top SPECTRUM_HEAD) runs on the
    (width, blocks) ``budget`` from the start block ``start``, filled up to
    width columns with fixed pseudo-random ones. A run that converges is
    then checked:
    - a ``full`` solve (a grid block whose every eigenvalue is read; S
      dense) takes all h eigenvalues from eigvalsh and keeps the Krylov
      vectors where the Ritz values match eigvalsh's top ones within
      RITZ_RESID_TOL * lambda_max, which catches a Krylov space that skipped
      an eigenvalue ("ritz": all h eigenvalues, ascending, and the top K
      eigenvectors);
    - any other must pass ``_certify_tail`` on the packed rows at sigma =
      theta_K - (theta_K - theta_{K+1}) / 4, and returns only the K
      certified eigenvalues and their vectors ("krylov"), with sigma as
      ``tail_bound`` in the record.
      Sigma stays strictly below theta_K (the Ritz gap is wider than
      CLUSTER_TOL), and lambda_K >= theta_K by interlacing, so lambda_{K+1}
      < sigma also proves that no eigenvalue of the top K was missed. The
      gap's midpoint can sit below lambda_{K+1} where theta_{K+1} is still
      far from it: a start block that holds the top 8 eigenvectors exactly,
      theta_K = 0.12 above eigenvalues spread over [0, 0.1], converges in
      one block with theta_{K+1} = 0.055, so the midpoint 0.0875 lies under
      lambda_{K+1} = 0.1 and sigma = 0.104 does not.
    Both records carry the solve's ``ritz_residual`` and ``krylov_blocks``.
    A run that does not converge, or a check that fails, returns None; the
    packed rows a certificate reached are then consumed.
    """
    h = S.shape[0]
    width, blocks = budget
    extra = np.random.default_rng(0).standard_normal((h, width - start.shape[1]))
    found = _block_krylov_top(S, np.hstack((start, extra)), SPECTRUM_HEAD, blocks)
    del extra  # not held through the check
    if found is None:
        return None
    ritz, V, below, record = found
    if full:
        lam = np.linalg.eigvalsh(S)
        return (lam, V, "ritz", record) if np.abs(ritz - lam[-len(ritz) :]).max() <= RITZ_RESID_TOL * lam[-1] else None
    sigma = ritz[0] - 0.25 * (ritz[0] - below)
    certified = _certify_tail(S.lower_rows(), V, ritz, sigma)
    return (ritz, V, "krylov", {"tail_bound": float(sigma), **record}) if certified else None


def _gram(op, rows: slice, avail: int | None) -> NDArray[np.float64]:
    """The dense Gram matrix ``op.gram(rows, avail)``, refused first if the eigensolve's 8 SOLVE_SQUARES h^2 bytes
    do not fit."""
    h = rows.stop - rows.start
    op._check_memory(f"the eigensolve of a {h} x {h} Gram matrix", 8 * SOLVE_SQUARES * h * h, avail)
    return op.gram(rows, avail)


def _eigensystem(
    op,
    mass: NDArray[np.float64],
    nodes: NDArray[np.float64],
    budget: tuple[int, int] | None = None,
    full: bool = False,
) -> SpectrumResult:
    """Eigensolve of the Gram matrix B B^T of ``op`` with trivial-mode classification.

    ``op`` is any operator that gives the Gram matrix of the rows ``rows`` of
    its symmetrizing factor ``B`` (``gram(rows, avail)``) and a head solve's
    Krylov operand, checks memory (``_check_memory(part, need, avail)``) and
    carries its ``n``, ``m`` and ``health``: the grid kernel (written tile
    by tile from strips of its rows) or the exact operator (scattered from
    its sum-index pairs, or the block product where they pile up), which is
    handed its Krylov ``budget``. ``mass`` is the quadrature mass of the S_m law at ``nodes``.
    A row of ``B`` with zero mass is zero, hence an exact null mode, so only
    the rows spanning ``mass > 0`` are solved. Every memory check of the call
    measures against one reading of the memory left, ``avail``. The solve
    takes these steps in order:
    1. Probe (grid only). The grid kernel, whose Gram rows are computed, not
       stored, is the one operator probed: its PROBE_COPIES RANK_PROBE_MAX h
       doubles are checked, then the pivoted Cholesky (``_low_rank_factor``)
       runs once on the diagonal and rows of its Gram matrix computed without
       it (``gram_diag``, ``gram_row``), and its factor's core is
       diagonalized once (``_core_eigh``).
    2. Low rank or a budget. A probe that certifies the block numerically
       low-rank returns the core's eigenpairs ("low-rank"); otherwise they
       give the grid block its Krylov budget and start block
       (``_probe_budget``). An exact operator is handed its ``budget``
       (``discrete._krylov_budget``'s, or None) and has no start block.
    3. Krylov. Where the budget fits (``_krylov_fits``), ``_certified_krylov``
       solves S. A ``full`` solve (grid only) forms the dense S (``_gram``,
       the eigensolve's SOLVE_SQUARES h^2 checked first), which eigvalsh
       reads. A head solve never forms it: the grid kernel's
       ``gram_packed(rows, budget, avail)`` writes S's packed lower block
       rows and gives the products X S from them, and an exact operator's
       ``gram_pairs(rows, budget, avail)``, a ``discrete.ExactGram``, gives
       them from its pairs; each checks first only what it holds (packed
       rows, strips or pair buffers, and the Krylov basis).
    4. Cross-check or certificate. A converged run of a ``full`` solve is
       checked against eigvalsh ("ritz"), any other by ``_certify_tail``
       ("krylov"), which factors the packed rows in place: the grid's
       own, or an exact operator's filled from its pairs after the run.
    5. Dense eigh. A budget that does not fit, a run that does not converge
       or a check that fails leaves the block to ``np.linalg.eigh``
       ("dense"), on a Gram matrix formed afresh once the packed rows are
       freed (``_gram``, which checks the eigensolve's SOLVE_SQUARES h^2
       first: a head solve's only check of it).
    One zero eigenvalue per row outside
    the block goes at the tail and the eigenvectors are 0 on those rows, so
    the result is that of the full matrix; on the low-rank path the h - r
    smallest eigenvalues are exact zeros as well, and the low-rank, ritz and
    krylov paths compute only the top eigenvectors. The krylov path's eigenvalues
    are its K certified ones and are not padded: the rest are not known, and
    its certified bound on them is the record's ``tail_bound``.
    Classification runs on the eigenvectors computed.
    Eigenvalues are clamped to [0, 1] (clamp magnitude reported). The top
    SPECTRUM_HEAD eigenvectors are mapped back to eigenfunction values at
    ``nodes`` through the inverse weight transform; they are orthonormal under
    sum mass_i f(y_i) g(y_i), and 0 where mass_i is below
    EIGENFUNCTION_MASS_FLOOR times the largest. A single support point has no
    linear mode: only the constant is classified and lin_corr is 0.
    """
    rows = _hull(mass > 0)
    h = rows.stop - rows.start
    top = min(SPECTRUM_HEAD, len(nodes))
    avail = _available_bytes()
    grid = isinstance(op, ConditionalKernel)
    found, start = None, np.empty((h, 0))
    if grid:
        op._check_memory(f"the rank probe of {h} rows", 8 * PROBE_COPIES * RANK_PROBE_MAX * h, avail)
        L, traces = _low_rank_factor(op.gram_diag(rows), lambda p: op.gram_row(rows, p))
        mu, U = _core_eigh(L)
        del L  # its RANK_PROBE_MAX rows are not held through the solve
        if traces[-1] <= RANK_TRACE_TOL * traces[0]:
            found = mu, U, "low-rank", {}
        else:
            budget, start = _probe_budget(mu, U, h)
    if found is None and _krylov_fits(budget, h):
        if full:  # eigvalsh reads the dense S
            S = _gram(op, rows, avail)
        else:
            S = (op.gram_packed if grid else op.gram_pairs)(rows, budget, avail)
        found = _certified_krylov(S, full, budget, start)
        del S  # a certificate consumes the packed rows: eigh gets S formed afresh, alone
    if found is None:
        lam, phi = np.linalg.eigh(_gram(op, rows, avail))
        solver, record = "dense", {}
    else:
        lam, phi, solver, record = found
    lam = lam[::-1]
    phi = np.ascontiguousarray(phi[:, ::-1])
    k = phi.shape[1]
    clamp = max(0.0, float(-lam.min()), float(lam.max() - 1.0))
    lam = np.clip(lam, 0.0, 1.0)
    mass, sub_nodes = mass[rows], nodes[rows]

    mu = float(mass @ sub_nodes)
    e_const = np.sqrt(mass)
    e_const /= np.linalg.norm(e_const)
    if np.count_nonzero(mass) >= 2:
        e_lin = np.sqrt(mass) * (sub_nodes - mu)
        e_lin /= np.linalg.norm(e_lin)
        i_const, i_lin, c_corr, l_corr = classify_trivial(lam[:k], phi, e_const, e_lin)
    else:
        i_const = max(range(k), key=lambda j: abs(float(phi[:, j] @ e_const)))
        c_corr = abs(float(phi[:, i_const] @ e_const))
        i_lin, l_corr = i_const, 0.0
        if c_corr < TRIVIAL_CORR_MIN:
            raise ValueError(f"trivial-mode classification failed (const {c_corr:.4f})")

    kept = mass >= EIGENFUNCTION_MASS_FLOOR * mass.max()
    inv = 1.0 / np.sqrt(mass[kept])
    funcs = np.zeros((top, len(nodes)))
    funcs[:k, rows.start + np.flatnonzero(kept)] = (phi[kept, :top] * inv[:, None]).T
    if solver != "krylov":
        lam = np.concatenate((lam, np.zeros(len(nodes) - len(lam))))
    return SpectrumResult(
        eigenvalues=lam,
        eigenfunctions=funcs,
        y_nodes=nodes,
        trivial_indices=(i_const, i_lin),
        const_corr=c_corr,
        lin_corr=l_corr,
        clamp_magnitude=clamp,
        n=op.n,
        m=op.m,
        solver=solver,
        k=k,
        health={**op.health, **record},
    )


def spectrum(kernel: ConditionalKernel, full: bool = True) -> SpectrumResult:
    """Eigensolve of the kernel's Gram matrix with trivial-mode classification (``_eigensystem``).

    The top SPECTRUM_HEAD eigenfunctions are kept; they are orthonormal under
    sum w_i p_m(y_i) f(y_i) g(y_i). With ``full`` every eigenvalue is
    returned, for callers that sum or count past the head: a block whose
    Krylov run converges takes eigvalsh and keeps the Krylov vectors where
    they match it ("ritz"). Without it such a block returns only its K
    certified head eigenvalues ("krylov", with ``tail_bound``), solved from
    S's packed lower rows without forming S. A low-rank block, and one that
    falls back to eigh, returns all of them either way.
    """
    p_m = kernel.summand
    return _eigensystem(kernel, p_m.weights() * p_m.values, p_m.nodes, full=full)


def theta_from_spectrum(spec: SpectrumResult) -> ThetaResult:
    """Extract theta after removing the constant and linear modes by label, not rank.

    A theta within THETA_ROUNDOFF below 0 is read as 0; one further below is
    reported as it is. The diagnostics carry the spectrum's solver record and
    its operator's health signals.
    """
    skip = set(spec.trivial_indices)
    rest = [k for k in range(len(spec.eigenvalues)) if k not in skip]
    lam2 = float(spec.eigenvalues[rest[0]]) if rest else 0.0
    if lam2 <= LAMBDA2_SENTINEL:
        th = math.inf
    else:
        th = spec.m / (spec.n * lam2) - 1.0
        if -THETA_ROUNDOFF <= th < 0.0:
            th = 0.0
    diag = {
        "lambda_head": [float(v) for v in spec.eigenvalues[:SPECTRUM_HEAD]],
        "const_corr": spec.const_corr,
        "lin_corr": spec.lin_corr,
        "clamp_magnitude": spec.clamp_magnitude,
        "trivial_indices": list(spec.trivial_indices),
        "solver": spec.solver,
        "k": spec.k,
        **spec.health,
    }
    return ThetaResult(theta=th, lambda2=lam2, n=spec.n, m=spec.m, diagnostics=diag)


def theta(base: GridDensity, n: int, m: int = 1) -> ThetaResult:
    """End-to-end theta for the (n, m) pair built from a summand density.

    theta reads only the spectrum's head, so the solve is the certified
    top-K one (``spectrum`` without ``full``).
    """
    return theta_from_spectrum(spectrum(build_kernel(base, n, m), full=False))


def trace_T(kernel: ConditionalKernel) -> TraceResult:
    """Quadrature trace of C*C, ||B||_F^2, summed row by row without building B.

    If masked columns carried visible p_n mass the quadrature undershoots and
    only a lower bound is claimed.
    """
    value = float(kernel.gram_diag(slice(0, len(kernel.dy))).sum())
    lower_only = kernel.masked_mass > 1e-9
    return TraceResult(value=value, chi2=value - 1.0, masked_mass=kernel.masked_mass, lower_bound_only=lower_only)


def _valid_values(f: NDArray[np.float64] | GridFunction) -> NDArray[np.float64]:
    """The values of ``f`` as floats, 0 at the invalid nodes of a GridFunction."""
    return np.where(f.valid, f.values, 0.0) if isinstance(f, GridFunction) else np.asarray(f, dtype=float)


def apply_C(kernel: ConditionalKernel, f: NDArray[np.float64] | GridFunction) -> GridFunction:
    """Forward map (C f)(s) = E[f(S_m) | S_n = s] on the s-grid.

    Invalid nodes of a GridFunction input are excluded from the quadrature;
    output validity marks the live s-columns.
    """
    fv = _valid_values(f)
    if fv.shape != kernel.summand.nodes.shape:
        raise ValueError("f must be sampled on the kernel's y-grid")
    p_m = kernel.summand
    num = np.convolve(p_m.weights() * p_m.values * fv, kernel.partial.values)
    out = np.zeros(len(kernel.total.nodes))
    live = kernel.ds > 0
    out[live] = num[live] / kernel.total.values[live]
    return GridFunction(kernel.total.nodes, out, live)


def apply_Cstar(kernel: ConditionalKernel, g: NDArray[np.float64] | GridFunction) -> GridFunction:
    """Adjoint map (C* g)(y) = E[g(S_n) | S_m = y] on the y-grid."""
    gv = _valid_values(g)
    if gv.shape != kernel.total.nodes.shape:
        raise ValueError("g must be sampled on the kernel's s-grid")
    out = np.correlate(kernel.total.weights() * gv, kernel.partial.values, "valid")
    return GridFunction(kernel.summand.nodes, out, np.ones(len(out), dtype=bool))

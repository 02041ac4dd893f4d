"""Grid representations of probability densities and their Fisher functionals.

Densities live on uniform grids with trapezoid quadrature. Sums of i.i.d.
copies are formed by direct convolution on the shared lattice, which keeps
every derived grid (the summand grid, the partial-sum grid, the full-sum grid)
aligned so that kernel ratios later on are exact table lookups.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "GridConfig",
    "GridDensity",
    "GridFunction",
    "MomentSet",
    "DistributionSpec",
    "JstResult",
    "ScoreUndefinedError",
    "FisherUnavailableError",
    "parse_spec",
    "build_density",
    "moments",
    "score",
    "fisher",
    "jst",
    "convolve",
    "convolve_self",
    "rescale",
    "gaussian_regularize",
    "trapezoid_weights",
    "gauss_legendre",
    "log_gamma",
    "write_density_file",
]

# Convolution entries below this fraction of the peak are cut to zero before
# renormalization, their mass recorded as clamped_mass. That tail holds less
# than double resolution of the mass and is set by the grid's truncation
# rather than by the law; cutting it keeps the kernel's 1/p_n within 1e15 of
# its smallest value and stops each sum's positive window spreading over the
# whole lattice.
TAIL_CUT_REL = 1e-15

# Score stencil guard: a centred log-density difference larger than this means
# the density varies by more than e^2 across one stencil and the finite
# difference is meaningless there.
SCORE_MAX_LOG_JUMP = 2.0

# Fisher eligibility: positive-window edge value above this fraction of the
# max indicates a support-boundary jump (J is infinite or undefined).
EDGE_JUMP_REL = 1e-2

# Fisher eligibility: mass carried by invalid-score nodes must stay below this.
INVALID_MASS_FRACTION = 1e-3

# Hard cap on convolution output length.
MAX_GRID_NODES = 1 << 17

# Density values at or below this are exact zeros: in a freshly built or
# loaded density, in the kernel's p_n columns and in the score's window.
DENSITY_FLOOR = 1e-300

# Mass outside the grid above this attaches a warning to a built density.
MASS_CUTOFF = 1e-12

# Half-width of the gaussian_regularize kernel in units of delta: its end
# values, e^-72 of the peak, are below double resolution, so the kernel's
# trapezoid mass is 1 and it is a valid GridDensity.
REGULARIZE_HALF_WIDTH = 12.0


class ScoreUndefinedError(ValueError):
    """Density has zeros strictly inside its positive window."""


class FisherUnavailableError(ValueError):
    """Density fails the smoothness screen for Fisher-information work."""


@dataclass(frozen=True)
class GridConfig:
    """Grid construction parameters.

    node_count
        Number of grid nodes for a freshly built density, 16 to
        MAX_GRID_NODES.
    half_width_sigmas
        Half-width of the grid in units of sigma * sqrt(n_hint) around the
        mean.
    """

    node_count: int = 1024
    half_width_sigmas: float = 12.0

    def __post_init__(self) -> None:
        if not 16 <= self.node_count <= MAX_GRID_NODES:
            raise ValueError(f"node_count must lie in [16, {MAX_GRID_NODES}], got {self.node_count}")
        if self.half_width_sigmas <= 0:
            raise ValueError("half_width_sigmas must be positive")


@dataclass
class GridDensity:
    """A nonnegative, trapezoid-normalized density on a uniform grid.

    Attributes
    ----------
    nodes, values : ndarray
        Grid nodes (ascending, uniformly spaced) and density values.
    step : float
        Node spacing.
    truncated_mass : float
        Estimated mass lying outside the grid before normalization.
    clamped_mass : float
        Mass cut from convolution tails below TAIL_CUT_REL of the peak.
    warnings : tuple of str
        Non-fatal diagnostics attached during construction.
    """

    nodes: NDArray[np.float64]
    values: NDArray[np.float64]
    step: float
    truncated_mass: float = 0.0
    clamped_mass: float = 0.0
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.nodes.ndim != 1 or self.nodes.shape != self.values.shape:
            raise ValueError("nodes and values must be 1-d arrays of equal length")
        if len(self.nodes) < 3:
            raise ValueError("grid needs at least 3 nodes")
        if not (np.isfinite(self.nodes).all() and np.isfinite(self.values).all()):
            raise ValueError("density nodes and values must be finite")
        diffs = np.diff(self.nodes)
        if diffs.min() <= 0:
            raise ValueError("nodes must be strictly ascending")
        if np.abs(diffs - self.step).max() > 1e-9 * abs(self.step):
            raise ValueError("grid spacing is not uniform to 1e-9 relative")
        if self.values.min() < 0:
            raise ValueError("density values must be nonnegative")
        mass = float(self.weights() @ self.values)
        if abs(mass - 1.0) > 1e-8:
            raise ValueError(f"density mass {mass!r} deviates from 1 beyond 1e-8")

    def weights(self) -> NDArray[np.float64]:
        """Trapezoid quadrature weights for this grid."""
        return trapezoid_weights(len(self.nodes), self.step)

    def integral(self, integrand: NDArray[np.float64]) -> float:
        return float(self.weights() @ (self.values * integrand))

    def mean(self) -> float:
        return self.integral(self.nodes)

    def variance(self) -> float:
        mu = self.mean()
        return self.integral((self.nodes - mu) ** 2)

    def positive_window(self) -> tuple[int, int]:
        """Index range [i0, i1] of the first and last node with value > DENSITY_FLOOR."""
        pos = self.values > DENSITY_FLOOR
        if not pos.any():
            raise ValueError("density is identically zero")
        i0 = int(np.argmax(pos))
        i1 = len(pos) - int(np.argmax(pos[::-1])) - 1
        return i0, i1


@dataclass
class GridFunction:
    """A function sampled on a grid, with a validity mask.

    Invalid nodes are excluded from integrals taken against this function.
    """

    nodes: NDArray[np.float64]
    values: NDArray[np.float64]
    valid: NDArray[np.bool_]

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        self.valid = np.asarray(self.valid, dtype=bool)
        if not (self.nodes.shape == self.values.shape == self.valid.shape):
            raise ValueError("nodes, values and valid must share a shape")


@dataclass(frozen=True)
class MomentSet:
    """Central moments of a grid density.

    central_moments[j] is E (Y - EY)^(j+1). sigma_stat is the fourth-moment
    statistic kurt - skew^2 - 1 that controls the second-eigenvalue bounds
    (2 for Gaussian, 2 + 2/beta for gamma).
    """

    central_moments: tuple[float, ...]
    variance: float
    skewness: float
    sigma_stat: float

    def central(self, j: int) -> float:
        if j == 0:
            return 1.0
        if j == 1:
            return 0.0
        return self.central_moments[j - 1]


@dataclass(frozen=True)
class JstResult:
    """Standardized Fisher information Var(Y) * J(Y) - 1 and its two factors."""

    value: float
    fisher_info: float
    variance: float


_KNOWN_FAMILIES = ("gaussian", "gamma", "uniform", "mixture", "discrete", "file")


def _all_finite(value: object) -> bool:
    """False if value, or any float in its nested tuples, is nan or infinite."""
    if isinstance(value, tuple):
        return all(_all_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


@dataclass(frozen=True)
class DistributionSpec:
    """Family tag plus parameter record for a summand distribution."""

    family: str
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in _KNOWN_FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {_KNOWN_FAMILIES}")
        for key, value in self.params.items():
            if not _all_finite(value):
                raise ValueError(f"{self.family} parameter {key} must be finite, got {value!r}")
        p = self.params
        if self.family == "gaussian" and not p["sigma"] > 0:
            raise ValueError(f"gaussian sigma must be positive, got {p['sigma']!r}")
        if self.family == "gamma" and not p["beta"] > 0:
            raise ValueError(f"gamma beta must be positive, got {p['beta']!r}")
        if self.family == "uniform" and not p["a"] < p["b"]:
            raise ValueError(f"uniform needs a < b, got a = {p['a']!r}, b = {p['b']!r}")
        if self.family == "mixture" and not all(w > 0 and s > 0 for w, _, s in p["components"]):
            raise ValueError("mixture weights and sigmas must be positive")
        if self.family == "discrete" and not all(pr > 0 for pr in p["probs"]):
            raise ValueError("discrete probabilities must be positive")

    @classmethod
    def gaussian(cls, sigma: float = 1.0) -> "DistributionSpec":
        return cls("gaussian", {"sigma": float(sigma)})

    @classmethod
    def gamma(cls, beta: float, centered: bool = True) -> "DistributionSpec":
        return cls("gamma", {"beta": float(beta), "centered": bool(centered)})

    @classmethod
    def uniform(cls, a: float = -1.0, b: float = 1.0) -> "DistributionSpec":
        return cls("uniform", {"a": float(a), "b": float(b)})

    @classmethod
    def mixture(cls, components: list[tuple[float, float, float]]) -> "DistributionSpec":
        return cls("mixture", {"components": tuple((float(w), float(m), float(s)) for w, m, s in components)})

    @classmethod
    def discrete(cls, atoms: list[float], probs: list[float]) -> "DistributionSpec":
        return cls("discrete", {"atoms": tuple(map(float, atoms)), "probs": tuple(map(float, probs))})

    @classmethod
    def from_file(cls, path: str) -> "DistributionSpec":
        return cls("file", {"path": str(path)})

    def mean_and_sigma(self) -> tuple[float, float]:
        """Closed-form mean and standard deviation used for grid sizing."""
        p = self.params
        if self.family == "gaussian":
            return 0.0, float(p["sigma"])
        if self.family == "gamma":
            beta = float(p["beta"])
            return (0.0 if p.get("centered", True) else beta), math.sqrt(beta)
        if self.family == "uniform":
            a, b = float(p["a"]), float(p["b"])
            return (a + b) / 2.0, (b - a) / math.sqrt(12.0)
        if self.family == "mixture":
            comps = p["components"]
            wsum = sum(w for w, _, _ in comps)
            mu = sum(w * m for w, m, _ in comps) / wsum
            second = sum(w * (s * s + m * m) for w, m, s in comps) / wsum
            return mu, math.sqrt(second - mu * mu)
        if self.family == "discrete":
            atoms, probs = _discrete_arrays(self)
            mu = float(probs @ atoms)
            return mu, float(math.sqrt(probs @ (atoms - mu) ** 2))
        raise ValueError(f"no closed-form scale for family {self.family!r}")


def _discrete_arrays(spec: DistributionSpec) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """A discrete spec's atoms, in the order given, and its probabilities divided by their sum."""
    probs = np.asarray(spec.params["probs"], dtype=float)
    return np.asarray(spec.params["atoms"], dtype=float), probs / probs.sum()


def parse_spec(text: str) -> DistributionSpec:
    """Parse the spec mini-language.

    Examples: ``gaussian:sigma=1``, ``gamma:beta=4,centered=true``,
    ``uniform:a=-1,b=1``, ``mixture:w=0.5,mu=-1,sigma=1;w=0.5,mu=1,sigma=1``,
    ``discrete:-1=0.5,1=0.5``, ``file:/path/to/density.txt``.
    """
    text = text.strip()
    family, _, rest = text.partition(":")
    family = family.strip().lower()
    if family == "file":
        if not rest:
            raise ValueError("file spec needs a path, e.g. file:density.txt")
        return DistributionSpec.from_file(rest)
    if family == "mixture":
        comps = []
        for chunk in filter(None, (c.strip() for c in rest.split(";"))):
            kv = _parse_kv(chunk)
            try:
                comps.append((float(kv["w"]), float(kv["mu"]), float(kv["sigma"])))
            except KeyError as exc:
                raise ValueError(f"mixture component {chunk!r} needs w, mu, sigma") from exc
        if not comps:
            raise ValueError("mixture spec needs at least one component")
        return DistributionSpec.mixture(comps)
    if family == "discrete":
        atoms, probs = [], []
        for chunk in filter(None, (c.strip() for c in rest.split(","))):
            a, _, pr = chunk.partition("=")
            atoms.append(float(a))
            probs.append(float(pr))
        if not atoms:
            raise ValueError("discrete spec needs atom=prob pairs")
        return DistributionSpec.discrete(atoms, probs)
    kv = _parse_kv(rest) if rest else {}
    if family == "gaussian":
        return DistributionSpec.gaussian(float(kv.get("sigma", 1.0)))
    if family == "gamma":
        if "beta" not in kv:
            raise ValueError("gamma spec needs beta, e.g. gamma:beta=4")
        centered = str(kv.get("centered", "true")).lower() in ("true", "1", "yes")
        return DistributionSpec.gamma(float(kv["beta"]), centered)
    if family == "uniform":
        return DistributionSpec.uniform(float(kv.get("a", -1.0)), float(kv.get("b", 1.0)))
    raise ValueError(f"unknown family {family!r} in spec {text!r}")


def _parse_kv(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for chunk in filter(None, (c.strip() for c in text.split(","))):
        k, sep, v = chunk.partition("=")
        if not sep:
            raise ValueError(f"expected key=value, got {chunk!r}")
        out[k.strip()] = v.strip()
    return out


def trapezoid_weights(count: int, step: float) -> NDArray[np.float64]:
    """Trapezoid quadrature weights for ``count`` nodes spaced ``step`` apart."""
    w = np.full(count, step)
    w[0] = w[-1] = step / 2
    return w


# Newton stops once no node moves by more than this (three steps at 2000
# nodes, four at most for any count measured); the 2000-node weights are then
# within 4e-12 relative of a longdouble Newton reference at every node. The
# step cap only guards against a loop that never ends.
LEGENDRE_NEWTON_TOL = 1e-14
LEGENDRE_NEWTON_MAX_STEPS = 8


@functools.cache
def gauss_legendre(count: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """``count``-point Gauss-Legendre nodes (ascending) and weights on [-1, 1], computed once per count.

    Newton's method on P_count from Tricomi's initial guesses, with P_count
    and P_{count-1} from the three-term recurrence and
    P'(x) = count (P_{count-1} - x P_count) / (1 - x^2), on the positive half
    only (the rule is symmetric). The weight 2 / ((1 - x^2) P'(x)^2) is taken
    at the last Newton iterate and moved to the root by its first-order term,
    with 1 - x^2 formed as (1 - x)(1 + x): near x = +-1 both the rounding of
    the node and the cancellation in 1 - x^2 would otherwise be amplified by
    1/(1 - x^2), about 1e6 at 2000 nodes (Hale & Townsend, SIAM J. Sci.
    Comput. 35, 2013). The arrays are shared by every caller, so they are
    made read-only.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    middle = count % 2
    k = np.arange(1, (count + 1) // 2 + 1)
    x = (1.0 - (count - 1) / (8.0 * count**3)) * np.cos(np.pi * (4 * k - 1) / (4 * count + 2))
    if middle:
        x[-1] = 0.0  # the exact root: odd-degree recurrence values stay exactly 0 there
    for _ in range(LEGENDRE_NEWTON_MAX_STEPS):
        prev, cur = np.ones_like(x), x.copy()
        for j in range(1, count):
            prev, cur = cur, ((2 * j + 1) * x * cur - j * prev) / (j + 1)
        one_minus_x2 = (1.0 - x) * (1.0 + x)
        deriv = count * (prev - x * cur) / one_minus_x2
        dx = cur / deriv
        # d log w / dx = -2x / (1 - x^2) at a root, and the root is x - dx
        w = 2.0 / (one_minus_x2 * deriv * deriv) * (1.0 + 2.0 * x * dx / one_minus_x2)
        x = x - dx
        if np.abs(dx).max() <= LEGENDRE_NEWTON_TOL:
            break
    half = len(x) - middle
    nodes = np.concatenate([-x[:half], x[::-1]])
    weights = np.concatenate([w[:half], w[::-1]])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0: the log of the exact factorial (x - 1)! at the integers 1..170, math.lgamma elsewhere.

    math.lgamma can sit ulps off at integers (math.lgamma(4.0) is one ulp
    above log 6). The exact factorial's log carries only the rounding of one
    log call, and at 1..13 it equals scipy.special.gammaln bit for bit, so a
    gamma density or polynomial norm at an integer parameter does not depend
    on the lgamma implementation.
    """
    if 1 <= x < 171 and x == int(x):
        return math.log(math.factorial(int(x) - 1))
    return math.lgamma(x)


def _normalized(
    nodes: NDArray[np.float64],
    raw_values: NDArray[np.float64],
    step: float,
    truncated_mass: float = 0.0,
    clamped_mass: float = 0.0,
    warnings: tuple[str, ...] = (),
) -> GridDensity:
    w = trapezoid_weights(len(nodes), step)
    mass = float(w @ raw_values)
    if mass <= 0:
        raise ValueError("density has no mass on the grid")
    return GridDensity(nodes, raw_values / mass, step, truncated_mass, clamped_mass, warnings)


def build_density(spec: DistributionSpec, cfg: GridConfig | None = None, n_hint: int = 1) -> GridDensity:
    """Evaluate a family density on a fresh uniform grid.

    The grid spans mean +/- half_width_sigmas * sigma * sqrt(n_hint), so a
    caller planning an n-fold sum can reserve room up front. Values are
    trapezoid-normalized; mass outside the grid is estimated from the
    pre-normalization deficit and attached as ``truncated_mass``.

    Gamma shapes below 1 are refused: their density is unbounded at the
    support edge, where point samples miss a mass the deficit does not show
    (beta=0.1 reads ``truncated_mass`` 0 with theta 34% off at 1024 nodes).
    """
    cfg = cfg or GridConfig()
    if n_hint < 1:
        raise ValueError("n_hint must be >= 1")
    if spec.family == "file":
        return _load_density_file(str(spec.params["path"]))
    if spec.family == "gamma" and spec.params["beta"] < 1:
        beta = spec.params["beta"]
        edge = -beta if spec.params.get("centered", True) else 0.0
        raise ValueError(
            f"gamma beta={beta:g} has an unbounded density at its support edge x = {edge:g}, "
            "which a point-sampled grid cannot resolve; use beta >= 1"
        )
    mean, sigma = spec.mean_and_sigma()
    if sigma <= 0:
        raise ValueError("distribution must have positive variance")
    half = cfg.half_width_sigmas * sigma * math.sqrt(n_hint)
    nodes = np.linspace(mean - half, mean + half, cfg.node_count)
    step = float(nodes[1] - nodes[0])
    if spec.family == "discrete":
        return _discrete_spikes(spec, nodes, step)
    pdf = _family_pdf(spec)
    values = pdf(nodes)
    values[values <= DENSITY_FLOOR] = 0.0
    w = trapezoid_weights(len(nodes), step)
    truncated = max(0.0, 1.0 - float(w @ values))
    warns: tuple[str, ...] = ()
    if truncated > MASS_CUTOFF:
        warns = (f"mass {truncated:.3e} outside grid exceeds cutoff {MASS_CUTOFF:.1e}",)
    return _normalized(nodes, values, step, truncated_mass=truncated, warnings=warns)


def _family_pdf(spec: DistributionSpec) -> Callable[[NDArray[np.float64]], NDArray[np.float64]]:
    p = spec.params
    if spec.family == "gaussian":
        sigma = float(p["sigma"])
        return lambda x: np.exp(-x * x / (2 * sigma * sigma)) / (sigma * math.sqrt(2 * math.pi))

    if spec.family == "gamma":
        beta = float(p["beta"])
        shift = beta if p.get("centered", True) else 0.0
        log_norm = log_gamma(beta)

        def gamma_pdf(x: NDArray[np.float64]) -> NDArray[np.float64]:
            y = np.asarray(x, dtype=float) + shift
            out = np.zeros_like(y)
            pos = y > 0
            out[pos] = np.exp((beta - 1) * np.log(y[pos]) - y[pos] - log_norm)
            return out

        return gamma_pdf

    if spec.family == "uniform":
        a, b = float(p["a"]), float(p["b"])
        return lambda x: np.where((x >= a) & (x <= b), 1.0 / (b - a), 0.0)

    if spec.family == "mixture":
        comps = p["components"]
        total = sum(w for w, _, _ in comps)

        def mixture_pdf(x: NDArray[np.float64]) -> NDArray[np.float64]:
            acc = np.zeros_like(np.asarray(x, dtype=float))
            for w, m, s in comps:
                acc += (w / total) * np.exp(-((x - m) ** 2) / (2 * s * s)) / (s * math.sqrt(2 * math.pi))
            return acc

        return mixture_pdf

    raise ValueError(f"no pdf for family {spec.family!r}")


def _family_score(spec: DistributionSpec) -> Callable[[NDArray[np.float64]], NDArray[np.float64]] | None:
    """The closed score rho = (log p)' of a gaussian or gamma law on its support; None for any other family."""
    p = spec.params
    if spec.family == "gaussian":
        var = float(p["sigma"]) ** 2
        return lambda x: -x / var
    if spec.family == "gamma":
        beta = float(p["beta"])
        shift = beta if p.get("centered", True) else 0.0
        return lambda x: (beta - 1) / (x + shift) - 1
    return None


def _discrete_spikes(spec: DistributionSpec, nodes: NDArray[np.float64], step: float) -> GridDensity:
    atoms, probs = _discrete_arrays(spec)
    values = np.zeros(len(nodes))
    for a, pr in zip(atoms, probs):
        i = int(round((a - nodes[0]) / step))
        if not 0 <= i < len(nodes):
            raise ValueError(f"atom {a} falls outside the grid")
        values[i] += pr / step
    return _normalized(nodes, values, step)


def _load_density_file(path: str) -> GridDensity:
    data = np.loadtxt(path, dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError(f"{path}: expected two whitespace-separated columns (node, value)")
    nodes, values = data[:, 0], data[:, 1]
    if len(nodes) < 3:
        raise ValueError(f"{path}: need at least 3 rows")
    diffs = np.diff(nodes)
    if diffs.min() <= 0:
        raise ValueError(f"{path}: nodes must be strictly ascending")
    step = float(np.mean(diffs))
    if np.abs(diffs - step).max() > 1e-9 * step:
        raise ValueError(f"{path}: non-uniform node spacing")
    if values.min() < 0:
        raise ValueError(f"{path}: negative density values")
    values = values.copy()
    values[values <= DENSITY_FLOOR] = 0.0
    w = trapezoid_weights(len(nodes), step)
    mass = float(w @ values)
    warns: tuple[str, ...] = ()
    if abs(mass - 1.0) > 1e-6:
        warns = (f"renormalized file density with mass {mass!r}",)
    return _normalized(nodes, values, step, warnings=warns)


def write_density_file(path: str, d: GridDensity) -> None:
    """Write the two-column (node, value) text format, 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        for x, v in zip(d.nodes, d.values):
            fh.write(f"{x:.17g} {v:.17g}\n")


def _skew_and_sigma(m2: float, m3: float, m4: float) -> tuple[float, float]:
    """Skewness and the statistic Sigma = kurtosis - skewness^2 - 1 from the central moments of orders 2 to 4."""
    skew = m3 / m2**1.5
    return skew, m4 / m2**2 - skew**2 - 1.0


def moments(d: GridDensity, kmax: int = 4) -> MomentSet:
    """Central moments up to order 2*kmax by trapezoid quadrature.

    kmax lies in [2, 12]: Sigma reads the fourth moment, and past 12 the
    tail-dominated integrand x^24 p(x) makes truncated-grid numbers meaningless.
    """
    if not 2 <= kmax <= 12:
        raise ValueError(f"kmax must lie in [2, 12], got {kmax}")
    order = 2 * kmax
    wv = d.weights() * d.values
    centered = d.nodes - float(wv @ d.nodes)
    central = tuple(float(wv @ centered**j) for j in range(1, order + 1))
    var = central[1]
    if var <= 0:
        raise ValueError("density has nonpositive variance")
    return MomentSet(central, var, *_skew_and_sigma(*central[1:4]))


def score(d: GridDensity) -> GridFunction:
    """Score function rho = (log p)' by central differences of log-density.

    The score is marked invalid outside the positive window, at the window's
    boundary nodes, and wherever the stencil spans more than
    SCORE_MAX_LOG_JUMP in log-density (under-resolved region, e.g. hard
    against a support edge).

    Raises
    ------
    ScoreUndefinedError
        If the density has zeros strictly inside its positive window.
    """
    i0, i1 = d.positive_window()
    inside = d.values[i0 : i1 + 1]
    if (inside <= DENSITY_FLOOR).any():
        bad = np.nonzero(inside <= DENSITY_FLOOR)[0] + i0
        raise ScoreUndefinedError(
            f"density vanishes inside its positive window at nodes "
            f"[{bad.min()}..{bad.max()}] (x in [{d.nodes[bad.min()]:.6g}, {d.nodes[bad.max()]:.6g}])"
        )
    values = np.zeros(len(d.nodes))
    valid = np.zeros(len(d.nodes), dtype=bool)
    if i1 - i0 >= 2:
        lp = np.log(inside)
        diff = lp[2:] - lp[:-2]
        values[i0 + 1 : i1] = diff / (2 * d.step)
        valid[i0 + 1 : i1] = np.abs(diff) <= SCORE_MAX_LOG_JUMP
    return GridFunction(d.nodes, values, valid)


def fisher(d: GridDensity) -> float:
    """Fisher information J = integral of p * rho^2 over the valid window.

    Raises ScoreUndefinedError where ``score`` does, and FisherUnavailableError
    where a positive-window edge value exceeds EDGE_JUMP_REL of the maximum (a
    jump, so J diverges: gamma shapes below 3, conservative for 2 < beta < 3)
    or invalid-score nodes carry over INVALID_MASS_FRACTION of the mass.
    """
    rho = score(d)
    i0, i1 = d.positive_window()
    vmax = d.values.max()
    for edge in (i0, i1):
        if d.values[edge] > EDGE_JUMP_REL * vmax:
            raise FisherUnavailableError(
                f"density jumps at its support edge (node {edge}, x = {d.nodes[edge]:.6g}, "
                f"p/pmax = {d.values[edge] / vmax:.3e}); Fisher information diverges"
            )
    w = d.weights()
    invalid_mass = float((w * d.values)[~rho.valid].sum())
    if invalid_mass > INVALID_MASS_FRACTION:
        raise FisherUnavailableError(
            f"score undefined on mass fraction {invalid_mass:.3e} (> {INVALID_MASS_FRACTION:.0e})"
        )
    sel = rho.valid
    return float((w[sel] * d.values[sel]) @ rho.values[sel] ** 2)


def jst(d: GridDensity) -> JstResult:
    """Standardized Fisher information Var(Y) * J(Y) - 1.

    Nonnegative by Cramer-Rao, zero exactly for Gaussian, and invariant under
    rescale.
    """
    j = fisher(d)
    var = d.variance()
    return JstResult(value=var * j - 1.0, fisher_info=j, variance=var)


def convolve(d1: GridDensity, d2: GridDensity) -> GridDensity:
    """Density of the sum of independent variables with densities d1, d2.

    Both grids must share the step. The output grid is the full sumset
    lattice: start at d1.nodes[0] + d2.nodes[0], length N1 + N2 - 1. The
    values are direct sums over the two positive windows, written at the
    offset of the windows' first nodes; entries below TAIL_CUT_REL of the
    peak are zeroed and the removed mass recorded before renormalization.
    """
    if abs(d1.step - d2.step) > 1e-9 * d1.step:
        raise ValueError(f"grid steps differ: {d1.step!r} vs {d2.step!r}")
    n_out = len(d1.nodes) + len(d2.nodes) - 1
    if n_out > MAX_GRID_NODES:
        raise ValueError(f"grid overflow: convolution would need {n_out} nodes (cap {MAX_GRID_NODES})")
    a0, a1 = d1.positive_window()
    b0, b1 = d2.positive_window()
    raw = np.zeros(n_out)
    raw[a0 + b0 : a1 + b1 + 1] = np.convolve(d1.values[a0 : a1 + 1], d2.values[b0 : b1 + 1]) * d1.step
    tail = raw < raw.max() * TAIL_CUT_REL
    clamped = float(raw[tail].sum()) * d1.step
    raw[tail] = 0.0
    nodes = (d1.nodes[0] + d2.nodes[0]) + d1.step * np.arange(n_out)
    return _normalized(
        nodes,
        raw,
        d1.step,
        truncated_mass=d1.truncated_mass + d2.truncated_mass,
        clamped_mass=d1.clamped_mass + d2.clamped_mass + clamped,
        warnings=tuple(sorted(set(d1.warnings + d2.warnings))),
    )


def _partial_sums(d: GridDensity, n: int) -> Iterator[GridDensity]:
    """The laws of S_1, ..., S_n by the left fold S_k = convolve(S_{k-1}, d), one held at a time."""
    out = d
    yield out
    for _ in range(n - 1):
        out = convolve(out, d)
        yield out


def convolve_self(d: GridDensity, n: int) -> GridDensity:
    """Density of the n-fold i.i.d. sum S_n on the widened lattice: the last law of ``_partial_sums``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for out in _partial_sums(d, n):
        pass
    return out


def rescale(d: GridDensity, c: float) -> GridDensity:
    """Density of c * Y. Negative c flips the grid; c must be nonzero."""
    if c == 0:
        raise ValueError("scale factor must be nonzero")
    nodes = d.nodes * c
    values = d.values / abs(c)
    if c < 0:
        nodes = nodes[::-1].copy()
        values = values[::-1].copy()
    return GridDensity(nodes, values, abs(c) * d.step, d.truncated_mass, d.clamped_mass, d.warnings)


def gaussian_regularize(d: GridDensity, delta: float) -> GridDensity:
    """Convolve with a centered Gaussian of variance delta^2 on the same lattice.

    The kernel spans +/- REGULARIZE_HALF_WIDTH * delta in 2m + 1 nodes; the
    output grid is refused beforehand when its N + 2m nodes exceed
    MAX_GRID_NODES.
    """
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    m = math.ceil(REGULARIZE_HALF_WIDTH * delta / d.step)
    if len(d.nodes) + 2 * m > MAX_GRID_NODES:
        raise ValueError(
            f"grid overflow: regularization would need {len(d.nodes) + 2 * m} nodes (cap {MAX_GRID_NODES})"
        )
    g = np.arange(-m, m + 1) * d.step
    kern = np.exp(-g * g / (2 * delta * delta))
    kern /= kern.sum() * d.step
    warns: tuple[str, ...] = ()
    if delta < 4 * d.step:
        warns = (f"regularization width {delta!r} under-resolved by step {d.step!r}",)
    return convolve(d, GridDensity(g, kern, d.step, warnings=warns))

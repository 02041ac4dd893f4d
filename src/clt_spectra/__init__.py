"""Spectra of conditional-expectation operators for i.i.d. sums.

The package measures how fast normalized sums forget their summands: the
spectrum of C f(s) = E[f(S_m) | S_n = s], the second-eigenvalue statistic
built from it, standardized Fisher information along the convolution
semigroup, and a battery of inequalities tying the two together. Closed
Hermite/Laguerre eigenvalue families and an exact finite-support pipeline
serve as oracles for the grid numerics.

CLT_SPECTRA_THREADS=k caps the BLAS and OpenMP thread pools at k. It is read
here, before the first numpy import, because those pools are sized when the
libraries load; a library variable set explicitly (OPENBLAS_NUM_THREADS, ...)
takes precedence.
"""

import os as _os
import sys as _sys


def _apply_thread_cap() -> None:
    raw = _os.environ.get("CLT_SPECTRA_THREADS")
    if not raw:
        return
    try:
        cap = max(1, int(raw))
    except ValueError:
        print(f"warning: ignoring non-integer CLT_SPECTRA_THREADS={raw!r}", file=_sys.stderr)
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(var, str(cap))


_apply_thread_cap()

from .closed_forms import (  # noqa: E402  (the thread cap must precede numpy)
    PolyFamily,
    addition_check_hermite,
    addition_check_laguerre,
    closed_theta,
    gamma_jst,
    hermite_lambda,
    hermite_value,
    laguerre_lambda,
    laguerre_lambda_sum,
    laguerre_value,
)
from .densities import (
    DistributionSpec,
    FisherUnavailableError,
    GridConfig,
    GridDensity,
    GridFunction,
    JstResult,
    MomentSet,
    ScoreUndefinedError,
    build_density,
    convolve,
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
from .discrete import (
    DiscretePMF,
    ESDecomposition,
    ExactOperator,
    component_cross_moment,
    convolve_pmf,
    efron_stein,
    exact_operator,
    exact_spectrum,
    exact_theta,
    pmf_power,
    projection_inequality,
)
from .inequalities import (
    BoundReport,
    MomentBoundParts,
    SubgaussResult,
    chain_lower,
    de_bruijn_rate,
    de_bruijn_rate_quad,
    eigen_tail_asymptote,
    fisher_lower_bound,
    fisher_upper_bound,
    gauss_chi2_closed,
    gauss_chi2_quad,
    make_report,
    monotonicity_reports,
    monotonicity_sequence,
    subgauss_chi2_bound,
    theta_lower_from_poincare,
    theta_moment_parts,
    theta_moment_parts_quadrature,
    theta_upper_from_sigma,
)
from .operators import (
    ConditionalKernel,
    SpectrumResult,
    ThetaResult,
    TraceResult,
    apply_C,
    apply_Cstar,
    build_kernel,
    gram_matrix,
    spectrum,
    theta,
    theta_from_spectrum,
    trace_T,
)
from .verify import (
    addition_battery,
    chi2_battery,
    exact_battery,
    family_battery,
    negative_control,
    verify_all,
)

__version__ = "0.1.0"

__all__ = [
    "PolyFamily",
    "addition_check_hermite",
    "addition_check_laguerre",
    "closed_theta",
    "gamma_jst",
    "hermite_lambda",
    "hermite_value",
    "laguerre_lambda",
    "laguerre_lambda_sum",
    "laguerre_value",
    "DistributionSpec",
    "FisherUnavailableError",
    "GridConfig",
    "GridDensity",
    "GridFunction",
    "JstResult",
    "MomentSet",
    "ScoreUndefinedError",
    "build_density",
    "convolve",
    "convolve_self",
    "fisher",
    "gaussian_regularize",
    "jst",
    "moments",
    "parse_spec",
    "rescale",
    "score",
    "write_density_file",
    "DiscretePMF",
    "ESDecomposition",
    "ExactOperator",
    "component_cross_moment",
    "convolve_pmf",
    "efron_stein",
    "exact_operator",
    "exact_spectrum",
    "exact_theta",
    "pmf_power",
    "projection_inequality",
    "BoundReport",
    "MomentBoundParts",
    "SubgaussResult",
    "chain_lower",
    "de_bruijn_rate",
    "de_bruijn_rate_quad",
    "eigen_tail_asymptote",
    "fisher_lower_bound",
    "fisher_upper_bound",
    "gauss_chi2_closed",
    "gauss_chi2_quad",
    "make_report",
    "monotonicity_reports",
    "monotonicity_sequence",
    "subgauss_chi2_bound",
    "theta_lower_from_poincare",
    "theta_moment_parts",
    "theta_moment_parts_quadrature",
    "theta_upper_from_sigma",
    "ConditionalKernel",
    "SpectrumResult",
    "ThetaResult",
    "TraceResult",
    "apply_C",
    "apply_Cstar",
    "build_kernel",
    "gram_matrix",
    "spectrum",
    "theta",
    "theta_from_spectrum",
    "trace_T",
    "addition_battery",
    "chi2_battery",
    "exact_battery",
    "family_battery",
    "negative_control",
    "verify_all",
]

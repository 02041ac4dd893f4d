"""Spectra of conditional-expectation operators for i.i.d. sums.

The package measures how fast normalized sums forget their summands: the
spectrum of C f(s) = E[f(S_m) | S_n = s], the second-eigenvalue statistic
built from it, standardized Fisher information along the convolution
semigroup, and a battery of inequalities tying the two together. The closed
eigenvalues of the Meixner laws (gaussian, gamma, binomial, ...) and an
exact finite-support pipeline serve as oracles for the grid numerics.

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

# one star import per module: each module's __all__ is the one list of what it exports
from .closed_forms import *  # noqa: E402,F403  (the thread cap must precede numpy)
from .densities import *  # noqa: E402,F403
from .discrete import *  # noqa: E402,F403
from .inequalities import *  # noqa: E402,F403
from .operators import *  # noqa: E402,F403
from .verify import *  # noqa: E402,F403
from . import closed_forms, densities, discrete, inequalities, operators, verify  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    name
    for module in (closed_forms, densities, discrete, inequalities, operators, verify)
    for name in module.__all__
]

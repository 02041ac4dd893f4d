"""Spectra of conditional-expectation operators for i.i.d. sums.

The package measures how fast normalized sums forget their summands: the
spectrum of C f(s) = E[f(S_m) | S_n = s], the second-eigenvalue statistic
built from it, standardized Fisher information along the convolution
semigroup, and a battery of inequalities tying the two together. The closed
eigenvalues of the Meixner laws (gaussian, gamma, binomial, ...) and an
exact finite-support pipeline serve as oracles for the grid numerics.
"""

# one star import per module: each module's __all__ is the one list of what it exports
from .closed_forms import *  # noqa: F403
from .densities import *  # noqa: F403
from .discrete import *  # noqa: F403
from .inequalities import *  # noqa: F403
from .operators import *  # noqa: F403
from .verify import *  # noqa: F403
from . import closed_forms, densities, discrete, inequalities, operators, verify

__version__ = "0.1.0"

__all__ = [
    name
    for module in (closed_forms, densities, discrete, inequalities, operators, verify)
    for name in module.__all__
]

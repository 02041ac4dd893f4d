"""Spectra of conditional-expectation operators for i.i.d. sums.

The package measures how fast normalized sums forget their summands: the
spectrum of C f(s) = E[f(S_m) | S_n = s], the second-eigenvalue statistic
built from it, standardized Fisher information along the convolution
semigroup, and a battery of inequalities tying the two together. The closed
eigenvalues of the Meixner laws (gaussian, gamma, binomial, ...) and an
exact finite-support pipeline serve as oracles for the grid numerics.

``import clt_spectra`` loads no submodule (PEP 562). A submodule loads the
first time its name, or a name in its ``__all__``, is read from the package.
``__all__`` is the concatenation of the six module lists, so reading it, or
``from clt_spectra import *``, loads all six.
"""
import importlib

__version__ = "0.1.0"

# A name is looked up by importing these in turn until one lists it. Each comes
# after the modules it imports, so a lookup loads few beyond the one it needs.
_MODULES = ("densities", "closed_forms", "operators", "inequalities", "discrete", "verify")


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        # each module's __all__ is the one list of what it exports
        value = [export for module in sorted(_MODULES) for export in __getattr__(module).__all__]
    elif name.startswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    else:
        home = next((m for m in map(__getattr__, _MODULES) if name in m.__all__), None)
        if home is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(home, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, *__getattr__("__all__")})

"""Imports the package before any test module imports numpy, so that
CLT_SPECTRA_THREADS caps the BLAS and OpenMP pools of the whole run."""

import clt_spectra  # noqa: F401

"""Timing spans around calls into the public functions of each clt_spectra module.

The tracer is installed from the benchmark's own process for one traced run
only; the package source is never edited. Each wrapped function is rebound in
every ``clt_spectra`` module namespace (and class) that holds the original, so
a call made from inside the package, such as ``spectrum`` calling
``gram_matrix``, is also seen and nests as a child span. Spans stay in memory
and are written once at exit; self time is a span's duration minus the time
its direct children cover.
"""
from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# module -> public names whose calls are timed. "report" functions are summed
# into one "report.serialize" row (how the reports become bytes).
TARGETS = {
    "densities": ["build_density", "convolve", "convolve_self", "jst", "moments"],
    "operators": [
        "build_kernel", "gram_matrix", "spectrum", "classify_trivial", "trace_T", "apply_C", "apply_Cstar",
    ],
    "discrete": ["pmf_power", "exact_operator", "exact_spectrum", "efron_stein", "projection_inequality"],
    "inequalities": [
        "gauss_chi2_quad", "subgauss_chi2_bound", "theta_moment_parts_quadrature", "de_bruijn_rate_quad",
    ],
    "closed_forms": ["PolyFamily.orthonormality_residual", "addition_check_hermite", "addition_check_laguerre"],
    "verify": ["family_battery", "exact_battery", "chi2_battery", "addition_battery", "negative_control"],
    "report": [
        "json_document", "reports_document", "reports_csv", "spectrum_document", "theta_document",
        "trace_document", "eigenfunction_csv",
    ],
    "cli": ["run"],
}

SPAN_ALIASES = {f"report.{name}": "report.serialize" for name in TARGETS["report"]}

# modules whose cumulative import time `python -X importtime` reports
IMPORT_MODULES = [
    "clt_spectra", "clt_spectra.closed_forms", "clt_spectra.densities", "clt_spectra.discrete",
    "clt_spectra.inequalities", "clt_spectra.operators", "clt_spectra.verify",
    "clt_spectra.cli", "scipy.signal",
]

# computed sizes and numerical health values, all reported as maxima
SIZE_METRICS = [
    ("operators.build_kernel.bytes", "bytes"),
    ("operators.spectrum.dim_max", "count"),
    ("densities.convolve.out_nodes", "count"),
]
HEALTH_METRICS = [
    "operators.theta_rel_err_max",
    "operators.eigen_residual_max",
    "operators.clamp_magnitude_max",
    "operators.row_sum_err_max",
    "operators.masked_mass_max",
    "densities.clamped_mass_max",
    "discrete.dks_err_max",
    "discrete.m_over_n_multiplicity_max",
]

# eigenvalues this close to m/n count toward its multiplicity (the package's
# own cluster tolerance for trivial-mode classification)
CLUSTER_TOL = 1e-8


def span_names() -> list[str]:
    names = []
    for module, funcs in TARGETS.items():
        for func in funcs:
            name = SPAN_ALIASES.get(f"{module}.{func}", f"{module}.{func}")
            if name not in names:
                names.append(name)
    return names


def import_metric_name(module: str) -> str:
    short = module[len("clt_spectra."):] if module.startswith("clt_spectra.") else module
    return f"cli.import.{short}_s"


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in the order they are reported."""
    out = []
    for name in span_names():
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += SIZE_METRICS
    out += [(name, "count" if name.endswith("multiplicity_max") else "1") for name in HEALTH_METRICS]
    out += [("cli.import_s", "s")] + [(import_metric_name(m), "s") for m in IMPORT_MODULES]
    out += [("trace.overhead_s", "s")]
    return out


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.sizes: dict[str, float] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def note(self, key: str, value: float) -> None:
        """Keep the running maximum of a size or health value."""
        value = float(value)
        if value == value and value > self.sizes.get(key, float("-inf")):
            self.sizes[key] = value

    def span(self, name: str, fn, *args, **kwargs):
        sid = len(self.spans)
        rec = {"id": sid, "parent": self.stack[-1] if self.stack else None, "name": name}
        self.spans.append(rec)
        self.stack.append(sid)
        rec["t0"] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec["t1"] = perf_counter()
            self.stack.pop()

    def add_span(self, name: str, t0: float, t1: float) -> None:
        """Record a finished top-level interval, such as an import."""
        self.spans.append({"id": len(self.spans), "parent": None, "name": name, "t0": t0, "t1": t1})

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind it wherever the package holds the original."""
        mods = {name: m for name, m in sys.modules.items()
                if m is not None and (name == "clt_spectra" or name.startswith("clt_spectra."))}
        for module, funcs in TARGETS.items():
            home = mods.get(f"clt_spectra.{module}")
            if home is None:
                continue
            for func in funcs:
                name = SPAN_ALIASES.get(f"{module}.{func}", f"{module}.{func}")
                if "." in func:  # a method: wrap it on its class
                    cls_name, meth = func.split(".")
                    cls = getattr(home, cls_name)
                    self._rebind(cls, meth, self._wrap(name, getattr(cls, meth)))
                    continue
                orig = getattr(home, func)
                wrapper = self._wrap(name, orig)
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._rebind(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.span(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self, out)
            return out

        return wrapper

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "sizes": self.sizes}, fh)


def self_times(span_list: list[dict]) -> dict[str, tuple[int, float]]:
    """name -> (calls, summed self time) over one process's spans."""
    child = [0.0] * len(span_list)
    for s in span_list:
        if s["parent"] is not None:
            child[s["parent"]] += s["t1"] - s["t0"]
    out: dict[str, tuple[int, float]] = {}
    for s, c in zip(span_list, child):
        calls, total = out.get(s["name"], (0, 0.0))
        out[s["name"]] = (calls + 1, total + (s["t1"] - s["t0"]) - c)
    return out


# -- hooks: sizes and health read from returned objects (O(1) or O(N)) -------

def _density(tr: Tracer, d) -> None:
    tr.note("densities.clamped_mass_max", d.clamped_mass)


def _convolve(tr: Tracer, d) -> None:
    _density(tr, d)
    tr.note("densities.convolve.out_nodes", len(d.nodes))


def _kernel(tr: Tracer, k) -> None:
    tr.note("operators.build_kernel.bytes", k.table.nbytes + k.B.nbytes)
    tr.note("operators.row_sum_err_max", k.row_sum_err)
    tr.note("operators.masked_mass_max", k.masked_mass)


def _spectrum(tr: Tracer, sp) -> None:
    tr.note("operators.spectrum.dim_max", len(sp.eigenvalues))
    tr.note("operators.clamp_magnitude_max", sp.clamp_magnitude)


def _exact_spectrum(tr: Tracer, sp) -> None:
    lam = sp.eigenvalues
    target = sp.m / sp.n
    tr.note("discrete.dks_err_max", abs(float(lam[sp.trivial_indices[1]]) - target))
    tr.note("discrete.m_over_n_multiplicity_max", int((abs(lam - target) <= CLUSTER_TOL).sum()))


HOOKS = {
    "densities.build_density": _density,
    "densities.convolve": _convolve,
    "densities.convolve_self": _density,
    "operators.build_kernel": _kernel,
    "operators.spectrum": _spectrum,
    "discrete.exact_spectrum": _exact_spectrum,
}

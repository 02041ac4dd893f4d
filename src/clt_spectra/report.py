"""Deterministic JSON and CSV emission for results and bound reports.

All JSON documents carry the schema tag "clt-spectra/1" and are rendered with
sorted keys so identical inputs give byte-identical output. Non-finite floats
are mapped to the strings "inf", "-inf" and "nan": raw IEEE specials are not
valid JSON.
"""
from __future__ import annotations

import json
import math
from typing import Any, Iterable

import numpy as np

from .inequalities import BoundReport
from .operators import SpectrumResult, ThetaResult, TraceResult, theta_from_spectrum

__all__ = [
    "SCHEMA",
    "sanitize",
    "json_document",
    "report_row",
    "reports_document",
    "reports_csv",
    "spectrum_document",
    "theta_document",
    "trace_document",
    "eigenfunction_csv",
]

SCHEMA = "clt-spectra/1"

CSV_HEADER = "name,n,m,lhs,rhs,slack,pass"


def sanitize(value: Any) -> Any:
    """Recursively convert to plain JSON-safe Python types."""
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        value = value.item()
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, np.ndarray):
        return [sanitize(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize(v) for v in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return str(value)


def json_document(payload: dict) -> str:
    doc = {"schema": SCHEMA}
    doc.update(sanitize(payload))
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def report_row(r: BoundReport) -> dict:
    return {
        "name": r.name,
        "n": r.n,
        "m": r.m,
        "lhs": r.lhs,
        "rhs": r.rhs,
        "slack": r.slack,
        "tol": r.tol,
        "pass": bool(r.passed),
        "lhs_kind": r.lhs_kind,
        "rhs_kind": r.rhs_kind,
        "context": r.context,
    }


def reports_document(reports: Iterable[BoundReport]) -> dict:
    """The report table and its summary; ``skipped`` names the passing ``*-skipped`` reports that stand in for checks."""
    rows = [report_row(r) for r in reports]
    if not rows:
        raise ValueError("refusing to emit an empty report table")
    failed = [row["name"] for row in rows if not row["pass"]]
    skipped = [row["name"] for row in rows if row["name"].endswith("-skipped")]
    return {
        "reports": rows,
        "summary": {"total": len(rows), "passed": len(rows) - len(failed), "failed": failed, "skipped": skipped},
    }


def _csv_num(value: float | int | None) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    value = float(value)
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return repr(value)


def reports_csv(reports: Iterable[BoundReport]) -> str:
    reports = list(reports)
    if not reports:
        raise ValueError("refusing to emit an empty report table")
    lines = [CSV_HEADER]
    for r in reports:
        lines.append(
            ",".join(
                [
                    r.name,
                    _csv_num(r.n),
                    _csv_num(r.m),
                    _csv_num(r.lhs),
                    _csv_num(r.rhs),
                    _csv_num(r.slack),
                    "true" if r.passed else "false",
                ]
            )
        )
    return "\n".join(lines) + "\n"


def spectrum_document(spec: SpectrumResult) -> dict:
    """The theta document of the spectrum: the same fields and bytes as ``theta``."""
    return theta_document(theta_from_spectrum(spec))


def theta_document(theta: ThetaResult) -> dict:
    return {
        "theta": theta.theta,
        "lambda2": theta.lambda2,
        "n": theta.n,
        "m": theta.m,
        "eigenvalues": theta.diagnostics.get("lambda_head", []),
        "singular_values": [math.sqrt(v) for v in theta.diagnostics.get("lambda_head", [])],
        "trivial_indices": theta.diagnostics.get("trivial_indices", []),
        "diagnostics": theta.diagnostics,
    }


def trace_document(trace: TraceResult, n: int, m: int) -> dict:
    return {
        "trace": trace.value,
        "chi2": trace.chi2,
        "masked_mass": trace.masked_mass,
        "lower_bound_only": trace.lower_bound_only,
        "n": n,
        "m": m,
    }


def eigenfunction_csv(spec: SpectrumResult) -> str:
    """Plot-ready table: node, f_0, f_1, ... for the retained eigenfunctions."""
    top = spec.eigenfunctions.shape[0]
    lines = ["node," + ",".join(f"f_{k}" for k in range(top))]
    for i, x in enumerate(spec.y_nodes):
        row = [repr(float(x))] + [repr(float(spec.eigenfunctions[k, i])) for k in range(top)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"

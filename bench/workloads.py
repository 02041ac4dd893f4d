"""Workload bodies. bench/run.py starts this file in a fresh interpreter per run.

The job arrives as JSON on stdin:
    {"workload": NAME, "inputs": {...}, "seconds": S, "min_passes": K, "trace": bool, "out_dir": PATH}
and one JSON line goes to stdout with the pass times, per-step times, check
counts, peak RSS, the environment and, when traced, the per-layer numbers.

Every workload is a closed loop with one caller: a pass is a fixed list of
steps, each step's compute part is timed and its outputs are checked right
after, outside the timed region, then dropped. Passes repeat until ``seconds``
have elapsed and at least ``min_passes`` passes ran.

``workloads.py --cli-shim SPANFILE -- ARGV...`` runs one traced CLI
invocation: it times ``import clt_spectra.cli``, installs the span wrappers,
calls ``clt_spectra.cli.run(ARGV)`` and writes its spans to SPANFILE.
"""
from __future__ import annotations

import json
import math
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans

CLI_TIMEOUT_S = 60


class Checks:
    """Counts correctness checks; a check that does not hold is a failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.health: dict[str, float] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail}")

    def close(self, name: str, value: float, ref: float, tol: float, rel: bool = False) -> float:
        """Check |value - ref| (relative to |ref| when ``rel``) is within ``tol``; NaN fails."""
        err = abs(value - ref) / (abs(ref) if rel else 1.0)
        self.check(name, err <= tol, f"{value!r} vs reference {ref!r}: error {err:.3g} > {tol:g}")
        return err

    def note(self, key: str, value: float) -> None:
        if value > self.health.get(key, float("-inf")):
            self.health[key] = float(value)


# -- verify-all ----------------------------------------------------------------

def verify_all_steps(inp: dict, checks: Checks, job: dict) -> list:
    import clt_spectra
    import clt_spectra.report

    verify, report = clt_spectra.verify, clt_spectra.report
    first_doc: list[str] = []

    def compute():
        reports = verify.verify_all(seed=inp["seed"])
        # the serialization the verify-all subcommand emits
        return reports, report.json_document(report.reports_document(reports))

    def check(out):
        reports, doc = out
        expected = sorted(r.name for r in reports if r.context.get("expected_failure"))
        checks.check("verify-all/negative-control-present", len(expected) >= 1, "no expected-failure report")
        for r in reports:
            marked = bool(r.context.get("expected_failure"))
            checks.check(f"verify-all/{r.name}", bool(r.passed) != marked,
                         f"passed={r.passed}, expected_failure={marked}, lhs={r.lhs!r}, rhs={r.rhs!r}, "
                         f"tol={r.tol!r}, n={r.n}, m={r.m}, context={r.context}")
        summary = json.loads(doc)["summary"]
        checks.check("verify-all/serialized-total", summary["total"] == len(reports), str(summary["total"]))
        checks.check("verify-all/serialized-failed", sorted(summary["failed"]) == expected, str(summary["failed"]))
        if first_doc:
            checks.check("verify-all/bytes-repeat", doc == first_doc[0], "document differs from the first pass")
        else:
            first_doc.append(doc)

    return [(compute, check)]


# -- spectrum-sweep ------------------------------------------------------------

def _poly(nodes, mean: float, std: float, coefs: list[float]):
    t = (nodes - mean) / std
    out = 0.0 * t
    for c in reversed(coefs):
        out = out * t + c
    return out


def closed_theta(family: str, beta: float, n: int, m: int) -> float:
    if family == "gaussian":
        return n / m - 1.0
    return beta * (n - m) / (beta * m + 1.0)


def spectrum_sweep_steps(inp: dict, checks: Checks, job: dict) -> list:
    import numpy as np

    import clt_spectra

    dens, ops = clt_spectra.densities, clt_spectra.operators
    families = [
        ("gaussian", dens.DistributionSpec.gaussian(inp["sigma"])),
        ("gamma", dens.DistributionSpec.gamma(inp["beta"])),
    ]
    steps = []
    for family, spec in families:
        for N, n, m in inp["jobs"]:
            tag = f"{family}-N{N}-({n},{m})"

            def compute(spec=spec, N=N, n=n, m=m):
                cfg = dens.GridConfig(node_count=N)
                kern = ops.build_kernel(dens.build_density(spec, cfg), n, m, cfg)
                sp = ops.spectrum(kern)
                th = ops.theta_from_spectrum(sp)
                tr = ops.trace_T(kern)
                p_m, p_n = kern.summand, kern.total
                adj = []
                for cf, cg in inp["polys"]:
                    f = _poly(p_m.nodes, p_m.mean(), math.sqrt(p_m.variance()), cf)
                    g = _poly(p_n.nodes, p_n.mean(), math.sqrt(p_n.variance()), cg)
                    adj.append((f, g, ops.apply_C(kern, f).values, ops.apply_Cstar(kern, g).values))
                return kern, sp, th, tr, adj

            def check(out, family=family, n=n, m=m, tag=tag):
                kern, sp, th, tr, adj = out
                lam = sp.eigenvalues
                checks.close(f"{tag}/lambda0", float(lam[sp.trivial_indices[0]]), 1.0, 1e-3)
                checks.close(f"{tag}/lambda1-dks", float(lam[sp.trivial_indices[1]]), m / n, 1e-3)
                err = checks.close(f"{tag}/theta-closed-form", th.theta, closed_theta(family, inp["beta"], n, m), 1e-3, rel=True)
                checks.note("operators.theta_rel_err_max", err)
                checks.close(f"{tag}/trace-vs-eigenvalue-sum", tr.value, float(lam.sum()), 1e-8)
                wy = kern.summand.weights() * kern.summand.values
                ws = kern.total.weights() * kern.total.values
                for f, g, cf, cstar_g in adj:
                    a, b = float(ws @ (g * cf)), float(wy @ (f * cstar_g))
                    checks.check(f"{tag}/adjointness", abs(a - b) / max(1.0, abs(a), abs(b)) <= 1e-6, f"{a!r} vs {b!r}")
                phi = sp.eigenfunctions * np.sqrt(wy)
                s_phi = kern.B @ (kern.B.T @ phi.T)
                resid = np.linalg.norm(s_phi - phi.T * lam[: len(phi)], axis=0)
                checks.note("operators.eigen_residual_max", float(resid.max()))

            steps.append((compute, check))
    return steps


# -- exact-oracle --------------------------------------------------------------

def exact_oracle_steps(inp: dict, checks: Checks, job: dict) -> list:
    import numpy as np

    import clt_spectra

    disc, ops, ineq = clt_spectra.discrete, clt_spectra.operators, clt_spectra.inequalities
    c = inp["h_coefs"]

    def h_table(p, k):
        atoms, _ = disc.pmf_power(p, k).arrays()
        h = c[0] * atoms**3 + c[1] * atoms**2 + c[2] * atoms + c[3] * np.sin(atoms)
        return h / np.abs(h).max()  # O(1) scale makes the absolute tolerances meaningful

    steps = []
    for spec in inp["pmfs"]:
        p = disc.DiscretePMF(tuple(spec["atoms"]), tuple(spec["probs"]))
        tag = f"{spec['kind']}-{len(spec['atoms'])}"

        def compute(p=p, es=spec["es"]):
            spectra = {}
            for n, m in inp["pairs"]:
                sp = disc.exact_spectrum(p, n, m)
                spectra[(n, m)] = (sp, ops.theta_from_spectrum(sp))
            decs = [disc.efron_stein(h_table(p, k), p, k) for k in inp["es_k"]] if es else []
            proj = [disc.projection_inequality(h_table(p, k), p, k, l) for k, l in inp["projection"]] if es else []
            return spectra, decs, proj

        def check(out, tag=tag):
            spectra, decs, proj = out
            theta2 = spectra[(2, 1)][1].theta
            for (n, m), (sp, th) in spectra.items():
                checks.close(f"{tag}/({n},{m})/dks", float(sp.eigenvalues[sp.trivial_indices[1]]), m / n, 1e-12)
                checks.check(f"{tag}/({n},{m})/theta-nonneg", th.theta >= -1e-12, repr(th.theta))
                if m >= 2:
                    lower = ineq.chain_lower(max(theta2, 0.0), n, m)
                    checks.check(f"{tag}/({n},{m})/chain-lower", lower <= th.theta + 1e-10, f"{lower!r} > {th.theta!r}")
            for dec in decs:
                checks.close(f"{tag}/efron-stein-k{dec.k}", dec.identity_residual, 0.0, 1e-12)
            for lhs, rhs in proj:
                checks.check(f"{tag}/projection-inequality", lhs >= rhs - 1e-12, f"{lhs!r} < {rhs!r}")

        steps.append((compute, check))
    return steps


# -- cli-cold ------------------------------------------------------------------

def cli_cold_steps(inp: dict, checks: Checks, job: dict) -> list:
    out_dir = Path(job["out_dir"])
    first: dict[tuple, bytes] = {}
    span_files: list[Path] = job.setdefault("span_files", [])
    steps = []
    for argv in inp["argvs"]:
        def compute(argv=argv):
            if job["trace"]:
                span_file = out_dir / f"cli-spans-{len(span_files)}.json"
                span_files.append(span_file)
                cmd = [sys.executable, __file__, "--cli-shim", str(span_file), "--", *argv]
            else:
                cmd = [sys.executable, "-m", "clt_spectra.cli", *argv]
            return subprocess.run(cmd, capture_output=True, timeout=CLI_TIMEOUT_S)

        def check(proc, argv=argv):
            name = f"cli/{argv[0]}"
            checks.check(f"{name}/exit-0", proc.returncode == 0, proc.stderr.decode(errors="replace")[-300:])
            try:
                json.loads(proc.stdout)
                parsed = True
            except ValueError:
                parsed = False
            checks.check(f"{name}/json", parsed, "stdout is not a JSON document")
            key = tuple(argv)
            if key in first:
                checks.check(f"{name}/bytes-repeat", proc.stdout == first[key], "stdout differs for identical argv")
            else:
                first[key] = proc.stdout

        steps.append((compute, check))
    return steps


def cli_shim(span_file: str, argv: list[str]) -> int:
    t0 = perf_counter()
    import clt_spectra.cli as cli
    import clt_spectra.report  # noqa: F401  (imported lazily by the commands; wrapped here)

    tracer = spans.Tracer()
    tracer.add_span("cli.import", t0, perf_counter())
    tracer.install()
    try:
        return cli.run(argv)
    finally:
        sys.stdout.flush()
        tracer.write(span_file)


WORKLOADS = {
    "verify-all": verify_all_steps,
    "spectrum-sweep": spectrum_sweep_steps,
    "exact-oracle": exact_oracle_steps,
    "cli-cold": cli_cold_steps,
}


# -- the run loop --------------------------------------------------------------

def blas_corename() -> str | None:
    """The CPU kernel set OpenBLAS picked at load time (e.g. SkylakeX, Haswell, Zen).

    Results in the last bits, and so some of verify_all's reports, depend on
    it (bench/README.md). None when numpy's OpenBLAS cannot be found.
    """
    import ctypes
    import glob

    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_char_p
            return fn().decode()
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    blas["corename"] = blas_corename()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
    }


def run_job(job: dict) -> dict:
    checks = Checks()
    # steps import what they need (clt_spectra.report for verify-all) before
    # the wrappers go in, and look functions up on their modules at call time
    steps = WORKLOADS[job["workload"]](job["inputs"], checks, job)
    tracer = spans.Tracer() if job["trace"] and job["workload"] != "cli-cold" else None
    if tracer is not None:
        tracer.install()

    pass_s: list[float] = []
    step_s: list[float] = []
    start = perf_counter()
    while len(pass_s) < job["min_passes"] or perf_counter() - start < job["seconds"]:
        total = 0.0
        for compute, check in steps:
            t = perf_counter()
            out = compute()
            dt = perf_counter() - t
            total += dt
            step_s.append(dt)
            check(out)
            del out
        pass_s.append(total)

    if job["workload"] == "cli-cold":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "pass_s": pass_s,
        "step_s": step_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "health": checks.health,
        "env": environment(),
    }
    if job["trace"]:
        result.update(trace_summary(job, tracer))
    return result


def trace_summary(job: dict, tracer: spans.Tracer | None) -> dict:
    """Per-layer self times and sizes; cli-cold merges the span files of its invocations."""
    if tracer is not None:
        tracer.uninstall()
        tracer.write(str(Path(job["out_dir"]) / f"spans-{job['workload']}.json"))
        return {"self_times": spans.self_times(tracer.spans), "sizes": tracer.sizes}
    invocations, merged, sizes = [], [], {}
    for path in job.get("span_files", []):
        data = json.loads(path.read_text())
        path.unlink()
        invocations.append(data)
        # span ids are per process: renumber so parents stay within their invocation
        base = len(merged)
        merged += [{**s, "id": s["id"] + base, "parent": None if s["parent"] is None else s["parent"] + base}
                   for s in data["spans"]]
        for key, value in data["sizes"].items():
            sizes[key] = max(value, sizes.get(key, value))
    (Path(job["out_dir"]) / "spans-cli-cold.json").write_text(json.dumps(invocations))
    return {"self_times": spans.self_times(merged), "sizes": sizes}


def main() -> int:
    if sys.argv[1:2] == ["--cli-shim"]:
        return cli_shim(sys.argv[2], sys.argv[4:])
    job = json.load(sys.stdin)
    result = run_job(job)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

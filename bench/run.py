"""The clt_spectra benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout that holds ``src/clt_spectra``. The seed
makes the workload's inputs; the program only ever sees those inputs. Each
workload runs in a fresh interpreter (bench/workloads.py) with BLAS/OpenMP
threads pinned in its environment before the interpreter starts, and every
output is checked against a reference. The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; with ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones. A
fuller record (environment, pass times, CLI start-up percentiles, check
failures) goes to .bench_out/ in the checkout. See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER = Path(__file__).resolve().parent / "workloads.py"

WORKLOADS = ("verify-all", "spectrum-sweep", "exact-oracle", "cli-cold")
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]
SETUP_MODULE = {"cli-cold": "clt_spectra.cli"}  # the rest import the package
# setup_s is the median of cold imports, each in a fresh interpreter; some run
# before the workload process and some after it, so that one slow spell of a
# shared host does not decide the figure
SETUP_PROBES_BEFORE, SETUP_PROBES_AFTER = 3, 2
# cli-cold needs a second pass to compare the bytes of identical argv
MIN_PASSES = {"cli-cold": 2}
# a child still running after HANG_FACTOR * (seconds + 30) seconds is taken as
# hung; a slow but finishing program is measured, not cut off
HANG_FACTOR = 20

# BLAS threads: the CPUs this process may use, at most 2, for every workload.
# The package does not cap its threads (CLT_SPECTRA_THREADS has no effect), so
# users run the OpenBLAS default, one thread per CPU; the cap of 2 keeps
# figures from bigger machines comparable with a 2-core baseline.
BLAS_THREADS_MAX = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# verify-all is the CI gate as it is run: the verify-all command at its default
# seed. The benchmark seed is not passed on. At about one seed in five,
# verify_all fails its own chi2-closed-vs-quadrature report because the
# default window of gauss_chi2_quad (width=10) cuts off the tail of f^2/g;
# that defect is in the package and is left to a fix there (bench/README.md).
VERIFY_SEED = 42
SWEEP_JOBS = [(2048, 2, 1), (1024, 3, 2), (1024, 4, 3)]
ORACLE_PAIRS = [(2, 1), (3, 2), (4, 3), (5, 4)]
# atom counts are fixed so every seed does the same amount of work; the seed
# draws positions and weights. efron_stein refuses d**k above 1e7, so at
# k = 5 only pmfs of at most 25 atoms get the decomposition.
LATTICE_ATOMS = (12, 20, 30)
NONLATTICE_ATOMS = (8, 10, 12)
ES_MAX_ATOMS = 25


class BenchError(Exception):
    """The benchmark cannot run here or refuses its inputs."""


# -- inputs ----------------------------------------------------------------------

def _pmf(rng: random.Random, atoms: list[float], kind: str) -> dict:
    weights = [rng.uniform(0.2, 1.0) for _ in atoms]
    total = sum(weights)
    return {"kind": kind, "atoms": atoms, "probs": [w / total for w in weights],
            "es": len(atoms) <= ES_MAX_ATOMS}


def make_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}/{seed}")
    if workload == "verify-all":
        return {"seed": VERIFY_SEED}
    if workload == "spectrum-sweep":
        return {
            "sigma": rng.uniform(0.5, 2.0),
            "beta": rng.uniform(3.0, 8.0),
            "jobs": SWEEP_JOBS,
            "polys": [[[rng.gauss(0, 1) for _ in range(4)] for _ in range(2)] for _ in range(3)],
        }
    if workload == "exact-oracle":
        pmfs = []
        for d in LATTICE_ATOMS:
            # integer atoms over a fixed span: sums collide, the spectrum is generic
            span = d + d // 2
            inner = sorted(rng.sample(range(1, span), d - 2))
            pmfs.append(_pmf(rng, [0.0] + [float(a) for a in inner] + [float(span)], "lattice"))
        for d in NONLATTICE_ATOMS:
            # generic reals: no two sums collide, m/n is a degenerate cluster
            pmfs.append(_pmf(rng, sorted(rng.uniform(0.0, 10.0) for _ in range(d)), "nonlattice"))
        return {"pmfs": pmfs, "pairs": ORACLE_PAIRS, "es_k": [3, 4, 5], "projection": [[4, 2], [5, 3]],
                "h_coefs": [rng.gauss(0, 1) for _ in range(4)]}
    if workload == "cli-cold":
        atoms = sorted(rng.sample(range(10), 6))
        spec = "discrete:" + ",".join(f"{a}={rng.uniform(0.1, 1.0):.4f}" for a in atoms)
        return {"argvs": [
            ["closed-form"],
            ["theta", "--exact", "--spec", spec, "--n", "3", "--m", "2"],
            ["efron-stein", "--spec", spec, "--n", "3"],
            ["density", "--nodes", "2048"],
            ["spectrum", "--nodes", "512"],
        ]}
    raise BenchError(f"unknown workload {workload!r}")


# -- memory guard for the dense spectrum path -------------------------------------

def dense_bytes(N: int, n: int, m: int) -> int:
    """Peak bytes of build_kernel + spectrum for a base grid of N nodes.

    The y-grid has m(N-1)+1 nodes and the s-grid n(N-1)+1. Building the
    kernel holds about 4.2 float64-sized (ny, ns) arrays at once (index,
    mask, gather, table); the eigensolve holds table and B plus about six
    (ny, ny) arrays (Gram matrix, its transpose sum, eigenvectors, LAPACK
    workspace). Calibrated against peak RSS at (2048, 2, 1) and (1024, 4, 3).
    """
    ny, ns = m * (N - 1) + 1, n * (N - 1) + 1
    return int(8 * max(4.2 * ny * ns, 2 * ny * ns + 6 * ny * ny))


def available_bytes() -> int:
    avail = None
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                avail = int(line.split()[1]) * 1024
    try:
        limit = Path("/sys/fs/cgroup/memory.max").read_text().strip()
        used = int(Path("/sys/fs/cgroup/memory.current").read_text())
        if limit != "max":
            avail = min(avail or 2**63, int(limit) - used)
    except (OSError, ValueError):
        pass
    if avail is None:
        raise BenchError("cannot determine available memory")
    return avail


def check_memory(jobs, available: int) -> None:
    for N, n, m in jobs:
        need = dense_bytes(N, n, m)
        if need > available:
            raise BenchError(
                f"refusing spectrum-sweep job (N={N}, n={n}, m={m}): dense path needs about "
                f"{need / 2**30:.1f} GiB, {available / 2**30:.1f} GiB available"
            )


# -- child processes ----------------------------------------------------------------

def blas_threads() -> int:
    return max(1, min(BLAS_THREADS_MAX, len(os.sched_getaffinity(0))))


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(blas_threads())
    env.pop("CLT_SPECTRA_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Runner:
    """Starts children one at a time; a hung child is killed with its group."""

    def __init__(self, hang_timeout_s: float) -> None:
        self.hang_timeout_s = hang_timeout_s
        self.env = child_env()

    def run(self, cmd: list[str], stdin: str | None = None) -> tuple[str, str]:
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.env, cwd=ROOT, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(stdin, timeout=self.hang_timeout_s)
        except BaseException as exc:  # hang, SIGTERM or interrupt: end the child's whole group
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"child {cmd[1:3]} still running after {self.hang_timeout_s:.0f} s") from None
            raise
        if proc.returncode != 0:
            raise BenchError(f"child {cmd[1:3]} exited {proc.returncode}: {err.strip()[-2000:]}")
        return out, err

    def import_probe(self, module: str, importtime: bool = False) -> tuple[float, str]:
        code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
        flags = ["-X", "importtime"] if importtime else []
        out, err = self.run([sys.executable, *flags, "-c", code])
        return float(out.split()[-1]), err

    def worker(self, job: dict) -> dict:
        out, _ = self.run([sys.executable, str(WORKER)], json.dumps(job))
        return json.loads(out.strip().splitlines()[-1])


# -- statistics --------------------------------------------------------------------

def tail(samples: list[float]) -> float | None:
    """The highest percentile with at least ten samples beyond it; None below 11 samples."""
    s = sorted(samples)
    return s[len(s) - 11] if len(s) >= 11 else None


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
        if m:
            out[m.group(2)] = int(m.group(1)) * 1e-6
    return out


# -- the run -----------------------------------------------------------------------

def end_to_end(runner: Runner, workload: str, job: dict) -> tuple[dict, dict, dict]:
    module = SETUP_MODULE.get(workload, "clt_spectra")
    setup = [runner.import_probe(module)[0] for _ in range(SETUP_PROBES_BEFORE)]
    res = runner.worker(job)
    setup += [runner.import_probe(module)[0] for _ in range(SETUP_PROBES_AFTER)]
    values = {"setup_s": statistics.median(setup), "wall_s": statistics.median(res["pass_s"]),
              "peak_rss_mb": res["peak_rss_mb"]}
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    detail = {"setup_samples_s": setup, "pass_s": res["pass_s"]}
    if workload == "cli-cold":
        calls, argvs = res["step_s"], job["inputs"]["argvs"]
        detail["cli_start_s"] = {"p50": statistics.median(calls), "tail": tail(calls), "samples": len(calls),
                                 "by_command": {a[0]: calls[i::len(argvs)] for i, a in enumerate(argvs)}}
    return metrics, detail, res


def per_layer(runner: Runner, workload: str, job: dict) -> tuple[dict, dict, list[dict]]:
    base = runner.worker({**job, "trace": False})
    traced = runner.worker({**job, "trace": True})
    probe_s, importtime = runner.import_probe("clt_spectra.cli", importtime=True)
    cumulative = parse_importtime(importtime)

    values: dict[str, float] = {}
    self_times = traced["self_times"]
    for name in spans.span_names():
        calls, total = self_times.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = total
    sizes = {**traced["sizes"], **traced["health"]}
    values["cli.import_s"] = probe_s
    for module in spans.IMPORT_MODULES:
        values[spans.import_metric_name(module)] = cumulative.get(module, 0.0)
    values["trace.overhead_s"] = statistics.median(traced["pass_s"]) - statistics.median(base["pass_s"])
    metrics = {}
    for name, unit in spans.per_layer_metrics():
        metrics[name] = (values[name] if name in values else sizes.get(name, 0.0), unit)
    top = sorted(self_times.items(), key=lambda kv: -kv[1][1])[:8]
    detail = {"untraced_pass_s": base["pass_s"], "traced_pass_s": traced["pass_s"],
              "top_self_s": {name: round(t, 4) for name, (_, t) in top}}
    return metrics, detail, [base, traced]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if not (SRC / "clt_spectra" / "__init__.py").is_file():
            raise BenchError(f"no clt_spectra package under {SRC}; run inside a checkout of the repository")
        inputs = make_inputs(args.workload, args.seed)
        if args.workload == "spectrum-sweep":
            check_memory(inputs["jobs"], available_bytes())
        OUT.mkdir(exist_ok=True)
        job = {"workload": args.workload, "inputs": inputs, "seconds": args.seconds,
               "min_passes": MIN_PASSES.get(args.workload, 1), "trace": False, "out_dir": str(OUT)}
        runner = Runner(HANG_FACTOR * (args.seconds + 30))
        if args.trace:
            metrics, detail, results = per_layer(runner, args.workload, job)
        else:
            metrics, detail, res = end_to_end(runner, args.workload, job)
            results = [res]
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    metric_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "blas_threads_pinned": blas_threads(),
        "determinism_scope": "output bytes are compared only between repeated identical calls at this one "
                             "pinned BLAS thread count; differences across thread counts are not measured",
        "env": results[-1]["env"],
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted, "failures": failures,
        "metrics": metric_json, "detail": detail,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if "cli_start_s" in detail:
        c = detail["cli_start_s"]
        tail_text = f"{c['tail']:.6g} s" if c["tail"] is not None else "n/a (needs at least 11 samples)"
        print(f"cli_start_s.p50 {c['p50']:.6g} s; cli_start_s.tail {tail_text}; samples {c['samples']}")
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted} checks)")
    for f in failures[:10]:
        print(f"  failed: {f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metric_json}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

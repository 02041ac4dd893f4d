"""Report plumbing, the battery entry points, and the CLI contract."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import clt_spectra.cli
import clt_spectra.verify
from clt_spectra import make_report
from clt_spectra.cli import run
from clt_spectra.report import CSV_HEADER, reports_csv, reports_document
from clt_spectra.verify import exact_battery, negative_control, verify_all


def test_exact_battery_green():
    reports = exact_battery()
    assert len(reports) >= 30
    assert all(r.passed for r in reports)


def test_exact_battery_holds_the_binomial_closed_forms(monkeypatch):
    """Bernoulli(1/2) at (12, 8) and (40, 24): the exact head is meixner_lambdas(-1, n, m, 8) within 1e-14 and theta is
    (n - m)/(m - 1) within 1e-12 relative; a theta biased by 1e-10 fails both theta reports."""
    names = [f"exact-binomial-{kind}-({n},{m})" for n, m in ((12, 8), (40, 24)) for kind in ("head", "theta")]
    reports = {r.name: r for r in exact_battery()}
    for name in names:
        assert reports[name].passed and reports[name].tol == (1e-14 if "head" in name else 1e-12)
    real = clt_spectra.verify.theta_from_spectrum

    def biased(sp):
        th = real(sp)
        return replace(th, theta=th.theta * (1 + 1e-10))

    monkeypatch.setattr(clt_spectra.verify, "theta_from_spectrum", biased)
    failed = {r.name for r in exact_battery() if not r.passed}
    assert failed == {name for name in names if "theta" in name}


def test_negative_control_fails():
    r = negative_control(None)
    assert not r.passed
    assert r.context.get("expected_failure") is True


def test_reports_csv_shape():
    rows = [make_report("demo", 0.0, 1.0, n=2, m=1)]
    text = reports_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "name,n,m,lhs,rhs,slack,pass"
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("demo,2,1,") and lines[1].endswith(",true")


def test_reports_document_rejects_empty():
    with pytest.raises(ValueError):
        reports_document([])


def test_reports_document_lists_skipped_reports():
    """A skip passes, so the summary names it apart from the failures."""
    rows = [
        make_report("fisher-chain-skipped", 0.0, 0.0, context={"reason": "density has a hole at node 7"}),
        make_report("demo", 0.0, 1.0),
        make_report("score-projection-skipped", 0.0, 0.0),
        make_report("forced-violation", 2.0, 1.0),
    ]
    summary = reports_document(rows)["summary"]
    assert summary == {
        "total": 4,
        "passed": 3,
        "failed": ["forced-violation"],
        "skipped": ["fisher-chain-skipped", "score-projection-skipped"],
    }


def test_cli_density_json(capsys):
    assert run(["density", "--spec", "gaussian:sigma=1", "--nodes", "512"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "clt-spectra/1"
    assert abs(doc["variance"] - 1.0) <= 1e-6


def test_cli_determinism(capsys):
    argv = ["theta", "--spec", "gaussian:sigma=1", "--nodes", "512"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_cli_density_round_trip(tmp_path, capsys):
    path = str(tmp_path / "d.dat")
    assert run(["density", "--spec", "gamma:beta=4", "--nodes", "2048", "--output", path]) == 0
    direct = json.loads(capsys.readouterr().out)["jst"]
    assert run(["density", "--spec", f"file:{path}"]) == 0
    reread = json.loads(capsys.readouterr().out)["jst"]
    assert abs(direct - reread) <= 1e-9


def test_cli_theta_inf_sentinel(capsys):
    code = run(["theta", "--spec", "discrete:-1=0.5,1=0.5", "--n", "2", "--exact"])
    captured = capsys.readouterr()
    assert code == 0
    assert "inf" in captured.err
    assert json.loads(captured.out)["theta"] == "inf"


def test_cli_spectrum_warns_on_inf_theta_as_theta_does(capsys):
    """spectrum prints theta's document, so it prints theta's warning too; its CSV carries no theta and no warning."""
    argv = ["--exact", "--spec", "discrete:0=0.5,1=0.5"]
    assert run(["theta", *argv]) == 0
    theta_err = capsys.readouterr().err
    assert run(["spectrum", *argv]) == 0
    captured = capsys.readouterr()
    assert captured.err == theta_err == 'warning: no nontrivial eigenvalue above sentinel; theta reported as "inf"\n'
    assert json.loads(captured.out)["theta"] == "inf"
    assert run(["spectrum", *argv, "--format", "csv"]) == 0
    assert capsys.readouterr().err == ""


def test_cli_names_the_sum_law_that_underflows(capsys):
    """0.5^1100 is below the smallest double: the refusal names the n-fold law, not the valid input."""
    assert run(["theta", "--exact", "--spec", "discrete:0=0.5,1=0.5", "--n", "1100", "--m", "550"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the law of S_1100 underflows: 6 of its 1101 atom probabilities")


def test_cli_theta_single_atom(capsys):
    """A point mass has only the constant mode: no linear mode to classify."""
    assert run(["theta", "--exact", "--spec", "discrete:0=1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["theta"] == "inf"
    assert doc["trivial_indices"] == [0, 0]
    assert doc["diagnostics"]["lin_corr"] == 0.0


def test_cli_theta_exact_degenerate_is_zero(capsys):
    """Atoms 0, 1, 3 never collide pairwise: lambda_2 = m/n exactly and theta is 0, not -4e-16."""
    assert run(["theta", "--exact", "--spec", "discrete:0=0.5,1=0.25,3=0.25"]) == 0
    assert json.loads(capsys.readouterr().out)["theta"] == 0.0


def test_cli_grid_too_large_for_memory_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(clt_spectra.operators, "_available_bytes", lambda: 1 << 20)
    assert run(["theta", "--spec", "gaussian:sigma=1", "--nodes", "512"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "too large for memory" in err


def test_cli_spectrum_csv(capsys):
    assert run(["spectrum", "--spec", "discrete:0=0.25,1=0.5,2=0.25", "--exact", "--format", "csv"]) == 0
    head = capsys.readouterr().out.split("\n", 1)[0]
    assert head.startswith("node,")


def test_cli_spectrum_csv_zeroes_cells_below_the_mass_floor(capsys):
    """Eigenfunction cells below the mass floor read 0; roundoff over sqrt(mass) printed up to 4.4e16 there."""
    import numpy as np

    from clt_spectra import DistributionSpec, GridConfig, build_density
    from clt_spectra.operators import EIGENFUNCTION_MASS_FLOOR, build_kernel

    argv = ["spectrum", "--spec", "gaussian:sigma=1", "--nodes", "512", "--format", "csv"]
    assert run(argv) == 0
    table = np.array([[float(x) for x in ln.split(",")] for ln in capsys.readouterr().out.splitlines()[1:]])
    d = build_density(DistributionSpec.gaussian(1.0), GridConfig(node_count=512), n_hint=2)
    p_m = build_kernel(d, 2, 1).summand
    assert np.array_equal(table[:, 0], p_m.nodes)
    mass = p_m.weights() * p_m.values
    below = mass < EIGENFUNCTION_MASS_FLOOR * mass.max()
    assert below.any() and (mass[below] > 0).any()
    cells = table[:, 1:]
    assert np.array_equal(cells == 0, np.repeat(below[:, None], cells.shape[1], axis=1))
    assert np.abs(cells).max() < 1e8


GRID_ARGS = ["--spec", "gamma:beta=4", "--nodes", "512", "--n", "3", "--m", "2"]
EXACT_ARGS = ["--exact", "--spec", "discrete:0=0.2,1=0.3,2.5=0.1,4=0.4", "--n", "4", "--m", "3"]


@pytest.mark.parametrize("args", [GRID_ARGS, EXACT_ARGS], ids=["grid", "exact"])
def test_cli_theta_and_spectrum_diagnostics_are_the_library_theta(args, capsys):
    """`theta` and `spectrum` print the diagnostics of `theta()` / `exact_theta()`, health signals included."""
    from clt_spectra import DiscretePMF, DistributionSpec, GridConfig, build_density, exact_theta, parse_spec, theta
    from clt_spectra.report import sanitize

    if "--exact" in args:
        th = exact_theta(DiscretePMF.from_spec(parse_spec(args[2])), 4, 3)
        health = {"support_size"}
    else:
        th = theta(build_density(DistributionSpec.gamma(4.0), GridConfig(node_count=512), n_hint=3), 3, 2)
        health = {"row_sum_err", "masked_mass", "truncated_mass", "clamped_mass", "warnings"}
    assert health <= th.diagnostics.keys()
    for cmd in ("theta", "spectrum"):
        assert run([cmd, *args]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["diagnostics"] == sanitize(th.diagnostics)
        assert doc["theta"] == th.theta


def test_sanitize_gives_numpy_scalars_their_json_types():
    """numpy booleans, integers and floats print as the JSON literals of their Python values: np.bool_(True) is true,
    not the string "True"."""
    from clt_spectra.report import json_document, sanitize

    assert sanitize(np.bool_(True)) is True and sanitize(np.bool_(False)) is False
    assert sanitize({"k": np.int64(3), "x": np.float64(0.5), "flags": (np.bool_(False),)}) == {
        "k": 3,
        "x": 0.5,
        "flags": [False],
    }
    assert '"flag": true' in json_document({"flag": np.bool_(True)})


# the thread-pool variables numpy's BLAS and OpenMP read when they load
POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _threads(k):
    return {"OPENBLAS_NUM_THREADS": str(k), "OMP_NUM_THREADS": str(k)}


def _fresh_env(**env):
    """The test environment with no pool variable set, the package on PYTHONPATH, and ``env`` on top."""
    src = str(Path(clt_spectra.verify.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k not in POOL_VARS}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(base, **env)


def _cli_stdout(argv, **env):
    """Stdout of the CLI in a fresh interpreter, with no pool variable set beyond ``env``."""
    cmd = [sys.executable, "-m", "clt_spectra.cli", *argv]
    return subprocess.run(cmd, env=_fresh_env(**env), capture_output=True, check=True).stdout


def test_import_sets_no_thread_pool_variable():
    """The pools are sized by their own variables alone: no package-prefixed alias sets them on import."""
    alias = {f"CLT_SPECTRA_{name}": "1" for name in ("THREADS", "NUM_THREADS")}
    code = f"import os, clt_spectra; print([os.environ.get(v) for v in {POOL_VARS!r}])"
    out = subprocess.run([sys.executable, "-c", code], env=_fresh_env(**alias), capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout.strip() == "[None, None, None, None]"


def test_cli_efron_stein_bytes_do_not_depend_on_threads():
    """The decomposition reduces by elementwise products and sums, never through BLAS."""
    argv = ["efron-stein", "--spec", "discrete:0=0.5,1=0.3,3=0.2", "--n", "5"]
    assert _cli_stdout(argv, **_threads(1)) == _cli_stdout(argv, **_threads(2))


@pytest.mark.parametrize(
    "argv",
    [["spectrum", "--spec", "gaussian:sigma=1", "--nodes", "1024", "--n", "3", "--m", "2"], ["theta", "--nodes", "2048"]],
    ids=["spectrum-gaussian-3-2", "theta-gaussian-2048"],
)
def test_cli_low_rank_bytes_do_not_depend_on_threads(argv):
    """The gaussian solve forms no h x h Gram matrix: its probe rows are direct correlations, not a threaded syrk.

    The spectrum argv printed different bytes at 1 and 2 threads when the probe read a syrk-formed Gram matrix.
    The probe's update gemv, the QR of L^T and the r x r core solve still call BLAS and LAPACK; that their
    thread split leaves the bytes unchanged is what this test observes for the installed BLAS, not a guarantee.
    """
    assert _cli_stdout(argv, **_threads(1)) == _cli_stdout(argv, **_threads(2))


def test_cli_exact_trace(capsys):
    assert run(["trace", "--spec", "discrete:0=0.25,1=0.5,2=0.25", "--exact"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["trace"] - 5.0 / 3.0) <= 1e-12


# the flags each subcommand's handler reads; argparse refuses every other (command, flag) pair
_GRID = ("nodes", "half-width")
_OUT = ("format", "output")
_PIPELINE = ("spec", "n", "m", *_GRID, "exact", "delta", *_OUT)
READS = {
    "density": ("spec", "n", *_GRID, "delta", *_OUT),
    "spectrum": _PIPELINE,
    "theta": _PIPELINE,
    "trace": _PIPELINE,
    "bounds": ("spec", "n", *_GRID, "seed", "n-max", "delta", *_OUT),
    "monotonicity": ("spec", "n", *_GRID, "n-max", "delta", *_OUT),
    "verify-all": ("spec", *_GRID, "seed", "n-max", *_OUT),
    "closed-form": ("spec", "n", *_OUT),
    "efron-stein": ("spec", "n", *_OUT),
}
VALUES = {
    "spec": ["discrete:0=0.25,1=0.5,2=0.25"], "n": ["3"], "m": ["2"], "nodes": ["512"], "half-width": ["10"],
    "exact": [], "format": ["csv"], "output": ["out.txt"], "seed": ["7"], "n-max": ["4"], "delta": ["0.3"],
}
OUTSIDE = [(cmd, flag) for cmd in READS for flag in VALUES if flag not in READS[cmd]]


def test_flag_table_covers_every_pair():
    assert len(OUTSIDE) == 33 and sum(map(len, READS.values())) == 66


@pytest.mark.parametrize(
    "argv, last_err",
    [
        ([cmd, f"--{flag}", *VALUES[flag]], "clt-spectra: error: unrecognized arguments: " + " ".join([f"--{flag}", *VALUES[flag]]))
        for cmd, flag in OUTSIDE
    ]
    + [(["trace", "--exact", "--delta", "0.3"], "error: --delta requires the grid pipeline; drop --exact")],
    ids=[f"{cmd}-{flag}" for cmd, flag in OUTSIDE] + ["trace-exact-delta"],
)
def test_cli_refuses_a_flag_the_command_would_drop(argv, last_err, capsys):
    """A flag the command does not read exits 1 before any work, nothing on stdout: verify-all --n 7 once ran
    its default n_max, bounds --m and efron-stein --exact were dropped without a word, and trace once printed
    the unsmoothed exact trace for --exact --delta."""
    assert run([*argv, "--spec", "discrete:0=0.25,1=0.5,2=0.25"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == last_err


EXACT3 = "discrete:0=0.25,1=0.5,2=0.25"
# a flag the command takes but does not read with the argv's other values
UNREAD = [
    *([cmd, "--exact", "--spec", EXACT3, flag, value]
      for cmd in ("spectrum", "theta", "trace") for flag, value in (("--nodes", "512"), ("--half-width", "10"))),
    *(["bounds", "--spec", EXACT3, flag, value]
      for flag, value in (("--nodes", "512"), ("--half-width", "10"), ("--seed", "7"))),
    ["bounds", "--n", "3"],
]


@pytest.mark.parametrize("argv", UNREAD, ids=[" ".join(argv[i] for i in (0, -2)) for argv in UNREAD])
def test_cli_refuses_a_flag_the_other_values_leave_unread(argv, capsys):
    """theta --exact --nodes 64, bounds on a discrete spec with --seed 3 and bounds --n without --delta printed
    the bytes of the argv without the flag; each now exits 1 before any work, nothing on stdout."""
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"error: {argv[-2]} is not read " + (
        "without --delta" if argv[-2] == "--n" else "with --exact" if "--exact" in argv else "with a discrete spec"
    ) + "; drop it"


def test_cli_unset_flags_take_their_documented_defaults(capsys):
    assert run(["theta"]) == 0
    default = capsys.readouterr().out
    assert run(["theta", "--n", "2", "--nodes", "1024", "--half-width", "12"]) == 0
    assert capsys.readouterr().out == default


# theta and spectrum print one document: cmp-identical on each of these
THETA_ARGVS = [
    ["--spec", "gaussian:sigma=1", "--nodes", "512"],
    ["--spec", "gamma:beta=4", "--n", "3", "--m", "2"],
    ["--spec", "gamma:beta=1", "--n", "3", "--m", "2", "--nodes", "1024"],
    ["--spec", "uniform:a=-1,b=1", "--n", "4", "--m", "3", "--nodes", "256"],
    ["--spec", "mixture:w=0.5,mu=-1,sigma=1;w=0.5,mu=1,sigma=1", "--delta", "0.3"],
    ["--exact", "--spec", EXACT3],
    ["--exact", "--spec", EXACT3, "--n", "3", "--m", "2"],
    ["--exact", "--spec", "discrete:0=0.5,1=0.5"],
]


@pytest.mark.parametrize("argv", THETA_ARGVS, ids=[" ".join(argv) for argv in THETA_ARGVS])
def test_cli_spectrum_and_theta_print_the_same_json(argv, capsys):
    assert run(["theta", *argv]) == 0
    theta_out = capsys.readouterr().out
    assert run(["spectrum", *argv]) == 0
    assert capsys.readouterr().out == theta_out


def test_package_exports_are_the_module_lists():
    import clt_spectra
    from clt_spectra import closed_forms, densities, discrete, inequalities, operators, verify

    modules = (closed_forms, densities, discrete, inequalities, operators, verify)
    assert clt_spectra.__all__ == [name for module in modules for name in module.__all__]
    assert len(set(clt_spectra.__all__)) == len(clt_spectra.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(clt_spectra, name) is getattr(module, name)


@pytest.mark.parametrize("cmd", [*READS, "verify"])
def test_cli_parses_every_flag_the_command_reads(cmd):
    parser = clt_spectra.cli.build_parser()
    required = ["--spec", *VALUES["spec"]] if cmd == "efron-stein" else []
    for flag in READS["verify-all" if cmd == "verify" else cmd]:
        got = getattr(parser.parse_args([cmd, *required, f"--{flag}", *VALUES[flag]]), flag.replace("-", "_"))
        assert got == (True if flag == "exact" else type(got)(VALUES[flag][0]))


def test_score_projection_skip_is_reported(monkeypatch):
    """When the score is undefined the operator battery says so, as the Fisher chain does, instead of dropping the report.

    The projection identity is a lemma for summands with finite Fisher information: a uniform summand, whose
    density jumps at its edges, skips it with the chain's reason (it used to fail with lhs 1.5 against tol 1e-3).
    """
    from clt_spectra import DistributionSpec, GridConfig, build_density
    from clt_spectra.densities import ScoreUndefinedError
    from clt_spectra.operators import build_kernel, spectrum

    def undefined(d):
        raise ScoreUndefinedError("density has a hole at node 7")

    def operator_reports(spec):
        d = build_density(spec, GridConfig(node_count=256), n_hint=2)
        kern = build_kernel(d, 2, 1)
        args = (kern, spec, d, spectrum(kern), np.random.default_rng(0), {"family": spec.family})
        return clt_spectra.verify._operator_reports(*args)

    uniform = {r.name: r for r in operator_reports(DistributionSpec.uniform(-1.0, 1.0))}
    assert "score-projection" not in uniform
    assert "jumps at its support edge" in uniform["score-projection-skipped"].context["reason"]
    names = [r.name for r in operator_reports(DistributionSpec.gaussian(1.0))]
    assert "score-projection" in names and "score-projection-skipped" not in names
    monkeypatch.setattr(clt_spectra.verify, "score", undefined)
    reports = operator_reports(DistributionSpec.gaussian(1.0))
    skipped = [r for r in reports if r.name == "score-projection-skipped"]
    assert "score-projection" not in [r.name for r in reports]
    assert len(skipped) == 1 and skipped[0].passed
    assert skipped[0].context == {"family": "gaussian", "reason": "density has a hole at node 7"}
    assert (skipped[0].n, skipped[0].m) == (2, 1)


def test_cli_closed_form_table(capsys):
    assert run(["closed-form", "--spec", "gamma:beta=2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "family,n,k,value,kind"
    assert any(line.startswith("gamma,2,1,0.5,") for line in lines)


def test_cli_efron_stein(capsys):
    assert run(["efron-stein", "--spec", "discrete:0=0.25,1=0.5,2=0.25", "--n", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["total_second_moment"] - 3.75) <= 1e-12
    assert abs(doc["identity_residual"]) <= 1e-12


def test_cli_error_exit_codes(capsys):
    assert run(["theta", "--spec", "nosuch:x=1"]) == 1
    assert run(["theta", "--frobnicate"]) == 1
    assert run(["efron-stein", "--spec", "gaussian:sigma=1"]) == 1
    capsys.readouterr()


def test_cli_memory_error_exits_1(monkeypatch, capsys):
    def exhausted(cfg):
        raise MemoryError("cannot allocate the dense kernel")

    monkeypatch.setitem(clt_spectra.cli._HANDLERS, "closed-form", exhausted)
    assert run(["closed-form"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "dense kernel" in err


def test_cli_bounds_exit_2_on_violation(monkeypatch, capsys):
    def broken_battery(spec, cfg=None, n_max=3, seed=42):
        return [make_report("forced-violation", 2.0, 1.0)]

    monkeypatch.setattr(clt_spectra.verify, "family_battery", broken_battery)
    code = run(["bounds", "--spec", "gaussian:sigma=1"])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["reports"][0]["pass"] is False


def test_cli_verify_alias(monkeypatch, capsys):
    seen = {}

    def tiny_verify_all(spec=None, cfg=None, n_max=3, seed=42):
        seen["called"] = True
        return [make_report("stub", 0.0, 1.0)]

    monkeypatch.setattr(clt_spectra.verify, "verify_all", tiny_verify_all)
    assert run(["verify", "--format", "csv"]) == 0
    assert seen.get("called") is True
    assert capsys.readouterr().out.startswith(CSV_HEADER)


def test_cli_expected_failure_that_passes_trips_exit_2(monkeypatch, capsys):
    def suspicious(spec=None, cfg=None, n_max=3, seed=42):
        return [make_report("control", 0.0, 1.0, context={"expected_failure": True})]

    monkeypatch.setattr(clt_spectra.verify, "verify_all", suspicious)
    assert run(["verify-all"]) == 2
    capsys.readouterr()


def test_import_loads_no_scipy():
    src = str(Path(clt_spectra.verify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, clt_spectra, clt_spectra.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_grid_and_exact_spectra_load_no_scipy():
    """The eigensolve is numpy-only: grid and --exact spectrum/theta runs import no scipy module on any of its three paths."""
    argvs = [
        [cmd, *spec]
        for cmd in ("spectrum", "theta")
        for spec in (
            ["--spec", "gaussian:sigma=1", "--nodes", "512"],
            ["--spec", "uniform:a=-1,b=1", "--nodes", "512"],
            ["--spec", "gamma:beta=4", "--nodes", "1024"],  # 512 nodes fit too few Krylov blocks (KRYLOV_MIN_BLOCKS)
            ["--exact", "--spec", "discrete:0=0.2,1=0.3,2.5=0.1,4=0.4", "--n", "4", "--m", "3"],
        )
    ]
    src = str(Path(clt_spectra.verify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import contextlib, io, json, sys\n"
        "from clt_spectra.cli import run\n"
        "solvers = []\n"
        f"for argv in {argvs!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert run(argv) == 0, argv\n"
        "    solvers.append(json.loads(out.getvalue())['diagnostics']['solver'])\n"
        "print(json.dumps([solvers, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    solvers, scipy_modules = json.loads(out.stdout)
    assert solvers == ["low-rank", "dense", "krylov", "dense"] * 2
    assert scipy_modules == []


def test_every_command_prints_the_same_bytes_with_scipy_blocked():
    """scipy is a test dependency only: with it blocked, each command prints the same bytes and exit code.

    ``sys.modules["scipy"] = None`` makes any scipy import raise ImportError.
    The unblocked run must not have imported scipy either, verify-all
    included.
    """
    argvs = [
        ["verify-all"],
        ["bounds", "--spec", "gamma:beta=4"],
        ["density", "--spec", "gamma:beta=2.5"],
        ["theta", "--spec", "gamma:beta=1", "--n", "3", "--m", "2"],
        ["closed-form"],
    ]
    src = str(Path(clt_spectra.verify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import contextlib, io, json, sys\n"
        "if sys.argv[1] == 'blocked':\n"
        "    sys.modules['scipy'] = None\n"
        "from clt_spectra.cli import run\n"
        "results = []\n"
        f"for argv in {argvs!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = run(argv)\n"
        "    results.append([code, out.getvalue()])\n"
        "print(json.dumps([results, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    runs = {}
    for mode in ("blocked", "normal"):
        out = subprocess.run([sys.executable, "-c", code, mode], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        runs[mode] = json.loads(out.stdout)
    results, scipy_modules = runs["normal"]
    assert scipy_modules == []
    assert all(code == 0 for code, _ in results)
    for argv, got, want in zip(argvs, runs["blocked"][0], results):
        assert got == want, argv


def test_cli_trace_fine_grid_runs_in_linear_memory():
    """The trace needs no N^2 kernel: 16384 nodes (a dense B of about 4 GiB) run in under 200 MB.

    The child reads its peak RSS from VmHWM: Linux carries ru_maxrss over
    fork and exec, so there it would include this test process's own peak.
    """
    if not Path("/proc/self/status").is_file():
        pytest.skip("peak RSS is read from /proc/self/status")
    src = str(Path(clt_spectra.verify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "from clt_spectra.cli import run\n"
        "rc = run(['trace', '--spec', 'gaussian:sigma=1', '--nodes', '16384'])\n"
        "hwm = [ln for ln in open('/proc/self/status') if ln.startswith('VmHWM:')]\n"
        "print(hwm[0].split()[1], file=sys.stderr)\n"
        "sys.exit(rc)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert abs(json.loads(out.stdout)["trace"] - 2.0) <= 1e-3
    peak_kib = int(out.stderr.strip().splitlines()[-1])
    assert peak_kib < 200 * 1024


def test_verify_all_includes_control():
    reports = verify_all(n_max=2)
    names = [r.name for r in reports]
    assert "negative-control-inflated-theta" in names
    hard = [r for r in reports if not r.passed and not r.context.get("expected_failure")]
    assert hard == []


def test_a_one_percent_bias_in_theta_fails_the_battery(monkeypatch):
    """Every grid theta scaled by 1.01 fails a report besides the negative control: theta-vs-closed holds each
    gaussian and gamma theta to its closed form (n - m)/(m + v2) within 1e-3 relative."""
    real = clt_spectra.verify.theta_from_spectrum

    def biased(sp):
        th = real(sp)
        return replace(th, theta=1.01 * th.theta)

    monkeypatch.setattr(clt_spectra.verify, "theta_from_spectrum", biased)
    failed = [r.name for r in verify_all() if not r.passed and not r.context.get("expected_failure")]
    assert "theta-vs-closed-(2,1)" in failed


def _numpy_blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return ""


def test_verify_all_passes_on_the_native_and_the_haswell_kernel():
    """Pass/fail does not depend on the BLAS kernel: verify-all exits 0 with nothing skipped under numpy's own
    OpenBLAS kernel and under the forced Haswell one."""
    if "openblas" not in _numpy_blas_name().lower():
        pytest.skip("OPENBLAS_CORETYPE selects a kernel only in OpenBLAS")
    native = _fresh_env()
    native.pop("OPENBLAS_CORETYPE", None)
    for env in (native, _fresh_env(OPENBLAS_CORETYPE="Haswell")):
        cmd = [sys.executable, "-m", "clt_spectra.cli", "verify-all", "--seed", "42"]
        out = subprocess.run(cmd, env=env, capture_output=True, text=True)
        assert out.returncode == 0, (env.get("OPENBLAS_CORETYPE"), out.stderr)
        summary = json.loads(out.stdout)["summary"]
        assert summary["skipped"] == [] and summary["failed"] == ["negative-control-inflated-theta"]


def _help_text(cmd, capsys):
    assert run([cmd, "--help"]) == 0
    return " ".join(capsys.readouterr().out.split())


def test_cli_help_states_the_grid_unit_and_the_use_of_n_per_command(capsys):
    """bounds and verify-all build their grids at n_hint 1, so their half width is in sigma; density and
    monotonicity read --n only to size the window. Every command's help once said sigma*sqrt(n) and "number of
    summands" alike."""
    bounds = _help_text("bounds", capsys)
    assert "--half-width HALF_WIDTH grid half width in units of sigma (default 12)" in bounds
    assert "--n N number of summands of the smoothed sum, read only with --delta (default 2)" in bounds
    assert "sqrt(n)" not in bounds
    assert "sqrt(n)" not in _help_text("verify-all", capsys)
    mono = _help_text("monotonicity", capsys)
    assert "--n N sizes the grid window, whose half width is in units of sigma*sqrt(n) (default 2)" in mono
    assert "number of summands" not in mono
    assert "--n N number of summands (default 2)" in _help_text("theta", capsys)


def _cli_document(argv, capsys):
    """The JSON a documented argv prints; it exits 0 on the grid as on the exact pipeline, on any BLAS kernel."""
    code = run(argv)
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    if "reports" in doc and argv[0] != "verify-all":
        assert doc["summary"]["failed"] == []
    return doc


def _names(doc):
    return [r["name"] for r in doc["reports"]]


def test_cli_monotonicity_reports_every_step(capsys):
    doc = _cli_document(["monotonicity", "--spec", "gamma:beta=4", "--n-max", "4"], capsys)
    assert _names(doc) == [f"monotone-product-step-{n}-{n + 1}" for n in (1, 2, 3)]
    assert [n for n, _ in doc["sequence"]] == [1, 2, 3, 4]


def test_cli_bounds_delta_adds_the_subgauss_ceiling(capsys):
    doc = _cli_document(["bounds", "--spec", "gamma:beta=4", "--delta", "1.5", "--n", "6"], capsys)
    last = doc["reports"][-1]
    assert _names(doc).count("subgauss-chi2-ceiling") == 1
    assert last["name"] == "subgauss-chi2-ceiling" and last["n"] == 6 and last["pass"]
    assert set(last["context"]) == {"value", "exp_factor", "t", "divergent", "method"}
    assert last["context"]["t"] == 1.0 / (5 * 1.5 * 1.5)
    # gamma tails are exponential, so E exp(t (X - X')^2) diverges at every t > 0, and no window-set number is printed
    assert last["context"]["divergent"] is True
    assert last["context"]["value"] == last["context"]["exp_factor"] == "inf"


def test_cli_efron_stein_requires_a_spec(capsys):
    """No default law is discrete, so efron-stein declares --spec required: its help shows the flag without brackets,
    and a run without it exits 1 naming --spec."""
    assert run(["efron-stein", "--help"]) == 0
    usage = " ".join(capsys.readouterr().out.split("\n\n")[0].split())
    assert " --spec SPEC " in usage and "[--spec SPEC]" not in usage
    assert run(["efron-stein"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--spec" in captured.err.splitlines()[-1]


def test_cli_bounds_on_a_discrete_spec_runs_the_exact_battery(capsys):
    doc = _cli_document(["bounds", "--spec", "discrete:0=0.2,1=0.5,3=0.3"], capsys)
    assert _names(doc) == [
        "exact-dks-(2,1)", "exact-dks-(3,1)", "exact-dks-(3,2)", "exact-theta-nonneg", "theta-sigma-upper",
        "exact-chain-(3,2)",
    ]
    doc = _cli_document(["bounds", "--spec", "discrete:0=0.5,1=0.5"], capsys)
    assert _names(doc) == ["exact-two-atom-sentinel"]
    assert doc["reports"][0]["context"]["theta"] == "inf"


def test_cli_bounds_n_max_4_adds_the_pairs_4_1_and_4_3(capsys):
    names = _names(_cli_document(["bounds", "--n-max", "4"], capsys))
    for tag in ("(4,1)", "(4,3)"):
        pair = [f"{kind}-{tag}" for kind in (
            "lambda0-unit", "dks-lambda1", "lambda2-below-dks", "theta-nonneg", "eigenfunction-orthonormality",
            "eigenvalues-vs-closed",
        )]
        start = names.index(pair[0])
        assert names[start : start + len(pair)] == pair
    assert names.index("theta-ratio-chain-2-3") + 1 == names.index("theta-ratio-chain-3-4")


# the family battery of the uniform law: no Meixner closed form, and a jump at the support edge skips the score
# projection and the Fisher chain
UNIFORM_NAMES = [
    *(f"{kind}-(2,1)" for kind in (
        "lambda0-unit", "dks-lambda1", "lambda2-below-dks", "theta-nonneg", "eigenfunction-orthonormality")),
    "adjointness-random-polys", "apply-c-preserves-constants", "apply-c-constants-weighted-l2",
    "apply-cstar-linear-mode", "score-projection-skipped", "dks-eigenvalue-multiplicity", "trace-floor",
    "trace-vs-eigenvalue-sum",
    *(f"{kind}-{tag}" for tag in ("(3,1)", "(3,2)") for kind in (
        "lambda0-unit", "dks-lambda1", "lambda2-below-dks", "theta-nonneg", "eigenfunction-orthonormality")),
    "theta-ratio-chain-2-3", "theta-sigma-upper", "theta-sigma-upper", "theta-moment-upper-k2",
    "theta-moment-k2-equals-sigma-bound", "theta-moment-upper-k3", "theta-moment-k3-route-agreement",
    "theta-moment-k3-projection-identity", "fisher-chain-skipped",
]


def test_cli_bounds_uniform_has_no_closed_form_reports(capsys):
    doc = _cli_document(["bounds", "--spec", "uniform:a=-1,b=1"], capsys)
    assert _names(doc) == UNIFORM_NAMES
    assert doc["summary"]["skipped"] == ["score-projection-skipped", "fisher-chain-skipped"]


def test_cli_verify_all_spec_runs_one_family_and_the_shared_suites(capsys):
    doc = _cli_document(["verify-all", "--spec", "uniform:a=-1,b=1"], capsys)
    names = _names(doc)
    assert names[: len(UNIFORM_NAMES)] == UNIFORM_NAMES
    assert names[len(UNIFORM_NAMES)] == "exact-gram-uniform3"
    assert names[-1] == "negative-control-inflated-theta"
    assert "negative-control-inflated-theta" in doc["summary"]["failed"]
    assert {r["context"].get("family") for r in doc["reports"]} == {"uniform", None}


def test_cli_density_of_a_law_without_fisher_information_prints_null_jst(capsys):
    assert run(["density", "--spec", "uniform:a=-1,b=1"]) == 0
    out = capsys.readouterr().out
    assert '"jst": null' in out and json.loads(out)["jst"] is None


@pytest.mark.parametrize(
    "argv",
    [["theta"], ["trace"], ["density"], ["efron-stein", "--spec", EXACT3, "--n", "3"]],
    ids=["theta", "trace", "density", "efron-stein"],
)
def test_cli_csv_form_prints_the_json_numbers(argv, capsys):
    assert run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert run([*argv, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    if argv[0] == "theta":
        assert lines == ["n,m,theta,lambda2", f"2,1,{doc['theta']!r},{doc['lambda2']!r}"]
    elif argv[0] == "trace":
        assert lines == ["n,m,trace,chi2,lower_bound_only", f"2,1,{doc['trace']!r},{doc['chi2']!r},false"]
    elif argv[0] == "density":
        table = [[float(v) for v in line.split(" ")] for line in lines]
        assert len(table) == doc["node_count"] and all(len(row) == 2 for row in table)
        assert abs((table[1][0] - table[0][0]) - doc["step"]) <= 1e-12
    else:
        comps = doc["components"]
        assert lines == ["r,choose,second_moment"] + [
            f"{r},{c['choose']},{c['second_moment']!r}" for r, c in comps.items()
        ]

"""Command-line front end.

Subcommands cover the grid pipeline (density, spectrum, theta, trace), the
bound batteries (bounds, monotonicity, verify-all), the closed-form tables and
the exact decomposition dump. Exit code 0 means success with every asserted
bound passing, 2 means the computation succeeded but a bound failed, 1 is a
usage or computation error.
"""
from __future__ import annotations

import argparse
import math
import sys

from .densities import DistributionSpec, GridConfig, parse_spec

# Each handler imports the modules it calls, so start-up loads only what run
# needs and a command compiles no module it does not run (report loads json).


# each flag, declared once; _READS gives each subcommand its own. The flags in
# _UNSET_DEFAULTS parse to None, so run can tell one given from its default.
_FLAGS = {
    "--spec": dict(default=None, help="distribution, e.g. gaussian:sigma=1, gamma:beta=4, "
                   "uniform:a=-1,b=1, discrete:0=0.5,1=0.5, file:PATH"),
    "--n": dict(type=int, default=None, help="number of summands (default 2)"),
    "--m": dict(type=int, default=1, help="conditioning block size (default 1)"),
    "--nodes": dict(type=int, default=None, help="grid nodes (default 1024)"),
    "--half-width": dict(type=float, default=None, help="grid half width in units of sigma*sqrt(n) (default 12)"),
    "--exact": dict(action="store_true", help="use the exact finite-support pipeline"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--output": dict(default=None, help="write the report (or density file) here"),
    "--seed": dict(type=int, default=None, help="random seed (default 42)"),
    "--n-max": dict(type=int, default=3, help="largest n for chain/monotonicity sweeps (default 3)"),
    "--delta": dict(type=float, default=None, help="gaussian regularization width applied before grid work"),
}
_UNSET_DEFAULTS = {"n": 2, "nodes": 1024, "half_width": 12.0, "seed": 42}
# the help of a flag that a command reads otherwise than _FLAGS says
_WINDOW = "sizes the grid window, whose half width is in units of sigma*sqrt(n) (default 2)"
_SIGMA = "grid half width in units of sigma (default 12)"
_HELP = {
    ("density", "--n"): _WINDOW, ("monotonicity", "--n"): _WINDOW,
    ("bounds", "--half-width"): _SIGMA, ("verify-all", "--half-width"): _SIGMA,
    ("bounds", "--n"): "number of summands of the smoothed sum, read only with --delta (default 2)",
    ("bounds", "--delta"): "smoothing width of the added sub-gaussian chi-square ceiling (the battery is unsmoothed)",
    ("closed-form", "--n"): "tabulate n = 2 up to max(4, N) (default 2)",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clt-spectra",
        description="Spectra of conditional-expectation operators for i.i.d. sums, "
        "Fisher-information functionals, and the bound battery around them.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _HANDLERS:
        # no abbreviations: a flag the command does not take must not be read as the prefix of one it does
        p = sub.add_parser(name, aliases=["verify"] if name == "verify-all" else [], help=f"{name} subcommand",
                           allow_abbrev=False)
        p.set_defaults(subcommand=name)
        for flag in _READS[name]:
            kw = {**_FLAGS[flag], "help": _HELP.get((name, flag), _FLAGS[flag].get("help"))}
            if (name, flag) == ("efron-stein", "--spec"):
                kw["required"] = True  # the default law, gaussian:sigma=1, is not discrete
            p.add_argument(flag, **kw)
    return parser


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _base_density(args):
    from .densities import build_density, gaussian_regularize

    d = build_density(args.spec, args.grid, n_hint=max(args.n, 1))
    if args.delta is not None:
        d = gaussian_regularize(d, args.delta)
    return d


def _exact_pmf(args):
    from .discrete import DiscretePMF

    if args.spec.family != "discrete":
        raise ValueError("--exact requires a discrete spec")
    return DiscretePMF.from_spec(args.spec)


def _exit_code_for(reports) -> int:
    hard_fail = any(not r.passed and not r.context.get("expected_failure") for r in reports)
    control_slipped = any(r.passed and r.context.get("expected_failure") for r in reports)
    return 2 if (hard_fail or control_slipped) else 0


def emit_table(reports, fmt: str) -> str:
    from .report import json_document, reports_csv, reports_document

    if fmt == "csv":
        return reports_csv(reports)
    return json_document(reports_document(reports))


def _cmd_density(args) -> int:
    from .densities import jst, write_density_file
    from .report import json_document, sanitize

    d = _base_density(args)
    if args.output is not None:
        write_density_file(args.output, d)
    jst_value = None
    try:
        jst_value = jst(d).value
    except ValueError:
        pass
    if args.format == "csv":
        lines = [f"{x:.17g} {v:.17g}" for x, v in zip(d.nodes, d.values)]
        sys.stdout.write("\n".join(lines) + "\n")
        return 0
    payload = {
        "command": "density",
        "family": args.spec.family,
        "params": sanitize(args.spec.params),
        "node_count": len(d.nodes),
        "step": d.step,
        "mean": d.mean(),
        "variance": d.variance(),
        "mass": float(d.weights() @ d.values),
        "truncated_mass": d.truncated_mass,
        "clamped_mass": d.clamped_mass,
        "warnings": list(d.warnings),
        "jst": jst_value,
        "output": args.output,
    }
    sys.stdout.write(json_document(payload))
    return 0


def _spectrum(args):
    """The spectrum ``theta`` and ``spectrum`` print: only its head is read, so a grid kernel takes the top-K solve."""
    if not args.exact:
        from .operators import build_kernel, spectrum

        return spectrum(build_kernel(_base_density(args), args.n, args.m), full=False)
    from .discrete import exact_spectrum

    return exact_spectrum(_exact_pmf(args), args.n, args.m)


def _theta(sp):
    """theta of the spectrum, with a warning on stderr where it is reported as "inf"."""
    from .operators import theta_from_spectrum

    th = theta_from_spectrum(sp)
    if math.isinf(th.theta):
        print("warning: no nontrivial eigenvalue above sentinel; theta reported as \"inf\"", file=sys.stderr)
    return th


def _cmd_spectrum(args) -> int:
    from .report import eigenfunction_csv, json_document, spectrum_document

    sp = _spectrum(args)
    if args.format == "csv":
        _emit(eigenfunction_csv(sp), args.output)
    else:
        _theta(sp)
        _emit(json_document(spectrum_document(sp)), args.output)
    return 0


def _cmd_theta(args) -> int:
    from .report import _csv_num, json_document, theta_document

    th = _theta(_spectrum(args))
    if args.format == "csv":
        text = "n,m,theta,lambda2\n" + f"{th.n},{th.m},{_csv_num(th.theta)},{_csv_num(th.lambda2)}\n"
        _emit(text, args.output)
    else:
        _emit(json_document(theta_document(th)), args.output)
    return 0


def _cmd_trace(args) -> int:
    from .operators import TraceResult, build_kernel, trace_T
    from .report import _csv_num, json_document, trace_document

    if args.exact:
        from .discrete import exact_operator

        pmf = _exact_pmf(args)
        # ||B||_F^2 over the non-zero pairs of B, correctly rounded
        value = math.fsum((exact_operator(pmf, args.n, args.m).values ** 2).ravel())
        tr = TraceResult(value=value, chi2=value - 1.0, masked_mass=0.0, lower_bound_only=False)
    else:
        d = _base_density(args)
        tr = trace_T(build_kernel(d, args.n, args.m))
    if args.format == "csv":
        text = "n,m,trace,chi2,lower_bound_only\n" + \
            f"{args.n},{args.m},{_csv_num(tr.value)},{_csv_num(tr.chi2)},{str(tr.lower_bound_only).lower()}\n"
        _emit(text, args.output)
    else:
        _emit(json_document(trace_document(tr, args.n, args.m)), args.output)
    return 0


def _cmd_bounds(args) -> int:
    from . import verify
    from .inequalities import make_report, subgauss_chi2_bound

    spec = args.spec
    reports = verify.family_battery(spec, args.grid, n_max=args.n_max, seed=args.seed)
    if args.delta is not None:
        res = subgauss_chi2_bound(spec, args.delta, max(args.n, 2))
        reports.append(
            make_report(
                "subgauss-chi2-ceiling",
                0.0,
                0.0,
                tol=0.0,
                n=max(args.n, 2),
                context={
                    "value": res.value,
                    "exp_factor": res.exp_factor,
                    "t": res.t,
                    "divergent": res.divergent,
                    "method": res.method,
                },
            )
        )
    _emit(emit_table(reports, args.format), args.output)
    return _exit_code_for(reports)


def _cmd_monotonicity(args) -> int:
    from .inequalities import monotonicity_reports, monotonicity_sequence
    from .operators import theta
    from .report import json_document, reports_document, sanitize

    d = _base_density(args)
    th = theta(d, 2, 1)
    seq = monotonicity_sequence(d, th.theta, args.n_max)
    reports = monotonicity_reports(seq)
    if args.format == "csv":
        _emit(emit_table(reports, "csv"), args.output)
    else:
        payload = reports_document(reports)
        payload["sequence"] = sanitize([[n, a] for n, a in seq])
        payload["theta2"] = th.theta
        _emit(json_document(payload), args.output)
    return _exit_code_for(reports)


def _cmd_verify_all(args) -> int:
    from . import verify

    reports = verify.verify_all(args.spec, args.grid, n_max=args.n_max, seed=args.seed)
    _emit(emit_table(reports, args.format), args.output)
    return _exit_code_for(reports)


def _cmd_closed_form(args) -> int:
    from .closed_forms import meixner_lambdas, meixner_theta, meixner_v2
    from .report import _csv_num, json_document

    specs = [args.spec] if args.spec is not None else [DistributionSpec.gaussian(1.0), DistributionSpec.gamma(4.0)]
    n_values = list(range(2, max(4, args.n) + 1))
    entries = []
    for spec in specs:
        v2 = meixner_v2(spec)
        if v2 is None:
            raise ValueError("closed-form tables exist for gaussian and gamma families only")
        entry = {
            "family": spec.family,
            "lambda": {str(n): meixner_lambdas(v2, n, 1, 7) for n in n_values},
            "theta": {str(n): meixner_theta(v2, n, 1) for n in n_values},
        }
        if "beta" in spec.params:
            entry["beta"] = float(spec.params["beta"])
        entries.append(entry)
    if args.format == "csv":
        lines = ["family,n,k,value,kind"]
        for entry in entries:
            for n in n_values:
                for k, v in enumerate(entry["lambda"][str(n)]):
                    lines.append(f"{entry['family']},{n},{k},{_csv_num(v)},lambda")
                lines.append(f"{entry['family']},{n},,{_csv_num(entry['theta'][str(n)])},theta")
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit(json_document({"command": "closed-form", "families": entries}), args.output)
    return 0


def _cmd_efron_stein(args) -> int:
    from .discrete import DiscretePMF, efron_stein, pmf_power
    from .report import _csv_num, json_document

    if args.spec.family != "discrete":
        raise ValueError("efron-stein works on discrete specs")
    p = DiscretePMF.from_spec(args.spec)
    k = args.n
    atoms, _ = pmf_power(p, k).arrays()
    h = (atoms - k * p.mean()) ** 2  # default statistic: squared deviation of the sum
    dec = efron_stein(h, p, k)
    rows = [(r, math.comb(k, r), dec.component_sq[r]) for r in sorted(dec.component_sq)]
    if args.format == "csv":
        lines = ["r,choose,second_moment"] + [f"{r},{c},{_csv_num(v)}" for r, c, v in rows]
        _emit("\n".join(lines) + "\n", args.output)
    else:
        payload = {
            "command": "efron-stein",
            "k": k,
            "statistic": "squared deviation of the sum",
            "mean": dec.mean_shift,
            "total_second_moment": dec.total_second_moment,
            "components": {str(r): {"choose": c, "second_moment": v} for r, c, v in rows},
            "identity_residual": dec.identity_residual,
        }
        _emit(json_document(payload), args.output)
    return 0


_HANDLERS = {
    "density": _cmd_density,
    "spectrum": _cmd_spectrum,
    "theta": _cmd_theta,
    "trace": _cmd_trace,
    "bounds": _cmd_bounds,
    "monotonicity": _cmd_monotonicity,
    "verify-all": _cmd_verify_all,
    "closed-form": _cmd_closed_form,
    "efron-stein": _cmd_efron_stein,
}

# the flags each handler reads, and so the only ones its subcommand accepts
_READS = {
    "density": "--spec --n --nodes --half-width --delta --format --output".split(),
    "spectrum": "--spec --n --m --nodes --half-width --exact --delta --format --output".split(),
    "theta": "--spec --n --m --nodes --half-width --exact --delta --format --output".split(),
    "trace": "--spec --n --m --nodes --half-width --exact --delta --format --output".split(),
    "bounds": "--spec --n --nodes --half-width --seed --n-max --delta --format --output".split(),
    "monotonicity": "--spec --n --nodes --half-width --n-max --delta --format --output".split(),
    "verify-all": "--spec --nodes --half-width --seed --n-max --format --output".split(),
    "closed-form": "--spec --n --format --output".split(),
    "efron-stein": "--spec --n --format --output".split(),
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors; here 2 is reserved for violated bounds
        return 0 if exc.code == 0 else 1
    try:
        # handlers read args; spec None tells verify-all and closed-form to run their default families
        if args.spec is not None:
            args.spec = parse_spec(args.spec)
        elif args.subcommand not in ("verify-all", "closed-form"):
            args.spec = DistributionSpec.gaussian(1.0)
        if getattr(args, "exact", False) and args.delta is not None:
            raise ValueError("--delta requires the grid pipeline; drop --exact")
        unread = []  # (flag, condition): the command takes the flag but does not read it under the condition
        if getattr(args, "exact", False):
            unread += [(flag, "with --exact") for flag in ("--nodes", "--half-width")]
        if args.subcommand == "bounds" and args.spec.family == "discrete":
            unread += [(flag, "with a discrete spec") for flag in ("--nodes", "--half-width", "--seed")]
        if args.subcommand == "bounds" and args.delta is None:
            unread.append(("--n", "without --delta"))
        for flag, condition in unread:
            if getattr(args, flag[2:].replace("-", "_")) is not None:
                raise ValueError(f"{flag} is not read {condition}; drop it")
        for name, value in _UNSET_DEFAULTS.items():
            if getattr(args, name, value) is None:
                setattr(args, name, value)
        if hasattr(args, "nodes"):
            args.grid = GridConfig(node_count=args.nodes, half_width_sigmas=args.half_width)
        return _HANDLERS[args.subcommand](args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

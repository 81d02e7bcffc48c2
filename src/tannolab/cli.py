"""Command-line driver: verify suites, inspect spectra, build projectors.

Exit codes: 0 when the suite verdict is pass, 1 when any check fails,
2 on configuration or I/O errors, and when a config does not apply to the
command (c = 0 for spectrum and projector, a constant solution for
projector).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .calculus import frob_rows
from .errors import ConfigError, TannoLabError
from .verify import (REGISTRY, CheckContext, SkipCheck, SuiteConfig,
                     emit_report, load_report, run_suite)

DEFAULT_CONFIG = {
    "chart": {"name": "fubini_study", "n": 1},
    "solution": "height:0",
    "c": 0.25,
    "seed": 7,
    "samples": 25,
    "checks": [],
}


def _apply_override(data: dict, assignment: str):
    key, sep, raw = assignment.partition("=")
    if not sep:
        raise ConfigError(f"--set expects key=value, got {assignment!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = data
    # Check names contain dots: under "tolerances" the rest is one name.
    head, _, rest = key.partition(".")
    parts = [head, rest] if head == "tolerances" and rest else key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"--set path {key!r} crosses a non-object field")
    node[parts[-1]] = value


def _load_config(args) -> SuiteConfig:
    if args.config:
        with open(args.config) as fh:
            data = json.load(fh)
    else:
        data = json.loads(json.dumps(DEFAULT_CONFIG))
    for assignment in args.set or []:
        _apply_override(data, assignment)
    return SuiteConfig.from_dict(data)


def _print_checks():
    width = max(len(name) for name in REGISTRY)
    for name, spec in REGISTRY.items():
        print(f"{name:<{width}}  tol={spec.tolerance:<8g}  {spec.description}")


def _cmd_verify(args) -> int:
    if args.list_checks:
        _print_checks()
        return 0
    config = _load_config(args)
    report = run_suite(config)
    if args.out:
        emit_report(report, "json", args.out)
    if args.csv:
        emit_report(report, "csv", args.csv)
    for r in report.checks:
        flag = {"ok": "PASS" if r.passed else "FAIL",
                "skipped": "SKIP", "error": "ERROR"}[r.status]
        extra = f"  [{r.note}]" if r.note else ""
        print(f"{flag:5s} {r.name:<28s} max_residual={r.max_residual:.3e} "
              f"tol={r.tolerance:.1e} points={r.points}{extra}")
    print(f"suite verdict: {report.verdict}")
    return 0 if report.passed else 1


def _cmd_spectrum(args) -> int:
    if args.points < 0:
        raise ConfigError(f"--points must be >= 0, got {args.points}")
    ctx = CheckContext.from_config(_load_config(args))
    for q, spec in zip(ctx.P[:args.points], ctx.spectra):
        parts = [f"{v:+.8f} (x{m})" for v, m in spec.clusters]
        parts += [f"{z.real:+.6f}+-{abs(z.imag):.6f}i (x{m})"
                  for z, m in spec.complex_pairs]
        print(f"p = {np.array2string(q, precision=4):<32s} " + ", ".join(parts))
    return 0


def _cmd_projector(args) -> int:
    ctx = CheckContext.from_config(_load_config(args))
    P, _, Ls = ctx.projector
    print(f"P(t) = {P!r}")
    worst = float(np.max(frob_rows(Ls @ Ls - Ls)))
    print(f"max |L^2 - L| over {len(ctx.P)} points: {worst:.3e}")
    mus = Ls[:, 0, 0]
    print(f"mu range over samples: [{min(mus):.6f}, {max(mus):.6f}]")
    return 0


def _cmd_report(args) -> int:
    report = load_report(args.infile)
    emit_report(report, args.format,
                args.out if args.out else sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tannolab",
        description="Chart-level verification suite for the Tanno equation "
                    "and its extended-operator calculus.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a check suite")
    p_verify.add_argument("--config", help="path to a JSON suite config")
    p_verify.add_argument("--set", action="append", metavar="KEY=VALUE",
                          help="override a config field (dotted paths OK)")
    p_verify.add_argument("--out", help="write the JSON report here")
    p_verify.add_argument("--csv", help="write the CSV report here")
    p_verify.add_argument("--list-checks", action="store_true",
                          help="list registered checks and exit")
    p_verify.set_defaults(func=_cmd_verify)

    p_spec = sub.add_parser("spectrum",
                            help="print the clustered operator spectrum at samples")
    p_spec.add_argument("--config", help="path to a JSON suite config")
    p_spec.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_spec.add_argument("--points", type=int, default=5)
    p_spec.set_defaults(func=_cmd_spectrum)

    p_proj = sub.add_parser("projector",
                            help="build the projector polynomial and residuals")
    p_proj.add_argument("--config", help="path to a JSON suite config")
    p_proj.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_proj.set_defaults(func=_cmd_projector)

    p_rep = sub.add_parser("report", help="re-emit a stored JSON report")
    p_rep.add_argument("infile", help="stored JSON report")
    p_rep.add_argument("--format", choices=("json", "csv"), default="json")
    p_rep.add_argument("--out", help="destination path (default stdout)")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SkipCheck, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TannoLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

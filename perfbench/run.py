"""Benchmark of tannolab's time to a verdict, end to end or split by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload cp1_default --seed 7 --seconds 20 --trace 0

With ``--trace 0`` it measures, with tracing off:

* ``wall_s``: median wall time of one iteration (one ``run_suite`` call or
  one geodesic batch), over as many iterations as fit in ``--seconds``;
* ``setup_s``: median, over SETUP_PROBES fresh interpreters, of the time
  from spawning the interpreter to having imported tannolab and built the
  config, chart, solution and sample points;
* ``peak_heap_mb``: growth of the process's peak resident set size from
  before the first iteration to after the last.  Each iteration's memory is
  freed before the next, so this is the largest one-iteration footprint.

With ``--trace 1`` it alternates untraced and traced iterations and reports
the per-layer metrics of bench_trace.py from the first traced iteration,
plus ``trace_overhead``.  Both modes check every iteration's outputs against
the reference and report failed operations (``fail_frac`` is printed).

Human-readable lines go to stdout first; the last line is one JSON object.
Details (environment, per-check residuals next to timings) are written to
``.perfbench_out/`` in the repository root, spans of the traced run too.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_trace import Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_PROBES = 3
MIN_ITERATIONS = 5
MIN_TRACE_PAIRS = 2

# Per-layer metrics: (name, unit).  Sources are in _layer_metrics.
CHECK_NAMES = [
    "kahler.residuals", "eq1.residual", "rem1.laplace_identity",
    "rem2.lightlike_f3", "sys.residual", "sys.trace_identity",
    "sys.inverse_roundtrip", "lem1.transport_zero", "lem1.transport_match",
    "lem1.transport_loop", "op.identity_at_constant",
    "eq_product.block_identity", "lem2.star_power", "cor1.poly_star_closure",
    "cor2.spectrum_constancy", "lem3.minimal_polynomial",
    "lem4.two_real_eigenvalues", "lem5.projector", "lem6.eigenstructure",
    "eq_mu.hessian", "thm3.positivity", "oracle.derivatives",
]
PER_LAYER = [
    ("jets.tconv_single.calls", "count"),
    ("jets.tconv_single.self_s", "s"),
    ("jets.eval_scalar_expr.calls", "count"),
    ("jets.eval_scalar_expr.self_s", "s"),
    ("jets.tinv.calls", "count"),
    ("charts.metric_jets.calls", "count"),
    ("charts.christoffel_jets.calls", "count"),
    ("charts.christoffel_jets.self_s", "s"),
    ("charts.cache_hit_ratio", "ratio"),
    ("charts.cache_entries", "count"),
    ("fields.jets.calls", "count"),
    ("fields.cache_hit_ratio", "ratio"),
    ("calculus.scalar_covariant_jets.calls", "count"),
    ("calculus.scalar_covariant_jets.us_per_call", "us"),
    ("tanno.transport_bundle.s", "s"),
    ("tanno.transport_rhs.calls", "count"),
    ("tanno.tanno_residual.us_per_call", "us"),
    ("manifolds.integrate_geodesic.s", "s"),
    ("manifolds.geodesic_rhs.calls", "count"),
    ("manifolds.doubling_rounds", "count"),
    ("manifolds.useful_step_ratio", "ratio"),
    ("operator.assemble_L.calls", "count"),
    ("operator.assemble_L.us_per_call", "us"),
    ("operator.star_jets.self_s", "s"),
    ("operator.projector_from_solution.s", "s"),
    ("signature.positivity_scan.s", "s"),
    ("signature.refine_extremum.calls", "count"),
    ("signature.kept_candidates", "count"),
    ("signature.extremum_accept_ratio", "ratio"),
] + [(f"verify.check.{name}.s", "s") for name in CHECK_NAMES] + [
    ("verify.map_points.s", "s"),
    ("verify.pool_efficiency", "ratio"),
    ("fd.oracle.s", "s"),
    ("trace_overhead", "ratio"),
]
# Counters that must repeat exactly between two iterations on the same inputs.
EXACT = [name for name, unit in PER_LAYER if unit == "count"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_metrics(tracer, resolved_workers: int) -> dict:
    """Per-layer metrics of one traced iteration, except the two that
    traced_run fills in from the untraced iterations."""
    calls, total_s, self_s, pool_eff = summarize(tracer.spans(), resolved_workers)
    counts = tracer.counts()

    def per_call_us(name):
        return 1e6 * _ratio(total_s[name], calls[name])

    chart_hits, chart_misses = counts["charts.cache_hit"], counts["charts.cache_miss"]
    field_hits, field_misses = counts["fields.cache_hit"], counts["fields.cache_miss"]
    return {
        "jets.tconv_single.calls": calls["jets.tconv_single"],
        "jets.tconv_single.self_s": self_s["jets.tconv_single"],
        "jets.eval_scalar_expr.calls": calls["jets.eval_scalar_expr"],
        "jets.eval_scalar_expr.self_s": self_s["jets.eval_scalar_expr"],
        "jets.tinv.calls": calls["jets.tinv"],
        "charts.metric_jets.calls": calls["charts.metric_jets"],
        "charts.christoffel_jets.calls": calls["charts.christoffel_jets"],
        "charts.christoffel_jets.self_s": self_s["charts.christoffel_jets"],
        "charts.cache_hit_ratio": _ratio(chart_hits, chart_hits + chart_misses),
        "charts.cache_entries": counts["charts.cache_entries"],
        "fields.jets.calls": calls["fields.jets"],
        "fields.cache_hit_ratio": _ratio(field_hits, field_hits + field_misses),
        "calculus.scalar_covariant_jets.calls": calls["calculus.scalar_covariant_jets"],
        "calculus.scalar_covariant_jets.us_per_call":
            per_call_us("calculus.scalar_covariant_jets"),
        "tanno.transport_bundle.s": total_s["tanno.transport_bundle"],
        "tanno.transport_rhs.calls": calls["tanno.transport_rhs"],
        "tanno.tanno_residual.us_per_call": per_call_us("tanno.tanno_residual"),
        "manifolds.integrate_geodesic.s": total_s["manifolds.integrate_geodesic"],
        "manifolds.geodesic_rhs.calls": calls["manifolds.geodesic_rhs"],
        "manifolds.doubling_rounds": calls["manifolds.rk4_round"],
        "manifolds.useful_step_ratio": _ratio(counts["manifolds.kept_steps"],
                                              counts["manifolds.rk4_steps"]),
        "operator.assemble_L.calls": calls["operator.assemble_L"],
        "operator.assemble_L.us_per_call": per_call_us("operator.assemble_L"),
        "operator.star_jets.self_s": self_s["operator.star_jets"],
        "operator.projector_from_solution.s": total_s["operator.projector_from_solution"],
        "signature.positivity_scan.s": total_s["signature.positivity_scan"],
        "signature.refine_extremum.calls": calls["signature.refine_extremum"],
        "signature.kept_candidates": counts["signature.kept_candidates"],
        "signature.extremum_accept_ratio": _ratio(counts["signature.kept_candidates"],
                                                  calls["signature.refine_extremum"]),
        "verify.map_points.s": total_s["verify.map_points"],
        "verify.pool_efficiency": pool_eff,
        "fd.oracle.s": total_s["fd.oracle"],
    }


def environment() -> dict:
    import numpy
    import scipy
    from tannolab import verify
    resolve = getattr(verify, "_max_workers", None)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pool_workers": resolve() if resolve is not None else 1,
        "TANNO_LAB_THREADS_set": "TANNO_LAB_THREADS" in os.environ,
    }


def _probe_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its "ready" line."""
    times = []
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, env=_probe_env()) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code}): {line!r}")
        times.append(elapsed)
    return times


def _timed(wl, k: int):
    gc.collect()
    t0 = time.perf_counter()
    out = wl.iterate(k)
    return time.perf_counter() - t0, out


def _tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, or max."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return f"p{p} {statistics.quantiles(values, n=100)[p - 1]:.4f} s"
    return f"max {max(values):.4f} s"


def gate_outputs(wl, outputs) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over all outputs, plus the negative control."""
    reference = wl.reference()
    attempted = failed = 0
    problems = []
    for out in outputs:
        n_failed, bad = wl.gate(out, reference)
        attempted += wl.operations(out)
        failed += n_failed
        problems += bad
    if not wl.gate(wl.negative_control(outputs[0]), reference)[1]:
        problems.append("negative control: the gate accepted a residual above "
                        "its tolerance")
    return attempted, failed, problems


def timed_run(wl, workload: str, seed: int, seconds: float):
    setup = measure_setup(workload, seed)
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    outputs, walls = [], []
    start = time.perf_counter()
    # Stop before an iteration that would end past the window.
    while (len(walls) < MIN_ITERATIONS
           or time.perf_counter() - start + walls[-1] <= seconds):
        wall, out = _timed(wl, len(walls))
        walls.append(wall)
        outputs.append(out)
    peak_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0) / 1024.0
    attempted, failed, problems = gate_outputs(wl, outputs)
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_heap_mb": {"value": peak_mb, "unit": "MB"},
    }
    lines = [
        f"wall_s        {metrics['wall_s']['value']:.4f} s  median of "
        f"n={len(walls)}; {_tail(walls)}",
        f"setup_s       {metrics['setup_s']['value']:.4f} s  median of "
        f"n={len(setup)} fresh interpreters",
        f"peak_heap_mb  {peak_mb:.3f} MB  peak RSS growth over the run's iterations",
    ]
    details = {"walls_s": walls, "setup_s": setup,
               "residuals": wl.residuals(outputs[-1]),
               "check_seconds": _check_seconds(outputs)}
    return metrics, lines, details, attempted, failed, problems


def _check_seconds(outputs) -> dict:
    """Median CheckRecord.seconds per check over suite reports ({} otherwise)."""
    per = {}
    for out in outputs:
        for rec in getattr(out, "checks", ()):
            per.setdefault(rec.name, []).append(rec.seconds)
    return {name: statistics.median(v) for name, v in per.items()}


def traced_run(wl, workload: str, seed: int, seconds: float,
               resolved_workers: int):
    _timed(wl, 0)       # warm-up
    plain, traced, outputs, layers, tracers = [], [], [], [], []
    start = time.perf_counter()
    while (len(traced) < MIN_TRACE_PAIRS
           or time.perf_counter() - start + plain[-1] + traced[-1] <= seconds):
        wall, out = _timed(wl, 0)
        plain.append(wall)
        outputs.append(out)
        with Tracer() as tracer:
            wall, out = _timed(wl, 0)
        traced.append(wall)
        outputs.append(out)
        layers.append(_layer_metrics(tracer, resolved_workers))
        if not tracers:
            tracers.append(tracer)
    attempted, failed, problems = gate_outputs(wl, outputs)
    for later in layers[1:]:
        for name in EXACT:
            if later[name] != layers[0][name]:
                problems.append(f"counter {name} did not repeat: "
                                f"{layers[0][name]} then {later[name]}")
    values = dict(layers[0])
    checks = _check_seconds(outputs[0::2])
    for name in CHECK_NAMES:
        values[f"verify.check.{name}.s"] = checks.get(name, 0.0)
    values["trace_overhead"] = statistics.median(traced) / statistics.median(plain)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{workload}-seed{seed}.csv.gz"
    n_spans = tracers[0].write_spans(span_file)
    lines = [f"{name:<48s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"traced/untraced wall: {statistics.median(traced):.4f} s / "
                 f"{statistics.median(plain):.4f} s over {len(traced)} pairs")
    lines.append(f"{n_spans} spans written to {span_file.relative_to(ROOT)}")
    if tracers[0].unhooked:
        lines.append("not hooked (metrics read 0): " + ", ".join(tracers[0].unhooked))
    details = {"plain_s": plain, "traced_s": traced, "unhooked": tracers[0].unhooked,
               "residuals": wl.residuals(outputs[-1]), "check_seconds": checks}
    return metrics, lines, details, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tannolab" / "__init__.py").is_file():
        print(f"error: no tannolab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bench_workloads import build

    wl = build(args.workload, args.seed)
    env = environment()
    if args.trace:
        result = traced_run(wl, args.workload, args.seed, args.seconds,
                            env["pool_workers"])
    else:
        result = timed_run(wl, args.workload, args.seed, args.seconds)
    metrics, lines, details, attempted, failed, problems = result

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for line in lines:
        print(line)
    print(f"fail_frac     {_ratio(failed, attempted):.6g}  "
          f"({failed} of {attempted} operations failed)")
    for problem in problems[:20]:
        print(f"GATE: {problem}")
    print("negative control: "
          + ("ACCEPTED (gate broken)" if any(p.startswith("negative control")
                                            for p in problems) else "rejected"))

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "environment": env, "metrics": metrics,
                   "attempted": attempted, "failed": failed,
                   "problems": problems, **details}, fh, indent=1, default=str)

    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

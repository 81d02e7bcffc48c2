"""The benchmark's workloads: inputs from a seed, one iteration, and the gate.

Every workload builds its inputs from the seed once per run, then calls the
package's public entry points (``run_suite``, ``integrate_geodesic``) once
per iteration on freshly built charts, as a user's process would.  The
correctness gate runs on the outputs after timing, outside the timed region.

Why these workloads (see README.md for the layer predictions):

* ``cp1_default`` is what users run: the CLI default config.  The transport
  ODE in ``tanno`` does most of the work, at fresh points every call, so the
  chart caches only ever miss.
* ``cp3_points`` has the largest jet arrays (d = 6) and reuses one set of
  200 points across about 18 checks, so caches hit often; it runs no ODE.
* ``cp2_geodesics`` is the only workload that runs the ``manifolds``
  integrator on a curved chart.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
from pathlib import Path

import numpy as np

import tannolab
from tannolab import verify

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# A frozen copy of tannolab.cli.DEFAULT_CONFIG; the run's seed replaces "seed".
CP1_DEFAULT = {
    "chart": {"name": "fubini_study", "n": 1},
    "solution": "height:0",
    "c": 0.25,
    "seed": 7,
    "samples": 25,
    "checks": [],
}

# Every default check except the transport ODE (lem1.*) and the flat-chart
# lightlike check, so no ODE layer runs on this workload.
CP3_POINTS = {
    "chart": {"name": "fubini_study", "n": 3},
    "solution": "height:0",
    "c": 0.25,
    "seed": 7,
    "samples": 200,
    "checks": [
        "kahler.residuals", "eq1.residual", "rem1.laplace_identity",
        "sys.residual", "sys.trace_identity", "sys.inverse_roundtrip",
        "op.identity_at_constant", "eq_product.block_identity",
        "lem2.star_power", "cor1.poly_star_closure",
        "cor2.spectrum_constancy", "lem3.minimal_polynomial",
        "lem4.two_real_eigenvalues", "lem5.projector", "lem6.eigenstructure",
        "eq_mu.hessian", "thm3.positivity", "oracle.derivatives",
    ],
}

GEODESIC_N = 2          # CP(2)
GEODESIC_COUNT = 4      # geodesics per iteration
GEODESIC_T = 1.0
# A unit-speed geodesic from |p| <= 0.5 stays within
# tan(arctan 0.5 + T/2) ~ 1.45 of the origin, inside the domain radius 2.
GEODESIC_START_RADIUS = 0.5
# Endpoint agreement with the DOP853 reference; fixed-step RK4 at the
# default 256 steps lands within ~3e-12 of it on these inputs.
GEODESIC_ATOL = 1e-9


# Suite workloads cycle through this many configs, which differ only in their
# seed, so a run's median does not hinge on one seed's transport path lengths
# (on cp1_default these alone move the work by up to 17%).
SUITE_CONFIGS = 5


class SuiteWorkload:
    """One ``run_suite`` call per iteration; an operation is one check record.

    Iteration k runs config k mod SUITE_CONFIGS.  Config 0 has the run's own
    seed; the others take seeds drawn from it.
    """

    def __init__(self, name: str, config: dict, seed: int):
        self.name = name
        extra = np.random.default_rng(seed).integers(0, 2**31, SUITE_CONFIGS - 1)
        self.configs = []
        for config_seed in [seed, *extra.tolist()]:
            data = copy.deepcopy(config)
            data["seed"] = config_seed
            self.configs.append(tannolab.SuiteConfig.from_dict(data))
        # What a user's process builds before the suite runs; set-up time
        # (setup_probe.py) measures this.  run_suite builds its own.
        first = self.configs[0]
        chart = verify.build_chart(first.chart)
        verify.build_solution(first.solution, chart)
        tannolab.sample_points(chart, first.samples, first.seed,
                               0.75 * chart.domain_radius)

    def iterate(self, k: int):
        return tannolab.run_suite(self.configs[k % len(self.configs)])

    @staticmethod
    def operations(report) -> int:
        return len(report.checks)

    def reference(self) -> dict:
        with open(REFERENCE_PATH) as fh:
            return json.load(fh)[self.name]

    def gate(self, report, reference: dict) -> tuple[int, list[str]]:
        """(failed records, problems); a missing check or a changed suite
        verdict is a problem without a failed record."""
        ref_checks = reference["checks"]
        problems = []
        for rec in report.checks:
            ref = ref_checks.get(rec.name)
            if ref is None:
                problems.append(f"{rec.name}: not in the reference")
            elif rec.status != ref["status"]:
                problems.append(f"{rec.name}: status {rec.status} != {ref['status']}")
            elif rec.passed is not True or ref["passed"] is not True:
                problems.append(f"{rec.name}: check failed")
            elif not _residual_matches(rec.max_residual, ref["max_residual"],
                                       ref["tolerance"]):
                problems.append(f"{rec.name}: max_residual {rec.max_residual!r} is "
                                f"not within {ref['tolerance']!r} of "
                                f"{ref['max_residual']!r}")
        failed = len(problems)
        seen = {rec.name for rec in report.checks}
        problems += [f"{name}: missing" for name in sorted(set(ref_checks) - seen)]
        if report.verdict != reference["verdict"]:
            problems.append(f"suite verdict {report.verdict} != {reference['verdict']}")
        return failed, problems

    @staticmethod
    def negative_control(report):
        """The report with eq1.residual raised to ten times its tolerance."""
        records = [dataclasses.replace(r, max_residual=10.0 * r.tolerance)
                   if r.name == "eq1.residual" else r for r in report.checks]
        return dataclasses.replace(report, checks=records)

    @staticmethod
    def residuals(report) -> dict:
        return {r.name: {"status": r.status, "passed": r.passed,
                         "max_residual": r.max_residual,
                         "tolerance": r.tolerance, "seconds": r.seconds}
                for r in report.checks}


def _residual_matches(value: float, ref: float, tol: float) -> bool:
    if math.isnan(ref):
        return math.isnan(value)
    return abs(value - ref) <= tol


class GeodesicWorkload:
    """A seeded batch of unit-speed CP(2) geodesics; one operation per path.

    Every iteration integrates the same batch: each geodesic takes the same
    number of steps whatever its start, so the work does not vary by seed.
    """

    name = "cp2_geodesics"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        chart = tannolab.fubini_study_chart(GEODESIC_N)
        dim = chart.dim
        self.starts = []
        for _ in range(GEODESIC_COUNT):
            u = rng.normal(size=dim)
            x = (GEODESIC_START_RADIUS * rng.uniform() ** (1.0 / dim)
                 * u / np.linalg.norm(u))
            v = rng.normal(size=dim)
            v /= math.sqrt(chart.inner(x, v, v))
            self.starts.append((x, v))

    def iterate(self, k: int):
        chart = tannolab.fubini_study_chart(GEODESIC_N)
        return [tannolab.integrate_geodesic(chart, x, v, GEODESIC_T)
                for x, v in self.starts]

    @staticmethod
    def operations(paths) -> int:
        return len(paths)

    def reference(self) -> list[np.ndarray]:
        """Endpoints (x, v) from DOP853 on the public ``christoffel``."""
        from scipy.integrate import solve_ivp
        chart = tannolab.fubini_study_chart(GEODESIC_N)
        dim = chart.dim

        def rhs(_t, y):
            G = tannolab.christoffel(chart, y[:dim]).components
            return np.concatenate([y[dim:], -np.einsum("kij,i,j->k", G,
                                                       y[dim:], y[dim:])])
        ends = []
        for x, v in self.starts:
            sol = solve_ivp(rhs, (0.0, GEODESIC_T), np.concatenate([x, v]),
                            method="DOP853", rtol=1e-12, atol=1e-12)
            if not sol.success:
                raise RuntimeError(f"reference integration failed: {sol.message}")
            ends.append(sol.y[:, -1])
        return ends

    def gate(self, paths, reference) -> tuple[int, list[str]]:
        """(failed paths, problems)."""
        bad = []
        dim = 2 * GEODESIC_N
        for k, (path, ref) in enumerate(zip(paths, reference)):
            t_end, x_end, v_end = path.samples[-1]
            if path.left_domain:
                bad.append(f"geodesic {k}: left_domain")
            elif abs(t_end - GEODESIC_T) > 1e-12:
                bad.append(f"geodesic {k}: ends at t={t_end!r}")
            elif path.causal_type != "spacelike":
                bad.append(f"geodesic {k}: causal type {path.causal_type}")
            else:
                err = max(np.linalg.norm(x_end - ref[:dim]),
                          np.linalg.norm(v_end - ref[dim:]))
                if not err <= GEODESIC_ATOL:
                    bad.append(f"geodesic {k}: endpoint off the reference by {err:.3g}")
        failed = len(bad)
        if len(paths) != len(reference):
            bad.append(f"{len(paths)} paths for {len(reference)} starts")
        return failed, bad

    @staticmethod
    def negative_control(paths):
        """The batch with the first endpoint moved by ten times the tolerance."""
        first = copy.deepcopy(paths[0])
        t_end, x_end, v_end = first.samples[-1]
        first.samples[-1] = (t_end, x_end + 10.0 * GEODESIC_ATOL, v_end)
        return [first] + list(paths[1:])

    @staticmethod
    def residuals(paths) -> dict:
        return {f"geodesic.{k}": {"left_domain": p.left_domain,
                                  "steps": len(p.samples) - 1,
                                  "end": p.samples[-1][1].tolist()}
                for k, p in enumerate(paths)}


WORKLOADS = {
    "cp1_default": lambda seed: SuiteWorkload("cp1_default", CP1_DEFAULT, seed),
    "cp3_points": lambda seed: SuiteWorkload("cp3_points", CP3_POINTS, seed),
    "cp2_geodesics": GeodesicWorkload,
}


def build(name: str, seed: int):
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name](seed)

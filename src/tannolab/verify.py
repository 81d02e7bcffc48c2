"""Suite configuration, the claim-check registry, and report emission.

Each registered check verifies one named claim over the configured chart,
solution field and sample set, returning a worst-case residual that is
compared against the check's tolerance (overridable per run).  Checks never
abort the suite: errors and structural inapplicability are recorded per
check.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import time
from dataclasses import dataclass, field, fields, asdict
from functools import cached_property

import numpy as np

from . import __version__
from .calculus import (_kahler_rows, christoffel, frob, frob_rows,
                       scalar_covariant_jets)
from .charts import KahlerChart
from .jets import size
from .errors import ConfigError
from .fields import ConstField, ScalarField
from .manifolds import (cpn_height_function, flat_kahler_chart,
                        fubini_study_chart, random_polynomial_field,
                        random_quadratic_field, sample_points,
                        sphere_second_eigenfunction)
from .operator import (PolynomialReal, SpectrumResult, _blocks,
                       _eigenstructure, _minimal_polynomial, _operator,
                       _product_block, _projector_with_operator, poly_star,
                       spectra, star_power)
from .signature import _positivity_scan, is_constant
from .tanno import (SolutionBundle, TannoProblem, _bundle, _cubic_form,
                    _laplace_rows, _mu_hessian_rows, _order3, _point_chain,
                    _system_rows, _third_order_terms, f_from_mu,
                    gallot_tanno_residual, transport_bundle)
from . import charts, fd


#: Seeded null vectors of g per sample at which rem2.lightlike_f3 reads f_{,ijk}.
NULL_VECTORS = 8

#: Why checks of the c = 1 normalization skip at c = 0.
_NO_UNIT = "c = 0: the metric cannot be rescaled to the c = 1 normalization"


class SkipCheck(Exception):
    """Raised inside a check when the configuration makes it inapplicable."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _number(name: str, value, kind=float):
    """value as a finite float, or as an int for kind=int; ConfigError naming
    the config field otherwise.

    Booleans, non-finite values and fractions for an int field are rejected
    rather than coerced: int(2.5) and int(True) would run 2 and 1 samples.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        if kind is int and isinstance(value, numbers.Integral):
            return int(value)
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"config field {name!r} must be a number, "
                          f"got {value!r}") from None
    if not math.isfinite(number):
        raise ConfigError(f"config field {name!r} must be finite, got {value!r}")
    if kind is int:
        if not number.is_integer():
            raise ConfigError(f"config field {name!r} must be an integer, "
                              f"got {value!r}")
        return int(number)
    return number


@dataclass
class SuiteConfig:
    """One suite run; every field is coerced and validated on construction."""

    chart: dict
    solution: str = "constant:-0.5"
    c: float = 1.0
    seed: int = 7
    samples: int = 25
    radius: float | None = None
    checks: list[str] = field(default_factory=list)
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        # list() of a string would read it as a list of one-letter names.
        if not isinstance(self.checks, list):
            raise ConfigError(f"config field 'checks' must be a list of check "
                              f"names, got {self.checks!r}")
        self.checks = list(self.checks)
        try:
            self.chart = dict(self.chart)
            self.tolerances = dict(self.tolerances)
        except (TypeError, ValueError):
            raise ConfigError("config fields 'chart' and 'tolerances' must be "
                              "objects") from None
        self.solution = str(self.solution)
        self.c = _number("c", self.c)
        self.seed = _number("seed", self.seed, int)
        self.samples = _number("samples", self.samples, int)
        if self.radius is not None:
            self.radius = _number("radius", self.radius)
            if not self.radius > 0:
                raise ConfigError("config field 'radius' must be positive")
        if self.samples < 1:
            raise ConfigError("config field 'samples' must be >= 1")
        if self.seed < 0:
            raise ConfigError("config field 'seed' must be >= 0")
        for name in self.checks:
            if name not in REGISTRY:
                raise ConfigError(f"checks names unknown check {name!r}")
        for name, tol in self.tolerances.items():
            if name not in REGISTRY:
                raise ConfigError(f"tolerances names unknown check {name!r}")
            tol = _number(f"tolerances.{name}", tol)
            if tol < 0:
                raise ConfigError(f"tolerances.{name} must be >= 0")
            self.tolerances[name] = tol

    @classmethod
    def from_dict(cls, data: dict) -> "SuiteConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
        if "chart" not in data:
            raise ConfigError("config field 'chart' is required")
        return cls(**data)

    def to_dict(self) -> dict:
        return asdict(self)


def build_chart(spec: dict) -> KahlerChart:
    """The chart a chart spec names; its fields are validated as config
    fields ``chart.<key>``, and a value the constructor rejects as out of
    range is a ConfigError too."""
    spec = dict(spec)
    name = spec.pop("name", None)
    if name == "fubini_study":
        make, defaults = fubini_study_chart, {"n": 1, "domain_radius": 2.0}
    elif name == "flat":
        make, defaults = flat_kahler_chart, {"p": 1, "q": 0,
                                             "domain_radius": 10.0}
    else:
        raise ConfigError(f"chart_spec names unknown chart {name!r}")
    args = {key: _number(f"chart.{key}", spec.pop(key, default),
                         type(default))
            for key, default in defaults.items()}
    if spec:
        raise ConfigError(f"chart_spec has unknown field(s): {sorted(spec)}")
    try:
        return make(**args)
    except ValueError as exc:
        raise ConfigError(f"chart_spec {name!r}: {exc}") from None


def build_solution(spec: str, chart: KahlerChart) -> ScalarField:
    """The field a solution spec names; its argument is validated as the
    config field ``solution``, and a value the constructor rejects as out of
    range is a ConfigError too."""
    kind, _, arg = spec.partition(":")
    if kind == "constant":
        return ConstField(chart.dim, _number("solution", arg))
    if kind == "height" and not chart.name.startswith("Fubini-Study"):
        raise ConfigError("solution_spec 'height' requires a fubini_study chart")
    if kind in ("height", "quadratic"):
        k = _number("solution", arg, int) if arg else 0
        try:
            if kind == "height":
                return cpn_height_function(chart.n, k)
            return random_quadratic_field(chart.dim, k)
        except ValueError as exc:
            raise ConfigError(f"solution_spec {spec!r}: {exc}") from None
    if kind == "sphere_quadratic":
        if chart.dim != 2:
            raise ConfigError("solution_spec 'sphere_quadratic' requires CP(1)")
        return sphere_second_eigenfunction()
    raise ConfigError(f"solution_spec names unknown solution {spec!r}")


# ---------------------------------------------------------------------------
# Check context
# ---------------------------------------------------------------------------

@dataclass
class CheckContext:
    """A suite's inputs, and what several checks read at the samples,
    evaluated once, on first use (an error is not cached: every check that
    needs the object records it).

    The samples are evaluated in one pass in blocks: the chart through
    metric order 2 and f through order 3, one block of at most
    :data:`~tannolab.charts.SAMPLE_BLOCK` points at a time.  From it come
    the per-point residuals of six checks (or why a row is absent), f's
    Taylor coefficients through order 2, and the unit problem's g and Gamma
    at the samples as two arrays; from those the operator, its spectra and
    the bundle.  Larger jets are not kept: they would stay alive across the
    checks that follow, and only one block's exist at a time.
    """

    chart: KahlerChart
    f: ScalarField
    c: float
    P: np.ndarray       # the (N, d) batch of sample points
    seed: int

    @classmethod
    def from_config(cls, config: SuiteConfig) -> "CheckContext":
        chart = build_chart(config.chart)
        f = build_solution(config.solution, chart)
        if config.radius is not None and config.radius > chart.domain_radius:
            raise ConfigError(f"config field 'radius' ({config.radius:g}) "
                              f"exceeds the chart domain radius "
                              f"{chart.domain_radius:g}")
        points = sample_points(chart, config.samples, config.seed,
                               config.radius)
        return cls(chart, f, config.c, np.array(points), config.seed)

    @property
    def problem(self) -> TannoProblem:
        return TannoProblem(self.chart, self.f, self.c)

    @cached_property
    def unit_problem(self) -> TannoProblem:
        """The c = 1 normalization (metric rescaled by c); c = 0 skips."""
        if self.c == 0:
            raise SkipCheck(_NO_UNIT)
        return self.problem.rescaled()

    @property
    def unit_geometry(self) -> tuple[np.ndarray, np.ndarray]:
        """(g0, G0): the unit problem's g (N, d, d) and Gamma (N, d, d, d)
        at the samples, from the pass; c = 0 skips."""
        if self.c == 0:
            raise SkipCheck(_NO_UNIT)
        return self._sample_pass[3]

    @property
    def f_coeffs(self) -> np.ndarray:
        """f's Taylor coefficients through order 2 at the samples, from the
        pass."""
        return self._sample_pass[2]

    @cached_property
    def operator(self) -> np.ndarray:
        """The (N, d+2, d+2) entries of L(f) of the unit problem at the
        sample points."""
        return _operator(self.f_coeffs, *self.unit_geometry, self.chart.J)

    @cached_property
    def spectra(self) -> list[SpectrumResult]:
        """The clustered spectrum of L(f) at each sample point."""
        return spectra(self.operator)

    @cached_property
    def bundle(self) -> SolutionBundle:
        """The unit problem's (a_ij, f_i, mu) at the samples."""
        g0, G0 = self.unit_geometry
        return _bundle(_point_chain(self.f_coeffs, G0), g0)

    @property
    def sample_rows(self) -> dict[str, np.ndarray]:
        """Per-point residuals of kahler.residuals, eq1.residual,
        rem1.laplace_identity, rem2.lightlike_f3 (max |f_{,ijk} v^i v^j v^k|
        over null vectors v; only where g is indefinite at every sample),
        sys.residual (the worst of its three row blocks) and
        sys.trace_identity, by check name, from the pass."""
        return self._sample_pass[0]

    @cached_property
    def _sample_pass(self):
        """(sample_rows, absent, f_coeffs, unit_geometry) from one pass in
        blocks of :data:`~tannolab.charts.SAMPLE_BLOCK` points, one
        :func:`_order3` each; ``absent`` gives, by check name, why a row was
        left out.  Each block's per-point results are written into arrays
        over all samples (:func:`~tannolab.charts.chunked`), so the pass
        holds one block's jets.  A singular metric stops the pass in the
        first block that holds one; its error names the first singular
        sample, as one block of all samples would.

        A block's unit geometry is its own rescaled by c
        (:meth:`ChartJets.rescaled`), with the same Gamma, so f's covariant
        chain serves both; the unit geometry kept is the arrays of g and
        Gamma at the samples.  rem2's null vectors come from one seeded
        draw for all samples, and its row is absent unless g is indefinite
        at every sample.  At c = 0 there is no unit chart: the two sys.*
        rows are absent, the geometry is None.
        """
        prob, d = self.problem, self.chart.dim
        unit = None if self.c == 0 else self.unit_problem.chart
        normals = np.random.default_rng(self.seed).normal(
            size=(len(self.P), NULL_VECTORS, d))

        def block(P, draw):
            geo, cov = _order3(self.chart, self.f, P)
            null = _null_vectors(geo.g0, draw)
            out = (np.max(_kahler_rows(geo), axis=0),
                   frob_rows(_third_order_terms(prob, geo, cov, jstruct=True)),
                   _laplace_rows(prob, geo, cov),
                   np.full(len(P), null is not None),
                   np.zeros(len(P)) if null is None else
                   np.abs(_cubic_form(cov[3][..., 0], null)).max(1),
                   cov[0][:, :size(d, 2)])
            if unit is None:
                return out
            geo = geo.rescaled(self.c, unit)
            *system, trace = _system_rows(geo, cov)
            return out + (np.max(system, axis=0), trace, geo.g0, geo.gamma0)

        kahler, eq1, rem1, mixed, rem2, fc, *unit_rows = charts.chunked(
            block, self.P, normals, size=charts.SAMPLE_BLOCK)
        rows = {"kahler.residuals": kahler, "eq1.residual": eq1,
                "rem1.laplace_identity": rem1}
        absent = {}
        if mixed.all():
            rows["rem2.lightlike_f3"] = rem2
        else:
            absent["rem2.lightlike_f3"] = "needs a metric of mixed signature"
        if unit is None:
            absent["sys.residual"] = absent["sys.trace_identity"] = _NO_UNIT
            return rows, absent, fc, None
        system, trace, *geometry = unit_rows
        rows["sys.residual"], rows["sys.trace_identity"] = system, trace
        return rows, absent, fc, tuple(geometry)

    def require_nonconstant(self) -> None:
        """SkipCheck when f is constant on the samples: the paper's lemmas on
        the spectrum and projectors of L(f) assume a non-constant solution."""
        fc, d = self.f_coeffs, self.chart.dim
        values, gradients = fc[:, 0], fc[:, 1:d + 1]
        if is_constant(float(values.max() - values.min()),
                       np.linalg.norm(gradients, axis=1)):
            raise SkipCheck("hypothesis not met: the paper's lemmas on L(f) "
                            "assume a non-constant solution")

    @cached_property
    def projector(self) -> tuple[PolynomialReal, ScalarField, np.ndarray]:
        """(P, P*(f), L) of the unit problem over the sample points, with P
        built from ``spectra[0]`` and L the (N, d+2, d+2) entries of
        L(P*(f)) at the points.  A constant f raises SkipCheck."""
        self.require_nonconstant()
        return _projector_with_operator(self.unit_problem, self.P,
                                        self.spectra[0], *self.unit_geometry)


def _null_vectors(g0: np.ndarray, draw: np.ndarray) -> np.ndarray | None:
    """(Z, K, d) null vectors v = u+ + u- of the metrics g0 from the
    (Z, K, d) standard normal ``draw``, with g(u+-, u+-) = +-1 from g's
    eigenbasis, scaled to unit euclidean length; None unless every metric
    is indefinite."""
    lam = np.linalg.eigvalsh(g0)
    if not (np.all(lam[:, 0] < 0) and np.all(lam[:, -1] > 0)):
        return None
    lam, Q = np.linalg.eigh(g0)
    pos = (lam > 0)[:, None, :]
    y = sum(u / np.linalg.norm(u, axis=-1, keepdims=True)
            for u in (draw * pos, draw * ~pos))
    v = np.einsum("zij,zkj->zki", Q, y / np.sqrt(np.abs(lam))[:, None, :])
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


@dataclass
class CheckOutcome:
    max_residual: float
    points: int
    note: str = ""


def _worst(residuals) -> CheckOutcome:
    """Outcome from per-point residuals: their maximum over the batch."""
    res = np.asarray(residuals, dtype=float)
    return CheckOutcome(float(np.max(res)), len(res))


def _deviation(a, b) -> float:
    """1.0 when value lists a and b differ in length, else max |a - b|."""
    if len(a) != len(b):
        return 1.0
    return float(np.max(np.abs(np.subtract(a, b)), initial=0.0))


# ---------------------------------------------------------------------------
# The checks, registered in report order
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckSpec:
    func: object
    tolerance: float
    description: str


REGISTRY: dict[str, CheckSpec] = {}


def _check(name: str, tolerance: float, description: str):
    """Register the decorated check as ``name``, after those defined above."""
    def register(func):
        REGISTRY[name] = CheckSpec(func, tolerance, description)
        return func
    return register


def _pass_row(name: str, tolerance: float, description: str):
    """Register the check of the sample pass's row ``name``: its worst
    value, or SkipCheck with the reason the pass left the row out."""
    def check(ctx: CheckContext) -> CheckOutcome:
        rows, absent = ctx._sample_pass[:2]
        if name in absent:
            raise SkipCheck(absent[name])
        return _worst(rows[name])
    return _check(name, tolerance, description)(check)


check_kahler_residuals = _pass_row(
    "kahler.residuals", 1e-9,
    "chart structure: |J^2+Id|, |J^T g J - g|, |nabla J| at samples")
check_tanno_residual = _pass_row(
    "eq1.residual", 1e-7,
    "third-order equation residual f_,ijk + c(2f_k g_ij + ... - Jbar terms)")

@_check("eq2.residual", 1e-8, "J-free third-order equation residual (real form)")
def check_gallot_tanno(ctx: CheckContext) -> CheckOutcome:
    return _worst(frob_rows(gallot_tanno_residual(ctx.problem, ctx.P)))

check_laplace_identity = _pass_row(
    "rem1.laplace_identity", 1e-6,
    "contracted identity (Delta f)_,k = -4c(n+1) f_,k")
check_lightlike_f3 = _pass_row(
    "rem2.lightlike_f3", 1e-9,
    "T3(v,v,v) = 0 at null vectors of g (f''' along lightlike geodesics)")
check_system_residual = _pass_row(
    "sys.residual", 1e-7,
    "first-order system residuals for (a_ij, f_i, mu), c=1")
check_trace_identity = _pass_row(
    "sys.trace_identity", 1e-6, "trace identity f_i = 1/4 (a^al_al)_,i")

@_check("sys.inverse_roundtrip", 0.0,
        "f_from_mu after bundle_from_f recovers f exactly")
def check_inverse_roundtrip(ctx: CheckContext) -> CheckOutcome:
    return _worst(np.abs(f_from_mu(ctx.bundle.mu) - ctx.f_coeffs[:, 0]))

def _random_polyline(chart, rng):
    r = 0.6 * chart.domain_radius
    return [rng.uniform(-r / np.sqrt(chart.dim), r / np.sqrt(chart.dim),
                        size=chart.dim) for _ in range(4)]

def _bundle_at(b: SolutionBundle, k: int) -> SolutionBundle:
    return SolutionBundle(b.a[k], b.grad[k], float(b.mu[k]))

def _bundle_distance(x: SolutionBundle, y: SolutionBundle) -> float:
    return float(np.sqrt(frob(x.a - y.a) ** 2
                         + np.linalg.norm(x.grad - y.grad) ** 2
                         + (x.mu - y.mu) ** 2))

@_check("lem1.transport_zero", 1e-10,
        "zero initial bundle stays zero along random curves")
def check_transport_zero(ctx: CheckContext) -> CheckOutcome:
    chart = ctx.unit_problem.chart
    rng = np.random.default_rng(ctx.seed)
    d = chart.dim
    paths = [_random_polyline(chart, rng) for _ in range(10)]
    zero = SolutionBundle(np.zeros((d, d)), np.zeros(d), 0.0)
    out = transport_bundle(chart, paths, zero)
    return CheckOutcome(max(_bundle_at(out, k).norm() for k in range(10)), 10)

@_check("lem1.transport_match", 1e-5,
        "solution bundle transported p->q matches direct evaluation")
def check_transport_match(ctx: CheckContext) -> CheckOutcome:
    chart = ctx.unit_problem.chart
    trials = min(6, len(ctx.P) - 1)
    if trials == 0:
        raise SkipCheck("needs at least two sample points")
    b = ctx.bundle
    out = transport_bundle(chart, np.stack([ctx.P[:trials], ctx.P[1:trials + 1]], 1),
                           SolutionBundle(b.a[:trials], b.grad[:trials], b.mu[:trials]))
    worst = 0.0
    for k in range(trials):
        ref = _bundle_at(b, k + 1)
        worst = max(worst, _bundle_distance(_bundle_at(out, k), ref)
                    / max(1.0, ref.norm()))
    return CheckOutcome(worst, trials)

@_check("lem1.transport_loop", 1e-5,
        "solution bundle returns to itself around a closed loop")
def check_transport_loop(ctx: CheckContext) -> CheckOutcome:
    chart = ctx.unit_problem.chart
    start = ctx.P[0]
    # The circle through P[0] bends toward the origin, in the plane of
    # u = P[0]/|P[0]| and the coordinate axis most nearly orthogonal to u.
    # Its points lie within max(|P[0]|, 2r - |P[0]|) of the origin, inside
    # the domain for r = 0.3 R.
    r = 0.3 * chart.domain_radius
    norm = float(np.linalg.norm(start))
    u = start / norm if norm > 0 else np.eye(chart.dim)[0]
    w = np.eye(chart.dim)[int(np.argmin(np.abs(u)))]
    w = w - (w @ u) * u
    w /= np.linalg.norm(w)
    loop = [start + r * (np.cos(t) - 1.0) * u + r * np.sin(t) * w
            for t in np.linspace(0.0, 2 * np.pi, 41)]
    init = _bundle_at(ctx.bundle, 0)       # at loop[0] = P[0]
    out = transport_bundle(chart, loop, init)
    defect = _bundle_distance(out, init)
    return CheckOutcome(defect / max(1.0, init.norm()), len(loop))

@_check("op.identity_at_constant", 0.0,
        "extended operator of f = -1/2 is the identity")
def check_operator_identity(ctx: CheckContext) -> CheckOutcome:
    d = ctx.chart.dim
    L = _operator(ConstField(d, -0.5).taylor(ctx.P, 2), *ctx.unit_geometry,
                  ctx.chart.J)
    return _worst(frob_rows(L - np.eye(d + 2)))

@_check("eq_product.block_identity", 1e-10,
        "block product formula for L(f) L(F), arbitrary smooth fields")
def check_block_identity(ctx: CheckContext) -> CheckOutcome:
    chart = ctx.unit_problem.chart
    pts = ctx.P[:5]
    g0, G0 = (x[:5] for x in ctx.unit_geometry)
    worst = 0.0
    for k in range(5):
        fa = random_polynomial_field(chart.dim, ctx.seed + 2 * k)
        fb = random_polynomial_field(chart.dim, ctx.seed + 2 * k + 1)
        rep = _product_block(_operator(fa.taylor(pts, 2), g0, G0, chart.J),
                             _operator(fb.taylor(pts, 2), g0, G0, chart.J),
                             g0, chart.J)
        worst = max(worst, float(np.max(rep.block_residual)))
    return CheckOutcome(worst, 5 * len(pts))

@_check("lem2.star_power", 1e-7,
        "L(f^{*k}) = L(f)^k for k = 2, 3, 4 on solutions")
def check_star_power(ctx: CheckContext) -> CheckOutcome:
    prob = ctx.unit_problem
    chart = prob.chart
    pts = ctx.P[:20]
    L1 = ctx.operator[:20]
    g0, G0 = (x[:20] for x in ctx.unit_geometry)
    worst = 0.0
    for k, fc in enumerate(star_power(chart, prob.f, 4).levels(pts, 2), 2):
        worst = max(worst, float(np.max(frob_rows(
            _operator(fc, g0, G0, chart.J) - np.linalg.matrix_power(L1, k)))))
    return CheckOutcome(worst, len(pts))

@_check("cor1.poly_star_closure", 1e-7,
        "P*(f) remains a solution for real polynomials P")
def check_poly_star_closure(ctx: CheckContext) -> CheckOutcome:
    prob = ctx.unit_problem
    chart = prob.chart
    P_proj = ctx.projector[0]
    polys = [P_proj, PolynomialReal((0.0, 0.0, 1.0)), PolynomialReal((1.0,))]
    pts = ctx.P[:8]
    geo = chart.at(pts, 2)
    worst = 0.0
    for P in polys:
        fc = poly_star(chart, prob.f, P).taylor(pts, 3)
        cov = scalar_covariant_jets(fc, geo.gamma_coeffs(), chart.dim, 2)
        worst = max(worst, float(np.max(_system_rows(geo, cov)[:3])))
    return CheckOutcome(worst, len(pts))

@_check("cor2.spectrum_constancy", 1e-6,
        "clustered spectrum of the extended operator is point-independent")
def check_spectrum_constancy(ctx: CheckContext) -> CheckOutcome:
    base = ctx.spectra[0].clusters
    worst = 0.0
    for spec in ctx.spectra[1:]:
        s = spec.clusters
        same = [m for _, m in s] == [m for _, m in base]
        worst = max(worst, _deviation([v for v, _ in s], [v for v, _ in base])
                    if same else 1.0)
    return CheckOutcome(worst, len(ctx.spectra))

@_check("lem3.minimal_polynomial", 1e-5,
        "minimal polynomial coefficients agree across points")
def check_minimal_polynomial(ctx: CheckContext) -> CheckOutcome:
    polys = [_minimal_polynomial(L, spec).coeffs
             for L, spec in zip(ctx.operator[:20], ctx.spectra[:20])]
    worst = max((_deviation(cs, polys[0]) for cs in polys[1:]), default=0.0)
    return CheckOutcome(worst, len(polys))

@_check("lem4.two_real_eigenvalues", 0.5,
        "at least two distinct real eigenvalue clusters everywhere")
def check_two_real_eigenvalues(ctx: CheckContext) -> CheckOutcome:
    ctx.require_nonconstant()
    counts = [len(s.clusters) for s in ctx.spectra]
    bad = sum(1 for c in counts if c < 2)
    return CheckOutcome(float(bad), len(counts),
                        note="points with fewer than two real clusters")

@_check("lem5.projector", 1e-7,
        "Lagrange polynomial yields a non-trivial projector; 0 <= mu <= 1")
def check_projector(ctx: CheckContext) -> CheckOutcome:
    P, _, Ls = ctx.projector
    worst = float(np.max(frob_rows(Ls @ Ls - Ls)))
    mu = _blocks(Ls)[0]
    mu_violation = float(np.max(np.maximum(0.0, np.maximum(-mu, mu - 1.0))))
    return CheckOutcome(max(worst, mu_violation), len(ctx.P),
                        note=f"P = {P!r}")

@_check("lem6.eigenstructure", 1e-6,
        "eigenvalue/multiplicity table of a^i_j per interior/max/min case")
def check_eigenstructure(ctx: CheckContext) -> CheckOutcome:
    _, _, Ls = ctx.projector
    n = ctx.chart.n
    worst = 0.0
    seen = set()
    for rep in _eigenstructure(Ls):
        seen.add(rep.classification)
        expected = rep.expected_clusters(n)
        exp_sorted = sorted(v for v, m in expected.items() for _ in range(m))
        act_sorted = sorted(v for v, m in rep.clusters for _ in range(m))
        worst = max(worst, _deviation(exp_sorted, act_sorted))
    return CheckOutcome(worst, len(ctx.P),
                        note="cases seen: " + ", ".join(sorted(seen)))

@_check("eq_mu.hessian", 1e-7,
        "internal consistency check, not a claim: mu_,ij = 2a_ij - 2 mu g_ij")
def check_mu_hessian(ctx: CheckContext) -> CheckOutcome:
    return _worst(_mu_hessian_rows(ctx.f_coeffs, *ctx.unit_geometry))

@_check("thm3.positivity", 0.5,
        "metric inertia (2n,0) at samples; eigenspace restrictions at extrema")
def check_positivity(ctx: CheckContext) -> CheckOutcome:
    _, f_proj, Ls = ctx.projector
    probP = TannoProblem(ctx.unit_problem.chart, f_proj, 1.0)
    # P*(f) = -mu/2 and its gradient, read off the verified L(P*(f)).
    mu, grad = _blocks(Ls)[:2]
    report = _positivity_scan(probP, ctx.P, ctx.unit_geometry[0],
                              -0.5 * mu, grad)
    ok = report.verdict == "positive"
    for fnd in report.extremal_findings:
        ok = ok and fnd.kind != "interior"
        if fnd.g_restricted_inertia is not None:
            ok = ok and fnd.g_restricted_inertia[1] == 0
            ok = ok and fnd.identity_residual < 1e-6
        if fnd.kind == "mu_max":
            ok = ok and all(e <= 1e-6 for e in fnd.hessian_eigs)
    note = (f"verdict={report.verdict}; inertia=({report.n_pos},{report.n_neg}); "
            f"cases={','.join(report.witnessed_cases)}; "
            f"newton_iterations={report.newton_iterations}; "
            f"starts_converged={report.starts_converged}/{report.starts_total}; "
            f"critical_sets={len(report.extremal_findings)}")
    return CheckOutcome(0.0 if ok else 1.0, len(ctx.P), note=note)

@_check("oracle.derivatives", 1e-6,
        "jet derivatives (orders 1-3, Christoffel) vs finite differences")
def check_oracle_derivatives(ctx: CheckContext) -> CheckOutcome:
    chart, f = ctx.chart, ctx.f
    pts = ctx.P[:3]
    # Exact derivatives for all points in one batch; each oracle call
    # evaluates its whole stencil around one point in one batch.
    fj = f.jets(pts, 3)
    exactG = christoffel(chart, pts).components
    worst = 0.0
    for k, q in enumerate(pts):
        worst = max(worst, _rel_err(fj[1][k], fd.fd_gradient(f, q)))
        worst = max(worst, _rel_err(fj[2][k], fd.fd_hessian(f, q)))
        worst = max(worst, _rel_err(fj[3][k], fd.fd_third(f, q)))
        worst = max(worst, _rel_err(exactG[k], fd.christoffel_fd(chart, q)))
    return CheckOutcome(worst, len(pts))

def _rel_err(exact, approx) -> float:
    exact = np.asarray(exact, float)
    approx = np.asarray(approx, float)
    return frob(exact - approx) / max(1.0, frob(exact))


# eq2 (the J-free equation) is satisfied by different fields than eq1 on the
# same chart, so it only runs when a config asks for it explicitly.
DEFAULT_CHECKS = [name for name in REGISTRY if name != "eq2.residual"]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class CheckRecord:
    name: str
    max_residual: float
    tolerance: float
    passed: bool
    points: int
    seconds: float
    status: str = "ok"            # ok | skipped | error
    note: str = ""


@dataclass
class VerificationReport:
    checks: list[CheckRecord]
    verdict: str
    version: str
    config: dict

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self, zero_timing: bool = False) -> dict:
        recs = []
        for r in self.checks:
            d = asdict(r)
            if zero_timing:
                d["seconds"] = 0.0
            recs.append(d)
        return {"tool": "tannolab", "version": self.version,
                "config": self.config, "checks": recs, "verdict": self.verdict}

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationReport":
        checks = [CheckRecord(**r) for r in data["checks"]]
        return cls(checks, data["verdict"], data["version"], data["config"])


def run_suite(config: SuiteConfig) -> VerificationReport:
    ctx = CheckContext.from_config(config)
    names = config.checks or DEFAULT_CHECKS
    records = []
    for name in names:
        spec = REGISTRY[name]
        tol = config.tolerances.get(name, spec.tolerance)
        t0 = time.perf_counter()
        try:
            out = spec.func(ctx)
            result = float(out.max_residual), int(out.points), "ok", out.note
        except SkipCheck as exc:
            result = math.nan, 0, "skipped", str(exc)
        except Exception as exc:   # a broken check never aborts the suite
            result = math.inf, 0, "error", f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        residual, points, status, note = result
        passed = status == "skipped" or (status == "ok" and residual <= tol)
        records.append(CheckRecord(name, residual, tol, passed, points,
                                   seconds, status, note))
    verdict = "pass" if all(r.passed for r in records) else "fail"
    return VerificationReport(records, verdict, __version__, config.to_dict())


def emit_report(report: VerificationReport, fmt: str = "json",
                destination=None, zero_timing: bool = False) -> str:
    """Serialize a report; writes to a path or file object if given."""
    if fmt == "json":
        text = json.dumps(report.to_dict(zero_timing=zero_timing),
                          indent=2, sort_keys=True, allow_nan=True) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["check", "max_residual", "tolerance", "pass",
                         "points", "seconds"])
        for r in report.checks:
            seconds = 0.0 if zero_timing else r.seconds
            writer.writerow([r.name, repr(r.max_residual), repr(r.tolerance),
                             r.passed, r.points, repr(seconds)])
        text = buf.getvalue()
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    if destination is not None:
        if hasattr(destination, "write"):
            destination.write(text)
        else:
            with open(destination, "w") as fh:
                fh.write(text)
    return text


def load_report(path) -> VerificationReport:
    """The report stored at path; ConfigError naming what a file that is
    not a report lacks."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError(f"{path} is not a report: its top level is not "
                          f"a JSON object")
    missing = [key for key in ("checks", "verdict", "version", "config")
               if key not in data]
    if missing:
        raise ConfigError(f"{path} is not a report: no field(s) {missing}")
    try:
        return VerificationReport.from_dict(data)
    except TypeError as exc:
        raise ConfigError(f"{path} is not a report: {exc}") from None

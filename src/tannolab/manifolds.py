"""Concrete pseudo-Kahler charts, test fields and a geodesic integrator."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import dop853
from . import jets as J
from .charts import KahlerChart, chunked
from .errors import NotLightlike
from .fields import ExprField, ScalarField

#: |g(v,v)| below this tags a geodesic as lightlike.
LIGHTLIKE_TOL = 1e-8

#: Coefficient scale of :func:`random_polynomial_field`.
POLY_SCALE = 0.5

#: Relative and absolute tolerance of the DOP853 geodesic integration.  At
#: 1e-11 the equator test's geodesic_residual is 5.5e-9, a 2x margin to 1e-8.
GEODESIC_TOL = 1e-12

#: A geodesic is converged when g(v, v) drifts by at most this times
#: 1 + |g(v0, v0)| over its samples.
CONSERVATION_TOL = 1e-8


def flat_kahler_chart(p: int, q: int, domain_radius: float = 10.0) -> KahlerChart:
    """Constant metric of signature (2p, 2q) with the standard J.

    Signs come in J-invariant pairs so the complex structure is compatible.
    """
    if p < 0 or q < 0 or p + q < 1:
        raise ValueError("need p, q >= 0 with p + q >= 1")
    signs = np.concatenate([np.ones(2 * p), -np.ones(2 * q)])
    return KahlerChart.from_constant(
        np.diag(signs), domain_radius, name=f"flat ({p},{q})")


def fubini_study_chart(n: int, domain_radius: float = 2.0) -> KahlerChart:
    """One affine patch of CP(n), holomorphic sectional curvature 1.

    Real potential 2*log(1 + |z|^2); the induced metric at the origin is
    4*Id.  For n = 1 this is the unit round sphere in stereographic
    coordinates, metric 4/(1+r^2)^2 * Id.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    dim = 2 * n

    def potential(x):
        r2 = x[0] * x[0]
        for xi in x[1:]:
            r2 = r2 + xi * xi
        return 2 * J.log(1 + r2)

    return KahlerChart.from_potential(
        dim, potential, domain_radius, name=f"Fubini-Study CP({n})")


def cpn_height_function(n: int, axis: int = 0) -> ScalarField:
    """A first-eigenvalue eigenfunction of the Laplacian on CP(n).

    In homogeneous coordinates these are 2*(|Z_axis|^2/|Z|^2 - 1/(n+1));
    the normalization makes the n=1, axis=0 member the classical height
    (1-|z|^2)/(1+|z|^2) of the round sphere.  Satisfies
    Delta f = -(n+1) f on the curvature-1 chart.
    """
    if not 0 <= axis <= n:
        raise ValueError("axis must lie in 0..n")
    dim = 2 * n
    shift = 2.0 / (n + 1)

    def fn(x):
        r2 = x[0] * x[0]
        for xi in x[1:]:
            r2 = r2 + xi * xi
        denom = 1 + r2
        if axis == 0:
            num = J.Jet.constant(2.0, dim, x[0].order)
        else:
            a, b = x[2 * (axis - 1)], x[2 * axis - 1]
            num = 2 * (a * a + b * b)
        return num / denom - shift

    return ExprField(dim, fn, name=f"CP({n}) height[{axis}]")


def sphere_second_eigenfunction() -> ScalarField:
    """h^2 - 1/3 with h the height on the unit S^2 = CP(1).

    Second-eigenvalue eigenfunction (Delta f = -6 f); satisfies the
    J-free third-order equation with c = 1 on the curvature-1 chart.
    """

    def fn(x):
        r2 = x[0] * x[0] + x[1] * x[1]
        h = (1 - r2) / (1 + r2)
        return h * h - 1.0 / 3.0

    return ExprField(2, fn, name="S^2 second eigenfunction")


class CubicField(ScalarField):
    """c0 + lin_i x^i + quad_ij x^i x^j + cub_ijk x^i x^j x^k.

    quad and cub are symmetrized once, to Q and C.  Then the jets are in
    closed form: gradient lin + 2Qx + 3C(x, x), Hessian 2Q + 6C(x), third
    derivative 6C, zero above.  Each contraction is a broadcast product
    summed over the last coordinate axis, so a point gives the same bits
    alone as in any batch.
    """

    def __init__(self, c0: float, lin, quad, cub, name: str = "cubic"):
        super().__init__(len(lin))
        quad = np.asarray(quad, dtype=float)
        cub = np.asarray(cub, dtype=float)
        self.c0 = float(c0)
        self.lin = np.asarray(lin, dtype=float)
        self.quad = 0.5 * (quad + quad.T)
        self.cub = sum(cub.transpose(perm)
                       for perm in itertools.permutations(range(3))) / 6.0
        self.name = name

    def _jets(self, P, order):
        n, d = P.shape
        Cx = (self.cub * P[:, None, None, :]).sum(-1)
        Cxx = (Cx * P[:, None, :]).sum(-1)
        Qx = (self.quad * P[:, None, :]).sum(-1)
        value = (self.c0 + (self.lin * P).sum(-1) + (Qx * P).sum(-1)
                 + (Cxx * P).sum(-1))
        terms = [value, self.lin + 2.0 * Qx + 3.0 * Cxx,
                 2.0 * self.quad + 6.0 * Cx,
                 np.repeat(6.0 * self.cub[None], n, axis=0)]
        return terms[:order + 1] + [np.zeros((n,) + (d,) * m)
                                    for m in range(4, order + 1)]

    def __repr__(self):
        return f"CubicField({self.name}, dim={self.dim})"


def random_polynomial_field(dim: int, seed: int, degree: int = 3) -> ScalarField:
    """Seeded random polynomial of degree 3 (or 2); generic smooth test input."""
    rng = np.random.default_rng(seed)
    lin = rng.normal(size=dim) * POLY_SCALE
    quad = rng.normal(size=(dim, dim)) * POLY_SCALE
    cub = rng.normal(size=(dim, dim, dim)) * (POLY_SCALE if degree >= 3 else 0.0)
    c0 = rng.normal() * POLY_SCALE
    return CubicField(c0, lin, quad, cub,
                      name=f"poly(seed={seed}, deg={degree})")


def random_quadratic_field(dim: int, seed: int) -> ScalarField:
    """Seeded random quadratic: a flat-chart solution of f_{,ijk} = 0."""
    return random_polynomial_field(dim, seed, degree=2)


def sample_points(chart: KahlerChart, count: int, seed: int,
                  radius: float | None = None) -> list[np.ndarray]:
    """Deterministic points uniform in the ball of the given radius."""
    if radius is None:
        radius = 0.75 * chart.domain_radius
    if radius > chart.domain_radius:
        raise ValueError("sampling radius exceeds the chart domain radius")
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(count):
        v = rng.normal(size=chart.dim)
        v /= np.linalg.norm(v)
        r = radius * rng.uniform() ** (1.0 / chart.dim)
        pts.append(r * v)
    return pts


# ---------------------------------------------------------------------------
# Geodesics
# ---------------------------------------------------------------------------

@dataclass
class GeodesicPath:
    """A geodesic's dense solution, its output grid and causal metadata.

    ``solution`` maps times to stacked states (x, v); ``samples`` evaluates
    it on ``steps + 1`` uniform times in [0, T], up to ``t_end``.
    """

    solution: Callable[[np.ndarray], np.ndarray]
    T: float
    steps: int                      # output intervals of the sample grid
    t_end: float                    # T, or where the path left the domain
    causal_type: str                # "spacelike" | "timelike" | "lightlike"
    left_domain: bool = False
    energy: float = 0.0             # g(v0, v0)
    converged: bool = False         # solver succeeded and drift within bound
    drift: float = 0.0              # max |g(v,v) - g(v0,v0)| over the samples
    rhs_calls: int = 0              # right-hand-side evaluations

    def grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample times and the (n, d) points and velocities at them."""
        t = np.linspace(0.0, self.T, self.steps + 1)
        t = t[np.abs(t) <= abs(self.t_end)]
        y = self.solution(t).T
        d = y.shape[1] // 2
        return t, y[:, :d], y[:, d:]

    @cached_property
    def samples(self) -> list[tuple[float, np.ndarray, np.ndarray]]:
        t, X, V = self.grid()
        return [(float(tk), x, v) for tk, x, v in zip(t, X, V)]


def _geodesic_rhs(chart: KahlerChart, x, v):
    G0 = chart.christoffel_jets(x, 0)[0]
    acc = -np.einsum("kij,i,j->k", G0, v, v)
    return v, acc


def integrate_geodesic(chart: KahlerChart, x0, v0, T: float,
                       steps: int = 256) -> GeodesicPath:
    """Adaptive DOP853 integration of the geodesic equation on [0, T].

    The package's DOP853 (:mod:`tannolab.dop853`) runs at ``rtol = atol =
    GEODESIC_TOL`` and keeps its dense solution; ``steps`` sets the number
    of uniform output intervals.  The path is ``converged`` when the solver
    did not fail and g(v, v) drifts by at most ``CONSERVATION_TOL * (1 +
    |g(v0,v0)|)`` over the samples; nothing is retried.  If the path leaves
    the chart domain it ends there and is flagged; if the right-hand side
    turns non-finite it ends at its last accepted step, not converged.
    """
    if steps < 16:
        raise ValueError("steps must be >= 16")
    P, _ = chart.batch(x0)          # validated and inside the domain
    x0 = P[0]
    v0 = np.asarray(v0, dtype=float)
    q0 = chart.inner(x0, v0, v0)
    if abs(q0) < LIGHTLIKE_TOL:
        causal = "lightlike"
    elif q0 > 0:
        causal = "spacelike"
    else:
        causal = "timelike"

    d = chart.dim

    def rhs(y):
        return np.concatenate(_geodesic_rhs(chart, y[:d], y[d:]))

    def leaves_domain(y):
        return np.linalg.norm(y[:d]) - chart.domain_radius

    run = dop853.integrate(rhs, np.concatenate([x0, v0]), T, GEODESIC_TOL,
                           event=leaves_domain)
    path = GeodesicPath(run.solution, T, int(steps), float(run.t_end), causal,
                        left_domain=run.status == "event", energy=q0,
                        rhs_calls=run.rhs_calls)
    _, X, V = path.grid()
    dev = chunked(lambda x, v: np.abs(chart.inner(x, v, v) - q0), X, V)
    path.drift = float(np.max(dev))
    path.converged = bool(run.status != "failed"
                          and path.drift <= CONSERVATION_TOL * (1 + abs(q0)))
    return path


def geodesic_residual(chart: KahlerChart, path: GeodesicPath) -> float:
    """Max |x'' + Gamma(x', x')| over midpoints, via 4-point stencils.

    Uses the O(dt^4) midpoint derivative (v_{k-1} - 27 v_k + 27 v_{k+1}
    - v_{k+2}) / (24 dt) along with cubic midpoint interpolation on the
    sample grid, so the check is independent of the integrator.
    """
    t, X, V = path.grid()
    if len(t) < 4:
        return 0.0
    dt = t[1] - t[0]
    vm1, v0_, v1, v2 = V[:-3], V[1:-2], V[2:-1], V[3:]
    acc = (vm1 - 27 * v0_ + 27 * v1 - v2) / (24 * dt)
    xm = (-X[:-3] + 9 * X[1:-2] + 9 * X[2:-1] - X[3:]) / 16.0
    vm = (-vm1 + 9 * v0_ + 9 * v1 - v2) / 16.0

    def norms(x, v, a):
        G0 = chart.christoffel_jets(x, 0)[0]
        res = a + np.einsum("zkij,zi,zj->zk", G0, v, v)
        return np.array([np.linalg.norm(r) for r in res])

    return float(np.max(chunked(norms, xm, vm, acc)))


def random_lightlike_directions(chart: KahlerChart, count: int, seed: int,
                                p_blocks: int, q_blocks: int) -> list[np.ndarray]:
    """Null directions of a flat (p,q) chart, unit euclidean scale."""
    if p_blocks < 1 or q_blocks < 1:
        raise NotLightlike("lightlike directions need mixed signature")
    rng = np.random.default_rng(seed)
    dirs = []
    dp, dq = 2 * p_blocks, 2 * q_blocks
    for _ in range(count):
        u = rng.normal(size=dp)
        w = rng.normal(size=dq)
        w *= np.linalg.norm(u) / np.linalg.norm(w)
        v = np.concatenate([u, w])
        dirs.append(v / np.linalg.norm(v))
    return dirs

"""The third-order equation, its first-order reformulation, and transport.

The central objects: for a chart (g, J), a scalar field f and constant c,
the residual of

    f_{,ijk} + c (2 f_{,k} g_ij + f_{,i} g_jk + f_{,j} g_ik
                  - fbar_{,i} J_jk - fbar_{,j} J_ik) = 0

and, in the c = 1 normalization, the associated triple

    a_ij := -f_{,ij} - 2 f g_ij,   f_i := f_{,i},   mu := -2 f

which satisfies a first-order linear system in Frobenius form.  That system
is also realized as an ODE along curves (transport_bundle), which is how the
determined-by-one-point property becomes checkable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import charts
from . import jets as J
from .calculus import (covariant_d_cotensor2, frob_rows,
                       scalar_covariant_jets)
from .charts import ChartJets, KahlerChart, chunked, unbatch
from .errors import NotLightlike
from .fields import ScalarField
from .manifolds import GeodesicPath

#: Longest classical RK4 step of :func:`transport_bundle`, in chart
#: coordinates.
MAX_STEP = 0.02


@dataclass(frozen=True)
class TannoProblem:
    """A chart, a candidate solution field and the equation constant."""

    chart: KahlerChart
    f: ScalarField
    c: float

    def __post_init__(self):
        if not np.isfinite(self.c):
            raise ValueError("constant c must be finite")

    def rescaled(self) -> "TannoProblem":
        """Equivalent problem with c folded into the metric (c = 1)."""
        if self.c == 1.0:
            return self
        return TannoProblem(self.chart.rescaled(self.c), self.f, 1.0)


@dataclass
class SolutionBundle:
    """Value of the unknowns (a_ij, f_i, mu) at one point.

    :func:`bundle_from_f` over a batch returns one with a leading point axis
    on every entry; :meth:`norm` is for single points.
    """

    a: np.ndarray
    grad: np.ndarray
    mu: float

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.a ** 2) + np.sum(self.grad ** 2)
                             + self.mu ** 2))


def f_from_mu(mu):
    """Inverse of mu = -2f."""
    return -0.5 * mu


def bundle_from_f(prob: TannoProblem, p) -> SolutionBundle:
    """(a, f_i, mu) built from the field; meant for c = 1 problems.

    For a batch of points each entry carries a leading point axis.
    """
    P, single = prob.chart.batch(p)
    b = _bundle(prob.f.jets(P, 2), prob.chart.at(P, 1))
    if single:
        return SolutionBundle(b.a[0], b.grad[0], float(b.mu[0]))
    return b


def _bundle(fj, geo: ChartJets) -> SolutionBundle:
    """Batched bundle from f jets through order 2 and the chart through
    metric order 1 at the same points."""
    f0, f1, H = scalar_covariant_jets(fj, geo.gamma(0), 2)
    return SolutionBundle(-H - (2.0 * f0)[:, None, None] * geo.g0, f1, -2.0 * f0)


def _a_jets(geo: ChartJets, fj, order: int):
    """Batched jets of a_ij = -f_{,ij} - 2 f g_ij through ``order``, from
    f jets through order + 2 and the chart through metric order + 1."""
    gj = geo.g[:order + 1]
    Gj = geo.gamma(order)[:order + 1]
    grad = J.tgrad(fj)                       # lead (d,)
    hess_part = [fj[m + 2] for m in range(order + 1)]  # lead (d,d)
    corr = J.tconv(Gj, grad, "kij,k->ij", order)
    fg = J.tconv(fj, gj, ",ab->ab", order)
    return [-(hp - c) - 2.0 * f for hp, c, f in zip(hess_part, corr, fg)]


# ---------------------------------------------------------------------------
# Residual operators
# ---------------------------------------------------------------------------

def _jstruct_terms(f1, g0, Jm):
    """(fbar_i, J_ij) per point: fbar = J^T f_i and the Kahler form g J,
    for the chart's constant J."""
    return np.einsum("ai,za->zi", Jm, f1), g0 @ Jm


def _third_jets(prob: TannoProblem, P: np.ndarray):
    """(geo, f_{,i}, f_{,ijk}) over a batch: the chart through metric
    order 2 and the field through order 3, each evaluated once."""
    geo = prob.chart.at(P, 2)
    _, f1, _, T3 = scalar_covariant_jets(prob.f.jets(P, 3), geo.gamma(1), 3)
    return geo, f1, T3


def _third_order_residual(prob: TannoProblem, p, jstruct: bool) -> np.ndarray:
    """f_,ijk + c(2 f_k g_ij + f_i g_jk + f_j g_ik), minus c times the two
    complex-structure terms when jstruct is set."""
    P, single = prob.chart.batch(p)
    geo, f1, T3 = _third_jets(prob, P)
    g0 = geo.g0
    terms = (2.0 * np.einsum("zk,zij->zijk", f1, g0)
             + np.einsum("zi,zjk->zijk", f1, g0)
             + np.einsum("zj,zik->zijk", f1, g0))
    if jstruct:
        fb, Jf = _jstruct_terms(f1, g0, prob.chart.J)
        terms = (terms - np.einsum("zi,zjk->zijk", fb, Jf)
                 - np.einsum("zj,zik->zijk", fb, Jf))
    return unbatch(T3 + prob.c * terms, single)


def tanno_residual(prob: TannoProblem, p) -> np.ndarray:
    """Left side of the c-equation as a rank-3 array, [i, j, k]."""
    return _third_order_residual(prob, p, jstruct=True)


def gallot_tanno_residual(prob: TannoProblem, p) -> np.ndarray:
    """Same operator without the complex-structure terms."""
    return _third_order_residual(prob, p, jstruct=False)


def laplace_identity_residual(prob: TannoProblem, p):
    """|(Delta f)_{,k} + 4c(n+1) f_{,k}|; the contracted equation."""
    P, single = prob.chart.batch(p)
    geo, f1, T3 = _third_jets(prob, P)
    dlap = np.einsum("zij,zijk->zk", geo.ginv(0)[0], T3)
    n = prob.chart.n
    res = frob_rows(dlap + 4.0 * prob.c * (n + 1) * f1)
    return float(res[0]) if single else res


def system_residual(prob: TannoProblem, p):
    """Residuals of the three first-order equations (c = 1 convention).

    Returns (|a_{ij,k} - rhs|, |f_{i,j} - (mu g - a)|, |mu_{,i} + 2 f_i|),
    three floats, or three per-point arrays for a batch.
    """
    P, single = prob.chart.batch(p)
    geo = prob.chart.at(P, 2)
    fj = prob.f.jets(P, 3)
    f0, f1, H = scalar_covariant_jets(fj, geo.gamma(0), 2)
    g0 = geo.g0
    fb, Jf = _jstruct_terms(f1, g0, prob.chart.J)

    adk = covariant_d_cotensor2(_a_jets(geo, fj, 1), geo.gamma(0)[0])
    rhs1 = (np.einsum("zi,zjk->zijk", f1, g0) + np.einsum("zj,zik->zijk", f1, g0)
            - np.einsum("zi,zjk->zijk", fb, Jf) - np.einsum("zj,zik->zijk", fb, Jf))
    r1 = frob_rows(adk - rhs1)

    a0 = -H - (2.0 * f0)[:, None, None] * g0
    mu = -2.0 * f0
    r2 = frob_rows(H - (mu[:, None, None] * g0 - a0))

    mu_grad = -2.0 * f1
    r3 = frob_rows(mu_grad + 2.0 * f1)
    if single:
        return float(r1[0]), float(r2[0]), float(r3[0])
    return r1, r2, r3


def trace_identity_residual(prob: TannoProblem, p):
    """|f_i - 1/4 (a^al_al)_{,i}| (the contracted first equation)."""
    P, single = prob.chart.batch(p)
    geo = prob.chart.at(P, 2)
    fj = prob.f.jets(P, 3)
    tr = J.tconv(geo.ginv(1), _a_jets(geo, fj, 1), "ab,ab->", 1)
    res = frob_rows(fj[1] - 0.25 * tr[1])
    return float(res[0]) if single else res


def mu_hessian_residual(prob: TannoProblem, p):
    """|mu_{,ij} - 2 a_ij + 2 mu g_ij| with mu = -2f.

    An algebraic identity of the bundle construction; kept as a cross-path
    consistency check between the field-Hessian route and bundle assembly.
    """
    P, single = prob.chart.batch(p)
    geo = prob.chart.at(P, 1)
    fj = prob.f.jets(P, 2)
    # mu = -2f: scaling f's jets by a power of two is exact.
    mu_jets = [-2.0 * t for t in fj]
    mu_hess = scalar_covariant_jets(mu_jets, geo.gamma(0), 2)[2]
    b = _bundle(fj, geo)
    res = frob_rows(mu_hess - 2.0 * b.a + 2.0 * b.mu[:, None, None] * geo.g0)
    return float(res[0]) if single else res


# ---------------------------------------------------------------------------
# Transport along curves (the Frobenius property made computational)
# ---------------------------------------------------------------------------

def _transport_matrices(g0, Jm, G0, xdot) -> np.ndarray:
    """Matrices A with dy/dt = A y for the first-order system along ``xdot``.

    ``g0`` (Z, d, d) and ``G0`` (Z, d, d, d), with Gamma^l_ij at [l, i, j],
    are the chart at Z points and ``Jm`` (d, d) its constant J; ``xdot`` has
    shape (d,).  The
    state is y = (a.ravel(), f, mu), so A has shape (Z, m, m) with
    m = d^2 + d + 1.
    """
    Z, d = g0.shape[:2]
    n2 = d * d
    m = n2 + d + 1
    I = np.eye(d)
    gx = g0 @ xdot                               # g_ik xdot^k
    Jx = (g0 @ Jm) @ xdot                        # (g J)_ik xdot^k
    Gk = np.einsum("zlki,k->zli", G0, xdot)      # Gamma^l_ki xdot^k
    Gj = G0 @ xdot                               # Gamma^l_ij xdot^j
    A = np.zeros((Z, m, m))
    # partial_k a_ij = f_i g_jk + f_j g_ik - fbar_i (gJ)_jk - fbar_j (gJ)_ik
    #                  + Gamma^l_ki a_lj + Gamma^l_kj a_il,  fbar_i = J_ai f_a
    A[:, :n2, :n2] = (np.einsum("zpi,qj->zijpq", Gk, I)
                      + np.einsum("ip,zqj->zijpq", I, Gk)).reshape(Z, n2, n2)
    A[:, :n2, n2:-1] = (np.einsum("ia,zj->zija", I, gx)
                        + np.einsum("ja,zi->zija", I, gx)
                        - np.einsum("ai,zj->zija", Jm, Jx)
                        - np.einsum("aj,zi->zija", Jm, Jx)).reshape(Z, n2, d)
    # partial_j f_i = mu g_ij - a_ij + Gamma^l_ij f_l
    A[:, n2:-1, :n2] = -np.einsum("ip,q->ipq", I, xdot).reshape(d, n2)
    A[:, n2:-1, n2:-1] = Gj.transpose(0, 2, 1)
    A[:, n2:-1, -1] = gx
    # mu_{,i} = -2 f_i
    A[:, -1, n2:-1] = -2.0 * xdot
    return A


def transport_bundle(chart: KahlerChart, path, init: SolutionBundle
                     ) -> SolutionBundle:
    """Integrate the first-order system along a polyline of chart points.

    The system is linear, dy/dt = A(x, xdot) y, in the state
    y = (a.ravel(), f, mu) of length d^2 + d + 1.  Each segment is split
    into equal classical RK4 steps of at most :data:`MAX_STEP`.  Vertices
    outside the domain are rejected; the domain is a ball, so every segment
    between two vertices inside it lies inside it too.
    """
    P, _ = chart.batch(path)
    d = chart.dim
    segs = P[1:] - P[:-1]
    lens = np.array([float(np.linalg.norm(seg)) for seg in segs])
    moves = lens > 0.0
    starts, segs = P[:-1][moves], segs[moves]
    nsubs = [max(1, int(np.ceil(seglen / MAX_STEP))) for seglen in lens[moves]]
    # Each segment, parametrized on [0, 1], is known in advance, so the
    # chart is evaluated once, at every RK4 stage point of the polyline: on
    # each segment's grid of half steps, step k uses entries 2k (its start),
    # 2k + 1 (stages 2 and 3) and 2k + 2 (its end, the next step's start).
    grids = [q0 + np.linspace(0.0, 1.0, 2 * nsub + 1)[:, None] * seg
             for q0, seg, nsub in zip(starts, segs, nsubs)]
    geo = chart.at(np.concatenate([P[:0], *grids]), 1)
    g0, G0 = geo.g0, geo.gamma(0)[0]
    y = np.concatenate([np.ravel(init.a), init.grad, [init.mu]])
    lo = 0
    for seg, nsub in zip(segs, nsubs):
        dt = 1.0 / nsub
        # The matrices A are built for at most POINT_CHUNK steps at a time,
        # which bounds their (2 steps + 1, m, m) stack on a long segment.
        for k0 in range(0, nsub, charts.POINT_CHUNK):
            steps = min(charts.POINT_CHUNK, nsub - k0)
            rows = slice(lo + 2 * k0, lo + 2 * (k0 + steps) + 1)
            A = _transport_matrices(g0[rows], chart.J, G0[rows], seg)
            for k in range(steps):
                k1 = A[2 * k] @ y
                k2 = A[2 * k + 1] @ (y + dt / 2 * k1)
                k3 = A[2 * k + 1] @ (y + dt / 2 * k2)
                k4 = A[2 * k + 2] @ (y + dt * k3)
                y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        lo += 2 * nsub + 1
    return SolutionBundle(y[:d * d].reshape(d, d), y[d * d:-1], float(y[-1]))


def lightlike_third_derivative(chart: KahlerChart, f: ScalarField,
                               geo: GeodesicPath) -> float:
    """max |d^3/dt^3 f(gamma(t))| over the sample grid.

    Computed from chain-rule jets: the curve's own Taylor coefficients come
    from the geodesic equation, the field's from its order-3 jets, over
    chunks of :data:`~tannolab.charts.POINT_CHUNK` samples.
    """
    if geo.causal_type != "lightlike":
        raise NotLightlike(f"geodesic is {geo.causal_type}, not lightlike")
    _, X, V = geo.grid()

    def d3(X, V):
        fj = f.jets(X, 3)
        G0, dG = chart.christoffel_jets(X, 1)
        acc = -np.einsum("zkij,zi,zj->zk", G0, V, V)
        jerk = (-np.einsum("zkijl,zi,zj,zl->zk", dG, V, V, V)
                - 2.0 * np.einsum("zkij,zi,zj->zk", G0, acc, V))
        return (np.einsum("zabc,za,zb,zc->z", fj[3], V, V, V)
                + 3.0 * np.einsum("zab,za,zb->z", fj[2], acc, V)
                + (fj[1][:, None, :] @ jerk[:, :, None])[:, 0, 0])

    return float(np.max(np.abs(chunked(d3, X, V))))

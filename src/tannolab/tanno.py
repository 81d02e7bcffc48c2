"""The third-order equation, its first-order reformulation, and transport.

The central objects: for a chart (g, J), a scalar field f and constant c,
the residual of

    f_{,ijk} + c (2 f_{,k} g_ij + f_{,i} g_jk + f_{,j} g_ik
                  - fbar_{,i} J_jk - fbar_{,j} J_ik) = 0

and, in the c = 1 normalization, the associated triple

    a_ij := -f_{,ij} - 2 f g_ij,   f_i := f_{,i},   mu := -2 f

which satisfies a first-order linear system in Frobenius form, dy/dt =
A(xdot) y.  :func:`_system_apply` forms A(xdot) y in block form, and
:func:`system_residual` checks a field against it; :func:`_transport_matrices`
writes the dense A, and :func:`transport_bundle` integrates it along
curves, which is how the determined-by-one-point property becomes
checkable.  Both read the chart's contractions with the velocity from
:func:`_velocity_terms`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import charts
from . import jets as J
from .calculus import frob_rows, scalar_covariant_jets
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
    return SolutionBundle(_a_jets(geo, fj, 0)[0], fj[1], -2.0 * fj[0])


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

def _third_jets(prob: TannoProblem, P: np.ndarray):
    """(geo, f_{,i}, f_{,ijk}) over a batch: the chart through metric
    order 2 and the field through order 3, each evaluated once."""
    return _third_from(prob.chart.at(P, 2), prob.f.jets(P, 3))


def _third_from(geo: ChartJets, fj):
    """:func:`_third_jets` from the chart through metric order 2 and f jets
    through order 3, evaluated at the same points."""
    _, f1, _, T3 = scalar_covariant_jets(fj, geo.gamma(1), 3)
    return geo, f1, T3


def _third_order_terms(prob: TannoProblem, geo: ChartJets, f1, T3,
                       jstruct: bool) -> np.ndarray:
    """Batched residual of the third-order equation from
    :func:`_third_jets`: f_,ijk + c(2 f_k g_ij + f_i g_jk + f_j g_ik), minus
    c times the two complex-structure terms when jstruct is set."""
    g0 = geo.g0
    terms = (2.0 * np.einsum("zk,zij->zijk", f1, g0)
             + np.einsum("zi,zjk->zijk", f1, g0)
             + np.einsum("zj,zik->zijk", f1, g0))
    if jstruct:
        fb, Jf = np.einsum("ai,za->zi", prob.chart.J, f1), g0 @ prob.chart.J
        terms = (terms - np.einsum("zi,zjk->zijk", fb, Jf)
                 - np.einsum("zj,zik->zijk", fb, Jf))
    return T3 + prob.c * terms


def _third_order_residual(prob: TannoProblem, p, jstruct: bool) -> np.ndarray:
    P, single = prob.chart.batch(p)
    return unbatch(_third_order_terms(prob, *_third_jets(prob, P), jstruct),
                   single)


def tanno_residual(prob: TannoProblem, p) -> np.ndarray:
    """Left side of the c-equation as a rank-3 array, [i, j, k]."""
    return _third_order_residual(prob, p, jstruct=True)


def gallot_tanno_residual(prob: TannoProblem, p) -> np.ndarray:
    """Same operator without the complex-structure terms."""
    return _third_order_residual(prob, p, jstruct=False)


def _laplace_rows(prob: TannoProblem, geo: ChartJets, f1, T3) -> np.ndarray:
    """Per-point :func:`laplace_identity_residual` from :func:`_third_jets`."""
    dlap = np.einsum("zij,zijk->zk", geo.ginv(0)[0], T3)
    return frob_rows(dlap + 4.0 * prob.c * (prob.chart.n + 1) * f1)


def laplace_identity_residual(prob: TannoProblem, p):
    """|(Delta f)_{,k} + 4c(n+1) f_{,k}|; the contracted equation."""
    P, single = prob.chart.batch(p)
    res = _laplace_rows(prob, *_third_jets(prob, P))
    return float(res[0]) if single else res


def _system_jets(prob: TannoProblem, P: np.ndarray):
    """(geo, f jets, a jets) over a batch: the chart through metric order 2
    and the field through order 3, each evaluated once, and a_ij through
    order 1 built from them."""
    return _system_from(prob.chart.at(P, 2), prob.f.jets(P, 3))


def _system_from(geo: ChartJets, fj):
    """:func:`_system_jets` from the chart through metric order 2 and f jets
    through order 3, evaluated at the same points."""
    return geo, fj, _a_jets(geo, fj, 1)


def _system_rows(geo: ChartJets, fj, aj):
    """Per-point :func:`system_residual` from :func:`_system_jets`: d_k y
    less :func:`_system_apply` along e_k, for each direction k."""
    Z, d = fj[1].shape
    n2 = d * d
    y = (aj[0][..., None], fj[1][..., None], -2.0 * fj[0][:, None])
    dy = np.concatenate([aj[1].reshape(Z, n2, d), fj[2], -2.0 * fj[1][:, None]],
                        axis=1)
    G0 = geo.gamma(0)[0]
    for k, e in enumerate(np.eye(d)):
        da, df, dmu = _system_apply(geo.g0, geo.chart.J, G0,
                                    np.tile(e, (Z, 1)), *y)
        dy[:, :n2, k] -= da.reshape(Z, n2)
        dy[:, n2:-1, k] -= df[..., 0]
        dy[:, -1, k] -= dmu[:, 0]
    return tuple(frob_rows(dy[:, rows]) for rows in
                 (slice(0, n2), slice(n2, -1), slice(-1, None)))


def system_residual(prob: TannoProblem, p):
    """Residuals of the first-order system d_k y = A(e_k) y (c = 1
    convention), with y = (a.ravel(), f_i, mu) built from the field and
    A(e_k) y from :func:`_system_apply`.

    Returns the norms over all k of the a rows, f rows and mu row of
    d_k y - A(e_k) y: three floats, or three per-point arrays for a batch.
    """
    P, single = prob.chart.batch(p)
    r = _system_rows(*_system_jets(prob, P))
    return tuple(float(x[0]) for x in r) if single else r


def _trace_rows(geo: ChartJets, fj, aj) -> np.ndarray:
    """Per-point :func:`trace_identity_residual` from :func:`_system_jets`."""
    tr = J.tconv(geo.ginv(1), aj, "ab,ab->", 1)
    return frob_rows(fj[1] - 0.25 * tr[1])


def trace_identity_residual(prob: TannoProblem, p):
    """|f_i - 1/4 (a^al_al)_{,i}| (the contracted first equation)."""
    P, single = prob.chart.batch(p)
    res = _trace_rows(*_system_jets(prob, P))
    return float(res[0]) if single else res


def _mu_hessian_rows(fj, geo: ChartJets) -> np.ndarray:
    """Per-point :func:`mu_hessian_residual` from f jets through order 2 and
    the chart through metric order 1 at the same points."""
    # mu = -2f: scaling f's jets by a power of two is exact.
    mu_jets = [-2.0 * t for t in fj]
    mu_hess = scalar_covariant_jets(mu_jets, geo.gamma(0), 2)[2]
    b = _bundle(fj, geo)
    return frob_rows(mu_hess - 2.0 * b.a + 2.0 * b.mu[:, None, None] * geo.g0)


def mu_hessian_residual(prob: TannoProblem, p):
    """|mu_{,ij} - 2 a_ij + 2 mu g_ij| with mu = -2f.

    An algebraic identity of the bundle construction; kept as a cross-path
    consistency check between the field-Hessian route and bundle assembly.
    """
    P, single = prob.chart.batch(p)
    res = _mu_hessian_rows(prob.f.jets(P, 2), prob.chart.at(P, 1))
    return float(res[0]) if single else res


# ---------------------------------------------------------------------------
# Transport along curves (the Frobenius property made computational)
# ---------------------------------------------------------------------------

def _velocity_terms(g0, Jm, G0, xdot):
    """The contractions of the chart with the velocity that the first-order
    system reads, one row per point: g_ik xdot^k, (g J)_ik xdot^k,
    Gamma^l_ki xdot^k at [l, i] and Gamma^l_ij xdot^j at [l, i]."""
    return (np.einsum("zik,zk->zi", g0, xdot),
            np.einsum("zik,zk->zi", g0 @ Jm, xdot),
            np.einsum("zlki,zk->zli", G0, xdot),
            np.einsum("zlij,zj->zli", G0, xdot))


def _system_apply(g0, Jm, G0, xdot, a, f, mu):
    """A(xdot) y for the first-order system in block form, one row per point,
    without the dense A of :func:`_transport_matrices`.

    The chart and velocity are as there.  y = (a.ravel(), f, mu) comes as
    its blocks with a trailing axis of C columns: ``a`` (Z, d, d, C), ``f``
    (Z, d, C), ``mu`` (Z, C).  Returns the blocks of A y in the same shapes.
    """
    gx, Jx, Gk, Gj = _velocity_terms(g0, Jm, G0, xdot)
    fb = np.einsum("ai,zac->zic", Jm, f)              # fbar_i = J_ai f_a
    fg = np.einsum("zic,zj->zijc", f, gx) - np.einsum("zic,zj->zijc", fb, Jx)
    da = (np.einsum("zli,zljc->zijc", Gk, a) + np.einsum("zilc,zlj->zijc", a, Gk)
          + fg + fg.transpose(0, 2, 1, 3))
    df = (np.einsum("zli,zlc->zic", Gj, f) - np.einsum("zijc,zj->zic", a, xdot)
          + gx[:, :, None] * mu[:, None, :])
    return da, df, -2.0 * np.einsum("zi,zic->zc", xdot, f)


def _transport_matrices(g0, Jm, G0, xdot) -> np.ndarray:
    """Matrices A with dy/dt = A y for the first-order system, one per row.

    Row z is the chart at a point, ``g0[z]`` (d, d) and ``G0[z]`` (d, d, d)
    with Gamma^l_ij at [l, i, j], with the velocity ``xdot[z]`` (d,) there;
    ``Jm`` (d, d) is the chart's constant J.  The state is
    y = (a.ravel(), f, mu), so A has shape (Z, m, m) with m = d^2 + d + 1.
    """
    Z, d = g0.shape[:2]
    n2 = d * d
    m = n2 + d + 1
    I = np.eye(d)
    gx, Jx, Gk, Gj = _velocity_terms(g0, Jm, G0, xdot)
    A = np.zeros((Z, m, m))
    # partial_k a_ij = f_i g_jk + f_j g_ik - fbar_i (gJ)_jk - fbar_j (gJ)_ik
    #                  + Gamma^l_ki a_lj + Gamma^l_kj a_il,  fbar_i = J_ai f_a
    # In place on the a-block's [z, i, j, p, q] view: the two Gamma terms.
    Aa, GkT = A[:, :n2, :n2].reshape(Z, d, d, d, d), Gk.transpose(0, 2, 1)
    for j in range(d):
        Aa[:, :, j, :, j] += GkT
        Aa[:, j, :, j, :] += GkT
    A[:, :n2, n2:-1] = (np.einsum("ia,zj->zija", I, gx)
                        + np.einsum("ja,zi->zija", I, gx)
                        - np.einsum("ai,zj->zija", Jm, Jx)
                        - np.einsum("aj,zi->zija", Jm, Jx)).reshape(Z, n2, d)
    # partial_j f_i = mu g_ij - a_ij + Gamma^l_ij f_l
    A[:, n2:-1, :n2] = -np.einsum("ip,zq->zipq", I, xdot).reshape(Z, d, n2)
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
    starts, segs, lens = P[:-1][lens > 0.0], segs[lens > 0.0], lens[lens > 0.0]
    nsubs = np.maximum(1, np.ceil(lens / MAX_STEP)).astype(int)
    # X holds each segment's grid of half steps on [0, 1], V its velocity:
    # step s, on segment i, uses rows 2s + i, 2s + i + 1 and 2s + i + 2.
    X = np.concatenate([P[:0], *(q0 + np.linspace(0.0, 1.0, 2 * n + 1)[:, None] * seg
                                 for q0, seg, n in zip(starts, segs, nsubs))])
    V = np.repeat(segs, 2 * nsubs + 1, axis=0)
    rows = 2 * np.arange(nsubs.sum()) + np.repeat(np.arange(len(nsubs)), nsubs)
    dts = np.repeat(1.0 / nsubs, nsubs)
    y = np.concatenate([np.ravel(init.a), init.grad, [init.mu]])
    # A block of at most POINT_CHUNK steps, on at most 2 POINT_CHUNK + 1 rows
    # of one or more segments, evaluates the chart and builds A on its rows.
    s0 = 0
    while s0 < len(rows):
        s1 = np.searchsorted(rows, rows[s0] + 2 * charts.POINT_CHUNK - 2, "right")
        lo, hi = rows[s0], rows[s1 - 1] + 3
        geo = chart.at(X[lo:hi], 1)
        A = _transport_matrices(geo.g0, chart.J, geo.gamma(0)[0], V[lo:hi])
        for k, dt in zip((rows[s0:s1] - lo).tolist(), dts[s0:s1].tolist()):
            k1 = A[k] @ y
            k2 = A[k + 1] @ (y + dt / 2 * k1)
            k3 = A[k + 1] @ (y + dt / 2 * k2)
            k4 = A[k + 2] @ (y + dt * k3)
            y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        s0 = s1
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

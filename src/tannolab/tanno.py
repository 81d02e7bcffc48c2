"""The third-order equation, its first-order reformulation, and transport.

The central objects: for a chart (g, J), a scalar field f and constant c,
the residual of

    f_{,ijk} + c (2 f_{,k} g_ij + f_{,i} g_jk + f_{,j} g_ik
                  - fbar_{,i} J_jk - fbar_{,j} J_ik) = 0

and, in the c = 1 normalization, the associated triple

    a_ij := -f_{,ij} - 2 f g_ij,   f_i := f_{,i},   mu := -2 f

which satisfies a first-order linear system in Frobenius form, dy/dt =
A(xdot) y.  :func:`_system_apply` forms A(e_k) y in block form along every
coordinate direction, and :func:`system_residual` checks a field against
it; :func:`_transport_matrices` writes the dense A(xdot), and
:func:`transport_bundle` integrates it along curves, which is how the
determined-by-one-point property becomes checkable.
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
    b = _bundle(prob.f.taylor(P, 2), prob.chart.at(P, 1))
    if single:
        return SolutionBundle(b.a[0], b.grad[0], float(b.mu[0]))
    return b


def _bundle(fc, geo: ChartJets) -> SolutionBundle:
    """Batched bundle from f's coefficients through order 2 and the chart
    through metric order 1 at the same points."""
    cov = _covariant(geo, fc, 2)
    return SolutionBundle(_a_jets(geo, cov, 0)[..., 0], cov[1][..., 0],
                          -2.0 * fc[:, 0])


def _covariant(geo: ChartJets, fc, order: int):
    """f's covariant chain through ``order`` (:func:`scalar_covariant_jets`)
    on the chart's Gamma at the same points."""
    return scalar_covariant_jets(fc, geo.gamma_coeffs(), geo.chart.dim, order)


def _a_jets(geo: ChartJets, cov, order: int) -> np.ndarray:
    """Taylor coefficients through ``order`` of a_ij = -f_{,ij} - 2 f g_ij,
    from f's covariant chain (f_{,ij} through ``order``) and the chart's
    metric at the same points."""
    d = geo.chart.dim
    fg = J.cprod([cov[0], geo.coeffs], ",ab->ab", d, order)
    return -cov[2][..., :J.size(d, order)] - 2.0 * fg


# ---------------------------------------------------------------------------
# Residual operators
# ---------------------------------------------------------------------------

def _order3(chart: KahlerChart, f: ScalarField, P: np.ndarray):
    """(geo, cov) over a batch: the chart, evaluated through metric order 2
    and kept through order 1 once Gamma is derived, and f's covariant
    chain through f_{,ijk} from f through order 3, each evaluated once;
    f_{,ij} reaches degree 1."""
    geo = chart.at(P, 2).trim(1)
    return geo, _covariant(geo, f.taylor(P, 3), 3)


def _third_order_terms(prob: TannoProblem, geo: ChartJets, cov,
                       jstruct: bool) -> np.ndarray:
    """Batched residual of the third-order equation from :func:`_order3`:
    f_,ijk + c(2 f_k g_ij + f_i g_jk + f_j g_ik), minus c times the two
    complex-structure terms when jstruct is set."""
    g0, f1 = geo.g0, cov[1][..., 0]
    terms = (2.0 * np.einsum("zk,zij->zijk", f1, g0)
             + np.einsum("zi,zjk->zijk", f1, g0)
             + np.einsum("zj,zik->zijk", f1, g0))
    if jstruct:
        fb, Jf = np.einsum("ai,za->zi", prob.chart.J, f1), g0 @ prob.chart.J
        terms = (terms - np.einsum("zi,zjk->zijk", fb, Jf)
                 - np.einsum("zj,zik->zijk", fb, Jf))
    return cov[3][..., 0] + prob.c * terms


def _third_order_residual(prob: TannoProblem, p, jstruct: bool) -> np.ndarray:
    P, single = prob.chart.batch(p)
    res = _third_order_terms(prob, *_order3(prob.chart, prob.f, P), jstruct)
    return unbatch(res, single)


def tanno_residual(prob: TannoProblem, p) -> np.ndarray:
    """Left side of the c-equation as a rank-3 array, [i, j, k]."""
    return _third_order_residual(prob, p, jstruct=True)


def gallot_tanno_residual(prob: TannoProblem, p) -> np.ndarray:
    """Same operator without the complex-structure terms."""
    return _third_order_residual(prob, p, jstruct=False)


def _laplace_rows(prob: TannoProblem, geo: ChartJets, cov) -> np.ndarray:
    """Per-point :func:`laplace_identity_residual` from :func:`_order3`."""
    dlap = np.einsum("zij,zijk->zk", geo.ginv_coeffs()[..., 0], cov[3][..., 0])
    return frob_rows(dlap + 4.0 * prob.c * (prob.chart.n + 1) * cov[1][..., 0])


def laplace_identity_residual(prob: TannoProblem, p):
    """|(Delta f)_{,k} + 4c(n+1) f_{,k}|; the contracted equation."""
    P, single = prob.chart.batch(p)
    res = _laplace_rows(prob, *_order3(prob.chart, prob.f, P))
    return float(res[0]) if single else res


def _system_apply(g0, Jm, G0, a, f, mu):
    """A(e_k) y for the first-order system in block form along every
    coordinate direction e_k at once, one row per point, without the dense
    A of :func:`_transport_matrices`.

    The chart is as there; its contractions with e_k are slices of g, gJ
    and Gamma.  y = (a.ravel(), f, mu) comes as its blocks with a trailing
    axis of C columns: ``a`` (Z, d, d, C), ``f`` (Z, d, C), ``mu`` (Z, C).
    Returns the blocks of A(e_k) y in the same shapes, each with an axis k
    after the point axis.
    """
    gx, Jx = g0.swapaxes(1, 2), (g0 @ Jm).swapaxes(1, 2)
    Gk, Gj = G0.transpose(0, 2, 1, 3), G0.transpose(0, 3, 1, 2)
    fb = np.einsum("ai,zac->zic", Jm, f)              # fbar_i = J_ai f_a
    fg = np.einsum("zic,zkj->zkijc", f, gx) - np.einsum("zic,zkj->zkijc", fb, Jx)
    da = (np.einsum("zkli,zljc->zkijc", Gk, a) + np.einsum("zilc,zklj->zkijc", a, Gk)
          + fg + fg.swapaxes(2, 3))
    df = (np.einsum("zkli,zlc->zkic", Gj, f) - a.swapaxes(1, 2)
          + gx[..., None] * mu[:, None, None, :])
    return da, df, -2.0 * f


def _system_rows(geo: ChartJets, cov):
    """Per-point residuals from the chart and f's covariant chain with
    f_{,ij} through degree 1 (:func:`_order3`): the a rows, f rows and mu
    row of d_k y less :func:`_system_apply` along e_k, for each direction
    k (:func:`system_residual`), and :func:`trace_identity_residual`."""
    ac = _a_jets(geo, cov, 1)
    f0, f1 = cov[0][:, 0], cov[1][..., 0]
    Z, d = f1.shape
    n2 = d * d
    y = (ac[..., 0][..., None], f1[..., None], -2.0 * f0[:, None])
    # The degree-1 coefficients are the first partial derivatives.
    dy = np.concatenate([ac[..., 1:d + 1].reshape(Z, n2, d), cov[1][..., 1:d + 1],
                         -2.0 * f1[:, None]], axis=1)
    da, df, dmu = _system_apply(geo.g0, geo.chart.J, geo.gamma0, *y)
    dy[:, :n2] -= np.moveaxis(da, 1, -1).reshape(Z, n2, d)
    dy[:, n2:-1] -= np.moveaxis(df[..., 0], 1, -1)
    dy[:, -1] -= dmu[..., 0]
    tr = J.cprod([geo.ginv_coeffs(1), ac], "ab,ab->", d, 1)
    return (*(frob_rows(dy[:, rows]) for rows in
              (slice(0, n2), slice(n2, -1), slice(-1, None))),
            frob_rows(f1 - 0.25 * tr[:, 1:d + 1]))


def system_residual(prob: TannoProblem, p):
    """Residuals of the first-order system d_k y = A(e_k) y (c = 1
    convention), with y = (a.ravel(), f_i, mu) built from the field and
    A(e_k) y from :func:`_system_apply`.

    Returns the norms over all k of the a rows, f rows and mu row of
    d_k y - A(e_k) y: three floats, or three per-point arrays for a batch.
    """
    P, single = prob.chart.batch(p)
    r = _system_rows(*_order3(prob.chart, prob.f, P))[:3]
    return tuple(float(x[0]) for x in r) if single else r


def trace_identity_residual(prob: TannoProblem, p):
    """|f_i - 1/4 (a^al_al)_{,i}| (the contracted first equation)."""
    P, single = prob.chart.batch(p)
    res = _system_rows(*_order3(prob.chart, prob.f, P))[3]
    return float(res[0]) if single else res


def _mu_hessian(fc, geo: ChartJets) -> np.ndarray:
    """Per-point mu_{,ij}, mu = -2f, from f's coefficients through order 2
    and the chart through metric order 1 (scaling by -2 is exact)."""
    return _covariant(geo, -2.0 * fc, 2)[2][..., 0]


def _mu_hessian_rows(fc, geo: ChartJets) -> np.ndarray:
    """Per-point :func:`mu_hessian_residual` from f's coefficients through
    order 2 and the chart through metric order 1 at the same points."""
    b = _bundle(fc, geo)
    return frob_rows(_mu_hessian(fc, geo) - 2.0 * b.a
                     + 2.0 * b.mu[:, None, None] * geo.g0)


def mu_hessian_residual(prob: TannoProblem, p):
    """|mu_{,ij} - 2 a_ij + 2 mu g_ij| with mu = -2f.

    An algebraic identity of the bundle construction; kept as a cross-path
    consistency check between the field-Hessian route and bundle assembly.
    """
    P, single = prob.chart.batch(p)
    res = _mu_hessian_rows(prob.f.taylor(P, 2), prob.chart.at(P, 1))
    return float(res[0]) if single else res


# ---------------------------------------------------------------------------
# Transport along curves (the Frobenius property made computational)
# ---------------------------------------------------------------------------

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
    # The chart's contractions with the velocity: g_ik xdot^k,
    # (g J)_ik xdot^k, Gamma^l_ki xdot^k at [l, i], Gamma^l_ij xdot^j at [l, i].
    gx = np.einsum("zik,zk->zi", g0, xdot)
    Jx = np.einsum("zik,zk->zi", g0 @ Jm, xdot)
    Gk = np.einsum("zlki,zk->zli", G0, xdot)
    Gj = np.einsum("zlij,zj->zli", G0, xdot)
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


def _stage_matrices(chart: KahlerChart, starts, segs, first, nsub, rows
                    ) -> np.ndarray:
    """Dense A at the given stage rows, evaluating the chart there only.

    Row first[i] + t is the point of segment i at tau = t / (2 nsub[i]),
    with the bits of np.linspace(0, 1, 2 nsub[i] + 1), and the segment is
    its velocity.
    """
    i = np.searchsorted(first, rows, "right") - 1
    t = rows - first[i]
    tau = np.where(t == 2 * nsub[i], 1.0, t * (1.0 / (2 * nsub[i])))
    V = segs[i]
    geo = chart.at(starts[i] + tau[:, None] * V, 1)
    return _transport_matrices(geo.g0, chart.J, geo.gamma0, V)


def _rk4_steps(A, K, H, y, active):
    """Classical RK4 steps of dy/dt = A y in lockstep, on y (C, m, 1) in place.

    Step j of path c reads rows K[j, :, c] of A at its start, middle and
    end, with dt H[j, c]; only the first active[j] paths take it.  While
    one path steps alone it reads A's rows as views and dt as a float, the
    same arithmetic without the gather and the broadcasts.
    """
    cuts = [0, *(1 + np.flatnonzero(np.diff(active))).tolist(), len(active)]
    for j0, j1 in zip(cuts[:-1], cuts[1:]):
        cs = active[j0]
        if cs == 1:
            yc, Hr = y[0], H[j0:j1, 0, 0, 0].tolist()
            stages = ((A[k], A[k + 1], A[k + 2], h, h / 2, h / 6)
                      for k, h in zip(K[j0:j1, 0, 0].tolist(), Hr))
        else:
            yc, Hr = y[:cs], H[j0:j1, :cs]
            stages = ((*A.take(k, axis=0), h, h2, h6) for k, h, h2, h6
                      in zip(K[j0:j1, :, :cs], Hr, Hr / 2, Hr / 6))
        for a0, a1, a2, h, h2, h6 in stages:
            k1 = a0 @ yc
            k2 = a1 @ (yc + h2 * k1)
            k3 = a1 @ (yc + h2 * k2)
            k4 = a2 @ (yc + h * k3)
            yc += h6 * (k1 + 2 * k2 + 2 * k3 + k4)


def transport_bundle(chart: KahlerChart, path, init: SolutionBundle
                     ) -> SolutionBundle:
    """Integrate the first-order system along polylines of chart points.

    The system is linear, dy/dt = A(x, xdot) y, in the state
    y = (a.ravel(), f, mu) of length m = d^2 + d + 1.  Each segment is split
    into equal classical RK4 steps of at most :data:`MAX_STEP`; zero-length
    segments are skipped.  Vertices outside the domain are rejected; the
    domain is a ball, so every segment between two vertices inside it lies
    inside it too.

    ``path`` is one polyline (V, d) or a batch of C polylines (C, V, d), and
    ``init`` the bundle at their first vertex: one for every path, or one
    with a leading C axis.  A batch returns a bundle with a leading C axis,
    one polyline a bundle without it; each path gets bit for bit what it
    gets alone.

    The paths, sorted by step count so that those still stepping are a
    prefix, take their steps in lockstep: one iteration of batched products
    per step of the longest path.  The chart is evaluated and A built per
    block of steps, on that block's stage rows only.  No block holds more
    rows than the longest path would alone, min(its rows,
    2 :data:`~tannolab.charts.POINT_CHUNK` + 1), and each block's A is freed
    before the next block is evaluated.
    """
    d = chart.dim
    n2, m = d * d, d * d + d + 1
    X = np.asarray(path, dtype=float)
    if X.ndim > 3:
        raise ValueError(f"path must have shape (V, d) or (C, V, d), got {X.shape}")
    single = X.ndim < 3
    P, _ = chart.batch(X if single else X.reshape(-1, X.shape[-1]))
    paths = P[None] if single else P.reshape(X.shape)
    C = len(paths)
    mu = np.asarray(init.mu, dtype=float)
    if mu.ndim and (single or len(mu) != C):
        raise ValueError(f"init holds {len(mu)} bundles for "
                         f"{'one path' if single else f'{C} paths'}")
    y = np.empty((C, m, 1))
    y[:, :n2, 0] = np.reshape(init.a, (-1, n2))
    y[:, n2:-1, 0] = np.reshape(init.grad, (-1, d))
    y[:, -1, 0] = mu
    segs = paths[:, 1:] - paths[:, :-1]
    # |seg| with the bits of np.linalg.norm: the root of one dot product.
    lens = np.sqrt(segs[..., None, :] @ segs[..., None])[..., 0, 0]
    nsub = np.where(lens > 0.0, np.maximum(1, np.ceil(lens / MAX_STEP)), 0
                    ).astype(int)
    steps = nsub.sum(axis=1)
    order = np.argsort(-steps, kind="stable")
    nsub, steps, y = nsub[order], steps[order], y[order]
    keep = nsub > 0
    starts, segs, nsub = paths[order, :-1][keep], segs[order][keep], nsub[keep]
    # Stage rows: each kept segment's 2 nsub + 1 half steps, path after path
    # in sorted order, from row ``first``; its steps are numbered from
    # ``sfirst`` on, a path's from ``pfirst`` on.
    first = np.cumsum(2 * nsub + 1) - (2 * nsub + 1)
    sfirst, pfirst = np.cumsum(nsub) - nsub, np.cumsum(steps) - steps

    def table(s0, s1, c0, c1):
        """(R, H): step s of path c starts at stage row R[s - s0, c - c0]
        and has dt H[s - s0, c - c0]; past a path's last step both repeat
        its last."""
        g = pfirst[c0:c1] + np.minimum(np.arange(s0, s1)[:, None], steps[c0:c1] - 1)
        i = np.searchsorted(sfirst, g, "right") - 1
        return first[i] + 2 * (g - sfirst[i]), (1.0 / nsub[i])[..., None, None]

    # B bounds a block's rows: the rows the longest path takes alone.  One
    # step of each path of a group of at most B // 3 fits in a block; act[s]
    # of the group's paths are still stepping at step s.
    B = min(int((2 * steps + keep.sum(axis=1)).max(initial=0)),
            2 * charts.POINT_CHUNK + 1)
    G = max(1, B // 3)
    for c0 in range(0, C, G):
        act = (steps[c0:c0 + G] > np.arange(steps[c0])[:, None]).sum(axis=1)
        s0 = 0
        while s0 < len(act):
            # The longest path of the block takes 2 rows a step and 1 more,
            # each other at least 3: so a block has at most this many steps.
            ca = int(act[s0])
            R = table(s0, min(len(act), s0 + (B - 3 * ca) // 2 + 1), c0, c0 + ca)[0]
            s1 = s0 + int(np.searchsorted((R - R[0] + 3).sum(axis=1), B, "right"))
            R, H = table(s0, s1, c0, c0 + ca)
            lo, n = R[0], R[-1] + 3 - R[0]
            off = np.cumsum(n) - n
            rows = np.repeat(lo - off, n) + np.arange(n.sum())
            _rk4_steps(_stage_matrices(chart, starts, segs, first, nsub, rows),
                       (R - lo + off)[:, None] + np.arange(3)[:, None], H,
                       y[c0:], act[s0:s1])
            s0 = s1
    out = np.empty_like(y)
    out[order] = y
    a, grad, mu = out[:, :n2, 0].reshape(C, d, d), out[:, n2:-1, 0], out[:, -1, 0]
    if single:
        return SolutionBundle(a[0], grad[0], float(mu[0]))
    return SolutionBundle(a, grad, mu)


def _cubic_form(T, V) -> np.ndarray:
    """T(v, v, v) per point of T (Z, d, d, d), for V (Z, d) or (Z, K, d)."""
    return np.einsum("zabc,z...a,z...b,z...c->z...", T, V, V, V)


def lightlike_third_derivative(chart: KahlerChart, f: ScalarField,
                               geo: GeodesicPath) -> float:
    """max |d^3/dt^3 f(gamma(t))| over the sample grid.

    Along a geodesic that is f_{,ijk} v^i v^j v^k with v = gamma', read from
    :func:`_order3` over chunks of :data:`~tannolab.charts.POINT_CHUNK`.
    """
    if geo.causal_type != "lightlike":
        raise NotLightlike(f"geodesic is {geo.causal_type}, not lightlike")
    _, X, V = geo.grid()

    def d3(X, V):
        return _cubic_form(_order3(chart, f, X)[1][3][..., 0], V)

    return float(np.max(np.abs(chunked(d3, X, V))))

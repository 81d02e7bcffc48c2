"""Finite-difference oracles.

These cross-check the jet engine and the chart constructions: the
``oracle.derivatives`` check and the tests run them, the computational
path never does.  All stencils are tensor-product central differences with
one Richardson extrapolation (leading error h^4).  Steps are balanced per
derivative order against float64 roundoff; 1e-4 at order 3 would drown the
comparison in cancellation noise.

Each oracle takes one point (d,) or a batch (N, d), and a batch's
derivatives carry a leading point axis.  ``fn`` takes an (M, d) batch of
points and returns one value per point, shape (M, ...); a scalar or a
matrix per point both work.  Each oracle call builds every stencil of every
point in one batch and evaluates ``fn`` once.  Derivative axes come last:
``fd_gradient`` of a matrix map is d1[a, b, k] at a point.
"""

from __future__ import annotations

import itertools

import numpy as np

from .charts import KahlerChart, as_points, unbatch

STEP_ORDER1 = 1e-4
STEP_ORDER2 = 2e-3
STEP_ORDER3 = 6e-3


def _partials(fn, P, dirs, h) -> np.ndarray:
    """Mixed partials of fn at each point of the (N, d) batch P, one per
    index tuple in ``dirs``, shape (N, T, ...).

    Every stencil point of every point and tuple, all sign patterns and
    both step sizes (h and h/2) form one (M, d) batch for a single ``fn``
    call.  Each coordinate is built by the in-place adds ``q[i] += s*h`` in
    direction order, and each composite sums its signed terms in
    ``itertools.product`` order before the Richardson step, so the result
    is what per-point evaluation of the same stencils gives, bit for bit.
    """
    dirs = np.array(dirs, dtype=int)                     # (T, k)
    n, k = dirs.shape
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=k)))
    steps = np.array([h, h / 2.0])
    Q = np.tile(P[:, None, None, None], (1, n, 2, len(signs), 1))
    at = np.ix_(*map(range, Q.shape[:4]))               # (z, T, step, sign)
    for m in range(k):
        Q[at + (dirs[:, m, None, None],)] += signs[:, m] * steps[:, None]
    V = np.asarray(fn(Q.reshape(-1, P.shape[1])), dtype=float)
    V = V.reshape(Q.shape[:4] + V.shape[1:])
    total = 0.0
    for j, s in enumerate(signs):
        total = total + float(np.prod(s)) * V[:, :, :, j]
    scale = np.array([(2.0 * step) ** k for step in (h, h / 2.0)])
    total = total / scale.reshape((2,) + (1,) * (total.ndim - 3))
    return (4.0 * total[:, :, 1] - total[:, :, 0]) / 3.0


def _derivative(fn, p, k: int, h) -> np.ndarray:
    """All order-k partials of fn at p, symmetric in the k trailing axes."""
    P, single = as_points(p)
    d = P.shape[1]
    dirs = list(itertools.combinations_with_replacement(range(d), k))
    parts = _partials(fn, P, dirs, h)
    out = np.zeros((len(P),) + parts.shape[2:] + (d,) * k)
    for t, idx in enumerate(dirs):
        for perm in set(itertools.permutations(idx)):
            out[(slice(None), Ellipsis) + perm] = parts[:, t]
    return unbatch(out, single)


def fd_gradient(fn, p, h=STEP_ORDER1) -> np.ndarray:
    return _derivative(fn, p, 1, h)


def fd_hessian(fn, p, h=STEP_ORDER2) -> np.ndarray:
    return _derivative(fn, p, 2, h)


def fd_third(fn, p, h=STEP_ORDER3) -> np.ndarray:
    return _derivative(fn, p, 3, h)


# ---------------------------------------------------------------------------
# Oracles for chart-level quantities
# ---------------------------------------------------------------------------

def christoffel_fd(chart: KahlerChart, p) -> np.ndarray:
    """Gamma^k_ij from finite differences of metric values only."""
    P, single = as_points(p, chart.dim)
    ginv = np.linalg.inv(chart.metric(P))
    dg = _derivative(chart.metric, P, 1, STEP_ORDER1)
    T = dg + np.swapaxes(dg, 2, 3) - np.moveaxis(dg, (1, 2, 3), (2, 3, 1))
    return unbatch(0.5 * np.einsum("zkl,zlij->zkij", ginv, T), single)


def riemann_fd(chart: KahlerChart, p) -> np.ndarray:
    """R[l, k, i, j] so that R(e_i, e_j) e_k = R[l, k, i, j] e_l (FD route)."""
    g0 = chart.metric(p)
    dg = _derivative(chart.metric, p, 1, STEP_ORDER1)
    d2g = _derivative(chart.metric, p, 2, STEP_ORDER2)
    ginv = np.linalg.inv(g0)
    dginv = -np.einsum("ka,abm,bl->klm", ginv, dg, ginv)
    T = dg + np.swapaxes(dg, 1, 2) - np.moveaxis(dg, (0, 1, 2), (1, 2, 0))
    # dT[l, i, j, m] = partial_m (partial_j g_li + partial_i g_lj - partial_l g_ij)
    dT = (d2g
          + d2g.transpose(0, 2, 1, 3)
          - d2g.transpose(2, 0, 1, 3))
    G = 0.5 * np.einsum("kl,lij->kij", ginv, T)
    dG = 0.5 * (np.einsum("klm,lij->kijm", dginv, T)
                + np.einsum("kl,lijm->kijm", ginv, dT))
    # dG[k, i, j, m] = partial_m Gamma^k_ij
    R = (np.einsum("ljki->lkij", dG)
         - np.einsum("likj->lkij", dG)
         + np.einsum("lim,mjk->lkij", G, G)
         - np.einsum("ljm,mik->lkij", G, G))
    return R


def sectional_curvature_fd(chart: KahlerChart, p, X, Y) -> float:
    """K(X, Y) = g(R(X,Y)Y, X) / (|X|^2 |Y|^2 - g(X,Y)^2)."""
    g0 = chart.metric(p)
    R = riemann_fd(chart, p)
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    RXYY = np.einsum("lkij,i,j,k->l", R, X, Y, Y)
    num = float(X @ g0 @ RXYY)
    den = (float(X @ g0 @ X) * float(Y @ g0 @ Y) - float(X @ g0 @ Y) ** 2)
    return num / den


def holomorphic_sectional_curvature_fd(chart: KahlerChart, p, X) -> float:
    return sectional_curvature_fd(chart, p, X, chart.J @ np.asarray(X, float))


def laplacian_fd(chart: KahlerChart, f, p) -> float:
    """Laplacian from FD Hessian and FD Christoffel symbols only."""
    H = fd_hessian(f, p)
    G = christoffel_fd(chart, p)
    grad = fd_gradient(f, p)
    Hcov = H - np.einsum("kij,k->ij", G, grad)
    return float(np.einsum("ij,ij->", np.linalg.inv(chart.metric(p)), Hcov))

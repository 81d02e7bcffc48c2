"""Chart-local tensor calculus: covariant derivatives, index moves, residuals.

Index conventions used throughout the package:

* the complex structure is the chart's constant matrix
  ``chart.J[i, j] = J^i_j``, so ``(J v)^i = chart.J @ v`` and the bar of a
  covector is ``chart.J.T @ w``;
* Christoffel arrays are ``G[k, i, j] = Gamma^k_ij``;
* the covariant Hessian array is ``H[i, j] = f_{,ij}`` and the third
  derivative array is ``T[i, j, k] = (f_{,ij})_{;k}``, symmetric in (i, j).

Every function that takes a chart takes one point of shape (d,) or a batch
of shape (N, d).  Batches are evaluated in one pass and results carry a
leading point axis; a single point gives results without it.
:func:`scalar_covariant_jets` evaluates nothing: it works on Taylor
coefficients its caller already evaluated over a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jets as J
from .charts import ChartJets, KahlerChart, checked_inverse, unbatch
from .fields import ScalarField


@dataclass(frozen=True)
class TensorValue:
    """Component array of a tensor at a point plus its index valence.

    valence entries are 'u' (upper) or 'l' (lower), one per tensor slot.
    The components may carry one extra leading axis over a batch of points.
    """

    components: np.ndarray
    valence: tuple[str, ...]

    def __post_init__(self):
        comp = np.asarray(self.components, dtype=float)
        object.__setattr__(self, "components", comp)
        if comp.ndim - len(self.valence) not in (0, 1):
            raise ValueError("valence length must equal tensor rank")

    @property
    def rank(self) -> int:
        return len(self.valence)

    @property
    def batched(self) -> bool:
        return self.components.ndim > self.rank

    def norm(self):
        """Frobenius norm: a float, or one per point for a batch."""
        if self.batched:
            return frob_rows(self.components)
        return frob(self.components)


def frob(a) -> float:
    return float(np.linalg.norm(np.asarray(a).ravel()))


def frob_rows(a) -> np.ndarray:
    """Frobenius norm of each point's slice of a batched array; an empty
    batch gives an empty array.

    Each row's square sum is one dot product, the kernel :func:`frob` runs,
    so every norm has the bits ``frob(row)`` gives.
    """
    a = np.asarray(a, dtype=float)
    rows = a.reshape(len(a), math.prod(a.shape[1:]))
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


# ---------------------------------------------------------------------------
# Christoffel symbols and covariant derivatives of scalars
# ---------------------------------------------------------------------------

def christoffel(chart: KahlerChart, p) -> TensorValue:
    """Levi-Civita connection coefficients Gamma^k_ij at p."""
    P, single = chart.batch(p)
    return TensorValue(unbatch(chart.at(P, 1).gamma0, single), ("u", "l", "l"))


def scalar_covariant_jets(fc, gamma, d: int, order: int) -> list[np.ndarray]:
    """Taylor coefficients of (f, f_{,i}, f_{,ij}, f_{,ijk}) through
    ``order`` (1..3) over a batch, one covariant step after another:

        T_{i_1..i_r;k} = d_k T_{i_1..i_r} - sum_s Gamma^l_{k i_s} T_{i_1..l..i_r}.

    ``fc`` are f's coefficients (N, M) in d variables and ``gamma`` Gamma's
    (N, d, d, d, M') at the same points (unused for order 1).  f_{,i}
    reaches degree top(fc) - 1, and each later entry one degree less, and
    no further than Gamma's degree; entry ``[..., 0]`` is the tensor at the
    points.
    """
    out = [fc, J.cgrad(fc, d)]
    for rank in range(1, order):
        T, grad = out[-1], J.cgrad(out[-1], d)
        top = min(J.top_of(d, grad.shape[-1]), J.top_of(d, gamma.shape[-1]))
        step, free = grad[..., :J.size(d, top)], "abc"[:rank]
        for s, i in enumerate(free):       # Gamma^l_{k i} T with l in slot s
            step -= J.cprod([gamma, T], f"lk{i},{free[:s]}l{free[s + 1:]}->{free}k",
                            d, top)
        out.append(step)
    return out


def nabla_scalar(chart: KahlerChart, f: ScalarField, p, order: int) -> TensorValue:
    """Covariant derivative of a scalar: f_{,i}, f_{,ij} or f_{,ijk}."""
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    P, single = chart.batch(p)
    gamma = chart.at(P, order - 1).gamma_coeffs(order - 2) if order >= 2 else None
    cov = scalar_covariant_jets(f.taylor(P, order), gamma, chart.dim, order)
    return TensorValue(unbatch(cov[order][..., 0], single), ("l",) * order)


def laplacian(chart: KahlerChart, f: ScalarField, p):
    """g^{ij} f_{,ij} (trace of the raised covariant Hessian)."""
    P, single = chart.batch(p)
    geo = chart.at(P, 1)
    H = scalar_covariant_jets(f.taylor(P, 2), geo.gamma_coeffs(), chart.dim, 2)[2]
    out = np.einsum("zij,zij->z", geo.ginv0, H[..., 0])
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# Index gymnastics and the Kahler structure
# ---------------------------------------------------------------------------

def raise_lower(chart: KahlerChart, t: TensorValue, p, slot: int,
                direction: str) -> TensorValue:
    """Move one index with the metric: direction 'up' or 'down'.

    For a batch of points, ``t`` carries the matching leading point axis.
    """
    P, single = chart.batch(p)
    if not 0 <= slot < t.rank:
        raise ValueError(f"slot {slot} out of range for rank-{t.rank} tensor")
    want_from = "l" if direction == "up" else "u"
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    if t.valence[slot] != want_from:
        raise ValueError(
            f"slot {slot} has valence '{t.valence[slot]}', cannot move {direction}")
    g0 = chart.at(P, 0).g0
    comp = t.components if t.batched else t.components[None]
    moved = np.moveaxis(comp, slot + 1, 1)
    if direction == "up":
        checked_inverse(g0)
        flat = moved.reshape(moved.shape[:2] + (-1,))
        new = np.linalg.solve(g0, flat).reshape(moved.shape)
    else:
        new = np.einsum("zia,za...->zi...", g0, moved)
    new = np.moveaxis(new, 1, slot + 1)
    valence = list(t.valence)
    valence[slot] = "u" if direction == "up" else "l"
    return TensorValue(new if t.batched else new[0], tuple(valence))


def bar_form(chart: KahlerChart, omega, p) -> TensorValue:
    """bar(w)_i = J^a_i w_a for a covector w."""
    P, single = chart.batch(p)
    if isinstance(omega, TensorValue):
        if omega.valence != ("l",):
            raise ValueError("bar_form expects a rank-1 lower-index tensor")
        w = omega.components
    else:
        w = np.asarray(omega, dtype=float)
    out = np.einsum("ai,za->zi", chart.J, np.broadcast_to(w, P.shape))
    return TensorValue(unbatch(out, single), ("l",))


def kahler_form(chart: KahlerChart, p) -> TensorValue:
    """J_ij = g_ia J^a_j, the Kahlerian 2-form."""
    P, single = chart.batch(p)
    return TensorValue(unbatch(chart.at(P, 0).g0 @ chart.J, single), ("l", "l"))


def _nabla_jstruct(Jm: np.ndarray, G0: np.ndarray) -> np.ndarray:
    """Covariant derivative (nabla_k J)^i_j of the constant J over a batch
    with Christoffel symbols G0, axes [z, i, j, k]."""
    return (np.einsum("zikl,lj->zijk", G0, Jm)
            - np.einsum("zlkj,il->zijk", G0, Jm))


def kahler_residuals(chart: KahlerChart, p):
    """(|J^2 + Id|, |J^T g J - g|, |nabla J|) in Frobenius norm.

    |J^2 + Id| is a property of the chart, the same at every point.  For a
    batch, each entry is an array with one residual per point.
    """
    P, single = chart.batch(p)
    rows = _kahler_rows(chart.at(P, 1))
    if single:
        return tuple(float(r[0]) for r in rows)
    return rows


def _kahler_rows(geo: ChartJets):
    """Per-point :func:`kahler_residuals` from the chart through metric
    order 1 over a batch."""
    g0 = geo.g0
    Jm = geo.chart.J
    r_sq = frob(Jm @ Jm + np.eye(len(Jm)))
    r_compat = frob_rows(Jm.T @ g0 @ Jm - g0)
    r_par = frob_rows(_nabla_jstruct(Jm, geo.gamma0))
    return np.full(len(g0), r_sq), r_compat, r_par

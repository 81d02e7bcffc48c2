"""Coordinate charts carrying a pseudo-Kahler structure.

A chart is the metric g_ij on a coordinate ball plus the complex structure
J^i_j, which in holomorphic coordinates is the constant standard one and is
held as the one (d, d) matrix ``chart.J``.  The metric and (derived) the
inverse metric and Christoffel symbols are available as derivative lists of
any order through the jet engine.  Every accessor takes one point of shape
(d,) or a batch of shape (N, d); a batch returns arrays with a leading point
axis, a single point returns them without it.

Charts are immutable and keep no per-point state.  :meth:`KahlerChart.at`
evaluates the metric once over a batch and hands out g, g^-1 and Gamma from
that one evaluation, so a consumer needing several of them pays for a single
potential evaluation.
"""

from __future__ import annotations

import numpy as np

from . import jets as J
from .errors import OutOfDomain, SingularMetric

#: A metric whose reciprocal condition number falls below this is singular.
#: The test is relative, so it does not depend on the metric's overall scale.
RCOND_FLOOR = 1e-12

#: Points per evaluation in :func:`chunked`, and RK4 steps per block of
#: :func:`~tannolab.tanno.transport_bundle`, which evaluates the chart and
#: builds its matrices per block.  Unchunked, the order-3 field jets and
#: order-1 Christoffels of a lightlike-jerk check take ~70 KB per point on
#: CP(3), 9 GB over a 2^17-sample path; at this size the check's traced
#: heap peaks at 84 MB over such a path.  A transport block evaluates the
#: chart at no more than 2 * 1024 + 1 stage points and holds as many
#: matrices of m = d^2 + d + 1 rows, 30 MB on CP(3).
POINT_CHUNK = 1024


def standard_complex_structure(dim: int) -> np.ndarray:
    """J pairing coordinates (x_1, x_2), (x_3, x_4), ...: J e_{2k} = e_{2k+1}."""
    Jm = np.zeros((dim, dim))
    for k in range(dim // 2):
        Jm[2 * k + 1, 2 * k] = 1.0
        Jm[2 * k, 2 * k + 1] = -1.0
    return Jm


def as_points(p, dim: int | None = None) -> tuple[np.ndarray, bool]:
    """(P, single): p as an (N, d) array, and whether p was one (d,) point.

    An empty input is an empty batch of shape (0, d).
    """
    p = np.asarray(p, dtype=float)
    if p.size == 0 and p.ndim <= 1:
        return np.empty((0, dim or 0)), False
    single = p.ndim <= 1
    P = p.reshape(1, -1) if single else p
    if P.ndim != 2:
        raise ValueError(f"points must have shape (d,) or (N, d), got {p.shape}")
    if dim is not None and P.shape[1] != dim:
        raise ValueError(f"point has length {P.shape[1]}, chart dimension is {dim}")
    if not np.isfinite(P).all():
        raise ValueError("point has non-finite coordinates")
    return P, single


def unbatch(x, single: bool):
    """Drop the point axis of an array (or of each array in a list)."""
    if not single:
        return x
    if isinstance(x, list):
        return [t[0] for t in x]
    return x[0]


def chunked(fn, *arrays) -> np.ndarray:
    """Per-point values of fn over consecutive chunks of POINT_CHUNK points.

    ``fn`` maps chunks of the arrays (sliced along their leading point axis)
    to one value per point; the values are concatenated.  Bounds the jet
    arrays of one evaluation when the point count is unbounded, as along a
    geodesic path.
    """
    n, size = len(arrays[0]), POINT_CHUNK
    parts = [fn(*(a[lo:lo + size] for a in arrays)) for lo in range(0, n, size)]
    return np.concatenate(parts) if parts else np.empty(0)


def checked_inverse(g0: np.ndarray, where: str = "") -> np.ndarray:
    """Inverse of a metric, or of each metric in a batch.

    Raises SingularMetric when a metric is numerically singular: its
    reciprocal condition number 1 / (|g|_1 |g^-1|_1) is below RCOND_FLOOR.
    The test is relative, so rescaling the metric does not change it.
    """
    suffix = f" {where}" if where else ""
    try:
        inv = np.linalg.inv(g0)
    except np.linalg.LinAlgError:
        raise SingularMetric(f"metric is singular{suffix}") from None
    norm1 = np.abs(g0).sum(axis=-2).max(axis=-1)
    inv_norm1 = np.abs(inv).sum(axis=-2).max(axis=-1)
    rcond = 1.0 / (norm1 * inv_norm1)
    if not np.all(rcond >= RCOND_FLOOR):
        worst = float(np.nanmin(np.where(np.isnan(rcond), 0.0, rcond)))
        raise SingularMetric(
            f"reciprocal condition number {worst:.3g} of g is below "
            f"{RCOND_FLOOR:g}{suffix}")
    return inv


def _constant_jets(a: np.ndarray, P: np.ndarray, order: int) -> list[np.ndarray]:
    n, d = P.shape
    return [np.repeat(a[None], n, axis=0)] + [
        np.zeros((n,) + a.shape + (d,) * m) for m in range(1, order + 1)]


class KahlerChart:
    """A single coordinate patch: evaluable g and the constant matrix J.

    ``metric_jets_fn(P, order)`` takes an (N, d) point array and returns a
    derivative list with a leading point axis (see :mod:`tannolab.jets`);
    ``J[i, j] = J^i_j``.  Use the classmethod constructors rather than
    calling __init__ directly.
    """

    def __init__(self, dim, metric_jets_fn, J, domain_radius, name):
        if dim % 2 != 0 or dim <= 0:
            raise ValueError("chart dimension must be a positive even integer")
        self.dim = int(dim)
        self.n = dim // 2
        self.domain_radius = float(domain_radius)
        if not self.domain_radius > 0:
            raise ValueError("domain_radius must be positive")
        self.name = name
        self._metric_jets_fn = metric_jets_fn
        self.J = np.asarray(J, dtype=float)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_constant(cls, g0, domain_radius=10.0, name="constant chart"):
        """Chart with the constant metric g0 and the standard J."""
        g0 = np.asarray(g0, dtype=float)
        dim = g0.shape[0]

        def metric_fn(P, order):
            return _constant_jets(g0, P, order)

        return cls(dim, metric_fn, standard_complex_structure(dim),
                   domain_radius, name)

    @classmethod
    def from_potential(cls, dim, potential_fn, domain_radius, name):
        """Kahler chart with the standard J and metric g = 1/2 (H + J^T H J),
        H the coordinate Hessian of the potential.  Such a metric is
        automatically symmetric, J-compatible and parallel-J."""
        J0 = standard_complex_structure(dim)
        # J0 is a signed permutation: J0 e_a = sign[a] e_perm[a], so
        # (J0^T H J0)_ab = sign[a] sign[b] H_{perm[a] perm[b]}.
        perm = np.argmax(np.abs(J0), axis=0)
        sign = J0[perm, np.arange(dim)]
        signs = np.outer(sign, sign)

        def metric_fn(P, order):
            pot = J.eval_scalar_expr(potential_fn, P, order + 2)
            out = []
            for m in range(order + 1):
                H = pot[m + 2]  # axes [z, a, b, ...]: first two read as (a, b)
                g = np.take(np.take(H, perm, axis=1), perm, axis=2)
                g *= signs.reshape(signs.shape + (1,) * m)
                g += H
                g *= 0.5
                out.append(g)
            return out

        return cls(dim, metric_fn, J0, domain_radius, name)

    # -- derived charts -------------------------------------------------------

    def rescaled(self, c: float) -> "KahlerChart":
        """Chart with metric c*g (same Levi-Civita connection, same J)."""
        if c == 0:
            raise ValueError("rescaling constant must be nonzero")
        base = self

        def metric_fn(P, order):
            return [c * t for t in base.metric_jets(P, order)]

        return KahlerChart(self.dim, metric_fn, self.J,
                           self.domain_radius, f"{self.name} (metric x {c:g})")

    def with_scaled_jstruct(self, s: float) -> "KahlerChart":
        """Deliberately broken chart (J scaled); for residual-detection tests."""
        return KahlerChart(self.dim, self._metric_jets_fn, s * self.J,
                           self.domain_radius, f"{self.name} (J x {s:g})")

    def with_negated_metric(self) -> "KahlerChart":
        return self.rescaled(-1.0)

    # -- domain ---------------------------------------------------------------

    def inside(self, p):
        """Whether p lies in the domain ball: a bool, or one per point."""
        P, single = as_points(p, self.dim)
        ok = np.linalg.norm(P, axis=1) <= self.domain_radius + 1e-12
        return bool(ok[0]) if single else ok

    def batch(self, p) -> tuple[np.ndarray, bool]:
        """(P, single): p validated and inside the domain, as an (N, d)
        batch, and whether p was one (d,) point."""
        P, single = as_points(p, self.dim)
        ok = self.inside(P)
        if not np.all(ok):
            q = P[int(np.argmin(ok))]
            raise OutOfDomain(
                f"|p| = {np.linalg.norm(q):.4g} exceeds domain radius "
                f"{self.domain_radius:g} of {self.name}")
        return P, single

    # -- jet access -------------------------------------------------------------

    def at(self, p, order: int) -> "ChartJets":
        """Geometry over a batch from one metric evaluation through ``order``."""
        P, _ = as_points(p, self.dim)
        return ChartJets(self, P, order)

    def metric_jets(self, p, order: int) -> list[np.ndarray]:
        P, single = as_points(p, self.dim)
        return unbatch(self._metric_jets_fn(P, order), single)

    def metric_inv_jets(self, p, order: int) -> list[np.ndarray]:
        """Derivative list of g^ij."""
        P, single = as_points(p, self.dim)
        return unbatch(ChartJets(self, P, order).ginv(order), single)

    def christoffel_jets(self, p, order: int) -> list[np.ndarray]:
        """Derivative list of Gamma^k_ij (array axes [k, i, j, ...])."""
        P, single = as_points(p, self.dim)
        return unbatch(ChartJets(self, P, order + 1).gamma(order), single)

    # -- plain values -----------------------------------------------------------

    def metric(self, p) -> np.ndarray:
        return np.array(self.metric_jets(p, 0)[0])

    def inner(self, p, u, v):
        """g(u, v) at p: a float, or one value per point for a batch."""
        P, single = as_points(p, self.dim)
        g0 = self.metric_jets(P, 0)[0]
        u = np.broadcast_to(np.asarray(u, dtype=float), P.shape)
        v = np.broadcast_to(np.asarray(v, dtype=float), P.shape)
        out = np.array([float(a @ g @ b) for a, g, b in zip(u, g0, v)])
        return float(out[0]) if single else out

    def __repr__(self):
        return f"KahlerChart({self.name}, dim={self.dim}, R={self.domain_radius:g})"


class ChartJets:
    """g, g^-1 and Gamma of one chart over one batch of points.

    The metric is evaluated once, through ``order``.  Inverse-metric jets
    (through the order asked for) and Christoffel jets (through
    ``order - 1``) are derived from that evaluation on first use and kept
    for the lifetime of this object, which usually belongs to a single
    batched call; one held longer is reduced with :meth:`pointwise`.
    This is the only place the chart's g^-1 and Gamma are derived.
    """

    def __init__(self, chart: KahlerChart, P: np.ndarray, order: int):
        self.chart = chart
        self.order = order
        self.g = chart.metric_jets(P, order)
        self._ginv: list | None = None
        self._gamma: list | None = None

    @classmethod
    def from_metric(cls, chart: KahlerChart, g: list) -> "ChartJets":
        """Geometry of ``chart`` from its metric jets ``g`` already evaluated
        over a batch, through order ``len(g) - 1``; g^-1 and Gamma are
        derived from them as :meth:`KahlerChart.at` would."""
        geo = cls.__new__(cls)
        geo.chart, geo.order, geo.g = chart, len(g) - 1, list(g)
        geo._ginv = geo._gamma = None
        return geo

    @property
    def g0(self) -> np.ndarray:
        return self.g[0]

    def ginv(self, order: int = 0) -> list[np.ndarray]:
        if order >= len(self.g):
            raise ValueError(f"g^-1 through order {order} needs the metric "
                             f"through {order}, held through {len(self.g) - 1}")
        if self._ginv is None or len(self._ginv) <= order:
            inv0 = checked_inverse(self.g[0], f"on {self.chart.name}")
            self._ginv = J.tinv(self.g, order, inv0)
        return self._ginv

    def gamma(self, order: int = 0) -> list[np.ndarray]:
        if order + 1 > self.order:
            raise ValueError(f"Gamma through order {order} needs the metric "
                             f"through {order + 1}, evaluated through {self.order}")
        if self._gamma is None:
            top = self.order - 1
            dg = []
            for m in range(top + 1):
                A = self.g[m + 1]  # axes [z, l, i, j, extra...], j the derivative
                dg.append(0.5 * (A + np.swapaxes(A, 2, 3)
                                 - np.moveaxis(A, (1, 2, 3), (2, 3, 1))))
            self._gamma = J.tconv(self.ginv(top), dg, "kl,lij->kij", top)
        return self._gamma

    def pointwise(self) -> "ChartJets":
        """This geometry, reduced to g and Gamma at the points: Gamma is
        derived, then the metric's derivatives and g^-1, which only Gamma
        needed, are let go.  For a holder that keeps the geometry across
        other work; g^-1 stays available at order 0 only.  Returns self."""
        self.gamma()
        self.g = self.g[:1]
        self._ginv = None
        return self

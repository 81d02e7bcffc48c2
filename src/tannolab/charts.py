"""Coordinate charts carrying a pseudo-Kahler structure.

A chart is the metric g_ij on a coordinate ball plus the complex structure
J^i_j, which in holomorphic coordinates is the constant standard one and is
held as the one (d, d) matrix ``chart.J``.  A chart evaluates its metric as
Taylor coefficients (see :mod:`tannolab.jets`), and the Christoffel
symbols are solved for as coefficients too; the public ``*_jets``
accessors expand them into derivative lists, and nothing in the package
calls them: g and Gamma at points come from :meth:`KahlerChart.at`.  Every
accessor takes one point of shape (d,) or a batch of shape (N, d); a batch
returns arrays with a leading point axis, a single point without it.

Charts are immutable and keep no per-point state.  :meth:`KahlerChart.at`
evaluates the metric once over a batch and hands out g, Gamma and solves
with g from that one evaluation, so a consumer needing several of them pays
for a single potential evaluation.
"""

from __future__ import annotations

import numpy as np

from . import jets as J
from .errors import OutOfDomain, SingularMetric

#: A metric whose reciprocal condition number falls below this is singular.
#: The test is relative, so it does not depend on the metric's overall scale.
RCOND_FLOOR = 1e-12

#: Points per evaluation in :func:`chunked`, and the bound on the blocks
#: of :func:`~tannolab.tanno.transport_bundle`, which evaluates the chart
#: and builds its matrices per block.  Unchunked, the order-3 field jets and
#: order-1 Christoffels of lightlike_third_derivative take ~70 KB per point on
#: CP(3), 9 GB over a 2^17-sample path; at this size the check's traced
#: heap peaks at 84 MB over such a path.  A transport block, over one path
#: or the lockstep steps of a batch, evaluates the chart at no more than
#: 2 * 1024 + 1 stage points (fewer when the batch's longest path has
#: fewer) and holds as many matrices of m = d^2 + d + 1 rows, 30 MB on CP(3).
POINT_CHUNK = 1024

#: Points per block of the suite's sample pass
#: (:attr:`~tannolab.verify.CheckContext.sample_rows`), which holds one
#: block's jets at a time, about 44 KB per point on CP(3).  Traced on CP(3)
#: at 200 samples (seed 7), the pass peaks at 8.85 MB in one block and at
#: 4.94 MB in blocks of 100, and at 1 000 samples at 46.1 and 7.09 MB.  At
#: 100 it is below lem2.star_power on the same suite (5.12 MB: its chain
#: plus what the context holds), so a smaller block lowers no suite peak.
SAMPLE_BLOCK = 100


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


def chunked(fn, *arrays, size: int | None = None):
    """Per-point values of fn over consecutive chunks of ``size`` points,
    :data:`POINT_CHUNK` unless given.

    ``fn`` maps chunks of the arrays (sliced along their leading point axis)
    to one value per point, or to a tuple of such arrays.  Each is written
    into an array over all points, allocated at the first chunk, so only
    one chunk's intermediates are alive at a time: this bounds the jet
    arrays of one evaluation when the point count is unbounded, as along a
    geodesic path.  No points give an empty array.
    """
    n, size, out, single = len(arrays[0]), size or POINT_CHUNK, None, False
    for lo in range(0, n, size):
        parts = fn(*(a[lo:lo + size] for a in arrays))
        single = not isinstance(parts, tuple)
        parts = (parts,) if single else parts
        if out is None:
            out = tuple(np.empty((n,) + p.shape[1:], p.dtype) for p in parts)
        for k, whole in enumerate(out):
            whole[lo:lo + size] = parts[k]
        del parts      # a chunk's values are not held into the next chunk
    if out is None:
        return np.empty(0)
    return out[0] if single else out


def checked_inverse(g0: np.ndarray, where: str = "") -> np.ndarray:
    """Inverse of a metric, or of each metric in a batch.

    Raises SingularMetric when a metric is numerically singular: its
    reciprocal condition number 1 / (|g|_1 |g^-1|_1) is below RCOND_FLOOR.
    The test is relative, so rescaling the metric does not change it.  In a
    batch the error names the first singular point, so it is the same
    however the points are split into blocks.
    """
    suffix = f" {where}" if where else ""
    try:
        inv = np.linalg.inv(g0)
    except np.linalg.LinAlgError:
        for g in g0.reshape(-1, *g0.shape[-2:]) if g0.ndim > 2 else ():
            checked_inverse(g, where)       # raises at the first singular one
        raise SingularMetric(f"metric is singular{suffix}") from None
    norm1 = np.abs(g0).sum(axis=-2).max(axis=-1)
    inv_norm1 = np.abs(inv).sum(axis=-2).max(axis=-1)
    rcond = np.ravel(1.0 / (norm1 * inv_norm1))
    singular = np.flatnonzero(~(rcond >= RCOND_FLOOR))    # NaN is singular
    if singular.size:
        first = float(np.nan_to_num(rcond[singular[0]], nan=0.0))
        raise SingularMetric(
            f"reciprocal condition number {first:.3g} of g is below "
            f"{RCOND_FLOOR:g}{suffix}")
    return inv


class KahlerChart:
    """A single coordinate patch: evaluable g and the constant matrix J.

    ``metric_fn(P, order)`` takes an (N, d) point array and returns the
    metric's Taylor coefficients through ``order``, shape (N, d, d, M) with
    the M monomials last (see :mod:`tannolab.jets`), or fewer degrees when
    the rest vanish; ``J[i, j] = J^i_j``.  Use the classmethod constructors
    rather than calling __init__ directly.
    """

    def __init__(self, dim, metric_fn, J, domain_radius, name):
        if dim % 2 != 0 or dim <= 0:
            raise ValueError("chart dimension must be a positive even integer")
        self.dim = int(dim)
        self.n = dim // 2
        self.domain_radius = float(domain_radius)
        if not self.domain_radius > 0:
            raise ValueError("domain_radius must be positive")
        self.name = name
        self._metric_fn = metric_fn
        self.J = np.asarray(J, dtype=float)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_constant(cls, g0, domain_radius=10.0, name="constant chart"):
        """Chart with the constant metric g0 and the standard J."""
        g0 = np.asarray(g0, dtype=float)
        dim = g0.shape[0]

        def metric_fn(P, order):
            return np.repeat(g0[None, :, :, None], len(P), axis=0)

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
        tables = {}

        def gathers(order):
            """g's coefficients through order as two gathers of the
            potential's through order + 2, each with its factor."""
            index, factor = J.partials(dim, 2, order)
            swap = np.ix_(perm, perm)
            return (index, 0.5 * factor, index[swap],
                    0.5 * np.outer(sign, sign)[..., None] * factor[swap])

        def metric_fn(P, order):
            table = tables.get(order)
            if table is None:
                table = tables[order] = gathers(order)
            i1, f1, i2, f2 = table
            pot = J.eval_coeffs(potential_fn, P, order + 2)
            return np.take(pot, i2, axis=-1) * f2 + np.take(pot, i1, axis=-1) * f1

        return cls(dim, metric_fn, J0, domain_radius, name)

    # -- derived charts -------------------------------------------------------

    def rescaled(self, c: float) -> "KahlerChart":
        """Chart with metric c*g (same Levi-Civita connection, same J)."""
        if c == 0:
            raise ValueError("rescaling constant must be nonzero")
        base = self

        def metric_fn(P, order):
            return c * base._metric_fn(P, order)

        return KahlerChart(self.dim, metric_fn, self.J,
                           self.domain_radius, f"{self.name} (metric x {c:g})")

    def with_scaled_jstruct(self, s: float) -> "KahlerChart":
        """Deliberately broken chart (J scaled); for residual-detection tests."""
        return KahlerChart(self.dim, self._metric_fn, s * self.J,
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
        return ChartJets(self, self.metric_coeffs(P, order), order)

    def metric_coeffs(self, P: np.ndarray, order: int) -> np.ndarray:
        """The metric's Taylor coefficients through ``order`` over an (N, d)
        batch, (N, d, d, M): every evaluation of the metric is this call."""
        return self._metric_fn(P, order)

    def metric_jets(self, p, order: int) -> list[np.ndarray]:
        P, single = as_points(p, self.dim)
        return unbatch(J.expand(self.metric_coeffs(P, order), self.dim, order),
                       single)

    def metric_inv_jets(self, p, order: int) -> list[np.ndarray]:
        """Derivative list of g^ij."""
        P, single = as_points(p, self.dim)
        geo = self.at(P, order)
        return unbatch(J.expand(J.cinv(geo.coeffs, self.dim, order, geo.ginv0),
                                self.dim, order), single)

    def christoffel_jets(self, p, order: int) -> list[np.ndarray]:
        """Derivative list of Gamma^k_ij (array axes [k, i, j, ...])."""
        P, single = as_points(p, self.dim)
        gamma = self.at(P, order + 1).gamma_coeffs(order)
        return unbatch(J.expand(gamma, self.dim, order), single)

    # -- plain values -----------------------------------------------------------

    def metric(self, p) -> np.ndarray:
        """g at p: (d, d), or (N, d, d) for a batch."""
        P, single = as_points(p, self.dim)
        return unbatch(self.at(P, 0).g0, single)

    def inner(self, p, u, v):
        """g(u, v) at p: a float, or one value per point for a batch."""
        P, single = as_points(p, self.dim)
        u = np.broadcast_to(np.asarray(u, dtype=float), P.shape)
        v = np.broadcast_to(np.asarray(v, dtype=float), P.shape)
        out = ((u[:, None] @ self.at(P, 0).g0) @ v[..., None])[:, 0, 0]
        return float(out[0]) if single else out

    def __repr__(self):
        return f"KahlerChart({self.name}, dim={self.dim}, R={self.domain_radius:g})"


def _first_kind(A: np.ndarray) -> np.ndarray:
    """1/2 (g_li,j + g_lj,i - g_ij,l), axes [z, l, i, j, ...], from the
    metric's gradient A[z, l, i, j, ...] = g_li,j."""
    out = A + np.swapaxes(A, 2, 3)
    out -= np.moveaxis(A, (1, 2, 3), (2, 3, 1))
    out *= 0.5
    return out


class ChartJets:
    """g and Gamma of one chart over one batch of points.

    ``coeffs`` are the metric's Taylor coefficients through ``order``, from
    one evaluation (:meth:`KahlerChart.at`).  Gamma's coefficients (through
    ``order - 1``), and g, g^-1 and Gamma at the points, are derived from
    them on first use and kept for the lifetime of this object, which
    belongs to a single batched call; one that reads less of g once Gamma
    exists is reduced with :meth:`trim`.  Across other work only the arrays
    ``g0`` and ``gamma0`` are held.  g^-1 meets a jet only in
    :meth:`solve_coeffs`, one :func:`~tannolab.jets.csolve`, and Gamma is
    one such solve; each reads ``ginv0``, from :func:`checked_inverse`.
    """

    def __init__(self, chart: KahlerChart, coeffs: np.ndarray, order: int):
        self.chart, self.coeffs, self.order = chart, coeffs, order
        self._g0 = self._ginv0 = self._gamma = self._gamma0 = None

    @property
    def g0(self) -> np.ndarray:
        if self._g0 is None:
            self._g0 = np.ascontiguousarray(self.coeffs[..., 0])
        return self._g0

    @property
    def ginv0(self) -> np.ndarray:
        """g^-1 at the points, (N, d, d), through :func:`checked_inverse`."""
        if self._ginv0 is None:
            self._ginv0 = checked_inverse(self.g0, f"on {self.chart.name}")
        return self._ginv0

    @property
    def gamma0(self) -> np.ndarray:
        """Gamma^k_ij at the points, (N, d, d, d) with axes [z, k, i, j]."""
        if self._gamma0 is None:
            self._gamma0 = np.ascontiguousarray(self.gamma_coeffs()[..., 0])
        return self._gamma0

    def solve_coeffs(self, rhs: list, order: int) -> np.ndarray:
        """Taylor coefficients through ``order`` of v with g v = b, for the
        list [b] of b's coefficients (N, d, ..., M) at the same points,
        which the solve empties: one :func:`~tannolab.jets.csolve`."""
        if order > self.order:
            raise ValueError(f"solving with g through order {order} needs the "
                             f"metric through {order}, held through {self.order}")
        return J.csolve(self.coeffs, rhs, self.chart.dim, order, self.ginv0)

    def gamma_coeffs(self, order: int = 0) -> np.ndarray:
        """Gamma's Taylor coefficients through at least ``order``,
        (N, d, d, d, M) with axes [z, k, i, j] for Gamma^k_ij."""
        d = self.chart.dim
        if self._gamma is None and self.order - 1 >= order:
            self._derive_gamma(self.order)
        if self._gamma is None or J.top_of(d, self._gamma.shape[-1]) < order:
            raise ValueError(f"Gamma through order {order} needs the metric "
                             f"through {order + 1}, evaluated through {self.order}")
        return self._gamma

    def _derive_gamma(self, keep: int) -> None:
        """Derive Gamma through order - 1 by one solve, g Gamma = the
        first-kind symbols, keeping the metric's coefficients only through
        ``keep`` (at least order - 1, all the solve reads): they are cut,
        as a copy so the rest is freed, once the symbols exist."""
        d, top = self.chart.dim, self.order - 1
        if keep < top:
            raise ValueError(f"Gamma through order {top} solves with the "
                             f"metric through {top}, not {keep}")
        # The solve empties the list it is given: the first-kind symbols,
        # referred to by nothing else, are freed once stacked.
        rhs = [_first_kind(J.cgrad(self.coeffs, d))]
        if keep < self.order:
            self.coeffs = self.coeffs[..., :J.size(d, keep)].copy()
            self.order = keep
        self._gamma = self.solve_coeffs(rhs, top)

    def trim(self, order: int) -> "ChartJets":
        """Derive Gamma, keeping the metric's coefficients only through
        ``order``, no lower than the metric's order - 1, for a holder that
        reads no more of g once Gamma exists; returns self."""
        self._derive_gamma(order)
        return self

"""The extended (2n+2)-dimensional operator and its polynomial calculus.

For a c = 1 problem the triple (a_ij, f_i, mu) at a point assembles into a
block matrix on R^2 x M:

        [ mu   0   | f_1 .. f_2n    ]
        [ 0    mu  | fb_1 .. fb_2n  ]
        [ --------+---------------- ]
        [ f^1 fb^1 |                ]
        [  :    :  |     a^i_j      ]
        [ f^2n fb^2n|               ]

Products of such matrices close up on solutions; the star product
F*H = -2FH - 1/2 F_{,al} H^{,al} realizes that closure at the level of the
scalar fields, and real polynomials act through P*(f).  Spectra of the
operator are constant over the manifold, which makes Lagrange projector
polynomials well-defined; the resulting idempotent operators expose the
eigenstructure the positivity analysis needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import jets as J
from .calculus import frob, frob_rows, scalar_covariant_jets
from .charts import ChartJets, KahlerChart, unbatch
from .errors import (DimensionMismatch, IllConditioned, NonConvergence,
                     NoRealSplit, NotProjector)
from .fields import ConstField, LinearComboField, ScalarField
from .tanno import TannoProblem

#: Idempotency bound of a projector's extended operator, per point.
PROJECTOR_TOL = 1e-7

#: Bound on the closure conditions of :func:`product_block_check`.
BLOCK_TOL = 1e-8

#: Eigenvalue tolerance of the projector analysis: clusters and eigenspaces
#: of a^i_j, and how close mu must be to 1 or 0 to count as extremal.
EIGEN_TOL = 1e-6


# ---------------------------------------------------------------------------
# Star product calculus
# ---------------------------------------------------------------------------

class StarField(ScalarField):
    """The star chain -c_0/2 + f*(-c_1/2 + ... f*(-c_{k-1}/2 + c_k H)), k >= 2,
    with F*H = -2 F H - 1/2 g^{ab} F_{,a} H_{,b}: P*(f) in Horner form for
    H = f (the default) and P = c_0 + c_1 t + ... + c_k t^k.

    Jets of order r need f and H through r + k - 1 and g through r + k - 2;
    each is evaluated once.  The lift g^{ab} f_{,a} is one solve with g
    (:meth:`~tannolab.charts.ChartJets.solve_coeffs`), so the chain holds
    no g^-1 jet, and the k - 1 levels read its bit-exact prefixes.  The
    chain runs on the Taylor coefficients the fields give
    (:mod:`tannolab.jets`), so a nested H hands over its chain's
    coefficients unrounded.  :meth:`levels` returns every level, so f^{*2},
    ..., f^{*k} of :func:`star_power` cost one chain.
    """

    def __init__(self, chart: KahlerChart, f: ScalarField, coeffs,
                 H: ScalarField | None = None):
        H = f if H is None else H
        if f.dim != H.dim or f.dim != chart.dim:
            raise DimensionMismatch("star product factors live on different charts")
        super().__init__(chart.dim)
        self.chart, self.f, self.H = chart, f, H
        self.coeffs = tuple(float(c) for c in coeffs)

    def _chain(self, P, order):
        """Taylor coefficients through ``order`` of the chain's k - 1 star
        products over an (N, d) batch, innermost first, one at a time."""
        *outer, c, lead = self.coeffs
        d, top = self.dim, order + len(outer)
        F = self.f.taylor(P, top)
        H = F if self.H is self.f else self.H.taylor(P, top)
        lifted = self.chart.at(P, top - 1).solve_coeffs(J.cgrad(F, d), top - 1)
        S = lead * H
        S[:, 0] = S[:, 0] - 0.5 * c
        for r, c in reversed(list(enumerate(outer, order))):
            prod = J.cprod([F, S], ",->", d, r)
            cross = J.cprod([lifted, J.cgrad(S, d)], "b,b->", d, r)
            S = -2.0 * prod - 0.5 * cross
            S[:, 0] = S[:, 0] - 0.5 * c
            yield S

    def levels(self, P, order):
        """Taylor coefficients through ``order`` of the chain's k - 1 star
        products over an (N, d) batch, innermost first; the last is the
        field's own."""
        width = J.size(self.dim, order)
        return [S[:, :width] for S in self._chain(P, order)]

    def _taylor(self, P, order):
        *_, S = self._chain(P, order)
        return S


def star_product(chart: KahlerChart, F: ScalarField, H: ScalarField) -> ScalarField:
    return StarField(chart, F, (0.0, 0.0, 1.0), H)


def star_power(chart: KahlerChart, f: ScalarField, k: int) -> ScalarField:
    """k-fold star power, nested as f * (f * (... )) to match L^k = L . L^(k-1)."""
    if k < 1:
        raise ValueError("star power needs k >= 1")
    return f if k == 1 else StarField(chart, f, (0.0,) * k + (1.0,))


# ---------------------------------------------------------------------------
# Real polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolynomialReal:
    """Real polynomial with ascending coefficients c_0 ... c_k."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        cs = tuple(float(c) for c in self.coeffs)
        while len(cs) > 1 and cs[-1] == 0.0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def from_roots(cls, roots) -> "PolynomialReal":
        cs = np.array([1.0])
        for r in roots:
            cs = np.convolve(cs, np.array([-float(r), 1.0]))
        return cls(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, t: float) -> float:
        out = 0.0
        for c in reversed(self.coeffs):
            out = out * t + c
        return out

    def eval_matrix(self, M: np.ndarray) -> np.ndarray:
        out = np.zeros_like(M)
        for c in reversed(self.coeffs):
            out = out @ M + c * np.eye(M.shape[0])
        return out

    def monic(self) -> "PolynomialReal":
        lead = self.coeffs[-1]
        return PolynomialReal(tuple(c / lead for c in self.coeffs))

    def __repr__(self):
        terms = [f"{c:g}*t^{k}" if k else f"{c:g}"
                 for k, c in enumerate(self.coeffs) if c != 0.0]
        return " + ".join(terms) if terms else "0"


def poly_star(chart: KahlerChart, f: ScalarField, P: PolynomialReal) -> ScalarField:
    """P*(f) = c_k f^{*k} + ... + c_1 f - 1/2 c_0, as one :class:`StarField`
    chain by Horner's rule, since f*(-c/2) = c f."""
    cs = P.coeffs
    if len(cs) > 2:
        return StarField(chart, f, cs)
    if len(cs) == 2:
        return LinearComboField([f], [cs[1]], -0.5 * cs[0])
    return ConstField(chart.dim, -0.5 * cs[0])


# ---------------------------------------------------------------------------
# The extended matrix
# ---------------------------------------------------------------------------

def _solve_vec(g0, v):
    return np.linalg.solve(g0, v[..., None])[..., 0]


def _standard_shape(mu, f, g0, Jm, ahat) -> np.ndarray:
    """Batched extended operators of standard shape: the one writer of the
    block layout.

    mu fills the corner diagonal, f and fbar = J f the top rows, their raised
    forms f^i and fbar^i the left columns, and a^i_j the lower right block.
    """
    n, d = f.shape
    fb = np.einsum("ai,za->zi", Jm, f)
    L = np.zeros((n, d + 2, d + 2))
    L[:, 0, 0] = L[:, 1, 1] = mu
    L[:, 0, 2:] = f
    L[:, 1, 2:] = fb
    L[:, 2:, 0] = _solve_vec(g0, f)
    L[:, 2:, 1] = _solve_vec(g0, fb)
    L[:, 2:, 2:] = ahat
    return L


def _blocks(L: np.ndarray):
    """(mu, f, fbar, f^, fbar^, a^i_j) of batched extended operators: the one
    reader of the block layout.

    Each block is a contiguous copy, so products of blocks run the same
    kernels, bit for bit, as products of separately built arrays.
    """
    return tuple(np.ascontiguousarray(b) for b in (
        L[:, 0, 0], L[:, 0, 2:], L[:, 1, 2:], L[:, 2:, 0], L[:, 2:, 1],
        L[:, 2:, 2:]))


def _operator(fc, geo: ChartJets) -> np.ndarray:
    """Batched extended operator from f's Taylor coefficients through order
    2 and the chart through metric order 1 at the same points.

    a^i_j is formed as g^{ia}(-f_{,aj}) - 2f delta^i_j, which keeps the
    mixed metric contraction g^{ia} g_{aj} = delta exact; in particular the
    constant solution f = -1/2 yields the identity operator bitwise.
    """
    f0, f1, H = (t[..., 0] for t in scalar_covariant_jets(
        fc, geo.gamma_coeffs(), geo.chart.dim, 2))
    g0 = geo.g0
    ahat = (np.linalg.solve(g0, -H)
            - (2.0 * f0)[:, None, None] * np.eye(g0.shape[-1]))
    return _standard_shape(-2.0 * f0, f1, g0, geo.chart.J, ahat)


def assemble_L(prob: TannoProblem, p) -> np.ndarray:
    """Extended operator of the bundle built from prob.f (c = 1 convention):
    one (d+2, d+2) matrix at a point, an (N, d+2, d+2) array over a batch."""
    P, single = prob.chart.batch(p)
    return unbatch(_operator(prob.f.taylor(P, 2), prob.chart.at(P, 1)), single)


@dataclass
class ProductBlockReport:
    """Outcome of comparing L(f) L(F) with the block product formula.

    Over a batch every entry holds one value per point (shape_residual is
    NaN where op_eq does not hold).
    """

    block_residual: float
    op_eq_linear: float       # |mu F_j + f_k A^k_j - (M f_j + a^k_j F_k)|
    op_eq_orthogonality: float  # |f^k Fbar_k|
    op_eq_holds: bool
    shape_residual: float | None   # vs the standard operator shape, if op_eq holds


def product_block_check(prob: TannoProblem, other: TannoProblem, p
                        ) -> ProductBlockReport:
    """Check the algebraic product formula and the closure conditions at p.

    The closure conditions hold where both are below :data:`BLOCK_TOL`.
    """
    if prob.chart.dim != other.chart.dim:
        raise DimensionMismatch("problems live on charts of different dimension")
    chart = prob.chart
    P, single = chart.batch(p)
    geo = chart.at(P, 1)
    Lf = _operator(prob.f.taylor(P, 2), geo)
    LF = _operator(other.f.taylor(P, 2),
                   geo if other.chart is chart else other.chart.at(P, 1))
    report = _product_block(Lf, LF, geo.g0, chart.J)
    if single:
        return ProductBlockReport(
            float(report.block_residual[0]), float(report.op_eq_linear[0]),
            float(report.op_eq_orthogonality[0]), bool(report.op_eq_holds[0]),
            float(report.shape_residual[0]) if report.op_eq_holds[0] else None)
    return report


def _product_block(Lf: np.ndarray, LF: np.ndarray, g0: np.ndarray, Jm: np.ndarray
                   ) -> ProductBlockReport:
    """:func:`product_block_check` over a batch, from the extended operators
    L(f) and L(F) at the points, the metric g0 there and the complex
    structure Jm."""
    product = Lf @ LF
    mu, f, fb, fu, fbu, a = _blocks(Lf)
    M, F, Fb, Fu, Fbu, A = _blocks(LF)
    n, d = f.shape

    # Per-point products through matmul with singleton axes, which runs the
    # same BLAS kernels (dot, gemv) as the unbatched products.
    def dot(u, v):
        return (u[:, None, :] @ v[:, :, None])[:, 0, 0]

    def vec_mat(u, X):
        return np.einsum("zk,zkj->zj", u, X)

    def mat_vec(X, u):
        return (X @ u[:, :, None])[:, :, 0]

    # Block formula assembled independently from the two block sets.
    mu_t = mu * M + dot(f, Fu)
    f_t = mu[:, None] * F + vec_mat(f, A)
    blk = np.zeros((n, d + 2, d + 2))
    blk[:, 0, 0] = blk[:, 1, 1] = mu_t
    blk[:, 0, 1] = dot(f, Fbu)
    blk[:, 1, 0] = dot(fb, Fu)
    blk[:, 0, 2:] = f_t
    blk[:, 1, 2:] = mu[:, None] * Fb + vec_mat(fb, A)
    blk[:, 2:, 0] = M[:, None] * fu + mat_vec(a, Fu)
    blk[:, 2:, 1] = M[:, None] * fbu + mat_vec(a, Fbu)
    blk[:, 2:, 2:] = (a @ A + np.einsum("zi,zj->zij", fu, F)
                      + np.einsum("zi,zj->zij", fbu, Fb))
    block_residual = frob_rows(product - blk)

    op_eq_linear = frob_rows(f_t - M[:, None] * f - vec_mat(F, a))
    op_eq_orth = np.abs(dot(fu, Fb))
    holds = (op_eq_linear < BLOCK_TOL) & (op_eq_orth < BLOCK_TOL)

    shape = _standard_shape(mu_t, f_t, g0, Jm, product[:, 2:, 2:])
    a_low = g0 @ product[:, 2:, 2:]
    shape_residual = np.where(
        holds, frob_rows(product - shape) + frob_rows(a_low - np.swapaxes(a_low, 1, 2)),
        np.nan)
    return ProductBlockReport(block_residual, op_eq_linear, op_eq_orth, holds,
                              shape_residual)


# ---------------------------------------------------------------------------
# Spectra, minimal polynomials, projectors
# ---------------------------------------------------------------------------

@dataclass
class SpectrumResult:
    """Clustered real eigenvalues plus any complex-pair clusters, and the
    spectral radius max |lambda| of the matrix."""

    clusters: list[tuple[float, int]]
    complex_pairs: list[tuple[complex, int]] = field(default_factory=list)
    radius: float = 0.0

    @property
    def real_values(self) -> list[float]:
        return [v for v, _ in self.clusters]


def _real_clusters(values: np.ndarray, rows: np.ndarray, tol: np.ndarray,
                   count: int) -> list[list[tuple[float, int]]]:
    """Clusters of the real eigenvalues ``values`` of ``count`` matrices,
    ``rows[k]`` the matrix of ``values[k]`` and ``tol`` one tolerance per
    matrix.

    A matrix's values, in ascending order, join the current cluster while
    each lies within its tolerance of the one before.  A cluster stands for
    the mean of its members, summed as ``np.mean`` sums them: one row
    reduction per cluster size, so each mean has the bits of ``np.mean``.
    """
    order = np.lexsort((values, rows))
    values, rows = values[order], rows[order]
    fresh = np.ones(len(values), bool)
    fresh[1:] = (rows[1:] != rows[:-1]) | ~(np.diff(values) <= tol[rows[1:]])
    starts = np.flatnonzero(fresh)
    sizes = np.diff(np.append(starts, len(values)))
    sums = np.empty(len(starts))
    for size in set(sizes.tolist()):
        pick = sizes == size
        sums[pick] = values[starts[pick, None] + np.arange(size)].sum(axis=1)
    pairs = list(zip((sums / sizes).tolist(), sizes.tolist()))
    cuts = np.searchsorted(rows[starts], np.arange(count + 1)).tolist()
    return [pairs[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]


def _pair_clusters(upper: np.ndarray, tol: float) -> list[tuple[complex, int]]:
    """Clusters of one matrix's eigenvalues with positive imaginary part:
    by ascending real part, each joins the current cluster when within tol
    of its first member."""
    pairs = []
    for z in upper[np.argsort(upper.real)]:
        if pairs and abs(z - pairs[-1][0]) <= tol:
            pairs[-1] = (pairs[-1][0], pairs[-1][1] + 1)
        else:
            pairs.append((complex(z), 1))
    return pairs


def spectra(Ms: np.ndarray, cluster_tol: float | None = None
            ) -> list[SpectrumResult]:
    """Clustered eigenvalues of each matrix of an (N, m, m) stack, from one
    eigenvalue call for the whole stack.

    An eigenvalue is real when its imaginary part is within the tolerance:
    ``cluster_tol``, or 1e-6 max(1, max |lambda|) per matrix by default.
    An empty stack gives an empty list.
    """
    Ms = np.asarray(Ms, float)
    if not len(Ms):
        return []
    try:
        ev = np.linalg.eigvals(Ms)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigenvalue iteration failed: {exc}") from exc
    radius = np.max(np.abs(ev), axis=1, initial=0.0)
    tol = (1e-6 * np.maximum(1.0, radius) if cluster_tol is None
           else np.full(len(ev), float(cluster_tol)))
    real = np.abs(ev.imag) <= tol[:, None]
    rows, cols = np.nonzero(real)
    clusters = _real_clusters(ev.real[rows, cols], rows, tol, len(ev))
    upper = ~real & (ev.imag > 0)
    pairs = [[] for _ in range(len(ev))]
    for k in np.flatnonzero(upper.any(axis=1)).tolist():
        pairs[k] = _pair_clusters(ev[k][upper[k]], tol[k])
    return [SpectrumResult(c, p, r)
            for c, p, r in zip(clusters, pairs, radius.tolist())]


def spectrum(M: np.ndarray, cluster_tol: float | None = None) -> SpectrumResult:
    """Eigenvalues of the extended matrix, merged into clusters: one matrix's
    entry of :func:`spectra`."""
    return spectra(np.asarray(M, float)[None], cluster_tol)[0]


def _annihilator(reals, pairs) -> PolynomialReal:
    """Product of (t - r) over the real roots and of (t - z)(t - conj z) over
    the complex pairs (z, multiplicity)."""
    P = PolynomialReal.from_roots(reals)
    for z, _ in pairs:
        P = PolynomialReal(tuple(np.convolve(
            P.coeffs, (abs(z) ** 2, -2 * z.real, 1.0))))
    return P


def minimal_polynomial(M: np.ndarray, tol: float = 1e-6) -> PolynomialReal:
    """Monic annihilating polynomial from clustered eigenvalues.

    Assumes one factor per distinct cluster (diagonalizable case) and
    verifies the annihilation bound a posteriori.
    """
    M = np.asarray(M, float)
    radius = max(1.0, spectrum(M).radius)
    return _minimal_polynomial(M, spectrum(M, cluster_tol=tol * radius), tol)


def _minimal_polynomial(M: np.ndarray, spec: SpectrumResult,
                        tol: float = 1e-6) -> PolynomialReal:
    """:func:`minimal_polynomial` of M from ``spec``, M's spectrum clustered
    at tol max(1, max |lambda|); for tol = 1e-6 that is :func:`spectrum`'s
    default."""
    radius = max(1.0, spec.radius)
    reps = spec.real_values
    if len(reps) >= 2:
        gaps = np.diff(sorted(reps))
        if np.min(gaps) < 10 * tol * radius:
            raise IllConditioned("eigenvalue clusters overlap within tolerance")
    P = _annihilator(reps, spec.complex_pairs)
    scale = max(1.0, frob(M)) ** P.degree
    if frob(P.eval_matrix(M)) >= tol * scale:
        raise IllConditioned(
            "clustered roots do not annihilate the matrix (defective or "
            "overlapping clusters)")
    for drop in range(len(reps)):
        Q = _annihilator([r for i, r in enumerate(reps) if i != drop],
                         spec.complex_pairs)
        if frob(Q.eval_matrix(M)) < tol * max(1.0, frob(M)) ** Q.degree:
            raise IllConditioned("a proper divisor already annihilates; "
                                 "clusters were merged too aggressively")
    return P


def projector_from_solution(prob: TannoProblem, sample_points
                            ) -> tuple[PolynomialReal, ScalarField]:
    """Lagrange polynomial sending the top real cluster to 1, rest to 0.

    Returns (P, P*(f)); the resulting operator is verified to be a
    non-trivial projector at every sample point, to :data:`PROJECTOR_TOL`.
    """
    pts, _ = prob.chart.batch(sample_points)
    if not len(pts):
        raise ValueError("need at least one sample point")
    spec = spectrum(assemble_L(prob, pts[0]))
    P, f_proj, _ = _projector_with_operator(prob, pts, spec,
                                            prob.chart.at(pts, 1))
    return P, f_proj


def _projector_with_operator(prob: TannoProblem, pts: np.ndarray,
                             spec: SpectrumResult, geo: ChartJets):
    """(P, P*(f), L) of :func:`projector_from_solution` over the (N, d)
    batch ``pts``, given ``spec``, the spectrum of L(f) at pts[0], and
    ``geo``, g and Gamma of prob's chart at pts; L holds the (N, d+2, d+2)
    entries of L(P*(f)) it verified at the points."""
    reps = spec.real_values
    if len(reps) < 2:
        raise NoRealSplit(
            "a non-trivial projector needs at least two real eigenvalue "
            f"clusters, found {len(reps)}")
    lam_max = max(reps)
    others = [r for r in reps if r != lam_max]
    denom = float(np.prod([lam_max - r for r in others]))
    P = PolynomialReal.from_roots(others)
    P = PolynomialReal(tuple(c / denom for c in P.coeffs))
    f_proj = poly_star(prob.chart, prob.f, P)
    d = prob.chart.dim
    Ls = _operator(f_proj.taylor(pts, 2), geo)
    residuals = frob_rows(Ls @ Ls - Ls)
    bad = np.flatnonzero(~(residuals < PROJECTOR_TOL))
    if bad.size:
        k = int(bad[0])
        raise NotProjector(f"idempotency residual {residuals[k]:.3g} at {pts[k]}")
    L1 = Ls[0]
    if frob(L1) < PROJECTOR_TOL or frob(L1 - np.eye(d + 2)) < PROJECTOR_TOL:
        raise NoRealSplit("projector is trivial (0 or identity)")
    return P, f_proj, Ls


@dataclass
class EigenstructureReport:
    """Eigen data of a^i_j at a point of a projector solution."""

    mu: float
    clusters: list[tuple[float, int]]
    classification: str        # classify_mu(mu): labels the point only
    k_param: int

    def expected_clusters(self, n: int) -> dict[float, int]:
        """The eigenvalues of a^i_j and their multiplicities on CP(n): 1 (2k
        times), 0 (2n - 2k - 2 times) and 1 - mu (twice), equal values
        merged; at mu = 1 and mu = 0 these are the extremal rows."""
        k = self.k_param
        table = {1.0: 2 * k, 0.0: 2 * n - 2 * k - 2}
        table[1.0 - self.mu] = table.get(1.0 - self.mu, 0) + 2
        return {v: m for v, m in table.items() if m > 0}


def classify_mu(mu: float) -> str:
    """Eigenstructure case of a projector solution at a point with this mu:
    "mu_max" at mu = 1, "mu_min" at mu = 0, otherwise "interior"."""
    if abs(mu - 1.0) <= 10 * EIGEN_TOL:
        return "mu_max"
    if abs(mu) <= 10 * EIGEN_TOL:
        return "mu_min"
    return "interior"


def eigenstructure_at(prob: TannoProblem, p):
    """Classify the a^i_j eigenstructure at p for a projector solution.

    Returns one report for a single point, a list of reports for a batch.
    """
    P, single = prob.chart.batch(p)
    reports = _eigenstructure(_operator(prob.f.taylor(P, 2), prob.chart.at(P, 1)))
    return reports[0] if single else reports


def _eigenstructure(Ls: np.ndarray) -> list[EigenstructureReport]:
    """One report per (d+2, d+2) extended operator of a projector solution.

    k comes from the projector's rank 2k + 2, which is its trace.
    """
    idem = frob_rows(Ls @ Ls - Ls)
    scale = np.maximum(1.0, frob_rows(Ls))
    if np.any(~(idem < PROJECTOR_TOL * scale)):
        raise NotProjector("extended operator is not idempotent at p")
    mus, *_, ahats = _blocks(Ls)
    ks = (np.rint(np.trace(Ls, axis1=1, axis2=2)).astype(int) - 2) // 2
    return [EigenstructureReport(mu, spec.clusters, classify_mu(mu), k)
            for mu, spec, k in zip(mus.tolist(), spectra(ahats, EIGEN_TOL),
                                   ks.tolist())]

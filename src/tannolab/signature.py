"""Metric inertia and the eigenspace-restriction positivity checks.

At an extremum of mu the Hessian identity mu_{,ij} = 2 a_ij - 2 mu g_ij
restricted to the appropriate a-eigenspace pins the sign of g there; away
from extrema the verdict is a plain inertia scan over samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .calculus import frob
from .charts import KahlerChart, checked_inverse
from .errors import DegenerateBasis, NoExtremalPoint
from .operator import EIGEN_TOL, _blocks, _operator, classify_mu
from .tanno import TannoProblem, _mu_hessian

#: |grad mu| below which a refined point counts as a critical point of mu.
GRAD_THRESHOLD = 1e-6

#: Newton on grad mu = 0 stops a start once its step is below this fraction
#: of the domain radius, or after NEWTON_MAX_ITER batched iterations.
NEWTON_STEP_TOL = 1e-12
NEWTON_MAX_ITER = 60

#: Relative cutoff of the Hessian's pseudo-inverse: smaller eigenvalues are
#: the flat directions of a degenerate critical set, and get no step.
NEWTON_RCOND = 1e-10

#: Value spread and gradient norm below which a solution counts as constant.
CONSTANT_TOL = 1e-10

#: Eigenvalues of a form below this times max(1, its largest |eigenvalue|)
#: are rounding, and count as zero.
INERTIA_TOL = 1e-9


def is_constant(spread: float, grad_norms) -> bool:
    """A solution is constant on the samples when its values do not spread
    and its gradient vanishes at every sample."""
    return spread < CONSTANT_TOL and max(grad_norms) < CONSTANT_TOL


def metric_signature(chart: KahlerChart, p):
    """(n_pos, n_neg) inertia of g at p via symmetric eigendecomposition.

    Returns one pair for a single point, a list of pairs for a batch.
    """
    P, single = chart.batch(p)
    pairs = _metric_inertias(chart, chart.metric_jets(P, 0)[0])
    return pairs[0] if single else pairs


def _metric_inertias(chart: KahlerChart, g0) -> list[tuple[int, int]]:
    """(n_pos, n_neg) of each of the chart's metrics g0 (N, d, d)."""
    checked_inverse(g0, f"on {chart.name}")
    ev = np.linalg.eigvalsh(0.5 * (g0 + np.swapaxes(g0, 1, 2)))
    return [(int(n_pos), int(n_neg))
            for n_pos, n_neg in zip(np.sum(ev > 0, axis=1), np.sum(ev < 0, axis=1))]


def restrict_form(form, basis) -> np.ndarray:
    """Gram matrix of a symmetric bilinear form on the span of basis vectors."""
    B = np.column_stack([np.asarray(v, dtype=float) for v in basis])
    sv = np.linalg.svd(B, compute_uv=False)
    if sv.size == 0 or sv[-1] < 1e-8 * max(1.0, sv[0]):
        raise DegenerateBasis("basis vectors are numerically dependent")
    form = np.asarray(form, dtype=float)
    return B.T @ form @ B


def _inertia(sym: np.ndarray) -> tuple[int, int]:
    ev = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    tol = INERTIA_TOL * max(1.0, float(np.max(np.abs(ev))) if ev.size else 1.0)
    return (int(np.sum(ev > tol)), int(np.sum(ev < -tol)))


def _eigenspace(mat: np.ndarray, value: float):
    """Orthonormal basis of the (numerical) eigenspace of a square matrix, to
    :data:`~tannolab.operator.EIGEN_TOL`."""
    d = mat.shape[0]
    u, s, vt = np.linalg.svd(mat - value * np.eye(d))
    scale = max(1.0, s[0]) if s.size else 1.0
    null_mask = s < EIGEN_TOL * scale
    basis = vt[null_mask].T
    return [basis[:, i] for i in range(basis.shape[1])]


@dataclass
class ExtremalFinding:
    """One located critical point of mu and the restriction checks there."""

    point: np.ndarray
    mu: float
    kind: str                      # classify_mu(mu): mu_max, mu_min or interior
    grad_norm: float
    hessian_eigs: list[float] = field(default_factory=list)
    hessian_inertia: tuple[int, int] | None = None
    g_restricted_inertia: tuple[int, int] | None = None
    identity_residual: float | None = None


@dataclass
class SignatureReport:
    """Outcome of the positivity scan over a sample set."""

    n_pos: int
    n_neg: int
    per_point: list[tuple[np.ndarray, tuple[int, int]]]
    verdict: str                   # positive|negative|indefinite|mixed-across-points
    extremal_findings: list[ExtremalFinding] = field(default_factory=list)
    witnessed_cases: list[str] = field(default_factory=list)
    note: str = ""
    newton_iterations: int = 0     # batched Newton iterations of the search
    starts_converged: int = 0      # starts that reached |grad mu| < GRAD_THRESHOLD
    starts_total: int = 0


def _verdict_from_inertias(inertias, dim) -> tuple[int, int, str]:
    uniq = sorted(set(inertias))
    if len(uniq) > 1:
        return uniq[0][0], uniq[0][1], "mixed-across-points"
    np_, nn = uniq[0]
    if np_ == dim:
        v = "positive"
    elif nn == dim:
        v = "negative"
    else:
        v = "indefinite"
    return np_, nn, v


def _refine_extremum(chart: KahlerChart, mu_field, X0):
    """Batched Newton on grad mu = 0 from every row of X0.

    Each iteration makes one order-2 jet call at the trial points of the
    running starts.  A trial that lowers |grad mu|^2 is accepted and the
    next step is the minimum-norm Newton step -H^+ grad mu (the pseudo-
    inverse of the exact Hessian), so starts also converge onto degenerate
    critical sets; otherwise the step is halved (backtracking).  A start
    stops when its step is below NEWTON_STEP_TOL * domain radius; one whose
    trial leaves the domain is dropped.

    Returns (X, gnorm, iterations): the last accepted points, |grad mu| there
    (inf for a dropped start) and the number of iterations.
    """
    X = np.array(X0, dtype=float)
    trial = X.copy()
    step = np.zeros_like(X)
    alpha = np.ones(len(X))
    phi = np.full(len(X), np.inf)          # |grad mu|^2 at X
    running = np.ones(len(X), dtype=bool)
    tol = NEWTON_STEP_TOL * chart.domain_radius
    iterations = 0
    while running.any() and iterations < NEWTON_MAX_ITER:
        iterations += 1
        idx = np.flatnonzero(running)
        _, G, H = mu_field.jets(trial[idx], 2)
        phi_t = np.einsum("zi,zi->z", G, G)
        better = phi_t < phi[idx]
        acc = idx[better]
        X[acc], phi[acc], alpha[acc] = trial[acc], phi_t[better], 1.0
        if acc.size:
            Hs = 0.5 * (H[better] + np.swapaxes(H[better], 1, 2))
            Hinv = np.linalg.pinv(Hs, NEWTON_RCOND, hermitian=True)
            step[acc] = -np.einsum("zij,zj->zi", Hinv, G[better])
        alpha[idx[~better]] *= 0.5
        move = alpha[idx, None] * step[idx]
        running[idx] = np.linalg.norm(move, axis=1) > tol
        trial[idx] = X[idx] + move
        out = running & ~chart.inside(trial)
        phi[out] = np.inf
        running &= ~out
    return X, np.sqrt(phi), iterations


def positivity_scan(prob: TannoProblem, samples) -> SignatureReport:
    """Inertia scan plus eigenspace restrictions at located mu-extrema.

    ``prob.f`` should be a projector solution (c = 1).  Constant solutions
    bypass the extremal analysis: the hypothesis of the positivity theorem
    (a non-constant solution) is not met, and the report says so.
    """
    chart = prob.chart
    P, _ = chart.batch(samples)
    if not len(P):
        raise ValueError("need at least one sample point")
    return _positivity_scan(prob, P, chart.metric_jets(P, 0)[0],
                            *prob.f.jets(P, 1))


def _positivity_scan(prob, P, g0, values, gradients) -> SignatureReport:
    """:func:`positivity_scan` at P from g0, f's values and f's gradients."""
    chart = prob.chart
    inertias = _metric_inertias(chart, g0)
    per_point = list(zip(P, inertias))
    n_pos, n_neg, verdict = _verdict_from_inertias(inertias, chart.dim)

    grads = [float(np.linalg.norm(g)) for g in gradients]
    spread = float(values.max() - values.min())
    if is_constant(spread, grads):
        return SignatureReport(
            n_pos, n_neg, per_point, verdict,
            note="constant solution, positivity-theorem hypothesis not met")

    mu_field = -2.0 * prob.f
    mu_vals = -2.0 * values

    # Locate critical points of mu: refine from the best sample starts plus
    # radial shrinks towards the chart center (|grad mu| can also decay
    # towards the chart boundary, stranding a single descent run there).
    starts = []
    order = np.argsort([g for g in grads])
    for idx in order[:4]:
        for t in (1.0, 0.5, 0.25, 0.0):
            x0 = t * P[idx]
            # Each start is refined once; every t = 0 start is the center.
            if not any(np.array_equal(x0, s) for s in starts):
                starts.append(x0)
    X, gnorms, iterations = _refine_extremum(chart, mu_field, np.array(starts))
    found = gnorms < GRAD_THRESHOLD
    if not found.any():
        raise NoExtremalPoint(
            f"no point with |grad mu| < {GRAD_THRESHOLD:g} found "
            "(chart may not contain the extremum)")
    X, gnorms = X[found], gnorms[found]

    geo = chart.at(X, 1)
    fc = prob.f.taylor(X, 2)
    mus, *_, ahats = _blocks(_operator(fc, geo))
    mu_hess_all = _mu_hessian(fc, geo)
    # One finding per critical set: points with the same mu level and the
    # same Hessian inertia; the one with the smallest |grad mu| stands for it.
    sets = {}                       # (inertia, mu level) -> point index
    for k in np.argsort(gnorms, kind="stable"):
        inertia = _inertia(mu_hess_all[k])
        if not any(inertia == other and abs(mus[k] - level) <= 10 * EIGEN_TOL
                   for other, level in sets):
            sets[inertia, float(mus[k])] = k

    findings = []
    witnessed = set()
    for (inertia, mu_star), k in sets.items():
        # At a critical point f_i = 0, so the corner of L^2 = L reads
        # mu^2 = mu: mu is 1 (a maximum) or 0 (a minimum).  An "interior"
        # label means the point is not one, and gets no restriction.
        kind = classify_mu(mu_star)
        mu_hess = mu_hess_all[k]
        hess_eigs = list(np.linalg.eigvalsh(0.5 * (mu_hess + mu_hess.T)))
        finding = ExtremalFinding(X[k], mu_star, kind, float(gnorms[k]),
                                  hess_eigs, inertia)
        # Restricted to the a-eigenspace of `value`, the Hessian identity
        # reads h = -2 sign g: h = -2g at a maximum, h = 2g at a minimum.
        value, sign = (0.0, 1.0) if kind == "mu_max" else (1.0, -1.0)
        basis = ([] if kind == "interior"
                 else _eigenspace(ahats[k], value))
        if basis:
            g_rest = restrict_form(geo.g0[k], basis)
            h_rest = restrict_form(mu_hess, basis)
            finding.g_restricted_inertia = _inertia(g_rest)
            finding.identity_residual = frob(h_rest + (sign * 2.0) * g_rest)
        witnessed.add(kind)
        findings.append(finding)

    # Which of the three eigenstructure cases did the samples visit?
    witnessed.update(classify_mu(float(mv)) for mv in mu_vals)

    return SignatureReport(n_pos, n_neg, per_point, verdict, findings,
                           sorted(witnessed), newton_iterations=iterations,
                           starts_converged=int(found.sum()),
                           starts_total=len(starts))

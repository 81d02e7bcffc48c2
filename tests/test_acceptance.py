"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import time

import numpy as np
import pytest

from tannolab.calculus import christoffel, frob, nabla_scalar
from tannolab import fd
from tannolab.fields import ConstField, ExprField
from tannolab.manifolds import (cpn_height_function, flat_kahler_chart,
                                fubini_study_chart, integrate_geodesic,
                                random_lightlike_directions,
                                random_quadratic_field, sample_points)
from tannolab.operator import (assemble_L, eigenstructure_at,
                               minimal_polynomial, projector_from_solution,
                               spectrum, star_power)
from tannolab.signature import positivity_scan
from tannolab.tanno import (SolutionBundle, TannoProblem, bundle_from_f,
                            f_from_mu, laplace_identity_residual,
                            lightlike_third_derivative, mu_hessian_residual,
                            system_residual, tanno_residual,
                            trace_identity_residual, transport_bundle)

SEED = 2024
_SUITE_T0 = time.perf_counter()


def _line(num: int, label: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    extra = f"  ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {tag}  {label}{extra}")
    assert ok, f"criterion {num} failed: {label} {extra}"


@pytest.fixture(scope="module")
def cp_setups():
    out = {}
    for n in (1, 2):
        chart = fubini_study_chart(n)
        f = cpn_height_function(n, 0)
        pts = sample_points(chart, 50, SEED + n, 1.5)
        out[n] = (chart, f, pts)
    return out


@pytest.fixture(scope="module")
def cp_unit_setups(cp_setups):
    out = {}
    for n, (chart, f, pts) in cp_setups.items():
        out[n] = (chart.rescaled(0.25), f, pts)
    return out


def test_criterion_01_tanno_residual(cp_setups):
    t0 = time.perf_counter()
    worst = 0.0
    for n, (chart, f, pts) in cp_setups.items():
        prob = TannoProblem(chart, f, 0.25)
        worst = max(worst, max(frob(tanno_residual(prob, p)) for p in pts))
    elapsed = time.perf_counter() - t0
    _line(1, "third-order residual on CP(1)/CP(2), c=1/4, 50 points",
          worst < 1e-7 and elapsed < 10.0,
          f"max={worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_laplace_identity(cp_setups):
    worst = 0.0
    for n, (chart, f, pts) in cp_setups.items():
        prob = TannoProblem(chart, f, 0.25)
        worst = max(worst, max(laplace_identity_residual(prob, p) for p in pts))
    _line(2, "contracted identity (Delta f)_k = -4c(n+1) f_k", worst < 1e-6,
          f"max={worst:.2e}")


def test_criterion_03_bundle_equivalence(cp_unit_setups):
    worst_sys = 0.0
    worst_trace = 0.0
    exact = True
    for n, (chart, f, pts) in cp_unit_setups.items():
        prob = TannoProblem(chart, f, 1.0)
        for p in pts:
            worst_sys = max(worst_sys, max(system_residual(prob, p)))
            worst_trace = max(worst_trace, trace_identity_residual(prob, p))
            b = bundle_from_f(prob, p)
            exact = exact and (f_from_mu(b.mu) == f(p))
    _line(3, "system residual, exact inverse, trace identity",
          worst_sys < 1e-7 and exact and worst_trace < 1e-6,
          f"sys={worst_sys:.2e}, trace={worst_trace:.2e}, exact={exact}")


def test_criterion_04_transport(cp_unit_setups):
    chart, f, pts = cp_unit_setups[1]
    prob = TannoProblem(chart, f, 1.0)
    d = chart.dim
    rng = np.random.default_rng(SEED)
    worst_zero = 0.0
    for _ in range(10):
        way = [rng.uniform(-0.9, 0.9, size=d) for _ in range(4)]
        zero = SolutionBundle(np.zeros((d, d)), np.zeros(d), 0.0)
        out = transport_bundle(chart, way, zero)
        worst_zero = max(worst_zero, out.norm())
    worst_match = 0.0
    for p, q in zip(pts[:6], pts[1:7]):
        init = bundle_from_f(prob, p)
        out = transport_bundle(chart, [p, q], init)
        ref = bundle_from_f(prob, q)
        worst_match = max(worst_match, frob(out.a - ref.a),
                          float(np.linalg.norm(out.grad - ref.grad)),
                          abs(out.mu - ref.mu))
    ts = np.linspace(0, 2 * np.pi, 61)
    loop = [np.array([0.2 + 0.5 * (np.cos(t) - 1), 0.5 * np.sin(t)])
            for t in ts]
    init = bundle_from_f(prob, loop[0])
    out = transport_bundle(chart, loop, init)
    defect = max(frob(out.a - init.a),
                 float(np.linalg.norm(out.grad - init.grad)),
                 abs(out.mu - init.mu))
    _line(4, "Frobenius transport: zero, point match, loop defect",
          worst_zero < 1e-10 and worst_match < 1e-5 and defect < 1e-5,
          f"zero={worst_zero:.1e}, match={worst_match:.1e}, loop={defect:.1e}")


def test_criterion_05_operator_algebra(cp_unit_setups):
    from tannolab.operator import product_block_check
    from tannolab.manifolds import random_polynomial_field

    # Identity at the constant solution, bitwise.
    exact = True
    for n, (chart, f, pts) in cp_unit_setups.items():
        prob_id = TannoProblem(chart, ConstField(chart.dim, -0.5), 1.0)
        for p in pts[:10]:
            exact = exact and np.array_equal(
                assemble_L(prob_id, p), np.eye(chart.dim + 2))

    # Block product formula for five arbitrary (non-solution) pairs.
    chart2 = cp_unit_setups[2][0]
    worst_block = 0.0
    for k in range(5):
        pa = TannoProblem(chart2, random_polynomial_field(4, SEED + 2 * k), 1.0)
        pb = TannoProblem(chart2, random_polynomial_field(4, SEED + 2 * k + 1), 1.0)
        for p in cp_unit_setups[2][2][:4]:
            worst_block = max(worst_block,
                              product_block_check(pa, pb, p).block_residual)

    # Star powers against matrix powers.
    worst_star = 0.0
    for n, (chart, f, pts) in cp_unit_setups.items():
        prob = TannoProblem(chart, f, 1.0)
        use = pts[:12] if n == 1 else pts[:6]
        for k in (2, 3, 4):
            fk = star_power(chart, f, k)
            probk = TannoProblem(chart, fk, 1.0)
            for p in use:
                Lk = assemble_L(probk, p)
                L1 = assemble_L(prob, p)
                worst_star = max(worst_star,
                                 frob(Lk - np.linalg.matrix_power(L1, k)))
    _line(5, "operator algebra: exact identity, block formula, star powers",
          exact and worst_block < 1e-10 and worst_star < 1e-7,
          f"identity exact={exact}, block={worst_block:.1e}, star={worst_star:.1e}")


def test_criterion_06_spectrum_constancy(cp_unit_setups):
    worst_spec = 0.0
    worst_poly = 0.0
    for n, (chart, f, pts) in cp_unit_setups.items():
        prob = TannoProblem(chart, f, 1.0)
        specs = [spectrum(assemble_L(prob, p)).clusters for p in pts]
        base = specs[0]
        for s in specs[1:]:
            assert [m for _, m in s] == [m for _, m in base]
            worst_spec = max(worst_spec, max(
                abs(a - b) for (a, _), (b, _) in zip(s, base)))
        polys = [np.array(minimal_polynomial(assemble_L(prob, p)).coeffs)
                 for p in pts[:20]]
        for cs in polys[1:]:
            worst_poly = max(worst_poly, float(np.max(np.abs(cs - polys[0]))))
    _line(6, "spectrum and minimal-polynomial constancy over 50 points",
          worst_spec < 1e-6 and worst_poly < 1e-5,
          f"spec={worst_spec:.1e}, poly={worst_poly:.1e}")


def test_criterion_07_projector_pipeline(cp_unit_setups):
    ok = True
    details = []
    for n, (chart, f, pts) in cp_unit_setups.items():
        prob = TannoProblem(chart, f, 1.0)
        P, f_proj = projector_from_solution(prob, pts)
        probP = TannoProblem(chart, f_proj, 1.0)
        worst_idem = 0.0
        mu_lo, mu_hi = np.inf, -np.inf
        interior_ok = True
        for p in pts:
            L = assemble_L(probP, p)
            worst_idem = max(worst_idem, frob(L @ L - L))
            mu = -2.0 * f_proj(p)
            mu_lo, mu_hi = min(mu_lo, mu), max(mu_hi, mu)
            rep = eigenstructure_at(probP, p)
            if rep.classification == "interior":
                match = [c for c in rep.clusters
                         if abs(c[0] - (1.0 - rep.mu)) < 1e-6 and c[1] == 2]
                interior_ok = interior_ok and bool(match)
        ok = ok and worst_idem < 1e-7 and interior_ok
        ok = ok and mu_lo >= -1e-12 and mu_hi <= 1.0 + 1e-12
        details.append(f"n={n}: idem={worst_idem:.1e}, "
                       f"mu in [{mu_lo:.3f},{mu_hi:.3f}]")
    _line(7, "projector pipeline on CP(1)/CP(2)", ok, "; ".join(details))


def test_criterion_08_mu_hessian_and_positivity(cp_unit_setups):
    worst_hess = 0.0
    verdicts = []
    ok = True
    for n, (chart, f, pts) in cp_unit_setups.items():
        prob = TannoProblem(chart, f, 1.0)
        for p in pts:
            worst_hess = max(worst_hess, mu_hessian_residual(prob, p))
        _, f_proj = projector_from_solution(prob, pts)
        probP = TannoProblem(chart, f_proj, 1.0)
        report = positivity_scan(probP, pts)
        verdicts.append(f"CP({n})={report.verdict}({report.n_pos},{report.n_neg})")
        ok = ok and report.verdict == "positive"
        ok = ok and (report.n_pos, report.n_neg) == (chart.dim, 0)
        ok = ok and all(sig == (chart.dim, 0) for _, sig in report.per_point)
    flat = flat_kahler_chart(1, 1)
    const_prob = TannoProblem(flat, ConstField(4, -0.5), 1.0)
    report = positivity_scan(const_prob, sample_points(flat, 6, SEED, 2.0))
    hypo = "hypothesis not met" in report.note and report.verdict == "indefinite"
    verdicts.append(f"flat(1,1)={report.verdict}/hypothesis branch={hypo}")
    _line(8, "Hessian identity and positivity scan",
          worst_hess < 1e-7 and ok and hypo,
          f"hess={worst_hess:.1e}; " + "; ".join(verdicts))


def test_criterion_09_lightlike_third_derivative():
    worst_quad = 0.0
    for (pb, qb) in ((1, 1), (1, 2)):
        chart = flat_kahler_chart(pb, qb)
        f = random_quadratic_field(chart.dim, SEED)
        for v in random_lightlike_directions(chart, 20, SEED, pb, qb):
            geo = integrate_geodesic(chart, np.zeros(chart.dim), v, 4.0,
                                     steps=16)
            worst_quad = max(worst_quad,
                             lightlike_third_derivative(chart, f, geo))
    chart = flat_kahler_chart(1, 1)
    cubic = ExprField(4, lambda x: x[0] ** 3)
    best_cubic = 0.0
    for v in random_lightlike_directions(chart, 20, SEED + 1, 1, 1):
        geo = integrate_geodesic(chart, np.zeros(4), v, 4.0, steps=16)
        best_cubic = max(best_cubic,
                         lightlike_third_derivative(chart, cubic, geo))
    _line(9, "f''' along lightlike geodesics: quadratics vanish, cubic does not",
          worst_quad < 1e-9 and best_cubic > 1e-2,
          f"quad={worst_quad:.1e}, cubic={best_cubic:.2e}")


def test_criterion_10_oracle_agreement(cp_setups):
    charts = {
        "flat(1,1)": (flat_kahler_chart(1, 1),
                      random_quadratic_field(4, SEED + 5)),
        "flat(1,2)": (flat_kahler_chart(1, 2),
                      random_quadratic_field(6, SEED + 6)),
        "CP(1)": (cp_setups[1][0], cp_setups[1][1]),
        "CP(2)": (cp_setups[2][0], cp_setups[2][1]),
    }
    worst = 0.0
    for name, (chart, f) in charts.items():
        pts = sample_points(chart, 3, SEED, 0.6 * chart.domain_radius)
        for p in pts:
            fj = f.jets(p, 3)
            pairs = [
                (nabla_scalar(chart, f, p, 1).components,
                 fd.fd_gradient(lambda q: f(q), p)),
                (fj[2], fd.fd_hessian(lambda q: f(q), p)),
                (fj[3], fd.fd_third(lambda q: f(q), p)),
                (christoffel(chart, p).components,
                 fd.christoffel_fd(chart, p)),
            ]
            for exact, oracle in pairs:
                err = frob(np.asarray(exact) - oracle) / max(1.0, frob(oracle))
                worst = max(worst, err)
    elapsed = time.perf_counter() - _SUITE_T0
    _line(10, "exact derivatives vs FD oracle on all built-in charts",
          worst < 1e-6 and elapsed < 120.0,
          f"rel={worst:.2e}, acceptance wall time {elapsed:.1f}s < 120s")

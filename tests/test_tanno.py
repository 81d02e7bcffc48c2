"""Residual operators, the bundle construction and Frobenius transport."""

import tracemalloc

import numpy as np
import pytest

from conftest import points_on
from tannolab.calculus import frob, frob_rows, nabla_scalar
from tannolab.charts import KahlerChart
from tannolab import charts, jets, tanno, verify
from tannolab.cli import DEFAULT_CONFIG
from tannolab.errors import NotLightlike, OutOfDomain
from tannolab.fields import ConstField, ExprField
from tannolab.manifolds import (cpn_height_function, flat_kahler_chart,
                                fubini_study_chart,
                                integrate_geodesic,
                                random_lightlike_directions,
                                random_polynomial_field,
                                random_quadratic_field,
                                sphere_second_eigenfunction)
from tannolab.tanno import (MAX_STEP, SolutionBundle, TannoProblem,
                            _transport_matrices,
                            bundle_from_f, f_from_mu, gallot_tanno_residual,
                            laplace_identity_residual,
                            lightlike_third_derivative, mu_hessian_residual,
                            system_residual, tanno_residual,
                            trace_identity_residual, transport_bundle)
from tannolab.verify import REGISTRY, CheckContext, SuiteConfig, run_suite


def _einsum_rhs(geometry, xdot, a, f, mu):
    """Reference right-hand side of the first-order system, one point:
    coordinate time-derivatives of (a, f, mu) along velocity xdot, with
    ``geometry`` the chart's (g, J, Gamma) at the current point."""
    g0, Jm, G0 = geometry
    fb = Jm.T @ f
    Jf = g0 @ Jm
    # partial_k a_ij = rhs1_ijk + Gamma^l_ki a_lj + Gamma^l_kj a_il
    rhs1 = (np.einsum("i,jk->ijk", f, g0) + np.einsum("j,ik->ijk", f, g0)
            - np.einsum("i,jk->ijk", fb, Jf) - np.einsum("j,ik->ijk", fb, Jf))
    da = (np.einsum("ijk,k->ij", rhs1, xdot)
          + np.einsum("lki,k,lj->ij", G0, xdot, a)
          + np.einsum("lkj,k,il->ij", G0, xdot, a))
    # partial_j f_i = (mu g_ij - a_ij) + Gamma^l_ij f_l
    df = (mu * g0 - a) @ xdot + np.einsum("lij,j,l->i", G0, xdot, f)
    dmu = -2.0 * float(f @ xdot)
    return da, df, dmu


def _einsum_matrices(g0, Jm, G0, xdot):
    """The transport matrices over a batch, every block from dense einsums
    (the a-block from two (Z, d, d, d, d) terms); _transport_matrices must
    give the same bits."""
    Z, d = g0.shape[:2]
    n2 = d * d
    I = np.eye(d)
    gx = np.einsum("zik,zk->zi", g0, xdot)
    Jx = np.einsum("zik,zk->zi", g0 @ Jm, xdot)
    Gk = np.einsum("zlki,zk->zli", G0, xdot)
    A = np.zeros((Z, n2 + d + 1, n2 + d + 1))
    A[:, :n2, :n2] = (np.einsum("zpi,qj->zijpq", Gk, I)
                      + np.einsum("ip,zqj->zijpq", I, Gk)).reshape(Z, n2, n2)
    A[:, :n2, n2:-1] = (np.einsum("ia,zj->zija", I, gx)
                        + np.einsum("ja,zi->zija", I, gx)
                        - np.einsum("ai,zj->zija", Jm, Jx)
                        - np.einsum("aj,zi->zija", Jm, Jx)).reshape(Z, n2, d)
    A[:, n2:-1, :n2] = -np.einsum("ip,zq->zipq", I, xdot).reshape(Z, d, n2)
    A[:, n2:-1, n2:-1] = np.einsum("zlij,zj->zli", G0, xdot).transpose(0, 2, 1)
    A[:, n2:-1, -1] = gx
    A[:, -1, n2:-1] = -2.0 * xdot
    return A


def _einsum_system_residual(chart, f, P):
    """(a rows, f rows, mu row) norms of d_k y - rhs(e_k) per point, with
    d_k y from einsums over the field's and the chart's jets and rhs from
    :func:`_einsum_rhs`; the reference for system_residual."""
    fj = f.jets(P, 3)
    G0, dG = chart.christoffel_jets(P, 1)
    gj = chart.metric_jets(P, 1)
    d = chart.dim
    out = []
    for z in range(len(P)):
        f0, f1, f2, f3 = (t[z] for t in fj)
        g0, dg = gj[0][z], gj[1][z]
        a = -(f2 - np.einsum("lij,l->ij", G0[z], f1)) - 2.0 * f0 * g0
        da = (-(f3 - np.einsum("lijk,l->ijk", dG[z], f1)
                - np.einsum("lij,lk->ijk", G0[z], f2))
              - 2.0 * (np.einsum("k,ij->ijk", f1, g0) + f0 * dg))
        rows = ([], [], [])
        for k, e in enumerate(np.eye(d)):
            ra, rf, rmu = _einsum_rhs((g0, chart.J, G0[z]), e, a, f1, -2.0 * f0)
            rows[0].append(da[..., k] - ra)
            rows[1].append(f2[:, k] - rf)
            rows[2].append(-2.0 * f1[k] - rmu)
        out.append([frob(np.array(r)) for r in rows])
    return np.array(out).T


def _reference_transport(chart, path, init, max_step=0.02):
    """Classical RK4 on (a, f, mu) with the einsum right-hand side and the
    chart evaluated step by step; the oracle for transport_bundle."""
    pts = [np.asarray(q, dtype=float) for q in path]
    a, f, mu = init.a.copy(), init.grad.copy(), float(init.mu)
    for q0, q1 in zip(pts[:-1], pts[1:]):
        seg = q1 - q0
        seglen = float(np.linalg.norm(seg))
        if seglen == 0.0:
            continue
        nsub = max(1, int(np.ceil(seglen / max_step)))
        dt = 1.0 / nsub
        for k in range(nsub):
            taus = np.array([k * dt, k * dt + dt / 2, k * dt + dt])
            geo = chart.at(q0 + taus[:, None] * seg, 1)
            t, mid, end = ((g, chart.J, G)
                           for g, G in zip(geo.g0, geo.gamma0))
            k1 = _einsum_rhs(t, seg, a, f, mu)
            k2 = _einsum_rhs(mid, seg, a + dt / 2 * k1[0], f + dt / 2 * k1[1],
                             mu + dt / 2 * k1[2])
            k3 = _einsum_rhs(mid, seg, a + dt / 2 * k2[0], f + dt / 2 * k2[1],
                             mu + dt / 2 * k2[2])
            k4 = _einsum_rhs(end, seg, a + dt * k3[0], f + dt * k3[1],
                             mu + dt * k3[2])
            a = a + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            f = f + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            mu = mu + dt / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
    return SolutionBundle(a, f, mu)


def _per_segment_transport(chart, path, init):
    """transport_bundle with the chart evaluated once per segment, on that
    segment's grid of half steps; the same arithmetic, so the results must
    agree bit for bit."""
    pts = [np.asarray(q, dtype=float) for q in path]
    d = chart.dim
    y = np.concatenate([np.ravel(init.a), init.grad, [init.mu]])
    for q0, q1 in zip(pts[:-1], pts[1:]):
        seg = q1 - q0
        seglen = float(np.linalg.norm(seg))
        if seglen == 0.0:
            continue
        nsub = max(1, int(np.ceil(seglen / MAX_STEP)))
        dt = 1.0 / nsub
        taus = np.linspace(0.0, 1.0, 2 * nsub + 1)
        geo = chart.at(q0 + taus[:, None] * seg, 1)
        A = _transport_matrices(geo.g0, chart.J, geo.gamma0,
                                np.tile(seg, (len(taus), 1)))
        for k in range(nsub):
            k1 = A[2 * k] @ y
            k2 = A[2 * k + 1] @ (y + dt / 2 * k1)
            k3 = A[2 * k + 1] @ (y + dt / 2 * k2)
            k4 = A[2 * k + 2] @ (y + dt * k3)
            y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return SolutionBundle(y[:d * d].reshape(d, d), y[d * d:-1], float(y[-1]))


def _state(b: SolutionBundle) -> np.ndarray:
    return np.concatenate([b.a.ravel(), b.grad, [b.mu]])


def _random_bundle(rng, d):
    A = rng.normal(size=(d, d))
    return SolutionBundle(0.5 * (A + A.T), rng.normal(size=d), rng.normal())


class TestTannoResidual:
    def test_flat_quadratic_c0_exact(self, flat11):
        f = random_quadratic_field(4, seed=1)
        prob = TannoProblem(flat11, f, 0.0)
        for p in points_on(flat11, 3, seed=2, radius=2.0):
            assert frob(tanno_residual(prob, p)) < 1e-12

    def test_fs_height_quarter(self, fs1, height1):
        prob = TannoProblem(fs1, height1, 0.25)
        for p in points_on(fs1, 10, seed=3):
            assert frob(tanno_residual(prob, p)) < 1e-8

    def test_wrong_constant_fails(self, fs1, height1):
        prob = TannoProblem(fs1, height1, 1.0)
        p = points_on(fs1, 1, seed=4)[0]
        assert frob(tanno_residual(prob, p)) > 0.1


class TestGallotTanno:
    def test_flat_quadratic_c0(self, flat11):
        f = random_quadratic_field(4, seed=7)
        prob = TannoProblem(flat11, f, 0.0)
        p = points_on(flat11, 1, seed=1, radius=2.0)[0]
        assert frob(gallot_tanno_residual(prob, p)) < 1e-12

    def test_flat_norm_of_c_term(self, flat11):
        f = ExprField(4, lambda x: x[0] ** 2 + x[1] ** 2 + x[2] ** 2 + x[3] ** 2)
        c = 0.7
        prob = TannoProblem(flat11, f, c)
        p = points_on(flat11, 1, seed=2, radius=2.0)[0]
        g0 = flat11.metric(p)
        grad = f.gradient(p)
        expected = c * (2.0 * np.einsum("k,ij->ijk", grad, g0)
                        + np.einsum("i,jk->ijk", grad, g0)
                        + np.einsum("j,ik->ijk", grad, g0))
        assert frob(gallot_tanno_residual(prob, p)) == pytest.approx(
            frob(expected), rel=1e-12)

    def test_sphere_second_eigenfunction_c1(self, fs1):
        # Classical fact: on the curvature-1 sphere the J-free equation with
        # c = 1 is solved by second-eigenvalue eigenfunctions (the first
        # eigenfunctions satisfy the Obata equation instead and fail here).
        f2 = sphere_second_eigenfunction()
        prob = TannoProblem(fs1, f2, 1.0)
        for p in points_on(fs1, 10, seed=5):
            assert frob(gallot_tanno_residual(prob, p)) < 1e-8

    def test_first_eigenfunction_fails_c1(self, fs1, height1):
        prob = TannoProblem(fs1, height1, 1.0)
        p = points_on(fs1, 1, seed=6)[0]
        assert frob(gallot_tanno_residual(prob, p)) > 0.1


class TestLaplaceIdentity:
    def test_fs_height(self, fs1, height1):
        prob = TannoProblem(fs1, height1, 0.25)
        for p in points_on(fs1, 5, seed=7):
            assert laplace_identity_residual(prob, p) < 1e-7

    def test_constant_any_c(self, flat11):
        prob = TannoProblem(flat11, ConstField(4, 2.5), 3.0)
        assert laplace_identity_residual(prob, np.zeros(4)) == 0.0

    def test_wrong_constant(self, fs1, height1):
        prob = TannoProblem(fs1, height1, 1.0)
        p = points_on(fs1, 1, seed=8)[0]
        assert laplace_identity_residual(prob, p) > 0.1


class TestBundle:
    def test_constant_minus_half(self, fs1):
        prob = TannoProblem(fs1, ConstField(2, -0.5), 1.0)
        p = points_on(fs1, 1, seed=9)[0]
        b = bundle_from_f(prob, p)
        assert np.allclose(b.a, fs1.metric(p), atol=0)
        assert not b.grad.any()
        assert b.mu == 1.0

    def test_zero_field(self, fs1):
        prob = TannoProblem(fs1, ConstField(2, 0.0), 1.0)
        b = bundle_from_f(prob, np.zeros(2))
        assert not b.a.any() and not b.grad.any() and b.mu == 0.0

    def test_f_from_mu_inverse(self):
        assert f_from_mu(0.0) == 0.0
        assert f_from_mu(1.0) == -0.5
        rng = np.random.default_rng(0)
        for f in rng.normal(size=10):
            assert f_from_mu(-2.0 * f) == f

    def test_roundtrip_exact_on_field(self, fs1_unit, height1):
        prob = TannoProblem(fs1_unit, height1, 1.0)
        for p in points_on(fs1_unit, 5, seed=10):
            b = bundle_from_f(prob, p)
            assert f_from_mu(b.mu) == height1(p)

    def test_solution_a_is_hermitian(self, fs1_unit, height1):
        prob = TannoProblem(fs1_unit, height1, 1.0)
        for p in points_on(fs1_unit, 10, seed=11):
            b = bundle_from_f(prob, p)
            Jm = fs1_unit.J
            assert frob(Jm.T @ b.a @ Jm - b.a) < 1e-8


def _per_direction_rows(geo, cov):
    """_system_rows with the dense A(e_k) of transport per coordinate
    direction e_k: the a, f and mu rows of d_k y - A(e_k) y, and the trace
    identity."""
    d = geo.chart.dim
    ac = tanno._a_jets(geo, cov, 1)
    f0, f1 = cov[0][:, 0], cov[1][..., 0]
    Z, n2 = len(f1), d * d
    y = np.concatenate([ac[..., 0].reshape(Z, n2), f1, -2.0 * f0[:, None]],
                       axis=1)[..., None]
    dy = np.concatenate([ac[..., 1:d + 1].reshape(Z, n2, d), cov[1][..., 1:d + 1],
                         -2.0 * f1[:, None]], axis=1)
    for k, e in enumerate(np.eye(d)):
        A = _transport_matrices(geo.g0, geo.chart.J, geo.gamma0,
                                np.tile(e, (Z, 1)))
        dy[..., k] -= (A @ y)[..., 0]
    tr = jets.cprod([geo.ginv_coeffs(1), ac], "ab,ab->", d, 1)
    return (*(frob_rows(dy[:, rows]) for rows in
              (slice(0, n2), slice(n2, -1), slice(-1, None))),
            frob_rows(f1 - 0.25 * tr[:, 1:d + 1]))


class TestSystemResidual:
    def test_constant_solution(self, flat11):
        prob = TannoProblem(flat11, ConstField(4, -0.5), 1.0)
        assert max(system_residual(prob, np.zeros(4))) < 1e-10

    def test_rescaled_height(self, fs1_unit, height1):
        prob = TannoProblem(fs1_unit, height1, 1.0)
        for p in points_on(fs1_unit, 10, seed=12):
            assert max(system_residual(prob, p)) < 1e-7

    def test_unrescaled_fails(self, fs1, height1):
        prob = TannoProblem(fs1, height1, 1.0)
        p = points_on(fs1, 1, seed=13)[0]
        assert system_residual(prob, p)[0] > 0.01

    def test_equivalence_with_tanno_residual(self, fs1_unit):
        # First system equation equals minus the c=1 residual, computed via
        # an independent code path (field AD vs direct formula).
        f = random_quadratic_field(2, seed=3)
        prob = TannoProblem(fs1_unit, f, 1.0)
        for p in points_on(fs1_unit, 4, seed=14):
            r1 = system_residual(prob, p)[0]
            direct = frob(tanno_residual(prob, p))
            assert r1 == pytest.approx(direct, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("case", ["cp1", "cp2", "cp3", "flat11"])
    def test_matches_einsum_reference(self, case):
        if case == "flat11":
            chart, f = flat_kahler_chart(1, 1), random_quadratic_field(4, 3)
        else:
            n = int(case[2])
            chart = fubini_study_chart(n).rescaled(0.25)
            f = cpn_height_function(n, 0)
        P = np.array(points_on(chart, 5, seed=27))
        got = np.array(system_residual(TannoProblem(chart, f, 1.0), P))
        ref = _einsum_system_residual(chart, f, P)
        assert np.max(np.abs(got - ref)) <= 1e-14

    @pytest.mark.parametrize("case", ["cp1", "cp2", "cp3", "flat11"])
    def test_rows_equal_one_apply_per_direction(self, case):
        # All directions in one block apply give the rows of transport's
        # dense A(e_k), one per direction.  f is no solution, so the a rows
        # and the trace identity are far from 0.
        if case == "flat11":
            chart = flat_kahler_chart(1, 1)
        else:
            chart = fubini_study_chart(int(case[2])).rescaled(0.25)
        f = random_quadratic_field(chart.dim, 3)
        P = np.array(points_on(chart, 12, seed=28))
        geo, cov = tanno._order3(chart, f, P)
        got = tanno._system_rows(geo, cov)
        want = _per_direction_rows(geo, cov)
        assert np.max(want[0]) > 1.0
        for a, b in zip(got, want, strict=True):
            assert np.max(np.abs(a - b)) <= 1e-14 * max(1.0, np.max(b))

    def test_reads_the_system_apply(self, monkeypatch):
        # A wrong mu row of A y fails the check on the CLI default.
        apply = tanno._system_apply

        def negated_mu_row(*args):
            da, df, dmu = apply(*args)
            return da, df, -dmu

        monkeypatch.setattr(tanno, "_system_apply", negated_mu_row)
        config = SuiteConfig.from_dict(dict(DEFAULT_CONFIG,
                                            checks=["sys.residual"]))
        record = run_suite(config).checks[0]
        assert record.status == "ok" and not record.passed

    def test_transport_reads_the_transport_matrices(self, monkeypatch):
        # The same wrong mu row in the dense A that transport integrates
        # fails lem1.transport_match on the CLI default.
        build = tanno._transport_matrices

        def negated_mu_row(*args):
            A = build(*args)
            A[:, -1] *= -1.0
            return A

        monkeypatch.setattr(tanno, "_transport_matrices", negated_mu_row)
        config = SuiteConfig.from_dict(dict(DEFAULT_CONFIG,
                                            checks=["lem1.transport_match"]))
        record = run_suite(config).checks[0]
        assert record.status == "ok" and not record.passed


class TestTraceIdentity:
    def test_constant(self, fs1):
        prob = TannoProblem(fs1, ConstField(2, -0.5), 1.0)
        assert trace_identity_residual(prob, np.zeros(2)) < 1e-13

    def test_rescaled_height(self, fs1_unit, height1):
        prob = TannoProblem(fs1_unit, height1, 1.0)
        for p in points_on(fs1_unit, 5, seed=15):
            assert trace_identity_residual(prob, p) < 1e-7

    def test_non_solution_nonzero(self, flat10):
        f = ExprField(2, lambda x: x[0] ** 3)
        prob = TannoProblem(flat10, f, 1.0)
        assert trace_identity_residual(prob, np.array([0.5, 0.2])) > 1e-3


class TestMuHessian:
    def test_constant(self, flat11):
        prob = TannoProblem(flat11, ConstField(4, -0.5), 1.0)
        assert mu_hessian_residual(prob, np.zeros(4)) == 0.0

    def test_rescaled_solution(self, fs1_unit, height1):
        prob = TannoProblem(fs1_unit, height1, 1.0)
        for p in points_on(fs1_unit, 10, seed=16):
            assert mu_hessian_residual(prob, p) < 1e-7

    def test_identity_holds_even_off_solutions(self, flat10):
        # The definition a = -f_{,ij} - 2 f g makes the Hessian identity an
        # algebraic consequence for every field, solution or not; x^4 is a
        # cross-path consistency case, not a detector.
        f = ExprField(2, lambda x: x[0] ** 4)
        prob = TannoProblem(flat10, f, 1.0)
        assert mu_hessian_residual(prob, np.array([0.7, -0.1])) < 1e-12


class TestTransport:
    def test_zero_stays_zero(self, fs1_unit):
        rng = np.random.default_rng(17)
        d = fs1_unit.dim
        zero = SolutionBundle(np.zeros((d, d)), np.zeros(d), 0.0)
        for _ in range(10):
            way = [rng.uniform(-0.9, 0.9, size=d) for _ in range(4)]
            out = transport_bundle(fs1_unit, way, zero)
            assert out.norm() <= 1e-10

    def test_linearity(self, fs1_unit):
        rng = np.random.default_rng(18)
        d = fs1_unit.dim
        path = [np.zeros(d), np.array([0.8, -0.5])]
        u, v = _random_bundle(rng, d), _random_bundle(rng, d)
        al, be = 0.7, -1.3
        combo = SolutionBundle(al * u.a + be * v.a, al * u.grad + be * v.grad,
                               al * u.mu + be * v.mu)
        tu = transport_bundle(fs1_unit, path, u)
        tv = transport_bundle(fs1_unit, path, v)
        tc = transport_bundle(fs1_unit, path, combo)
        assert frob(tc.a - al * tu.a - be * tv.a) < 1e-9
        assert np.linalg.norm(tc.grad - al * tu.grad - be * tv.grad) < 1e-9
        assert abs(tc.mu - al * tu.mu - be * tv.mu) < 1e-9

    def test_solution_transport_matches_evaluation(self, fs1_unit, height1):
        prob = TannoProblem(fs1_unit, height1, 1.0)
        pts = points_on(fs1_unit, 4, seed=19)
        for p, q in zip(pts[:-1], pts[1:]):
            init = bundle_from_f(prob, p)
            out = transport_bundle(fs1_unit, [p, q], init)
            ref = bundle_from_f(prob, q)
            assert frob(out.a - ref.a) < 1e-5
            assert np.linalg.norm(out.grad - ref.grad) < 1e-5
            assert abs(out.mu - ref.mu) < 1e-5

    def test_closed_loop_defect(self, fs1_unit, height1):
        prob = TannoProblem(fs1_unit, height1, 1.0)
        ts = np.linspace(0, 2 * np.pi, 61)
        loop = [np.array([0.3 + 0.5 * (np.cos(t) - 1), 0.5 * np.sin(t)])
                for t in ts]
        init = bundle_from_f(prob, loop[0])
        out = transport_bundle(fs1_unit, loop, init)
        assert frob(out.a - init.a) < 1e-5
        assert np.linalg.norm(out.grad - init.grad) < 1e-5
        assert abs(out.mu - init.mu) < 1e-5

    def test_long_chord_matches_evaluation(self, fs1_unit, height1):
        # One segment of 1.4 R, far beyond a quarter of the domain radius.
        prob = TannoProblem(fs1_unit, height1, 1.0)
        p, q = np.array([-1.4, 0.0]), np.array([1.4, 0.3])
        assert np.linalg.norm(q - p) > 0.25 * fs1_unit.domain_radius
        out = transport_bundle(fs1_unit, [p, q], bundle_from_f(prob, p))
        ref = bundle_from_f(prob, q)
        assert np.linalg.norm(_state(out) - _state(ref)) < 1e-6

    @pytest.mark.parametrize("chart", [
        fubini_study_chart(1), fubini_study_chart(2), fubini_study_chart(3),
        flat_kahler_chart(1, 1)], ids=["cp1", "cp2", "cp3", "flat11"])
    def test_matches_einsum_reference(self, chart):
        rng = np.random.default_rng(25)
        d = chart.dim
        way = [rng.uniform(-0.5, 0.5, size=d) for _ in range(3)]
        # A repeated point gives zero-length segments, which are skipped.
        path = [way[0], *np.linspace(way[0], way[1], 4)[1:], way[1], way[2]]
        init = _random_bundle(rng, d)
        out = _state(transport_bundle(chart, path, init))
        ref = _state(_reference_transport(chart, path, init))
        assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(ref)
        single = transport_bundle(chart, path[:1], init)
        assert np.array_equal(_state(single), _state(init))
        assert single.a is not init.a and single.grad is not init.grad

    @pytest.mark.parametrize("chart", [
        fubini_study_chart(1), fubini_study_chart(2), fubini_study_chart(3),
        flat_kahler_chart(1, 1)], ids=["cp1", "cp2", "cp3", "flat11"])
    def test_one_batch_matches_per_segment_evaluation(self, chart, monkeypatch):
        rng = np.random.default_rng(27)
        d = chart.dim
        way = [rng.uniform(-0.5, 0.5, size=d) for _ in range(3)]
        path = [*np.linspace(way[0], way[1], 3), way[1], way[2]]
        init = _random_bundle(rng, d)
        # Blocks of 3 steps split every segment; the bits must not move.
        for chunk in (charts.POINT_CHUNK, 3):
            monkeypatch.setattr(charts, "POINT_CHUNK", chunk)
            for p in (path, path[:1]):
                assert np.array_equal(
                    _state(transport_bundle(chart, p, init)),
                    _state(_per_segment_transport(chart, p, init)))

    def test_chart_evaluated_once_per_path(self, fs1_unit, monkeypatch):
        calls, at = [], KahlerChart.at

        def spy_at(chart, p, order):
            calls.append(len(p))
            return at(chart, p, order)

        monkeypatch.setattr(KahlerChart, "at", spy_at)
        d = fs1_unit.dim
        path = [np.zeros(d), np.array([0.8, -0.5]), np.array([0.2, 0.6]),
                np.array([-0.4, 0.1]), np.array([-0.4, 0.5])]
        init = _random_bundle(np.random.default_rng(28), d)
        whole = _state(transport_bundle(fs1_unit, path, init))
        assert len(path) > 3 and len(calls) == 1
        # Blocks of at most 3 steps (the segments have 48, 63, 40 and 20)
        # evaluate the chart on at most 7 points each and keep the bits of
        # one block.  Only a block of 2 steps across a segment end has 6.
        calls.clear()
        monkeypatch.setattr(charts, "POINT_CHUNK", 3)
        assert np.array_equal(_state(transport_bundle(fs1_unit, path, init)), whole)
        assert max(calls) <= 7 and len(calls) >= 171 / 3 and 6 in calls

    def test_vertex_outside_domain_rejected(self, fs1_unit):
        d = fs1_unit.dim
        R = fs1_unit.domain_radius
        zero = SolutionBundle(np.zeros((d, d)), np.zeros(d), 0.0)
        with pytest.raises(OutOfDomain):
            transport_bundle(fs1_unit, [np.array([R, 0.0]),
                                        np.array([1.1 * R, 0.0])], zero)

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_matrices_match_einsum_rhs(self, d):
        rng = np.random.default_rng(26 + d)
        Z = 5
        g0 = rng.normal(size=(Z, d, d))
        Jm = rng.normal(size=(d, d))
        G0 = rng.normal(size=(Z, d, d, d))
        xdot = rng.normal(size=(Z, d))
        A = _transport_matrices(g0, Jm, G0, xdot)
        assert A.shape == (Z, d * d + d + 1, d * d + d + 1)
        assert np.array_equal(A, _einsum_matrices(g0, Jm, G0, xdot))
        for z in range(Z):
            b = _random_bundle(rng, d)
            da, df, dmu = _einsum_rhs((g0[z], Jm, G0[z]), xdot[z],
                                      b.a, b.grad, b.mu)
            ref = np.concatenate([da.ravel(), df, [dmu]])
            assert np.max(np.abs(A[z] @ _state(b) - ref)) <= \
                1e-14 * np.max(np.abs(ref))


def _path_batch(chart, rng):
    """Six polylines of four vertices inside the chart's domain, with
    unequal step counts: one has a zero-length segment, one is a single
    point (all four vertices equal) and one has a single short step."""
    r = 0.5 * chart.domain_radius / np.sqrt(chart.dim)
    paths = rng.uniform(-r, r, size=(6, 4, chart.dim))
    paths *= np.linspace(1.0, 0.3, 6)[:, None, None]
    paths[1, 2] = paths[1, 1]
    paths[2] = paths[2, 0]
    paths[3, 1:] = paths[3, 0]
    paths[3, -1, 0] += 0.5 * MAX_STEP
    return paths


def _batched(bundles):
    return SolutionBundle(np.stack([b.a for b in bundles]),
                          np.stack([b.grad for b in bundles]),
                          np.array([b.mu for b in bundles]))


def _bundle_rows(b: SolutionBundle) -> np.ndarray:
    return np.concatenate([b.a.reshape(len(b.mu), -1), b.grad, b.mu[:, None]],
                          axis=1)


class TestTransportBatch:
    """transport_bundle over a (C, V, d) batch of polylines in lockstep."""

    @pytest.mark.parametrize("chart", [
        fubini_study_chart(1), fubini_study_chart(2), fubini_study_chart(3),
        flat_kahler_chart(1, 1), "cp11"], ids=["cp1", "cp2", "cp3", "flat11", "cp11"])
    def test_batch_equals_single_paths_bitwise(self, chart, request, monkeypatch):
        if chart == "cp11":
            chart = request.getfixturevalue("cp11")
        rng = np.random.default_rng(70)
        paths = _path_batch(chart, rng)
        inits = [_random_bundle(rng, chart.dim) for _ in paths]
        singles = np.array([_state(transport_bundle(chart, p, b))
                            for p, b in zip(paths, inits)])
        steps = [int(np.maximum(1, np.ceil(np.linalg.norm(s, axis=1) / MAX_STEP))
                     [np.linalg.norm(s, axis=1) > 0].sum())
                 for s in np.diff(paths, axis=1)]
        assert len(set(steps)) == len(steps) and 0 in steps and 1 in steps
        assert np.array_equal(singles[2], _state(inits[2]))
        assert np.array_equal(
            singles[2], _state(transport_bundle(chart, paths[2, :1], inits[2])))
        # Blocks of a few steps, and groups of one or two paths, keep the bits.
        for chunk in (charts.POINT_CHUNK, 3, 1):
            monkeypatch.setattr(charts, "POINT_CHUNK", chunk)
            out = transport_bundle(chart, paths, _batched(inits))
            assert out.a.shape == (len(paths), chart.dim, chart.dim)
            assert np.array_equal(_bundle_rows(out), singles)

    def test_one_vertex_paths(self, fs1_unit):
        rng = np.random.default_rng(71)
        pts = rng.uniform(-0.5, 0.5, size=(3, 1, 2))
        inits = [_random_bundle(rng, 2) for _ in pts]
        out = transport_bundle(fs1_unit, pts, _batched(inits))
        assert np.array_equal(_bundle_rows(out), [_state(b) for b in inits])

    def test_single_path_returns_one_bundle(self, fs1_unit):
        init = _random_bundle(np.random.default_rng(72), 2)
        path = np.array([[0.0, 0.0], [0.3, -0.2], [0.1, 0.4]])
        out = transport_bundle(fs1_unit, path, init)
        assert out.a.shape == (2, 2) and out.grad.shape == (2,)
        assert isinstance(out.mu, float)
        batch = transport_bundle(fs1_unit, path[None], init)
        assert np.array_equal(_bundle_rows(batch)[0], _state(out))

    def test_zero_batch_stays_exactly_zero(self, fs2_unit):
        rng = np.random.default_rng(73)
        d = fs2_unit.dim
        zero = SolutionBundle(np.zeros((d, d)), np.zeros(d), 0.0)
        out = transport_bundle(fs2_unit, _path_batch(fs2_unit, rng), zero)
        assert out.mu.shape == (6,) and not np.any(_bundle_rows(out))

    def test_mismatched_batch_rejected(self, fs1_unit):
        rng = np.random.default_rng(74)
        paths = _path_batch(fs1_unit, rng)
        two = _batched([_random_bundle(rng, 2) for _ in range(2)])
        with pytest.raises(ValueError):
            transport_bundle(fs1_unit, paths, two)
        with pytest.raises(ValueError):
            transport_bundle(fs1_unit, paths[0], two)

    def test_vertex_outside_domain_rejected(self, fs1_unit):
        paths = _path_batch(fs1_unit, np.random.default_rng(75))
        paths[4, 2] = [1.01 * fs1_unit.domain_radius, 0.0]
        zero = SolutionBundle(np.zeros((2, 2)), np.zeros(2), 0.0)
        with pytest.raises(OutOfDomain):
            transport_bundle(fs1_unit, paths, zero)

    @pytest.mark.parametrize("chunk", [None, 40, 4])
    def test_no_block_outgrows_the_longest_path(self, fs2_unit, monkeypatch,
                                                chunk):
        # Every chart evaluation of a batch holds at most the rows that the
        # batch's longest path evaluates alone, min(its rows, 2 chunk + 1).
        if chunk is not None:
            monkeypatch.setattr(charts, "POINT_CHUNK", chunk)
        rows, at = [], KahlerChart.at

        def spy_at(chart, p, order):
            rows.append(len(p))
            return at(chart, p, order)

        monkeypatch.setattr(KahlerChart, "at", spy_at)
        rng = np.random.default_rng(76)
        paths = _path_batch(fs2_unit, rng)
        init = _random_bundle(rng, fs2_unit.dim)
        alone = []
        for p in paths:
            rows.clear()
            transport_bundle(fs2_unit, p, init)
            alone.append(max(rows, default=0))
        rows.clear()
        transport_bundle(fs2_unit, paths, init)
        assert 0 < max(rows) <= max(alone) <= 2 * charts.POINT_CHUNK + 1
        if chunk is None:
            # The longest path is one block alone; the batch needs more.
            assert len(rows) > 1 and max(alone) < 2 * charts.POINT_CHUNK + 1

    @pytest.mark.parametrize("n", [1, 3])
    def test_batched_checks_peak_below_the_loop(self, n):
        # The batched lem1 checks hold no more memory at their peak than
        # the single-path loop check does (seed 7, the CLI default).
        ctx = CheckContext.from_config(SuiteConfig.from_dict(
            {**DEFAULT_CONFIG, "chart": {"name": "fubini_study", "n": n}}))
        peaks = {}
        for name in ("lem1.transport_zero", "lem1.transport_match",
                     "lem1.transport_loop"):
            REGISTRY[name].func(ctx)        # builds the cached tables
            tracemalloc.start()
            try:
                REGISTRY[name].func(ctx)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        loop = peaks.pop("lem1.transport_loop")
        assert max(peaks.values()) <= loop, (peaks, loop)


class TestSystemApply:
    """_system_apply is A(e_k) y along every coordinate direction in block
    form; _transport_matrices writes the dense A(xdot) of the same system.
    The two must agree."""

    @staticmethod
    def _state(rng, Z, d, columns=3):
        """Random blocks (a, f, mu) of C = ``columns`` states, and the same
        states as the (Z, m, C) columns the dense matrices act on."""
        a, f, mu = (rng.normal(size=(Z, d, d, columns)),
                    rng.normal(size=(Z, d, columns)), rng.normal(size=(Z, columns)))
        return (a, f, mu), np.concatenate(
            [a.reshape(Z, d * d, columns), f, mu[:, None]], axis=1)

    @staticmethod
    def _dense_form(blocks, k):
        """Block k of the apply as (Z, m, C) columns."""
        da, df, dmu = (t[:, k] for t in blocks)
        Z, d, _, C = da.shape
        return np.concatenate([da.reshape(Z, d * d, C), df, dmu[:, None]], axis=1)

    def _tie(self, g0, Jm, G0, rng, columns=3):
        # Block k of the apply is the dense A(e_k) times the states.
        Z, d = g0.shape[:2]
        y, Y = self._state(rng, Z, d, columns)
        every = tanno._system_apply(g0, Jm, G0, *y)
        assert [t.shape for t in every] == [(Z, d, d, d, columns),
                                            (Z, d, d, columns), (Z, d, columns)]
        for k, e in enumerate(np.eye(d)):
            ref = _transport_matrices(g0, Jm, G0, np.tile(e, (Z, 1))) @ Y
            got = self._dense_form(every, k)
            assert np.max(np.abs(got - ref), initial=0.0) <= \
                1e-14 * np.max(np.abs(ref), initial=0.0)

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_matches_dense_matrices_random(self, d):
        # A velocity's dense A(xdot) y is sum_k xdot^k A(e_k) y: transport
        # integrates the same linear system that the residual rows read.
        rng = np.random.default_rng(60 + d)
        Z = 7
        g0, Jm = rng.normal(size=(Z, d, d)), rng.normal(size=(d, d))
        G0, xdot = rng.normal(size=(Z, d, d, d)), rng.normal(size=(Z, d))
        y, Y = self._state(rng, Z, d)
        every = tanno._system_apply(g0, Jm, G0, *y)
        got = sum(xdot[:, k, None, None] * self._dense_form(every, k)
                  for k in range(d))
        ref = _transport_matrices(g0, Jm, G0, xdot) @ Y
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_matches_dense_matrices_flat11(self, flat11):
        rng = np.random.default_rng(66)
        P = np.array(points_on(flat11, 5, seed=67))
        geo = flat11.at(P, 1)
        self._tie(geo.g0, flat11.J, geo.gamma0, rng)

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_all_directions_are_the_applies_along_each_axis(self, d):
        rng = np.random.default_rng(70 + d)
        Z = 5
        self._tie(rng.normal(size=(Z, d, d)), rng.normal(size=(d, d)),
                  rng.normal(size=(Z, d, d, d)), rng)

    def test_empty_batch(self):
        d = 4
        self._tie(np.empty((0, d, d)), np.eye(d), np.empty((0, d, d, d)),
                  np.random.default_rng(0), columns=2)


def _chain_rule_d3(chart, f, geo):
    """Reference max |d^3/dt^3 f(gamma(t))| over a geodesic's grid by the
    chain rule: the curve's acceleration and jerk from the geodesic
    equation, Gamma and its first derivatives, with f's coordinate jets."""
    _, X, V = geo.grid()
    fj = f.jets(X, 3)
    G0, dG = chart.christoffel_jets(X, 1)
    acc = -np.einsum("zkij,zi,zj->zk", G0, V, V)
    jerk = (-np.einsum("zkijl,zi,zj,zl->zk", dG, V, V, V)
            - 2.0 * np.einsum("zkij,zi,zj->zk", G0, acc, V))
    d3 = (np.einsum("zabc,za,zb,zc->z", fj[3], V, V, V)
          + 3.0 * np.einsum("zab,za,zb->z", fj[2], acc, V)
          + (fj[1][:, None, :] @ jerk[:, :, None])[:, 0, 0])
    return float(np.max(np.abs(d3)))


class TestLightlikeThirdDerivative:
    def _lightlike_geo(self, chart, v, T=3.0):
        return integrate_geodesic(chart, np.zeros(chart.dim), v, T, steps=16)

    def test_quadratic_vanishes(self, flat11):
        f = random_quadratic_field(4, seed=20)
        geo = self._lightlike_geo(flat11, np.array([1.0, 0, 1.0, 0]))
        assert lightlike_third_derivative(flat11, f, geo) < 1e-9

    def test_cubic_explicit_value(self, flat11):
        f = ExprField(4, lambda x: x[0] ** 3)
        v = np.array([0.8, 0, 0.8, 0])
        geo = self._lightlike_geo(flat11, v)
        out = lightlike_third_derivative(flat11, f, geo)
        assert out == pytest.approx(6.0 * v[0] ** 3, rel=1e-12)

    def test_many_random_null_directions(self, flat11):
        f = random_quadratic_field(4, seed=21)
        for v in random_lightlike_directions(flat11, 10, 22, 1, 1):
            geo = self._lightlike_geo(flat11, v)
            assert lightlike_third_derivative(flat11, f, geo) < 1e-9

    def test_non_lightlike_rejected(self, flat11):
        f = random_quadratic_field(4, seed=23)
        geo = integrate_geodesic(flat11, np.zeros(4),
                                 np.array([1.0, 0, 0, 0]), 1.0, steps=16)
        with pytest.raises(NotLightlike):
            lightlike_third_derivative(flat11, f, geo)

    def test_matches_chain_rule_on_cp11(self, cp11, cp11_heights):
        # Curved and indefinite.  Null geodesics through the origin are
        # straight chart lines, so these start off-centre, where the chain
        # rule's acceleration and jerk terms contribute.
        cubic = random_polynomial_field(4, seed=24)
        x0 = np.array([0.3, -0.2, 0.1, 0.25])
        for v in verify._null_vectors(cp11.at(x0[None], 0).g0, 3, 25)[0]:
            geo = integrate_geodesic(cp11, x0, v, 0.4, steps=16)
            assert geo.converged and geo.causal_type == "lightlike"
            for f in cp11_heights + [cubic]:
                ref = _chain_rule_d3(cp11, f, geo)
                out = lightlike_third_derivative(cp11, f, geo)
                assert abs(out - ref) <= 1e-13 * max(1.0, ref)
            # f's coordinate third jets alone miss those terms.
            _, X, V = geo.grid()
            coordinate = np.max(np.abs(tanno._cubic_form(cubic.jets(X, 3)[3], V)))
            assert abs(coordinate - ref) > 0.05 * ref

    def test_bit_identical_to_chain_rule_on_flat11(self, flat11):
        # Gamma = 0 on a flat chart: f_{,ijk} is f's third jet exactly.
        fields = [random_quadratic_field(4, seed=26),
                  ExprField(4, lambda x: x[0] ** 3),
                  random_polynomial_field(4, seed=27)]
        for v in random_lightlike_directions(flat11, 5, 28, 1, 1):
            geo = self._lightlike_geo(flat11, v, T=4.0)
            for f in fields:
                assert (lightlike_third_derivative(flat11, f, geo)
                        == _chain_rule_d3(flat11, f, geo))

    def test_tanno_solution_constant_along_null_geodesics(self, cp11,
                                                          cp11_heights):
        # The restriction argument: along a geodesic d^3/dt^3 f =
        # f_{,ijk} v^i v^j v^k, and contracting eq1 with a null vector v
        # three times leaves exactly that term, since g(v,v) = 0 kills the
        # g terms and J_jk v^j v^k = 0 the J terms.  So a solution has
        # T3(v,v,v) = 0 at every null v, and a generic field does not.
        P = np.array(points_on(cp11, 9, seed=29, radius=0.6))
        g0 = cp11.at(P, 0).g0
        V = verify._null_vectors(g0, 8, 30)
        assert np.max(np.abs(np.einsum("zki,zij,zkj->zk", V, g0, V))) < 1e-13
        cubic = random_polynomial_field(4, seed=31)
        for f in cp11_heights + [cubic]:
            prob = TannoProblem(cp11, f, 0.25)
            T3 = nabla_scalar(cp11, f, P, 3).components
            along = tanno._cubic_form(T3, V)
            residual = tanno._cubic_form(tanno_residual(prob, P), V)
            worst = float(np.max(np.abs(along)))
            assert np.max(np.abs(along - residual)) < 1e-12 * max(1.0, worst)
            assert worst > 1.0 if f is cubic else worst < 1e-12


def test_problem_rescaling_shares_connection(fs1, height1):
    prob = TannoProblem(fs1, height1, 0.25)
    unit = prob.rescaled()
    assert unit.c == 1.0
    p = np.array([0.4, -0.2])
    assert np.allclose(unit.chart.metric(p), 0.25 * fs1.metric(p))
    assert np.allclose(unit.chart.christoffel_jets(p, 0)[0],
                       fs1.christoffel_jets(p, 0)[0], atol=1e-14)

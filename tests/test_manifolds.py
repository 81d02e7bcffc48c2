"""Model charts, eigenfunctions, sampling and the geodesic integrator."""

import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import points_on
import tannolab
from tannolab import fd, manifolds
from tannolab import jets as J
from tannolab.calculus import kahler_residuals, laplacian
from tannolab.errors import NotLightlike
from tannolab.manifolds import (GEODESIC_TOL, cpn_height_function,
                                flat_kahler_chart, fubini_study_chart,
                                geodesic_residual,
                                integrate_geodesic,
                                random_lightlike_directions,
                                random_polynomial_field, sample_points,
                                sphere_second_eigenfunction)
from tannolab.fields import ExprField


class TestFubiniStudy:
    def test_metric_at_origin(self, fs1):
        assert np.allclose(fs1.metric([0, 0]), 4.0 * np.eye(2))

    def test_cp1_gaussian_curvature_is_one(self, fs1):
        for p in points_on(fs1, 5, seed=77, radius=1.2):
            K = fd.sectional_curvature_fd(fs1, p, [1.0, 0.0], [0.0, 1.0])
            assert K == pytest.approx(1.0, abs=1e-6)

    def test_cp2_holomorphic_sectional_curvature_is_one(self, fs2):
        rng = np.random.default_rng(6)
        for p in points_on(fs2, 3, seed=10, radius=1.0):
            X = rng.normal(size=4)
            K = fd.holomorphic_sectional_curvature_fd(fs2, p, X)
            assert K == pytest.approx(1.0, abs=1e-6)

    def test_cp2_generic_sectional_curvature_varies(self, fs2):
        # Only holomorphic planes are pinned to 1.
        K = fd.sectional_curvature_fd(fs2, np.zeros(4),
                                      [1.0, 0, 0, 0], [0, 0, 1.0, 0])
        assert K == pytest.approx(0.25, abs=1e-6)

    def test_kahler_residuals_small(self, fs2):
        for p in points_on(fs2, 20, seed=3):
            assert max(kahler_residuals(fs2, p)) < 1e-9

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            fubini_study_chart(0)


class TestFlatKahler:
    def test_signatures(self):
        assert np.allclose(flat_kahler_chart(1, 0).metric(np.zeros(2)), np.eye(2))
        g = flat_kahler_chart(1, 1).metric(np.zeros(4))
        assert np.allclose(g, np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_christoffel_zero_everywhere(self, flat11):
        for p in points_on(flat11, 3, seed=1):
            assert not flat11.christoffel_jets(p, 0)[0].any()

    def test_kahler_residuals_exact_zero(self):
        chart = flat_kahler_chart(2, 1)
        assert kahler_residuals(chart, np.zeros(6)) == (0.0, 0.0, 0.0)

    def test_invalid_blocks(self):
        with pytest.raises(ValueError):
            flat_kahler_chart(0, 0)


class TestHeightFunctions:
    def test_cp1_closed_form(self, fs1, height1):
        assert height1([0.0, 0.0]) == pytest.approx(1.0)
        r2 = 0.7 ** 2
        assert height1([0.7, 0.0]) == pytest.approx((1 - r2) / (1 + r2))

    def test_eigenfunction_identity_all_axes(self, fs2):
        for axis in (0, 1, 2):
            f = cpn_height_function(2, axis)
            for p in points_on(fs2, 4, seed=axis):
                assert laplacian(fs2, f, p) == pytest.approx(
                    -3.0 * f(p), abs=1e-8)

    def test_nonconstant_range(self, fs1, height1):
        vals = [height1(p) for p in points_on(fs1, 60, seed=2, radius=1.8)]
        assert max(vals) - min(vals) > 0.5

    def test_axis_bounds(self):
        with pytest.raises(ValueError):
            cpn_height_function(1, 2)

    def test_second_eigenfunction_on_sphere(self, fs1):
        f = sphere_second_eigenfunction()
        for p in points_on(fs1, 4, seed=4):
            assert laplacian(fs1, f, p) == pytest.approx(-6.0 * f(p), abs=1e-8)


def _jet_arithmetic_polynomial(dim, seed, degree=3):
    """The same seeded polynomial summed term by term in jet arithmetic."""
    rng = np.random.default_rng(seed)
    scale = 0.5
    lin = rng.normal(size=dim) * scale
    quad = rng.normal(size=(dim, dim)) * scale
    quad = 0.5 * (quad + quad.T)
    cub = rng.normal(size=(dim, dim, dim)) * (scale if degree >= 3 else 0.0)
    c0 = rng.normal() * scale

    def fn(x):
        out = J.Jet.constant(c0, dim, x[0].order)
        for i in range(dim):
            out = out + lin[i] * x[i]
            for j in range(dim):
                out = out + quad[i, j] * x[i] * x[j]
                if degree >= 3:
                    for k in range(dim):
                        out = out + cub[i, j, k] * (x[i] * x[j] * x[k])
        return out

    return ExprField(dim, fn)


class TestPolynomialField:
    @pytest.mark.parametrize("dim", [2, 4, 6])
    @pytest.mark.parametrize("degree", [2, 3])
    def test_closed_form_matches_jet_arithmetic(self, dim, degree):
        new = random_polynomial_field(dim, seed=dim + degree, degree=degree)
        old = _jet_arithmetic_polynomial(dim, seed=dim + degree, degree=degree)
        P = np.random.default_rng(dim).uniform(-1.0, 1.0, size=(5, dim))
        new_jets, old_jets = new.jets(P, 4), old.jets(P, 4)
        for m, (a, b) in enumerate(zip(new_jets, old_jets)):
            if m >= 4 or (m == 3 and degree == 2):
                assert not a.any(), f"order {m} is not exactly zero"
            else:
                assert np.abs(b).max() > 0
                rel = np.abs(a - b).max() / np.abs(b).max()
                assert rel <= 1e-13, f"order {m}: {rel:.2e}"

    def test_higher_orders_are_zero(self):
        jets = random_polynomial_field(4, seed=1).jets(np.full(4, 0.3), 6)
        assert [t.shape for t in jets] == [(4,) * m for m in range(7)]
        assert all(not t.any() for t in jets[4:])


class TestSamplePoints:
    def test_count_zero(self, fs1):
        assert sample_points(fs1, 0, seed=1) == []

    def test_deterministic(self, fs1):
        a = sample_points(fs1, 8, seed=9)
        b = sample_points(fs1, 8, seed=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_radius_bound(self, fs2):
        for p in sample_points(fs2, 50, seed=5, radius=1.1):
            assert np.linalg.norm(p) <= 1.1 + 1e-12

    def test_radius_validation(self, fs1):
        with pytest.raises(ValueError):
            sample_points(fs1, 1, seed=0, radius=5.0)


class TestGeodesics:
    def test_flat_straight_line(self, flat11):
        x0 = np.array([0.1, 0.0, -0.2, 0.0])
        v0 = np.array([0.3, -0.1, 0.2, 0.05])
        path = integrate_geodesic(flat11, x0, v0, 2.0, steps=16)
        t, x, v = path.samples[-1]
        assert np.allclose(x, x0 + t * v0, atol=1e-13)
        assert np.allclose(v, v0, atol=1e-14)

    def test_lightlike_tag(self, flat11):
        path = integrate_geodesic(flat11, np.zeros(4),
                                  np.array([1.0, 0, 1.0, 0]), 1.0, steps=16)
        assert path.causal_type == "lightlike"
        assert abs(path.energy) < 1e-12

    def test_causal_tags(self, flat11):
        space = integrate_geodesic(flat11, np.zeros(4),
                                   np.array([1.0, 0, 0, 0]), 1.0, steps=16)
        time_ = integrate_geodesic(flat11, np.zeros(4),
                                   np.array([0, 0, 1.0, 0]), 1.0, steps=16)
        assert space.causal_type == "spacelike"
        assert time_.causal_type == "timelike"

    def test_equator_period(self, fs1):
        # The unit circle |z| = 1 is a great circle of the round sphere; a
        # unit-speed run returns to the start at T = 2 pi.
        path = integrate_geodesic(fs1, [1.0, 0.0], [0.0, 1.0], 2 * np.pi,
                                  steps=2048)
        assert not path.left_domain
        _, x_end, v_end = path.samples[-1]
        assert np.linalg.norm(x_end - [1.0, 0.0]) < 1e-4
        assert np.linalg.norm(v_end - [0.0, 1.0]) < 1e-4

    def test_conservation_and_residual(self, fs1):
        path = integrate_geodesic(fs1, [1.0, 0.0], [0.0, 1.0], 2 * np.pi,
                                  steps=2048)
        q0 = path.energy
        drift = max(abs(fs1.inner(x, v, v) - q0) for _, x, v in path.samples)
        assert drift < 1e-8 * (1 + abs(q0))
        assert geodesic_residual(fs1, path) < 1e-8

    def test_origin_ray_leaves_domain(self, fs1):
        # A geodesic from the affine origin heads through the chart's
        # missing point; it must exit and come back truncated + flagged.
        path = integrate_geodesic(fs1, [0.0, 0.0], [0.25, 0.0], 20.0,
                                  steps=256)
        assert path.left_domain
        assert np.linalg.norm(path.samples[-1][1]) <= fs1.domain_radius

    def test_non_convergence_reported(self, fs1, monkeypatch):
        # A conservation bound the solver cannot meet is reported on the
        # path, not retried away or hidden.
        monkeypatch.setattr(manifolds, "CONSERVATION_TOL", 1e-30)
        path = integrate_geodesic(fs1, [0.3, 0.1], [0.2, 1.0], 1.0)
        assert path.converged is False
        assert path.drift > 1e-30 * (1 + abs(path.energy))

    def test_default_path_converged(self, fs2):
        x0 = np.array([0.3, -0.1, 0.2, 0.0])
        v0 = np.array([0.5, 0.2, -0.3, 0.1])
        v0 /= np.sqrt(fs2.inner(x0, v0, v0))
        path = integrate_geodesic(fs2, x0, v0, 1.0)
        assert path.converged is True
        assert path.rhs_calls > 0
        assert not path.left_domain
        assert path.samples[-1][0] == 1.0

    @pytest.mark.parametrize("radius", [0.5, 0.0], ids=["midway", "at_start"])
    def test_non_finite_rhs_ends_the_path(self, flat11, monkeypatch, radius):
        # The acceleration turns NaN once |x| >= radius: the path ends at its
        # last finite step, unconverged, without raising or looping.
        rhs = manifolds._geodesic_rhs

        def blows_up(chart, x, v):
            xdot, acc = rhs(chart, x, v)
            return xdot, acc if np.linalg.norm(x) < radius else acc * np.nan
        monkeypatch.setattr(manifolds, "_geodesic_rhs", blows_up)
        v0 = np.array([1.0, 0.0, 0.0, 0.0])
        path = integrate_geodesic(flat11, np.zeros(4), v0, 2.0, steps=16)
        assert path.converged is False and not path.left_domain
        assert path.t_end <= radius and path.t_end < 2.0
        assert path.rhs_calls < 2000
        t, x, v = path.grid()
        assert t[-1] <= path.t_end and np.isfinite(path.drift)
        assert np.allclose(x, t[:, None] * v0) and np.allclose(v, v0)

    def test_min_steps_validated(self, flat11):
        with pytest.raises(ValueError):
            integrate_geodesic(flat11, np.zeros(4), np.ones(4), 1.0, steps=8)

    @pytest.mark.parametrize("v0", [[0.0, np.nan, 1.0, 0.0],
                                    [0.0, 1.0, np.inf, 0.0]])
    def test_non_finite_velocity_rejected(self, flat11, v0):
        # A NaN component once gave causal_type "timelike", energy nan and
        # t_end 0 with no error.
        with pytest.raises(ValueError, match="v0 has non-finite"):
            integrate_geodesic(flat11, np.zeros(4), v0, 1.0)

    @pytest.mark.parametrize("v0", [[1.0, 0.0, 0.0], np.zeros((1, 4))])
    def test_velocity_shape_validated(self, flat11, v0):
        with pytest.raises(ValueError, match=r"v0 must have shape \(4,\)"):
            integrate_geodesic(flat11, np.zeros(4), v0, 1.0)

    @pytest.mark.parametrize("x0", [[[0.1, 0.0, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0]],
                                    np.zeros((1, 4)), [0.1, 0.0, 0.0]])
    def test_start_shape_validated(self, flat11, x0):
        # Two start points once integrated silently from the first.
        with pytest.raises(ValueError, match=r"x0 must have shape \(4,\)"):
            integrate_geodesic(flat11, x0, [0.0, 1.0, 0.0, 0.0], 1.0)


def test_import_loads_no_scipy():
    # The runtime needs numpy only: neither the package nor its command line
    # may load a SciPy module (its optimizer and integrator imports cost
    # ~0.6 s and ~50 MB each).
    src = os.path.dirname(os.path.dirname(tannolab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for module in ("tannolab", "tannolab.cli"):
        out = subprocess.run(
            [sys.executable, "-c",
             f"import {module}, sys; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
            capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "[]", (module, out.stdout)


def _benchmark_starts(chart, seed=7, count=4, radius=0.5):
    """The cp2_geodesics starts: unit-speed, |x0| <= radius, seeded."""
    rng = np.random.default_rng(seed)
    starts = []
    for _ in range(count):
        u = rng.normal(size=chart.dim)
        x = radius * rng.uniform() ** (1.0 / chart.dim) * u / np.linalg.norm(u)
        v = rng.normal(size=chart.dim)
        starts.append((x, v / np.sqrt(chart.inner(x, v, v))))
    return starts


class TestDop853Parity:
    """The package's DOP853 against SciPy's ``solve_ivp(method="DOP853")``
    with the same tolerance, dense output and domain-exit event."""

    @staticmethod
    def _scipy(chart, x0, v0, T, events=None):
        integrate = pytest.importorskip("scipy.integrate")
        d = chart.dim

        def rhs(_t, y):
            return np.concatenate(manifolds._geodesic_rhs(chart, y[:d], y[d:]))
        return integrate.solve_ivp(
            rhs, (0.0, T), np.concatenate([x0, v0]), method="DOP853",
            rtol=GEODESIC_TOL, atol=GEODESIC_TOL, dense_output=True,
            events=events)

    def test_benchmark_geodesics(self, fs2):
        for x0, v0 in _benchmark_starts(fs2):
            ref = self._scipy(fs2, x0, v0, 1.0)
            path = integrate_geodesic(fs2, x0, v0, 1.0)
            t, x, v = path.samples[-1]
            assert t == 1.0 and path.converged and not path.left_domain
            assert np.max(np.abs(np.concatenate([x, v]) - ref.y[:, -1])) < 1e-12
            assert path.rhs_calls <= ref.nfev

    def test_equator(self, fs1):
        x0, v0 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        ref = self._scipy(fs1, x0, v0, 2 * np.pi)
        path = integrate_geodesic(fs1, x0, v0, 2 * np.pi, steps=2048)
        _, x_end, v_end = path.samples[-1]
        assert np.max(np.abs(np.concatenate([x_end, v_end])
                             - ref.y[:, -1])) < 1e-12
        assert np.linalg.norm(x_end - x0) < 1e-4
        assert np.linalg.norm(v_end - v0) < 1e-4
        assert geodesic_residual(fs1, path) < 1e-8
        assert path.converged and path.rhs_calls <= ref.nfev

    def test_origin_ray_event_time(self, fs1):
        def leaves_domain(_t, y):
            return np.linalg.norm(y[:2]) - fs1.domain_radius
        leaves_domain.terminal = True
        x0, v0 = np.zeros(2), np.array([0.25, 0.0])
        ref = self._scipy(fs1, x0, v0, 20.0, events=leaves_domain)
        path = integrate_geodesic(fs1, x0, v0, 20.0)
        assert ref.status == 1 and path.left_domain
        assert abs(path.t_end - ref.t_events[0][0]) < 1e-10
        assert path.rhs_calls <= ref.nfev


class TestLightlikeDirections:
    def test_null_and_seeded(self, flat11):
        dirs = random_lightlike_directions(flat11, 10, 3, 1, 1)
        again = random_lightlike_directions(flat11, 10, 3, 1, 1)
        for v, w in zip(dirs, again):
            assert np.array_equal(v, w)
            assert abs(flat11.inner(np.zeros(4), v, v)) < 1e-12

    def test_definite_chart_rejected(self, flat10):
        with pytest.raises(NotLightlike):
            random_lightlike_directions(flat10, 1, 0, 1, 0)

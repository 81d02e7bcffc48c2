"""Tensor-calculus operations against trivial cases and the FD oracle."""

import numpy as np
import pytest

from conftest import points_on
from tannolab import fd
from tannolab import jets as J
from tannolab.calculus import (TensorValue, bar_form, christoffel,
                               frob, frob_rows,
                               kahler_form, kahler_residuals, laplacian,
                               nabla_scalar, raise_lower)
from tannolab.charts import standard_complex_structure
from tannolab.errors import OutOfDomain
from tannolab.fields import ExprField


class TestChristoffel:
    def test_flat_chart_vanishes(self, flat11):
        for p in points_on(flat11, 3):
            assert christoffel(flat11, p).norm() == 0.0

    def test_fs_origin_vanishes(self, fs1):
        assert christoffel(fs1, [0.0, 0.0]).norm() < 1e-15

    def test_fs_generic_matches_fd_oracle(self, fs1):
        p = np.array([1.0, 0.0])
        exact = christoffel(fs1, p).components
        oracle = fd.christoffel_fd(fs1, p)
        assert exact.any()
        assert frob(exact - oracle) / frob(oracle) < 1e-6

    def test_symmetry_in_lower_indices(self, fs2):
        for p in points_on(fs2, 4):
            G = christoffel(fs2, p).components
            assert np.allclose(G, G.transpose(0, 2, 1), atol=1e-14)

    def test_metricity(self, fs1):
        # partial_k g_ij = Gamma-corrections when nabla g = 0.
        p = np.array([0.4, -0.3])
        g1 = fs1.metric_jets(p, 1)[1]
        g0 = fs1.metric_jets(p, 0)[0]
        G = christoffel(fs1, p).components
        corr = (np.einsum("lki,lj->ijk", G, g0)
                + np.einsum("lkj,il->ijk", G, g0))
        assert np.allclose(g1, corr, atol=1e-13)

    def test_metric_is_parallel(self, fs1):
        geo = fs1.at(np.array(points_on(fs1, 3)), 1)
        g0, dg = J.expand(geo.coeffs, fs1.dim, 1)
        G0 = geo.gamma0
        nabla_g = (dg - np.einsum("zlki,zlj->zijk", G0, g0)
                   - np.einsum("zlkj,zil->zijk", G0, g0))
        assert np.all(frob_rows(nabla_g) < 1e-13)

    def test_trim_keeps_gamma_and_the_metric_prefix(self, fs2):
        P = np.array(points_on(fs2, 4))
        full = fs2.at(P, 2)
        trimmed = fs2.at(P, 2).trim(1)
        assert trimmed.order == 1 and trimmed.coeffs.base is None
        assert np.array_equal(trimmed.coeffs, full.coeffs[..., :J.size(4, 1)])
        assert np.array_equal(trimmed.gamma_coeffs(1), full.gamma_coeffs(1))
        assert np.array_equal(trimmed.ginv_coeffs(1), full.ginv_coeffs(1))
        with pytest.raises(ValueError, match="held through 1"):
            trimmed.ginv_coeffs(2)

    def test_out_of_domain(self, fs1):
        with pytest.raises(OutOfDomain):
            christoffel(fs1, [5.0, 0.0])


class TestNablaScalar:
    def test_flat_gradient(self, flat10):
        f = ExprField(2, lambda x: x[0] * x[0] + x[1] * x[1])
        p = np.array([0.3, -0.8])
        out = nabla_scalar(flat10, f, p, 1).components
        assert np.allclose(out, 2 * p, atol=1e-15)

    def test_flat_third_derivative_of_cubic(self, flat10):
        f = ExprField(2, lambda x: x[0] ** 3)
        T = nabla_scalar(flat10, f, np.array([0.2, 0.1]), 3).components
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = 6.0
        assert np.allclose(T, expected, atol=1e-14)

    def test_fs_hessian_matches_fd(self, fs1, height1):
        p = np.array([0.0, 0.0])
        exact = nabla_scalar(fs1, height1, p, 2).components
        H = fd.fd_hessian(lambda q: height1(q), p)
        G = fd.christoffel_fd(fs1, p)
        grad = fd.fd_gradient(lambda q: height1(q), p)
        oracle = H - np.einsum("kij,k->ij", G, grad)
        assert frob(exact - oracle) / max(1.0, frob(oracle)) < 1e-6

    def test_hessian_symmetry_and_third_partial_symmetry(self, fs2, height2):
        for p in points_on(fs2, 5):
            H = nabla_scalar(fs2, height2, p, 2).components
            assert np.allclose(H, H.T, atol=1e-12)
            T = nabla_scalar(fs2, height2, p, 3).components
            assert np.allclose(T, T.transpose(1, 0, 2), atol=1e-12)

    def test_invalid_order(self, flat10):
        f = ExprField(2, lambda x: x[0])
        with pytest.raises(ValueError):
            nabla_scalar(flat10, f, [0.0, 0.0], 4)


class TestRaiseLower:
    def test_lower_positive_block(self, flat11):
        t = TensorValue(np.array([1.0, 0, 0, 0]), ("u",))
        out = raise_lower(flat11, t, np.zeros(4), 0, "down")
        assert np.allclose(out.components, [1, 0, 0, 0])
        assert out.valence == ("l",)

    def test_lower_negative_block(self, flat11):
        t = TensorValue(np.array([0.0, 0, 1.0, 0]), ("u",))
        out = raise_lower(flat11, t, np.zeros(4), 0, "down")
        assert np.allclose(out.components, [0, 0, -1.0, 0])

    def test_round_trip_identity(self, fs1):
        rng = np.random.default_rng(2)
        p = points_on(fs1, 1)[0]
        w = rng.normal(size=2)
        t = TensorValue(w, ("l",))
        up = raise_lower(fs1, t, p, 0, "up")
        back = raise_lower(fs1, up, p, 0, "down")
        assert np.max(np.abs(back.components - w)) < 1e-12

    def test_wrong_direction_rejected(self, fs1):
        t = TensorValue(np.zeros(2), ("l",))
        with pytest.raises(ValueError):
            raise_lower(fs1, t, np.zeros(2), 0, "down")


class TestBarAndForm:
    def test_bar_is_anti_involution(self, fs1):
        rng = np.random.default_rng(4)
        for p in points_on(fs1, 3):
            w = rng.normal(size=2)
            bb = bar_form(fs1, bar_form(fs1, w, p), p).components
            assert np.max(np.abs(bb + w)) < 1e-12

    def test_bar_standard_direction(self, flat10):
        out = bar_form(flat10, np.array([1.0, 0.0]), np.zeros(2)).components
        J0 = standard_complex_structure(2)
        assert np.allclose(out, J0.T @ [1.0, 0.0])
        assert set(np.abs(out)) == {0.0, 1.0}

    def test_bar_matches_direct_contraction(self, fs1, height1):
        p = points_on(fs1, 1, seed=9)[0]
        w = height1.gradient(p)
        out = bar_form(fs1, w, p).components
        assert np.allclose(out, np.einsum("ai,a->i", fs1.J, w), atol=1e-15)

    def test_kahler_form_flat(self, flat10):
        out = kahler_form(flat10, np.zeros(2)).components
        assert np.allclose(out, standard_complex_structure(2))

    def test_kahler_form_fs_origin(self, fs1):
        out = kahler_form(fs1, np.zeros(2)).components
        assert np.allclose(out, 4.0 * standard_complex_structure(2), atol=1e-14)

    def test_kahler_form_antisymmetric(self, fs2):
        for p in points_on(fs2, 10, seed=21):
            out = kahler_form(fs2, p).components
            assert frob(out + out.T) < 1e-10


class TestFrobRows:
    @pytest.mark.parametrize("view", ["contiguous", "sliced", "transposed",
                                      "vector"])
    def test_bits_of_the_per_row_norm(self, view):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(9, 5, 7)) * 10.0 ** rng.uniform(-8, 8, (9, 1, 1))
        a = {"contiguous": a, "sliced": a[::2, 1:, ::3],
             "transposed": a.transpose(0, 2, 1), "vector": a[:, 2, 3]}[view]
        expected = [float(np.linalg.norm(np.ravel(row))) for row in a]
        assert frob_rows(a).tolist() == expected

    def test_empty_batch(self):
        assert frob_rows(np.empty((0, 3, 3))).shape == (0,)


class TestKahlerResiduals:
    def test_flat_exactly_zero(self, flat11):
        assert kahler_residuals(flat11, np.zeros(4)) == (0.0, 0.0, 0.0)

    def test_fs2_small_at_samples(self, fs2):
        for p in points_on(fs2, 10, seed=33):
            assert max(kahler_residuals(fs2, p)) < 1e-9

    def test_broken_jstruct_detected(self, fs1):
        broken = fs1.with_scaled_jstruct(1.1)
        r = kahler_residuals(broken, np.array([0.1, 0.2]))
        assert r[0] >= 0.2


class TestLaplacian:
    def test_flat_positive_definite(self, flat10):
        f = ExprField(2, lambda x: x[0] * x[0] + x[1] * x[1])
        assert laplacian(flat10, f, np.zeros(2)) == pytest.approx(4.0)

    def test_flat_split_signature(self, flat11):
        f = ExprField(4, lambda x: x[0] ** 2 + x[1] ** 2 + x[2] ** 2 + x[3] ** 2)
        assert laplacian(flat11, f, np.zeros(4)) == pytest.approx(0.0, abs=1e-14)

    def test_fs_height_eigenfunction(self, fs1, height1):
        for p in points_on(fs1, 5, seed=8):
            lap = laplacian(fs1, height1, p)
            assert lap == pytest.approx(-2.0 * height1(p), abs=1e-8)

    def test_matches_fd_oracle(self, fs1, height1):
        p = points_on(fs1, 1, seed=5)[0]
        exact = laplacian(fs1, height1, p)
        assert exact == pytest.approx(fd.laplacian_fd(fs1, height1, p), abs=1e-7)

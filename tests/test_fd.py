"""The batched finite-difference oracle and its negative control.

The oracle evaluates all stencil points of a derivative in one batch.  It
must reproduce, bit for bit, the per-point nested central differences kept
below as the reference; and ``oracle.derivatives`` must reject jets that
are wrong where the values are right.
"""

import itertools

import numpy as np
import pytest

from tannolab import fd, verify
from tannolab.fields import ScalarField
from tannolab.manifolds import (cpn_height_function, flat_kahler_chart,
                                fubini_study_chart, random_polynomial_field,
                                sample_points)
from tannolab.verify import SuiteConfig, run_suite


# -- per-point reference: one fn call per stencil point -----------------------

def _composite(fn, p, dirs, h):
    p = np.asarray(p, dtype=float)
    k = len(dirs)
    total = 0.0
    for signs in itertools.product((1.0, -1.0), repeat=k):
        q = p.copy()
        for s, i in zip(signs, dirs):
            q[i] += s * h
        total += float(np.prod(signs)) * np.asarray(fn(q), dtype=float)
    return total / (2.0 * h) ** k


def _fd_partial(fn, p, dirs, h):
    d1 = _composite(fn, p, dirs, h)
    d2 = _composite(fn, p, dirs, h / 2.0)
    return (4.0 * d2 - d1) / 3.0


def _reference(fn, p, k, h):
    p = np.asarray(p, dtype=float)
    d = p.size
    probe = np.asarray(fn(p))
    out = np.zeros(probe.shape + (d,) * k)
    for idx in itertools.combinations_with_replacement(range(d), k):
        v = _fd_partial(fn, p, idx, h)
        for perm in set(itertools.permutations(idx)):
            out[(Ellipsis,) + perm] = v
    return out


def _christoffel_reference(chart, p):
    g0 = chart.metric(p)
    dg = _reference(chart.metric, p, 1, fd.STEP_ORDER1)
    ginv = np.linalg.inv(g0)
    T = dg + np.swapaxes(dg, 1, 2) - np.moveaxis(dg, (0, 1, 2), (1, 2, 0))
    return 0.5 * np.einsum("kl,lij->kij", ginv, T)


CASES = {
    "cp1": (fubini_study_chart(1), cpn_height_function(1, 0)),
    "cp2": (fubini_study_chart(2), cpn_height_function(2, 1)),
    "cp3": (fubini_study_chart(3), cpn_height_function(3, 0)),
    "flat11": (flat_kahler_chart(1, 1), random_polynomial_field(4, seed=5)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_batched_oracle_matches_per_point_reference(name):
    chart, f = CASES[name]
    for p in sample_points(chart, 2, 13, 0.5 * chart.domain_radius):
        for oracle, k, h in ((fd.fd_gradient, 1, fd.STEP_ORDER1),
                             (fd.fd_hessian, 2, fd.STEP_ORDER2),
                             (fd.fd_third, 3, fd.STEP_ORDER3)):
            assert np.array_equal(oracle(f, p), _reference(f, p, k, h))
        assert np.array_equal(fd.christoffel_fd(chart, p),
                              _christoffel_reference(chart, p))


def test_oracle_evaluates_one_batch_per_call():
    chart, f = CASES["cp2"]
    calls = []

    def counted(P):
        calls.append(np.shape(P))
        return f(P)

    fd.fd_third(counted, np.full(chart.dim, 0.1))
    # 20 index tuples i <= j <= k, 8 sign patterns, 2 step sizes.
    assert calls == [(20 * 8 * 2, chart.dim)]


# -- negative control for oracle.derivatives ---------------------------------

class _OffThirdOrder(ScalarField):
    """True values and jets, except 1e-3 added to every order-3 entry."""

    def __init__(self, f):
        super().__init__(f.dim)
        self.f = f

    def _jets(self, P, order):
        out = self.f.jets(P, order)
        if order >= 3:
            out[3] = out[3] + 1e-3
        return out


@pytest.mark.parametrize("perturbed", [False, True])
def test_oracle_check_rejects_wrong_third_jets(monkeypatch, perturbed):
    build = verify.build_solution
    if perturbed:
        monkeypatch.setattr(verify, "build_solution",
                            lambda spec, chart: _OffThirdOrder(build(spec, chart)))
    cfg = SuiteConfig.from_dict({
        "chart": {"name": "fubini_study", "n": 1}, "solution": "height:0",
        "c": 0.25, "seed": 7, "samples": 5, "checks": ["oracle.derivatives"]})
    rec = run_suite(cfg).checks[0]
    assert rec.status == "ok"
    assert rec.passed is not perturbed

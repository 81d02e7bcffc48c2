"""Batched evaluation equals stacked single-point evaluation, bit for bit.

Every layer takes points of shape (d,) or (N, d) through one code path, so
evaluating a batch must reproduce, exactly, what evaluating its points one
at a time gives.  Likewise a function evaluates a field or chart once per
batch at the highest order it needs and hands the lower terms to
lower-order consumers, so jets through order k must be exactly the first
k + 1 terms of jets through order k + 1.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from tannolab import charts
from tannolab.calculus import kahler_residuals, laplacian
from tannolab.manifolds import (cpn_height_function, flat_kahler_chart,
                                fubini_study_chart, geodesic_residual,
                                integrate_geodesic,
                                random_polynomial_field,
                                random_quadratic_field)
from tannolab.operator import assemble_L, eigenstructure_at, star_power
from tannolab.tanno import (TannoProblem, laplace_identity_residual,
                            lightlike_third_derivative, mu_hessian_residual,
                            system_residual, tanno_residual,
                            trace_identity_residual)

# (chart, solution field) per case; charts and fields hold no per-point
# state, so sharing them across examples cannot leak results between them.
CASES = {
    "cp1": (fubini_study_chart(1), cpn_height_function(1, 0)),
    "cp2": (fubini_study_chart(2), cpn_height_function(2, 1)),
    "cp3": (fubini_study_chart(3), cpn_height_function(3, 0)),
    "flat11": (flat_kahler_chart(1, 1), random_polynomial_field(4, seed=5)),
}

# Coordinates within 0.5 keep every point inside each chart's domain;
# exact zeros exercise the terms that vanish at the origin.
COORD = st.one_of(st.just(0.0),
                  st.floats(-0.5, 0.5, allow_nan=False, allow_infinity=False))


@st.composite
def batches(draw):
    name = draw(st.sampled_from(sorted(CASES)))
    chart, field = CASES[name]
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(COORD, min_size=chart.dim, max_size=chart.dim),
                         min_size=n, max_size=n))
    return chart, field, np.array(rows, dtype=float)


def _assert_stacked(batched, singles):
    """A batched derivative list equals its per-point lists stacked."""
    assert len(batched) == len(singles[0])
    for m, term in enumerate(batched):
        stacked = np.stack([np.asarray(s[m]) for s in singles])
        assert term.shape == stacked.shape
        assert np.array_equal(term, stacked), f"term {m} differs"


PROPERTY = settings(max_examples=30, deadline=None)


@PROPERTY
@given(batches())
def test_metric_and_christoffel_jets(case):
    chart, _, P = case
    for order in (0, 1, 2):
        _assert_stacked(chart.metric_jets(P, order),
                        [chart.metric_jets(p, order) for p in P])
        _assert_stacked(chart.christoffel_jets(P, order),
                        [chart.christoffel_jets(p, order) for p in P])


@PROPERTY
@given(batches())
def test_field_jets(case):
    _, field, P = case
    for order in (0, 1, 2, 3):
        _assert_stacked(field.jets(P, order), [field.jets(p, order) for p in P])


@PROPERTY
@given(batches())
def test_tanno_residual_and_extended_operator(case):
    chart, field, P = case
    prob = TannoProblem(chart, field, 0.25)
    _assert_stacked([tanno_residual(prob, P)],
                    [[tanno_residual(prob, p)] for p in P])
    unit = prob.rescaled()
    _assert_stacked([assemble_L(unit, P)],
                    [[assemble_L(unit, p)] for p in P])


@PROPERTY
@given(batches(), st.integers(0, 3))
@example((*CASES["cp3"], np.array([[0.1, -0.2, 0.3, 0.0, 0.25, -0.1]])), 3)
def test_lower_order_jets_are_a_prefix(case, k):
    chart, field, P = case
    fields = [field, random_polynomial_field(chart.dim, seed=9),
              star_power(chart, field, 2)]
    evaluations = [lambda order, f=f: f.jets(P, order) for f in fields] + [
        lambda order: chart.metric_jets(P, order),
        lambda order: chart.metric_inv_jets(P, order),
        lambda order: chart.christoffel_jets(P, order)]
    for evaluate in evaluations:
        lower, higher = evaluate(k), evaluate(k + 1)
        assert len(lower) == k + 1 and len(higher) == k + 2
        for m, (a, b) in enumerate(zip(lower, higher)):
            assert np.array_equal(a, b), f"term {m} differs"


def test_path_checks_independent_of_chunk_size(monkeypatch):
    """Whole-path evaluations give the same bits in chunks as in one batch."""
    fs1 = CASES["cp1"][0]
    flat = flat_kahler_chart(1, 1)
    quad = random_quadratic_field(4, seed=20)
    x0, v0 = np.array([1.0, 0.0]), np.array([0.0, 1.0])

    def evaluate():
        path = integrate_geodesic(fs1, x0, v0, 1.0, steps=64)
        null = integrate_geodesic(flat, np.zeros(4),
                                  np.array([1.0, 0, 1.0, 0]), 3.0, steps=16)
        return (path.drift, geodesic_residual(fs1, path),
                lightlike_third_derivative(flat, quad, null))

    whole = evaluate()
    monkeypatch.setattr(charts, "POINT_CHUNK", 5)
    assert evaluate() == whole


EMPTY_BATCH = {
    "tanno_residual": tanno_residual,
    "laplace_identity_residual": laplace_identity_residual,
    "system_residual": system_residual,
    "trace_identity_residual": trace_identity_residual,
    "mu_hessian_residual": mu_hessian_residual,
    "assemble_L": assemble_L,
    "eigenstructure_at": eigenstructure_at,
    "kahler_residuals": lambda prob, P: kahler_residuals(prob.chart, P),
    "laplacian": lambda prob, P: laplacian(prob.chart, prob.f, P),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("name", sorted(EMPTY_BATCH))
def test_empty_batch_gives_empty_results(name, case):
    """A (0, d) batch is a batch: every per-point result has no rows."""
    chart, field = CASES[case]
    prob = TannoProblem(chart, field, 1.0)
    out = EMPTY_BATCH[name](prob, np.empty((0, chart.dim)))
    for part in (out if isinstance(out, tuple) else (out,)):
        assert len(part) == 0

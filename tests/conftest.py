import pytest

from tannolab import jets as J
from tannolab.charts import KahlerChart
from tannolab.fields import ExprField
from tannolab.manifolds import (cpn_height_function, flat_kahler_chart,
                                fubini_study_chart, sample_points)


@pytest.fixture(scope="session")
def fs1():
    return fubini_study_chart(1)


@pytest.fixture(scope="session")
def fs2():
    return fubini_study_chart(2)


@pytest.fixture(scope="session")
def fs1_unit():
    """CP(1) chart rescaled so the height field solves the c = 1 equation."""
    return fubini_study_chart(1).rescaled(0.25)


@pytest.fixture(scope="session")
def fs2_unit():
    return fubini_study_chart(2).rescaled(0.25)


@pytest.fixture(scope="session")
def flat11():
    return flat_kahler_chart(1, 1)


@pytest.fixture(scope="session")
def flat10():
    return flat_kahler_chart(1, 0)


@pytest.fixture(scope="session")
def height1():
    return cpn_height_function(1, 0)


@pytest.fixture(scope="session")
def height2():
    return cpn_height_function(2, 0)


def points_on(chart, count, seed=11, radius=None):
    if radius is None:
        radius = 0.7 * chart.domain_radius
    return sample_points(chart, count, seed, radius)


def _cp11_form(x):
    """1 + |z|^2 - |w|^2 in chart coordinates (z = x0 + i x1, w = x2 + i x3)."""
    return 1 + x[0] * x[0] + x[1] * x[1] - x[2] * x[2] - x[3] * x[3]


@pytest.fixture(scope="session")
def cp11():
    """Pseudo-Kahler CP(1,1): potential 2 log(1 + |z|^2 - |w|^2) on the ball
    of radius 0.9, where the form stays positive.  g has signature (2, 2),
    and 4 diag(1, 1, -1, -1) at the origin."""
    return KahlerChart.from_potential(
        4, lambda x: 2 * J.log(_cp11_form(x)), 0.9, name="CP(1,1)")


@pytest.fixture(scope="session")
def cp11_heights():
    """The three height analogues 2 (+-|Z_a|^2) / (1 + |z|^2 - |w|^2) - 2/3,
    Z = (1, z, w) with the signs of the form: solutions of eq1 on cp11 at
    c = 1/4."""
    def height(axis):
        def fn(x):
            if axis == 0:
                num = J.Jet.constant(2.0, 4, x[0].order)
            elif axis == 1:
                num = 2 * (x[0] * x[0] + x[1] * x[1])
            else:
                num = -2 * (x[2] * x[2] + x[3] * x[3])
            return num / _cp11_form(x) - 2.0 / 3.0
        return ExprField(4, fn, name=f"CP(1,1) height[{axis}]")
    return [height(axis) for axis in range(3)]

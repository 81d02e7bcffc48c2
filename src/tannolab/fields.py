"""Scalar fields evaluable with exact derivatives of any order, and the
matrix-field interface.

Fields are immutable after construction and keep no per-point state.
:meth:`ScalarField.taylor` takes one point of shape (d,) or a batch of
shape (N, d) and returns Taylor coefficients (:mod:`~tannolab.jets`) with a
leading point axis iff the input had one; :meth:`ScalarField.jets` is their
derivative list.  Subclasses implement ``_taylor(P, order)`` for an (N, d)
batch only.  The package implements no matrix field: matrix-valued jets
(the metric, a_ij) come straight from :meth:`KahlerChart.metric_coeffs` and
the bundle code.
"""

from __future__ import annotations

import numpy as np

from . import jets as J
from .charts import as_points, unbatch


class ScalarField:
    """Base class: a smooth real function on a chart domain.

    Subclasses implement ``_taylor(P, order)``, the (N, M) Taylor
    coefficients through ``order`` on an (N, d) batch; consumers call
    :meth:`taylor` or :meth:`jets`, which accept a single point or a batch
    of this field's dimension.
    """

    def __init__(self, dim: int):
        self.dim = dim

    def taylor(self, p, order: int) -> np.ndarray:
        P, single = as_points(p, self.dim)
        return unbatch(self._taylor(P, order), single)

    def jets(self, p, order: int) -> list[np.ndarray]:
        return J.expand(self.taylor(p, order), self.dim, order)

    def _taylor(self, P, order):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, p):
        """f(p): a float, or one value per point for a batch."""
        v = self.jets(p, 0)[0]
        return float(v) if np.ndim(v) == 0 else np.array(v)

    def gradient(self, p) -> np.ndarray:
        return np.array(self.jets(p, 1)[1])

    # Linear-space structure; products are intentionally absent (pointwise
    # products of fields are not closed under the solution calculus).
    def __add__(self, other):
        if isinstance(other, ScalarField):
            return LinearComboField([self, other], [1.0, 1.0], 0.0)
        return LinearComboField([self], [1.0], float(other))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, ScalarField):
            return LinearComboField([self, other], [1.0, -1.0], 0.0)
        return LinearComboField([self], [1.0], -float(other))

    def __mul__(self, c):
        return LinearComboField([self], [float(c)], 0.0)

    __rmul__ = __mul__

    def __neg__(self):
        return LinearComboField([self], [-1.0], 0.0)


class ExprField(ScalarField):
    """Field defined by a jet-arithmetic expression fn(list[Jet]) -> Jet."""

    def __init__(self, dim: int, fn, name: str = "expr"):
        super().__init__(dim)
        self.fn = fn
        self.name = name

    def _taylor(self, P, order):
        return J.eval_coeffs(self.fn, P, order)

    def __repr__(self):
        return f"ExprField({self.name}, dim={self.dim})"


class ConstField(ScalarField):
    def __init__(self, dim: int, value: float):
        super().__init__(dim)
        self.const = float(value)

    def _taylor(self, P, order):
        return J.compress([np.full(len(P), self.const)], self.dim, order)

    def __repr__(self):
        return f"ConstField({self.const})"


class LinearComboField(ScalarField):
    """c_1 f_1 + ... + c_k f_k + const, flattened on construction."""

    def __init__(self, fields, coeffs, const: float = 0.0):
        super().__init__(fields[0].dim)
        flat_fields, flat_coeffs = [], []
        for f, c in zip(fields, coeffs):
            if isinstance(f, LinearComboField):
                flat_fields.extend(f.fields)
                flat_coeffs.extend(c * ci for ci in f.coeffs)
                const += c * f.const
            else:
                flat_fields.append(f)
                flat_coeffs.append(c)
        self.fields = flat_fields
        self.coeffs = flat_coeffs
        self.const = float(const)

    def _taylor(self, P, order):
        out = J.compress([np.full(len(P), self.const)], self.dim, order)
        for f, c in zip(self.fields, self.coeffs):
            out += c * f.taylor(P, order)
        return out


class MatrixField:
    """Interface of a smooth symmetric-matrix-valued map with exact
    derivatives: :meth:`jets` as for :class:`ScalarField`, with lead shape
    (d, d).  The package implements none; ``perfbench/bench_trace.py`` looks
    the class up and hooks its :meth:`jets`."""

    def __init__(self, dim: int):
        self.dim = dim

    def jets(self, p, order: int) -> list[np.ndarray]:  # pragma: no cover - abstract
        raise NotImplementedError

"""Truncated multivariate Taylor (jet) arithmetic over batches of points.

A jet of order r over N points of R^d is stored as a list ``[T0, T1, ..., Tr]``
where ``Tm`` is the raw m-th partial-derivative tensor, shape
``(N,) + lead_shape + (d,)*m``, symmetric in its trailing m axes.  The leading
point axis is carried through every operation, so one call evaluates a whole
sample set.  All derivative propagation reduces to the generalized Leibniz
rule

    (A.B)_{i1..im} = sum over subsets S of {i1..im} of A_{iS} B_{iS^c}

realized as einsum outer products (with a ``z`` point axis prefixed to every
operand) followed by axis scatters.  A derivative list may be shorter than
its order: missing trailing terms are zero by construction and are skipped.
Scalar-valued jets get an operator-overloaded wrapper (:class:`Jet`) so chart
metrics and scalar fields can be written as ordinary arithmetic expressions;
tensor-valued jets are combined directly with :func:`tconv` using an
einsum-style spec for the leading (non-derivative) axes.

Nothing here is chart-aware; higher layers consume these raw partials.
"""

from __future__ import annotations

import itertools
import math
from functools import cache

import numpy as np

_DERIV_LETTERS = "ABCDEFGHMN"

#: Largest supported jet order.  Star-power chains on solutions are the only
#: consumers above order 3 (f^{*4} needs order-5 jets of f).
MAX_ORDER = len(_DERIV_LETTERS)


@cache
def _script(spec: str, m: int, j: int) -> str:
    """einsum script for an order-(j, m-j) Leibniz term with lead spec."""
    if m > MAX_ORDER:
        raise ValueError(f"jet order {m} exceeds supported maximum {MAX_ORDER}")
    lhs, rhs = spec.split("->")
    a_spec, b_spec = lhs.split(",")
    return (
        "z" + a_spec + _DERIV_LETTERS[:j] + ",z" + b_spec + _DERIV_LETTERS[j:m]
        + "->z" + rhs + _DERIV_LETTERS[:m]
    )


@cache
def _scatters(m: int, j: int) -> tuple[tuple[int, ...], ...]:
    """Trailing-axis permutations placing j "A" axes on every size-j subset.

    The einsum in :func:`_script` produces trailing axes ordered (A-axes,
    B-axes).  For a subset S of target positions, entry p of the returned
    permutation is the source axis that lands at target position p.
    """
    perms = []
    for subset in itertools.combinations(range(m), j):
        comp = [p for p in range(m) if p not in subset]
        src = [0] * m
        for a_idx, pos in enumerate(subset):
            src[pos] = a_idx
        for b_idx, pos in enumerate(comp):
            src[pos] = j + b_idx
        perms.append(tuple(src))
    return tuple(perms)


def tconv_single(A, B, spec: str, m: int, j_min: int = 0,
                 j_max: int | None = None, dim: int | None = None):
    """Order-m term of the Leibniz product of derivative lists A and B.

    ``spec`` is an einsum signature for the leading axes after the point
    axis, e.g. ``'ab,bc->ac'`` for a matrix product or ``',->'`` for
    scalars.  ``j_min``/``j_max`` restrict how many derivatives fall on A
    (used by order-by-order recurrences that solve for the top coefficient).
    Terms beyond the end of either list are zero and are skipped.
    """
    lo = max(j_min, m - len(B) + 1)
    hi = min(m if j_max is None else j_max, m, len(A) - 1)
    out = None
    for j in range(lo, hi + 1):
        base = np.einsum(_script(spec, m, j), A[j], B[m - j])
        lead = base.ndim - m
        for perm in _scatters(m, j):
            axes = tuple(range(lead)) + tuple(lead + q for q in perm)
            term = base.transpose(axes)
            if out is None:
                out = term.copy()
            else:
                out += term
    if out is None:
        # Shape bookkeeping for an all-zero result.
        lead_shape = np.einsum(_script(spec, 0, 0), A[0], B[0]).shape
        d = _dim_of(A, B) if dim is None else dim
        return np.zeros(lead_shape + (d,) * m)
    return out


def _dim_of(A, B) -> int:
    for lst in (A, B):
        for m, t in enumerate(lst):
            if m >= 1:
                return t.shape[-1]
    return 0


def tconv(A, B, spec: str, order: int | None = None):
    """Full Leibniz product of two batched derivative lists up to ``order``."""
    if order is None:
        order = min(len(A), len(B)) - 1
    return [tconv_single(A, B, spec, m) for m in range(order + 1)]


def tscale(A, c: float):
    return [c * t for t in A]


def tgrad(A):
    """Derivative list of the coordinate gradient: lead shape grows by (d,).

    ``tgrad(A)[m]`` is ``A[m+1]`` with its first trailing axis read as the
    gradient component; valid because the trailing axes are symmetric.
    """
    return [A[m + 1] for m in range(len(A) - 1)]


def tinv(G, order: int, inv0=None):
    """Derivative list of the matrix inverse of a batched matrix-valued jet.

    Solves (G.H)_m = 0 order by order:  H_m = -H_0 (sum_{j>=1} G_j H_{m-j}).
    ``inv0`` is G_0^{-1} when the caller already has it.
    """
    H0 = np.linalg.inv(G[0]) if inv0 is None else inv0
    H = [H0]
    for m in range(1, order + 1):
        S = tconv_single(G, H, "ab,bc->ac", m, j_min=1)
        H.append(-np.einsum("zab,zbc...->zac...", H0, S))
    return H


def _bc(v: np.ndarray, m: int) -> np.ndarray:
    """Per-point values reshaped to broadcast against order-m terms."""
    return v.reshape(v.shape + (1,) * m)


def _libm(fn, v: np.ndarray) -> np.ndarray:
    """Apply a math-module function to each point's value.

    numpy's vectorized log/exp/pow may differ from the C library in the
    last ulp; going through ``math`` keeps jet values independent of the
    batch layout and of the CPU's SIMD support.
    """
    return np.array([fn(x) for x in v.ravel().tolist()]).reshape(v.shape)


# ---------------------------------------------------------------------------
# Scalar jets with operator overloading (for writing fields and potentials).
# ---------------------------------------------------------------------------

class Jet:
    """Scalar-valued truncated Taylor expansion over a batch of points.

    Only the leading terms that can be nonzero are stored (``_t``); the
    order is tracked separately and :attr:`terms` pads the list with zeros.
    A value-only jet built by :meth:`constant` has a point-free (0-d) value
    and broadcasts against any batch.
    """

    __slots__ = ("_t", "order", "dim")

    def __init__(self, terms, order: int | None = None, dim: int | None = None):
        self._t = [np.asarray(t, dtype=float) for t in terms]
        self.order = len(self._t) - 1 if order is None else int(order)
        if dim is None:
            dim = self._t[1].shape[-1] if len(self._t) > 1 else 0
        self.dim = int(dim)

    @property
    def terms(self) -> list[np.ndarray]:
        """All order+1 derivative terms, zero-padded past the stored ones."""
        t0 = self._t[0]
        pad = [np.zeros(t0.shape + (self.dim,) * m)
               for m in range(len(self._t), self.order + 1)]
        return self._t[:self.order + 1] + pad

    @property
    def value(self):
        v = self._t[0]
        return float(v) if v.ndim == 0 else v

    @classmethod
    def constant(cls, c: float, dim: int, order: int) -> "Jet":
        return cls([np.asarray(float(c))], order, dim)

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            return other
        return Jet.constant(float(other), self.dim, self.order)

    def _new(self, terms, other: "Jet | None" = None) -> "Jet":
        order = self.order if other is None else min(self.order, other.order)
        return Jet(terms[:order + 1], order, self.dim or (other.dim if other else 0))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        a, b = self._t, o._t
        n = max(len(a), len(b))
        terms = [a[m] + b[m] if m < len(a) and m < len(b)
                 else (a[m] if m < len(a) else b[m]) for m in range(n)]
        return self._new(terms, o)

    __radd__ = __add__

    def __neg__(self):
        return Jet([-t for t in self._t], self.order, self.dim)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            c = float(other)
            return Jet([c * t for t in self._t], self.order, self.dim)
        a, b = self._t, other._t
        if len(a) == 1 or len(b) == 1:
            (c,), rest = (a, b) if len(a) == 1 else (b, a)
            return self._new([_bc(c, m) * t for m, t in enumerate(rest)], other)
        order = min(self.order, other.order)
        top = min(order, len(a) + len(b) - 2)
        return self._new([tconv_single(a, b, ",->", m) for m in range(top + 1)],
                         other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * (1.0 / float(other))
        return self * reciprocal(other)

    def __rtruediv__(self, other):
        return reciprocal(self) * float(other)

    def __pow__(self, n):
        if isinstance(n, int):
            if n < 0:
                return reciprocal(self) ** (-n)
            out = Jet.constant(1.0, self.dim, self.order)
            base = self
            while n:
                if n & 1:
                    out = out * base
                base = base * base
                n >>= 1
            return out
        return powf(self, float(n))

    def __repr__(self):
        return f"Jet(order={self.order}, value={self.value})"


def seed_coordinates(p, order: int) -> list[Jet]:
    """Coordinate jets at points p, shape (d,) or (N, d): value p[..., i],
    unit gradient.  A single point is evaluated as a batch of one."""
    P = np.atleast_2d(np.asarray(p, dtype=float))
    n, d = P.shape
    jets = []
    for i in range(d):
        terms = [P[:, i].copy()]
        if order >= 1:
            e = np.zeros((n, d))
            e[:, i] = 1.0
            terms.append(e)
        jets.append(Jet(terms, order, d))
    return jets


def _top(u: Jet) -> int:
    """Highest order a non-polynomial function of u can populate."""
    return u.order if len(u._t) > 1 else 0


def reciprocal(u: Jet) -> Jet:
    h0 = 1.0 / u._t[0]
    h = [h0]
    neg_h0 = -h0
    for m in range(1, _top(u) + 1):
        s = tconv_single(u._t, h, ",->", m, j_min=1)
        h.append(_bc(neg_h0, m) * s)
    return Jet(h, u.order, u.dim)


def _from_gradient_recurrence(u: Jet, h0, factor_terms_fn) -> Jet:
    """Build phi(u) from  d(phi(u)) = factor * du  solved order by order.

    ``factor_terms_fn(h_terms)`` returns the derivative list of the factor;
    it may consult the partially built ``h_terms`` (self-referential rules
    like exp).  Entry m of the result is the order-(m-1) term of factor*du
    with the new derivative axis leading, which is symmetric with the rest.
    """
    gu = tgrad(u._t)
    h = [h0]
    for m in range(1, _top(u) + 1):
        fac = factor_terms_fn(h)
        h.append(tconv_single(fac, gu, ",a->a", m - 1))
    return Jet(h, u.order, u.dim)


def log(u: Jet) -> Jet:
    v = reciprocal(u)
    return _from_gradient_recurrence(u, _libm(math.log, u._t[0]), lambda h: v._t)


def exp(u: Jet) -> Jet:
    return _from_gradient_recurrence(u, _libm(math.exp, u._t[0]), lambda h: h)


def powf(u: Jet, alpha: float) -> Jet:
    v = reciprocal(u)
    h0 = _libm(lambda x: x ** alpha, u._t[0])
    scaled = tscale(v._t, alpha)

    def factor(h):
        return tconv(h, scaled, ",->", order=len(h) - 1)

    return _from_gradient_recurrence(u, h0, factor)


def sqrt(u: Jet) -> Jet:
    h = [_libm(math.sqrt, u._t[0])]
    inv2h0 = 0.5 / h[0]
    for m in range(1, _top(u) + 1):
        s = tconv_single(h, h, ",->", m, j_min=1, j_max=m - 1, dim=u.dim)
        um = u._t[m] if m < len(u._t) else 0.0
        h.append((um - s) * _bc(inv2h0, m))
    return Jet(h, u.order, u.dim)


def sin(u: Jet) -> Jet:
    return _sincos(u)[0]


def cos(u: Jet) -> Jet:
    return _sincos(u)[1]


def _sincos(u: Jet) -> tuple[Jet, Jet]:
    gu = tgrad(u._t)
    s = [_libm(math.sin, u._t[0])]
    c = [_libm(math.cos, u._t[0])]
    for m in range(1, _top(u) + 1):
        s.append(tconv_single(c, gu, ",a->a", m - 1))
        c.append(-tconv_single(s, gu, ",a->a", m - 1))
    return Jet(s, u.order, u.dim), Jet(c, u.order, u.dim)


def _batched_terms(jet: Jet, n: int) -> list[np.ndarray]:
    """Padded terms of a jet with the point axis broadcast to n points."""
    out = []
    for m, t in enumerate(jet.terms):
        shape = (n,) + t.shape[t.ndim - m:]
        out.append(t if t.shape == shape else np.array(np.broadcast_to(t, shape)))
    return out


def _unbatch(terms, single: bool):
    return [t[0] for t in terms] if single else terms


def eval_scalar_expr(fn, p, order: int) -> list[np.ndarray]:
    """Evaluate a Jet-arithmetic callable fn(list[Jet]) -> Jet at points p.

    p has shape (d,) or (N, d); the result has a leading point axis iff p
    does.
    """
    p = np.asarray(p, dtype=float)
    x = seed_coordinates(p, order)
    n, d = len(x[0]._t[0]), p.shape[-1]
    result = fn(x)
    if not isinstance(result, Jet):
        # Allow plain floats for constant expressions.
        result = Jet.constant(float(result), d, order)
    return _unbatch(_batched_terms(result, n), p.ndim == 1)

"""Truncated multivariate Taylor (jet) arithmetic over batches of points.

Interface.  A jet of order r over N points of R^d is a coefficient array
of shape ``(N,) + lead_shape + (M,)``: the Taylor coefficients of Storage
below through degree r.  Fields (:meth:`~tannolab.fields.ScalarField.taylor`),
the chart's metric and Gamma, the covariant derivatives of a scalar
and the star chain produce and take that form, and :func:`eval_coeffs`,
:func:`cprod`, :func:`csolve`, :func:`cinv` and :func:`cgrad` work on it.
A caller that reads derivatives expands it with :func:`expand` into a
derivative list ``[T0, T1, ..., Tr]``, ``Tm`` the raw m-th
partial-derivative tensor of shape ``(N,) + lead_shape + (d,)*m``,
symmetric in its trailing m axes; :func:`compress` turns a list written in
closed form into coefficients.

Storage.  Inside, a jet holds one Taylor coefficient ``d^a f / a!`` per
multi-index a, degree after degree (within a degree in the order of
``itertools.combinations_with_replacement``), so degree m costs
C(d+m-1, m) numbers where a full tensor costs d^m, and the coefficients
through degree k are a prefix of those through degree k + 1.  Products use

    (AB)_g = sum over a + b = g of A_a B_b

through pair tables built on first use per dimension and degree range:

* scalar jets (:class:`Jet`, :func:`reciprocal`, :func:`log`, the ``',->'``
  spec): a product is one gather of the listed pairs, one multiply and one
  segmented sum (``np.add.reduceat``);
* tensor-valued jets (:func:`cprod`, :func:`csolve`) hold the leading axes
  as matrices: output degree m is one stack of matrix products, one per
  point and output monomial, whose inner axis runs over that output's pairs
  side by side.

:func:`csolve` gives v with g v = b for a matrix-valued g, degree by degree,
multiplying by g^-1 at the points only, so no g^-1 jet is formed: Gamma,
the trace of g^-1 a and the star chain's lift are each one solve.
:func:`cinv` is its case b = 1, for a caller that wants g^-1 itself.

A tensor-valued product or solve keeps only bounded transients.  It takes
its two factors, or its right-hand side, as a list that it empties: once an
array is stacked into the matrix layout it is dropped, so from then on the
stacked copies are held, not the arrays, and one the caller keeps no other
reference to is freed before the pair products run.  The pairs of a
degree are gathered in runs of outputs whose gathered factors hold at most
GATHER_CHUNK numbers each, and each degree's block is written once, in the
layout the caller reads.

A table lists each output's pairs in the same order whatever the
truncation, so lower-order jets are a bit-exact prefix of higher-order
ones, and no sum mixes points, so a batch gives the bits its points give
one at a time.  A :class:`Jet` stores coefficients only through the
highest degree that can be nonzero, so a product with a coordinate costs
that coordinate's degree-1 block only.  Expanding multiplies a coefficient
by a! and compressing divides by it, which is not an exact round trip, so
coefficients are handed on unexpanded.  Nothing here is chart-aware.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cache

import numpy as np

#: Most numbers one gathered factor of a tensor-valued product may hold: a
#: product with more pairs runs in pieces, so its gathers stay small.  The
#: bound holds down the two largest product peaks, with the same bits: on
#: CP(3) at 200 samples (seed 7, traced), the sample pass, in blocks of 100
#: points, peaks at 4.94 MB at 2^16 numbers (0.5 MB) and at 6.37 MB at 2^18
#: (2 MB), and lem2's star chain at its 20 points at 4.22 and 7.59 MB.
GATHER_CHUNK = 1 << 16


# ---------------------------------------------------------------------------
# Monomial tables, built on first use.
# ---------------------------------------------------------------------------

def size(d: int, top: int) -> int:
    """Number of monomials in d variables of degree at most top: the
    coefficients of a jet through degree top, a prefix of those through
    any higher degree."""
    return math.comb(d + top, top) if top >= 0 else 0


def _frozen(*arrays):
    """Cached tables are shared by every caller: make them read-only."""
    for a in arrays:
        a.flags.writeable = False
    return arrays if len(arrays) > 1 else arrays[0]


@cache
def _monomials(d: int, m: int) -> np.ndarray:
    """Degree-m monomials as sorted index tuples, shape (n_m, m)."""
    rows = list(itertools.combinations_with_replacement(range(d), m))
    return _frozen(np.array(rows, dtype=np.intp).reshape(len(rows), m))


def _counts(rows: np.ndarray, d: int) -> np.ndarray:
    """Exponent vector of each row of indices: how often each of 0..d-1 occurs."""
    return (rows[:, :, None] == np.arange(d)).sum(axis=1)


@cache
def _exponents(d: int, m: int) -> np.ndarray:
    """Exponent vectors of the degree-m monomials, shape (n_m, d)."""
    return _frozen(_counts(_monomials(d, m), d))


@cache
def _full_index(d: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(expand, pick, factorial) for degree m >= 1.

    ``expand[k]`` is the monomial of flat entry k of a (d,)*m tensor,
    ``pick[i]`` the flat entry holding monomial i (its sorted index), and
    ``factorial[i]`` the multi-index factorial a! that converts between a
    raw partial derivative and a Taylor coefficient.
    """
    exps = _exponents(d, m)
    expand = _lookup(exps, _counts(np.indices((d,) * m).reshape(m, -1).T, d))
    pick = np.ravel_multi_index(tuple(_monomials(d, m).T), (d,) * m)
    factorial = np.array([math.prod(math.factorial(int(e)) for e in row)
                          for row in exps], dtype=float)
    return _frozen(expand, pick, factorial)


def _lookup(exps: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index within ``exps`` (one degree's exponent rows) of each query row."""
    base = int(exps.sum(axis=1).max(initial=0)) + 1
    weights = base ** np.arange(exps.shape[1], dtype=np.intp)
    keys = exps @ weights
    order = np.argsort(keys)
    return order[np.searchsorted(keys[order], queries @ weights)]


@cache
def _degree_pairs(d: int, m: int) -> tuple[np.ndarray, ...]:
    """All coefficient pairs (a, b) with |a| + |b| = m, as flat indices.

    Returns (ia, ib, j, g): pair k multiplies entry ia[k] of the first
    factor, of degree j[k], with entry ib[k] of the second, into output
    monomial g[k] of degree m.  Pairs are sorted by (g, j, a), so an
    output's pairs come in one fixed order.
    """
    ia, ib, js, gs = [], [], [], []
    out = _exponents(d, m)
    for j in range(m + 1):
        ea, eb = _exponents(d, j), _exponents(d, m - j)
        na, nb = len(ea), len(eb)
        g = _lookup(out, (ea[:, None, :] + eb[None, :, :]).reshape(na * nb, d))
        ia.append(size(d, j - 1) + np.repeat(np.arange(na), nb))
        ib.append(size(d, m - j - 1) + np.tile(np.arange(nb), na))
        js.append(np.full(na * nb, j))
        gs.append(g)
    ia, ib, js, gs = (np.concatenate(v) for v in (ia, ib, js, gs))
    order = np.lexsort((ia, js, gs))
    return _frozen(ia[order], ib[order], js[order], gs[order])


def _pairs(d: int, m: int, jmin: int, ta: int, tb: int):
    """The degree-m pairs (ia, ib, g) with jmin <= |a| <= ta and |b| <= tb,
    i.e. for a first factor stored through degree ta and a second through
    tb.  Every output keeps a pair when jmin <= m <= ta + tb, jmin <= ta."""
    a, b, j, g = _degree_pairs(d, m)
    keep = (j >= max(jmin, m - tb)) & (j <= min(m, ta))
    return a[keep], b[keep], g[keep]


@cache
def _table(d: int, m0: int, m1: int, jmin: int, ta: int, tb: int):
    """Scalar product table for output degrees m0..m1: (ia, ib, starts),
    ``starts`` the segment starts for ``np.add.reduceat``."""
    ia, ib, starts, pos = [], [], [], 0
    for m in range(m0, m1 + 1):
        a, b, g = _pairs(d, m, jmin, ta, tb)
        starts.append(pos + np.flatnonzero(np.r_[True, g[1:] != g[:-1]]))
        ia.append(a)
        ib.append(b)
        pos += len(a)
    return _frozen(np.concatenate(ia), np.concatenate(ib), np.concatenate(starts))


@cache
def _padded_table(d: int, m: int, jmin: int, ta: int, tb: int):
    """Tensor product table for output degree m: (ia, ib) of shape (n_m, L).

    Row g lists output g's pairs in table order, padded to the longest row
    with index -1, the zero slot at the end of a stacked coefficient array.
    """
    a, b, g = _pairs(d, m, jmin, ta, tb)
    counts = np.bincount(g)
    rank = np.arange(len(g)) - np.repeat(np.cumsum(counts) - counts, counts)
    ia = np.full((len(counts), counts.max()), -1, dtype=np.intp)
    ib = ia.copy()
    ia[g, rank], ib[g, rank] = a, b
    return _frozen(ia, ib)


@cache
def _degrees(d: int, top: int) -> np.ndarray:
    """Degree of each monomial through ``top``, as floats."""
    return _frozen(np.repeat(np.arange(top + 1.0),
                             [size(d, m) - size(d, m - 1) for m in range(top + 1)]))


def _product(a: np.ndarray, b: np.ndarray, table) -> np.ndarray:
    """Scalar jets: segmented sum over the table's pairs of a_ia * b_ib."""
    ia, ib, starts = table
    return np.add.reduceat(np.take(a, ia, axis=-1) * np.take(b, ib, axis=-1),
                           starts, axis=-1)


@cache
def _plan(spec: str):
    """How a leading-axis spec maps onto stacks of matrix products.

    None when both factors are scalars.  Otherwise (axes_a, axes_b, nk,
    axes_out): each factor's leading axes reordered as (contracted...,
    free...), the number nk of contracted axes, and the result's axes as
    a permutation of (free axes of A..., free axes of B...).
    """
    lhs, out = spec.replace(" ", "").split("->")
    a, b = lhs.split(",")
    if not (a or b or out):
        return None
    k = [c for c in a if c in b]
    free = [c for c in a if c not in b] + [c for c in b if c not in a]
    if set(k) & set(out) or sorted(free) != sorted(out):
        raise ValueError(f"unsupported jet product spec {spec!r}")
    return (tuple(a.index(c) for c in k + free if c in a),
            tuple(b.index(c) for c in k + free if c in b),
            len(k), tuple(free.index(c) for c in out))


def _stack(c: np.ndarray, d: int, top: int, axes: tuple, nk: int) -> np.ndarray:
    """Coefficients of ``c`` through ``top`` as (N, M + 1, K, F).

    Leading axes are reordered by ``axes`` and flattened into K contracted
    and F free entries (1 and 1 for a scalar); slot M is zero, the padding
    of :func:`_padded_table`.
    """
    lead, width = c.shape[1:-1], size(d, top)
    n, k = len(c), math.prod(lead[i] for i in axes[:nk])
    out = np.empty((n, width + 1, k, math.prod(lead) // k))
    out[:, -1] = 0.0
    view = out[:, :-1].reshape((n, width) + tuple(lead[i] for i in axes))
    view[...] = c[..., :width].transpose((0, len(lead) + 1) + tuple(1 + i for i in axes))
    return out


def _pair_matmul(x: np.ndarray, y: np.ndarray, table, out: np.ndarray
                 ) -> np.ndarray:
    """Write into ``out``, shape (n, g, f, c), the sum over output g's pairs
    (a, b) of x_a^T y_b: one matrix product per point and output, with the
    pairs laid side by side along the inner axis; returns ``out``.

    Outputs are taken in runs whose gathered factors hold at most
    GATHER_CHUNK numbers each; every output's product is the same whatever
    the run it falls in.  ``out`` may be a transposed view of the caller's
    final layout: matmul then gives the bits, and keeps the BLAS kernel, of
    a contiguous ``out``.
    """
    ia, ib = table
    n, (g, L) = len(x), ia.shape
    k, f, c = x.shape[2], x.shape[3], y.shape[3]
    step = max(1, GATHER_CHUNK // max(1, n * L * k * max(f, c)))
    for lo in range(0, g, step):
        rows = slice(lo, lo + step)
        xs = np.take(x, ia[rows], axis=1)
        ys = np.take(y, ib[rows], axis=1)
        shape = (n, xs.shape[1], L * k)
        np.matmul(xs.reshape(shape + (f,)).swapaxes(2, 3), ys.reshape(shape + (c,)),
                  out=out[:, rows])
    return out


def _expand_degree(block: np.ndarray, d: int, m: int) -> np.ndarray:
    """The (d,)*m derivative tensor of one degree's coefficient block; at
    degrees 0 and 1 it is the block itself, reshaped (a view where the
    block's layout allows)."""
    if m >= 2:
        expand, _, factorial = _full_index(d, m)
        block = np.take(block * factorial, expand, axis=-1)
    return block.reshape(block.shape[:-1] + (d,) * m)


@cache
def top_of(d: int, count: int) -> int:
    """The degree through which ``count`` coefficients in d variables reach."""
    top = 0
    while size(d, top) < count:
        top += 1
    return top


# ---------------------------------------------------------------------------
# Coefficient arrays: conversion and products.
# ---------------------------------------------------------------------------

def compress(terms, d: int, top: int) -> np.ndarray:
    """Coefficient array (N, lead..., M) of a derivative list through ``top``;
    degrees past the end of the list are zero."""
    n, lead = len(terms[0]), np.shape(terms[0])[1:]
    out = np.zeros((n,) + lead + (size(d, top),))
    for m in range(min(top, len(terms) - 1) + 1):
        flat = np.reshape(terms[m], (n,) + lead + (d ** m,))
        if m >= 2:
            _, pick, factorial = _full_index(d, m)
            flat = np.take(flat, pick, axis=-1) / factorial
        out[..., size(d, m - 1):size(d, m)] = flat
    return out


def expand(c: np.ndarray, d: int, order: int) -> list[np.ndarray]:
    """Derivative list through ``order`` of a coefficient array, whose last
    axis holds the monomials through some degree; terms past it are zero."""
    top = top_of(d, c.shape[-1])
    blocks = (c[..., size(d, m - 1):size(d, m)] for m in range(min(top, order) + 1))
    # Degrees 0 and 1 are copied: a view would alias, and keep alive, c.
    terms = [_expand_degree(b if m >= 2 else b.copy(), d, m)
             for m, b in enumerate(blocks)]
    return terms + [np.zeros(c.shape[:-1] + (d,) * m)
                    for m in range(len(terms), order + 1)]


@cache
def partials(d: int, k: int, top: int) -> tuple[np.ndarray, np.ndarray]:
    """(index, factor), each of shape (d,)*k + (M,), M the monomials of
    degree <= top: the coefficient at gamma of the partial derivative
    d^beta F along axes (i_1, ..., i_k) is ``factor[i, gamma] *
    F[..., index[i, gamma]]``, i.e. (gamma + beta)! / gamma! F_{gamma + beta},
    for F stored through top + k.

    With k = 1 this is the gradient (:func:`cgrad`), with k = 2 the Hessian.
    """
    rows = np.concatenate([_exponents(d, m) for m in range(top + 1)])
    up = _exponents(d, k)[:, None, :] + rows
    index = np.empty(up.shape[:2], dtype=np.intp)
    for m in range(top + 1):
        cols = slice(size(d, m - 1), size(d, m))
        block = up[:, cols].reshape(-1, d)
        index[:, cols] = (size(d, m + k - 1) + _lookup(_exponents(d, m + k), block)
                          ).reshape(len(up), -1)
    fact = np.array([math.factorial(i) for i in range(top + k + 1)], dtype=float)
    factor = fact[up].prod(axis=-1) / fact[rows].prod(axis=-1)
    beta, shape = _full_index(d, k)[0], (d,) * k + (len(rows),)
    return _frozen(index[beta].reshape(shape), factor[beta].reshape(shape))


def cgrad(c: np.ndarray, d: int) -> np.ndarray:
    """Coefficients of the coordinate gradient: the lead shape grows by (d,),
    the top degree falls by one (a constant's gradient is zero)."""
    top = top_of(d, c.shape[-1])
    if top == 0:
        return np.zeros(c.shape[:-1] + (d, 1))
    index, factor = partials(d, 1, top - 1)
    out = np.take(c, index, axis=-1)
    out *= factor
    return out


def _products(factors: list, spec: str, d: int, order: int):
    """The coefficient blocks, (N, out..., n_m) for m = 0..top, of the
    product through ``order`` of the coefficient arrays in ``factors``, the
    list [a, b], one at a time.

    The product takes the list over and empties it: it removes each factor
    once that factor is stacked (a scalar product once it is formed), so
    from then on it holds the stacked copies, not the factors, and a factor
    that nothing else refers to is freed before the pair products run.
    Each block is written in its final layout.
    """
    shape_a, shape_b = factors[0].shape, factors[1].shape
    ta = min(top_of(d, shape_a[-1]), order)
    tb = min(top_of(d, shape_b[-1]), order)
    top = min(order, ta + tb)
    plan = _plan(spec)
    if plan is None:
        c = _product(factors.pop(0), factors.pop(0), _table(d, 0, top, 0, ta, tb))
        for m in range(top + 1):
            yield c[..., size(d, m - 1):size(d, m)]
        return
    axes_a, axes_b, nk, axes_out = plan
    free = ([shape_a[1 + i] for i in axes_a[nk:]]
            + [shape_b[1 + i] for i in axes_b[nk:]])
    x = _stack(factors.pop(0), d, ta, axes_a, nk)
    y = _stack(factors.pop(0), d, tb, axes_b, nk)
    perm = (0,) + tuple(1 + i for i in axes_out) + (len(free) + 1,)
    for m in range(top + 1):
        table = _padded_table(d, m, 0, ta, tb)
        block = np.empty((len(x), x.shape[3], y.shape[3], len(table[0])))
        _pair_matmul(x, y, table, block.transpose(0, 3, 1, 2))
        yield block.reshape(block.shape[:1] + tuple(free) + block.shape[-1:]
                            ).transpose(perm)


def cprod(factors: list, spec: str, d: int, order: int) -> np.ndarray:
    """Coefficients of the product of two coefficient arrays over the same
    points, through ``order``.

    ``factors`` is the list [a, b] of the two arrays; the product empties
    it (see :func:`_products`), so a factor the caller keeps no other
    reference to is freed once it is stacked.  ``spec`` is an einsum
    signature for the leading axes after the point axis, e.g.
    ``'ab,bc->ac'`` for a matrix product or ``',->'`` for scalars.  Degrees
    past either factor's last stored one are zero.
    """
    blocks = list(_products(factors, spec, d, order))
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=-1)


def csolve(g: np.ndarray, rhs: list, d: int, order: int, inv0=None
           ) -> np.ndarray:
    """Coefficients through ``order`` of v with g v = b, for a batched
    matrix-valued coefficient array g, shape (N, n, n, M), and a right-hand
    side b of shape (N, n, ..., M'), a vector or a matrix per point; v has
    b's shape with M monomials through ``order``.

    ``rhs`` is the list [b]; the solve empties it, as :func:`cprod` does
    its factors, so a b the caller keeps no other reference to is freed
    once it is stacked.  Solves (g v)_m = b_m degree by degree:
    v_m = -g_0^{-1} (sum_{j>=1} g_j v_{m-j} - b_m), with g_0^{-1} taken at
    the points only (``inv0`` when the caller already has it).  The result
    is a contiguous copy, and the stack the loop runs on is freed: returning
    a view of it measured about 0.3 MB more RSS growth over 160 iterations
    of the benchmark's cp2_geodesics workload.
    """
    H0 = np.linalg.inv(g[..., 0]) if inv0 is None else inv0
    b = rhs.pop()
    n, lead = len(b), b.shape[1:-1]
    tg = min(top_of(d, g.shape[-1]), order)
    tb = min(top_of(d, b.shape[-1]), order)
    # v's stack (N, M + 1, n, C), C the columns of b; it starts as b.
    v = np.zeros((n, size(d, order) + 1, lead[0], math.prod(lead[1:])))
    v[:, :size(d, tb)] = b[..., :size(d, tb)].reshape(
        v.shape[:1] + v.shape[2:] + (size(d, tb),)).transpose(0, 3, 1, 2)
    del b
    v[:, 0] = np.matmul(H0, v[:, 0])
    if tg:
        axes, _, nk, _ = _plan("ab,bc->ac")
        x = _stack(g, d, tg, axes, nk)
    for m in range(1, order + 1):
        block = v[:, size(d, m - 1):size(d, m)]
        if tg:
            table = _padded_table(d, m, 1, min(tg, m), m - 1)
            S = _pair_matmul(x, v, table, np.empty(block.shape))
            S -= block
        else:
            S = -block
        block[...] = -np.matmul(H0[:, None], S)
    return np.ascontiguousarray(v[:, :-1].transpose(0, 2, 3, 1)
                                ).reshape((n,) + lead + (size(d, order),))


def cinv(g: np.ndarray, d: int, order: int, inv0=None) -> np.ndarray:
    """Coefficients through ``order`` of the matrix inverse of a batched
    matrix-valued coefficient array g, shape (N, n, n, M): :func:`csolve`
    with the identity on the right."""
    eye = np.eye(g.shape[1])[None, :, :, None]
    return csolve(g, [eye.repeat(len(g), axis=0)], d, order, inv0)


def _libm(fn, v: np.ndarray) -> np.ndarray:
    """Apply a math-module function to each point's value.

    numpy's vectorized log may differ from the C library in the last ulp;
    going through ``math`` keeps jet values independent of the batch layout
    and of the CPU's SIMD support.
    """
    return np.array([fn(x) for x in v.ravel().tolist()]).reshape(v.shape)


# ---------------------------------------------------------------------------
# Scalar jets with operator overloading (for writing fields and potentials).
# ---------------------------------------------------------------------------

class Jet:
    """Scalar-valued truncated Taylor expansion over a batch of points.

    ``c`` holds the Taylor coefficients through degree ``top`` (the highest
    that can be nonzero) on its last axis, after a point axis or none; the
    order is tracked separately and :attr:`terms` pads with zeros.  A
    value-only jet built by :meth:`constant` has no point axis and
    broadcasts against any batch.
    """

    __slots__ = ("c", "top", "order", "dim")

    def __init__(self, c, top: int, order: int, dim: int):
        self.c = c
        self.top = top
        self.order = order
        self.dim = dim

    @property
    def terms(self) -> list[np.ndarray]:
        """All order+1 derivative tensors, zero past the stored degrees."""
        return expand(self.c, self.dim, self.order)

    @property
    def value(self):
        v = self.c[..., 0]
        return float(v) if v.ndim == 0 else v

    @classmethod
    def constant(cls, c: float, dim: int, order: int) -> "Jet":
        return cls(np.array([float(c)]), 0, order, dim)

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            return other
        return Jet.constant(float(other), self.dim, self.order)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        order = min(self.order, o.order)
        a, b = (self, o) if self.top >= o.top else (o, self)
        top = min(a.top, order)
        na, nb = size(self.dim, top), size(self.dim, min(b.top, top))
        shape = np.broadcast_shapes(a.c.shape[:-1], b.c.shape[:-1]) + (na,)
        c = np.array(np.broadcast_to(a.c[..., :na], shape))
        c[..., :nb] += b.c[..., :nb]
        return Jet(c, top, order, self.dim)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.c, self.top, self.order, self.dim)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(float(other) * self.c, self.top, self.order, self.dim)
        order = min(self.order, other.order)
        top = min(order, self.top + other.top)
        if self.top == 0 or other.top == 0:
            const, rest = (self, other) if self.top == 0 else (other, self)
            return Jet(const.c[..., :1] * rest.c[..., :size(self.dim, top)],
                       top, order, self.dim)
        table = _table(self.dim, 0, top, 0, min(self.top, top), min(other.top, top))
        return Jet(_product(self.c, other.c, table), top, order, self.dim)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * (1.0 / float(other))
        return self * reciprocal(other)

    def __rtruediv__(self, other):
        return reciprocal(self) * float(other)

    def __pow__(self, n: int):
        n = operator.index(n)  # integer powers only
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

    def __repr__(self):
        return f"Jet(order={self.order}, value={self.value})"


def seed_coordinates(p, order: int) -> list[Jet]:
    """Coordinate jets at points p, shape (d,) or (N, d): value p[..., i],
    unit gradient.  A single point is evaluated as a batch of one."""
    P = np.atleast_2d(np.asarray(p, dtype=float))
    n, d = P.shape
    top = min(order, 1)
    jets = []
    for i in range(d):
        c = np.zeros((n, size(d, top)))
        c[:, 0] = P[:, i]
        if top:
            c[:, 1 + i] = 1.0
        jets.append(Jet(c, top, order, d))
    return jets


def reciprocal(u: Jet) -> Jet:
    """1/u from u h = 1, degree by degree: h_m = -h_0 sum_{j>=1} u_j h_{m-j}."""
    d = u.dim
    top = u.order if u.top else 0
    h0 = 1.0 / u.c[..., :1]
    h = np.zeros(h0.shape[:-1] + (size(d, top),))
    h[..., :1] = h0
    for m in range(1, top + 1):
        s = _product(u.c, h, _table(d, m, m, 1, min(u.top, m), m - 1))
        h[..., size(d, m - 1):size(d, m)] = -h0 * s
    return Jet(h, top, u.order, d)


def log(u: Jet) -> Jet:
    """log u from the Euler identity sum_i x_i d_i: m h_m = sum_j j u_j v_{m-j},
    with v = 1/u and the degree-m parts of the Taylor series at each point."""
    v = reciprocal(u)
    d, top = u.dim, v.top
    h = np.empty(v.c.shape)
    h[..., 0] = _libm(math.log, u.c[..., 0])
    if top:
        tu = min(u.top, top)
        euler = u.c[..., :size(d, tu)] * _degrees(d, tu)
        h[..., 1:] = (_product(euler, v.c, _table(d, 1, top, 1, tu, top))
                      / _degrees(d, top)[1:])
    return Jet(h, top, u.order, d)


def eval_coeffs(fn, p, order: int) -> np.ndarray:
    """Taylor coefficients (N, M) through ``order`` of a Jet-arithmetic
    callable fn(list[Jet]) -> Jet at points p of shape (d,) or (N, d);
    degrees past the result's highest stored one are zero."""
    x = seed_coordinates(p, order)
    n, d = len(x[0].c), x[0].dim
    result = fn(x)
    if not isinstance(result, Jet):
        # Allow plain floats for constant expressions.
        result = Jet.constant(float(result), d, order)
    width, stored = size(d, order), size(d, min(result.top, order))
    if result.c.shape == (n, width):
        return result.c
    c = np.zeros((n, width))
    c[:, :stored] = result.c[..., :stored]
    return c

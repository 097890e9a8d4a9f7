"""Truncated multivariate Taylor arithmetic (forward-mode AD, orders 0..3).

A ``Jet`` stores the Taylor coefficients of a scalar, vector or matrix
quantity with respect to ``nvars`` chart variables, truncated at total
degree ``order``, as one numpy array of layout ``(ncoeff, *batch, *shape)``.
Batch axes let a whole grid of chart points flow through one arithmetic
operation; the trailing tensor axes (``shape``, empty for a scalar jet) make
a vector or matrix of jets one object.  Derivatives obtained this way are
exact up to rounding; there is no truncation error.

``+``, ``-``, ``*`` and ``/`` act entrywise and broadcast over the tensor
axes as numpy does (right-aligned); a numpy operand broadcasts against the
value array ``(*batch, *shape)``.  ``a @ b`` is the jet matrix product: it
contracts the last axis of ``a`` with the second-to-last of ``b`` (1-D
operands are promoted as in numpy) by one loop over the multiplication
table, ``out[k] += a[i] @ b[j]``, each entry one batched contraction over
the whole grid; a sum over a tensor axis is a product with ``np.ones``.
``values`` gives the grid values with the tensor axes first,
``(*shape, *batch)``, the layout every module boundary uses.

Every jet carries a support, a bitmask over its coefficient indices: bit k
clear means coefficient k is exactly zero at every point and in every
tensor entry.  A product runs only the table entries whose two factors are
both in support, zero-filling the coefficients none of them reaches, so
each coefficient sums the same nonzero terms in the same order as the full
table loop.  Its support is then the coefficients that are nonzero in its
result (NaN and inf count as nonzero), found in one pass over it: a later
product skips the entries that multiply an all-zero slice as it skips the
structural zeros that the other operations derive from their operands'
supports (a sum takes the union).  A jet and its views (indexing,
``transpose``) share one support, so writing into one widens it for all.
A jet built from raw coefficients has full support; ``pruned`` narrows a
support to the slices that are nonzero.  The table a pair of supports runs
and the output shape and dtype of a product's operand layouts are kept in
bounded caches.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .errors import DomainError

__all__ = ["JetContext", "Jet", "context", "variables", "constant", "stack",
           "values"]

LIVE_TABLES = 256     # live product tables each context keeps
LAYOUTS = 256         # product output layouts kept


def _monomials(nvars, order):
    """All exponent tuples with total degree <= order, graded-lex order."""
    monos = []
    for deg in range(order + 1):
        batch = []
        for combo in combinations_with_replacement(range(nvars), deg):
            alpha = [0] * nvars
            for i in combo:
                alpha[i] += 1
            batch.append(tuple(alpha))
        batch.sort(reverse=True)
        monos.extend(batch)
    return monos


class JetContext:
    """Monomial tables for a fixed (nvars, order) pair."""

    def __init__(self, nvars: int, order: int):
        self.nvars = nvars
        self.order = order
        self.monomials = _monomials(nvars, order)
        self.ncoeff = len(self.monomials)
        self.index = {m: k for k, m in enumerate(self.monomials)}
        self.full = (1 << self.ncoeff) - 1      # the support of every index
        self._mul_table = None
        self._deriv_tables = None
        # bounded: data supports make the support pairs depend on the input
        self.live_table = lru_cache(maxsize=LIVE_TABLES)(self._live_table)

    @property
    def mul_table(self):
        # list of (k_out, i, j, first) with monomial_i * monomial_j =
        # monomial_k; first marks the earliest entry writing to k
        if self._mul_table is None:
            table, seen = [], set()
            for i, a in enumerate(self.monomials):
                for j, b in enumerate(self.monomials):
                    if sum(a) + sum(b) <= self.order:
                        k = self.index[tuple(x + y for x, y in zip(a, b))]
                        table.append((k, i, j, k not in seen))
                        seen.add(k)
            self._mul_table = table
        return self._mul_table

    def _live_table(self, sa, sb):
        """The product table for factors of supports ``sa`` and ``sb``.

        Returns ``(entries, dead)``: the entries (k, i, j, first) of
        ``mul_table`` with bit i of ``sa`` and bit j of ``sb`` set, in table
        order, ``first`` marking the earliest of them writing to k; and the
        k they miss, as an index array.  Called as ``live_table``, which
        keeps the last ``LIVE_TABLES`` pairs.
        """
        entries, reached = [], 0
        for k, i, j, _ in self.mul_table:
            if sa >> i & 1 and sb >> j & 1:
                entries.append((k, i, j, not reached >> k & 1))
                reached |= 1 << k
        dead = np.array([k for k in range(self.ncoeff) if not reached >> k & 1],
                        dtype=np.intp)
        return entries, dead

    @property
    def deriv_tables(self):
        # per variable: (source index, factor), one entry per monomial of
        # the next lower order, in that order
        if self._deriv_tables is None:
            lower = context(self.nvars, self.order - 1)
            tables = []
            for v in range(self.nvars):
                tab = []
                for alpha in lower.monomials:
                    src_alpha = list(alpha)
                    src_alpha[v] += 1
                    tab.append((self.index[tuple(src_alpha)], float(src_alpha[v])))
                tables.append(tab)
            self._deriv_tables = tables
        return self._deriv_tables

    def __repr__(self):
        return f"JetContext(nvars={self.nvars}, order={self.order})"


@lru_cache(maxsize=None)
def context(nvars: int, order: int) -> JetContext:
    return JetContext(nvars, order)


def _lift(c, nt, to):
    """Coefficients with singleton tensor axes inserted up to ``to`` axes."""
    if to == nt:
        return c
    i = c.ndim - nt
    return c.reshape(c.shape[:i] + (1,) * (to - nt) + c.shape[i:])


class Jet:
    """Taylor coefficients of a scalar or tensor over a batch of base points.

    ``c`` has layout ``(ncoeff, *batch, *shape)`` and ``nt`` counts the
    trailing tensor axes.  ``support`` is the structural support (see the
    module docstring); without one the jet's support is full.
    """

    __slots__ = ("ctx", "c", "nt", "_cell")
    # numpy defers to the reflected operators, so ``array * jet`` is a jet
    __array_ufunc__ = None

    def __init__(self, ctx: JetContext, coeffs: np.ndarray, nt: int = 0,
                 support: int | None = None):
        self.ctx = ctx
        self.c = coeffs
        self.nt = nt
        # one cell shared with every view, so a write through any widens all
        self._cell = [ctx.full if support is None else support]

    def _view(self, c, nt):
        view = Jet.__new__(Jet)
        view.ctx, view.c, view.nt, view._cell = self.ctx, c, nt, self._cell
        return view

    @property
    def support(self) -> int:
        """Bitmask over coefficient indices; bit k clear: coefficient k is 0."""
        return self._cell[0]

    def pruned(self) -> "Jet":
        """This jet with the coefficient slices that are zero everywhere
        dropped from its support (NaN and inf count as nonzero).

        One pass over the coefficients.  The result shares them with
        ``self`` but not the support, so neither may be written afterwards.
        """
        return Jet(self.ctx, self.c, self.nt, self.support & _nonzero(self.c))

    def nilpotent_part(self) -> "Jet":
        """This jet less its value: a copy with coefficient 0 zeroed and
        dropped from the support."""
        c = self.c.copy()
        c[0] = 0
        return Jet(self.ctx, c, self.nt, self.support & ~1)

    # -- basic views ---------------------------------------------------

    @property
    def value(self):
        """Values at the base points, layout ``(*batch, *shape)`` (a view)."""
        return self.c[0]

    @property
    def shape(self):
        return self.c.shape[self.c.ndim - self.nt:]

    @property
    def batch_shape(self):
        return self.c.shape[1:self.c.ndim - self.nt]

    def gradient(self):
        """First-derivative coefficients, shape (nvars, *batch, *shape), a view."""
        if self.ctx.order == 0:
            raise ValueError("an order-0 jet has no gradient")
        # the degree-one monomials follow the constant, in variable order
        return self.c[1:1 + self.ctx.nvars]

    def deriv(self, v: int) -> "Jet":
        """Partial derivative as a jet of one order lower."""
        return self._partials([v], ())

    def jacobian(self) -> "Jet":
        """All first partials as one jet of one order lower, shape (*shape, nvars)."""
        return self._partials(range(self.ctx.nvars), (self.ctx.nvars,))

    def _partials(self, variables, axis):
        if self.ctx.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        lower = context(self.ctx.nvars, self.ctx.order - 1)
        out = np.empty((lower.ncoeff,) + self.c.shape[1:] + axis, dtype=self.c.dtype)
        sup, support = self.support, 0
        for v in variables:
            dst = out[..., v] if axis else out
            for k, (src, fac) in enumerate(self.ctx.deriv_tables[v]):
                if sup >> src & 1:
                    np.multiply(self.c[src, ...], fac, out=dst[k, ...])
                    support |= 1 << k
                else:
                    dst[k, ...] = 0
        return Jet(lower, out, self.nt + len(axis), support)

    def truncated(self, order: int) -> "Jet":
        if order == self.ctx.order:
            return self
        if order > self.ctx.order:
            raise ValueError("cannot raise jet order by truncation")
        lower = context(self.ctx.nvars, order)
        return Jet(lower, self.c[: lower.ncoeff].copy(), self.nt,
                   self.support & lower.full)

    def conj(self):
        return Jet(self.ctx, np.conj(self.c), self.nt, self.support)

    @property
    def real(self):
        return Jet(self.ctx, np.ascontiguousarray(self.c.real), self.nt, self.support)

    @property
    def imag(self):
        return Jet(self.ctx, np.ascontiguousarray(self.c.imag), self.nt, self.support)

    # -- tensor axes ----------------------------------------------------

    def _key(self, key):
        return (slice(None),) * (self.c.ndim - self.nt) + (
            key if isinstance(key, tuple) else (key,))

    def __getitem__(self, key):
        c = self.c[self._key(key)]
        return self._view(c, c.ndim - (self.c.ndim - self.nt))

    def __setitem__(self, key, jet):
        view = self.c[self._key(key)]
        view[...] = _lift(jet.c, jet.nt, view.ndim - (self.c.ndim - self.nt))
        self._cell[0] |= jet.support

    def __len__(self):
        if not self.nt:
            raise TypeError("len() of a scalar jet")
        return self.c.shape[-self.nt]

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def transpose(self, *axes):
        """Permute the tensor axes (reversed when no axes are given)."""
        nb = self.c.ndim - self.nt
        axes = axes or tuple(reversed(range(self.nt)))
        return self._view(self.c.transpose(tuple(range(nb))
                                           + tuple(nb + a for a in axes)), self.nt)

    @property
    def T(self):
        return self.transpose()

    # -- arithmetic ----------------------------------------------------

    def _aligned(self, other):
        if other.ctx is not self.ctx:
            raise ValueError("jet context mismatch")
        nt = max(self.nt, other.nt)
        return _lift(self.c, self.nt, nt), _lift(other.c, other.nt, nt), nt

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b, nt = self._aligned(other)
            return Jet(self.ctx, a + b, nt, self.support | other.support)
        arr = np.asarray(other)
        shape = np.broadcast_shapes(self.c.shape[1:], arr.shape)
        out = np.empty((self.ctx.ncoeff,) + shape,
                       dtype=np.result_type(self.c.dtype, arr.dtype))
        out[...] = self.c
        out[0] += arr
        return Jet(self.ctx, out, self.nt, self.support | 1)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.ctx, -self.c, self.nt, self.support)

    def __sub__(self, other):
        if isinstance(other, Jet):
            a, b, nt = self._aligned(other)
            return Jet(self.ctx, a - b, nt, self.support | other.support)
        return self + (-np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.ctx, self.c * other, self.nt, self.support)
        a, b, nt = self._aligned(other)
        shape, dtype, op = _layout(a.shape, a.dtype, b.shape, b.dtype, False)
        out = np.empty(shape, dtype)
        support = _table_product(self.ctx, op, a, self.support, b, other.support, out)
        return Jet(self.ctx, out, nt, support)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return _matmul(self, other)

    def __rmatmul__(self, other):
        return _matmul(other, self)

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.ctx, self.c / other, self.nt, self.support)
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, k):
        if not isinstance(k, (int, np.integer)):
            raise TypeError("jet powers must be integers")
        if k < 0:
            return self.reciprocal() ** (-k)
        result = constant(self.ctx, 1.0, self.batch_shape)
        base = self
        k = int(k)
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- analytic functions --------------------------------------------

    def _compose(self, dvals):
        """Evaluate sum_k dvals[k]/k! * (self - value)^k; dvals[k] = f^(k)(value)."""
        c0 = np.asarray(dvals[0])
        out = np.zeros(self.c.shape, dtype=np.result_type(c0.dtype, self.c.dtype))
        out[0] = c0
        out = Jet(self.ctx, out, self.nt, 1)
        if self.ctx.order == 0:
            return out
        x = term = self.nilpotent_part()
        fact = 1.0
        for k in range(1, self.ctx.order + 1):
            fact *= k
            out = out + term * (np.asarray(dvals[k]) / fact)
            if k < self.ctx.order:
                term = term * x
        return out

    def reciprocal(self):
        c = self.value
        bad = np.abs(c) < 1e-300
        if np.any(bad):
            raise DomainError.where("division by zero in jet arithmetic", bad)
        derivs = [1.0 / c]
        for k in range(1, self.ctx.order + 1):
            derivs.append(derivs[-1] * (-k) / c)
        return self._compose(derivs)

    def sqrt(self):
        c = self.value
        if np.iscomplexobj(c) or np.any(c <= 0):
            raise DomainError.where("sqrt of non-positive value in jet arithmetic",
                                    np.real(c) <= 0)
        r = np.sqrt(c)
        derivs = [r, 0.5 / r, -0.25 / (r * c), 0.375 / (r * c * c)]
        return self._compose(derivs[: self.ctx.order + 1])

    def exp(self):
        e = np.exp(self.value)
        return self._compose([e] * (self.ctx.order + 1))

    def log(self):
        c = self.value
        if np.iscomplexobj(c) or np.any(c <= 0):
            raise DomainError.where("ln of non-positive value in jet arithmetic",
                                    np.real(c) <= 0)
        derivs = [np.log(c), 1.0 / c, -1.0 / c ** 2, 2.0 / c ** 3]
        return self._compose(derivs[: self.ctx.order + 1])

    def sin(self):
        s, co = np.sin(self.value), np.cos(self.value)
        return self._compose([s, co, -s, -co][: self.ctx.order + 1])

    def cos(self):
        s, co = np.sin(self.value), np.cos(self.value)
        return self._compose([co, -s, -co, s][: self.ctx.order + 1])

    def __repr__(self):
        return f"Jet(order={self.ctx.order}, shape={self.shape}, value={self.value!r})"


def _table_product(ctx, op, a, sa, b, sb, out):
    """out[k] = sum of op(a[i], b[j]) over the table entries (k, i, j).

    Only the entries with i in the support ``sa`` of ``a`` and j in the
    support ``sb`` of ``b`` run; the coefficients none reaches are zeroed.
    Returns the data support of ``out`` (``_nonzero``).
    """
    entries, dead = ctx.live_table(sa, sb)
    # [k, ...] keeps a view where a scalar jet without batch would give a number
    tmp = np.empty_like(out[0, ...])
    for k, i, j, first in entries:
        dst = out[k, ...]
        if first:
            op(a[i, ...], b[j, ...], out=dst)
        else:
            op(a[i, ...], b[j, ...], out=tmp)
            dst += tmp      # ``out[k, ...] += tmp`` would copy the sum back too
    if dead.size:
        out[dead] = 0
    return _nonzero(out)


def _nonzero(c):
    """The mask of the coefficient slices of ``c`` that are nonzero somewhere.

    NaN and inf count as nonzero.  Exact for any number of coefficients (d = 7
    at order 3 has 120, more than an int64 holds).
    """
    live = (c.reshape(len(c), c[0].size) != 0).any(axis=1)
    return int.from_bytes(np.packbits(live, bitorder="little").tobytes(), "little")


@lru_cache(maxsize=LAYOUTS)
def _layout(ashape, adtype, bshape, bdtype, matmul):
    """Shape, dtype and per-entry op of the product of two coefficient arrays.

    ``*`` broadcasts the whole layouts (the ncoeff axes agree); ``@`` (with
    ``matmul``) broadcasts the stacks and contracts the last two axes.  A
    row or column result (dot products, matrix times vector) goes through
    one einsum over the whole batch: with ``np.matmul`` alone the 17^3 and
    5^3 benchmark workloads (desk17, motions) run 3-5% slower.
    """
    dtype = np.result_type(adtype, bdtype)
    if not matmul:
        return np.broadcast_shapes(ashape, bshape), dtype, np.multiply
    stack = np.broadcast_shapes(ashape[:-2], bshape[:-2])
    op = _einsum if 1 in (ashape[-2], bshape[-1]) else np.matmul
    return stack + (ashape[-2], bshape[-1]), dtype, op


def _matmul(a, b):
    """a @ b for two jets, or for a jet and a numpy matrix (one ``@`` in all)."""
    jet = a if isinstance(a, Jet) else b
    ctx = jet.ctx
    A, na = (a.c, a.nt) if isinstance(a, Jet) else (np.asarray(a), None)
    B, nb = (b.c, b.nt) if isinstance(b, Jet) else (np.asarray(b), None)
    if na == 1 and nb is None and B.ndim == 2:
        # a vector jet times a constant matrix: the coefficient rows over
        # the batch form one stack of row vectors, so no promotion is needed
        return Jet(ctx, A @ B, 1, jet.support)
    # promote 1-D operands to a row (left) or a column (right), as numpy does
    avec = (na if na is not None else A.ndim) == 1
    bvec = (nb if nb is not None else B.ndim) == 1
    if avec:
        A = A[..., None, :]
        na = None if na is None else 2
    if bvec:
        B = B[..., None]
        nb = None if nb is None else 2
    if na is not None and nb is not None:
        if a.ctx is not b.ctx:
            raise ValueError("jet context mismatch")
        nt = max(na, nb)
        A, B = _lift(A, na, nt), _lift(B, nb, nt)
        shape, dtype, op = _layout(A.shape, A.dtype, B.shape, B.dtype, True)
        out = np.empty(shape, dtype)
        support = _table_product(ctx, op, A, a.support, B, b.support, out)
    else:
        nt = na if na is not None else nb
        out = A @ B
        support = jet.support
    if avec:
        out = out[..., 0, :]
    if bvec:
        out = out[..., 0]
    return Jet(ctx, out, nt - avec - bvec, support)


def _einsum(a, b, out):
    np.einsum("...ps,...sr->...pr", a, b, out=out)


def variables(ctx: JetContext, values) -> list[Jet]:
    """Seed jets for the chart variables; values is a sequence of arrays."""
    if len(values) != ctx.nvars:
        raise ValueError("one seed value per chart variable required")
    out = []
    for v, val in enumerate(values):
        val = np.asarray(val, dtype=float)
        c = np.zeros((ctx.ncoeff,) + val.shape)
        c[0] = val
        if ctx.order >= 1:
            c[1 + v] = 1.0
        out.append(Jet(ctx, c, 0, (1 | 1 << (1 + v)) & ctx.full))
    return out


def constant(ctx: JetContext, value, batch_shape=()) -> Jet:
    """Constant jet over ``batch_shape``; the axes of ``value`` are tensor axes."""
    value = np.asarray(value)
    c = np.zeros((ctx.ncoeff,) + tuple(batch_shape) + value.shape,
                 dtype=value.dtype if value.dtype.kind == "c" else float)
    c[0] = value
    return Jet(ctx, c, value.ndim, 1)


def stack(items) -> Jet:
    """Stack jets of one tensor shape along a new leading tensor axis.

    Nested lists (or object arrays) of jets stack along leading axes, so
    ``stack(rows)[r, c]`` is ``rows[r][c]``.
    """
    items = [t if isinstance(t, Jet) else stack(t) for t in items]
    nt = max(t.nt for t in items) + 1
    cs = [_lift(t.c, t.nt, nt - 1) for t in items]
    support = 0
    for t in items:
        support |= t.support
    return Jet(items[0].ctx, np.stack(cs, axis=cs[0].ndim - nt + 1), nt, support)


def values(jet: Jet) -> np.ndarray:
    """Grid values of a jet field with the tensor axes first: ``(*shape, *batch)``.

    A view for a scalar jet, a contiguous copy otherwise: ``values(J)[r, c]``
    is ``J[r, c].value``.  Every jet the pipeline builds over a grid carries
    the full batch shape, so no broadcast is needed.
    """
    v = jet.c[0]
    if not jet.nt:
        return v
    nb = v.ndim - jet.nt
    return np.ascontiguousarray(np.moveaxis(v, range(nb, v.ndim), range(jet.nt)))

"""Truncated multivariate Taylor arithmetic (forward-mode AD, orders 0..3).

A ``Jet`` stores the Taylor coefficients of a scalar quantity with respect
to ``nvars`` chart variables, truncated at total degree ``order``, as a
numpy array of shape ``(ncoeff, *batch)``.  Batch axes let a whole grid of
chart points flow through one arithmetic operation.  Derivatives obtained
this way are exact up to rounding; there is no truncation error.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .errors import DomainError

__all__ = ["JetContext", "Jet", "context", "variables", "constant", "values"]


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
        self._mul_table = None
        self._deriv_tables = None

    @property
    def mul_table(self):
        # list of (k_out, i, j) with monomial_i * monomial_j = monomial_k
        if self._mul_table is None:
            table = []
            for i, a in enumerate(self.monomials):
                for j, b in enumerate(self.monomials):
                    if sum(a) + sum(b) <= self.order:
                        c = tuple(x + y for x, y in zip(a, b))
                        table.append((self.index[c], i, j))
            self._mul_table = table
        return self._mul_table

    @property
    def deriv_tables(self):
        # per variable: list of (dst_index_in_lower_ctx, src_index, factor)
        if self._deriv_tables is None:
            lower = context(self.nvars, self.order - 1) if self.order > 0 else None
            tables = []
            for v in range(self.nvars):
                tab = []
                if lower is not None:
                    for dst, alpha in enumerate(lower.monomials):
                        src_alpha = list(alpha)
                        src_alpha[v] += 1
                        src = self.index[tuple(src_alpha)]
                        tab.append((dst, src, float(src_alpha[v])))
                tables.append(tab)
            self._deriv_tables = tables
        return self._deriv_tables

    def __repr__(self):
        return f"JetContext(nvars={self.nvars}, order={self.order})"


@lru_cache(maxsize=None)
def context(nvars: int, order: int) -> JetContext:
    return JetContext(nvars, order)


class Jet:
    """Taylor coefficients of one scalar over a batch of base points."""

    __slots__ = ("ctx", "c")

    def __init__(self, ctx: JetContext, coeffs: np.ndarray):
        self.ctx = ctx
        self.c = coeffs

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(ctx, value, batch_shape=()):
        value = np.asarray(value)
        c = np.zeros((ctx.ncoeff,) + np.broadcast_shapes(value.shape, batch_shape),
                     dtype=value.dtype if value.dtype.kind == "c" else float)
        c[0] = value
        return Jet(ctx, c)

    # -- basic views ---------------------------------------------------

    @property
    def value(self):
        return self.c[0]

    @property
    def batch_shape(self):
        return self.c.shape[1:]

    def gradient(self):
        """First-derivative coefficients, shape (nvars, *batch)."""
        ctx = self.ctx
        rows = []
        for v in range(ctx.nvars):
            e = [0] * ctx.nvars
            e[v] = 1
            rows.append(self.c[ctx.index[tuple(e)]])
        return np.stack(rows)

    def second(self, i, j):
        """Second partial derivative d2/du_i du_j (not the Taylor coefficient)."""
        alpha = [0] * self.ctx.nvars
        alpha[i] += 1
        alpha[j] += 1
        mult = 2.0 if i == j else 1.0
        return mult * self.c[self.ctx.index[tuple(alpha)]]

    def deriv(self, v: int) -> "Jet":
        """Partial derivative as a jet of one order lower."""
        if self.ctx.order == 0:
            raise ValueError("cannot differentiate an order-0 jet")
        lower = context(self.ctx.nvars, self.ctx.order - 1)
        out = np.zeros((lower.ncoeff,) + self.c.shape[1:], dtype=self.c.dtype)
        for dst, src, fac in self.ctx.deriv_tables[v]:
            out[dst] = fac * self.c[src]
        return Jet(lower, out)

    def truncated(self, order: int) -> "Jet":
        if order == self.ctx.order:
            return self
        if order > self.ctx.order:
            raise ValueError("cannot raise jet order by truncation")
        lower = context(self.ctx.nvars, order)
        return Jet(lower, self.c[: lower.ncoeff].copy())

    def conj(self):
        return Jet(self.ctx, np.conj(self.c))

    @property
    def real(self):
        return Jet(self.ctx, np.ascontiguousarray(self.c.real))

    @property
    def imag(self):
        return Jet(self.ctx, np.ascontiguousarray(self.c.imag))

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet):
            if other.ctx is not self.ctx:
                raise ValueError("jet context mismatch")
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is not None:
            return Jet(self.ctx, self.c + o.c)
        arr = np.asarray(other)
        shape = np.broadcast_shapes(self.c.shape[1:], arr.shape)
        out = np.zeros((self.ctx.ncoeff,) + shape,
                       dtype=np.result_type(self.c.dtype, arr.dtype))
        out += self.c
        out[0] += arr
        return Jet(self.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.ctx, -self.c)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return Jet(self.ctx, self.c * other)
        a, b = self.c, o.c
        shape = np.broadcast_shapes(a.shape[1:], b.shape[1:])
        out = np.zeros((self.ctx.ncoeff,) + shape, dtype=np.result_type(a.dtype, b.dtype))
        for k, i, j in self.ctx.mul_table:
            out[k] += a[i] * b[j]
        return Jet(self.ctx, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return Jet(self.ctx, self.c / other)
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, k):
        if not isinstance(k, (int, np.integer)):
            raise TypeError("jet powers must be integers")
        if k < 0:
            return self.reciprocal() ** (-k)
        result = Jet.const(self.ctx, 1.0, self.batch_shape)
        base = self
        k = int(k)
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- analytic functions --------------------------------------------

    def _nilpotent(self):
        x = self.c.copy()
        x[0] = 0
        return Jet(self.ctx, x)

    def _compose(self, dvals):
        """Evaluate sum_k dvals[k]/k! * (self - value)^k; dvals[k] = f^(k)(value)."""
        out = Jet.const(self.ctx, np.asarray(dvals[0]), self.batch_shape)
        out = Jet(out.ctx, out.c.astype(np.result_type(out.c.dtype, self.c.dtype), copy=False))
        if self.ctx.order == 0:
            return out
        x = self._nilpotent()
        term = x
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
        return f"Jet(order={self.ctx.order}, value={self.value!r})"


def variables(ctx: JetContext, values) -> list[Jet]:
    """Seed jets for the chart variables; values is a sequence of arrays."""
    if len(values) != ctx.nvars:
        raise ValueError("one seed value per chart variable required")
    out = []
    for v, val in enumerate(values):
        j = Jet.const(ctx, np.asarray(val, dtype=float))
        if ctx.order >= 1:
            e = [0] * ctx.nvars
            e[v] = 1
            j.c[ctx.index[tuple(e)]] = 1.0
        out.append(j)
    return out


def constant(ctx: JetContext, value, batch_shape=()) -> Jet:
    return Jet.const(ctx, value, batch_shape)


def values(tree) -> np.ndarray:
    """Grid values of a jet field.

    A single jet gives its value array (a view of its coefficients); a list
    or object array of jets, nested to any depth, gives the values stacked
    along leading axes, so ``values(rows)[r, c]`` is ``rows[r][c].value``.
    Every jet the pipeline builds over a grid carries the full batch shape,
    so no broadcast is needed.
    """
    if isinstance(tree, Jet):
        return tree.c[0]
    return np.stack([values(t) for t in tree])

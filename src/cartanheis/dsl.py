"""Surface definition language: parser, expression AD, builtin immersions.

A surface file has the form::

    surface NAME {
      n = 2; m = 1;
      params = [u1, u2, u3];
      chart = [[-0.4, 0.5], [-0.4, 0.5], [-0.3, 0.6]];
    }
    x[1] = u1;          # one assignment per ambient coordinate
    y[1] = u2;
    t = u3;

Whitespace-insensitive, ``#`` comments.  Expressions support + - * / ^
(integer powers), unary minus, sin, cos, exp, ln, sqrt and the constant pi.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import certify, jets
from .errors import (DomainError, DslDimensionMismatch, DslSyntaxError, NotImmersed,
                     UndeclaredParameter, UnknownBuiltin)
from .jets import Jet

__all__ = ["Expr", "Immersion", "parse", "pretty_print", "builtin",
           "parse_surface_spec"]


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

class Expr:
    """An expression node; ``apply`` computes its value from its children's."""

    __slots__ = ()

    @property
    def kids(self):
        """The child nodes, in evaluation order."""
        return tuple(v for v in (getattr(self, f) for f in self.__slots__)
                     if isinstance(v, Expr))

    def __reduce__(self):
        # a frozen dataclass with slots has no state that pickle can set
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __add__(self, other):
        return _fold_add(self, _as_expr(other))

    def __sub__(self, other):
        return _fold_sub(self, _as_expr(other))

    def __mul__(self, other):
        return _fold_mul(self, _as_expr(other))

    def __neg__(self):
        return _fold_neg(self)

    def __pow__(self, k):
        return powi(self, k)

    def __truediv__(self, other):
        return Bin("/", self, _as_expr(other))


@dataclass(frozen=True)
class Num(Expr):
    __slots__ = ("v",)
    v: float

    def apply(self, env):
        return self.v


@dataclass(frozen=True)
class Pi(Expr):
    __slots__ = ()

    def apply(self, env):
        return math.pi


@dataclass(frozen=True)
class Param(Expr):
    __slots__ = ("name",)
    name: str

    def apply(self, env):
        return env[self.name]


@dataclass(frozen=True)
class Bin(Expr):
    __slots__ = ("op", "a", "b")
    op: str
    a: Expr
    b: Expr

    def apply(self, env, a, b):
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        return _div(a, b)


@dataclass(frozen=True)
class Pow(Expr):
    __slots__ = ("base", "k")
    base: Expr
    k: int

    def apply(self, env, base):
        return base ** self.k


@dataclass(frozen=True)
class Neg(Expr):
    __slots__ = ("a",)
    a: Expr

    def apply(self, env, a):
        return -a


@dataclass(frozen=True)
class Fun(Expr):
    __slots__ = ("name", "arg")
    name: str
    arg: Expr

    def apply(self, env, x):
        return _FUNCS[self.name](x)


def evaluate(exprs, env):
    """Values of expressions over one environment, each node computed once.

    Generated formulas share subexpressions (a complex power reuses its
    lower powers in both parts), which a tree walk would repeat exponentially
    often.  Nodes are keyed by identity and run children first, left to
    right, without recursion; a value is dropped once its last parent used it.
    Overflow and invalid operations give inf and NaN without a warning; the
    frame builder rejects non-finite immersion jets with their location.
    """
    # kids is a computed property, so each node's is read once, here
    order, kids, uses = [], {}, Counter(id(e) for e in exprs)
    stack = [(e, False) for e in reversed(exprs)]
    while stack:
        e, ready = stack.pop()
        if ready:
            order.append((e, kids[id(e)]))
        elif id(e) not in kids:
            ks = kids[id(e)] = e.kids
            uses.update(id(k) for k in ks)
            stack.append((e, True))
            stack.extend((k, False) for k in reversed(ks))
    memo = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for e, ks in order:
            memo[id(e)] = e.apply(env, *[memo[id(k)] for k in ks])
            for k in ks:
                uses[id(k)] -= 1
                if not uses[id(k)]:
                    del memo[id(k)]
    return [memo[id(e)] for e in exprs]


def _div(a, b):
    if isinstance(b, Jet):
        return a / b
    b = np.asarray(b)
    bad = np.abs(b) < 1e-300
    if np.any(bad):
        raise DomainError.where("division by zero", bad)
    return a / b


def _guard_pos(x, what):
    v = x.value if isinstance(x, Jet) else np.asarray(x)
    bad = np.real(v) <= 0
    if np.any(bad):
        raise DomainError.where(f"{what} of non-positive argument", bad)


def _sin(x):
    return x.sin() if isinstance(x, Jet) else np.sin(x)


def _cos(x):
    return x.cos() if isinstance(x, Jet) else np.cos(x)


def _exp(x):
    return x.exp() if isinstance(x, Jet) else np.exp(x)


def _ln(x):
    _guard_pos(x, "ln")
    return x.log() if isinstance(x, Jet) else np.log(x)


def _sqrt(x):
    _guard_pos(x, "sqrt")
    return x.sqrt() if isinstance(x, Jet) else np.sqrt(x)


_FUNCS = {"sin": _sin, "cos": _cos, "exp": _exp, "ln": _ln, "sqrt": _sqrt}


# light constant folding keeps generated builtin sources readable
def _as_expr(x):
    if isinstance(x, Expr):
        return x
    return Num(float(x))


def _is_zero(e):
    return isinstance(e, Num) and e.v == 0.0


def _is_one(e):
    return isinstance(e, Num) and e.v == 1.0


def _fold_add(a, b):
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.v + b.v)
    return Bin("+", a, b)


def _fold_sub(a, b):
    if _is_zero(b):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.v - b.v)
    if _is_zero(a):
        return _fold_neg(b)
    return Bin("-", a, b)


def _fold_mul(a, b):
    if _is_zero(a) or _is_zero(b):
        return Num(0.0)
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    if isinstance(a, Num) and isinstance(b, Num):
        return Num(a.v * b.v)
    return Bin("*", a, b)


def _fold_neg(a):
    if isinstance(a, Num):
        return Num(-a.v)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


def num(v) -> Expr:
    return Num(float(v))


def param(name) -> Expr:
    return Param(name)


def fun(name, arg) -> Expr:
    return Fun(name, arg)


def powi(base, k) -> Expr:
    if k == 0:
        return Num(1.0)
    if k == 1:
        return base
    return Pow(base, int(k))


class CExpr:
    """Complex-valued expression pair, for building holomorphic formulas."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=None):
        self.re = _as_expr(re)
        self.im = _as_expr(im if im is not None else 0.0)

    def __add__(self, o):
        o = _as_cexpr(o)
        return CExpr(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        o = _as_cexpr(o)
        return CExpr(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        o = _as_cexpr(o)
        return CExpr(self.re * o.re - self.im * o.im,
                     self.re * o.im + self.im * o.re)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, k):
        # repeated squaring: O(log k) nodes, each shared by later products
        out, base, k = CExpr(1.0), self, int(k)
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def conj(self):
        return CExpr(self.re, -self.im)

    def abs2(self) -> Expr:
        return self.re * self.re + self.im * self.im


def _as_cexpr(x):
    if isinstance(x, CExpr):
        return x
    if isinstance(x, complex):
        return CExpr(x.real, x.imag)
    return CExpr(x)


# ---------------------------------------------------------------------------
# pretty printing
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 10, 20, 15, 30, 40


def _prec(e) -> int:
    if isinstance(e, Bin):
        return _PREC_ADD if e.op in "+-" else _PREC_MUL
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Pow):
        return _PREC_POW
    if isinstance(e, Num) and e.v < 0:
        return _PREC_NEG
    return _PREC_ATOM


def _wrap(e, paren):
    return ["(", e, ")"] if paren else [e]


def _text_parts(e):
    """The text of one node as literal strings around its child nodes."""
    if isinstance(e, Num):
        return [repr(e.v)]
    if isinstance(e, Pi):
        return ["pi"]
    if isinstance(e, Param):
        return [e.name]
    if isinstance(e, Fun):
        return [f"{e.name}(", e.arg, ")"]
    if isinstance(e, Neg):
        # parenthesise anything below power precedence so that "-" never
        # rebinds to a subfactor on reparse
        return ["-"] + _wrap(e.a, _prec(e.a) < _PREC_POW)
    if isinstance(e, Pow):
        return _wrap(e.base, _prec(e.base) < _PREC_ATOM) + [f"^{e.k}"]
    if isinstance(e, Bin):
        mine = _prec(e)
        right_needs = _prec(e.b) < mine or (e.op in "-/" and _prec(e.b) == mine)
        return (_wrap(e.a, _prec(e.a) < mine) + [f" {e.op} "]
                + _wrap(e.b, right_needs))
    raise TypeError(f"unknown expression node {e!r}")


def expr_to_text(e) -> str:
    """Source text of an expression; iterative, so chain length is unbounded."""
    out, todo = [], [e]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            todo.extend(reversed(_text_parts(item)))
    return "".join(out)


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Tok:
    kind: str   # NUMBER | IDENT | SYM | EOF
    text: str
    line: int
    col: int


_NUMBER_RE = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_SYMBOLS = set("{}[]()=,;+-*/^")


def _tokenize(text: str):
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        m = _NUMBER_RE.match(text, i)
        if m:
            toks.append(_Tok("NUMBER", m.group(0), line, col))
            col += m.end() - i
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            toks.append(_Tok("IDENT", m.group(0), line, col))
            col += m.end() - i
            i = m.end()
            continue
        if ch in _SYMBOLS:
            toks.append(_Tok("SYM", ch, line, col))
            i += 1
            col += 1
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", line, col)
    toks.append(_Tok("EOF", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

MAX_NESTING = 100   # parentheses, calls and unary minus; the parser recurses


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_sym(self, s) -> _Tok:
        t = self.next()
        if t.kind != "SYM" or t.text != s:
            raise DslSyntaxError(f"expected '{s}', found {t.text!r}", t.line, t.col)
        return t

    def expect_ident(self, name=None) -> _Tok:
        t = self.next()
        if t.kind != "IDENT" or (name is not None and t.text != name):
            want = f"'{name}'" if name else "an identifier"
            raise DslSyntaxError(f"expected {want}, found {t.text!r}", t.line, t.col)
        return t

    def expect_number(self) -> tuple[float, _Tok]:
        neg = False
        t = self.peek()
        if t.kind == "SYM" and t.text == "-":
            self.next()
            neg = True
        t = self.next()
        if t.kind != "NUMBER":
            raise DslSyntaxError(f"expected a number, found {t.text!r}", t.line, t.col)
        v = float(t.text)
        if not math.isfinite(v):
            raise DslSyntaxError(f"expected a finite number, found {t.text!r}",
                                 t.line, t.col)
        return (-v if neg else v), t

    def expect_int(self) -> tuple[int, _Tok]:
        v, t = self.expect_number()
        if v != int(v):
            raise DslSyntaxError(f"expected an integer, found {t.text!r}", t.line, t.col)
        return int(v), t

    # expression grammar ------------------------------------------------

    def parse_expr(self, params) -> Expr:
        e = self.parse_term(params)
        while self.peek().kind == "SYM" and self.peek().text in "+-":
            op = self.next().text
            e = Bin(op, e, self.parse_term(params))
        return e

    def parse_term(self, params) -> Expr:
        e = self.parse_unary(params)
        while self.peek().kind == "SYM" and self.peek().text in "*/":
            op = self.next().text
            e = Bin(op, e, self.parse_unary(params))
        return e

    def parse_unary(self, params) -> Expr:
        t = self.peek()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise DslSyntaxError(f"expression nested deeper than {MAX_NESTING} levels",
                                 t.line, t.col)
        if t.kind == "SYM" and t.text == "-":
            self.next()
            e = Neg(self.parse_unary(params))
        else:
            e = self.parse_power(params)
        self.depth -= 1
        return e

    def parse_power(self, params) -> Expr:
        base = self.parse_atom(params)
        if self.peek().kind == "SYM" and self.peek().text == "^":
            self.next()
            k, t = self.expect_int()
            if k < 0:
                raise DslSyntaxError("negative powers are not allowed; use division",
                                     t.line, t.col)
            return Pow(base, k)
        return base

    def parse_atom(self, params) -> Expr:
        t = self.next()
        if t.kind == "NUMBER":
            return Num(float(t.text))
        if t.kind == "SYM" and t.text == "(":
            e = self.parse_expr(params)
            self.expect_sym(")")
            return e
        if t.kind == "IDENT":
            if self.peek().kind == "SYM" and self.peek().text == "(":
                if t.text not in _FUNCS:
                    raise DslSyntaxError(f"unknown function {t.text!r}", t.line, t.col)
                self.next()
                arg = self.parse_expr(params)
                self.expect_sym(")")
                return Fun(t.text, arg)
            if t.text == "pi":
                return Pi()
            if t.text not in params:
                raise UndeclaredParameter(f"undeclared parameter {t.text!r}",
                                          t.line, t.col)
            return Param(t.text)
        raise DslSyntaxError(f"expected an expression, found {t.text!r}", t.line, t.col)


def parse(text: str) -> "Immersion":
    """Parse a surface file into an Immersion."""
    p = _Parser(text)
    p.expect_ident("surface")
    name = p.expect_ident().text
    p.expect_sym("{")

    n = m = None
    params = None
    chart = None
    params_tok = chart_tok = None
    while not (p.peek().kind == "SYM" and p.peek().text == "}"):
        key = p.expect_ident()
        p.expect_sym("=")
        if key.text == "n":
            n, _ = p.expect_int()
        elif key.text == "m":
            m, _ = p.expect_int()
        elif key.text == "params":
            params_tok = key
            p.expect_sym("[")
            params = []
            while True:
                params.append(p.expect_ident().text)
                if p.peek().kind == "SYM" and p.peek().text == ",":
                    p.next()
                    continue
                break
            p.expect_sym("]")
        elif key.text == "chart":
            chart_tok = key
            p.expect_sym("[")
            chart = []
            while True:
                p.expect_sym("[")
                lo, _ = p.expect_number()
                p.expect_sym(",")
                hi, tok = p.expect_number()
                if not lo < hi:
                    raise DslDimensionMismatch("chart interval needs lo < hi",
                                               tok.line, tok.col)
                p.expect_sym("]")
                chart.append((lo, hi))
                if p.peek().kind == "SYM" and p.peek().text == ",":
                    p.next()
                    continue
                break
            p.expect_sym("]")
        else:
            raise DslSyntaxError(f"unknown header field {key.text!r}", key.line, key.col)
        p.expect_sym(";")
    p.expect_sym("}")

    hdr = p.peek()
    if n is None or m is None or params is None or chart is None:
        raise DslSyntaxError("header must define n, m, params and chart",
                             hdr.line, hdr.col)
    if n < 1 or m < 1 or m > n:
        raise DslDimensionMismatch(f"need 1 <= m <= n, got n={n}, m={m}",
                                   hdr.line, hdr.col)
    if len(params) != 2 * m + 1:
        raise DslDimensionMismatch(
            f"expected {2 * m + 1} parameters for m={m}, got {len(params)}",
            params_tok.line, params_tok.col)
    if len(set(params)) != len(params):
        raise DslDimensionMismatch("duplicate parameter name",
                                   params_tok.line, params_tok.col)
    if len(chart) != len(params):
        raise DslDimensionMismatch(
            f"chart needs one interval per parameter ({len(params)}), got {len(chart)}",
            chart_tok.line, chart_tok.col)

    pset = set(params)
    coords: dict = {}
    while p.peek().kind != "EOF":
        head = p.expect_ident()
        if head.text in ("x", "y"):
            p.expect_sym("[")
            idx, itok = p.expect_int()
            if not 1 <= idx <= n:
                raise DslDimensionMismatch(f"index {idx} out of range 1..{n}",
                                           itok.line, itok.col)
            p.expect_sym("]")
            key = (head.text, idx)
        elif head.text == "t":
            key = ("t", 0)
        else:
            raise DslSyntaxError(f"expected a coordinate assignment, found {head.text!r}",
                                 head.line, head.col)
        if key in coords:
            raise DslSyntaxError(f"coordinate {head.text} assigned twice",
                                 head.line, head.col)
        p.expect_sym("=")
        coords[key] = p.parse_expr(pset)
        p.expect_sym(";")

    eof = p.peek()
    missing = ([("x", b) for b in range(1, n + 1) if ("x", b) not in coords]
               + [("y", b) for b in range(1, n + 1) if ("y", b) not in coords]
               + ([] if ("t", 0) in coords else [("t", 0)]))
    if missing:
        what = ", ".join(f"{k}[{b}]" if k != "t" else "t" for k, b in missing)
        raise DslDimensionMismatch(f"missing coordinate assignments: {what}",
                                   eof.line, eof.col)

    exprs = ([coords[("x", b)] for b in range(1, n + 1)]
             + [coords[("y", b)] for b in range(1, n + 1)] + [coords[("t", 0)]])
    return Immersion(name, n, m, params, chart, exprs)


def _moved_exprs(mat, exprs):
    """The expressions of the coordinates moved by the affine map ``mat``,
    (2n+2, 2n+2) on (1, x, y, t), with zero terms folded away."""
    out = []
    for row in mat[1:]:
        e = num(row[0])
        for a, x in zip(row[1:], exprs):
            if a != 0.0:
                e = e + num(a) * x
        out.append(e)
    return out


def pretty_print(imm: "Immersion") -> str:
    """Surface-file text of an immersion; a moved one prints its moved map."""
    exprs = imm.coord_exprs if imm.motion is None else _moved_exprs(imm.motion,
                                                                    imm.coord_exprs)
    lines = [f"surface {imm.label} {{",
             f"  n = {imm.n}; m = {imm.m};",
             "  params = [" + ", ".join(imm.params) + "];",
             "  chart = [" + ", ".join(f"[{repr(lo)}, {repr(hi)}]"
                                       for lo, hi in imm.chart) + "];",
             "}"]
    n = imm.n
    for b in range(1, n + 1):
        lines.append(f"x[{b}] = {expr_to_text(exprs[b - 1])};")
    for b in range(1, n + 1):
        lines.append(f"y[{b}] = {expr_to_text(exprs[n + b - 1])};")
    lines.append(f"t = {expr_to_text(exprs[2 * n])};")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# immersions
# ---------------------------------------------------------------------------

# a numpy array has at most 32 axes, and the widest jet field over a chart
# grid (the exterior derivative of the Tanaka-Webster connection slots) has
# one axis per chart axis, a coefficient axis and four tensor axes
MAX_CHART_AXES = 27


class Immersion:
    """A parametrized map from a chart box in R^{2m+1} into H_n.

    ``coord_exprs`` are the surface's own coordinate expressions.  A rigidly
    moved immersion (``transform_immersion``) keeps them and carries its
    motion as ``motion``, the (2n+2, 2n+2) matrix of the affine map on
    (1, x, y, t), which ``values`` and ``jets`` apply to their results;
    ``motion`` is None for an unmoved one.
    """

    def __init__(self, label, n, m, params, chart, coord_exprs):
        if len(coord_exprs) != 2 * n + 1:
            raise DslDimensionMismatch(f"need {2 * n + 1} coordinate expressions")
        if len(params) != 2 * m + 1 or len(chart) != 2 * m + 1:
            raise DslDimensionMismatch(f"need {2 * m + 1} parameters and intervals")
        if 2 * m + 1 > MAX_CHART_AXES:
            raise DslDimensionMismatch(f"at most {MAX_CHART_AXES} chart axes "
                                       f"(m <= {MAX_CHART_AXES // 2}), got m={m}")
        self.label = label
        self.n = n
        self.m = m
        self.params = list(params)
        self.chart = [(float(lo), float(hi)) for lo, hi in chart]
        self.coord_exprs = list(coord_exprs)
        self.motion = None

    @property
    def nparams(self) -> int:
        return 2 * self.m + 1

    def values(self, u_arrays):
        """The ambient coordinates at a batch of chart points, one array each."""
        env = dict(zip(self.params, [np.asarray(u, dtype=float) for u in u_arrays]))
        shape = np.broadcast_shapes(*[np.shape(v) for v in env.values()])
        vals = [np.broadcast_to(np.asarray(v, dtype=float), shape)
                for v in evaluate(self.coord_exprs, env)]
        if self.motion is None:
            return [v.copy() for v in vals]
        return list(np.moveaxis(self._moved(np.stack(vals, axis=-1)), -1, 0))

    def jets(self, u_arrays, order=3):
        """Taylor-expand the ambient coordinates at a batch of chart points.

        Returns one jet of tensor shape (2n+1,), one entry per coordinate,
        with exact derivatives (``fd_jets`` takes them by differences).  A
        moved immersion's motion acts on the stacked jet as one affine map,
        which commutes with Taylor arithmetic, so its derivatives stay exact.
        """
        ctx = jets.context(self.nparams, order)
        seeds = jets.variables(ctx, [np.asarray(u, dtype=float) for u in u_arrays])
        env = dict(zip(self.params, seeds))
        shape = np.broadcast_shapes(*[np.shape(u) for u in u_arrays])
        X = jets.stack([v if isinstance(v, Jet) else jets.constant(ctx, float(v), shape)
                        for v in evaluate(self.coord_exprs, env)])
        return X if self.motion is None else self._moved(X)

    def _moved(self, X):
        """``motion`` applied to coordinates stacked on the last axis (an
        array, or a vector jet): one matrix product and one shift."""
        g = self.motion
        return X @ g[1:, 1:].T + g[1:, 0]

    def rank_check(self, jac):
        """Raise NotImmersed unless all Jacobian singular values clear 1e-8.

        ``jac`` is the Jacobian as the gradient of the coordinate jets,
        (d, *batch, 2n+1), e.g. ``self.jets(points, order=1).gradient()``.
        The batch is first certified in bulk (``certify.rank_clears``); the
        per-point SVD runs only when some point is not certified, and it
        alone decides and names the failing grid index.
        """
        floor = 1e-8
        batch = jac.shape[1:-1]
        jac = jac.reshape(jac.shape[0], -1, jac.shape[-1])
        if certify.rank_clears(jac, floor):
            return
        sv = np.linalg.svd(np.moveaxis(jac, 1, 0), compute_uv=False)
        worst = float(np.min(sv[:, self.nparams - 1]))
        if worst < floor:
            flat = int(np.argmin(sv[:, self.nparams - 1]))
            loc = tuple(int(i) for i in np.unravel_index(flat, batch))
            raise NotImmersed(
                f"Jacobian rank deficient (sigma_min {worst:.2e} < {floor:.0e}) "
                f"at grid index {loc}", location=loc)


def fd_stencil(d, order):
    """The offsets, in steps per chart axis, at which ``fd_jets`` samples.

    In sampling order: the base point, the axis points, the axis-pair points
    and the axis-triple points.  A lower order's stencil is a prefix.
    """
    def off(*moves):
        o = [0] * d
        for i, k in moves:
            o[i] = k
        return tuple(o)

    offs = [off()]
    for i in range(d) if order >= 1 else ():
        offs += [off((i, k)) for k in (1, -1, 2, -2)]
    for i, j in itertools.combinations(range(d), 2) if order >= 2 else ():
        offs += [off((i, a * s), (j, b * s)) for s in (1, 2)
                 for a, b in ((1, 1), (-1, -1), (1, -1), (-1, 1))]
    for i, j, k in itertools.combinations(range(d), 3) if order >= 3 else ():
        offs += [off((i, si), (j, sj), (k, sk))
                 for si, sj, sk in itertools.product((1, -1), repeat=3)]
    return offs


def _sample_offsets(values_fn, u_arrays, offs, steps, shape):
    """The coordinates at the points displaced by each of ``offs`` (in steps
    per chart axis), (len(offs), *shape, 2n+1), from one call of
    ``values_fn`` over the offsets stacked on a leading axis.

    A DomainError is raised as calls one offset at a time would raise it:
    the stacked call may meet a later offset's error first, in an expression
    it evaluates before the one that fails at an earlier offset, so the
    offsets before the one it names are evaluated again until none fails.
    The error is located at the point alone.
    """
    err, lead = None, (len(steps), -1) + (1,) * len(shape)
    while offs:
        ks = np.array(offs, dtype=float).T.reshape(lead)
        try:
            vals = values_fn([u + k * h for u, k, h in zip(u_arrays, ks, steps)])
        except DomainError as e:
            if e.location is None:
                raise
            err, offs = e, offs[:e.location[0]]
            continue
        if err is None:
            return np.stack([np.broadcast_to(v, (len(offs),) + shape) for v in vals],
                            axis=-1)
        break
    raise DomainError(err.msg, err.location[1:]) from None


def fd_jets(values_fn, d, u_arrays, order, steps):
    """Finite-difference Taylor coefficients (Richardson first derivatives).

    ``steps`` gives the per-axis displacement; accuracy is O(step^4) for first
    derivatives and O(step^2) for second and third ones, so downstream
    residual tolerances must be relaxed accordingly (``darboux.FD_TOL_FACTOR``
    against the AD pipeline).  Whatever ``order``, the whole third-order
    stencil is sampled, in ``fd_stencil`` order, so that jets of every order
    raise the same domain error at the same point; only the samples that
    ``order`` reads are kept.  Each call of ``values_fn`` takes
    ``max(1, len(stencil) // npoints)`` offsets, so a grid of few points
    needs few calls.
    """
    u_arrays = [np.asarray(u, dtype=float) for u in u_arrays]
    ctx = jets.context(d, order)
    shape = np.broadcast_shapes(*[np.shape(u) for u in u_arrays])
    stencil, keep = fd_stencil(d, 3), len(fd_stencil(d, order))
    per_call = max(1, len(stencil) // math.prod(shape))
    samples = {}
    for lo in range(0, len(stencil), per_call):
        block = _sample_offsets(values_fn, u_arrays, stencil[lo:lo + per_call], steps,
                                shape)
        samples.update(zip(stencil[lo:keep], block))

    def ev(*moves):
        """Coordinates, (*batch, 2n+1), k_i steps away along each axis i."""
        off = [0] * d
        for i, k in moves:
            off[i] = k
        return samples[tuple(off)]

    def set_coeff(axes, deriv):
        alpha = [0] * d
        for i in axes:
            alpha[i] += 1
        coeffs[ctx.index[tuple(alpha)]] = deriv / math.prod(map(math.factorial, alpha))

    f0 = ev()
    coeffs = np.zeros((ctx.ncoeff,) + f0.shape)
    coeffs[0] = f0
    for i in range(d if order >= 1 else 0):
        h = steps[i]
        p1, m1, p2, m2 = ev((i, 1)), ev((i, -1)), ev((i, 2)), ev((i, -2))
        set_coeff([i], (8 * (p1 - m1) - (p2 - m2)) / (12 * h))
        if order >= 2:
            set_coeff([i, i], (-p2 + 16 * p1 - 30 * f0 + 16 * m1 - m2) / (12 * h * h))
        if order >= 3:
            set_coeff([i, i, i], (p2 - 2 * p1 + 2 * m1 - m2) / (2 * h ** 3))
    for i, j in itertools.combinations(range(d), 2) if order >= 2 else ():
        def cross(s):
            return ((ev((i, s), (j, s)) + ev((i, -s), (j, -s)) - ev((i, s), (j, -s))
                     - ev((i, -s), (j, s))) / (4 * s * s * steps[i] * steps[j]))

        set_coeff([i, j], (4 * cross(1) - cross(2)) / 3.0)   # Richardson: O(step^4)
    for i, j in itertools.permutations(range(d), 2) if order >= 3 else ():
        top = ev((i, 1), (j, 1)) - 2 * ev((j, 1)) + ev((i, -1), (j, 1))
        bot = ev((i, 1), (j, -1)) - 2 * ev((j, -1)) + ev((i, -1), (j, -1))
        set_coeff([i, i, j], (top - bot) / (2 * steps[i] * steps[i] * steps[j]))
    for i, j, k in itertools.combinations(range(d), 3) if order >= 3 else ():
        acc = 0.0
        for si, sj, sk in itertools.product((1, -1), repeat=3):
            acc = acc + si * sj * sk * ev((i, si), (j, sj), (k, sk))
        set_coeff([i, j, k], acc / (8 * steps[i] * steps[j] * steps[k]))
    return Jet(ctx, coeffs, 1)

# ---------------------------------------------------------------------------
# builtin surfaces
# ---------------------------------------------------------------------------

# the largest n of a builtin: a frame field holds (2n+1)^2 jets per point
BUILTIN_MAX_N = 64


def heis_sub(m: int, n: int) -> Immersion:
    """The subgroup {z_{m+1} = ... = z_n = 0}, charted by its own coordinates."""
    if not 1 <= m <= n <= BUILTIN_MAX_N:
        raise UnknownBuiltin(f"heis_sub needs 1 <= m <= n <= {BUILTIN_MAX_N}, "
                             f"got ({m}, {n})")
    params = [f"u{i + 1}" for i in range(2 * m + 1)]
    chart = [(-0.45, 0.55)] * (2 * m + 1)
    zero = num(0.0)
    xs = [param(params[b]) if b < m else zero for b in range(n)]
    ys = [param(params[m + b]) if b < m else zero for b in range(n)]
    return Immersion("heis_sub", n, m, params, chart, xs + ys + [param(params[2 * m])])


def sphere(n: int, r: float) -> Immersion:
    """Round sphere {(z, 0): |z| = r}, charted by nested polar angles."""
    if not 2 <= n <= BUILTIN_MAX_N or r <= 0:
        raise UnknownBuiltin(f"sphere needs 2 <= n <= {BUILTIN_MAX_N} and r > 0, "
                             f"got ({n}, {r})")
    params = [f"u{i + 1}" for i in range(2 * n - 1)]
    chart = [(0.5, 1.0)] * (n - 1) + [(0.15 + 0.07 * k, 0.85 + 0.07 * k)
                                      for k in range(n)]
    polar = [param(params[i]) for i in range(n - 1)]
    azim = [param(params[n - 1 + k]) for k in range(n)]
    xs, ys = [], []
    for k in range(n):
        mag = num(r)
        for i in range(k):
            mag = mag * fun("sin", polar[i])
        if k < n - 1:
            mag = mag * fun("cos", polar[k])
        xs.append(mag * fun("cos", azim[k]))
        ys.append(mag * fun("sin", azim[k]))
    return Immersion("sphere", n, m := n - 1, params, chart, xs + ys + [num(0.0)])


def _graph_params(n, m):
    params = [f"u{i + 1}" for i in range(2 * m + 1)]
    chart = ([(0.35 + 0.05 * j, 0.95 + 0.05 * j) for j in range(m)]
             + [(-0.2 - 0.05 * j, 0.6 - 0.05 * j) for j in range(m)]
             + [(-0.4, 0.6)])
    zs = [CExpr(param(params[j]), param(params[m + j])) for j in range(m)]
    return params, chart, zs


def _poly_eval(terms: dict, zs) -> CExpr:
    """Evaluate sum c * z^alpha for a dict {exponent tuple: complex coeff}."""
    acc = CExpr(0.0)
    for alpha, coeff in sorted(terms.items()):
        mono = _as_cexpr(complex(coeff))
        for j, e in enumerate(alpha):
            mono = mono * zs[j] ** e
        acc = acc + mono
    return acc


HOLOGRAPH_MAX_DEGREE = 64


def holograph(degree: int = 2) -> Immersion:
    """The vertical graph {(z_1, z_1^degree, t)} in H_2, the degree from 2
    to HOLOGRAPH_MAX_DEGREE."""
    if not 2 <= degree <= HOLOGRAPH_MAX_DEGREE:
        raise UnknownBuiltin(f"holograph degree must be in "
                             f"2..{HOLOGRAPH_MAX_DEGREE}, got {degree}")
    params, chart, zs = _graph_params(2, 1)
    f = _poly_eval({(degree,): 1.0 + 0.0j}, zs)
    return Immersion("holograph", 2, 1, params, chart,
                     [param(params[0]), f.re, param(params[1]), f.im, param(params[2])])


def holomorphic_section(n, m, polys, couplings, label) -> Immersion:
    """Intersection of the group with the holomorphic graphs z_a = F_a(z') + c_a w.

    Here w = 2t + i|z|^2 is the Siegel-model fibre coordinate; the chart is
    (Re z', Im z', Re w) and Im w is recovered from the defining constraint by
    solving a quadratic (closed form, stable as the couplings vanish).
    Nonzero couplings make the surface completely non-vertical and, combined
    with curvature of the F_a, give it nonvanishing pseudohermitian torsion.
    """
    if not 1 <= m < n:
        raise UnknownBuiltin(f"holomorphic_section needs 1 <= m < n")
    params, chart, zs = _graph_params(n, m)
    v = param(params[2 * m])
    fs = [_poly_eval(p, zs) for p in polys]
    cs = [float(c) for c in couplings]
    # Im w solves  A h^2 + B h + C = 0 with the root that is smooth in the couplings
    A = num(sum(c * c for c in cs))
    B = num(-1.0)
    C = Num(0.0)
    for j in range(m):
        C = C + zs[j].abs2()
    for f, c in zip(fs, cs):
        B = B + num(2.0 * c) * f.im
        C = C + (f.re + num(c) * v) ** 2 + f.im * f.im
    C = _as_expr(C)
    h = Bin("/", num(2.0) * C,
            _fold_neg(B) + fun("sqrt", B * B - num(4.0) * A * C))
    xs = [param(params[j]) for j in range(m)]
    ys = [param(params[m + j]) for j in range(m)]
    for f, c in zip(fs, cs):
        xs.append(f.re + num(c) * v)
        ys.append(f.im + num(c) * h)
    t = Bin("/", v, num(2.0))
    return Immersion(label, n, m, params, chart, xs + ys + [t])


def ellipsoid(n: int, *axes: float) -> Immersion:
    """Anisotropic deformation family addressed by axis-like parameters.

    The coordinate set {sum |z_b|^2 / a_b^2 = 1, t = 0} fails to be a
    pseudohermitian submanifold for unequal axes (its contact intersection is
    not J-invariant), so this builtin realizes the anisotropy as a
    holomorphic-section deformation instead: z_n = q (z_1^2+..+z_m^2) + c w
    with q, c derived from the axis ratios.  Unequal axes yield a completely
    non-vertical surface with nonvanishing torsion; equal axes degenerate to
    the vertical subgroup {z_n = 0}.
    """
    if len(axes) != n or not 2 <= n <= BUILTIN_MAX_N:
        raise UnknownBuiltin(f"ellipsoid needs 2 <= n <= {BUILTIN_MAX_N} axis "
                             f"lengths, got {axes}")
    if any(a <= 0 for a in axes):
        raise UnknownBuiltin("ellipsoid axes must be positive")
    m = n - 1
    base = float(np.mean(axes[:m]))
    q = float(axes[-1]) - base
    c = (float(axes[-1]) - base) / (float(axes[-1]) + base)
    poly = {tuple(2 if j == k else 0 for j in range(m)): q + 0.0j for k in range(m)}
    return holomorphic_section(n, m, [poly], [c], "ellipsoid")


# name -> (factory, argument kinds, fewest arguments); a trailing ``...``
# repeats the kind before it
_BUILTINS = {
    "heis_sub": (heis_sub, (int, int), 2),
    "sphere": (sphere, (int, float), 2),
    "holograph": (holograph, (int,), 0),
    "ellipsoid": (ellipsoid, (int, float, ...), 3),
}


def builtin(name: str, *args) -> Immersion:
    """Construct one of the named builtin surfaces.

    Arguments must be finite, and integral where the kind is int (2.0 is
    accepted for 2, 2.5 is not).
    """
    if name not in _BUILTINS:
        raise UnknownBuiltin(f"unknown builtin surface {name!r}")
    factory, kinds, fewest = _BUILTINS[name]
    if kinds[-1] is ...:
        kinds = kinds[:-1] + kinds[-2:-1] * (len(args) - len(kinds) + 1)
    if not fewest <= len(args) <= len(kinds):
        raise UnknownBuiltin(f"wrong number of arguments for {name!r}")
    typed = []
    for pos, (kind, a) in enumerate(zip(kinds, args), 1):
        x = float(a)
        if not math.isfinite(x) or (kind is int and x != int(x)):
            raise UnknownBuiltin(f"argument {pos} of {name!r} must be a finite "
                                 f"{'integer' if kind is int else 'number'}, got {a!r}")
        typed.append(kind(x))
    return factory(*typed)


_SPEC_RE = re.compile(r"^builtin:([A-Za-z_][A-Za-z_0-9]*)\((.*)\)$")


def parse_surface_spec(spec: str) -> Immersion:
    """Resolve 'builtin:name(args)' or a path to a surface file."""
    spec = spec.strip()
    m = _SPEC_RE.match(spec)
    if spec.startswith("builtin:") and m is None:
        raise UnknownBuiltin(f"malformed builtin spec {spec!r}; "
                             "expected builtin:name(arg, ...)")
    if m is not None:
        name = m.group(1)
        argtext = m.group(2).strip()
        args = []
        if argtext:
            for piece in argtext.split(","):
                piece = piece.strip()
                try:
                    args.append(float(piece))
                except ValueError:
                    raise UnknownBuiltin(f"bad builtin argument {piece!r} in {spec!r}")
        return builtin(name, *args)
    with open(spec, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def transform_immersion(imm: Immersion, g) -> Immersion:
    """Compose an immersion with a rigid motion.

    The moved immersion shares ``imm``'s coordinate expressions and carries
    the motion's matrix, composed with ``imm``'s own motion if it has one;
    its values and jets apply it as one affine map on the arrays, so no
    expression is rewritten and automatic differentiation stays exact.
    ``pretty_print`` writes the moved map out as expressions.
    """
    moved = Immersion(imm.label + "_moved", imm.n, imm.m, imm.params, imm.chart,
                      imm.coord_exprs)
    moved.motion = np.array(g.mat if imm.motion is None else g.mat @ imm.motion,
                            dtype=float)
    return moved

"""The symmetry group PSH(n) of H_n as a (2n+2)x(2n+2) matrix group.

An element acts affinely on column vectors (1, q): the first column holds
the image of the origin, the remaining columns are the coordinate
components of an adapted frame (e_1..e_n, Je_1..Je_n, T) at that point.
Every element factors uniquely as a left translation followed by a
rotation about the t-axis.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from . import heis
from .errors import DimensionMismatch, InvalidFrame
from .heis import HPoint, standard_j_block

__all__ = [
    "PSHElement", "identity", "frame_to_matrix", "apply", "compose", "inverse",
    "decompose", "recompose", "psh_validate", "algebra_validate",
    "random_rotation", "random_element", "left_translation", "rotation_about_t",
    "exp", "exp_pair",
]


@dataclass(frozen=True, eq=False)
class PSHElement:
    """A pseudohermitian transformation of H_n in matrix form."""

    n: int
    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", np.asarray(self.mat, dtype=float))
        d = 2 * self.n + 2
        if self.mat.shape != (d, d):
            raise DimensionMismatch(f"matrix must be {d}x{d} for n={self.n}")

    @property
    def translation(self) -> HPoint:
        return HPoint.from_coords(self.n, self.mat[1:, 0])

    def __matmul__(self, other: "PSHElement") -> "PSHElement":
        if self.n != other.n:
            raise DimensionMismatch("group elements of different H_n")
        return PSHElement(self.n, self.mat @ other.mat)


def identity(n: int) -> PSHElement:
    return PSHElement(n, np.eye(2 * n + 2))


def left_translation(p: HPoint) -> PSHElement:
    """Left translation by p; columns 1.. hold the coordinate components of
    the left-invariant frame (e_1..e_2n, T) at p."""
    n = p.n
    mat = np.eye(2 * n + 2)
    mat[1:, 0] = p.coords
    mat[2 * n + 1, 1:n + 1] = p.y
    mat[2 * n + 1, n + 1:2 * n + 1] = -p.x
    return PSHElement(n, mat)


def rotation_about_t(n: int, R: np.ndarray) -> PSHElement:
    """Rotation (x, y) -> R (x, y) fixing t; R must be SO(2n) commuting with J."""
    R = np.asarray(R, dtype=float)
    if R.shape != (2 * n, 2 * n):
        raise DimensionMismatch("rotation block must be 2n x 2n")
    mat = np.eye(2 * n + 2)
    mat[1:2 * n + 1, 1:2 * n + 1] = R
    return PSHElement(n, mat)


def frame_to_matrix(p: HPoint, cols) -> PSHElement:
    """Matrix of the unique symmetry carrying the standard frame at 0 to the
    frame at ``p`` whose column c has frame components ``cols[:, c]``
    ((2n+1, 2n+1), columns e_1..e_n, Je_1..Je_n, T); InvalidFrame if it is
    not an adapted orthonormal frame within 1e-8."""
    cols = np.asarray(cols, dtype=float)
    mat = left_translation(p).mat
    if cols.shape != mat[1:, 1:].shape:
        raise InvalidFrame("frame needs 2n+1 columns of 2n+1 components")
    mat[1:, 1:] = mat[1:, 1:] @ cols
    diag = psh_validate(mat, 1e-8)
    if not diag.ok:
        raise InvalidFrame(f"frame invariants violated: {diag.residuals}")
    return PSHElement(p.n, mat)


def apply(g: PSHElement, q: HPoint) -> HPoint:
    if g.n != q.n:
        raise DimensionMismatch("dimension mismatch in group action")
    v = g.mat @ np.concatenate([[1.0], q.coords])
    return HPoint.from_coords(g.n, v[1:])


def compose(g: PSHElement, h: PSHElement) -> PSHElement:
    return g @ h


def inverse(g: PSHElement) -> PSHElement:
    return PSHElement(g.n, np.linalg.inv(g.mat))


def decompose(g: PSHElement, tol=1e-8):
    """Factor g as (left translation by p) followed by a rotation about t.

    Returns (p, R) with R the SO(2n) block of the rotation.  The translation
    point is the image of the origin; the rotation is what remains after
    undoing it.
    """
    diag = psh_validate(g.mat, tol)
    if not diag.ok:
        raise InvalidFrame(f"not a valid group element: {diag.residuals}")
    p = g.translation
    rest = left_translation(heis.group_inv(p)) @ g
    R = rest.mat[1:2 * g.n + 1, 1:2 * g.n + 1].copy()
    return p, R


def recompose(p: HPoint, R: np.ndarray) -> PSHElement:
    return left_translation(p) @ rotation_about_t(p.n, R)


@dataclass
class Diagnostics:
    residuals: dict
    tol: float

    @property
    def ok(self) -> bool:
        return all(v <= self.tol for v in self.residuals.values())

    @property
    def worst(self) -> float:
        """The largest residual; a NaN in any of them sticks."""
        return float(np.max(list(self.residuals.values())))


def _max_abs(x) -> float:
    return float(np.max(np.abs(x)))


def _check_stack(mat):
    mat = np.asarray(mat, dtype=float)
    d = mat.shape[-1] if mat.ndim >= 2 else 0
    if mat.shape[-2:] != (d, d) or d % 2 or d < 4:
        raise DimensionMismatch("expected square matrices of size 2n+2")
    return mat, (d - 2) // 2


def psh_validate(mat, tol=1e-10) -> Diagnostics:
    """Residuals of membership in the matrix group, each the largest over a
    stack of matrices (..., 2n+2, 2n+2).

    The rotation block R must be orthogonal, commute with J and have
    determinant 1; the first row and last column are those of the identity,
    and the T-row is tied to the translation so that the frame columns are
    horizontal.
    """
    mat, n = _check_stack(mat)
    d = 2 * n + 2
    res = {"first_row": _max_abs(mat[..., 0, :] - np.eye(d)[0]),
           "reeb_column": _max_abs(mat[..., :, -1] - np.eye(d)[-1])}
    x, y = mat[..., 1:n + 1, 0], mat[..., n + 1:2 * n + 1, 0]
    R = mat[..., 1:2 * n + 1, 1:2 * n + 1]
    # T-components of the horizontal frame columns
    vt = (mat[..., 2 * n + 1, 1:2 * n + 1]
          - np.einsum("...i,...ij->...j", y, R[..., :n, :])
          + np.einsum("...i,...ij->...j", x, R[..., n:, :]))
    J0 = standard_j_block(n)
    res["horizontal"] = _max_abs(vt)
    res["orthonormal"] = _max_abs(np.swapaxes(R, -1, -2) @ R - np.eye(2 * n))
    res["j_compat"] = _max_abs(R @ J0 - J0 @ R)
    res["orientation"] = _max_abs(np.linalg.det(R) - 1.0)
    return Diagnostics(res, tol)


# ---------------------------------------------------------------------------
# the Lie algebra psh(n)
#
# An algebra value has the same (2n+2)x(2n+2) layout as a group element
# (1-based frame indices):
#   column 0 rows 1..2n+1 : translation part (w^1..w^n, w^{n+1}..w^{2n}, w^{2n+1})
#   rows 1..2n, cols 1..2n: rotation part with entry [row b, col a] = w_a{}^b
#   row 2n+1, cols 1..2n  : (w^{n+1}..w^{2n}, -w^1..-w^n), tied to the
#                           translation part
#   first row and last column: zero.
# ---------------------------------------------------------------------------

def algebra_validate(mat, tol=1e-10) -> Diagnostics:
    """Residuals of membership in the Lie algebra, each the largest over a
    stack of matrices (..., 2n+2, 2n+2)."""
    mat, n = _check_stack(mat)
    res = {"first_row": _max_abs(mat[..., 0, :]),
           "last_column": _max_abs(mat[..., :, -1])}
    W = mat[..., 1:2 * n + 1, 1:2 * n + 1]
    res["antisymmetric"] = _max_abs(W + np.swapaxes(W, -1, -2))
    J0 = standard_j_block(n)
    res["j_compat"] = _max_abs(W @ J0 - J0 @ W)
    bottom = mat[..., 2 * n + 1, 1:2 * n + 1]
    tied = np.concatenate([mat[..., n + 1:2 * n + 1, 0], -mat[..., 1:n + 1, 0]],
                          axis=-1)
    res["bottom_row"] = _max_abs(bottom - tied)
    return Diagnostics(res, tol)


_EXP_MAX_DEGREE = 18    # remainder bound 2.2e-17 on the unit 1-norm ball
_EXP_TOL = 2.0 ** -54   # half the unit roundoff of float64


def _exp_degree(theta):
    """Smallest Taylor degree m in 1..18 whose remainder bound
    theta^(m+1) e^theta / (m+1)! is at most half the unit roundoff, for
    each 1-norm theta <= 1 of an array; 18 where theta is not finite."""
    theta = np.asarray(theta, dtype=float)
    m = np.full(theta.shape, _EXP_MAX_DEGREE)
    bound = np.exp(theta) * theta
    for k in range(1, _EXP_MAX_DEGREE):
        bound = bound * (theta / (k + 1))
        m[(m == _EXP_MAX_DEGREE) & (bound <= _EXP_TOL)] = k
    return m


def _horner(Z, coef):
    """sum_k coef[k] Z^k for a stack of square matrices, by Horner's rule;
    each coef[k] is a scalar or holds one value per matrix.

    The first step, Z (coef[-1] I), is formed as coef[-1] Z, without a
    product.
    """
    coef = [np.asarray(c, dtype=float)[..., None] for c in coef]
    if len(coef) == 1:
        S, rest = np.zeros(Z.shape), coef
    else:
        S, rest = coef[-1][..., None] * Z, coef[:-1]
    for k, c in enumerate(reversed(rest)):
        if k:
            S = Z @ S
        S.reshape(S.shape[:-2] + (-1,))[..., ::Z.shape[-1] + 1] += c
    return S


def _scaling(X):
    """The scale 2^-s that takes each matrix of a stack X into the unit
    1-norm ball, s, and each matrix's scaled 1-norm (NaN where a matrix is
    not finite)."""
    norm = np.max(np.sum(np.abs(X), axis=-2), axis=-1)
    s = np.zeros(norm.shape, dtype=int)
    big = np.isfinite(norm) & (norm > 1.0)
    s[big] = np.ceil(np.log2(norm[big])).astype(int)
    scale = np.ldexp(1.0, -s)
    return scale, s, norm * scale


def _taylor_parts(X):
    """The Taylor pass of exp on a stack X (..., D, D): E, O and s.

    Each matrix is scaled by 2^-s into the unit 1-norm ball, Y = 2^-s X, and
    the series is split in Y^2 into an even part E = sum Y^2k/(2k)! and an
    odd part O = Y sum Y^2k/(2k+1)!, so exp(Y) = E + O and exp(-Y) = E - O.
    Each matrix takes the least degree that is exact to rounding at its own
    scaled norm (``_exp_degree``): one Horner pass runs to the largest
    degree of the stack, with a matrix's coefficients zero past its own
    degree, which gives the bits of the shorter rule.  So a matrix's parts
    do not depend on the stack it sits in.  A non-finite matrix takes the
    full degree and gives non-finite parts; the rest of the stack is
    unaffected.
    """
    X = np.asarray(X, dtype=float)
    scale, s, theta = _scaling(X)
    Y = X * scale[..., None, None]
    m = _exp_degree(theta)
    coef = [np.where(j <= m, 1 / math.factorial(j), 0.0)
            for j in range(int(np.max(m, initial=1)) + 1)]
    Z = Y @ Y
    return _horner(Z, coef[0::2]), Y @ _horner(Z, coef[1::2]), s


def _squared(P, s):
    """Each matrix of P squared s times, s broadcast over P's leading axes."""
    for k in range(int(np.max(s, initial=0))):
        P = np.where((s > k)[..., None, None], P @ P, P)
    return P


def exp_pair(X):
    """exp(X) and exp(-X) of a stack of algebra values, shape (..., D, D),
    by scaling and squaring from one shared Taylor pass (``_taylor_parts``);
    both factors are squared s times."""
    E, O, s = _taylor_parts(X)
    P = _squared(np.stack([E + O, E - O]), s)
    return P[0], P[1]


def exp(X):
    """Group exponential of a stack of algebra values, shape (..., D, D):
    the first factor of ``exp_pair``, with only exp(X) squared."""
    E, O, s = _taylor_parts(X)
    return _squared(E + O, s)


# ---------------------------------------------------------------------------
# random elements (for property tests and rigidity trials)
# ---------------------------------------------------------------------------

def random_rotation(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random SO(2n) block commuting with J (realified U(n))."""
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    Q = Q * (np.diag(R) / np.abs(np.diag(R)))
    A, B = Q.real, Q.imag
    return np.block([[A, -B], [B, A]])


def random_element(n: int, rng: np.random.Generator, scale=1.0) -> PSHElement:
    p = HPoint(n, scale * rng.uniform(-1, 1, n), scale * rng.uniform(-1, 1, n),
               scale * rng.uniform(-1, 1))
    return recompose(p, random_rotation(n, rng))

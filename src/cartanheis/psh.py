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
from .heis import FrameAtPoint, HPoint, standard_j_block

__all__ = [
    "PSHElement", "AlgebraValue", "ComplexSlices", "identity", "frame_to_matrix",
    "apply", "compose", "inverse", "decompose", "recompose", "psh_validate",
    "algebra_validate", "complexify", "realify", "random_rotation", "random_element",
    "left_translation", "rotation_about_t", "project", "exp", "exp_pair",
]


def _coord_frame_matrix(p: HPoint) -> np.ndarray:
    """Coordinate components of (e_1..e_2n, T) at p, as columns."""
    n = p.n
    E = np.eye(2 * n + 1)
    E[2 * n, :n] = p.y
    E[2 * n, n:2 * n] = -p.x
    return E


def _coord_frame_inverse(p: HPoint) -> np.ndarray:
    n = p.n
    Ei = np.eye(2 * n + 1)
    Ei[2 * n, :n] = -p.y
    Ei[2 * n, n:2 * n] = p.x
    return Ei


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
    mat = np.eye(2 * p.n + 2)
    mat[1:, 0] = p.coords
    mat[1:, 1:] = _coord_frame_matrix(p)
    return PSHElement(p.n, mat)


def rotation_about_t(n: int, R: np.ndarray) -> PSHElement:
    """Rotation (x, y) -> R (x, y) fixing t; R must be SO(2n) commuting with J."""
    R = np.asarray(R, dtype=float)
    if R.shape != (2 * n, 2 * n):
        raise DimensionMismatch("rotation block must be 2n x 2n")
    mat = np.eye(2 * n + 2)
    mat[1:2 * n + 1, 1:2 * n + 1] = R
    return PSHElement(n, mat)


def frame_to_matrix(F: FrameAtPoint) -> PSHElement:
    """Matrix of the unique symmetry carrying the standard frame at 0 to F."""
    F.validate(1e-8)
    n = F.base.n
    mat = np.eye(2 * n + 2)
    mat[1:, 0] = F.base.coords
    mat[1:, 1:] = _coord_frame_matrix(F.base) @ F.cols
    return PSHElement(n, mat)


def matrix_to_frame(g: PSHElement) -> FrameAtPoint:
    p = g.translation
    cols = _coord_frame_inverse(p) @ g.mat[1:, 1:]
    return FrameAtPoint(p, cols)


def apply(g: PSHElement, q: HPoint) -> HPoint:
    if g.n != q.n:
        raise DimensionMismatch("dimension mismatch in group action")
    v = g.mat @ np.concatenate([[1.0], q.coords])
    return HPoint.from_coords(g.n, v[1:])


def push_forward(g: PSHElement, v: heis.HTangent) -> heis.HTangent:
    w = g.mat[1:, 1:] @ v.coord
    return heis.HTangent.from_coord(apply(g, v.base), w)


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


def project(mats):
    """Nearest group elements to a stack of near-group matrices (..., D, D).

    The translation column is kept; the horizontal block is averaged with
    its J-conjugate and replaced by its orthogonal polar factor, and the
    T-row is rebuilt from the translation.  Returns the projected stack and
    the largest entry change of each matrix.
    """
    mats = np.asarray(mats, dtype=float)
    n = (mats.shape[-1] - 2) // 2
    J0 = standard_j_block(n)
    R = mats[..., 1:2 * n + 1, 1:2 * n + 1]
    R = 0.5 * (R + J0.T @ R @ J0)       # enforce commutation with J
    U, _, Vt = np.linalg.svd(R)
    R = U @ Vt
    yx = np.concatenate([mats[..., n + 1:2 * n + 1, 0],
                         -mats[..., 1:n + 1, 0]], axis=-1)
    out = np.zeros_like(mats)
    out[..., 0, 0] = 1.0
    out[..., 1:, 0] = mats[..., 1:, 0]
    out[..., 1:2 * n + 1, 1:2 * n + 1] = R
    out[..., 2 * n + 1, 1:2 * n + 1] = np.einsum("...i,...ij->...j", yx, R)
    out[..., -1, -1] = 1.0
    return out, np.max(np.abs(out - mats), axis=(-2, -1))


@dataclass
class Diagnostics:
    residuals: dict
    tol: float

    @property
    def ok(self) -> bool:
        return all(v <= self.tol for v in self.residuals.values())

    @property
    def worst(self) -> float:
        return max(self.residuals.values())


def psh_validate(mat, tol=1e-10) -> Diagnostics:
    """Per-invariant residuals of membership in the matrix group."""
    mat = np.asarray(mat, dtype=float)
    d = mat.shape[0]
    if mat.shape != (d, d) or d % 2 or d < 4:
        raise DimensionMismatch("expected a square matrix of size 2n+2")
    n = (d - 2) // 2
    first_row = np.zeros(d)
    first_row[0] = 1.0
    res = {"first_row": float(np.max(np.abs(mat[0] - first_row)))}
    tcol = np.zeros(d)
    tcol[-1] = 1.0
    res["reeb_column"] = float(np.max(np.abs(mat[:, -1] - tcol)))
    p = HPoint.from_coords(n, mat[1:, 0])
    cols = _coord_frame_inverse(p) @ mat[1:, 1:]
    R = cols[: 2 * n, : 2 * n]
    J0 = standard_j_block(n)
    res["horizontal"] = float(np.max(np.abs(cols[2 * n, : 2 * n])))
    res["orthonormal"] = float(np.max(np.abs(R.T @ R - np.eye(2 * n))))
    res["j_compat"] = float(np.max(np.abs(R @ J0 - J0 @ R)))
    res["orientation"] = float(abs(np.linalg.det(R) - 1.0))
    return Diagnostics(res, tol)


# ---------------------------------------------------------------------------
# the Lie algebra psh(n)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class AlgebraValue:
    """An element of the Lie algebra, in the same (2n+2)x(2n+2) layout.

    Block structure (1-based frame indices):
      column 0 rows 1..2n+1 : translation part (w^1..w^n, w^{n+1}..w^{2n}, w^{2n+1})
      rows 1..2n, cols 1..2n: rotation part with entry [row b, col a] = w_a{}^b
      row 2n+1, cols 1..2n  : (w^{n+1}..w^{2n}, -w^1..-w^n), tied to the
                              translation part
      first row and last column: zero.
    """

    n: int
    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mat", np.asarray(self.mat))
        d = 2 * self.n + 2
        if self.mat.shape != (d, d):
            raise DimensionMismatch(f"matrix must be {d}x{d} for n={self.n}")

    @property
    def translation(self) -> np.ndarray:
        return self.mat[1:, 0]

    @property
    def rotation(self) -> np.ndarray:
        return self.mat[1:2 * self.n + 1, 1:2 * self.n + 1]


def zero_algebra(n: int) -> AlgebraValue:
    return AlgebraValue(n, np.zeros((2 * n + 2, 2 * n + 2)))


def algebra_validate(v: AlgebraValue, tol=1e-10) -> Diagnostics:
    n = v.n
    m = v.mat
    res = {"first_row": float(np.max(np.abs(m[0]))),
           "last_column": float(np.max(np.abs(m[:, -1])))}
    W = v.rotation
    res["antisymmetric"] = float(np.max(np.abs(W + W.T)))
    J0 = standard_j_block(n)
    res["j_compat"] = float(np.max(np.abs(W @ J0 - J0 @ W)))
    bottom = m[2 * n + 1, 1:2 * n + 1]
    tied = np.concatenate([m[n + 1:2 * n + 1, 0], -m[1:n + 1, 0]])
    res["bottom_row"] = float(np.max(np.abs(bottom - tied)))
    return Diagnostics(res, tol)


_EXP_MAX_DEGREE = 18    # remainder bound 2.2e-17 on the unit 1-norm ball
_EXP_TOL = 2.0 ** -54   # half the unit roundoff of float64


def _exp_degree(theta) -> int:
    """Smallest Taylor degree m in 1..18 whose remainder bound
    theta^(m+1) e^theta / (m+1)! is at most half the unit roundoff, for a
    1-norm theta <= 1; 18 when theta is not finite."""
    if not math.isfinite(theta):
        return _EXP_MAX_DEGREE
    bound = math.exp(theta) * theta
    for m in range(1, _EXP_MAX_DEGREE):
        bound *= theta / (m + 1)
        if bound <= _EXP_TOL:
            return m
    return _EXP_MAX_DEGREE


def _horner(Z, coef):
    """sum_k coef[k] Z^k for a stack of square matrices, by Horner's rule."""
    S = np.zeros(Z.shape)
    for k, c in enumerate(reversed(coef)):
        if k:
            S = Z @ S
        S.reshape(S.shape[:-2] + (-1,))[..., ::Z.shape[-1] + 1] += c
    return S


def exp_pair(X):
    """exp(X) and exp(-X) of a stack of algebra values, shape (..., D, D).

    Scaling and squaring: each matrix is scaled by 2^-s into the unit
    1-norm ball and the Taylor series is split in Y^2 = Y Y into an even
    part E = sum Y^2k/(2k)! and an odd part O = Y sum Y^2k/(2k+1)!, so
    exp(Y) = E + O and exp(-Y) = E - O share every product.  The degree is
    the least that is exact to rounding at the largest scaled norm of the
    batch (see ``_exp_degree``).  Both factors are squared s times.  A
    non-finite matrix keeps the full degree and gives a non-finite pair; the
    other matrices of the batch are unaffected.
    """
    X = np.asarray(X, dtype=float)
    norm = np.max(np.sum(np.abs(X), axis=-2), axis=-1)
    s = np.zeros(norm.shape, dtype=int)
    big = np.isfinite(norm) & (norm > 1.0)
    s[big] = np.ceil(np.log2(norm[big])).astype(int)
    scale = np.ldexp(1.0, -s)
    Y = X * scale[..., None, None]
    m = _exp_degree(float(np.max(norm * scale, initial=0.0)))
    Z = Y @ Y
    E = _horner(Z, [1 / math.factorial(j) for j in range(0, m + 1, 2)])
    O = Y @ _horner(Z, [1 / math.factorial(j) for j in range(1, m + 1, 2)])
    P = np.empty((2,) + O.shape)
    np.add(E, O, out=P[0])
    np.subtract(E, O, out=P[1])
    for k in range(int(np.max(s, initial=0))):
        P = np.where((s > k)[..., None, None], P @ P, P)
    return P[0], P[1]


def exp(X):
    """Group exponential of a stack of algebra values: the first factor of
    ``exp_pair``."""
    return exp_pair(X)[0]


@dataclass(frozen=True, eq=False)
class ComplexSlices:
    """Complex view of an algebra value: contact scalar, coframe vector, connection."""

    n: int
    theta: complex
    vartheta: np.ndarray    # theta^b = w^b + i w^{n+b}
    conn: np.ndarray        # conn[b-1, g-1] = theta_g{}^b = w_g{}^b + i w_g{}^{n+b}

    def skew_hermitian_residual(self) -> float:
        return float(np.max(np.abs(self.conn + self.conn.conj().T)))


def complexify(v: AlgebraValue, tol=1e-8) -> ComplexSlices:
    diag = algebra_validate(v, tol)
    if not diag.ok:
        raise InvalidFrame(f"not a Lie-algebra value: {diag.residuals}")
    n = v.n
    m = v.mat
    theta = complex(m[2 * n + 1, 0])
    vartheta = m[1:n + 1, 0] + 1j * m[n + 1:2 * n + 1, 0]
    conn = m[1:n + 1, 1:n + 1] + 1j * m[n + 1:2 * n + 1, 1:n + 1]
    return ComplexSlices(n, theta, vartheta, conn)


def realify(s: ComplexSlices, tol=1e-8) -> AlgebraValue:
    n = s.n
    res = float(np.max(np.abs(s.conn + s.conn.conj().T))) if n else 0.0
    if res > tol:
        raise InvalidFrame(f"connection slice not skew-hermitian (residual {res:.2e})")
    m = np.zeros((2 * n + 2, 2 * n + 2))
    m[1:n + 1, 0] = s.vartheta.real
    m[n + 1:2 * n + 1, 0] = s.vartheta.imag
    m[2 * n + 1, 0] = s.theta.real
    W1 = s.conn.real
    W3 = s.conn.imag
    m[1:n + 1, 1:n + 1] = W1
    m[n + 1:2 * n + 1, 1:n + 1] = W3
    m[1:n + 1, n + 1:2 * n + 1] = -W3
    m[n + 1:2 * n + 1, n + 1:2 * n + 1] = W1
    m[2 * n + 1, 1:n + 1] = s.vartheta.imag
    m[2 * n + 1, n + 1:2 * n + 1] = -s.vartheta.real
    return AlgebraValue(n, m)


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

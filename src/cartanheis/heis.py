"""Exact pointwise geometry of the Heisenberg group H_n.

Coordinates are (x_1..x_n, y_1..y_n, t) with group law

    (x, y, t) o (x', y', t') = (x+x', y+y', t + t' + <y,x'> - <x,y'>).

The left-invariant horizontal frame is

    e_b     = d/dx_b + y_b d/dt,
    e_{n+b} = d/dy_b - x_b d/dt,

together with the Reeb field T = d/dt.  The sign in e_{n+b} is forced by
Theta(e_{n+b}) = 0 for the contact form Theta = dt + sum x_b dy_b - y_b dx_b
and by left-invariance under the group law above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BaseMismatch, DimensionMismatch, InvalidFrame, NonHorizontal

HORIZONTAL_TOL = 1e-9


# ---------------------------------------------------------------------------
# conversion helpers: component vectors lead, so the same code serves one
# point (1-D arrays) and jet fields (tensor jets with the index on axis 0)
# ---------------------------------------------------------------------------

def frame_t_component(x, y, vx, vy, vt):
    """T-component of the vector (vx, vy, vt) in the left-invariant frame at (x, y, .)."""
    return vt - y @ vx + x @ vy


def coord_t_component(x, y, a, b, c):
    """dt-component of a*e + b*Je + c*T at base (x, y, .)."""
    return c + y @ a - x @ b


# ---------------------------------------------------------------------------
# points
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HPoint:
    """A point of H_n, stored as (x, y, t)."""

    n: int
    x: np.ndarray
    y: np.ndarray
    t: float

    def __eq__(self, other):
        return (isinstance(other, HPoint) and self.n == other.n
                and np.array_equal(self.x, other.x)
                and np.array_equal(self.y, other.y) and self.t == other.t)

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.n <= 0:
            raise DimensionMismatch("CR dimension must be positive")
        if self.x.shape != (self.n,) or self.y.shape != (self.n,):
            raise DimensionMismatch("x and y must both have length n")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))
                and np.isfinite(self.t)):
            raise DimensionMismatch("point coordinates must be finite")

    @property
    def coords(self) -> np.ndarray:
        return np.concatenate([self.x, self.y, [self.t]])

    @staticmethod
    def from_coords(n, c) -> "HPoint":
        c = np.asarray(c, dtype=float)
        return HPoint(n, c[:n], c[n:2 * n], float(c[2 * n]))


def origin(n: int) -> HPoint:
    return HPoint(n, np.zeros(n), np.zeros(n), 0.0)


def group_mul(p: HPoint, q: HPoint) -> HPoint:
    if p.n != q.n:
        raise DimensionMismatch(f"cannot multiply points of H_{p.n} and H_{q.n}")
    t = p.t + q.t + float(p.y @ q.x - p.x @ q.y)
    return HPoint(p.n, p.x + q.x, p.y + q.y, t)


def group_inv(p: HPoint) -> HPoint:
    return HPoint(p.n, -p.x, -p.y, -p.t)


# ---------------------------------------------------------------------------
# tangent vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HTangent:
    """Tangent vector with both coordinate and left-invariant-frame components.

    ``coord`` is (d/dx, d/dy, d/dt)-components, ``frame`` is components in
    (e_1..e_n, e_{n+1}..e_{2n}, T).  The horizontal parts agree; only the last
    component differs by the change of basis at ``base``.
    """

    base: HPoint
    coord: np.ndarray
    frame: np.ndarray

    @staticmethod
    def from_coord(base: HPoint, coord) -> "HTangent":
        coord = np.asarray(coord, dtype=float)
        n = base.n
        if coord.shape != (2 * n + 1,):
            raise DimensionMismatch("coordinate components must have length 2n+1")
        frame = coord.copy()
        frame[2 * n] = frame_t_component(base.x, base.y, coord[:n], coord[n:2 * n],
                                         coord[2 * n])
        return HTangent(base, coord, frame)

    @staticmethod
    def from_frame(base: HPoint, frame) -> "HTangent":
        frame = np.asarray(frame, dtype=float)
        n = base.n
        if frame.shape != (2 * n + 1,):
            raise DimensionMismatch("frame components must have length 2n+1")
        coord = frame.copy()
        coord[2 * n] = coord_t_component(base.x, base.y, frame[:n], frame[n:2 * n],
                                         frame[2 * n])
        return HTangent(base, coord, frame)


def reeb(base: HPoint) -> HTangent:
    v = np.zeros(2 * base.n + 1)
    v[-1] = 1.0
    return HTangent.from_frame(base, v)


def frame_vector(base: HPoint, a: int) -> HTangent:
    """The left-invariant frame vector e_a (1-based, a in 1..2n)."""
    v = np.zeros(2 * base.n + 1)
    v[a - 1] = 1.0
    return HTangent.from_frame(base, v)


def contact_form(v: HTangent) -> float:
    """Theta(v); zero exactly on the horizontal distribution."""
    return float(v.frame[-1])


def complex_structure(v: HTangent, tol=HORIZONTAL_TOL) -> HTangent:
    """J v for horizontal v: frame components (a, b, 0) -> (-b, a, 0)."""
    theta = contact_form(v)
    if abs(theta) > tol:
        raise NonHorizontal(f"J is defined on ker Theta only; Theta(v) = {theta:.3e}")
    n = v.base.n
    frame = np.concatenate([-v.frame[n:2 * n], v.frame[:n], [0.0]])
    return HTangent.from_frame(v.base, frame)


def adapted_metric(v: HTangent, w: HTangent) -> float:
    """Riemannian metric in which (e_1..e_2n, T) is orthonormal."""
    if v.base != w.base:
        raise BaseMismatch("adapted metric requires a common base point")
    return float(v.frame @ w.frame)


# ---------------------------------------------------------------------------
# adapted frames at a point
# ---------------------------------------------------------------------------

def standard_j_block(n: int) -> np.ndarray:
    """Matrix of J on horizontal frame components: (a, b) -> (-b, a)."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


@dataclass(frozen=True, eq=False)
class FrameAtPoint:
    """An adapted orthonormal frame (e_1..e_n, Je_1..Je_n, T) at a point.

    ``cols`` holds the frame components of the columns; for a valid frame it
    is block-diagonal: a J-commuting rotation on the horizontal part and 1 in
    the T-slot.
    """

    base: HPoint
    cols: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cols", np.asarray(self.cols, dtype=float))
        d = 2 * self.base.n + 1
        if self.cols.shape != (d, d):
            raise InvalidFrame("frame needs 2n+1 columns of 2n+1 components")

    def column(self, a: int) -> HTangent:
        return HTangent.from_frame(self.base, self.cols[:, a])

    @property
    def rotation(self) -> np.ndarray:
        return self.cols[: 2 * self.base.n, : 2 * self.base.n]

    def residuals(self) -> dict:
        n = self.base.n
        R = self.rotation
        J0 = standard_j_block(n)
        tcol = np.zeros(2 * n + 1)
        tcol[-1] = 1.0
        return {
            "reeb_column": float(np.max(np.abs(self.cols[:, -1] - tcol))),
            "horizontal": float(np.max(np.abs(self.cols[-1, : 2 * n]))),
            "orthonormal": float(np.max(np.abs(R.T @ R - np.eye(2 * n)))),
            "j_compat": float(np.max(np.abs(R @ J0 - J0 @ R))),
        }

    def validate(self, tol=1e-10) -> None:
        res = self.residuals()
        bad = {k: v for k, v in res.items() if v > tol}
        if bad:
            raise InvalidFrame(f"frame invariants violated: {bad}")


def standard_frame(base: HPoint) -> FrameAtPoint:
    return FrameAtPoint(base, np.eye(2 * base.n + 1))


def hermitian_pairing(v: HTangent, frame: FrameAtPoint, beta: int,
                      tol=HORIZONTAL_TOL) -> complex:
    """<v, Z_beta> for Z_beta = (e_beta - i e_{n+beta})/2, conjugate-linear slot 2.

    With e_A orthonormal this gives <Z_beta, Z_beta> = 1/2.  beta is 1-based.
    """
    if abs(contact_form(v)) > tol:
        raise NonHorizontal("hermitian pairing requires a horizontal vector")
    if v.base != frame.base:
        raise BaseMismatch("vector and frame live at different points")
    n = v.base.n
    e_b = frame.cols[:, beta - 1]
    e_nb = frame.cols[:, n + beta - 1]
    return 0.5 * (float(v.frame @ e_b) + 1j * float(v.frame @ e_nb))


def levi_pairing(v: HTangent, frame: FrameAtPoint, beta: int,
                 tol=HORIZONTAL_TOL) -> complex:
    """Levi-metric pairing <v, Z_beta>, normalised so the Z_beta are unit.

    Equals twice :func:`hermitian_pairing`; on this normalisation the component
    vector of a horizontal v has squared length equal to the adapted metric
    of v, which is the normalisation the invariant identities use.
    """
    return 2.0 * hermitian_pairing(v, frame, beta, tol)

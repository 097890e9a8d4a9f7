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

from .errors import DimensionMismatch

__all__ = ["HPoint", "origin", "group_inv", "frame_t_component",
           "coord_t_component", "standard_j_block"]


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


def group_inv(p: HPoint) -> HPoint:
    return HPoint(p.n, -p.x, -p.y, -p.t)


# ---------------------------------------------------------------------------
# the complex structure
# ---------------------------------------------------------------------------

def standard_j_block(n: int) -> np.ndarray:
    """Matrix of J on horizontal frame components: (a, b) -> (-b, a)."""
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J

"""Verticality classification (defined in ``darboux``) and the flat/sphere
rigidity detectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets, psh
from .darboux import (COMPLETELY_NON_VERTICAL, MIXED, VERTICAL,  # noqa: F401
                      VerticalityClass, classify)
from .errors import NotFlat, NotTorsionFree, WrongClass
from .heis import HPoint
from .invariants import Analysis

__all__ = ["VerticalityClass", "SphereFit", "RigidMotionFit", "classify",
           "detect_flat", "detect_sphere", "constant_curvature_check"]


@dataclass(frozen=True)
class SphereFit:
    center: HPoint
    radius: float
    center_residual: float
    radius_residual: float


@dataclass(frozen=True)
class RigidMotionFit:
    motion: psh.PSHElement
    image_residual: float


def _require(cond, exc, msg):
    if not cond:
        raise exc(msg)


def detect_flat(an: Analysis, tol=1e-7) -> RigidMotionFit:
    """Fit a rigid motion carrying the model vertical subgroup onto the surface.

    Requires a vertical surface of codimension one with vanishing second
    fundamental form; the returned motion is the Darboux frame at the base
    corner, and the residual is the largest normal coordinate left after
    undoing the motion.
    """
    ff = an.ff
    n = an.n
    _require(an.codim == 1, WrongClass, "flat detector needs codimension one")
    cls = classify(ff.nu_norm)
    _require(cls.kind == VERTICAL, WrongClass,
             f"flat detector needs a vertical surface (class {cls.kind})")
    iimax = float(np.max(np.sqrt(an.II_norm2)))
    _require(iimax < tol, NotFlat,
             f"second fundamental form reaches {iimax:.2e} (tol {tol:.0e})")

    motion = ff.psh_at((0,) * an.d)

    inv = psh.inverse(motion)
    X = jets.values(ff.X)
    ones = np.ones((1,) + an.batch)
    moved = np.einsum("rc,c...->r...", inv.mat, np.concatenate([ones, X]))
    resid = max(float(np.max(np.abs(moved[n]))),
                float(np.max(np.abs(moved[2 * n]))))
    return RigidMotionFit(motion, resid)


def detect_sphere(an: Analysis, tol=1e-7) -> SphereFit:
    """Recover the centre and radius of a torsion-free non-vertical surface.

    In the nu-adapted gauge the rescaled last frame leg points from a common
    centre to each surface point; the centre coordinates follow by undoing
    the left-invariant frame at the point, and the radius is 1/|nu|.
    """
    ff = an.ff
    n = an.n
    _require(an.codim == 1, WrongClass, "sphere detector needs codimension one")
    cls = classify(ff.nu_norm)
    _require(cls.kind == COMPLETELY_NON_VERTICAL, WrongClass,
             f"sphere detector needs a completely non-vertical surface "
             f"(class {cls.kind})")
    _require(ff.policy == "nu", WrongClass,
             "sphere detector expects frames in the nu-adapted gauge")
    amax = float(np.max(np.sqrt(an.torsion_norm2)))
    _require(amax < tol, NotTorsionFree,
             f"pseudohermitian torsion reaches {amax:.2e} (tol {tol:.0e})")

    nu = ff.nu_norm
    a = jets.values(ff.legs_jn[0][:2 * n]) / nu               # (2n, batch)
    X = jets.values(ff.X)
    cx = X[:n] - a[:n]
    cy = X[n:2 * n] - a[n:2 * n]
    ct = X[2 * n] - (np.einsum("b...,b...->...", a[:n], cy)
                     - np.einsum("b...,b...->...", a[n:2 * n], cx))
    centers = np.concatenate([cx, cy, ct[None]]).reshape(2 * n + 1, -1)
    center = np.median(centers, axis=1)
    center_resid = float(np.max(np.abs(centers - center[:, None])))
    radii = (1.0 / nu).reshape(-1)
    radius = float(np.median(radii))
    radius_resid = float(np.max(np.abs(radii - radius)))
    return SphereFit(HPoint.from_coords(n, center), radius, center_resid,
                     radius_resid)


def constant_curvature_check(an: Analysis, tol=1e-7) -> dict:
    """Spread of the scalar curvature over the grid for torsion-free surfaces."""
    cls = classify(an.ff.nu_norm)
    _require(cls.kind == COMPLETELY_NON_VERTICAL, WrongClass,
             f"constant-curvature check needs class CompletelyNonVertical "
             f"(got {cls.kind})")
    amax = float(np.max(np.sqrt(an.torsion_norm2)))
    _require(amax < tol, NotTorsionFree,
             f"pseudohermitian torsion reaches {amax:.2e} (tol {tol:.0e})")
    R = an.curvature["scalar"]
    spread = float(np.max(R) - np.min(R))
    mean = float(np.mean(R))
    return {"spread": spread, "mean": mean, "tol": tol,
            "pass": spread < tol * (1 + abs(mean))}

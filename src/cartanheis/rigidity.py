"""Verticality classification (defined in ``darboux``) and the flat/sphere
rigidity detectors: ``fit_*`` and ``curvature_spread`` read order-0 arrays
and a verticality class, ``detect_*`` and ``constant_curvature_check``
apply them to one ``Analysis``."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets, psh
from .darboux import (COMPLETELY_NON_VERTICAL, MIXED, VERTICAL,  # noqa: F401
                      VerticalityClass, classify)
from .errors import NotFlat, NotTorsionFree, WrongClass
from .heis import HPoint
from .invariants import Analysis

__all__ = ["VerticalityClass", "SphereFit", "RigidMotionFit", "classify", "fit_flat",
           "fit_sphere", "curvature_spread", "detect_flat", "detect_sphere",
           "constant_curvature_check"]


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


def fit_flat(kind, codim, corner, X, II_norm2, tol=1e-7) -> RigidMotionFit:
    """Fit a rigid motion carrying the model vertical subgroup onto a surface.

    Requires a vertical surface (``kind``, its verticality class) of
    codimension one with vanishing second fundamental form (``II_norm2``,
    |II|^2 at each point); the returned motion is ``corner``, the Darboux
    frame at the base corner, and the residual is the largest normal
    coordinate of the points ``X`` (2n+1, *batch) left after undoing it.
    """
    n = corner.n
    _require(codim == 1, WrongClass, "flat detector needs codimension one")
    _require(kind == VERTICAL, WrongClass,
             f"flat detector needs a vertical surface (class {kind})")
    iimax = float(np.max(np.sqrt(II_norm2)))
    _require(iimax < tol, NotFlat,
             f"second fundamental form reaches {iimax:.2e} (tol {tol:.0e})")
    inv = psh.inverse(corner)
    ones = np.ones((1,) + X.shape[1:])
    moved = np.einsum("rc,c...->r...", inv.mat, np.concatenate([ones, X]))
    resid = float(np.max(np.abs(moved[[n, 2 * n]])))
    return RigidMotionFit(corner, resid)


def fit_sphere(kind, codim, policy, X, leg, nu, torsion_norm2, tol=1e-7) -> SphereFit:
    """Recover the centre and radius of a torsion-free non-vertical surface.

    In the nu-adapted gauge (``policy``) the first normal leg Je_{m+1},
    rescaled by 1/|nu|, points from a common centre to each surface point;
    the centre coordinates follow by undoing the left-invariant frame at the
    point, and the radius is 1/|nu|.  ``X`` (2n+1, *batch) holds the points,
    ``leg`` (2n, *batch) the first 2n frame components of the leg, and
    ``torsion_norm2`` |A|^2.
    """
    n = X.shape[0] // 2
    _require(codim == 1, WrongClass, "sphere detector needs codimension one")
    _require(kind == COMPLETELY_NON_VERTICAL, WrongClass,
             f"sphere detector needs a completely non-vertical surface "
             f"(class {kind})")
    _require(policy == "nu", WrongClass,
             "sphere detector expects frames in the nu-adapted gauge")
    amax = float(np.max(np.sqrt(torsion_norm2)))
    _require(amax < tol, NotTorsionFree,
             f"pseudohermitian torsion reaches {amax:.2e} (tol {tol:.0e})")
    a = leg / nu
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


def curvature_spread(kind, torsion_norm2, R, tol=1e-7) -> dict:
    """Spread of the scalar curvature ``R`` over the grid for torsion-free
    surfaces (``torsion_norm2`` |A|^2)."""
    _require(kind == COMPLETELY_NON_VERTICAL, WrongClass,
             f"constant-curvature check needs class CompletelyNonVertical "
             f"(got {kind})")
    amax = float(np.max(np.sqrt(torsion_norm2)))
    _require(amax < tol, NotTorsionFree,
             f"pseudohermitian torsion reaches {amax:.2e} (tol {tol:.0e})")
    spread = float(np.max(R) - np.min(R))
    mean = float(np.mean(R))
    return {"spread": spread, "mean": mean, "tol": tol,
            "pass": spread < tol * (1 + abs(mean))}


# the fits of one Analysis, with the class its frame's plan gives at TOL_CLASS

def detect_flat(an: Analysis, tol=1e-7) -> RigidMotionFit:
    return fit_flat(an.ff.plan.verticality().kind, an.codim,
                    an.ff.psh_at((0,) * len(an.batch)), jets.values(an.ff.X),
                    an.II_norm2, tol)


def detect_sphere(an: Analysis, tol=1e-7) -> SphereFit:
    ff = an.ff
    leg = jets.values(ff.legs_jn[0][:2 * an.n]) if an.codim else None
    return fit_sphere(ff.plan.verticality().kind, an.codim, ff.policy,
                      jets.values(ff.X), leg, ff.nu_norm, an.torsion_norm2, tol)


def constant_curvature_check(an: Analysis, tol=1e-7) -> dict:
    return curvature_spread(an.ff.plan.verticality().kind, an.torsion_norm2,
                            an.curvature["scalar"], tol)

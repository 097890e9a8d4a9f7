"""Darboux frame fields along a submanifold and their logarithmic derivatives.

The builder evaluates an immersion as truncated Taylor jets over a chart
lattice and constructs, branch-free so that whole grids flow through numpy:

  * an orthonormal basis of the contact intersection TM ∩ ker Θ, adapted to
    the complex structure (legs come in pairs e_j, Je_j),
  * the induced Reeb field T̂ and the fundamental vector field ν = T̂ − T,
  * an orthonormal normal frame inside the horizontal complement,
  * the resulting group-valued moving frame A(u) and its derivative
    ω = A⁻¹ dA, the source of every invariant downstream.

Because frames are built by fixed-order Gram–Schmidt from smooth seed
fields, the output varies smoothly over the chart; derivative exactness is
limited only by how the immersion jets were produced (exact in AD mode,
O(step²..⁴) in FD mode).

The choices a build makes over its whole batch (pivot, seeds, gauge,
normal candidates) form a ``FramePlan``.  ``plan_frame`` makes them once
over a grid from first-order jets; a frame built on a ``GridBlock`` of that
grid with the plan then agrees with the whole-grid frame at every point
of the block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from . import certify, dsl, heis, jets, psh
from .errors import (DimensionMismatch, DomainError, NotCRInvariant, SingularPoint,
                     WrongClass)
from .heis import HPoint

__all__ = ["ChartGrid", "GridBlock", "FramePlan", "plan_frame", "FrameField",
           "MCForm", "darboux_frame", "darboux_derivative", "contact_intersection",
           "reeb_and_nu", "classify", "VerticalityClass"]

POLICIES = ("auto", "canonical", "nu", "reverse")
TOL_SINGULAR = 1e-8
TOL_CR = 1e-8
TOL_CLASS = 1e-7   # |nu| threshold between vertical and non-vertical points
# the Tanaka-Webster solve needs a dual coframe condition at least this large
TOL_COFRAME = 1e-10
# FD jets carry O(step^2..4) truncation error: in FD mode the chart-validity
# gates and the CLI's residual thresholds relax by this factor
FD_TOL_FACTOR = 1e4
FRAME_ORDER = 3    # jet order of the immersion a frame is built from
NU = -1            # the normal candidate -nu in ``FramePlan.normals``

VERTICAL, COMPLETELY_NON_VERTICAL, MIXED = ("Vertical", "CompletelyNonVertical",
                                            "Mixed")


@dataclass(frozen=True)
class VerticalityClass:
    kind: str
    nu_min: float
    nu_max: float
    tol: float


def classify(nu_norm, tol=TOL_CLASS) -> VerticalityClass:
    """Vertical / completely non-vertical / mixed, from the |nu| field."""
    nu = np.asarray(nu_norm, dtype=float)
    lo, hi = float(np.min(nu)), float(np.max(nu))
    if hi < tol:
        kind = VERTICAL
    elif lo > tol:
        kind = COMPLETELY_NON_VERTICAL
    else:
        kind = MIXED
    return VerticalityClass(kind, lo, hi, tol)


# ---------------------------------------------------------------------------
# chart lattices
# ---------------------------------------------------------------------------

class ChartGrid:
    """Uniform lattice over an immersion's chart box (endpoints included)."""

    def __init__(self, chart, counts):
        d = len(chart)
        if np.isscalar(counts):
            counts = [int(counts)] * d
        if len(counts) != d:
            raise DimensionMismatch("one sample count per chart axis required")
        if any(c < 1 for c in counts):
            raise DimensionMismatch("grid counts must be positive")
        self.chart = [(float(lo), float(hi)) for lo, hi in chart]
        self.counts = [int(c) for c in counts]
        self.axes = [np.linspace(lo, hi, c) if c > 1 else np.array([(lo + hi) / 2])
                     for (lo, hi), c in zip(self.chart, self.counts)]
        self.shape = tuple(self.counts)
        self.spacing = [ax[1] - ax[0] if len(ax) > 1 else (hi - lo)
                        for ax, (lo, hi) in zip(self.axes, self.chart)]
        self.points = list(np.meshgrid(*self.axes, indexing="ij"))

    def __reduce__(self):
        # pickled as its chart and counts, not its points
        return ChartGrid, (self.chart, self.counts)

    @property
    def ndim(self):
        return len(self.axes)

    @property
    def npoints(self):
        return int(np.prod(self.shape))

    def flat_index(self, flat):
        return np.unravel_index(flat, self.shape)

    def blocks(self, count):
        """``count`` near-equal contiguous ranges of the C-order flat index."""
        return [GridBlock(self, lo, hi) for lo, hi in partition(self.npoints, count)]


def partition(size, count):
    """``count`` near-equal contiguous ranges (lo, hi) that cover range(size):
    the sweep's blocks, the holonomy's slabs and the Magnus sweep's chunks."""
    bounds = [k * size // count for k in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


class GridBlock:
    """Points ``start:stop`` of a grid's C-order flat index, as a 1-D batch.

    A view of the parent grid: the points are slices of its points, the
    spacing is its spacing (finite-difference steps follow the lattice), and
    ``flat_index`` names the parent's grid index.
    """

    def __init__(self, grid, start, stop):
        self.parent, self.start, self.stop = grid, start, stop
        self.chart, self.spacing = grid.chart, grid.spacing
        self.shape = (stop - start,)
        self.points = [p.reshape(-1)[start:stop] for p in grid.points]

    def __reduce__(self):
        return GridBlock, (self.parent, self.start, self.stop)

    @property
    def npoints(self):
        return self.stop - self.start

    def flat_index(self, flat):
        return self.parent.flat_index(self.start + flat)


# ---------------------------------------------------------------------------
# jet linear algebra
# ---------------------------------------------------------------------------

def _solve(A, B):
    """A^{-1} B for a square jet matrix A and a jet or constant matrix B.

    The value part is inverted pointwise; the nilpotent rest N = A - A(0)
    is removed by the steps X <- A(0)^{-1} (B - N X), which are exact after
    ``order`` steps because every product of order + 1 factors of N vanishes.
    """
    A0inv = np.linalg.inv(A.value)
    N = A.nilpotent_part()
    X = A0inv @ B
    for _ in range(A.ctx.order):
        X = A0inv @ (B - N @ X)
    return X if isinstance(X, jets.Jet) else jets.Jet(A.ctx, X[None], A.nt)


def _project_out(w, legs):
    """w minus its components along the orthonormal legs, one leg at a time."""
    for e in legs:
        w = w - (w @ e) * e
    return w


@lru_cache(maxsize=None)
def _j_matrix(n):
    """J on frame components as a matrix acting on rows."""
    return np.pad(heis.standard_j_block(n), (0, 1)).T


def _apply_j(f):
    """J on frame components, (a, b, t) -> (-b, a, 0)."""
    return f @ _j_matrix((f.shape[-1] - 1) // 2)


def _chart_tangents(X, low, grid):
    """Frame components of the chart tangent vectors d_i, one order below X.

    Column i holds d_i X with the last row turned into the contact pairing
    theta(d_i); ``low`` is X truncated one order down.  The support is
    pruned to the coefficients that are nonzero somewhere: the support of X
    is shared by all its coordinates, so on a flat surface the contact row
    would otherwise carry the chart axis t depends on.  The pairing can
    overflow where X is finite: it is formed with numpy's warnings silenced,
    and a tangent that is not finite raises DomainError at its first index
    on ``grid``.
    """
    n = (X.shape[-1] - 1) // 2
    XiF = X.jacobian()
    with np.errstate(over="ignore", invalid="ignore"):
        XiF[2 * n] = heis.frame_t_component(low[:n], low[n:2 * n], XiF[:n],
                                            XiF[n:2 * n], XiF[2 * n])
    return _finite(XiF, grid, "chart tangents").pruned()


def _tangent_legs(XiF, t, k0, seeds, m, floor=None):
    """J-adapted Gram-Schmidt over the seed fields V_i = d_i - t_i d_k0.

    Returns the legs e_1, Je_1, e_2, Je_2, ... and the seeds used.  With a
    ``floor``, a seed whose projected squared norm dips below it anywhere is
    skipped as spanned by earlier complex legs.
    """
    tangent, used = [], []
    for i in seeds:
        if len(tangent) == 2 * m:
            break
        w = _project_out(XiF[:, i] - t[i] * XiF[:, k0], tangent)
        n2 = w @ w
        if floor is not None and np.min(n2.value) < floor:
            continue
        e = w * n2.sqrt().reciprocal()
        tangent += [e, _apply_j(e)]
        used.append(i)
    return tangent, tuple(used)


def _normal_legs(cands, tangent, nu, nu_norm2, count, floor=None):
    """Normal legs e_a, Je_a from the candidates (``NU`` or an ambient axis).

    -nu = T - That is orthogonal to the tangent legs already; an ambient
    frame axis is projected off the legs so far.  With a ``floor``, a
    candidate whose squared norm dips below it anywhere is skipped.
    """
    normal, used = [], []
    for i in cands:
        if len(normal) == 2 * count:
            break
        if i == NU:
            w, n2 = -nu, nu_norm2
        else:
            axis = np.eye(nu.shape[-1])[i]
            w = _project_out(jets.constant(nu.ctx, axis, nu.batch_shape),
                             tangent + normal)
            n2 = w @ w
        if floor is not None and np.min(n2.value) < floor:
            continue
        e = w * n2.sqrt().reciprocal()
        normal += [e, _apply_j(e)]
        used.append(i)
    return normal, tuple(used)


# ---------------------------------------------------------------------------
# the frame plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FramePlan:
    """Every batch-wide decision of a frame build, made once over a grid.

    A frame build picks the transverse pivot axis, the tangent seeds that
    survive the ``(1e-6 scale)^2`` test, the gauge (``auto`` resolved from
    the verticality class at ``TOL_CLASS``) and the normal candidates (in
    the order of their projected norms at the grid centre, less those that
    come within 1e-12 of zero).  A frame built on a block of the grid with
    this plan makes none of these choices itself, so its columns agree
    with the whole-grid build at every point of the block.

    ``seeds`` are chart axes; ``normals`` are ambient frame axes (X_1..X_n,
    Y_1..Y_n as 0..2n-1) or ``NU`` for -nu.  ``nu_min``, ``nu_max`` and
    ``nu_mean`` summarise |nu| over the grid, and ``verticality`` classifies
    the grid from them for every reader: the report, the sweep's residuals
    and the rigidity detectors.  ``condition`` is a lower
    bound on the smallest ratio of singular values of the dual tangent frame
    over the grid, which the Tanaka-Webster solve checks against
    ``TOL_COFRAME`` (``coframe_condition``): a certified bound where it
    clears twice the gate at every point, and the exact SVD minimum
    otherwise, so it is exact wherever the gate could fail.
    ``plan_frame`` sets it, so that every block checks the grid's value.  A
    frame's own plan leaves it None, and ``FrameField.condition`` computes
    it from the frame when asked; ``MCForm.lifted`` hands it on.
    """

    n: int
    policy: str
    nu_min: float
    nu_max: float
    nu_mean: float
    pivot: int
    seeds: tuple
    normals: tuple
    condition: float | None = None

    def verticality(self, tol=TOL_CLASS) -> VerticalityClass:
        """The verticality class of the grid at ``tol``."""
        return classify((self.nu_min, self.nu_max), tol)

    def decisions(self) -> dict:
        """The decisions as report entries; ambient axes are named X_j, Y_j."""
        names = ["-nu" if i == NU else
                 f"X{i + 1}" if i < self.n else f"Y{i - self.n + 1}"
                 for i in self.normals]
        return {"gauge": {"class": self.verticality().kind, "nu_min": self.nu_min},
                "pivot_axis": self.pivot, "tangent_seed_axes": list(self.seeds),
                "normal_candidates": names}


def _frame_legs(XiF, grid, n, m, policy, mode, plan=None):
    """The legs of a frame from its chart tangents ``XiF`` (``_chart_tangents``).

    Returns the tangent legs (e_1, Je_1, ...), That, nu, |nu|^2, the chart
    components of (e_j, Je_j, That) one order below XiF, the coframe matrix
    they invert (order 0), the normal legs (e_a, Je_a, ...) and the plan.
    Given a plan, every batch-wide choice is read from it.  Without one,
    each is made here from the values over the batch, the value checks run
    (the contact singularity, the pivot, CR invariance, the tangent and
    normal frames and the nu-gauge guard), and the choices come back as the
    batch's plan.  The checks use the gates of ``mode`` (``_tolerances``).
    """
    tol_singular, tol_cr = _tolerances(mode)
    d = 2 * m + 1
    N = 2 * n + 1
    theta = XiF[2 * n]
    if plan is None:
        th_vals = jets.values(theta)
        size = np.max(np.abs(XiF.value).reshape(grid.npoints, -1), axis=1)
        scale = max(float(np.max(size)), 1e-15)
        # the frame checks compare squared tangents with scale^2
        if math.isinf(scale * scale):
            raise DomainError("chart tangents too large: their square overflows",
                              location=_location(grid, np.argmax(size)))
        worst = np.max(np.abs(th_vals), axis=0)
        if not np.min(worst) >= tol_singular * scale:
            loc = _location(grid, np.argmin(worst.reshape(-1)))
            raise SingularPoint(
                "contact form vanishes on the whole tangent space "
                f"(dim TM ∩ ker Θ > 2m) near grid index {loc}", location=loc)
        mins = np.min(np.abs(th_vals.reshape(d, -1)), axis=1)
        k0 = int(np.argmax(mins))
        if not mins[k0] >= tol_singular * scale:
            raise SingularPoint(
                "no chart direction is uniformly transverse to ker Θ; "
                "refine or shrink the chart box")
    else:
        k0 = plan.pivot

    # y0 = d_k0 / theta(d_k0) is transverse; V_i = d_i - t_i d_k0 with
    # t_i = theta(d_i) / theta(d_k0) (i != k0) span TM ∩ ker Θ
    recip = theta[k0].reciprocal()
    t = theta * recip
    if plan is None:
        others = [i for i in range(d) if i != k0]
        _check_cr_invariance(XiF.value[..., others] - XiF.value[..., k0:k0 + 1]
                             * t.value[..., None, others], n, scale, tol_cr, grid)
        # the seeds are horizontal: their floor follows the horizontal rows,
        # not the contact row, which grows as the square of the tangents
        hscale = max(float(np.max(np.abs(XiF.value[..., :2 * n, :]))), 1e-15)
        tangent, seeds = _tangent_legs(XiF, t, k0, others[::-1] if policy == "reverse"
                                       else others, m, floor=(1e-6 * hscale) ** 2)
        if len(tangent) != 2 * m:
            raise NotCRInvariant("could not complete a J-adapted tangent frame; "
                                 "seed fields degenerate on this chart")
    else:
        tangent, seeds = _tangent_legs(XiF, t, k0, plan.seeds, m)

    # induced Reeb field and fundamental vector field
    that = _project_out(XiF[:, k0] * recip, tangent)
    nu = that - np.eye(N)[2 * n]
    nu_norm2 = nu @ nu
    if plan is None:
        nu_norm = np.sqrt(np.maximum(nu_norm2.value, 0.0))
        cls = classify(nu_norm)
        if policy == "auto":
            policy = "nu" if cls.kind == COMPLETELY_NON_VERTICAL and n - m == 1 \
                else "canonical"
    else:
        policy = plan.policy

    # chart components of (e_j, Je_j, That), one order below the legs:
    # they are the dual basis of the coframe K = (e_j . d_i, Je_j . d_i,
    # theta(d_i)), since the legs are orthonormal and horizontal and
    # That is orthogonal to them with theta(That) = 1
    low = max(XiF.ctx.order - 1, 0)
    legs = jets.stack([e.truncated(low) for e in tangent[0::2] + tangent[1::2]])
    K = jets.stack([*(legs @ XiF.truncated(low)), theta.truncated(low)])
    charts = _solve(K, np.eye(d)).T

    if plan is None:
        cands = list(range(2 * n)) if n > m else []
        if n > m and policy == "nu":
            if np.min(nu_norm2.value) < (10 * tol_singular) ** 2:
                raise WrongClass("nu-adapted gauge needs a completely "
                                 "non-vertical surface")
            cands.insert(0, NU)
        elif n > m:
            # keep candidate order but drop ones that die at the centre first
            centre = tuple(s // 2 for s in grid.shape)
            at = [e.value[centre] for e in tangent]
            cands.sort(key=lambda i: -np.linalg.norm(_project_out(np.eye(N)[i], at)))
        normal, normals = _normal_legs(cands, tangent, nu, nu_norm2, n - m,
                                       floor=1e-12)
        if len(normal) != 2 * (n - m):
            raise SingularPoint("could not complete the normal frame")
        plan = FramePlan(n=n, policy=policy, nu_min=cls.nu_min, nu_max=cls.nu_max,
                         nu_mean=float(np.mean(nu_norm)), pivot=k0, seeds=seeds,
                         normals=normals)
    else:
        normal, _ = _normal_legs(plan.normals, tangent, nu, nu_norm2, n - m)
    return tangent, that, nu, nu_norm2, charts, K.truncated(0), normal, plan


def _location(grid, flat):
    return tuple(int(i) for i in grid.flat_index(int(flat)))


def coframe_condition(charts, coframe):
    """Smallest ratio of singular values of the chart matrices over the
    batch, or a lower bound of it that clears twice ``TOL_COFRAME``.

    ``coframe`` is the coframe matrix that ``charts`` inverts (the two jets
    ``_frame_legs`` returns).  The certified bound
    (``certify.condition_bound``) is returned when it clears twice the gate
    at every point; otherwise the per-point SVD gives the exact minimum.
    The factor two covers the SVD's own rounding, so the gate decides alike
    on both.
    """
    M = jets.values(charts)                            # (d, d, batch)
    bound = float(np.min(certify.condition_bound(M, jets.values(coframe))))
    if bound >= 2 * TOL_COFRAME:
        return bound
    M = np.moveaxis(M.reshape(M.shape[:2] + (-1,)), -1, 0)
    sv = np.linalg.svd(M, compute_uv=False)
    return float(np.min(sv[:, -1] / sv[:, 0]))


def _check_cr_invariance(Vf, n, scale, tol_cr, grid):
    """Raise NotCRInvariant where J maps a seed field off the seeds' span.

    The batch is first certified in bulk (``certify.cr_clears``); the
    normal-equations check below runs only when some point is not
    certified, and it alone decides and names the grid index.  A seed Gram
    matrix that is singular in floating point is a DomainError at its
    first grid index.
    """
    M = Vf.reshape((-1,) + Vf.shape[-2:])             # (N, 2n+1, 2m)
    if certify.cr_clears(M, n, tol_cr * max(scale, 1.0)):
        return
    G = np.einsum("nia,nib->nab", M, M)
    Jf = np.concatenate([-M[:, n:2 * n], M[:, :n], np.zeros_like(M[:, :1])],
                        axis=1)
    rhs = np.einsum("nia,nib->nab", M, Jf)             # (N, 2m, 2m)
    try:
        coef = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError:
        raise DomainError("the Gram matrix of the tangent seeds is singular",
                          location=_location(grid, _first_singular(G))) from None
    resid = Jf - np.einsum("nia,nab->nib", M, coef)
    err = np.sqrt(np.einsum("nib,nib->nb", resid, resid))
    worst = float(np.max(err))
    if not worst <= tol_cr * max(scale, 1.0):
        loc = _location(grid, np.argmax(np.max(err, axis=1)))
        raise NotCRInvariant(
            f"TM ∩ ker Θ is not J-invariant (residual {worst:.2e}) near grid "
            f"index {loc}", location=loc, residual=worst)


def _first_singular(G):
    """The first index of the stack G whose matrix LAPACK finds singular."""
    for p, g in enumerate(G):
        try:
            np.linalg.solve(g, np.eye(len(g)))
        except np.linalg.LinAlgError:
            return p
    raise AssertionError("no singular matrix in the stack")


def _check_policy(policy):
    if policy not in POLICIES:
        raise ValueError(f"unknown frame gauge {policy!r}; "
                         f"accepted: {', '.join(POLICIES)}")


def _tolerances(mode):
    """The chart-validity gates TOL_SINGULAR and TOL_CR, relaxed by
    FD_TOL_FACTOR in FD mode."""
    if mode == "fd":
        return TOL_SINGULAR * FD_TOL_FACTOR, TOL_CR * FD_TOL_FACTOR
    return TOL_SINGULAR, TOL_CR


def _finite(X, grid, what="immersion or its derivatives"):
    """X, after checking that every jet coefficient is finite.

    Raises DomainError at the first grid index where one is not; the jet
    products skip terms whose factor is a structural zero, which is exact
    only for finite operands.
    """
    ok = np.isfinite(X.c)
    if not ok.all():
        points = int(np.prod(X.batch_shape))
        loc = _location(grid, np.argmin(np.moveaxis(ok, 0, -1).reshape(points, -1)
                                        .all(axis=1)))
        raise DomainError(f"{what} not finite", location=loc)
    return X


def _jets(imm, grid, order, mode):
    """The immersion's jets over the grid, checked finite: exact in AD mode,
    by central differences (``dsl.fd_jets``) in FD mode, with steps of half
    the grid spacing."""
    if mode == "ad":
        X = imm.jets(grid.points, order=order)
    else:
        X = dsl.fd_jets(imm.values, imm.nparams, grid.points, order,
                        [0.5 * s for s in grid.spacing])
    return _finite(X, grid)


def _immersion_jets(imm, grid, order, mode):
    """The immersion's jets over the grid, after the rank check on the exact
    Jacobian (in AD mode, the gradient of the jets themselves)."""
    X = _jets(imm, grid, order if mode == "ad" else 1, "ad")
    imm.rank_check(X.gradient())
    return X if mode == "ad" else _jets(imm, grid, order, mode)


def plan_frame(imm, grid, policy="canonical", mode="ad") -> FramePlan:
    """The plan pass: every decision of a frame build over ``grid``, made once.

    Reads first-order jets of the immersion over the whole grid and builds
    the legs at order 0, so it costs a small part of a frame build and holds
    no jet field afterwards.  Every check a default frame build would make
    runs here over the whole grid, in the same order and with the same
    located errors: the domain of the immersion (in FD mode its whole
    stencil), the rank check and the frame's value checks.  It also sets the
    grid's coframe condition.
    """
    _check_policy(policy)
    X = _immersion_jets(imm, grid, 1, mode)
    legs = _frame_legs(_chart_tangents(X, X.truncated(0), grid), grid, imm.n, imm.m,
                       policy, mode)
    return replace(legs[-1], condition=coframe_condition(legs[4], legs[5]))


# ---------------------------------------------------------------------------
# the frame field
# ---------------------------------------------------------------------------

class FrameField:
    """Adapted moving frame of an immersed submanifold over a chart grid.

    ``policy`` selects the tangent/normal Gram-Schmidt seeding:
      - "canonical": chart-axis seeds in their natural order (default);
      - "reverse": reversed tangent seed order (a different smooth gauge);
      - "nu": normal gauge with first normal leg -nu/|nu| (requires the
        surface to be completely non-vertical on the grid);
      - "auto": "nu" on a completely non-vertical hypersurface (n - m = 1,
        |nu| classified by ``classify`` at ``TOL_CLASS``), otherwise
        "canonical"; ``self.policy`` then holds the gauge used.
    ``normal_phases`` optionally rotates each normal pair (e_a, Je_a) by a
    fixed angle, i.e. replaces Z_a by e^{i psi} Z_a.

    The build follows a ``FramePlan`` (``self.plan``).  Without one it
    plans from its own batch, through the same function as ``plan_frame``,
    and makes every check at construction, with the located errors of a
    plan pass; given one (planned over a whole grid, ``grid`` then a
    ``GridBlock`` of it), it takes the gauge and every decision from the
    plan and makes no check of its own: the plan pass made them all.

    A planned build reads immersion jets of ``FRAME_ORDER``: second-order
    legs, first-order Maurer-Cartan slots and charts.  A build without a
    plan reads them one order lower, which gives every first-order
    invariant (|nu|, the second fundamental form, the torsion) with the
    same values, bit for bit, since jet arithmetic is graded.  What needs
    second-order data reads ``MCForm.lifted``, the form of this frame
    rebuilt at ``FRAME_ORDER``.  Pass ``plan=plan_frame(imm, grid, ...)``
    for a single full-order build.

    Every field is one tensor jet over the grid: vectors of frame
    components have length 2n+1, and the legs are stacked as rows
    (``legs_t``, ``legs_jt``: (m, 2n+1); ``legs_n``, ``legs_jn``:
    (n-m, 2n+1)).  ``charts`` holds the chart components of e_1..e_m,
    Je_1..Je_m and the induced Reeb field, (2m+1, d), and
    ``coframe_matrix`` the order-0 coframe matrix they invert, (2m+1, d):
    rows e_j . d_i, Je_j . d_i and theta(d_i).
    """

    def __init__(self, imm, grid, policy="canonical", mode="ad", normal_phases=None,
                 plan=None):
        _check_policy(policy)
        self.imm = imm
        self.grid = grid
        self.mode = mode
        self.n = imm.n
        self.m = imm.m
        self.d = imm.nparams
        self.normal_phases = normal_phases
        self.plan = plan
        self.policy = policy if plan is None else plan.policy
        # a planned build's checks ran in the plan pass
        self._build(_immersion_jets(imm, grid, FRAME_ORDER - 1, mode) if plan is None
                    else _jets(imm, grid, FRAME_ORDER, mode))

    # -- construction ---------------------------------------------------

    def _build(self, Xfull):
        n, m, d = self.n, self.m, self.d
        self.ctx = jets.context(d, Xfull.ctx.order - 1)
        self.batch = self.grid.shape
        self.X = Xfull.truncated(self.ctx.order)
        XiF = self.XiF = _chart_tangents(Xfull, self.X, self.grid)
        self.theta_slots = XiF[2 * n]
        (tangent, self.that_frame, self.nu_frame, self.nu_norm2, self.charts,
         self.coframe_matrix, normal, self.plan) = _frame_legs(
             XiF, self.grid, n, m, self.policy, self.mode, self.plan)
        self.policy = self.plan.policy

        phases = () if self.normal_phases is None else self.normal_phases
        for a, psi in zip(range(n - m), phases):
            c, s = float(np.cos(psi)), float(np.sin(psi))
            e = c * normal[2 * a] + s * normal[2 * a + 1]
            normal[2 * a:2 * a + 2] = [e, _apply_j(e)]
        # the frame columns, row c holding column c: e_1..e_n, Je_1..Je_n, T;
        # the legs are views of its rows
        N = 2 * n + 1
        tcol = jets.constant(self.ctx, np.eye(N)[2 * n], self.batch)
        cols = self._cols = jets.stack(tangent[0::2] + normal[0::2] + tangent[1::2]
                                       + normal[1::2] + [tcol])
        self.legs_t, self.legs_n = cols[:m], cols[m:n]
        self.legs_jt, self.legs_jn = cols[n:n + m], cols[n + m:2 * n]

        # fundamental vector field components against the normal legs (Levi
        # normalisation: nu = sum_a nu_comp[a] Z_a + conj, |nu|^2 = sum |nu_comp|^2)
        self.nu_comp = self.legs_n @ self.nu_frame + 1j * (self.legs_jn @ self.nu_frame)

    @cached_property
    def condition(self):
        """The coframe condition the Tanaka-Webster solve checks: the plan's
        ``FramePlan.condition``, or for a frame that planned itself the same
        quantity from its own charts (``coframe_condition``)."""
        if self.plan.condition is None:
            return coframe_condition(self.charts, self.coframe_matrix)
        return self.plan.condition

    # -- assembled frame ---------------------------------------------------

    @cached_property
    def frame_cols(self):
        """Frame components of the Darboux columns (e_1..e_n, Je_1..Je_n, T).

        One (2n+1, 2n+1) jet whose row c holds column c of the frame; the
        leg fields are views of its rows.
        """
        return self._cols

    def matrix(self):
        """The group-valued moving frame A(u) as one (2n+2, 2n+2) order-0 jet.

        Built on each call and not kept; at 7^5 points it would be the
        largest field.
        """
        n = self.n
        D = 2 * n + 2
        X, F = self.X.truncated(0), self.frame_cols.truncated(0).T
        corner = np.zeros((D, D))
        corner[0, 0] = 1.0
        A = jets.constant(X.ctx, corner, self.batch)
        A[1:, 0] = X
        A[1:2 * n + 1, 1:] = F[:2 * n]
        A[2 * n + 1, 1:] = heis.coord_t_component(X[:n], X[n:2 * n],
                                                  F[:n], F[n:2 * n], F[2 * n])
        return A

    def matrix_values(self):
        return jets.values(self.matrix())

    def psh_at(self, idx) -> psh.PSHElement:
        """The moving frame at one grid index as a group element."""
        p = HPoint.from_coords(self.n, self.X.value[tuple(idx)])
        return psh.frame_to_matrix(p, _value_at(self.frame_cols, idx).T)

    # -- derived fields -----------------------------------------------------

    @cached_property
    def nu_norm(self):
        return np.sqrt(np.maximum(self.nu_norm2.value, 0.0))

    def nu_norm_jet(self):
        if np.min(self.nu_norm2.value) <= 0:
            raise WrongClass("|nu| is not differentiable where nu vanishes")
        return self.nu_norm2.sqrt()

    @cached_property
    def coframe(self):
        """Pullback coframe slots: theta(d_i), (d,), and theta^j(d_i), (m, d)."""
        m, n = self.m, self.n
        P = self.frame_cols @ self.XiF
        zco = P[:m] + 1j * P[n:n + m]
        return {"theta": self.theta_slots, "z": zco}

    @cached_property
    def duals(self):
        """Chart components of the dual tangent fields (Zhat_j, (m, d), and That)."""
        m = self.m
        zhat = 0.5 * (self.charts[:m] - 1j * self.charts[m:2 * m])
        return {"zhat": zhat, "that": self.charts[2 * m]}


def darboux_frame(imm, grid, policy="canonical", mode="ad", **kw) -> FrameField:
    return FrameField(imm, grid, policy=policy, mode=mode, **kw)


# ---------------------------------------------------------------------------
# the Maurer-Cartan form of the frame field
# ---------------------------------------------------------------------------

class MCForm:
    """The psh(n)-valued one-form omega = A^{-1} dA, one slot per chart axis.

    Its slots are one order below the frame: first order on a planned
    frame, values alone on a first-order one (``FrameField``).  ``d1`` and
    the AD structure residual read the slots of ``lifted``.
    """

    def __init__(self, ff: FrameField):
        self.ff = ff
        self.n = ff.n
        self.d = ff.d
        self.mode = ff.mode
        self.grid = ff.grid
        self._slots = self._compute()

    def _compute(self):
        """Slot tensor (d, 2n+1, 2n+1): rows 1.. and columns ..2n of A^{-1} dA/du_i.

        The first row and the T column of every slot vanish, so only the
        rest is stored.  The frame block of A^{-1} is the transpose of the
        frame columns F, so the rest of slot i is F^T z, z holding the frame
        components of the columns of dA/du_i.  They are read off without
        forming A: the point column gives d_i X (the column XiF[:, i]), and
        a frame column f gives d_i f plus the T-component the moving base
        point adds.
        """
        ff = self.ff
        n, d = self.n, self.d
        N = 2 * n + 1
        low = ff.ctx.order - 1
        FT = ff.frame_cols.T[:, :-1]                   # frame columns but T, as columns
        F1, XiF1 = ff.frame_cols.truncated(low), ff.XiF.truncated(low)
        slots = jets.constant(XiF1.ctx, np.zeros((d, N, N)), ff.batch)
        slots[:, :, 0] = (F1 @ XiF1).T
        # the T-components the moving base adds to the frame columns, (d, 2n)
        corr = heis.frame_t_component(XiF1[:n].T, XiF1[n:2 * n].T,
                                      F1[:-1, :n].T, F1[:-1, n:2 * n].T, 0.0)
        for i in range(d):
            z = FT.deriv(i)
            z[2 * n] = z[2 * n] - corr[i]
            slots[i, :, 1:] = F1 @ z
        return slots

    @cached_property
    def values(self):
        D = 2 * self.n + 2
        w = np.zeros((self.d, D, D) + self.ff.batch)
        w[:, 1:, :-1] = np.moveaxis(self._slots.value, (-3, -2, -1), (0, 1, 2))
        return w

    @property
    def lifted(self):
        """This form with first-order slots: ``self`` on a planned frame,
        else the form of the frame rebuilt at ``FRAME_ORDER`` under its
        plan, on the first read, and kept.

        The rebuild repeats no check, and takes the frame's coframe
        condition, since its charts have the same values.  Third-order
        immersion coefficients that are not finite where the lower ones are
        raise their located DomainError here.
        """
        return self if self.ff.ctx.order == FRAME_ORDER - 1 else self._lifted

    @cached_property
    def _lifted(self):
        # kept apart from ``lifted``: a form that held itself would be a
        # reference cycle, and a sweep's blocks would outlive their turn
        ff = self.ff
        return darboux_derivative(darboux_frame(
            ff.imm, ff.grid, ff.policy, ff.mode, normal_phases=ff.normal_phases,
            plan=replace(ff.plan, condition=ff.condition)))

    @cached_property
    def d1(self):
        """d1[i, r, c, p] = d/du_p slot i entry (r + 1, c), a view of the
        lifted slot jet.

        The first row and the last column of every slot are constant zero.
        """
        g = self.lifted._slots.gradient()            # (p, *batch, i, r, c)
        nb = len(self.ff.batch)
        return g.transpose((nb + 1, nb + 2, nb + 3, 0) + tuple(range(1, nb + 1)))

    @property
    def translation(self):
        """theta^r slots, the translation column of omega: one real
        (d, 2n+1) jet, translation[i, r - 1] = omega_i entry (r, 0)."""
        return self._slots[:, :, 0]

    @cached_property
    def conn(self):
        """theta_g^b slots as one complex (n, n, d) jet: conn[g-1, b-1, i]."""
        n = self.n
        s = self._slots
        return (s[:, :n, 1:n + 1] + 1j * s[:, n:2 * n, 1:n + 1]).transpose(2, 1, 0)

    def structure_residual(self) -> float:
        """Max over chart-axis pairs of | d_p w_q - d_q w_p + [w_p, w_q] |.

        With exact (AD) jets the derivative terms come from the lifted slot
        jets themselves and the identity holds to rounding; in FD mode the
        derivatives are recomputed by central differences across the grid,
        so the residual measures the consistency of the sampled field and
        shrinks at second order under refinement.
        """
        if self.mode != "ad":
            return grid_structure_residual(self.values, self.grid)
        # the slots hold rows 1.. and columns ..2n of each w_i, where the
        # first row and the last column vanish, so rows 1.. and columns
        # ..2n of w_p w_q are S_p[:, 1:] @ S_q[:-1, :]
        slots = self.lifted._slots
        S, g = slots.value, slots.gradient()         # (*batch, i, r, c), (p, ...)
        worst = 0.0
        for p in range(self.d):
            for q in range(p + 1, self.d):
                comm = (S[..., p, :, 1:] @ S[..., q, :-1, :]
                        - S[..., q, :, 1:] @ S[..., p, :-1, :])
                resid = g[p][..., q, :, :] - g[q][..., p, :, :] + comm
                worst = np.maximum(worst, np.max(np.abs(resid)))
        return float(worst)


def grid_structure_residual(w, grid) -> float:
    """The structure residual of slot values ``w``, (d, D, D, *grid.shape),
    with the derivatives taken by central differences across the grid.

    A ``GridBlock`` has no lattice axes to difference along: the FD residual
    of a swept grid comes from the whole grid's slot values
    (``invariants.Summary.close``).
    """
    if len(grid.shape) != len(w):
        raise DimensionMismatch(
            "the FD structure residual needs the whole grid's slot values "
            "(invariants.Summary.close), not a block of the grid")

    def cut(arr, ax, lo, hi):
        sl = [slice(None)] * arr.ndim
        sl[2 + ax] = slice(lo, hi if hi != 0 else None)
        return arr[tuple(sl)]

    def grid_d(arr, ax):
        # fourth-order central difference, matching the accuracy of the
        # finite-difference jets feeding the slots
        h = grid.spacing[ax]
        return (-cut(arr, ax, 4, 0) + 8 * cut(arr, ax, 3, -1)
                - 8 * cut(arr, ax, 1, -3) + cut(arr, ax, 0, -4)) / (12 * h)

    def interior(arr, axes):
        sl = [slice(None)] * arr.ndim
        for ax in axes:
            sl[2 + ax] = slice(2, -2)
        return arr[tuple(sl)]

    worst = 0.0
    d = len(w)
    for p in range(d):
        for q in range(p + 1, d):
            if grid.shape[p] < 5 or grid.shape[q] < 5:
                continue
            dpq = interior(grid_d(w[q], p), [q])
            dqp = interior(grid_d(w[p], q), [p])
            wi_p = interior(w[p], [p, q])
            wi_q = interior(w[q], [p, q])
            comm = (np.einsum("rs...,sc...->rc...", wi_p, wi_q)
                    - np.einsum("rs...,sc...->rc...", wi_q, wi_p))
            worst = np.maximum(worst, np.max(np.abs(dpq - dqp + comm)))
    return float(worst)


def darboux_derivative(ff: FrameField) -> MCForm:
    return MCForm(ff)


# ---------------------------------------------------------------------------
# pointwise operations
# ---------------------------------------------------------------------------

def _value_at(field, idx):
    """Values of a jet field at one grid index, signed zeros cleared."""
    return field.value[tuple(idx)] + 0.0


def _point_field(imm, u, policy="canonical") -> FrameField:
    """The frame field over the single chart point ``u`` (AD mode, so the
    grid's spacing is not read)."""
    return FrameField(imm, ChartGrid([(u_i, u_i) for u_i in u], 1), policy=policy)


def contact_intersection(imm, u):
    """Orthonormal J-adapted basis of TM ∩ ker Θ at one chart point: the legs
    e_1..e_m, Je_1..Je_m as rows of frame components, (2m, 2n+1)."""
    ff = _point_field(imm, u)
    idx = (0,) * ff.d
    return np.concatenate([_value_at(ff.legs_t, idx), _value_at(ff.legs_jt, idx)])


def reeb_and_nu(imm, u):
    """Frame components of the induced Reeb field and of the fundamental
    vector field at one chart point, two (2n+1,) arrays."""
    ff = _point_field(imm, u)
    idx = (0,) * ff.d
    return _value_at(ff.that_frame, idx), _value_at(ff.nu_frame, idx)

"""Calculus-on-the-group engine: integrability, frame integration, congruence.

Given a Lie-algebra-valued one-form over a chart grid, this module measures
its integrability by plaquette holonomy, integrates the moving-frame
equation dF = F eta along axis-ordered lattice paths, extracts the
congruence element relating two frame fields, and assembles the candidate
one-form of the embedding construction from intrinsic data.

The integrator is the fourth-order two-point Gauss Magnus method (Iserles,
Munthe-Kaas, Norsett & Zanna, "Lie-group methods", Acta Numerica 2000,
section 4; Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 2009).  Each step
multiplies by one group exponential, so the frames stay in the group up
to rounding and need no correction step; their group-membership residual
is the drift guard.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from . import invariants, jets, psh
from .darboux import ChartGrid, MCForm, partition
from .errors import (DimensionMismatch, IntegrabilityFailure,
                     ProjectionDrift)

__all__ = ["EtaForm", "FrameSolution", "holonomy_residual", "integrate_frame",
           "congruence", "assemble_eta", "eta_from_intrinsic", "intrinsic_defects",
           "check_intrinsic_defects", "eta_from_frame_field",
           "IntrinsicData", "intrinsic_data_from_analysis"]

DRIFT_TOL = 1e-3   # largest group-membership residual of integrated frames


@dataclass
class EtaForm:
    """Algebra-valued one-form sampled on a grid: slots[i] has shape (D, D, *grid)."""

    n: int
    grid: ChartGrid
    slots: np.ndarray          # (d, D, D, *grid)

    @property
    def d(self):
        return self.grid.ndim

    def validate_shapes(self):
        D = 2 * self.n + 2
        want = (self.grid.ndim, D, D) + self.grid.shape
        if self.slots.shape != want:
            raise DimensionMismatch(f"slot array must have shape {want}")


def eta_from_frame_field(mc: MCForm) -> EtaForm:
    return EtaForm(mc.n, mc.grid, mc.values)


def _interpolate(line, s, stencil=4):
    """Lagrange interpolation of a sampled line at many fractional positions.

    ``line`` has the sample axis first, shape (N, ...); ``s`` is a 1-d array
    of positions in [0, N-1].  Each position uses a ``stencil``-point window
    around its edge, clamped at the boundary, so the field error is
    O(h^stencil).  Returns shape (len(s), ...).
    """
    N = line.shape[0]
    s = np.asarray(s, dtype=float)
    w = min(stencil, N)
    k = np.clip(np.floor(s).astype(int), 0, N - 2)
    xs = np.clip(k - (w - 2) // 2, 0, N - w)[:, None] + np.arange(w)
    out = 0
    for a in range(w):
        wt = np.ones(len(s))
        for b in range(w):
            if a != b:
                wt = wt * ((s - xs[:, b]) / (xs[:, a] - xs[:, b]))
        out = out + wt.reshape((-1,) + (1,) * (line.ndim - 1)) * line[xs[:, a]]
    return out


# ---------------------------------------------------------------------------
# holonomy
# ---------------------------------------------------------------------------

def _slabs(eta: EtaForm, count, unit):
    """Near-equal ranges (lo, hi) of ``count`` node layers or lines of
    ``unit`` points each: the slabs of the holonomy verdict and the chunks
    of the Magnus sweep.  Each holds at most the invariant sweep's block
    budget at the form's (n, m) (``invariants._block_points``) and at least
    one layer or line."""
    size = max(1, invariants._block_points(eta.n, (eta.d - 1) // 2) // unit)
    return partition(count, -(-count // size))


def _half_exponents(eta: EtaForm, axis: int, substeps, lo, hi):
    """The exponents (h / 2 substeps) w of the half steps along ``axis`` at
    the substep endpoints of its edges, sample axis first, over the node
    layers lo:hi of axis 0.

    Along axis 0 they are the endpoints that the layers own, those after the
    last endpoint of layer lo - 1 up to layer hi - 1, sampled from the whole
    line, so the interpolation stencil is clamped at the grid's edge, not at
    the slab's.
    """
    h = eta.grid.spacing[axis]
    slots = eta.slots[axis] if axis == 0 else eta.slots[axis][:, :, lo:hi]
    line = np.moveaxis(slots, (0, 1, 2 + axis), (-2, -1, 0))
    N = line.shape[0]
    # substep endpoints k + j/substeps of every edge k, and the last node
    pos = np.append(np.arange(N - 1)[:, None] + np.arange(substeps) / substeps,
                    N - 1)
    if axis == 0:
        own = slice(max(0, (lo - 1) * substeps + 1), (hi - 1) * substeps + 1)
        w = line[own] if substeps == 1 else _interpolate(line, pos[own])
    else:
        w = line if substeps == 1 else _interpolate(line, pos)
    return (0.5 * h / substeps) * w


def _edge_propagators(half, back, substeps):
    """Product-rule propagators along consecutive lattice edges, and their
    inverses, from the half-step exponentials exp(+-h/2 w) at the substep
    endpoints of the edges (sample axis first).

    With one substep the edge (idx -> idx+1) uses
    exp(h/2 w(u)) exp(h/2 w(u+e)): second-order accurate, leaving an O(h^3)
    defect per plaquette for integrable forms.  More substeps subdivide the
    edge with cubic-interpolated samples, refining the defect at third order
    while genuine curvature of the form only shrinks with the plaquette area.
    The inverse of each edge is the product of the exp(-h/2 w) halves, taken
    in reverse order, from the same exponential pass.  Returns (forward,
    backward), each with the edge index first.
    """
    shape = ((half.shape[0] - 1) // substeps, substeps) + half.shape[1:]
    steps = (half[:-1] @ half[1:]).reshape(shape)
    undo = (back[1:] @ back[:-1]).reshape(shape)
    fwd, bwd = steps[:, 0], undo[:, 0]
    for j in range(1, substeps):
        fwd = fwd @ steps[:, j]
        bwd = undo[:, j] @ bwd
    return fwd, bwd


@np.errstate(invalid="ignore", over="ignore")
def holonomy_residual(eta: EtaForm, substeps=1) -> dict:
    """Per-plaquette loop defects of the one-form, all axis pairs.

    Returns the raw Frobenius defect fields together with the maximum defect
    normalised by plaquette area, which is the quantity compared against the
    integrability threshold.  A non-finite or overflowing loop makes both
    maxima non-finite, without a warning.

    The edges are built in slabs of node layers along axis 0 (``_slabs``),
    so no propagator stack covers the grid.  A slab takes the exponentials
    of every axis over its own layers once, and keeps the half steps along
    axis 0 and the edges of its last layer for the next slab's plaquettes
    across the cut.  An exponential does not depend on the stack it is
    taken in (``psh._taylor_parts``), so the defects are those of a single
    slab, bit for bit.
    """
    eta.validate_shapes()
    g = eta.grid
    d = g.ndim
    axes = [ax for ax in range(d) if g.shape[ax] > 1]
    pairs = [(p, q) for p in axes for q in axes if p < q]
    fields = {(p, q): np.empty(tuple(k - (a in (p, q)) for a, k in enumerate(g.shape)))
              for p, q in pairs}
    eye = np.eye(2 * eta.n + 2)
    slabs = _slabs(eta, g.shape[0], math.prod(g.shape[1:]))

    def cut(arr, axis, lo=None, hi=None):
        sl = [slice(None)] * d
        sl[axis] = slice(lo, hi)
        return arr[tuple(sl)]

    kept = {}

    def slab_edges(ax, lo, hi):
        """The forward and backward edges along ``ax`` over the node layers
        lo - 1 (kept from the last slab) to hi - 1: the edges that end in the
        slab along axis 0, the edges of every layer along the others."""
        half, back = psh.exp_pair(_half_exponents(eta, ax, substeps, lo, hi))
        if ax == 0:
            if lo:
                half, back = (np.concatenate(pair) for pair in zip(kept[ax], (half, back)))
            kept[ax] = half[-1:].copy(), back[-1:].copy()
            return _edge_propagators(half, back, substeps)
        fwd, bwd = (np.moveaxis(E, 0, ax) for E in _edge_propagators(half, back, substeps))
        if lo:
            fwd, bwd = (np.concatenate(pair) for pair in zip(kept[ax], (fwd, bwd)))
        kept[ax] = fwd[-1:].copy(), bwd[-1:].copy()
        return fwd, bwd

    def slab_defects(lo, hi):
        """Fill the defects of the plaquettes whose far corner lies in the
        node layers lo:hi."""
        edges = {ax: slab_edges(ax, lo, hi) for ax in axes}
        first = 1 if lo else 0
        for p, q in pairs:
            (Ep, Ep_inv), (Eq, Eq_inv) = edges[p], edges[q]
            if p:
                Ep, Ep_inv, Eq, Eq_inv = (E[first:] for E in (Ep, Ep_inv, Eq, Eq_inv))
            A = cut(Ep, q, 0, -1)                    # bottom edge
            B = cut(Eq, p, 1, None)                  # right edge
            Ci = cut(Ep_inv, q, 1, None)             # top edge, reversed
            Di = cut(Eq_inv, p, 0, -1)               # left edge, reversed
            loop = A @ B @ Ci @ Di
            rows = slice(lo - first, hi - 1) if p == 0 else slice(lo, hi)
            fields[(p, q)][rows] = np.sqrt(np.sum((loop - eye) ** 2, axis=(-2, -1)))

    for lo, hi in slabs:
        slab_defects(lo, hi)
    per_area = [np.max(f) / (g.spacing[p] * g.spacing[q]) for (p, q), f in fields.items()]
    worst = float(np.max([np.max(f) for f in fields.values()], initial=0.0))
    return {"fields": fields, "max": worst,
            "max_per_area": float(np.max(per_area, initial=0.0))}


def _nonfinite_reason(eta: EtaForm, hol: dict) -> str:
    """Name the first grid index where the form, or else a plaquette loop,
    is not finite."""
    bad = ~np.all(np.isfinite(eta.slots), axis=(0, 1, 2))
    if bad.any():
        where = "one-form value"
    else:
        where = "plaquette loop"
        bad = np.zeros(eta.grid.shape, dtype=bool)
        for f in hol["fields"].values():
            bad[tuple(slice(0, k) for k in f.shape)] |= ~np.isfinite(f)
    idx = tuple(int(i) for i in np.argwhere(bad)[0])
    return (f"plaquette holonomy is not finite: first non-finite {where} "
            f"at grid index {idx}")


def integrability_verdict(eta: EtaForm, tol=1e-6) -> dict:
    """Decide whether loop defects are discretization error or obstruction.

    Fast path: defects already below tol per plaquette area.  Otherwise the
    edges are subdivided once; discretization defects of an integrable form
    refine at third order while a genuine curvature term only scales with
    the plaquette area (second order), so the observed refinement order
    separates the two cases without grid-dependent magic constants.
    ``path`` records which of the two decided; a non-finite defect fails
    the verdict at the first non-finite grid index.
    """
    hol = holonomy_residual(eta)
    out = {"holonomy": hol["max_per_area"], "pass": True, "reason": "",
           "path": "fast"}
    if not np.isfinite(hol["max_per_area"]):
        out.update({"pass": False, "reason": _nonfinite_reason(eta, hol)})
        return out
    if hol["max_per_area"] <= tol:
        return out
    # subdividing the edges shrinks the truncation defect of an integrable
    # form by ~4 while an area-law obstruction around the same plaquette is
    # unchanged, so the shrink factor separates the two cases
    fine = holonomy_residual(eta, substeps=2)
    out["path"] = "subdivided"
    shrink = np.log2(max(hol["max"], 1e-300) / max(fine["max"], 1e-300))
    out["edge_refinement_order"] = float(shrink)
    if fine["max_per_area"] <= tol:
        out["holonomy"] = fine["max_per_area"]
        return out
    if not shrink >= 1.2:
        out["pass"] = False
        out["reason"] = (
            f"plaquette holonomy {hol['max_per_area']:.2e} per unit area does "
            f"not refine away under edge subdivision (factor 2^{shrink:.2f}): "
            "the form is not integrable at this resolution")
    return out


# ---------------------------------------------------------------------------
# frame integration
# ---------------------------------------------------------------------------

@dataclass
class FrameSolution:
    n: int
    grid: ChartGrid
    frames: np.ndarray          # (*grid, D, D)
    base_index: tuple
    drift: float

    def points(self) -> np.ndarray:
        """Translation parts, shape (*grid, 2n+1)."""
        return self.frames[..., 1:, 0]


def _magnus_steps(line, h, substeps, stencil):
    """Propagators of F' = F w(s) over every edge of a sampled line (sample
    axis first), shape (N - 1, ..., D, D).

    Each substep of length hh samples w at the Gauss nodes 1/2 -+ sqrt(3)/6,
    A1 before A2, and its fourth-order Magnus step is the exponential of
    hh/2 (A1 + A2) + sqrt(3) hh^2/12 [A1, A2], the commutator signed for
    right multiplication.
    """
    hh = h / substeps
    nodes = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0
    pos = (np.arange(line.shape[0] - 1)[:, None, None]
           + (np.arange(substeps)[:, None] + nodes) / substeps)
    w = _interpolate(line, pos.ravel(), stencil).reshape(pos.shape + line.shape[1:])
    A1, A2 = w[:, :, 0], w[:, :, 1]
    X = hh / 2 * (A1 + A2) + np.sqrt(3.0) / 12 * hh ** 2 * (A1 @ A2 - A2 @ A1)
    # the samples need not outlive the exponential's temporaries
    del w, A1, A2
    E = psh.exp(X)
    step = E[:, 0]
    for j in range(1, substeps):
        step = step @ E[:, j]
    return step


@np.errstate(over="ignore", invalid="ignore")
def integrate_frame(eta: EtaForm, basepoint_frame: psh.PSHElement, substeps=1,
                    check_integrability=True, stencil=4) -> FrameSolution:
    """Integrate dF = F eta over the grid, sweeping axis-ordered paths.

    The frame at lattice index (i1..id) is reached by walking axis 1 to i1,
    then axis 2 to i2, and so on from the base corner.  The sweep advances
    a whole slab at a time: along axis a, every point whose later indices
    are zero steps together.  Each edge takes ``substeps`` steps of the
    fourth-order two-point Gauss Magnus method, which samples eta at the
    Gauss nodes through the ``stencil``-point interpolator and multiplies
    by one group exponential, so for an algebra-valued eta the frames stay
    in the group up to rounding.  The lines of a slab are independent once
    their start frames are known, so their steps are taken in chunks of
    lines by their index on the first axis (``_slabs``); an exponential
    does not depend on its stack, so the frames are those of one chunk, bit
    for bit.  The group-membership residual of all swept frames is reported
    as ``drift`` and must stay under ``DRIFT_TOL``; a form that is not
    algebra-valued fails there, and a step that overflows fails the same
    way, at the first overflowing step of its axis.
    """
    eta.validate_shapes()
    if check_integrability:
        verdict = integrability_verdict(eta)
        if not verdict["pass"]:
            raise IntegrabilityFailure(verdict["reason"])
    diag = psh.psh_validate(basepoint_frame.mat, 1e-8)
    if not diag.ok:
        raise DimensionMismatch(f"invalid base frame: {diag.residuals}")
    g = eta.grid
    d = g.ndim
    D = 2 * eta.n + 2
    frames = np.zeros(g.shape + (D, D))
    frames[(0,) * d] = basepoint_frame.mat
    for ax in range(d):
        N = g.shape[ax]
        tail = (0,) * (d - ax - 1)
        h = g.spacing[ax]
        # the slot line of every slab point, sample axis first: (N, *grid[:ax], D, D)
        line = np.moveaxis(eta.slots[ax][(Ellipsis,) + tail],
                           (0, 1, 2 + ax), (-2, -1, 0))
        # chunks of lines by their index on axis 0 (the leading axes' first)
        row = N * math.prod(g.shape[1:ax])
        chunks = [()] if ax == 0 else [(slice(lo, hi),) for lo, hi in
                                       _slabs(eta, g.shape[0], row)]
        overflow = N
        for c in chunks:
            step = _magnus_steps(line[(slice(None),) + c], h, substeps, stencil)
            head = c + (slice(None),) * (ax - len(c))
            for k in range(1, min(N, overflow)):
                F = frames[head + (k - 1,) + tail] @ step[k - 1]
                if not np.all(np.isfinite(F)):
                    overflow = k
                    break
                frames[head + (k,) + tail] = F
        if overflow < N:
            raise ProjectionDrift(f"frame integration overflowed along "
                                  f"axis {ax} at step {overflow}")
    drift = psh.psh_validate(frames).worst
    if not drift <= DRIFT_TOL:
        raise ProjectionDrift(f"group-membership residual {drift:.2e} of the "
                              f"integrated frames exceeds {DRIFT_TOL:.0e}")
    return FrameSolution(eta.n, g, frames, (0,) * d, drift)


def congruence(f1: FrameSolution, f2: FrameSolution):
    """The group element carrying f1 to f2, with the constancy defect.

    If the two frame fields have equal logarithmic derivatives the defect
    vanishes and the element realises the congruence between them.
    """
    if f1.grid.shape != f2.grid.shape or f1.n != f2.n:
        raise DimensionMismatch("frame solutions live on different grids")
    base = f1.base_index
    g = f2.frames[base] @ np.linalg.inv(f1.frames[base])
    moved = np.einsum("rc,...cs->...rs", g, f1.frames)
    resid = float(np.max(np.abs(moved - f2.frames)))
    return psh.PSHElement(f1.n, g), resid


# ---------------------------------------------------------------------------
# assembling the candidate one-form from intrinsic data
# ---------------------------------------------------------------------------

@dataclass
class IntrinsicData:
    """Intrinsic fields over a chart grid or a block of one, enough to rebuild
    a frame form.

    All arrays carry the batch shape of ``grid`` in their trailing axes:
      theta[i]        induced contact slot values
      zco[j][i]       induced complex coframe slots
      gamma_*         intrinsic connection coefficients (as in the solver)
      gtensor[a][j][k] candidate second-fundamental-form coefficients
      mu[a]           candidate fundamental-field components
      dmu[a][j], normal connection slots etc. as named below
    """

    n: int
    m: int
    grid: ChartGrid
    theta: np.ndarray            # (d, *grid)
    zco: np.ndarray              # (m, d, *grid) complex
    conn_slots: np.ndarray       # (m, m, d, *grid) complex: theta-hat_j^k (d_i)
    nu2: np.ndarray              # (*grid,)
    gtensor: np.ndarray          # (cod, m, m, *grid) complex
    mu: np.ndarray               # (cod, *grid) complex
    mu_deriv: np.ndarray         # (cod, m, *grid) complex: <nabla_{Zhat_j} mu, W_a>
    normal_slots: np.ndarray     # (cod, cod, d, *grid) complex: eta_a^b (d_i)


def intrinsic_data_from_analysis(an) -> IntrinsicData:
    """Collect the intrinsic fields of an analysed surface (extraction side)."""
    ff = an.ff
    normal = jets.values(an.conn_slots["normal"]) if an.codim else \
        np.zeros((0, 0, an.d) + an.batch, dtype=complex)
    return IntrinsicData(
        n=an.n, m=an.m, grid=ff.grid, theta=jets.values(ff.theta_slots),
        zco=jets.values(ff.coframe["z"]),
        conn_slots=jets.values(an.intrinsic_conn_slots),
        nu2=jets.values(ff.nu_norm2).copy(),
        gtensor=an.second_ff["h"].copy(),
        mu=an.nu_comp_vals.copy(),
        mu_deriv=an.nabla_perp_nu.copy(),
        normal_slots=normal)


def intrinsic_defects(data: IntrinsicData) -> dict:
    """The defects that ``assemble_eta`` gates, as maxima over the points of
    ``data``: ``symmetry`` of the second-fundamental-form candidate and
    ``skew_hermitian`` of the normal connection, NaN where an entry is
    NaN.  The maxima of a grid's blocks fold into the grid's
    (``invariants.fold_max``)."""
    cod, m = data.n - data.m, data.m
    if data.gtensor.shape[:3] != (cod, m, m):
        raise DimensionMismatch("second-fundamental-form candidate has wrong shape")
    if not cod:
        return {"symmetry": 0.0, "skew_hermitian": 0.0}
    return {"symmetry": float(np.max(np.abs(
                data.gtensor - np.swapaxes(data.gtensor, 1, 2)))),
            "skew_hermitian": float(np.max(np.abs(
                data.normal_slots + np.conj(np.swapaxes(data.normal_slots, 0, 1)))))}


def check_intrinsic_defects(defects: dict):
    """Raise DimensionMismatch unless both defects of ``intrinsic_defects``
    are at most 1e-8; a NaN fails."""
    if not defects["symmetry"] <= 1e-8:
        raise DimensionMismatch(f"gtensor must be symmetric (defect "
                                f"{defects['symmetry']:.2e})")
    if not defects["skew_hermitian"] <= 1e-8:
        raise DimensionMismatch(f"normal connection must be skew-hermitian "
                                f"(defect {defects['skew_hermitian']:.2e})")


def assemble_eta(data: IntrinsicData) -> EtaForm:
    """Build the algebra-valued one-form the embedding theorem integrates,
    after its gates (``check_intrinsic_defects``): the form of
    ``eta_from_intrinsic``."""
    check_intrinsic_defects(intrinsic_defects(data))
    return eta_from_intrinsic(data)


def eta_from_intrinsic(data: IntrinsicData) -> EtaForm:
    """The one-form assembled from intrinsic data, without the gates of
    ``assemble_eta``: for a caller that gates the maxima of many blocks.

    The complex matrix is filled per the structure dictionary: translation
    row from the coframe (tangent slots) and mu theta (normal slots), the
    tangent connection block from the intrinsic connection plus the
    i |mu|^2 theta correction, the mixed block from the candidate second
    fundamental form, and the normal block from the supplied connection;
    its realification is the returned form.  The form is assembled point
    by point, so ``data`` may cover a ``GridBlock``.
    """
    n, m = data.n, data.m
    cod = n - m
    d, batch = data.theta.shape[0], data.theta.shape[1:]
    D = 2 * n + 2
    slots = np.zeros((d, D, D) + batch)
    vart = np.zeros((n, d) + batch, dtype=complex)
    conn = np.zeros((n, n, d) + batch, dtype=complex)
    vart[:m] = data.zco
    for ai in range(cod):
        vart[m + ai] = data.mu[ai] * data.theta
    # tangent block
    for j in range(m):
        for k in range(m):
            conn[j, k] = data.conn_slots[j, k]
            if j == k:
                conn[j, k] = conn[j, k] + 1j * data.nu2 * data.theta
    # mixed block and its skew-hermitian partner
    for j in range(m):
        for ai in range(cod):
            s = np.einsum("k...,ki...->i...", data.gtensor[ai, j], data.zco)
            s = s + 1j * data.mu[ai] * np.conj(data.zco[j])
            s = s + np.einsum("...,i...->i...", data.mu_deriv[ai, j], data.theta)
            conn[j, m + ai] = s
            conn[m + ai, j] = -np.conj(s)
    for ai in range(cod):
        for bi in range(cod):
            conn[m + ai, m + bi] = data.normal_slots[ai, bi]

    for i in range(d):
        slots[i, 1:n + 1, 0] = vart[:, i].real
        slots[i, n + 1:2 * n + 1, 0] = vart[:, i].imag
        slots[i, 2 * n + 1, 0] = data.theta[i]
        W1 = conn[:, :, i].real
        W3 = conn[:, :, i].imag
        # conn[g, b] holds theta_g^b; the real layout stores w_a^b at [b, a]
        slots[i, 1:n + 1, 1:n + 1] = np.swapaxes(W1, 0, 1)
        slots[i, n + 1:2 * n + 1, 1:n + 1] = np.swapaxes(W3, 0, 1)
        slots[i, 1:n + 1, n + 1:2 * n + 1] = -np.swapaxes(W3, 0, 1)
        slots[i, n + 1:2 * n + 1, n + 1:2 * n + 1] = np.swapaxes(W1, 0, 1)
        slots[i, 2 * n + 1, 1:n + 1] = vart[:, i].imag
        slots[i, 2 * n + 1, n + 1:2 * n + 1] = -vart[:, i].real
    return EtaForm(n, data.grid, slots)


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
import numpy as np

from . import jets, psh
from .darboux import ChartGrid, MCForm
from .errors import (DimensionMismatch, IntegrabilityFailure,
                     ProjectionDrift)

__all__ = ["EtaForm", "FrameSolution", "holonomy_residual", "integrate_frame",
           "congruence", "assemble_eta", "embed", "eta_from_frame_field",
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

def _edge_propagators(eta: EtaForm, axis: int, substeps=1):
    """Product-rule propagators along every lattice edge of one axis, and
    their inverses.

    With one substep the edge (idx -> idx+1) uses
    exp(h/2 w(u)) exp(h/2 w(u+e)): second-order accurate, leaving an O(h^3)
    defect per plaquette for integrable forms.  More substeps subdivide the
    edge with cubic-interpolated samples, refining the defect at third order
    while genuine curvature of the form only shrinks with the plaquette area.
    The inverse of each edge is the product of the exp(-h/2 w) halves, taken
    in reverse order, from the same exponential pass.  Returns (forward,
    backward), each with the edge index on ``axis``.
    """
    h = eta.grid.spacing[axis]
    line = np.moveaxis(eta.slots[axis], (0, 1, 2 + axis), (-2, -1, 0))
    N = line.shape[0]
    # substep endpoints k + j/substeps of every edge k, and the last node
    pos = np.append(np.arange(N - 1)[:, None] + np.arange(substeps) / substeps,
                    N - 1)
    w = line if substeps == 1 else _interpolate(line, pos)
    half, back = psh.exp_pair((0.5 * h / substeps) * w)
    shape = (N - 1, substeps) + half.shape[1:]
    steps = (half[:-1] @ half[1:]).reshape(shape)
    undo = (back[1:] @ back[:-1]).reshape(shape)
    fwd, bwd = steps[:, 0], undo[:, 0]
    for j in range(1, substeps):
        fwd = fwd @ steps[:, j]
        bwd = undo[:, j] @ bwd
    return np.moveaxis(fwd, 0, axis), np.moveaxis(bwd, 0, axis)


@np.errstate(invalid="ignore", over="ignore")
def holonomy_residual(eta: EtaForm, substeps=1) -> dict:
    """Per-plaquette loop defects of the one-form, all axis pairs.

    Returns the raw Frobenius defect fields together with the maximum defect
    normalised by plaquette area, which is the quantity compared against the
    integrability threshold.  A non-finite or overflowing loop makes both
    maxima non-finite, without a warning.
    """
    eta.validate_shapes()
    g = eta.grid
    d = g.ndim
    edges = {ax: _edge_propagators(eta, ax, substeps=substeps)
             for ax in range(d) if g.shape[ax] > 1}
    fields = {}
    per_area = []
    eye = np.eye(2 * eta.n + 2)

    def cut(arr, axis, lo=None, hi=None):
        sl = [slice(None)] * d
        sl[axis] = slice(lo, hi)
        return arr[tuple(sl)]

    for p in range(d):
        for q in range(p + 1, d):
            if p not in edges or q not in edges:
                continue
            (Ep, Ep_inv), (Eq, Eq_inv) = edges[p], edges[q]
            A = cut(Ep, q, 0, -1)                    # bottom edge
            B = cut(Eq, p, 1, None)                  # right edge
            Ci = cut(Ep_inv, q, 1, None)             # top edge, reversed
            Di = cut(Eq_inv, p, 0, -1)               # left edge, reversed
            loop = A @ B @ Ci @ Di
            defect = np.sqrt(np.sum((loop - eye) ** 2, axis=(-2, -1)))
            fields[(p, q)] = defect
            per_area.append(np.max(defect) / (g.spacing[p] * g.spacing[q]))
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
    A1 before A2, and takes the fourth-order Magnus step
    exp(hh/2 (A1 + A2) + sqrt(3) hh^2/12 [A1, A2]), the commutator signed
    for right multiplication.
    """
    hh = h / substeps
    nodes = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0
    pos = (np.arange(line.shape[0] - 1)[:, None, None]
           + (np.arange(substeps)[:, None] + nodes) / substeps)
    w = _interpolate(line, pos.ravel(), stencil).reshape(pos.shape + line.shape[1:])
    A1, A2 = w[:, :, 0], w[:, :, 1]
    E = psh.exp(hh / 2 * (A1 + A2) + np.sqrt(3.0) / 12 * hh ** 2 * (A1 @ A2 - A2 @ A1))
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
    in the group up to rounding.  The group-membership residual of all
    swept frames is reported as ``drift`` and must stay under
    ``DRIFT_TOL``; a form that is not algebra-valued fails there, and a
    step that overflows fails the same way.
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
        # the slot line of every slab point, sample axis first: (N, *grid[:ax], D, D)
        line = np.moveaxis(eta.slots[ax][(Ellipsis,) + tail],
                           (0, 1, 2 + ax), (-2, -1, 0))
        steps = _magnus_steps(line, g.spacing[ax], substeps, stencil)
        head = (slice(None),) * ax
        for k in range(1, N):
            F = frames[head + (k - 1,) + tail] @ steps[k - 1]
            if not np.all(np.isfinite(F)):
                raise ProjectionDrift(f"frame integration overflowed along "
                                      f"axis {ax} at step {k}")
            frames[head + (k,) + tail] = F
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
    """Intrinsic fields over a chart grid, enough to rebuild a frame form.

    All arrays carry the grid shape in their trailing axes:
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


def assemble_eta(data: IntrinsicData) -> EtaForm:
    """Build the algebra-valued one-form the embedding theorem integrates.

    The complex matrix is filled per the structure dictionary: translation
    row from the coframe (tangent slots) and mu theta (normal slots), the
    tangent connection block from the intrinsic connection plus the
    i |mu|^2 theta correction, the mixed block from the candidate second
    fundamental form, and the normal block from the supplied connection;
    its realification is the returned form.
    """
    n, m = data.n, data.m
    cod = n - m
    d = data.grid.ndim
    batch = data.grid.shape
    if data.gtensor.shape[:3] != (cod, m, m):
        raise DimensionMismatch("second-fundamental-form candidate has wrong shape")
    sym = float(np.max(np.abs(data.gtensor - np.swapaxes(data.gtensor, 1, 2)))) \
        if cod else 0.0
    if sym > 1e-8:
        raise DimensionMismatch(f"gtensor must be symmetric (defect {sym:.2e})")
    skew = float(np.max(np.abs(
        data.normal_slots + np.conj(np.swapaxes(data.normal_slots, 0, 1))))) \
        if cod else 0.0
    if skew > 1e-8:
        raise DimensionMismatch(f"normal connection must be skew-hermitian "
                                f"(defect {skew:.2e})")

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


def embed(data: IntrinsicData, basepoint_frame: psh.PSHElement, substeps=1, stencil=4):
    """Integrate the assembled form and return the sampled immersion points."""
    eta = assemble_eta(data)
    sol = integrate_frame(eta, basepoint_frame, substeps=substeps, stencil=stencil)
    return sol.points(), sol

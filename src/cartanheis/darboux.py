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
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import heis, jets, psh
from .errors import (DimensionMismatch, NotCRInvariant, SingularPoint, WrongClass)
from .heis import FrameAtPoint, HPoint
from .jets import Jet

__all__ = ["ChartGrid", "FrameField", "MCForm", "darboux_frame",
           "darboux_derivative", "contact_intersection", "reeb_and_nu",
           "pullback_check"]

POLICIES = ("auto", "canonical", "nu", "reverse")
TOL_SINGULAR = 1e-8
TOL_CR = 1e-8
TOL_CLASS = 1e-7   # |nu| threshold between vertical and non-vertical points


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

    @property
    def ndim(self):
        return len(self.axes)

    @property
    def npoints(self):
        return int(np.prod(self.shape))

    def point(self, idx):
        return np.array([ax[i] for ax, i in zip(self.axes, idx)])

    def flat_index(self, flat):
        return np.unravel_index(flat, self.shape)


def _single_point_grid(chart, u):
    g = ChartGrid.__new__(ChartGrid)
    g.chart = [(float(lo), float(hi)) for lo, hi in chart]
    g.counts = [1] * len(chart)
    g.axes = [np.array([float(ui)]) for ui in u]
    g.shape = tuple(g.counts)
    g.spacing = [1e-2 * (hi - lo) for lo, hi in chart]
    g.points = list(np.meshgrid(*g.axes, indexing="ij"))
    return g


# ---------------------------------------------------------------------------
# jet vectors and small jet linear algebra
# ---------------------------------------------------------------------------

def _dot(a, b):
    acc = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        acc = acc + x * y
    return acc


def _scale(a, s):
    return [x * s for x in a]


def _axpy(s, a, b):
    """b - s*a componentwise."""
    return [y - s * x for x, y in zip(a, b)]


class Leg:
    """A tangent field carried as chart components plus ambient frame components."""

    __slots__ = ("chart", "frame")

    def __init__(self, chart, frame):
        self.chart = chart
        self.frame = frame

    def project_out(self, other, coeff):
        return Leg(_axpy(coeff, other.chart, self.chart),
                   _axpy(coeff, other.frame, self.frame))

    def scaled(self, s):
        return Leg(_scale(self.chart, s), _scale(self.frame, s))


def _cholesky(G):
    k = len(G)
    L = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1):
            s = G[i][j]
            for p in range(j):
                s = s - L[i][p] * L[j][p]
            L[i][j] = s.sqrt() if i == j else s / L[j][j]
    return L


def _chol_solve(L, rhs):
    k = len(L)
    y = [None] * k
    for i in range(k):
        s = rhs[i]
        for p in range(i):
            s = s - L[i][p] * y[p]
        y[i] = s / L[i][i]
    x = [None] * k
    for i in reversed(range(k)):
        s = y[i]
        for p in range(i + 1, k):
            s = s - L[p][i] * x[p]
        x[i] = s / L[i][i]
    return x


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
        |nu| classified by ``rigidity.classify`` at ``TOL_CLASS``), otherwise
        "canonical"; ``self.policy`` then holds the gauge used.
    ``normal_phases`` optionally rotates each normal pair (e_a, Je_a) by a
    fixed angle, i.e. replaces Z_a by e^{i psi} Z_a.
    """

    def __init__(self, imm, grid, policy="canonical", mode="ad", order=3,
                 normal_phases=None, tol_singular=TOL_SINGULAR, tol_cr=TOL_CR):
        if order < 2:
            raise DimensionMismatch("frame construction needs jets of order >= 2")
        if policy not in POLICIES:
            raise ValueError(f"unknown frame gauge {policy!r}; "
                             f"accepted: {', '.join(POLICIES)}")
        self.imm = imm
        self.grid = grid
        self.policy = policy
        self.mode = mode
        self.n = imm.n
        self.m = imm.m
        self.d = imm.nparams
        if mode == "fd":
            # finite-difference jets carry O(step^2..4) truncation error, so
            # the chart-validity gates relax by the documented factor
            tol_singular *= 1e4
            tol_cr *= 1e4
        self.tol_singular = tol_singular
        self.tol_cr = tol_cr
        self.normal_phases = normal_phases
        imm.rank_check(grid.points)
        self._build(order)

    # -- construction ---------------------------------------------------

    def _J(self, f):
        n = self.n
        return [-c for c in f[n:2 * n]] + list(f[:n]) + [self._zero]

    def _build(self, order):
        imm, grid = self.imm, self.grid
        n, m, d = self.n, self.m, self.d
        steps = [0.5 * s for s in grid.spacing] if self.mode == "fd" else None
        Xfull = imm.jets(grid.points, order=order, mode=self.mode, steps=steps)
        self.ctx = jets.context(d, order - 1)
        self.batch = grid.shape
        self._zero = jets.constant(self.ctx, 0.0, self.batch)
        self._one = jets.constant(self.ctx, 1.0, self.batch)
        self.X = [x.truncated(order - 1) for x in Xfull]
        self.Xi = [[x.deriv(i) for x in Xfull] for i in range(d)]

        # contact pairing with the tangent directions; XiF holds the frame
        # components of the chart tangent vectors
        x, y = self.X[:n], self.X[n:2 * n]
        self.theta_slots = [heis.frame_t_component(x, y, v[:n], v[n:2 * n], v[2 * n])
                            for v in self.Xi]
        XiF = self.XiF = [v[:2 * n] + [th] for v, th in zip(self.Xi, self.theta_slots)]
        th_vals = jets.values(self.theta_slots)
        scale = np.sqrt(max(np.max(jets.values(XiF) ** 2), 1e-30))
        worst = np.max(np.abs(th_vals), axis=0)
        if np.min(worst) < self.tol_singular * scale:
            loc = grid.flat_index(int(np.argmin(worst.reshape(-1))))
            raise SingularPoint(
                "contact form vanishes on the whole tangent space "
                f"(dim TM ∩ ker Θ > 2m) near grid index {tuple(int(i) for i in loc)}",
                location=tuple(int(i) for i in loc))
        mins = np.min(np.abs(th_vals.reshape(d, -1)), axis=1)
        k0 = int(np.argmax(mins))
        if mins[k0] < self.tol_singular * scale:
            raise SingularPoint(
                "no chart direction is uniformly transverse to ker Θ; "
                "refine or shrink the chart box")
        self.pivot = k0

        recip = self.theta_slots[k0].reciprocal()
        y0_chart = [self._zero] * d
        y0_chart[k0] = recip
        y0 = Leg(y0_chart, _scale(XiF[k0], recip))

        V = []
        for i in range(d):
            if i == k0:
                continue
            chart = [self._zero] * d
            chart[i] = self._one
            chart[k0] = -(self.theta_slots[i] * recip)
            V.append(Leg(chart, _axpy(self.theta_slots[i], y0.frame, XiF[i])))

        self._check_cr_invariance(V, scale)

        # Gram factor for expressing horizontal tangent fields in chart terms
        G = [[_dot(a.frame, b.frame) for b in V] for a in V]
        L = _cholesky(G)

        def chart_of(frame):
            rhs = [_dot(frame, v.frame) for v in V]
            coefs = _chol_solve(L, rhs)
            chart = [self._zero] * d
            for c, v in zip(coefs, V):
                chart = [ch + c * vc for ch, vc in zip(chart, v.chart)]
            return chart

        # tangent legs: J-adapted Gram-Schmidt over the seed fields
        seeds = list(V) if self.policy != "reverse" else list(reversed(V))
        self.legs_t, self.legs_jt = [], []
        for seed in seeds:
            if len(self.legs_t) == m:
                break
            w = seed
            for e, je in zip(self.legs_t, self.legs_jt):
                w = w.project_out(e, _dot(w.frame, e.frame))
                w = w.project_out(je, _dot(w.frame, je.frame))
            n2 = _dot(w.frame, w.frame)
            if np.min(n2.value) < (1e-6 * scale) ** 2:
                continue  # seed already spanned by earlier complex legs
            e = w.scaled(n2.sqrt().reciprocal())
            jf = self._J(e.frame)
            self.legs_t.append(e)
            self.legs_jt.append(Leg(chart_of(jf), jf))
        if len(self.legs_t) != m:
            raise NotCRInvariant("could not complete a J-adapted tangent frame; "
                                 "seed fields degenerate on this chart")

        # induced Reeb field and fundamental vector field
        that = y0
        for e, je in zip(self.legs_t, self.legs_jt):
            that = that.project_out(e, _dot(that.frame, e.frame))
            that = that.project_out(je, _dot(that.frame, je.frame))
        self.that = that
        nu = list(that.frame)
        nu[2 * n] = nu[2 * n] - 1.0
        self.nu_frame = nu
        self.nu_norm2 = _dot(nu, nu)
        if self.policy == "auto":
            # deferred: rigidity imports this module through invariants
            from .rigidity import COMPLETELY_NON_VERTICAL, classify
            cnv = classify(self.nu_norm).kind == COMPLETELY_NON_VERTICAL
            self.policy = "nu" if cnv and n - m == 1 else "canonical"

        # normal legs
        self.legs_n, self.legs_jn = [], []
        if n > m:
            cands = []
            if self.policy == "nu":
                if np.min(self.nu_norm2.value) < (10 * self.tol_singular) ** 2:
                    raise WrongClass("nu-adapted gauge needs a completely "
                                     "non-vertical surface")
                cands.append([-c for c in nu])
            for a in range(2 * n):
                f = [self._zero] * (2 * n + 1)
                f[a] = self._one
                cands.append(f)
            order_scores = []
            centre = tuple(s // 2 for s in grid.shape)
            for f in cands:
                order_scores.append(self._projected_norm_at(f, centre))
            # keep candidate order but drop ones that die at the centre first
            idx = [i for i in range(len(cands))]
            if self.policy != "nu":
                idx.sort(key=lambda i: -order_scores[i])
            for i in idx:
                if len(self.legs_n) == n - m:
                    break
                w = cands[i]
                for e, je in zip(self.legs_t, self.legs_jt):
                    w = _axpy(_dot(w, e.frame), e.frame, w)
                    w = _axpy(_dot(w, je.frame), je.frame, w)
                for e, je in zip(self.legs_n, self.legs_jn):
                    w = _axpy(_dot(w, e), e, w)
                    w = _axpy(_dot(w, je), je, w)
                n2 = _dot(w, w)
                if np.min(n2.value) < 1e-12:
                    continue
                e = _scale(w, n2.sqrt().reciprocal())
                self.legs_n.append(e)
                self.legs_jn.append(self._J(e))
            if len(self.legs_n) != n - m:
                raise SingularPoint("could not complete the normal frame")
            if self.normal_phases is not None:
                rotated, jrotated = [], []
                for (e, je), psi in zip(zip(self.legs_n, self.legs_jn),
                                        self.normal_phases):
                    c, s = float(np.cos(psi)), float(np.sin(psi))
                    e2 = [c * a + s * b for a, b in zip(e, je)]
                    rotated.append(e2)
                    jrotated.append(self._J(e2))
                self.legs_n, self.legs_jn = rotated, jrotated

        # fundamental vector field components against the normal legs (Levi
        # normalisation: nu = sum_a nu_comp[a] Z_a + conj, |nu|^2 = sum |nu_comp|^2)
        self.nu_comp = [
            _dot(nu, e) + 1j * _dot(nu, je)
            for e, je in zip(self.legs_n, self.legs_jn)]

    def _projected_norm_at(self, frame, centre):
        vals = jets.values(frame)[(Ellipsis,) + centre]
        for e, je in zip(self.legs_t, self.legs_jt):
            for leg in (e, je):
                ev = jets.values(leg.frame)[(Ellipsis,) + centre]
                vals = vals - (vals @ ev) * ev
        return float(np.linalg.norm(vals))

    def _check_cr_invariance(self, V, scale):
        n = self.n
        Vf = jets.values([v.frame for v in V])
        flat = Vf.reshape(len(V), 2 * n + 1, -1)
        M = np.transpose(flat, (2, 1, 0))                  # (N, 2n+1, 2m)
        G = np.einsum("nia,nib->nab", M, M)
        Jf = np.concatenate([-M[:, n:2 * n], M[:, :n], np.zeros_like(M[:, :1])],
                            axis=1)
        rhs = np.einsum("nia,nib->nab", M, Jf)             # (N, 2m, 2m)
        coef = np.linalg.solve(G, rhs)
        resid = Jf - np.einsum("nia,nab->nib", M, coef)
        err = np.sqrt(np.einsum("nib,nib->nb", resid, resid))
        worst = float(np.max(err))
        if worst > self.tol_cr * max(scale, 1.0):
            flatpos = int(np.argmax(np.max(err, axis=1)))
            loc = self.grid.flat_index(flatpos)
            raise NotCRInvariant(
                f"TM ∩ ker Θ is not J-invariant (residual {worst:.2e}) near grid "
                f"index {tuple(int(i) for i in loc)}",
                location=tuple(int(i) for i in loc), residual=worst)

    # -- assembled frame ---------------------------------------------------

    @cached_property
    def frame_cols(self):
        """Frame components of the Darboux columns (e_1..e_n, Je_1..Je_n, T)."""
        n, m = self.n, self.m
        cols = []
        for leg in self.legs_t:
            cols.append(leg.frame)
        for e in self.legs_n:
            cols.append(e)
        for leg in self.legs_jt:
            cols.append(leg.frame)
        for je in self.legs_jn:
            cols.append(je)
        tcol = [self._zero] * (2 * n) + [self._one]
        cols.append(tcol)
        return cols

    @cached_property
    def matrix(self):
        """The group-valued moving frame A(u) as a (2n+2)^2 nest of jets."""
        n = self.n
        D = 2 * n + 2
        A = [[self._zero] * D for _ in range(D)]
        A[0][0] = self._one
        for r in range(2 * n + 1):
            A[r + 1][0] = self.X[r]
        x, y = self.X[:n], self.X[n:2 * n]
        for c, col in enumerate(self.frame_cols):
            A[2 * n + 1][c + 1] = heis.coord_t_component(x, y, col[:n], col[n:2 * n],
                                                         col[2 * n])
            for r in range(2 * n):
                A[r + 1][c + 1] = col[r]
        return A

    def matrix_values(self):
        return jets.values(self.matrix)

    def frame_at(self, idx) -> FrameAtPoint:
        return FrameAtPoint(self.point_at(idx), _value_at(self.frame_cols, idx).T)

    def psh_at(self, idx) -> psh.PSHElement:
        return psh.frame_to_matrix(self.frame_at(idx))

    def point_at(self, idx) -> HPoint:
        coords = jets.values(self.X)[(Ellipsis,) + tuple(idx)]
        return HPoint.from_coords(self.n, coords)

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
        """Pullback coframe slots: theta(d_i) and theta^j(d_i) over the chart."""
        XiF = self.XiF
        zco = [[_dot(XiF[i], self.legs_t[j].frame)
                + 1j * _dot(XiF[i], self.legs_jt[j].frame)
                for i in range(self.d)] for j in range(self.m)]
        return {"theta": self.theta_slots, "z": zco}

    @cached_property
    def duals(self):
        """Chart components of the dual tangent fields (Zhat_j and That)."""
        zhat = [[0.5 * (e.chart[i] - 1j * je.chart[i]) for i in range(self.d)]
                for e, je in zip(self.legs_t, self.legs_jt)]
        return {"zhat": zhat, "that": list(self.that.chart)}

    def continuity_residual(self):
        """Largest column jump between grid neighbours (gauge continuity)."""
        cols = jets.values(self.frame_cols)
        worst = 0.0
        for ax in range(2, cols.ndim):
            d = np.diff(cols, axis=ax)
            if d.size:
                worst = max(worst, float(np.max(np.sqrt(np.sum(d * d, axis=1)))))
        return worst


def darboux_frame(imm, grid, policy="canonical", mode="ad", **kw) -> FrameField:
    return FrameField(imm, grid, policy=policy, mode=mode, **kw)


# ---------------------------------------------------------------------------
# the Maurer-Cartan form of the frame field
# ---------------------------------------------------------------------------

class MCForm:
    """The psh(n)-valued one-form omega = A^{-1} dA, one slot per chart axis."""

    def __init__(self, ff: FrameField):
        self.ff = ff
        self.n = ff.n
        self.d = ff.d
        self.mode = ff.mode
        self.grid = ff.grid
        self._slots = self._compute()

    def _compute(self):
        ff = self.ff
        n, d = self.n, self.d
        D = 2 * n + 2
        A = ff.matrix
        ctx1 = jets.context(d, ff.ctx.order - 1)
        zero1 = jets.constant(ctx1, 0.0, ff.batch)
        X1 = [x.truncated(ctx1.order) for x in ff.X]
        F1 = [[c.truncated(ctx1.order) for c in col] for col in ff.frame_cols]
        slots = []
        for i in range(d):
            dA = [[A[r][c].deriv(i) for c in range(D)] for r in range(D)]
            out = [[zero1] * D for _ in range(D)]
            for c in range(D):
                w = [dA[r][c] for r in range(1, D)]
                if all(np.max(np.abs(x.c)) == 0 for x in w):
                    continue
                z = w[:2 * n] + [heis.frame_t_component(
                    X1[:n], X1[n:2 * n], w[:n], w[n:2 * n], w[2 * n])]
                for r in range(2 * n + 1):
                    acc = zero1
                    for s in range(2 * n + 1):
                        acc = acc + F1[r][s] * z[s]
                    out[r + 1][c] = acc
            slots.append(out)
        return slots

    @cached_property
    def values(self):
        return jets.values(self._slots)

    @cached_property
    def d1(self):
        """d1[i, r, c, p] = d/du_p of slot i entry (r, c)."""
        D = 2 * self.n + 2
        out = np.zeros((self.d, D, D, self.d) + self.ff.batch)
        for i in range(self.d):
            for r in range(D):
                for c in range(D):
                    j = self._slots[i][r][c]
                    if isinstance(j, Jet) and np.max(np.abs(j.c)) != 0:
                        out[i, r, c] = j.gradient()
        return out

    def algebra_residuals(self) -> dict:
        """Worst Lie-algebra membership residuals across slots and grid points."""
        n = self.n
        w = self.values
        res = {"first_row": float(np.max(np.abs(w[:, 0]))),
               "last_column": float(np.max(np.abs(w[:, :, -1])))}
        R = w[:, 1:2 * n + 1, 1:2 * n + 1]
        res["antisymmetric"] = float(np.max(np.abs(R + np.swapaxes(R, 1, 2))))
        J0 = heis.standard_j_block(n)
        RJ = np.einsum("irc...,cs->irs...", R, J0)
        JR = np.einsum("rc,ics...->irs...", J0, R)
        res["j_compat"] = float(np.max(np.abs(RJ - JR)))
        bottom = w[:, 2 * n + 1, 1:2 * n + 1]
        tied = np.concatenate([w[:, n + 1:2 * n + 1, 0], -w[:, 1:n + 1, 0]], axis=1)
        res["bottom_row"] = float(np.max(np.abs(bottom - tied)))
        return res

    def structure_residual(self, method=None) -> float:
        """Max over chart-axis pairs of | d_p w_q - d_q w_p + [w_p, w_q] |.

        With exact (AD) jets the derivative terms come from the jets
        themselves and the identity holds to rounding; in FD mode the
        derivatives are recomputed by central differences across the grid,
        so the residual measures the consistency of the sampled field and
        shrinks at second order under refinement.
        """
        if method is None:
            method = "jet" if self.mode == "ad" else "grid"
        w = self.values
        worst = 0.0
        if method == "jet":
            dw = self.d1
            for p in range(self.d):
                for q in range(p + 1, self.d):
                    comm = (np.einsum("rs...,sc...->rc...", w[p], w[q])
                            - np.einsum("rs...,sc...->rc...", w[q], w[p]))
                    resid = dw[q][:, :, p] - dw[p][:, :, q] + comm
                    worst = max(worst, float(np.max(np.abs(resid))))
            return worst

        def cut(arr, ax, lo, hi):
            sl = [slice(None)] * arr.ndim
            sl[2 + ax] = slice(lo, hi if hi != 0 else None)
            return arr[tuple(sl)]

        def grid_d(arr, ax):
            # fourth-order central difference, matching the accuracy of the
            # finite-difference jets feeding the slots
            h = self.grid.spacing[ax]
            return (-cut(arr, ax, 4, 0) + 8 * cut(arr, ax, 3, -1)
                    - 8 * cut(arr, ax, 1, -3) + cut(arr, ax, 0, -4)) / (12 * h)

        def interior(arr, axes):
            sl = [slice(None)] * arr.ndim
            for ax in axes:
                sl[2 + ax] = slice(2, -2)
            return arr[tuple(sl)]

        for p in range(self.d):
            for q in range(p + 1, self.d):
                if self.grid.shape[p] < 5 or self.grid.shape[q] < 5:
                    continue
                dpq = interior(grid_d(w[q], p), [q])
                dqp = interior(grid_d(w[p], q), [p])
                wi_p = interior(w[p], [p, q])
                wi_q = interior(w[q], [p, q])
                comm = (np.einsum("rs...,sc...->rc...", wi_p, wi_q)
                        - np.einsum("rs...,sc...->rc...", wi_q, wi_p))
                worst = max(worst, float(np.max(np.abs(dpq - dqp + comm))))
        return worst

    # complex entry views (1-based frame indices) ---------------------------

    def conn_entry(self, g, b):
        """theta_g^b slots: list over chart axes of complex jets."""
        n = self.n
        return [self._slots[i][b][g] + 1j * self._slots[i][n + b][g]
                for i in range(self.d)]


def darboux_derivative(ff: FrameField) -> MCForm:
    return MCForm(ff)


# ---------------------------------------------------------------------------
# pointwise operations
# ---------------------------------------------------------------------------

def _value_at(field, idx):
    """Values of a (nested) jet vector at one grid index, signed zeros cleared."""
    return jets.values(field)[(Ellipsis,) + tuple(idx)] + 0.0


def _point_field(imm, u, policy="canonical", tol=None) -> FrameField:
    grid = _single_point_grid(imm.chart, u)
    kw = {}
    if tol is not None:
        kw = {"tol_singular": tol, "tol_cr": tol}
    return FrameField(imm, grid, policy=policy, **kw)


def contact_intersection(imm, u, tol=TOL_CR):
    """Orthonormal J-adapted basis of TM ∩ ker Θ at one chart point."""
    ff = _point_field(imm, u, tol=tol)
    idx = (0,) * ff.d
    base = ff.point_at(idx)
    return [heis.HTangent.from_frame(base, _value_at(leg.frame, idx))
            for leg in ff.legs_t + ff.legs_jt]


def reeb_and_nu(imm, u, tol=TOL_CR):
    """The induced Reeb field and the fundamental vector field at one point."""
    ff = _point_field(imm, u, tol=tol)
    idx = (0,) * ff.d
    base = ff.point_at(idx)
    that = heis.HTangent.from_frame(base, _value_at(ff.that.frame, idx))
    nu = heis.HTangent.from_frame(base, _value_at(ff.nu_frame, idx))
    return that, nu


def pullback_check(ff: FrameField, mc: MCForm | None = None) -> dict:
    """Residuals of the coframe restriction identities on tangent directions.

    The four identities relate the ambient coframe slots to the induced ones:
    the tangent-index slots restrict to the induced coframe, and each normal
    slot w^a restricts to (adapted component of nu along e_a) * theta-hat.
    """
    if mc is None:
        mc = darboux_derivative(ff)
    n, m, d = ff.n, ff.m, ff.d
    w = mc.values
    th = jets.values(ff.theta_slots)
    zco = jets.values(ff.coframe["z"])
    res = {}
    worst_tan = 0.0
    for j, zv in enumerate(zco):
        worst_tan = max(worst_tan,
                        float(np.max(np.abs(w[:, j + 1, 0] - zv.real))),
                        float(np.max(np.abs(w[:, n + j + 1, 0] - zv.imag))))
    res["tangent_coframe"] = worst_tan
    worst_n = 0.0
    for a_i, (e, je) in enumerate(zip(ff.legs_n, ff.legs_jn)):
        a = m + a_i
        ca = jets.values(_dot(ff.nu_frame, e))
        cna = jets.values(_dot(ff.nu_frame, je))
        worst_n = max(worst_n,
                      float(np.max(np.abs(w[:, a + 1, 0] - ca * th))),
                      float(np.max(np.abs(w[:, n + a + 1, 0] - cna * th))))
    res["normal_coframe"] = worst_n
    res["contact"] = float(np.max(np.abs(w[:, 2 * n + 1, 0] - th)))
    nu2 = jets.values(ff.nu_norm2)
    comp2 = np.sum(np.abs(jets.values(ff.nu_comp)) ** 2, axis=0) \
        if ff.nu_comp else np.zeros(ff.batch)
    res["nu_components"] = float(np.max(np.abs(nu2 - comp2)))
    return res

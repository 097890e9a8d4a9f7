"""Invariant fields of an immersed pseudohermitian submanifold.

From the moving-frame derivative this module extracts the second fundamental
form, the normal connection, the intrinsic Tanaka-Webster connection with its
torsion and curvature, and evaluates the cross-validation identities tying
the ambient restriction of the frame derivative to the intrinsic data.

Index conventions (all 0-based in storage, 1-based in the math comments):
  j, k, l, p, q in 1..m   tangent complex indices
  a, b in m+1..n          normal complex indices; stored offset by -m-1
  h[a][j][k]              coefficient of theta-hat^k in theta_j^a
  torsion[j][k]           coefficient A^j_k of theta-hat^kbar in tau-hat^j
  curv[j][k][p][q]        coefficient of theta-hat^p wedge theta-hat^qbar in
                          the curvature two-form of theta-hat_j^k
  ricci[k][j]             sum_l curv[k][j][l][l];  scalar = sum_k ricci[k][k]
"""

from __future__ import annotations

import math
import os
from functools import cached_property

import numpy as np

from . import jets
from .darboux import (COMPLETELY_NON_VERTICAL, FRAME_ORDER, TOL_CLASS, TOL_COFRAME,
                      VERTICAL, FrameField, MCForm, darboux_derivative,
                      darboux_frame, grid_structure_residual, plan_frame,
                      pullback_check)
from .errors import DegeneratePoint, IllConditionedCoframe, WrongClass

__all__ = ["Analysis", "Summary", "sweep", "ricci_nonpositivity_check",
           "nu_from_curvature", "h_from_curvature", "theta_nn_from_intrinsic"]

# points per block of the invariants sweep at (n, m) = (3, 2), chosen by
# measurement on a 2-vCPU host: on the benchmark's 7^5 workload blocks of
# 1201, 2401 and 4802 points ran equally fast, at 122, 195 and 303 MB peak
# RSS; on `invariants --grid 17` (4913 points, m = 1, four builtins in one
# process) 1201-point blocks took 0.461-0.468 s against 0.445-0.450 s
# (medians), slower in 23 of 24 interleaved rounds
BLOCK_POINTS = 2401

# jet numbers, points x s(n, m) of `_size`, that a block of a threaded sweep
# must hold: smaller blocks run one after another.  NumPy releases the GIL
# only inside its kernels, and on small blocks the interpreter's share of a
# block, which threads cannot overlap, is too large.  Sweep time of two
# threads on the shared budget (`_schedule`) against one on the whole one,
# medians of 5-7 interleaved in-process runs on a 2-vCPU host (CPython
# 3.11, numpy 2.4, BLAS on one thread):
#   (n, m)  grid   blocks x points  jet numbers  one / two threads
#   (2, 1)  17^3     7 x 702          1.05e6     1.02-1.10
#   (2, 1)  25^3    20 x 781          1.17e6     0.98-1.25 (4 builtins)
#   (2, 1)  25^3    15 x 1042         1.56e6     1.13-1.43 (3 builtins)
#   (3, 1)  17^3     7 x 702          2.06e6     1.38
#   (3, 1)  25^3    20 x 781          2.30e6     1.58
#   (2, 2)  5^5      4 x 781          5.47e6     1.63
#   (3, 2)  4^5      2 x 512          7.02e6     1.15
#   (3, 2)  7^5     22 x 764          1.05e7     1.39-1.60
# Threads on check and roundtrip at 17^3 (m = 1, four builtins in one
# process) also raised the peak RSS from 88-90 to 102 MB.
THREAD_NUMBERS = 2_000_000


def _size(n, m):
    """s(n, m) = (2n+1)^2 d ncoeff(d, FRAME_ORDER), d = 2m+1: about the
    numbers a block's jet fields hold per point (the frame's columns, once
    per chart axis in the Maurer-Cartan slots)."""
    d = 2 * m + 1
    return (2 * n + 1) ** 2 * d * math.comb(d + FRAME_ORDER, FRAME_ORDER)


def _block_points(n, m):
    """Points per block of a sweep at (n, m).

    Where s(n, m) (``_size``) exceeds s(3, 2), at which BLOCK_POINTS was
    measured, the block shrinks in proportion; it never grows past
    BLOCK_POINTS.
    """
    return max(1, min(BLOCK_POINTS, BLOCK_POINTS * _size(3, 2) // _size(n, m)))


def _workers():
    """Threads a sweep may run blocks on: the CPUs this process may use
    (``taskset -c 0`` leaves one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:     # no affinity call on this platform
        return os.cpu_count() or 1


def _schedule(npoints, n, m):
    """(block count, threads) of a sweep over ``npoints`` points at (n, m).

    One thread runs blocks of up to ``_block_points(n, m)`` points.  With w
    threads the budget is shared: blocks of up to 1/(w+1) of it, so the
    points in flight stay below one sequential block, with headroom for the
    temporaries that the threads hold at the same time: on invariants at
    7^5 (m = 2, the benchmark's worker) two threads on blocks of 800 points
    peaked at 163-166 MB (182-185 MB in 2 of 11 runs), on blocks of 1200
    at 196-197 MB, and one thread at 194 MB.
    Threads run only where those blocks hold THREAD_NUMBERS jet numbers,
    there are two of them, and the frame is no larger than at (3, 2), the
    largest that the cut was measured at: past it the blocks shrink, and
    the shared blocks of heis_sub(1,16) at 9^3 (145 points) ran 1.0-1.1x
    as fast, those of heis_sub(1,64) at 5^3 (10 points) 1.4-1.5x slower.
    """
    budget = _block_points(n, m)
    workers = _workers()
    if workers > 1 and _size(n, m) <= _size(3, 2):
        count = -(-npoints // max(1, budget // (workers + 1)))
        if count > 1 and npoints // count * _size(n, m) >= THREAD_NUMBERS:
            return count, min(workers, count)
    return -(-npoints // budget), 1


class Analysis:
    """Lazy invariant extraction pipeline over one frame field.

    On a first-order frame (built without a plan, ``FrameField``) the
    first-order invariants come from the frame itself, and the curvature,
    ``consistency`` and what is built on them from ``lifted``, the analysis
    of ``mc.lifted``.  Without ``mc`` the Maurer-Cartan form is built on its
    first read.
    """

    def __init__(self, ff: FrameField, mc: MCForm | None = None):
        self.ff = ff
        if mc is not None:
            self.mc = mc
        self.n, self.m, self.d = ff.n, ff.m, ff.d
        self.codim = self.n - self.m
        self.batch = ff.batch

    @cached_property
    def mc(self):
        return darboux_derivative(self.ff)

    @property
    def lifted(self):
        """The analysis of ``mc.lifted`` (``self`` on a planned frame), kept:
        the curvature and the readers built on it answer from it."""
        return self if self.mc.lifted is self.mc else self._lifted

    @cached_property
    def _lifted(self):
        return Analysis(self.mc.lifted.ff, self.mc.lifted)

    # -- coframe machinery --------------------------------------------------

    @cached_property
    def zco1(self):
        """theta-hat^j slots truncated to at most first order, (m, d)."""
        return _first(self.ff.coframe["z"])

    @cached_property
    def th1(self):
        return _first(self.ff.theta_slots)

    @cached_property
    def zhat1(self):
        """Chart components of Zhat_j, at most first order, (m, d)."""
        return _first(self.ff.duals["zhat"])

    @cached_property
    def that1(self):
        return _first(self.ff.duals["that"])

    def coframe_condition(self):
        """Condition of the dual tangent frame in chart components over the
        frame's planned grid (``FrameField.condition``)."""
        return self.ff.condition

    @cached_property
    def _dz(self):
        """Chart derivatives of the induced coframe, as real first-order jets.

        With theta-hat^k = a^k + i b^k, returns the Jacobians (ga, gb):
        ga[k, q, p] = d_p a^k(d_q), (m, d, d), and gb likewise.  The exterior
        derivative d a^k (d_p, d_q) is ga[k, q, p] - ga[k, p, q], so a
        pairing x . da . y is y . ga . x - x . ga . y.
        """
        z = self.ff.coframe["z"]
        return z.real.jacobian(), z.imag.jacobian()

    # -- second fundamental form and normal connection -----------------------

    @cached_property
    def conn_slots(self):
        """Ambient connection entries restricted to the chart, first order.

        Each block is one complex jet indexed [g, b, i] for theta_g^b(d_i).
        """
        m = self.m
        conn = self.mc.conn
        return {"tan": conn[:m, :m], "mixed": conn[:m, m:], "normal": conn[m:, m:]}

    @cached_property
    def second_ff(self):
        """h[a][j][k], the theta-hat^k coefficient of theta_j^a."""
        return {"h": _pair(self._mixed, self.zhat1.T)}

    @property
    def _mixed(self):
        """theta_j^a slots as one (a, j, i) jet."""
        return self.conn_slots["mixed"].transpose(1, 0, 2)

    @cached_property
    def nu_comp_vals(self):
        return jets.values(self.ff.nu_comp) if self.codim \
            else np.zeros((0,) + self.batch, dtype=complex)

    def second_ff_residuals(self):
        """Residuals of the predicted lower-order coefficients of theta_j^a.

        The theta-hat^kbar coefficient must equal i delta_jk nu^a and the
        theta-hat coefficient must equal the normal-connection derivative of
        nu paired with Z_a.
        """
        m, cod = self.m, self.codim
        if cod == 0:
            return {"h_symmetry": 0.0, "mixed_bar": 0.0, "mixed_t": 0.0}
        h = self.second_ff["h"]
        bar = _pair(self._mixed, self.zhat1.T.conj())
        t = _pair(self._mixed, self.that1)
        nu = self.nu_comp_vals
        pred_bar = np.zeros_like(bar)
        for j in range(m):
            pred_bar[:, j, j] = 1j * nu
        dnu = self.nabla_perp_nu
        res = {
            "h_symmetry": float(np.max(np.abs(h - np.swapaxes(h, 1, 2)))),
            "mixed_bar": float(np.max(np.abs(bar - pred_bar))),
            "mixed_t": float(np.max(np.abs(t - dnu))),
        }
        return res

    @cached_property
    def nabla_perp_nu(self):
        """Normal-connection derivative of nu: entries <nabla_{Zhat_j} nu, Z_a>."""
        zhat = self.zhat1.T
        # directional derivative of nu^a along Zhat_j, then the connection
        # correction from the normal block
        out = _pair(self.ff.nu_comp.jacobian(), zhat)
        conn = _pair(self.conn_slots["normal"], zhat)          # (b, a, j)
        return out + np.einsum("b...,baj...->aj...", self.nu_comp_vals, conn)

    @cached_property
    def normal_conn_coeffs(self):
        """theta_a^b expanded on (theta-hat^k, theta-hat^kbar, theta-hat)."""
        normal = self.conn_slots["normal"]
        zhat = self.zhat1.T
        hol = _pair(normal, zhat)
        anti = _pair(normal, zhat.conj())
        reeb = _pair(normal, self.that1)
        skew = 0.0
        if self.codim:
            w = self.mc.values
            nb = self.n
            blk = (w[:, self.m + 1:nb + 1, self.m + 1:nb + 1]
                   + 1j * w[:, nb + self.m + 1:2 * nb + 1, self.m + 1:nb + 1])
            skew = float(np.max(np.abs(blk + np.conj(np.swapaxes(blk, 1, 2)))))
        return {"hol": hol, "anti": anti, "reeb": reeb, "skew_hermitian": skew}

    # -- intrinsic Tanaka-Webster connection ---------------------------------

    def _pairings(self):
        """x . d theta-hat^k . y for x in (e, Je), y in (e, Je, That), as the
        real and imaginary parts (Sa, Sb), two first-order (m, 2m, 2m+1) jets.

        The charts of these fields are real, so each pairing is a real jet
        product; Zhat_j = (e_j - i Je_j) / 2 enters through the block
        combinations of the callers.
        """
        m = self.m
        ch = self.ff.charts                                # (2m+1, d): e, Je, That

        def pairing(g):
            M = ch @ (g @ ch.T)
            return M.transpose(0, 2, 1)[:, :2 * m] - M[:, :2 * m]

        ga, gb = self._dz
        return pairing(ga), pairing(gb)

    @cached_property
    def tanaka_webster(self):
        """Connection coefficients and torsion of the induced structure.

        Solves d theta-hat^k = theta-hat^j ^ theta-hat_j^k + theta-hat ^ tau^k
        with skew-hermitian connection and admissible torsion by reading the
        coefficients off the dual frame (``consistency`` evaluates the
        unused sectors of the equation).  A two-form paired with chart
        vectors V, W is V . dz . W, so the pairings with (Zhat_j, conj
        Zhat_j, That) for all indices at once are two jet products per form.
        """
        m = self.m
        cond = self.coframe_condition()
        if cond < TOL_COFRAME:
            raise IllConditionedCoframe(
                f"dual coframe condition {cond:.2e} too small")
        Sa, Sb = self._pairings()
        e, je, t = slice(0, m), slice(m, 2 * m), 2 * m

        def cplx(re, im):
            return re + 1j * im

        # coefficient of z_j, zbar_l in dz^k: Zhat_j . dz^k . conj Zhat_l
        D = 0.25 * cplx(Sa[:, e, e] + Sa[:, je, je] - Sb[:, e, je] + Sb[:, je, e],
                        Sb[:, e, e] + Sb[:, je, je] + Sa[:, e, je] - Sa[:, je, e])
        gamma_bar = D                              # Gamma^k_{j, lbar} = D[k][j][l]
        gamma_hol = -(D.transpose(1, 0, 2).conj())
        # Gamma^k_{j, 0} = Zhat_j . dz^k . That; torsion from conj Zhat_j
        gamma_0 = 0.5 * cplx(Sa[:, e, t] + Sb[:, je, t], Sb[:, e, t] - Sa[:, je, t])
        torsion = -0.5 * cplx(Sa[:, e, t] - Sb[:, je, t], Sb[:, e, t] + Sa[:, je, t])
        return {"gamma_hol": gamma_hol, "gamma_bar": gamma_bar, "gamma_0": gamma_0,
                "torsion": torsion, "condition": cond}

    @cached_property
    def torsion_vals(self):
        return jets.values(self.tanaka_webster["torsion"])

    @cached_property
    def intrinsic_conn_slots(self):
        """theta-hat_j^k as chart slots, one (m, m, d) jet of the order of
        the Tanaka-Webster coefficients (first order on a planned frame)."""
        tw = self.tanaka_webster
        # gamma_hol z + gamma_bar conj z with z = a + i b, as real products
        gh, gb = tw["gamma_hol"].transpose(1, 0, 2), tw["gamma_bar"].transpose(1, 0, 2)
        p, q = gh + gb, gh - gb
        order = gh.ctx.order
        z, th = self.zco1.truncated(order), self.th1.truncated(order)
        a, b = z.real, z.imag
        return (tw["gamma_0"].T[:, :, None] * th
                + (p.real @ a - q.imag @ b) + 1j * (p.imag @ a + q.real @ b))

    # -- curvature ------------------------------------------------------------

    def _curvature_form(self):
        """Values of the curvature two-form of theta-hat_j^k on chart pairs:
        lam[j, k, p, q], (m, m, d, d, *batch); read on a full-order frame."""
        m, d = self.m, self.d
        s = self.intrinsic_conn_slots
        sv = jets.values(s)                              # (m, m, d, batch)
        ds = jets.values(_exterior(s))                   # (m, m, d, d, batch)
        # tau^k and lowered-index companions as value slots
        zv = jets.values(self.ff.coframe["z"])           # (m, d, batch)
        tor = self.torsion_vals
        tau = np.einsum("kl...,ld...->kd...", tor, np.conj(zv))

        lam = np.zeros((m, m, d, d) + self.batch, dtype=complex)
        for j in range(m):
            for k in range(m):
                for p in range(d):
                    for q in range(p + 1, d):
                        djk = ds[j, k, p, q]
                        wedge = 0.0
                        for l in range(m):
                            wedge = wedge + sv[j, l, p] * sv[l, k, q] \
                                - sv[j, l, q] * sv[l, k, p]
                        # i theta_j ^ tau^k with theta_j = conj(theta^j)
                        tj = np.conj(zv[j])
                        t1 = 1j * (tj[p] * tau[k, q] - tj[q] * tau[k, p])
                        # i tau_j ^ theta^k with tau_j = conj(tau^j)
                        tjb = np.conj(tau[j])
                        t2 = 1j * (tjb[p] * zv[k, q] - tjb[q] * zv[k, p])
                        lam[j, k, p, q] = djk - wedge - t1 + t2
                        lam[j, k, q, p] = -lam[j, k, p, q]
        return lam

    @cached_property
    def curvature(self):
        """Curvature coefficients curv[j][k][p][q] of the induced structure,
        the Webster-Ricci form and the Webster scalar curvature, from
        ``lifted``."""
        if self.lifted is not self:
            return self.lifted.curvature
        m = self.m
        lam = self._curvature_form()
        zh = jets.values(self.zhat1)                     # (m, d, batch)
        curv = np.zeros((m, m, m, m) + self.batch, dtype=complex)
        for p in range(m):
            for q in range(m):
                curv[:, :, p, q] = _pair_form(lam, zh[p], np.conj(zh[q]))
        ricci = np.einsum("kjll...->kj...", curv)
        scalar = np.einsum("kk...->...", ricci)
        return {"curv": curv, "ricci": ricci, "scalar": scalar.real}

    @cached_property
    def consistency(self):
        """Residuals of identities that the extracted structure satisfies,
        evaluated on demand (no report reads them):

        * ``solve_residual``: the sectors of the Tanaka-Webster structure
          equation that the solve leaves unused;
        * ``admissibility``: d theta-hat = i theta^l ^ theta^lbar;
        * ``purity``: the (2,0) and (0,2) parts of the curvature two-form;
        * ``hermitian``: the Webster-Ricci form against its adjoint.

        ``lifted`` evaluates them.
        """
        if self.lifted is not self:
            return self.lifted.consistency
        m = self.m
        tw = self.tanaka_webster
        Sa, Sb = self._pairings()
        e, je = slice(0, m), slice(m, 2 * m)
        S = jets.values(Sa) + 1j * jets.values(Sb)
        uu, uv, vu, vv = S[:, e, e], S[:, e, je], S[:, je, e], S[:, je, je]
        Cv = 0.25 * (uu - 1j * uv - 1j * vu - vv)          # z_j, z_l in dz^k
        Ev = 0.25 * (uu + 1j * uv + 1j * vu - vv)          # zbar_j, zbar_l
        ghv = jets.values(tw["gamma_hol"])
        res = max(float(np.max(np.abs(Cv - (ghv - np.swapaxes(ghv, 1, 2))))),
                  float(np.max(np.abs(Ev))))
        Fv, tv = jets.values(tw["gamma_0"]), self.torsion_vals
        res = max(res, float(np.max(np.abs(Fv + np.conj(np.swapaxes(Fv, 0, 1))))),
                  float(np.max(np.abs(tv - np.swapaxes(tv, 0, 1)))))
        # admissibility of the induced contact form
        zh = jets.values(self.zhat1)
        w = np.concatenate([zh, np.conj(zh), jets.values(self.that1)[None]])
        g = jets.values(self.ff.theta_slots.jacobian())    # g[q, p] = d_p theta(d_q)
        v = (np.einsum("lq...,qp...,jp...->jl...", w, g, zh)
             - np.einsum("jq...,qp...,lp...->jl...", zh, g, w))
        eye = np.eye(m).reshape((m, m) + (1,) * len(self.batch))
        adm = max(float(np.max(np.abs(v[:, m:2 * m] - 1j * eye))),
                  float(np.max(np.abs(v[:, :m]))), float(np.max(np.abs(v[:, 2 * m]))))
        lam = self._curvature_form()
        purity = max(float(np.max(np.abs(_pair_form(lam, a[p], a[q]))))
                     for a in (zh, np.conj(zh)) for p in range(m) for q in range(m))
        ricci = self.curvature["ricci"]
        herm = float(np.max(np.abs(ricci - np.conj(np.swapaxes(ricci, 0, 1)))))
        return {"solve_residual": res, "admissibility": adm, "purity": purity,
                "hermitian": herm}

    # -- scalar summaries -----------------------------------------------------

    @cached_property
    def II_norm2(self):
        sf = self.second_ff["h"]
        return np.sum(np.abs(sf) ** 2, axis=(0, 1, 2)) if self.codim else \
            np.zeros(self.batch)

    @cached_property
    def torsion_norm2(self):
        return np.sum(np.abs(self.torsion_vals) ** 2, axis=(0, 1))

    # -- restriction identity suite -------------------------------------------

    def restriction_residuals(self) -> dict:
        """Ambient-vs-intrinsic residuals of the five coframe/connection ties.

        1. tangent slots restrict to the induced coframe,
        2. normal translation slots equal nu^a theta-hat,
        3. the contact slot equals theta-hat,
        4. tangent connection slots equal the intrinsic connection plus
           i delta_jk |nu|^2 theta-hat,
        5. mixed slots carry (h, i delta nu^a, normal derivative of nu) as
           their dual-frame coefficients.
        """
        m = self.m
        pc = pullback_check(self.ff, self.mc)
        res = {"tangent_coframe": pc["tangent_coframe"],
               "normal_coframe": pc["normal_coframe"],
               "contact": pc["contact"]}
        # (4): tangent connection block
        nu2 = jets.values(self.ff.nu_norm2)
        thv = jets.values(self.ff.theta_slots)
        tan = jets.values(self.conn_slots["tan"])
        intrinsic = jets.values(self.intrinsic_conn_slots)
        worst4 = 0.0
        for j in range(m):
            for k in range(m):
                amb, intr = tan[j, k], intrinsic[j, k]
                if j == k:
                    intr = intr + 1j * nu2 * thv
                worst4 = max(worst4, float(np.max(np.abs(amb - intr))))
        res["tangent_connection"] = worst4
        sfres = self.second_ff_residuals()
        res["mixed_connection"] = max(sfres["mixed_bar"], sfres["mixed_t"])
        res["h_symmetry"] = sfres["h_symmetry"]
        res["max"] = max(v for v in res.values())
        return res

    def gauss_residual(self) -> float:
        """Vertical case: curvature two-form coefficients against -h h-bar."""
        cur = self.curvature["curv"]
        h = self.second_ff["h"]
        pred = -np.einsum("cjp...,clq...->jlpq...", h, np.conj(h))
        return float(np.max(np.abs(cur - pred)))

    def cnv_curvature_residual(self) -> float:
        """Codimension-one, nowhere-vertical case: curvature through torsion.

        Checks R_k^j_{l qbar} = delta_jk delta_lq |nu|^2 - Abar^k_l A^j_q/|nu|^2
        + delta_j^l delta_k^q |nu|^2 pointwise.
        """
        if self.codim != 1:
            raise WrongClass("torsion-curvature identity needs codimension one")
        m = self.m
        cur = self.curvature["curv"]
        A = self.torsion_vals
        nu2 = jets.values(self.ff.nu_norm2)
        if np.min(nu2) <= 0:
            raise WrongClass("surface is not completely non-vertical")
        worst = 0.0
        eye = np.eye(m)
        for k in range(m):
            for j in range(m):
                for l in range(m):
                    for q in range(m):
                        pred = (eye[j, k] * eye[l, q] * nu2
                                - np.conj(A[k, l]) * A[j, q] / nu2
                                + eye[j, l] * eye[k, q] * nu2)
                        worst = max(worst, float(np.max(np.abs(
                            cur[k, j, l, q] - pred))))
        return worst

    def scalar_torsion_residual(self) -> float:
        """Relative residual of R = -|A|^2/|nu|^2 + m(m+1)|nu|^2."""
        R = self.curvature["scalar"]
        nu2 = jets.values(self.ff.nu_norm2)
        if np.min(nu2) <= 0:
            raise WrongClass("surface is not completely non-vertical")
        pred = -self.torsion_norm2 / nu2 + self.m * (self.m + 1) * nu2
        return float(np.max(np.abs(R - pred) / (1.0 + np.abs(pred))))

    def h_torsion_link_residual(self) -> float:
        """Codim-one gauge identity h_jk |nu| = conj-torsion in the nu gauge."""
        if self.codim != 1:
            raise WrongClass("link identity needs codimension one")
        if self.ff.policy != "nu":
            raise WrongClass("link identity is stated in the nu-adapted gauge")
        h = self.second_ff["h"][0]
        nu = np.sqrt(jets.values(self.ff.nu_norm2))
        A = self.torsion_vals
        # the lowered-index torsion pairs with h through a conjugation
        return float(np.max(np.abs(h * nu - np.conj(A))))

    def theta_nn_residual(self) -> float:
        return theta_nn_from_intrinsic(self)["residual"]


def _exterior(form):
    """d of a one-form given by its chart slots on the last axis of a jet.

    Returns the jet of one order lower with two trailing chart axes,
    out[..., p, q] = d_p form[..., q] - d_q form[..., p].
    """
    g = form.jacobian()                      # g[..., q, p] = d_p form[..., q]
    return g.transpose(*range(form.nt - 1), form.nt, form.nt - 1) - g


def _first(jet):
    """``jet`` truncated to first order, unless it is of order 0 already."""
    return jet.truncated(min(jet.ctx.order, 1))


def _pair(a, b):
    """Values of the contraction a @ b, from the values alone."""
    return jets.values(a.truncated(0) @ b.truncated(0))


def _pair_form(lam, V, W):
    """Two-form values lam (..., p, q, *batch) paired with chart vectors V, W."""
    return np.einsum("jkpq...,p...,q...->jk...", lam, V, W)


# ---------------------------------------------------------------------------
# named operations over an analysis
# ---------------------------------------------------------------------------

def ricci_nonpositivity_check(an: Analysis, tol=1e-8):
    """Largest eigenvalue of the Webster-Ricci form; vertical surfaces only."""
    plan = an.ff.plan
    if plan.verticality().kind != VERTICAL:
        raise WrongClass(f"Ricci sign check applies to vertical surfaces "
                         f"(max |nu| = {plan.nu_max:.2e})")
    ric = an.curvature["ricci"]
    m = an.m
    M = np.moveaxis(ric.reshape(m, m, -1), -1, 0)
    M = 0.5 * (M + np.conj(np.swapaxes(M, 1, 2)))
    ev = np.linalg.eigvalsh(M)
    top = float(np.max(ev))
    return {"max_eigenvalue": top, "pass": top <= tol, "tol": tol}


def nu_from_curvature(scalar_R, torsion_sq, m):
    """|nu|^2 from the scalar curvature and |A|^2 in the codim-one CNV case."""
    R = np.asarray(scalar_R, dtype=float)
    A2 = np.asarray(torsion_sq, dtype=float)
    mm = m * (m + 1)
    return (R + np.sqrt(R * R + 4 * mm * A2)) / (2 * mm)


def h_from_curvature(an: Analysis, tol=1e-6):
    """|h| recovered from curvature alone (vertical, codim one, nondegenerate).

    Picks the tangent index with the most negative diagonal curvature, uses it
    to normalise the gauge phase, and rebuilds the full matrix; absolute
    values are gauge-independent and comparable with the ambient extraction.
    """
    if an.codim != 1:
        raise WrongClass("curvature-determines-h needs codimension one")
    if an.ff.plan.verticality().kind != VERTICAL:
        raise WrongClass("curvature-determines-h applies to vertical surfaces")
    m = an.m
    cur = an.curvature["curv"]
    diag = np.stack([np.real(cur[j, j, j, j]) for j in range(m)])  # (m, batch)
    j0 = np.argmin(diag, axis=0)
    best = np.take_along_axis(diag, j0[None], axis=0)[0]
    degenerate = best > -tol
    if np.all(degenerate):
        raise DegeneratePoint("curvature diagonal vanishes on the whole grid; "
                              "surface has no nondegenerate points")
    h11 = np.sqrt(np.where(degenerate, np.nan, -best))
    habs = np.zeros((m, m) + an.batch)
    for j in range(m):
        for k in range(m):
            habs[j, k] = np.abs(_gather_jj(cur, j, k, j0)) / h11
    return {"h_abs": habs, "degenerate_mask": degenerate}


def _gather_jj(cur, j, k, j0):
    """cur[j, j0, k, j0] with per-point pivot index j0."""
    m = cur.shape[0]
    out = np.zeros(cur.shape[4:], dtype=complex)
    for piv in range(m):
        mask = j0 == piv
        out[mask] = -cur[j, piv, k, piv][mask]
    return out


def theta_nn_from_intrinsic(an: Analysis):
    """Reassemble the normal connection form from intrinsic data only.

    Valid for completely non-vertical codimension-one surfaces in the
    nu-adapted gauge; returns chart slots of the candidate together with the
    sup-residual against the ambient normal connection entry.  It needs the
    second derivatives of |nu|, so it reads ``an.lifted``.
    """
    an = an.lifted
    if an.codim != 1:
        raise WrongClass("normal-form reconstruction needs codimension one")
    nu2min = float(np.min(an.ff.nu_norm2.value))
    if nu2min <= 1e-14:
        raise WrongClass("normal-form reconstruction needs a completely "
                         "non-vertical surface")
    m, d = an.m, an.d
    ff = an.ff
    nrm = ff.nu_norm_jet()                       # |nu| as a second-order jet
    dn = nrm.jacobian()
    zd = an.zhat1 @ dn                                         # Zhat_j |nu|
    td = jets.values(an.that1 @ dn)                            # That |nu|
    tw = an.tanaka_webster

    zdv = jets.values(zd)
    dzd = jets.values(zd.jacobian())                           # (m, d, batch)
    gamma_bar = jets.values(tw["gamma_bar"])
    zbar = np.conj(jets.values(an.zhat1))
    S = np.zeros(an.batch, dtype=complex)
    for j in range(m):
        acc = sum(zbar[j, i] * dzd[j, i] for i in range(d))
        for k in range(m):
            acc = acc - gamma_bar[k, j, j] * zdv[k]
        S = S + acc
    grad2 = sum(np.abs(z) ** 2 for z in zdv)
    nuv = np.sqrt(jets.values(ff.nu_norm2))
    A2 = an.torsion_norm2
    imb = (2 * S - 1j * m * td - 2 * grad2 / nuv - m * nuv ** 3 + A2 / nuv) / m
    imb_im_res = float(np.max(np.abs(imb.imag)))
    imb = imb.real

    zv = jets.values(ff.coframe["z"])
    thv = jets.values(ff.theta_slots)
    cand = (np.einsum("j...,ji...->i...", zdv, zv)
            - np.einsum("j...,ji...->i...", np.conj(zdv), np.conj(zv))
            - 1j * imb * thv) / nuv
    amb = jets.values(an.conn_slots["normal"][0][0])
    return {"candidate": cand, "ambient": amb,
            "residual": float(np.max(np.abs(cand - amb))),
            "imaginary_defect": imb_im_res}


# ---------------------------------------------------------------------------
# the report summary, swept over point blocks
# ---------------------------------------------------------------------------

TABLES = ("nu", "II_norm", "torsion_norm", "R")
FIELDS = ("nu", "II_norm2", "torsion_norm2", "R")


def fold_max(maxima, key, value):
    """Keep in ``maxima[key]`` the larger of it and ``value`` (NaN sticks)."""
    maxima[key] = float(np.maximum(maxima.get(key, value), value))


class Summary:
    """What a report keeps of one surface: order-0 fields and residual maxima.

    ``fields`` holds |nu|, |II|^2, |A|^2 and the Webster curvature R at every
    grid point (C order), and ``table`` the report's tables (the norms as
    square roots); ``residuals`` the largest structure, restriction (incon2)
    and, by ``kind``, Gauss or torsion-curvature residuals.  ``kind`` is the
    verticality class of the planned |nu| at the report's tolerance.  An
    ``Analysis`` of a block or of the whole grid is added by ``fold``; its jet
    fields are not kept.  With ``keep_slots`` the Maurer-Cartan slot values
    of every point are kept too (``slot_values``).  ``visited`` holds the
    maxima that a sweep's ``visit`` returns.
    """

    def __init__(self, plan, grid, tol_class=TOL_CLASS, keep_slots=False):
        self.plan, self.grid = plan, grid
        self.shape = grid.shape
        self.kind = plan.verticality(tol_class).kind
        self.fields = {key: np.empty(grid.npoints) for key in FIELDS}
        self.residuals, self.visited = {}, {}
        self.keep_slots = keep_slots
        D = 2 * plan.n + 2
        self.slots = np.empty((grid.ndim, D, D, grid.npoints)) if keep_slots else None

    def fold(self, an, start=0, residuals=True):
        """Add the Analysis of the points ``start:`` of the grid (C order):
        ``fill``, then ``merge``.

        ``residuals=False`` keeps the fields alone.  An FD analysis cannot
        evaluate the structure residual without its neighbours across
        blocks: its slot values are kept, and ``close`` evaluates it over
        the grid.
        """
        return self.merge(self.fill(an, start, residuals))

    def fill(self, an, start=0, residuals=True):
        """Write the fields (and slot values) of ``an`` at points ``start:``
        and return its residuals, unmerged.  Blocks write disjoint points,
        so blocks on threads fill one summary; the slot array of FD blocks
        on threads must exist before (``keep_slots``)."""
        stop = start + int(np.prod(an.batch))
        fields = (an.ff.nu_norm, an.II_norm2, an.torsion_norm2, an.curvature["scalar"])
        for key, arr in zip(FIELDS, fields):
            self.fields[key][start:stop] = arr.reshape(-1)
        if not residuals:
            return {}
        exact = an.mc.mode == "ad"
        if self.keep_slots or not exact:
            w = an.mc.values
            if self.slots is None:
                self.slots = np.empty(w.shape[:3] + (self.grid.npoints,))
            self.slots[..., start:stop] = w.reshape(w.shape[:3] + (-1,))
        res = {"incon2": an.restriction_residuals()["max"]}
        if exact:
            res["structure"] = an.mc.structure_residual()
        if self.kind == VERTICAL:
            res["gauss"] = an.gauss_residual()
        if self.kind == COMPLETELY_NON_VERTICAL and an.codim == 1:
            res["nver15"] = an.cnv_curvature_residual()
            res["nver28"] = an.scalar_torsion_residual()
        return res

    def merge(self, res, visited=None):
        """Fold one block's residuals (``fill``), and what ``visit`` returned
        of it, into the maxima: on one thread, in block order."""
        for key, value in res.items():
            fold_max(self.residuals, key, value)
        for key, value in (visited or {}).items():
            fold_max(self.visited, key, value)
        return self

    def close(self):
        """After the last block: the structure residual of FD blocks, by
        central differences over the kept slot values of the whole grid."""
        if self.slots is not None and "structure" not in self.residuals:
            fold_max(self.residuals, "structure",
                     grid_structure_residual(self.slot_values(), self.grid))
        return self

    def slot_values(self):
        """The kept Maurer-Cartan slot values, (d, D, D, *grid)."""
        return self.slots.reshape(self.slots.shape[:3] + self.shape)

    def field(self, key):
        return self.fields[key].reshape(self.shape)

    def table(self, key):
        return self.field(key) if key in self.fields else np.sqrt(self.field(key + "2"))


def sweep(imm, grid, policy="canonical", mode="ad", tol_class=TOL_CLASS,
          residuals=True, keep_slots=False, visit=None) -> Summary:
    """The report summary of ``imm`` over ``grid``, in blocks of points.

    Every invariant in the summary is pointwise, so after one ``FramePlan``
    made over the whole grid the grid is split into near-equal contiguous
    blocks (``_schedule``), and each runs the frame, Maurer-Cartan and
    invariant pipeline alone, following the plan; peak memory then follows
    the block, not the grid, and the fields and residuals are those of the
    whole-grid build.  Blocks run one after another, or on threads where
    ``_schedule`` says they pay; either way the residual maxima are merged
    in block order, and the first failing block raises its error.
    ``residuals`` and ``keep_slots`` go to ``Summary``; ``visit(block,
    an)``, if given, reads what else a caller keeps of each block's
    Analysis, possibly on a worker thread, and may return a dict of maxima
    to fold into ``Summary.visited``.  In FD mode the structure residual
    needs neighbours across blocks, so it runs after the sweep on the whole
    grid's slot values.
    """
    plan = plan_frame(imm, grid, policy=policy, mode=mode)
    summary = Summary(plan, grid, tol_class, keep_slots or (residuals and mode == "fd"))
    count, workers = _schedule(grid.npoints, imm.n, imm.m)

    def run(block):
        an = Analysis(darboux_frame(imm, block, policy=plan.policy, mode=mode, plan=plan))
        return (summary.fill(an, block.start, residuals),
                None if visit is None else visit(block, an))

    blocks = grid.blocks(count)
    if workers == 1:
        for block in blocks:
            summary.merge(*run(block))
    else:
        _threaded(run, blocks, workers, summary.merge)
    return summary.close()


def _threaded(run, blocks, workers, merge):
    """``merge(*run(block))`` of every block, ``run`` on ``workers`` threads
    and ``merge`` here, in block order.  The first failing block in that
    order raises its error; once a block fails, or this thread is
    interrupted, no block starts."""
    import threading
    from concurrent.futures import ThreadPoolExecutor

    stop = threading.Event()

    def guarded(block):
        if stop.is_set():
            return None
        try:
            return run(block)
        except BaseException:
            stop.set()
            raise

    pool = ThreadPoolExecutor(workers)
    try:
        for future in [pool.submit(guarded, block) for block in blocks]:
            merge(*future.result())
    finally:
        stop.set()
        pool.shutdown(cancel_futures=True)

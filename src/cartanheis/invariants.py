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
import pickle
import sys
import warnings
from functools import cached_property

import numpy as np

from . import jets
from .darboux import (COMPLETELY_NON_VERTICAL, FRAME_ORDER, TOL_CLASS, TOL_COFRAME,
                      VERTICAL, FrameField, MCForm, darboux_derivative,
                      darboux_frame, grid_structure_residual, plan_frame)
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

# jet numbers, points x s(n, m) of `_size`, that a block must hold for the
# sweep to run its blocks on the process's pool of forked workers
# (`_run_blocks`): smaller blocks run one after another in the calling process.
# Sweep time in-process against the kept pool of two workers, forked by an
# earlier sweep, on the blocks of `_schedule`: medians of 9 or 11
# interleaved in-process runs (two figures: two such runs) on a 2-vCPU host
# (CPython 3.11, numpy 2.4, BLAS on one thread), policy auto:
#   (n, m)  surface               grid  blocks x points  jet numbers  ratio
#   (2, 1)  sphere(2,1)            9^3     2 x 364         5.5e5      0.99, 1.16
#   (1, 1)  heis_sub(1,1)         17^3     4 x 1228        6.6e5      0.90, 1.56
#   (2, 1)  sphere(2,1)           10^3     2 x 500         7.5e5      0.79
#   (2, 1)  heis_sub(1,2)         10^3     2 x 500         7.5e5      0.83
#   (1, 1)  heis_sub(1,1)         19^3     4 x 1714        9.3e5      1.33
#   (2, 1)  sphere(2,1)           11^3     2 x 665         1.0e6      1.53
#   (1, 1)  heis_sub(1,1)         25^3     8 x 1953        1.05e6     1.43
#   (1, 1)  heis_sub(1,1)         21^3     4 x 2315        1.25e6     1.28
#   (2, 1)  sphere(2,1)           13^3     2 x 1098        1.65e6     1.55
#   (2, 1)  sphere(2,1)           17^3     4 x 1228        1.84e6     1.69
#   (2, 1)  ellipsoid(2,1,1.3)    17^3     4 x 1228        1.84e6     1.28
#   (2, 1)  holograph()           17^3     4 x 1228        1.84e6     1.49
#   (2, 1)  holograph()           25^3     8 x 1953        2.93e6     1.53
#   (2, 1)  sphere(2,1)           21^3     4 x 2315        3.47e6     1.67
#   (3, 1)  heis_sub(1,3)         17^3     4 x 1228        3.61e6     1.25
#   (3, 2)  ellipsoid(3,1,1,1.3)   4^5     2 x 512         7.02e6     1.60
#   (2, 2)  heis_sub(2,2)          5^5     2 x 1562        1.09e7     1.74
#   (3, 2)  ellipsoid(3,1,1,1.3)   7^5     8 x 2100        2.88e7     1.87
# Below the cut the ratios of these 20-90 ms sweeps scatter about 1; from
# 9.3e5 on every one gains, the desk17 benchmark's (2, 1) sweeps at 17^3
# among them.
PROCESS_NUMBERS = 900_000


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
    """Processes a sweep may run blocks on: one per CPU that this process may
    use (``taskset -c 0`` leaves one).  One where the platform has no
    affinity set, and in a daemonic process, such as a ``multiprocessing``
    pool's worker, which may not start children (a daemonic process has
    ``multiprocessing`` imported)."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.current_process().daemon:
        return 1
    return len(os.sched_getaffinity(0))


def _schedule(npoints, n, m):
    """(block count, processes) of a sweep over ``npoints`` points at (n, m).

    Each process holds one block of up to ``_block_points(n, m)`` points at
    a time.  With w > 1 workers the block count is rounded up to a multiple
    of w, so that the workers end together.  Workers run only where those
    blocks hold PROCESS_NUMBERS jet numbers and the frame is no larger than
    at (3, 2), the largest that the cut was measured at: past it the blocks
    shrink, and each worker holds its own block beside the calling
    process's plan.
    """
    count = -(-npoints // _block_points(n, m))
    workers = _workers()
    if workers > 1 and _size(n, m) <= _size(3, 2):
        pooled = -(-count // workers) * workers
        if npoints // pooled * _size(n, m) >= PROCESS_NUMBERS:
            return pooled, workers
    return count, 1


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
        blk = jets.values(normal)
        return {"hol": hol, "anti": anti, "reeb": reeb,
                "skew_hermitian": _sup(blk + np.conj(np.swapaxes(blk, 0, 1)))}

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
        if not cond >= TOL_COFRAME:
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
        Fv, tv = jets.values(tw["gamma_0"]), self.torsion_vals
        res = _sup(Cv - (ghv - np.swapaxes(ghv, 1, 2)), Ev,
                   Fv + np.conj(np.swapaxes(Fv, 0, 1)), tv - np.swapaxes(tv, 0, 1))
        # admissibility of the induced contact form
        zh = jets.values(self.zhat1)
        w = np.concatenate([zh, np.conj(zh), jets.values(self.that1)[None]])
        g = jets.values(self.ff.theta_slots.jacobian())    # g[q, p] = d_p theta(d_q)
        v = (np.einsum("lq...,qp...,jp...->jl...", w, g, zh)
             - np.einsum("jq...,qp...,lp...->jl...", zh, g, w))
        eye = np.eye(m).reshape((m, m) + (1,) * len(self.batch))
        adm = _sup(v[:, m:2 * m] - 1j * eye, v[:, :m], v[:, 2 * m])
        lam = self._curvature_form()
        purity = _sup(*(_pair_form(lam, a[p], a[q])
                        for a in (zh, np.conj(zh)) for p in range(m) for q in range(m)))
        ricci = self.curvature["ricci"]
        herm = _sup(ricci - np.conj(np.swapaxes(ricci, 0, 1)))
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
        """Ambient-vs-intrinsic residuals of the restriction-identity suite.

        ``translation`` is the translation column of omega, and ``charts``
        the dual tangent fields (e_j, Je_j, That) that the Tanaka-Webster
        solve reads, inverted apart from omega (``darboux._solve``).

        1. ``tangent_coframe``: the tangent rows of ``translation`` paired
           with ``charts`` give the identity rows of e_j and Je_j,
        2. ``normal_coframe``: the normal rows equal nu^a theta-hat,
        3. ``contact``: the contact row paired with ``charts`` gives the
           identity row of That,
        4. ``nu_components``: |nu|^2 = sum_a |nu^a|^2,
        5. ``tangent_connection``: the tangent connection slots equal the
           intrinsic connection plus i delta_jk |nu|^2 theta-hat,
        6. ``mixed_connection`` and ``h_symmetry``: the mixed slots carry
           (h, i delta nu^a, normal derivative of nu) as their dual-frame
           coefficients, with h symmetric.

        ``max`` is the largest of them; a NaN in any entry sticks.
        """
        n, m = self.n, self.m
        w = jets.values(self.mc.translation)                # (d, 2n+1, *batch)
        th = jets.values(self.ff.theta_slots)
        dual = np.einsum("ir...,si...->rs...", w[:, [*range(m), *range(n, n + m), 2 * n]],
                         jets.values(self.ff.charts))
        dual -= np.eye(2 * m + 1).reshape(dual.shape[:2] + (1,) * len(self.batch))
        nu = self.nu_comp_vals                             # <nu, e_a> + i <nu, Je_a>
        nu2 = jets.values(self.ff.nu_norm2)
        res = {"tangent_coframe": _sup(dual[:2 * m]),
               "normal_coframe": _sup(w[:, m:n] - nu.real * th[:, None],
                                      w[:, n + m:2 * n] - nu.imag * th[:, None]),
               "contact": _sup(dual[2 * m]),
               "nu_components": _sup(nu2 - np.sum(np.abs(nu) ** 2, axis=0))}
        intrinsic = np.array(jets.values(self.intrinsic_conn_slots))
        intrinsic[range(m), range(m)] += 1j * nu2 * th
        res["tangent_connection"] = _sup(jets.values(self.conn_slots["tan"]) - intrinsic)
        sfres = self.second_ff_residuals()
        res["mixed_connection"] = float(np.max([sfres["mixed_bar"], sfres["mixed_t"]]))
        res["h_symmetry"] = sfres["h_symmetry"]
        res["max"] = float(np.max(list(res.values())))
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
                        worst = np.maximum(worst, _sup(cur[k, j, l, q] - pred))
        return float(worst)

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


def _sup(*arrays):
    """The largest |entry| of ``arrays``, 0.0 where they hold none; NaN sticks."""
    return float(np.max([np.max(np.abs(a), initial=0.0) for a in arrays]))


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
    if not nu2min > 1e-14:
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
    """What a report keeps of one surface: per-point arrays and residual maxima.

    ``fields`` maps names to arrays over every grid point (C order, along
    the last axis): |nu|, |II|^2, |A|^2 and the Webster curvature R
    (``FIELDS``), the Maurer-Cartan slot values (d, D, D, points) as
    ``slots`` where an FD structure residual needs them, and the arrays
    that a sweep's ``visit`` returns.  ``table`` gives the report's tables
    (the norms as square roots); ``residuals`` the largest structure,
    restriction (incon2) and, by ``kind``, Gauss or torsion-curvature
    residuals.  ``kind`` is the verticality class of the planned |nu| at
    the report's tolerance.  An ``Analysis`` of a block or of the whole grid
    is added by ``fold``; its jet fields are not kept.  ``visited`` holds
    the maxima that ``visit`` returns (or, where it returns an array there,
    its first one).
    """

    def __init__(self, plan, grid, tol_class=TOL_CLASS):
        self.plan, self.grid = plan, grid
        self.shape = grid.shape
        self.kind = plan.verticality(tol_class).kind
        self.fields, self.residuals, self.visited = {}, {}, {}

    def fold(self, an, start=0, residuals=True):
        """Add the Analysis of the points ``start:`` of the grid (C order).

        ``residuals=False`` keeps the fields alone.  An FD analysis cannot
        evaluate the structure residual without its neighbours across
        blocks: its slot values are kept, and ``close`` evaluates it over
        the grid.
        """
        return self.take((start, *_outputs(an, self.kind, residuals), {}))

    def take(self, out):
        """Write the outputs of one block (``_block``) at its points and merge
        its maxima: in the calling process, in block order."""
        start, points, res, visited = out
        part = slice(start, start + len(points["nu"]))
        for key, arr in points.items():
            if key not in self.fields:
                self.fields[key] = np.empty(arr.shape[:-1] + (self.grid.npoints,))
            self.fields[key][..., part] = arr
        return self.merge(res, visited)

    def merge(self, res, visited=None):
        """Fold one block's residuals, and the values that ``visit`` returned
        of it, into the maxima; an array value is kept from the first block
        that returns it."""
        for key, value in res.items():
            fold_max(self.residuals, key, value)
        for key, value in (visited or {}).items():
            if np.ndim(value):
                self.visited.setdefault(key, value)
            else:
                fold_max(self.visited, key, value)
        return self

    def close(self):
        """After the last block: the structure residual of FD blocks, by
        central differences over the slot values of the whole grid."""
        if "slots" in self.fields and "structure" not in self.residuals:
            fold_max(self.residuals, "structure",
                     grid_structure_residual(self.field("slots"), self.grid))
        return self

    def field(self, key):
        """``fields[key]`` with its points along the grid's axes."""
        arr = self.fields[key]
        return arr.reshape(arr.shape[:-1] + self.shape)

    def table(self, key):
        return self.field(key) if key in self.fields else np.sqrt(self.field(key + "2"))


def _outputs(an, kind, residuals):
    """What a summary keeps of ``an``: its per-point arrays, the four fields
    and, with ``residuals``, the Maurer-Cartan slot values (d, D, D, points)
    of an FD analysis, and its residuals."""
    points = {key: arr.reshape(-1) for key, arr in zip(FIELDS, (
        an.ff.nu_norm, an.II_norm2, an.torsion_norm2, an.curvature["scalar"]))}
    if not residuals:
        return points, {}
    exact = an.mc.mode == "ad"
    if not exact:
        w = an.mc.values
        points["slots"] = w.reshape(w.shape[:3] + (-1,))
    res = {"incon2": an.restriction_residuals()["max"]}
    if exact:
        res["structure"] = an.mc.structure_residual()
    if kind == VERTICAL:
        res["gauss"] = an.gauss_residual()
    if kind == COMPLETELY_NON_VERTICAL and an.codim == 1:
        res["nver15"] = an.cnv_curvature_residual()
        res["nver28"] = an.scalar_torsion_residual()
    return points, res


def sweep(imm, grid, policy="canonical", mode="ad", tol_class=TOL_CLASS,
          residuals=True, visit=None) -> Summary:
    """The report summary of ``imm`` over ``grid``, in blocks of points.

    Every invariant in the summary is pointwise, so after one ``FramePlan``
    made over the whole grid the grid is split into near-equal contiguous
    blocks (``_schedule``), and each runs the frame, Maurer-Cartan and
    invariant pipeline alone, following the plan; peak memory then follows
    the block, not the grid, and the fields and residuals are those of the
    whole-grid build.  Blocks run in the calling process, or on the
    process's pool of forked workers where ``_schedule`` says they pay
    (``_run_blocks``); either way their outputs are written and their
    maxima merged in block order, and the first failing block raises its
    error.  ``residuals`` goes to ``_outputs``.  ``visit(block, an)``, if
    given, reads what else a caller keeps of each block's Analysis,
    possibly in a worker, so it must pickle: it returns a pair (points,
    values), where ``points`` maps names to arrays whose last axis runs over
    the block's points, gathered into ``Summary.fields`` with the sweep's
    own (where both give a name, ``visit``'s array is kept), and ``values``
    maps names to maxima (or arrays), folded into ``Summary.visited``.  In
    FD mode the structure residual needs neighbours across blocks, so it
    runs after the sweep on the whole grid's slot values.
    """
    plan = plan_frame(imm, grid, policy=policy, mode=mode)
    summary = Summary(plan, grid, tol_class)
    count, workers = _schedule(grid.npoints, imm.n, imm.m)
    task = (imm, plan, mode, summary.kind, residuals, visit)
    _run_blocks(task, grid.blocks(count), workers, summary.take)
    return summary.close()


def _block(task, block):
    """The outputs of ``block`` in a sweep's ``task``: its first point, its
    per-point arrays by name (``_outputs`` of its Analysis, then the points
    that ``visit`` returns), its residuals and the values that ``visit``
    returns."""
    imm, plan, mode, kind, residuals, visit = task
    an = Analysis(darboux_frame(imm, block, policy=plan.policy, mode=mode, plan=plan))
    points, res = _outputs(an, kind, residuals)
    kept, values = ({}, {}) if visit is None else visit(block, an)
    return block.start, {**points, **kept}, res, values


# the sweep pool of this process, made by the first sweep that pools
# (`_pool`): (owner pid, workers, executor, stop flag, its finalizer)
_POOL = None
# the number of the last pooled sweep; workers skip the blocks of every sweep
# numbered at most their pool's stop flag
_SWEEPS = 0
# in a worker of the pool: its stop flag
_STOP = None


def _pool(workers):
    """This process's pool of ``workers`` forked processes: kept from the
    first sweep that pools, and made again where the worker count changes or
    in a forked child of its owner.  It is joined at exit, also in a
    ``multiprocessing`` child, which joins its children before exiting."""
    global _POOL
    if _POOL is None or _POOL[:2] != (os.getpid(), workers):
        _close_pool()
        import multiprocessing
        import multiprocessing.util
        from concurrent.futures import ProcessPoolExecutor
        context = multiprocessing.get_context("fork")
        stop = context.RawValue("q", 0)
        executor = ProcessPoolExecutor(workers, mp_context=context,
                                       initializer=_pool_worker, initargs=(stop,))
        # joined at exit before the finalizers of its queues (priority 10),
        # which would stop them carrying the workers' stop signals
        _POOL = (os.getpid(), workers, executor, stop,
                 multiprocessing.util.Finalize(None, executor.shutdown, exitpriority=20))
    return _POOL[2], _POOL[3]


def _close_pool():
    """Join the workers of this process's pool, if it has one; a forked
    child forgets the pool of its owner."""
    global _POOL
    pool, _POOL = _POOL, None
    if pool is not None and pool[0] == os.getpid():
        pool[4]()


def _pool_worker(stop):
    """A worker's start: ignore SIGINT and keep the pool's stop flag."""
    import signal
    global _STOP
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _STOP = stop


def _run_blocks(task, blocks, workers, take):
    """``take(_block(task, block))`` of every block, in block order: with
    ``workers`` > 1 ``_block`` runs on the process's pool of that many
    workers, and ``take`` here.

    The task is pickled once and goes to the workers with this process's
    floating-point error settings, and every output comes back pickled; a
    task too deep to pickle runs its blocks here, as one worker does.  A
    block that raises or warns in a worker returns nothing, and this
    process runs it again in its turn, so errors, tracebacks and warnings
    are those of the sequential sweep; every block of a broken pool (a
    worker killed) runs here the same way, and the next pooled sweep makes
    a new pool.  Once a block fails, or this process stops taking outputs,
    no worker starts a block of the sweep.  Workers ignore SIGINT: an
    interrupt reaches this process, which then waits for the blocks in
    flight.  Every block submitted has finished or been cancelled before
    this returns or raises.
    """
    global _SWEEPS
    try:
        payload = pickle.dumps(task) if workers > 1 else None
    except RecursionError:      # an expression too deep to pickle: the blocks run here
        payload = None
    futures, broken = [], False
    if payload is not None:
        from concurrent.futures import wait
        from concurrent.futures.process import BrokenProcessPool
        pool, stop = _pool(workers)
        _SWEEPS += 1
        number, errors = _SWEEPS, np.geterr()
    try:
        if payload is not None:
            try:
                for block in blocks:
                    futures.append(pool.submit(_pooled_block, number, payload, errors, block))
            except BrokenProcessPool:
                broken = True
        for k, block in enumerate(blocks):
            out = None
            if k < len(futures):
                try:
                    out = futures[k].result()
                except BrokenProcessPool:
                    broken = True
                futures[k] = None       # a done future holds the block's outputs
            take(_block(task, block) if out is None else out)
    finally:
        if payload is not None:
            stop.value = number
            futures = [future for future in futures if future is not None]
            for future in futures:
                future.cancel()
            wait(futures)
            if broken:
                _close_pool()


def _pooled_block(number, payload, errors, block):
    """In a worker: ``_block`` of the pickled task ``payload`` on ``block``,
    under the caller's floating-point error settings ``errors``, or None
    where it raises or warns, or where sweep ``number`` has stopped before
    it starts."""
    if _STOP.value >= number:
        return None
    try:
        with warnings.catch_warnings(record=True) as caught, np.errstate(**errors):
            warnings.simplefilter("always")
            out = _block(pickle.loads(payload), block)
    except BaseException:   # the block runs again in the calling process, which raises
        _STOP.value = number
        return None
    return None if caught else out

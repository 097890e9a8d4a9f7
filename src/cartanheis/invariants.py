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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import jets
from .darboux import (TOL_CLASS, FrameField, MCForm, darboux_derivative,
                      pullback_check)
from .errors import DegeneratePoint, IllConditionedCoframe, WrongClass

__all__ = ["Analysis", "InvariantField", "extract", "normal_connection",
           "tanaka_webster_solve", "ricci_nonpositivity_check",
           "nu_from_curvature", "h_from_curvature", "theta_nn_from_intrinsic"]


class Analysis:
    """Lazy invariant extraction pipeline over one frame field."""

    def __init__(self, ff: FrameField, mc: MCForm | None = None):
        self.ff = ff
        self.mc = mc if mc is not None else darboux_derivative(ff)
        self.n, self.m, self.d = ff.n, ff.m, ff.d
        self.codim = self.n - self.m
        self.batch = ff.batch

    # -- coframe machinery --------------------------------------------------

    @cached_property
    def _k1(self):
        return jets.context(self.d, 1)

    @cached_property
    def zco1(self):
        """theta-hat^j slots truncated to first order."""
        return [[s.truncated(1) for s in row] for row in self.ff.coframe["z"]]

    @cached_property
    def th1(self):
        return [s.truncated(1) for s in self.ff.theta_slots]

    @cached_property
    def zhat1(self):
        return [[c.truncated(1) for c in row] for row in self.ff.duals["zhat"]]

    @cached_property
    def that1(self):
        return [c.truncated(1) for c in self.ff.duals["that"]]

    def coframe_condition(self):
        """Determinant margin of the dual tangent frame in chart components."""
        d = self.d
        M = jets.values([leg.chart for leg in self.ff.legs_t + self.ff.legs_jt]
                        + [self.ff.that.chart])            # (d, d, batch)
        M = np.moveaxis(M.reshape(d, d, -1), -1, 0)
        sv = np.linalg.svd(M, compute_uv=False)
        return float(np.min(sv[:, -1] / sv[:, 0]))

    def _ev1(self, slots, vec):
        """Pair a one-form (chart slots) with a tangent field (chart comps)."""
        acc = slots[0] * vec[0]
        for s, v in zip(slots[1:], vec[1:]):
            acc = acc + s * v
        return acc

    @cached_property
    def _dz(self):
        """Exterior derivatives of the induced coframe, as first-order jets.

        _dz[k][p][q] = d theta-hat^k (d_p, d_q), antisymmetric in (p, q);
        _dth[p][q] likewise for theta-hat.
        """
        m, d = self.m, self.d
        zco = self.ff.coframe["z"]
        dz = [[[None] * d for _ in range(d)] for _ in range(m)]
        for k in range(m):
            for p in range(d):
                for q in range(d):
                    if p < q:
                        dz[k][p][q] = zco[k][q].deriv(p) - zco[k][p].deriv(q)
                    elif p > q:
                        dz[k][p][q] = -dz[k][q][p]
        th = self.ff.theta_slots
        dth = [[None] * d for _ in range(d)]
        for p in range(d):
            for q in range(p + 1, d):
                dth[p][q] = th[q].deriv(p) - th[p].deriv(q)
                dth[q][p] = -dth[p][q]
        return dz, dth

    def _two_form(self, comp, V, W):
        """Evaluate an antisymmetric slot table comp[p][q] on chart vectors."""
        acc = None
        for p in range(self.d):
            for q in range(self.d):
                if p == q or comp[p][q] is None:
                    continue
                if p < q:
                    term = comp[p][q] * (V[p] * W[q] - V[q] * W[p])
                    acc = term if acc is None else acc + term
        return acc if acc is not None else jets.constant(self._k1, 0.0, self.batch)

    # -- second fundamental form and normal connection -----------------------

    @cached_property
    def conn_slots(self):
        """Ambient connection entries restricted to the chart, first order."""
        n, m = self.n, self.m
        tan = [[self.mc.conn_entry(j + 1, k + 1) for k in range(m)]
               for j in range(m)]
        mixed = [[self.mc.conn_entry(j + 1, m + 1 + ai) for ai in range(self.codim)]
                 for j in range(m)]
        normal = [[self.mc.conn_entry(m + 1 + ai, m + 1 + bi)
                   for bi in range(self.codim)] for ai in range(self.codim)]
        return {"tan": tan, "mixed": mixed, "normal": normal}

    @cached_property
    def second_ff(self):
        """h[a][j][k] plus the predicted other coefficients of theta_j^a."""
        m, cod = self.m, self.codim
        mixed = self.conn_slots["mixed"]
        h = np.zeros((cod, m, m) + self.batch, dtype=complex)
        coef_bar = np.zeros_like(h)
        coef_t = np.zeros((cod, m) + self.batch, dtype=complex)
        for ai in range(cod):
            for j in range(m):
                for k in range(m):
                    h[ai, j, k] = jets.values(self._ev1(mixed[j][ai], self.zhat1[k]))
                    coef_bar[ai, j, k] = jets.values(
                        self._ev1(mixed[j][ai], [c.conj() for c in self.zhat1[k]]))
                coef_t[ai, j] = jets.values(self._ev1(mixed[j][ai], self.that1))
        return {"h": h, "bar": coef_bar, "t": coef_t}

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
        sf = self.second_ff
        nu = self.nu_comp_vals
        pred_bar = np.zeros_like(sf["bar"])
        for j in range(m):
            pred_bar[:, j, j] = 1j * nu
        dnu = self.nabla_perp_nu
        res = {
            "h_symmetry": float(np.max(np.abs(sf["h"] - np.swapaxes(sf["h"], 1, 2)))),
            "mixed_bar": float(np.max(np.abs(sf["bar"] - pred_bar))),
            "mixed_t": float(np.max(np.abs(sf["t"] - dnu))),
        }
        return res

    @cached_property
    def nabla_perp_nu(self):
        """Normal-connection derivative of nu: entries <nabla_{Zhat_j} nu, Z_a>."""
        m, cod = self.m, self.codim
        out = np.zeros((cod, m) + self.batch, dtype=complex)
        normal = self.conn_slots["normal"]
        for ai in range(cod):
            for j in range(m):
                zj = self.zhat1[j]
                # directional derivative of nu^a along Zhat_j, then the
                # connection correction from the normal block
                dcomp = [self.ff.nu_comp[ai].deriv(i) for i in range(self.d)]
                acc = self._ev1(dcomp, zj)
                for bi in range(cod):
                    acc = acc + self.ff.nu_comp[bi].truncated(1) \
                        * self._ev1(normal[bi][ai], zj)
                out[ai, j] = jets.values(acc)
        return out

    @cached_property
    def normal_conn_coeffs(self):
        """theta_a^b expanded on (theta-hat^k, theta-hat^kbar, theta-hat)."""
        m, cod = self.m, self.codim
        normal = self.conn_slots["normal"]
        hol = np.zeros((cod, cod, m) + self.batch, dtype=complex)
        anti = np.zeros_like(hol)
        reeb = np.zeros((cod, cod) + self.batch, dtype=complex)
        for ai in range(cod):
            for bi in range(cod):
                for k in range(m):
                    hol[ai, bi, k] = jets.values(
                        self._ev1(normal[ai][bi], self.zhat1[k]))
                    anti[ai, bi, k] = jets.values(
                        self._ev1(normal[ai][bi], [c.conj() for c in self.zhat1[k]]))
                reeb[ai, bi] = jets.values(self._ev1(normal[ai][bi], self.that1))
        skew = 0.0
        if cod:
            w = self.mc.values
            nb = self.n
            blk = (w[:, self.m + 1:nb + 1, self.m + 1:nb + 1]
                   + 1j * w[:, nb + self.m + 1:2 * nb + 1, self.m + 1:nb + 1])
            skew = float(np.max(np.abs(blk + np.conj(np.swapaxes(blk, 1, 2)))))
        return {"hol": hol, "anti": anti, "reeb": reeb, "skew_hermitian": skew}

    # -- intrinsic Tanaka-Webster connection ---------------------------------

    @cached_property
    def tanaka_webster(self):
        """Connection coefficients and torsion of the induced structure.

        Solves d theta-hat^k = theta-hat^j ^ theta-hat_j^k + theta-hat ^ tau^k
        with skew-hermitian connection and admissible torsion by reading the
        coefficients off the dual frame; the unused sectors of the equation
        are returned as residuals.
        """
        m, d = self.m, self.d
        cond = self.coframe_condition()
        if cond < 1e-10:
            raise IllConditionedCoframe(
                f"dual coframe condition {cond:.2e} too small")
        dz, dth = self._dz
        zb = [[c.conj() for c in row] for row in self.zhat1]
        D = np.empty((m, m, m), dtype=object)     # coefficient of z_j, zbar_l in dz^k
        C = np.empty((m, m, m), dtype=object)
        E = np.empty((m, m, m), dtype=object)
        F = np.empty((m, m), dtype=object)
        G = np.empty((m, m), dtype=object)
        for k in range(m):
            for j in range(m):
                for l in range(m):
                    D[k, j, l] = self._two_form(dz[k], self.zhat1[j], zb[l])
                    C[k, j, l] = self._two_form(dz[k], self.zhat1[j], self.zhat1[l])
                    E[k, j, l] = self._two_form(dz[k], zb[j], zb[l])
                F[k, j] = self._two_form(dz[k], self.zhat1[j], self.that1)
                G[k, j] = self._two_form(dz[k], zb[j], self.that1)

        gamma_bar = D                              # Gamma^k_{j, lbar} = D[k][j][l]
        gamma_hol = np.empty((m, m, m), dtype=object)
        for k in range(m):
            for j in range(m):
                for l in range(m):
                    gamma_hol[k, j, l] = -(D[j, k, l].conj())
        gamma_0 = F                                # Gamma^k_{j, 0}
        torsion = np.empty((m, m), dtype=object)
        for k in range(m):
            for l in range(m):
                torsion[k, l] = -G[k, l]

        res = 0.0
        for k in range(m):
            for j in range(m):
                for l in range(m):
                    diff = C[k, j, l] - (gamma_hol[k, j, l] - gamma_hol[k, l, j])
                    res = max(res, float(np.max(np.abs(jets.values(diff)))))
                    res = max(res, float(np.max(np.abs(jets.values(E[k, j, l])))))
        Fv, tv = jets.values(F), jets.values(torsion)
        for k in range(m):
            for j in range(m):
                res = max(res, float(np.max(np.abs(Fv[k, j] + np.conj(Fv[j, k])))))
                res = max(res, float(np.max(np.abs(tv[k, j] - tv[j, k]))))
        # admissibility of the induced contact form: d theta-hat = i theta^l ^ theta^lbar
        adm = 0.0
        for j in range(m):
            for l in range(m):
                v = jets.values(self._two_form(dth, self.zhat1[j], zb[l]))
                adm = max(adm, float(np.max(np.abs(v - (1j if j == l else 0.0)))))
                v = jets.values(self._two_form(dth, self.zhat1[j], self.zhat1[l]))
                adm = max(adm, float(np.max(np.abs(v))))
            v = jets.values(self._two_form(dth, self.zhat1[j], self.that1))
            adm = max(adm, float(np.max(np.abs(v))))
        return {"gamma_hol": gamma_hol, "gamma_bar": gamma_bar, "gamma_0": gamma_0,
                "torsion": torsion, "solve_residual": res, "admissibility": adm,
                "condition": cond}

    @cached_property
    def torsion_vals(self):
        return jets.values(self.tanaka_webster["torsion"])

    @cached_property
    def intrinsic_conn_slots(self):
        """theta-hat_j^k as chart slots (first-order jets)."""
        m, d = self.m, self.d
        tw = self.tanaka_webster
        s = np.empty((m, m, d), dtype=object)
        for j in range(m):
            for k in range(m):
                for i in range(d):
                    acc = tw["gamma_0"][k, j] * self.th1[i]
                    for l in range(m):
                        acc = acc + tw["gamma_hol"][k, j, l] * self.zco1[l][i]
                        acc = acc + tw["gamma_bar"][k, j, l] * self.zco1[l][i].conj()
                    s[j, k, i] = acc
        return s

    # -- curvature ------------------------------------------------------------

    @cached_property
    def curvature(self):
        """Curvature and torsion-derivative coefficients of the induced structure."""
        m, d = self.m, self.d
        tw = self.tanaka_webster
        s = self.intrinsic_conn_slots
        sv = jets.values(s)                              # (m, m, d, batch)
        # tau^k and lowered-index companions as value slots
        zv = jets.values(self.ff.coframe["z"])           # (m, d, batch)
        tor = self.torsion_vals
        tau = np.einsum("kl...,ld...->kd...", tor, np.conj(zv))

        lam = np.zeros((m, m, d, d) + self.batch, dtype=complex)
        for j in range(m):
            for k in range(m):
                for p in range(d):
                    for q in range(p + 1, d):
                        djk = jets.values(s[j, k, q].deriv(p) - s[j, k, p].deriv(q))
                        wedge = 0.0
                        for l in range(m):
                            wedge = wedge + sv[j, l, p] * sv[l, k, q] \
                                - sv[j, l, q] * sv[l, k, p]
                        # i theta_j ^ tau^k with theta_j = conj(theta^j)
                        tj = np.conj(zv[j])
                        t1 = 1j * (tj[p] * tau[k, q] - tj[q] * tau[k, p])
                        # tau_j ^ theta^k with tau_j = conj(tau^j)
                        tjb = np.conj(tau[j])
                        t2 = tjb[p] * zv[k, q] - tjb[q] * zv[k, p]
                        lam[j, k, p, q] = djk - wedge - t1 + t2
                        lam[j, k, q, p] = -lam[j, k, p, q]

        zh = jets.values(self.zhat1)                     # (m, d, batch)
        thh = jets.values(self.that1)

        def pair(V, W):
            return np.einsum("jkpq...,p...,q...->jk...", lam, V, W)

        curv = np.zeros((m, m, m, m) + self.batch, dtype=complex)
        for p in range(m):
            for q in range(m):
                curv[:, :, p, q] = pair(zh[p], np.conj(zh[q]))
        w_hol = np.zeros((m, m, m) + self.batch, dtype=complex)
        w_anti = np.zeros_like(w_hol)
        for p in range(m):
            w_hol[:, :, p] = pair(zh[p], thh)
            w_anti[:, :, p] = -pair(np.conj(zh[p]), thh)
        purity = 0.0
        for p in range(m):
            for q in range(m):
                purity = max(purity, float(np.max(np.abs(pair(zh[p], zh[q])))))
                purity = max(purity, float(np.max(np.abs(
                    pair(np.conj(zh[p]), np.conj(zh[q]))))))
        ricci = np.einsum("kjll...->kj...", curv)
        scalar = np.einsum("kk...->...", ricci)
        herm = float(np.max(np.abs(ricci - np.conj(np.swapaxes(ricci, 0, 1)))))
        return {"curv": curv, "w_hol": w_hol, "w_anti": w_anti, "ricci": ricci,
                "scalar": scalar.real, "scalar_imag": float(np.max(np.abs(scalar.imag))),
                "purity": purity, "hermitian": herm}

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


# ---------------------------------------------------------------------------
# named operations over an analysis
# ---------------------------------------------------------------------------

def normal_connection(an: Analysis):
    if an.codim == 0:
        return {"hol": np.zeros((0, 0, an.m) + an.batch, dtype=complex),
                "anti": np.zeros((0, 0, an.m) + an.batch, dtype=complex),
                "reeb": np.zeros((0, 0) + an.batch, dtype=complex),
                "skew_hermitian": 0.0}
    return an.normal_conn_coeffs


def tanaka_webster_solve(an: Analysis):
    tw = an.tanaka_webster
    gam = {key: jets.values(tw[key]) for key in ("gamma_hol", "gamma_bar", "gamma_0")}
    return {"torsion": an.torsion_vals, "solve_residual": tw["solve_residual"],
            "admissibility": tw["admissibility"], **gam}


def ricci_nonpositivity_check(an: Analysis, tol=1e-8):
    """Largest eigenvalue of the Webster-Ricci form; vertical surfaces only."""
    numax = float(np.max(an.ff.nu_norm))
    if numax > TOL_CLASS:
        raise WrongClass(f"Ricci sign check applies to vertical surfaces "
                         f"(max |nu| = {numax:.2e})")
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
    numax = float(np.max(an.ff.nu_norm))
    if numax > TOL_CLASS:
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
    sup-residual against the ambient normal connection entry.
    """
    if an.codim != 1:
        raise WrongClass("normal-form reconstruction needs codimension one")
    nu2min = float(np.min(an.ff.nu_norm2.value))
    if nu2min <= 1e-14:
        raise WrongClass("normal-form reconstruction needs a completely "
                         "non-vertical surface")
    m, d = an.m, an.d
    ff = an.ff
    nrm = ff.nu_norm_jet()                       # |nu| as a second-order jet
    dn = [nrm.deriv(i) for i in range(d)]
    zd = [an._ev1(dn, an.zhat1[j]) for j in range(m)]          # Zhat_j |nu|
    td = jets.values(an._ev1(dn, an.that1))                    # That |nu|
    tw = an.tanaka_webster

    zdv = jets.values(zd)
    gamma_bar = jets.values(tw["gamma_bar"])
    zbar = np.conj(jets.values(an.zhat1))
    S = np.zeros(an.batch, dtype=complex)
    for j in range(m):
        dzd = jets.values([zd[j].deriv(i) for i in range(d)])
        acc = sum(zbar[j, i] * dzd[i] for i in range(d))
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
# packaged extraction
# ---------------------------------------------------------------------------

@dataclass
class InvariantField:
    """Per-gridpoint invariant data of one surface in one gauge."""

    n: int
    m: int
    grid_shape: tuple
    nu_norm: np.ndarray
    nu_components: np.ndarray
    h: np.ndarray
    second_ff_norm2: np.ndarray
    normal_conn: dict
    gamma: dict
    torsion: np.ndarray
    torsion_norm2: np.ndarray
    curv: np.ndarray
    w_tensors: dict
    ricci: np.ndarray
    scalar: np.ndarray
    residuals: dict = field(default_factory=dict)


def extract(ff: FrameField, mc: MCForm | None = None, with_curvature=True,
            with_residuals=True) -> InvariantField:
    an = Analysis(ff, mc)
    tw = tanaka_webster_solve(an)
    cur = an.curvature if with_curvature else None
    res = {}
    if with_residuals:
        res = an.restriction_residuals()
        res["tw_solve"] = tw["solve_residual"]
        res["tw_admissibility"] = tw["admissibility"]
        res["structure"] = an.mc.structure_residual()
        if cur is not None:
            res["curvature_purity"] = cur["purity"]
            res["ricci_hermitian"] = cur["hermitian"]
    return InvariantField(
        n=an.n, m=an.m, grid_shape=ff.batch,
        nu_norm=ff.nu_norm.copy(),
        nu_components=an.nu_comp_vals,
        h=an.second_ff["h"],
        second_ff_norm2=an.II_norm2,
        normal_conn=normal_connection(an),
        gamma={k: tw[k] for k in ("gamma_hol", "gamma_bar", "gamma_0")},
        torsion=an.torsion_vals,
        torsion_norm2=an.torsion_norm2,
        curv=None if cur is None else cur["curv"],
        w_tensors={} if cur is None else {"hol": cur["w_hol"], "anti": cur["w_anti"]},
        ricci=None if cur is None else cur["ricci"],
        scalar=None if cur is None else cur["scalar"],
        residuals=res)

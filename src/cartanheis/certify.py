"""Bulk certificates for the value checks of the plan pass.

The plan pass checks three hypotheses of the paper's theorems at every grid
point: the immersion has full rank (``dsl.Immersion.rank_check``), TM ∩ ker Θ
is invariant under J (``darboux._check_cr_invariance``) and the dual
coframe is well conditioned (``darboux.coframe_condition``).  Each exact
check calls LAPACK once per point.  A certificate here decides the same
question for the whole batch with a few numpy operations and a rounding
error bound, and it is one-sided: every point it certifies is a point the
exact check passes.  A caller runs its exact check over the whole batch
unless every point is certified, so verdicts, error texts and grid indices
never depend on a certificate.

The bounds follow Higham, *Accuracy and Stability of Numerical Algorithms*
(2nd ed., SIAM 2002), with u the unit roundoff and gamma_k = k u / (1 - k u);
the positive-definiteness test is Rump's ("Verification of positive
definiteness", BIT 46, 2006).  Each certificate runs with numpy's
floating-point warnings silenced, and no point with a non-finite value is
certified.
"""

from __future__ import annotations

import numpy as np

U = np.finfo(float).eps / 2
# a singular value computed by LAPACK's SVD is within p(d, N) u sigma_max of
# the exact one (LAPACK Users' Guide, sec. 4.9), p "a modestly growing
# function" of the matrix size, taken here as SVD_GROWTH * d * N
SVD_GROWTH = 1e3
# the seed matrices of the CR certificate must satisfy |M|_F <= CR_KAPPA
# sigma_min(M); the error bound of the exact check grows as CR_KAPPA^2
CR_KAPPA = 32.0


def _gamma(k):
    return k * U / (1 - k * U)


def _posdef_above(G, lam):
    """Where lambda_min(G) >= lam is proved: a (P,) mask over a (k, k, P)
    stack of symmetric matrices (the batch is the last axis).

    Runs the floating-point Cholesky factorisation of G - tau I with
    tau = lam + 2 gamma_{k+1} tr G.  Where every pivot comes out positive
    and finite, R^T R = G - tau I + E with |E| <= gamma_{k+1} |R^T| |R|
    (Higham, Thm 10.3), so lambda_min(G - tau I) >= -gamma_{k+1} |R|_F^2
    and |R|_F^2 <= tr G / (1 - gamma_{k+1}); the factor two also covers
    the rounding of the shifted diagonal and of tau.  Underflow adds at most
    k 2^-1074 to an entry, far below the shift.
    """
    k = len(G)
    with np.errstate(all="ignore"):
        tau = lam + 2 * _gamma(k + 1) * np.trace(G)
        ok = np.isfinite(tau)
        L = [[None] * k for _ in range(k)]
        for j in range(k):
            piv = G[j, j] - tau
            for c in range(j):
                piv = piv - L[j][c] * L[j][c]
            ok &= piv > 0
            root = np.sqrt(np.where(ok, piv, 1.0))
            for i in range(j + 1, k):
                s = G[i, j]
                for c in range(j):
                    s = s - L[i][c] * L[j][c]
                L[i][j] = s / root
                ok &= np.isfinite(L[i][j])
        return ok


def rank_clears(J, floor):
    """True when every Jacobian of the stack J, (d, P, N) with the batch in
    the middle, provably has its smallest singular value, as LAPACK's SVD
    computes it, at or above ``floor``.

    With t = |J|_F^2, the computed Gram matrix G = J J^T is within
    gamma_N t of the exact one, and the SVD's sigma_min within
    p u sqrt(t); so lambda_min(G) >= (floor + p u sqrt(t))^2 + 2 gamma_N t,
    proved by ``_posdef_above``, gives a computed sigma_min >= floor.
    """
    d, _, N = J.shape
    with np.errstate(all="ignore"):
        G = np.einsum("ipk,jpk->ijp", J, J)
        t = np.trace(G)
        lam = (floor + SVD_GROWTH * d * N * U * np.sqrt(t)) ** 2 + 2 * _gamma(N) * t
    return bool(np.all(_posdef_above(G, lam)))


def _cr_error_factor(N, k):
    """E with |computed - exact residual| <= E |M|_F for both the exact
    check's normal equations and this module's Gram-Schmidt, where the seed
    matrix M (N, k) has |M|_F <= CR_KAPPA sigma_min(M).

    Exact check: G c = M^T b solved by LU with partial pivoting, so
    (G + dG) c' = M^T b + r with |dG| <= (2 gamma_N + gamma_{3k} k^2
    2^(k-1)) |M|_F^2 =: eps_G |M|_F^2 (Gram rounding; Higham Thm 9.4 with
    growth factor 2^(k-1)) and |r| <= gamma_N |M|_F |b|.  Since
    |M G^-1| = 1/sigma_min and |c| <= |b| / sigma_min, the residual b - M c'
    moves by at most (gamma_N K + eps_G K^2) / (1 - eps_G K^2) |b|, plus
    gamma_{k+1} (1 + K) |b| for forming it (K = CR_KAPPA).
    Gram-Schmidt: modified Gram-Schmidt on [M b] is backward stable with
    relative perturbations eps = 16 N (k + 1) u of M and b (Bjorck,
    *Numerical Methods for Least Squares Problems*, 1996, sec. 2.4), which
    move the residual by eps (1 + 2K) |b| (Higham, Thm 20.1).  |b| <= |M|_F
    as J is an isometry on the horizontal rows; the factor two covers the
    norms and the comparisons.
    """
    K = CR_KAPPA
    eps_g = 2 * _gamma(N) + _gamma(3 * k) * k * k * 2.0 ** (k - 1)
    normal = (_gamma(N) * K + eps_g * K * K) / (1 - eps_g * K * K) \
        + _gamma(k + 1) * (1 + K)
    mgs = 16 * N * (k + 1) * U * (1 + 2 * K)
    return 2 * (normal + mgs)


def cr_clears(M, n, tol):
    """True when every seed matrix of the (P, 2n+1, 2m) stack M provably
    passes the exact CR check: residual of J M off the span of M at most
    ``tol`` (``darboux._check_cr_invariance``).

    A point is certified when |M|_F <= CR_KAPPA sigma_min(M)
    (``_posdef_above`` on M^T M, with its gamma_N rounding), the residual of
    every column of J M off the span of M, by modified Gram-Schmidt, is at
    most tol / 2, and the error bound of both computations
    (``_cr_error_factor``) times |M|_F is at most tol / 2: the exact
    residual is then within tol of zero.
    """
    _, N, k = M.shape
    with np.errstate(all="ignore"):
        M = np.ascontiguousarray(np.moveaxis(M, 0, -1))      # (N, k, P)
        G = np.einsum("rap,rbp->abp", M, M)
        f2 = np.trace(G)
        ok = _posdef_above(G, f2 / CR_KAPPA ** 2 + 2 * _gamma(N) * f2)
        ok &= _cr_error_factor(N, k) * np.sqrt(f2) <= 0.5 * tol
        if not np.all(ok):
            return False
        # the columns of J M, each projected off the orthonormalised seeds
        cols = [M[:, a] for a in range(k)]
        rest = [np.concatenate([-c[n:2 * n], c[:n], np.zeros_like(c[:1])]) for c in cols]
        for i in range(k):
            q = cols[i] / np.sqrt(np.einsum("rp,rp->p", cols[i], cols[i]))
            for j in range(i + 1, k):
                cols[j] = cols[j] - q * np.einsum("rp,rp->p", q, cols[j])
            for j in range(k):
                rest[j] = rest[j] - q * np.einsum("rp,rp->p", q, rest[j])
        return all(bool(np.all(np.einsum("rp,rp->p", r, r) <= 0.25 * tol * tol))
                   for r in rest)


def condition_bound(M, K):
    """A lower bound on sigma_min(M) / sigma_max(M) at every point, from the
    chart matrices M and the coframe matrices K that they invert, both
    (d, d, *batch) values with M K^T close to I.

    With E = M K^T - I and delta = |E|_F < 1, M^-1 = K^T (I + E)^-1, so
    |M^-1| <= |K|_F / (1 - delta) and the ratio 1 / (|M| |M^-1|) is at
    least (1 - delta) / (|M|_F |K|_F).  delta is taken from the computed
    product plus its rounding gamma_d |M|_F |K|_F; the norms' own rounding
    is covered by a relative 4 gamma_{d^2}.  A point with a non-finite
    value, or with delta >= 1, gets NaN or a bound <= 0.
    """
    d = len(M)
    M, K = M.reshape(d, d, -1), K.reshape(d, d, -1)
    with np.errstate(all="ignore"):
        nm = np.sqrt(np.einsum("ijp,ijp->p", M, M))
        nk = np.sqrt(np.einsum("ijp,ijp->p", K, K))
        e2 = 0.0
        for i in range(d):                   # row by row: no (d, d, P) temporary
            row = np.einsum("kp,jkp->jp", M[i], K)
            row[i] -= 1.0
            e2 = e2 + np.einsum("jp,jp->p", row, row)
        delta = np.sqrt(e2) * (1 + _gamma(d * d + 1)) + 2 * _gamma(d) * nm * nk
        return (1 - delta) / (nm * nk * (1 + 4 * _gamma(d * d)))

"""The bulk certificates of the plan pass against the exact checks.

Each certificate may only decide a batch that the exact check (the per-point
SVD or solve it stands in for) passes; everywhere else the exact check
runs.  The properties compare the checks with and without their
certificate on random stacks placed around each gate and around the
certificate's own boundary: verdict and error text (value and grid index)
must be the same.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cartanheis import certify, darboux, dsl, invariants, jets
from cartanheis.errors import GeometryError

FACTORS = (0.5, 0.75, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0, "boundary")


def _outcome(fn, *args):
    try:
        return ("pass", fn(*args))
    except GeometryError as e:
        return (type(e).__name__, str(e))


def _orthonormal(rng, rows, cols):
    q, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q


# -- rank --------------------------------------------------------------------

def _rank_boundary(floor, d, N, rest):
    """sigma_min at which the rank certificate's shift equals sigma_min^2,
    given the sum ``rest`` of the other squared singular values."""
    g = certify._gamma
    s2 = floor ** 2
    for _ in range(4):
        t = s2 + rest
        s2 = ((floor + certify.SVD_GROWTH * d * N * certify.U * np.sqrt(t)) ** 2
              + 2 * g(N) * t + 2 * g(d + 1) * t)
    return np.sqrt(s2)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from(["builtin:sphere(2,1)", "builtin:sphere(3,1)"]),
       st.integers(1, 6), st.integers(0, 5), st.sampled_from(FACTORS),
       st.floats(-6, 6), st.integers(0, 2 ** 32 - 1))
def test_rank_certificate_agrees_with_the_svd(spec, points, where, factor, logscale,
                                              seed):
    imm = dsl.parse_surface_spec(spec)
    d, N = imm.nparams, 2 * imm.n + 1
    rng = np.random.default_rng(seed)
    floor = 1e-8
    J = np.empty((points, d, N))
    for p in range(points):
        sv = 10.0 ** rng.uniform(0, 1, d) * 10.0 ** logscale
        if p == where % points:
            rest = float(np.sum(np.sort(sv)[1:] ** 2))
            sv[np.argmin(sv)] = (_rank_boundary(floor, d, N, rest) if factor == "boundary"
                                 else factor * floor)
        J[p] = _orthonormal(rng, d, d) @ np.diag(sv) @ _orthonormal(rng, N, d).T
    jac = np.moveaxis(J, 0, 1)
    got = _outcome(imm.rank_check, jac)
    with mock.patch.object(certify, "rank_clears", lambda *args: False):
        want = _outcome(imm.rank_check, jac)
    assert got == want


def test_rank_certificate_rejects_non_finite_jacobians():
    J = np.tile(np.eye(3, 5)[:, None], (1, 4, 1))
    assert certify.rank_clears(J, 1e-8)
    for bad in (np.nan, np.inf):
        J[1, 2, 3] = bad
        assert not certify.rank_clears(J, 1e-8)


# -- CR invariance -------------------------------------------------------------

def _cr_seeds(rng, n, m, points, logscale, logcond):
    """Seed matrices (points, 2n+1, 2m) spanning complex m-planes of C^n (as
    real columns w, iw, so J w = iw), with singular values spread over
    10^logcond and Frobenius norm 10^logscale."""
    N, k = 2 * n + 1, 2 * m
    M = np.empty((points, N, k))
    for p in range(points):
        W = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        B = np.zeros((N, k))
        B[:n, :m], B[n:2 * n, :m] = W.real, W.imag
        B[:n, m:], B[n:2 * n, m:] = -W.imag, W.real
        C = _orthonormal(rng, k, k) @ np.diag(10.0 ** np.linspace(0, logcond, k)) \
            @ _orthonormal(rng, k, k)
        M[p] = 10.0 ** logscale * (B @ C) / np.linalg.norm(B @ C)
    return M


def _cr_outcomes(M, n, tol_cr):
    """The CR check of M with and without its certificate."""
    scale = max(float(np.max(np.abs(M))), 1e-15)
    args = (M, n, scale, tol_cr, darboux.ChartGrid([(0.0, 1.0)], len(M)))
    got = _outcome(darboux._check_cr_invariance, *args)
    with mock.patch.object(certify, "cr_clears", lambda *args: False):
        want = _outcome(darboux._check_cr_invariance, *args)
    return got, want


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.sampled_from([(2, 1), (3, 2), (3, 1)]), st.integers(1, 6), st.integers(0, 5),
       st.sampled_from(FACTORS), st.sampled_from([1e-8, 1e-4]), st.floats(-3, 3),
       st.floats(0, 2.5), st.integers(0, 2 ** 32 - 1))
def test_cr_certificate_agrees_with_the_normal_equations(dims, points, where, factor,
                                                         tol_cr, logscale, logcond,
                                                         seed):
    n, m = dims
    rng = np.random.default_rng(seed)
    M = _cr_seeds(rng, n, m, points, logscale, logcond)
    tol = tol_cr * max(float(np.max(np.abs(M))), 1.0)
    # move one point off the J-invariant planes, by about the gate or about
    # the certificate's bound on the residual, half the gate
    size = (0.5 if factor == "boundary" else factor) * tol
    M[where % points] += size * rng.standard_normal(M.shape[1:]) / np.sqrt(M[0].size)
    got, want = _cr_outcomes(M, n, tol_cr)
    assert got == want


@pytest.mark.parametrize("logcond", [1.0, 3.0, 4.5, 6.0])
@pytest.mark.parametrize("dims", [(2, 1), (3, 2)])
def test_cr_certificate_needs_well_conditioned_seeds(dims, logcond, rng):
    # exactly J-invariant seeds: the normal equations lose about u kappa^2,
    # so past kappa ~ 1e4 the exact check fails where Gram-Schmidt would not
    n, m = dims
    M = _cr_seeds(rng, n, m, 4, 0.0, logcond)
    got, want = _cr_outcomes(M, n, 1e-8)
    assert got == want
    assert (got[0] == "pass") == (logcond < 4)


def test_singular_seed_gram_matrix_is_a_located_domain_error():
    M = np.zeros((3, 5, 2))
    M[:, 0, 0] = M[:, 2, 1] = 1.0
    M[1, :, 1] = M[1, :, 0]                # equal seeds at point 1
    with pytest.raises(GeometryError) as caught:
        darboux._check_cr_invariance(M, 2, 1.0, 1e-8, darboux.ChartGrid([(0, 1)], 3))
    assert str(caught.value) == ("the Gram matrix of the tangent seeds is singular "
                                 "at grid index (1,)")


# -- coframe condition -----------------------------------------------------------

def _order0(values):
    """A (d, d) order-0 jet over a 1-D batch, from (points, d, d) values."""
    return jets.Jet(jets.context(values.shape[-1], 0), values[None], 2)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(3, 5), st.integers(1, 6), st.integers(0, 5),
       st.sampled_from(FACTORS), st.floats(-3, 3), st.integers(0, 2 ** 32 - 1))
def test_condition_certificate_agrees_with_the_svd(d, points, where, factor, logscale,
                                                   seed):
    rng = np.random.default_rng(seed)
    gate = darboux.TOL_COFRAME
    K = np.empty((points, d, d))
    for p in range(points):
        ratio = 10.0 ** -rng.uniform(0, 2)
        if p == where % points:
            # the certificate's boundary: its bound is within |M|_F |K|_F of
            # the ratio, about d times it, at twice the gate
            ratio = 2 * d * gate if factor == "boundary" else factor * gate
        sv = 10.0 ** logscale * np.geomspace(1.0, ratio, d)
        K[p] = _orthonormal(rng, d, d) @ np.diag(sv) @ _orthonormal(rng, d, d)
    M = np.swapaxes(np.linalg.inv(K), 1, 2)
    charts, coframe = _order0(M), _order0(K)
    got = darboux.coframe_condition(charts, coframe)
    with mock.patch.object(certify, "condition_bound",
                           lambda M, K: np.full(M.shape[2:], np.nan)):
        want = darboux.coframe_condition(charts, coframe)
    # the gate decides alike, and where it could fail the value is exact
    assert (got < gate) == (want < gate)
    if got != want:
        assert 2 * gate <= got <= want
    # the bound never exceeds the exact ratio at any point
    sv = np.linalg.svd(M, compute_uv=False)
    bound = certify.condition_bound(np.moveaxis(M, 0, -1), np.moveaxis(K, 0, -1))
    assert np.all(bound <= sv[:, -1] / sv[:, 0] + 1e-14)


def test_condition_certificate_rejects_non_finite_values():
    K = np.tile(np.eye(3)[..., None], (1, 1, 4))
    assert np.all(certify.condition_bound(K, K) > 0.3)
    K[0, 1, 2] = np.nan
    assert np.isnan(certify.condition_bound(K, K)[2])


# -- the fast path on the builtins -------------------------------------------------

BUILTINS = ("sphere(2,1)", "holograph()", "ellipsoid(2,1,1.3)", "heis_sub(1,2)",
            "sphere(3,1)", "ellipsoid(3,1,1,1.3)", "heis_sub(2,3)")


@pytest.mark.parametrize("spec", BUILTINS)
def test_planned_sweeps_of_the_builtins_call_no_svd_or_solve(spec, monkeypatch):
    """Every check of the plan pass is certified on the builtins: a sweep
    under each policy makes no per-point SVD or solve."""
    calls = []
    for name in ("svd", "solve"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _real=real, _name=name, **kw:
                            calls.append(_name) or _real(*a, **kw))
    imm = dsl.parse_surface_spec(f"builtin:{spec}")
    grid = darboux.ChartGrid(imm.chart, 5 if imm.m == 1 else 3)
    for policy in darboux.POLICIES:
        try:
            invariants.sweep(imm, grid, policy=policy)
        except GeometryError:
            assert policy == "nu"    # the nu gauge needs a non-vertical surface
    assert calls == []

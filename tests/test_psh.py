import math

import numpy as np
import pytest

from cartanheis import heis, psh
from cartanheis.errors import DimensionMismatch


def test_identity_and_frame_to_matrix():
    assert np.allclose(psh.frame_to_matrix(heis.origin(2), np.eye(5)).mat, np.eye(6))


def test_frame_to_matrix_is_left_translation(rng):
    p = heis.HPoint(2, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2), 0.4)
    g = psh.frame_to_matrix(p, np.eye(5))
    for _ in range(5):
        q = heis.HPoint(2, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2), -0.2)
        assert np.allclose(psh.apply(g, q).coords, heis.group_mul(p, q).coords,
                           atol=1e-14)


def test_rotation_about_t_fixes_origin(rng):
    R = psh.random_rotation(2, rng)
    g = psh.rotation_about_t(2, R)
    assert np.allclose(psh.apply(g, heis.origin(2)).coords, 0.0)
    # rotated frame at the origin gives exactly this element
    cols = np.eye(5)
    cols[:4, :4] = R
    assert np.allclose(psh.frame_to_matrix(heis.origin(2), cols).mat, g.mat,
                       atol=1e-14)


def test_action_is_homomorphism(rng):
    for _ in range(10):
        g = psh.random_element(2, rng)
        h = psh.random_element(2, rng)
        q = heis.HPoint(2, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2), 0.1)
        assert np.allclose(psh.apply(g @ h, q).coords,
                           psh.apply(g, psh.apply(h, q)).coords, atol=1e-12)


def test_group_closure_and_inverse(rng):
    for _ in range(10):
        g = psh.random_element(3, rng)
        h = psh.random_element(3, rng)
        assert psh.psh_validate((g @ h).mat, 1e-10).ok
        assert psh.psh_validate(psh.inverse(g).mat, 1e-10).ok


def test_decompose_roundtrip(rng):
    for _ in range(10):
        g = psh.random_element(2, rng)
        p, R = psh.decompose(g)
        g2 = psh.recompose(p, R)
        assert np.max(np.abs(g2.mat - g.mat)) < 1e-12
    gid = psh.identity(2)
    p, R = psh.decompose(gid)
    assert np.allclose(p.coords, 0) and np.allclose(R, np.eye(4))
    L = psh.left_translation(heis.HPoint(2, [0.3, 0.1], [0.0, -0.2], 0.5))
    p, R = psh.decompose(L)
    assert np.allclose(R, np.eye(4), atol=1e-14)


def test_psh_validate_diagnostics():
    d = psh.psh_validate(np.eye(6))
    assert d.ok and d.worst == 0.0
    bad = np.eye(6)
    bad[0, 0] = 2.0
    d = psh.psh_validate(bad)
    assert not d.ok and np.isclose(d.residuals["first_row"], 1.0)
    # a stack is checked as a whole: each residual is the worst matrix's
    rng = np.random.default_rng(2)
    stack = np.stack([psh.random_element(2, rng).mat for _ in range(4)])
    assert psh.psh_validate(stack).worst < 1e-14
    stack[2] = bad
    d = psh.psh_validate(stack.reshape(2, 2, 6, 6))
    assert not d.ok and np.isclose(d.residuals["first_row"], 1.0)
    assert d.residuals["orthonormal"] < 1e-14
    with pytest.raises(DimensionMismatch):
        psh.psh_validate(np.eye(5))


def _random_algebra(n, rng):
    m = np.zeros((2 * n + 2, 2 * n + 2))
    W1 = rng.standard_normal((n, n))
    W1 = W1 - W1.T
    W3 = rng.standard_normal((n, n))
    W3 = 0.5 * (W3 + W3.T)
    m[1:n + 1, 1:n + 1] = W1
    m[n + 1:2 * n + 1, 1:n + 1] = W3
    m[1:n + 1, n + 1:2 * n + 1] = -W3
    m[n + 1:2 * n + 1, n + 1:2 * n + 1] = W1
    m[1:, 0] = rng.standard_normal(2 * n + 1)
    m[2 * n + 1, 1:n + 1] = m[n + 1:2 * n + 1, 0]
    m[2 * n + 1, n + 1:2 * n + 1] = -m[1:n + 1, 0]
    return m


def test_algebra_validate():
    assert psh.algebra_validate(np.zeros((6, 6))).ok
    rng = np.random.default_rng(5)
    v = _random_algebra(2, rng)
    assert psh.algebra_validate(v).ok
    bad = v.copy()
    bad[1, 2] = bad[2, 1] = 1.0  # symmetric entry violates antisymmetry
    d = psh.algebra_validate(bad)
    assert not d.ok and np.isclose(d.residuals["antisymmetric"], 2.0)
    # a stack is checked as a whole: each residual is the worst matrix's
    stack = np.stack([[_random_algebra(2, rng) for _ in range(3)]
                      for _ in range(2)])
    assert psh.algebra_validate(stack).ok
    stack[1, 2] = bad
    d = psh.algebra_validate(stack)
    assert not d.ok and np.isclose(d.residuals["antisymmetric"], 2.0)
    assert d.residuals["bottom_row"] == 0.0
    with pytest.raises(DimensionMismatch):
        psh.algebra_validate(np.zeros((2, 5, 5)))


def test_exp_of_translation_generator_is_quadratic(rng):
    # X^3 = 0, so the series stops at I + X + X^2/2; norms up to 30 also
    # exercise the squaring phase
    X = np.stack([s * _random_algebra(2, rng) for s in (0.01, 0.5, 3.0, 30.0)])
    X[:, 1:5, 1:5] = 0.0          # drop the rotation part
    E = psh.exp(X)
    exact = np.eye(6) + X + X @ X / 2
    assert np.max(np.abs(E - exact) / (1 + np.abs(exact))) < 1e-14


def test_exp_of_rotation_generator_is_cos_sin():
    a = np.linspace(-10.0, 10.0, 41)
    X = np.zeros((41, 4, 4))
    X[:, 2, 1] = a
    X[:, 1, 2] = -a
    E = psh.exp(X)
    exact = np.tile(np.eye(4), (41, 1, 1))
    exact[:, 1, 1] = exact[:, 2, 2] = np.cos(a)
    exact[:, 2, 1] = np.sin(a)
    exact[:, 1, 2] = -np.sin(a)
    assert np.max(np.abs(E - exact)) < 1e-13


def test_exp_lands_in_the_group(rng):
    for n in (1, 2, 3):
        X = np.stack([s * _random_algebra(n, rng)
                      for s in np.geomspace(1e-3, 5.0, 12)])
        E = psh.exp(X)
        assert E.shape == X.shape
        for g in E:
            assert psh.psh_validate(g).ok


def _horner18_exp(X):
    """Reference: scaling and squaring around a fixed degree-18 Horner pass."""
    norm = np.max(np.sum(np.abs(X), axis=-2), axis=-1)
    s = np.where(norm > 1.0, np.ceil(np.log2(np.maximum(norm, 1.0))), 0).astype(int)
    Y = np.ldexp(X, -s[..., None, None])
    eye = np.eye(X.shape[-1])
    E = eye + Y / 18
    for k in range(17, 0, -1):
        E = eye + (Y @ E) / k
    for k in range(int(np.max(s, initial=0))):
        E = np.where((s > k)[..., None, None], E @ E, E)
    return E


def _algebra_batch(n, rng, norms):
    out = []
    for t in norms:
        m = _random_algebra(n, rng)
        out.append(t * m / np.max(np.sum(np.abs(m), axis=0)))
    return np.stack(out)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exp_pair_factors_are_inverse(n, rng):
    # the rounding error of a product scales with its factors' norms, which
    # reach about 60 at norm 30, so the bound is taken relative to them
    X = _algebra_batch(n, rng, np.geomspace(1e-3, 30.0, 24))
    E, Einv = psh.exp_pair(X)
    eye = np.eye(2 * n + 2)
    size = (np.max(np.sum(np.abs(E), axis=-2), axis=-1)
            * np.max(np.sum(np.abs(Einv), axis=-2), axis=-1))
    for prod in (E @ Einv, Einv @ E):
        err = np.max(np.abs(prod - eye), axis=(-2, -1))
        assert np.all(err <= 1e-14 * size), err / size
    assert np.array_equal(psh.exp(X), E)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exp_pair_matches_degree18_reference(n, rng):
    X = _algebra_batch(n, rng, np.geomspace(1e-3, 30.0, 24))
    E, Einv = psh.exp_pair(X)
    for got, want in ((E, _horner18_exp(X)), (Einv, _horner18_exp(-X))):
        rel = np.max(np.abs(got - want), axis=(-2, -1)) / \
            np.max(np.abs(want), axis=(-2, -1))
        assert np.max(rel) < 1e-14
    # one matrix of the batch at a time: each gets its own degree
    for x, e in zip(X[::5], E[::5]):
        assert np.max(np.abs(psh.exp(x) - e)) < 1e-14 * np.max(np.abs(e))


def test_exp_degree_follows_the_norm():
    thetas = np.concatenate([[0.0], np.geomspace(1e-12, 1.0, 60)])
    degrees = [psh._exp_degree(t) for t in thetas]
    assert all(1 <= m <= 18 for m in degrees)
    assert degrees == sorted(degrees)
    assert psh._exp_degree(1.0) == 18
    assert psh._exp_degree(0.086) < 18
    for t in (np.nan, np.inf):
        assert psh._exp_degree(t) == 18
    # the least degree whose remainder bound is at most half the roundoff
    bound = lambda t, m: t ** (m + 1) * math.exp(t) / math.factorial(m + 1)
    for t, m in zip(thetas, degrees):
        assert m == 18 or bound(t, m) <= 2.0 ** -54
        assert m == 1 or bound(t, m - 1) > 2.0 ** -54


def test_exp_pair_non_finite_matrix_stays_local(rng):
    X = _algebra_batch(2, rng, np.geomspace(1e-3, 0.5, 6))
    X[2, 1, 0] = np.nan
    E, Einv = psh.exp_pair(X)
    assert np.all(np.isnan(E[2, :, 0])) and np.all(np.isnan(Einv[2, :, 0]))
    keep = [0, 1, 3, 4, 5]
    assert np.max(np.abs(E[keep] - _horner18_exp(X[keep]))) < 1e-15

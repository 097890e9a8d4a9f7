import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cartanheis import jets
from cartanheis.errors import DomainError


def test_polynomial_derivatives_exact():
    ctx = jets.context(1, 2)
    (u,) = jets.variables(ctx, [np.array([3.0])])
    f = u ** 2
    assert f.value[0] == 9.0
    assert f.gradient()[0][0] == 6.0
    assert f.second(0, 0)[0] == 2.0


def test_division_and_reciprocal():
    ctx = jets.context(2, 3)
    u, v = jets.variables(ctx, [np.array([2.0]), np.array([0.5])])
    w = (u + v) / (u * v)
    expect = (2.5) / 1.0
    assert np.isclose(w.value[0], expect)
    with pytest.raises(DomainError):
        (u - 2.0).reciprocal()


def test_deriv_drops_order_and_matches_gradient():
    ctx = jets.context(3, 3)
    u = jets.variables(ctx, [np.array([0.3]), np.array([-0.7]), np.array([1.1])])
    f = (u[0] * u[1]).sin() + (u[2] ** 3) * (1.0 + u[0] ** 2).sqrt()
    d0 = f.deriv(0)
    assert d0.ctx.order == 2
    assert np.allclose(d0.value, f.gradient()[0])
    # mixed second derivative symmetric
    assert np.allclose(f.second(0, 2), f.second(2, 0))


def _fd_grad(fn, x0, h=1e-5):
    out = []
    for i in range(len(x0)):
        e = np.zeros(len(x0))
        e[i] = h
        out.append((fn(x0 + e) - fn(x0 - e)) / (2 * h))
    return np.array(out)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.floats(-1.2, 1.2), st.floats(-1.2, 1.2),
       st.floats(0.2, 1.5))
def test_ad_matches_finite_differences(pick, a, b, c):
    def fn(x):
        u, v, w = x
        if pick == 0:
            return np.sin(u * v) + np.exp(0.3 * w)
        if pick == 1:
            return np.cos(u) * w ** 3 + v * v
        if pick == 2:
            return np.sqrt(1.5 + u * u) / (2.0 + np.cos(v + w))
        return np.log(2.0 + np.sin(u)) + v * w

    x0 = np.array([a, b, c])
    ctx = jets.context(3, 2)
    us = jets.variables(ctx, [np.array([t]) for t in x0])
    u, v, w = us
    if pick == 0:
        f = (u * v).sin() + (0.3 * w).exp()
    elif pick == 1:
        f = u.cos() * w ** 3 + v * v
    elif pick == 2:
        f = (u * u + 1.5).sqrt() / ((v + w).cos() + 2.0)
    else:
        f = (u.sin() + 2.0).log() + v * w
    ad = f.gradient()[:, 0]
    fd = _fd_grad(fn, x0)
    assert np.allclose(ad, fd, rtol=1e-7, atol=1e-7)


def test_third_order_coefficients():
    ctx = jets.context(2, 3)
    u, v = jets.variables(ctx, [np.array([0.4]), np.array([0.9])])
    f = (u * v).exp()
    # d^3 exp(uv) / du^2 dv = v (2 + uv) exp(uv)
    u0, v0 = 0.4, 0.9
    want = v0 * (2 + u0 * v0) * np.exp(u0 * v0)
    got = f.c[ctx.index[(2, 1)]][0] * 2.0  # coefficient times 2! 1!
    assert np.isclose(got, want, rtol=1e-12)


def test_domain_guards():
    ctx = jets.context(1, 2)
    (u,) = jets.variables(ctx, [np.array([-1.0])])
    with pytest.raises(DomainError):
        u.sqrt()
    with pytest.raises(DomainError):
        u.log()


def test_complex_conjugation_and_batching():
    ctx = jets.context(2, 2)
    u, v = jets.variables(ctx, [np.linspace(0.1, 1, 5), np.linspace(-1, 1, 5)])
    z = u + 1j * v
    w = z * z.conj()
    assert np.allclose(w.value.imag, 0)
    assert np.allclose(w.value.real, u.value ** 2 + v.value ** 2)
    assert np.allclose(w.real.gradient()[0], 2 * u.value)


def test_values_of_single_and_nested_jets():
    ctx = jets.context(2, 1)
    u, v = jets.variables(ctx, [np.array([[1.0, 2.0, 3.0]]),
                                np.array([[0.5, 0.25, -1.0]])])
    w = u * v
    assert np.array_equal(jets.values(w), u.value * v.value)
    assert jets.values(w).shape == w.batch_shape == (1, 3)
    rows = [[u, v], [w, u + v]]
    vals = jets.values(rows)
    assert vals.shape == (2, 2, 1, 3)
    for r in range(2):
        for c in range(2):
            assert np.array_equal(vals[r, c], rows[r][c].value)
    obj = np.empty((2, 2), dtype=object)
    for r in range(2):
        for c in range(2):
            obj[r, c] = rows[r][c]
    assert np.array_equal(jets.values(obj), vals)


def test_values_mixes_real_and_complex():
    ctx = jets.context(1, 2)
    (u,) = jets.variables(ctx, [np.array([0.5, 1.5])])
    z = u + 1j * u ** 2
    vals = jets.values([u, z])
    assert vals.dtype == complex
    assert np.array_equal(vals[0], u.value.astype(complex))
    assert np.array_equal(vals[1], z.value)


def test_domain_error_carries_batch_location():
    ctx = jets.context(1, 2)
    (u,) = jets.variables(ctx, [np.array([[0.5, 1.0], [-0.25, 2.0]])])
    with pytest.raises(DomainError) as info:
        u.sqrt()
    assert info.value.location == (1, 0)
    assert "grid index (1, 0)" in str(info.value)
    with pytest.raises(DomainError) as info:
        (u - 1.0).reciprocal()
    assert info.value.location == (0, 1)

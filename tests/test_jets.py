import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cartanheis import jets
from cartanheis.errors import DomainError
from conftest import second


def test_polynomial_derivatives_exact():
    ctx = jets.context(1, 2)
    (u,) = jets.variables(ctx, [np.array([3.0])])
    f = u ** 2
    assert f.value[0] == 9.0
    assert f.gradient()[0][0] == 6.0
    assert second(f, 0, 0)[0] == 2.0


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
    assert np.allclose(second(f, 0, 2), second(f, 2, 0))


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
    with pytest.raises(ValueError):
        u.truncated(0).gradient()


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
    vals = jets.values(jets.stack(rows))
    assert vals.shape == (2, 2, 1, 3)
    for r in range(2):
        for c in range(2):
            assert np.array_equal(vals[r, c], rows[r][c].value)
    obj = np.empty((2, 2), dtype=object)
    for r in range(2):
        for c in range(2):
            obj[r, c] = rows[r][c]
    assert np.array_equal(jets.values(jets.stack(obj)), vals)


def test_values_mixes_real_and_complex():
    ctx = jets.context(1, 2)
    (u,) = jets.variables(ctx, [np.array([0.5, 1.5])])
    z = u + 1j * u ** 2
    vals = jets.values(jets.stack([u, z]))
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


def test_numpy_operand_on_the_left_gives_a_jet():
    ctx = jets.context(2, 2)
    u, v = jets.variables(ctx, [np.array([0.5, 1.5]), np.array([-1.0, 2.0])])
    for got, want in ((np.array([2.0, 3.0]) * u, u * np.array([2.0, 3.0])),
                      (np.array([2.0, 3.0]) + u, u + np.array([2.0, 3.0])),
                      (np.array([2.0, 3.0]) - u, -u + np.array([2.0, 3.0])),
                      (np.float64(2.0) * v, v * 2.0)):
        assert isinstance(got, jets.Jet)
        assert np.array_equal(got.c, want.c)


def _random_jet(rng, ctx, batch, shape, complex_):
    c = rng.standard_normal((ctx.ncoeff,) + batch + shape)
    if complex_:
        c = c + 1j * rng.standard_normal(c.shape)
    return jets.Jet(ctx, c, len(shape))


def _loop_matmul(a, b):
    """Reference a @ b from scalar jet products, one entry at a time."""
    p, s = a.shape
    r = b.shape[1]
    rows = []
    for i in range(p):
        row = []
        for k in range(r):
            acc = a[i, 0] * b[0, k]
            for j in range(1, s):
                acc = acc + a[i, j] * b[j, k]
            row.append(acc)
        rows.append(row)
    return jets.stack(rows)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("shapes", [((2, 3), (3, 4)), ((1, 5), (5, 1))])
@pytest.mark.parametrize("batch", [(), (4, 5)])
def test_matmul_matches_scalar_jet_products(order, complex_, shapes, batch):
    rng = np.random.default_rng(order + 10 * len(batch) + 100 * shapes[0][0])
    ctx = jets.context(3, order)
    a = _random_jet(rng, ctx, batch, shapes[0], complex_)
    b = _random_jet(rng, ctx, batch, shapes[1], complex_ and order % 2 == 0)
    got, want = a @ b, _loop_matmul(a, b)
    assert got.shape == want.shape and got.batch_shape == batch
    scale = np.max(np.abs(want.c))
    assert np.max(np.abs(got.c - want.c)) <= 1e-14 * scale


def test_tensor_axes_match_scalar_jets():
    ctx = jets.context(2, 2)
    u, v = jets.variables(ctx, [np.linspace(0.1, 1, 4), np.linspace(-1, 1, 4)])
    w = u * v
    J = jets.stack([[u, v], [w, u + v]])
    assert J.shape == (2, 2) and J.batch_shape == (4,)
    assert np.shares_memory(J.value, J.c)
    assert np.array_equal(J[1, 0].c, w.c)
    assert np.array_equal(J.T[0, 1].c, w.c)
    assert np.allclose((np.ones(2) @ J)[1].c, (v + u + v).c, rtol=0, atol=1e-15)
    assert np.array_equal(J.jacobian()[1, 0, :].c, jets.stack([w.deriv(0), w.deriv(1)]).c)
    assert np.array_equal(J.truncated(1)[0, 1].c, v.truncated(1).c)
    assert np.array_equal(J.gradient()[..., 1, 0], w.gradient())


def _bits(mask):
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


@st.composite
def _operand_pairs(draw):
    """Two jets with random structural supports, for ``*`` or ``@``."""
    ctx = jets.context(draw(st.integers(1, 5)), draw(st.integers(0, 3)))
    op = draw(st.sampled_from(["*", "@"]))
    if op == "*":
        shape = draw(st.sampled_from([(), (2,), (2, 3)]))
        shapes = (shape, draw(st.sampled_from([shape, shape[1:]])))
    else:
        p, s, r = (draw(st.integers(1, 3)) for _ in range(3))
        shapes = draw(st.sampled_from([((p, s), (s, r)), ((s,), (s, r)),
                                       ((p, s), (s,)), ((s,), (s,))]))
    batch = draw(st.sampled_from([(), (3,), (2, 2)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    operands = []
    for shape in shapes:
        flags = draw(st.lists(st.booleans(), min_size=ctx.ncoeff, max_size=ctx.ncoeff))
        support = sum(1 << k for k, live in enumerate(flags) if live)
        c = rng.standard_normal((ctx.ncoeff,) + batch + shape)
        if draw(st.booleans()):
            c = c + 1j * rng.standard_normal(c.shape)
        c[[k for k, live in enumerate(flags) if not live]] = 0
        operands.append(jets.Jet(ctx, c, len(shape), support))
    return op, *operands


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_operand_pairs())
def test_support_aware_products_match_the_full_table(pair):
    op, a, b = pair
    ctx = a.ctx
    product = (lambda x, y: x * y) if op == "*" else (lambda x, y: x @ y)
    got = product(a, b)
    # the same coefficients with full support run the whole table
    want = product(jets.Jet(ctx, a.c, a.nt), jets.Jet(ctx, b.c, b.nt))
    assert got.shape == want.shape and got.c.dtype == want.c.dtype
    assert np.array_equal(got.c, want.c)
    for k in _bits(ctx.full & ~got.support):
        assert not np.any(got.c[k])


def test_view_sees_the_support_its_base_widens():
    ctx = jets.context(2, 2)
    u, v = jets.variables(ctx, [np.linspace(0.1, 1, 3), np.linspace(-1, 1, 3)])
    M = jets.stack([[u, u], [u, u]])
    row, col = M[1], M.T[:, 1]
    assert row.support == col.support == u.support
    M[1, 1] = v * v
    assert row.support == col.support == M.support == u.support | (v * v).support
    assert np.array_equal((row * col).c, (jets.stack([u * u, v * v * v * v])).c)


def test_pruned_drops_zero_slices_and_keeps_non_finite_ones():
    ctx = jets.context(2, 2)
    c = np.zeros((ctx.ncoeff, 4, 2))
    c[0] = 1.0
    c[1, 3, 0] = np.nan
    c[2, 0, 1] = np.inf
    c[4, 2, 1] = -np.inf
    c[5, 1, 0] = -0.0
    jet = jets.Jet(ctx, c, 1)
    pruned = jet.pruned()
    assert pruned.support == 0b10111
    assert jet.support == ctx.full
    assert jets.Jet(ctx, c, 1, 0b110).pruned().support == 0b110


def _nonzero_slices(c):
    return sum(1 << k for k in range(len(c)) if np.any(c[k] != 0))


def _with_data_support(x):
    """x times the constant 1: the same coefficients, its support narrowed to
    the slices that are nonzero."""
    return x * jets.constant(x.ctx, 1.0, x.batch_shape)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_operand_pairs())
def test_data_supports_hold_the_nonzero_slices_and_skip_the_rest(pair):
    """A product's support is exactly its nonzero coefficient slices, and a
    product of such factors gives the coefficients of the full table: for
    ``*``, matrix ``@`` and the row/column contraction, real and complex.
    Bitwise, with -0 read as +0: a skipped term 0 * x only changes the sign
    of an exact zero."""
    op, a, b = pair
    ctx = a.ctx
    product = (lambda x, y: x * y) if op == "*" else (lambda x, y: x @ y)
    full_a, full_b = jets.Jet(ctx, a.c, a.nt), jets.Jet(ctx, b.c, b.nt)
    data_a, data_b = _with_data_support(full_a), _with_data_support(full_b)
    for full, data in ((full_a, data_a), (full_b, data_b)):
        assert data.c.tobytes() == full.c.tobytes()
        assert data.support == _nonzero_slices(full.c)
    got, want = product(data_a, data_b), product(full_a, full_b)
    assert got.shape == want.shape and got.c.dtype == want.c.dtype
    assert (got.c + 0.0).tobytes() == (want.c + 0.0).tobytes()
    assert got.support == want.support == _nonzero_slices(got.c)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_slices_stay_in_the_data_support(bad):
    ctx = jets.context(2, 2)                # coefficient 3 is the u0^2 one
    u, _ = jets.variables(ctx, [np.linspace(0.1, 1, 4), np.linspace(-1, 1, 4)])
    c = np.zeros((ctx.ncoeff, 4))
    c[0] = 1.0
    c[3, 2] = bad
    x = _with_data_support(jets.Jet(ctx, c))
    assert x.support == 0b1001
    y = x * u
    assert y.support >> 3 & 1
    assert np.array_equal(y.c[3], c[3] * u.value, equal_nan=True)

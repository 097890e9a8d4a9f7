import numpy as np
import pytest

from cartanheis import heis
from cartanheis.errors import DimensionMismatch, InvalidFrame


def P(n, *coords):
    return heis.HPoint.from_coords(n, np.array(coords, dtype=float))


def test_group_law_hand_values():
    # identity, and the two orders of the pinned non-commuting pair
    p = P(1, 1, 0, 0)
    q = P(1, 0, 1, 0)
    assert heis.group_mul(heis.origin(1), p) == p
    assert np.allclose(heis.group_mul(p, q).coords, [1, 1, -1])
    assert np.allclose(heis.group_mul(q, p).coords, [1, 1, 1])


def test_group_inverse_and_associativity(rng):
    for _ in range(20):
        a, b, c = (P(2, *rng.uniform(-2, 2, 5)) for _ in range(3))
        lhs = heis.group_mul(heis.group_mul(a, b), c).coords
        rhs = heis.group_mul(a, heis.group_mul(b, c)).coords
        assert np.allclose(lhs, rhs, atol=1e-12)
        assert np.allclose(heis.group_mul(a, heis.group_inv(a)).coords, 0,
                           atol=1e-14)
        assert heis.group_inv(heis.group_inv(a)) == a


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        heis.group_mul(P(1, 1, 0, 0), P(2, 0, 0, 0, 0, 0))


def test_contact_form_values():
    # Theta(v) is the T-slot of v's frame components
    base = P(1, 2, 3, 5)
    x, y = base.x, base.y
    assert heis.frame_t_component(x, y, [0.0], [0.0], 1.0) == 1.0      # T
    e1_t = heis.coord_t_component(x, y, [1.0], [0.0], 0.0)           # e_1 = dx + y dt
    assert e1_t == 3.0
    assert heis.frame_t_component(x, y, [1.0], [0.0], e1_t) == 0.0
    assert heis.frame_t_component(x, y, [1.0], [0.0], 0.0) == -3.0    # d/dx


def test_frame_coord_roundtrip(rng):
    base = P(2, *rng.uniform(-2, 2, 5))
    v = rng.uniform(-1, 1, 5)
    a, b = v[:2], v[2:4]
    t = heis.frame_t_component(base.x, base.y, a, b, v[4])
    assert np.isclose(heis.coord_t_component(base.x, base.y, a, b, t), v[4],
                      atol=1e-15)


def test_complex_structure():
    J = heis.standard_j_block(2)
    e = np.eye(4)
    assert np.array_equal(J @ e[0], e[2])             # J e_1 = e_3
    assert np.array_equal(J @ e[2], -e[0])
    assert np.array_equal(J @ J, -np.eye(4))


def test_complex_structure_isometry(rng):
    # J is an isometry of the adapted metric
    J = heis.standard_j_block(2)
    assert np.array_equal(J.T @ J, np.eye(4))
    f, g = rng.uniform(-1, 1, (2, 4))
    assert np.isclose((J @ f) @ (J @ g), f @ g, atol=1e-14)


def test_left_invariance_of_frame(rng):
    # push-forward of e_b(q) under left translation equals e_b(p q)
    from cartanheis import psh

    def e_coord(base, b):
        """Coordinate components of e_b at base."""
        v = np.eye(5)[b - 1]
        v[4] = heis.coord_t_component(base.x, base.y, v[:2], v[2:4], 0.0)
        return v

    p = P(2, *rng.uniform(-1, 1, 5))
    q = P(2, *rng.uniform(-1, 1, 5))
    L = psh.left_translation(p)
    for b in range(1, 5):
        moved = L.mat[1:, 1:] @ e_coord(q, b)      # the differential of L
        assert np.allclose(moved, e_coord(heis.group_mul(p, q), b), atol=1e-13)


def test_contact_derivative_is_symplectic_form(rng):
    # dTheta = 2 sum dx^dy, evaluated by differencing Theta along coordinate
    # pairs at a random point
    n = 2
    p0 = rng.uniform(-1, 1, 2 * n + 1)
    h = 1e-5

    def theta_coeffs(c):
        base = P(n, *c)
        x, y = base.x, base.y
        return np.concatenate([-y, x, [1.0]])

    for i in range(2 * n + 1):
        for j in range(2 * n + 1):
            ei = np.eye(2 * n + 1)[i]
            ej = np.eye(2 * n + 1)[j]
            dth = ((theta_coeffs(p0 + h * ei)[j] - theta_coeffs(p0 - h * ei)[j])
                   - (theta_coeffs(p0 + h * ej)[i] - theta_coeffs(p0 - h * ej)[i])
                   ) / (2 * h)
            want = 2.0 if (i < n and j == n + i) else \
                -2.0 if (j < n and i == n + j) else 0.0
            assert np.isclose(dth, want, atol=1e-9)


def test_frame_validation():
    from cartanheis import psh
    base = P(1, 0.0, 0.0, 0.0)
    assert psh.psh_validate(psh.frame_to_matrix(base, np.eye(3)).mat).worst == 0.0
    bad = np.eye(3)
    bad[0, 0] = 2.0
    with pytest.raises(InvalidFrame):
        psh.frame_to_matrix(base, bad)
    with pytest.raises(InvalidFrame):
        psh.frame_to_matrix(base, np.eye(5))

import numpy as np
import pytest

from cartanheis import heis
from cartanheis.errors import (BaseMismatch, DimensionMismatch, InvalidFrame,
                               NonHorizontal)


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
    base = P(1, 2, 3, 5)
    assert heis.contact_form(heis.reeb(base)) == 1.0
    assert heis.contact_form(heis.frame_vector(base, 1)) == 0.0
    dx = heis.HTangent.from_coord(base, [1.0, 0.0, 0.0])
    assert heis.contact_form(dx) == -3.0


def test_frame_coord_roundtrip(rng):
    base = P(2, *rng.uniform(-2, 2, 5))
    v = rng.uniform(-1, 1, 5)
    t1 = heis.HTangent.from_coord(base, v)
    t2 = heis.HTangent.from_frame(base, t1.frame)
    assert np.allclose(t2.coord, v, atol=1e-15)


def test_complex_structure():
    base = P(2, 0.3, -0.1, 0.2, 0.4, 1.0)
    e1 = heis.frame_vector(base, 1)
    je1 = heis.complex_structure(e1)
    assert np.allclose(je1.frame, heis.frame_vector(base, 3).frame)
    assert np.allclose(heis.complex_structure(je1).frame, -e1.frame)
    with pytest.raises(NonHorizontal):
        heis.complex_structure(heis.reeb(base))


def test_complex_structure_isometry(rng):
    base = P(2, *rng.uniform(-1, 1, 5))
    f = np.concatenate([rng.uniform(-1, 1, 4), [0.0]])
    g = np.concatenate([rng.uniform(-1, 1, 4), [0.0]])
    v = heis.HTangent.from_frame(base, f)
    w = heis.HTangent.from_frame(base, g)
    assert np.isclose(
        heis.adapted_metric(heis.complex_structure(v), heis.complex_structure(w)),
        heis.adapted_metric(v, w), atol=1e-14)


def test_adapted_metric_orthonormal_and_base_check():
    base = P(1, 2, 3, 5)
    e1 = heis.frame_vector(base, 1)
    e2 = heis.frame_vector(base, 2)
    assert heis.adapted_metric(e1, e1) == 1.0
    assert heis.adapted_metric(e1, e2) == 0.0
    # coordinate round trip keeps the metric
    v = heis.HTangent.from_coord(base, e1.coord)
    assert np.isclose(heis.adapted_metric(v, v), 1.0, atol=1e-15)
    with pytest.raises(BaseMismatch):
        heis.adapted_metric(e1, heis.frame_vector(P(1, 0, 0, 0), 1))


def test_left_invariance_of_frame(rng):
    # push-forward of e_b(q) under left translation equals e_b(p q)
    from cartanheis import psh
    p = P(2, *rng.uniform(-1, 1, 5))
    q = P(2, *rng.uniform(-1, 1, 5))
    L = psh.left_translation(p)
    for b in range(1, 5):
        v = heis.frame_vector(q, b)
        moved = L.mat[1:, 1:] @ v.coord      # the differential of L
        expect = heis.frame_vector(heis.group_mul(p, q), b)
        assert np.allclose(moved, expect.coord, atol=1e-13)


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


def test_hermitian_pairing_convention():
    base = P(2, 0.5, -0.3, 0.2, 0.1, 0.7)
    F = heis.standard_frame(base)
    e1 = heis.frame_vector(base, 1)
    e3 = heis.frame_vector(base, 3)
    assert heis.hermitian_pairing(e1, F, 1) == 0.5
    assert heis.hermitian_pairing(e3, F, 1) == 0.5j
    assert heis.hermitian_pairing(heis.frame_vector(base, 2), F, 1) == 0.0
    assert heis.levi_pairing(e1, F, 1) == 1.0
    with pytest.raises(NonHorizontal):
        heis.hermitian_pairing(heis.reeb(base), F, 1)


def test_frame_validation():
    from cartanheis import psh
    base = P(1, 0.0, 0.0, 0.0)
    F = heis.standard_frame(base)
    assert psh.psh_validate(psh.frame_to_matrix(F).mat).worst == 0.0
    bad = F.cols.copy()
    bad[0, 0] = 2.0
    with pytest.raises(InvalidFrame):
        psh.frame_to_matrix(heis.FrameAtPoint(base, bad))

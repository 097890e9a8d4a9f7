import numpy as np
import pytest

from cartanheis import darboux, dsl, heis, invariants, psh, rigidity
from cartanheis.errors import NotFlat, NotTorsionFree, WrongClass
from conftest import analysis_for, mixed_verticality_example


def test_classify_three_ways(heis_sub12, sphere2_nu, ellipsoid_nu):
    assert rigidity.classify(heis_sub12[2].nu_norm).kind == "Vertical"
    cls = rigidity.classify(sphere2_nu[2].nu_norm)
    assert cls.kind == "CompletelyNonVertical"
    assert np.isclose(cls.nu_min, 0.5, atol=1e-12)
    assert np.isclose(cls.nu_max, 0.5, atol=1e-12)
    assert rigidity.classify(ellipsoid_nu[2].nu_norm).kind == "CompletelyNonVertical"


def test_classify_mixed():
    imm = mixed_verticality_example()
    grid = darboux.ChartGrid(imm.chart, 7)
    ff = darboux.darboux_frame(imm, grid)
    assert rigidity.classify(ff.nu_norm).kind == "Mixed"


def test_detect_flat_unmoved(heis_sub12):
    _, _, _, an = heis_sub12
    fit = rigidity.detect_flat(an)
    assert fit.image_residual < 1e-12
    # recovered motion preserves the model subgroup: zero normal translation
    p, R = psh.decompose(fit.motion)
    assert abs(p.x[1]) < 1e-12 and abs(p.y[1]) < 1e-12
    assert np.max(np.abs(R - np.eye(4))) < 1e-12


def test_detect_flat_roundtrip(rng):
    imm = dsl.builtin("heis_sub", 1, 2)
    for _ in range(6):
        Phi = psh.random_element(2, rng)
        moved = dsl.transform_immersion(imm, Phi)
        grid = darboux.ChartGrid(moved.chart, 5)
        ff = darboux.darboux_frame(moved, grid)
        an = invariants.Analysis(ff)
        fit = rigidity.detect_flat(an)
        assert fit.image_residual < 1e-10
        # undoing the recovered motion then the original one must preserve
        # the model subgroup: the composite fixes {z_n = 0}
        comp = psh.compose(psh.inverse(fit.motion), Phi)
        p, R = psh.decompose(comp)
        assert abs(p.x[1]) < 1e-10 and abs(p.y[1]) < 1e-10


def test_detect_flat_rejections(holograph, sphere_nu):
    with pytest.raises(NotFlat):
        rigidity.detect_flat(holograph[3])
    with pytest.raises(WrongClass):
        rigidity.detect_flat(sphere_nu[3])


def test_detect_sphere_centered(sphere_nu, sphere2_nu):
    for (_, _, ff, an), r in ((sphere_nu, 1.0), (sphere2_nu, 2.0)):
        fit = rigidity.detect_sphere(an)
        assert np.max(np.abs(fit.center.coords)) < 1e-11
        assert abs(fit.radius - r) < 1e-11
        assert fit.center_residual < 1e-10 and fit.radius_residual < 1e-10


def test_detect_sphere_equivariance(rng):
    imm = dsl.builtin("sphere", 2, 1.0)
    for _ in range(4):
        Phi = psh.random_element(2, rng)
        moved = dsl.transform_immersion(imm, Phi)
        grid = darboux.ChartGrid(moved.chart, 5)
        ff = darboux.darboux_frame(moved, grid, policy="nu")
        an = invariants.Analysis(ff)
        fit = rigidity.detect_sphere(an)
        target = psh.apply(Phi, heis.origin(2))
        assert np.max(np.abs(fit.center.coords - target.coords)) < 1e-10
        assert abs(fit.radius - 1.0) < 1e-10


def test_detect_sphere_builds_no_maurer_cartan_form(monkeypatch):
    """An Analysis builds its Maurer-Cartan form on the first read, which
    the sphere detector never makes; a form handed in is kept."""
    imm = dsl.builtin("sphere", 2, 1.0)
    ff = darboux.darboux_frame(imm, darboux.ChartGrid(imm.chart, 5), policy="nu")
    built, derivative = [], invariants.darboux_derivative
    monkeypatch.setattr(invariants, "darboux_derivative",
                        lambda ff: built.append(ff) or derivative(ff))
    an = invariants.Analysis(ff)
    assert rigidity.detect_sphere(an).radius_residual < 1e-10
    assert built == []
    assert an.mc is an.mc and built == [ff]
    mc = derivative(ff)
    assert invariants.Analysis(ff, mc).mc is mc and built == [ff]


def test_detect_sphere_rejects_torsion(ellipsoid_nu):
    with pytest.raises(NotTorsionFree):
        rigidity.detect_sphere(ellipsoid_nu[3])


def test_detect_sphere_needs_nu_gauge():
    _, _, _, an = analysis_for("builtin:sphere(2,1)", 5, "canonical")
    with pytest.raises(WrongClass):
        rigidity.detect_sphere(an)


def test_constant_curvature(sphere_nu, sphere2_nu, ellipsoid_nu):
    out = rigidity.constant_curvature_check(sphere_nu[3])
    assert out["pass"] and np.isclose(out["mean"], 2.0, atol=1e-9)
    out = rigidity.constant_curvature_check(sphere2_nu[3])
    assert out["pass"] and np.isclose(out["mean"], 0.5, atol=1e-9)
    with pytest.raises(NotTorsionFree):
        rigidity.constant_curvature_check(ellipsoid_nu[3])


def test_flatness_criteria_consistency(ellipsoid_nu, sphere_nu):
    # on completely non-vertical codimension-one surfaces the two flatness
    # measures vanish together: |A| ~ |h| |nu|
    for _, _, ff, an in (ellipsoid_nu, sphere_nu):
        a = np.sqrt(an.torsion_norm2)
        h = np.sqrt(an.II_norm2)
        assert np.max(np.abs(a - h * ff.nu_norm)) < 1e-10


def test_detectors_in_higher_dimension(rng):
    imm = dsl.builtin("heis_sub", 2, 3)
    Phi = psh.random_element(3, rng)
    moved = dsl.transform_immersion(imm, Phi)
    grid = darboux.ChartGrid(moved.chart, 3)
    fit = rigidity.detect_flat(invariants.Analysis(
        darboux.darboux_frame(moved, grid)))
    assert fit.image_residual < 1e-10

    imm = dsl.builtin("sphere", 3, 1.0)
    grid = darboux.ChartGrid(imm.chart, 3)
    ff = darboux.darboux_frame(imm, grid, policy="nu")
    fit = rigidity.detect_sphere(invariants.Analysis(ff))
    assert np.max(np.abs(fit.center.coords)) < 1e-10
    assert abs(fit.radius - 1.0) < 1e-10

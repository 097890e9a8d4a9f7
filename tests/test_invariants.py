import numpy as np
import pytest

from cartanheis import darboux, dsl, invariants, jets
from cartanheis.errors import DegeneratePoint, WrongClass
from conftest import analysis_for


def test_flat_model_everything_vanishes(heis_sub12):
    _, _, ff, an = heis_sub12
    assert np.max(ff.nu_norm) == 0.0
    assert np.max(an.II_norm2) < 1e-28
    assert np.max(an.torsion_norm2) < 1e-28
    assert np.max(np.abs(an.curvature["scalar"])) < 1e-13
    tw = invariants.tanaka_webster_solve(an)
    for key in ("gamma_hol", "gamma_bar", "gamma_0"):
        assert np.max(np.abs(tw[key])) < 1e-13
    nc = invariants.normal_connection(an)
    for key in ("hol", "anti", "reeb"):
        assert np.max(np.abs(nc[key])) < 1e-13
    assert an.restriction_residuals()["max"] < 1e-13


def test_sphere_invariants(sphere_nu, sphere2_nu):
    for (_, _, ff, an), r in ((sphere_nu, 1.0), (sphere2_nu, 2.0)):
        assert np.max(np.abs(ff.nu_norm - 1 / r)) < 1e-12
        assert np.max(np.sqrt(an.II_norm2)) < 1e-12
        assert np.max(np.sqrt(an.torsion_norm2)) < 1e-12
        R = an.curvature["scalar"]
        assert np.max(np.abs(R - 2.0 / r ** 2)) / (2.0 / r ** 2) < 1e-10
        assert an.restriction_residuals()["max"] < 1e-12


def test_sphere_normal_connection_is_contact_multiple(sphere_nu):
    # theta_n^n = i |nu|^2 theta-hat on the unit sphere in the nu gauge
    _, _, ff, an = sphere_nu
    slots = an.conn_slots["normal"][0][0]
    th = jets.values(ff.theta_slots)
    got = jets.values(slots)
    assert np.max(np.abs(got - 1j * th)) < 1e-12


def test_codim_one_normal_connection_imaginary(ellipsoid_nu):
    _, _, ff, an = ellipsoid_nu
    slots = an.conn_slots["normal"][0][0]
    got = jets.values(slots)
    assert np.max(np.abs(got.real)) < 1e-13  # skew-hermitian 1x1 block
    assert an.normal_conn_coeffs["skew_hermitian"] < 1e-13


def test_holograph_h_and_gauss(holograph):
    _, _, ff, an = holograph
    assert np.min(np.abs(an.second_ff["h"][0, 0, 0])) > 1e-2
    assert an.gauss_residual() < 1e-12
    chk = invariants.ricci_nonpositivity_check(an)
    assert chk["pass"]
    res = an.second_ff_residuals()
    assert max(res.values()) < 1e-12


def test_ricci_check_rejects_non_vertical(sphere_nu):
    _, _, _, an = sphere_nu
    with pytest.raises(WrongClass):
        invariants.ricci_nonpositivity_check(an)


def test_h_from_curvature_matches_ambient(holograph):
    _, _, _, an = holograph
    out = invariants.h_from_curvature(an)
    assert not np.any(out["degenerate_mask"])
    amb = np.abs(an.second_ff["h"][0])
    assert np.nanmax(np.abs(out["h_abs"] - amb)) < 1e-10


def test_h_from_curvature_flat_is_degenerate(heis_sub12):
    _, _, _, an = heis_sub12
    with pytest.raises(DegeneratePoint):
        invariants.h_from_curvature(an)


def test_h_from_curvature_two_entries():
    # n = 3, m = 2 graph with two independent nonzero h entries
    imm = dsl.holograph(n=3, m=2, polys=[{(2, 0): 1.0, (1, 1): 0.8}],
                        label="holograph2")
    grid = darboux.ChartGrid(imm.chart, 3)
    ff = darboux.darboux_frame(imm, grid)
    an = invariants.Analysis(ff)
    amb = np.abs(an.second_ff["h"][0])
    assert np.min(amb[0, 0]) > 0.02 and np.min(amb[0, 1]) > 0.01
    assert np.min(amb[1, 1]) > 0.02
    out = invariants.h_from_curvature(an)
    assert np.nanmax(np.abs(out["h_abs"] - amb)) < 1e-9
    assert an.gauss_residual() < 1e-11


def test_vertical_scalar_curvature_reeb_invariant(holograph):
    # for vertical graphs the chart t-axis is the induced Reeb direction and
    # the scalar curvature must be constant along it
    _, _, _, an = holograph
    R = an.curvature["scalar"]
    assert np.max(np.ptp(R, axis=2)) < 1e-12


def test_torsion_oracle_from_ambient_data(ellipsoid_nu):
    # A^k_l = - sum_a nu^a conj(h^a_kl), computed purely from ambient fields
    _, _, ff, an = ellipsoid_nu
    pred = -np.einsum("a...,akl...->kl...", an.nu_comp_vals,
                      np.conj(an.second_ff["h"]))
    assert np.max(np.abs(an.torsion_vals - pred)) < 1e-12
    assert np.min(np.sqrt(an.torsion_norm2)) > 1e-3  # genuinely torsionful


def test_ellipsoid_identity_suite(ellipsoid_nu):
    _, _, ff, an = ellipsoid_nu
    assert an.restriction_residuals()["max"] < 1e-12
    assert an.cnv_curvature_residual() < 1e-12
    assert an.scalar_torsion_residual() < 1e-12
    assert an.h_torsion_link_residual() < 1e-12
    out = invariants.theta_nn_from_intrinsic(an)
    assert out["residual"] < 1e-12


def test_theta_nn_sphere_closed_form(sphere_nu):
    _, _, ff, an = sphere_nu
    out = invariants.theta_nn_from_intrinsic(an)
    assert out["residual"] < 1e-12
    th = jets.values(ff.theta_slots)
    assert np.max(np.abs(out["candidate"] - 1j * th)) < 1e-12


def test_theta_nn_rejects_vertical(holograph):
    _, _, _, an = holograph
    with pytest.raises(WrongClass):
        invariants.theta_nn_from_intrinsic(an)


def test_nu_from_curvature_values():
    assert np.isclose(invariants.nu_from_curvature(2.0, 0.0, 1), 1.0)
    assert np.isclose(invariants.nu_from_curvature(0.5, 0.0, 1), 0.25)
    assert invariants.nu_from_curvature(0.0, 0.0, 1) == 0.0


def test_nu_from_curvature_on_ellipsoid(ellipsoid_nu):
    _, _, ff, an = ellipsoid_nu
    got = invariants.nu_from_curvature(an.curvature["scalar"],
                                       an.torsion_norm2, an.m)
    nu2 = ff.nu_norm ** 2
    assert np.max(np.abs(got - nu2) / nu2) < 1e-10


def test_h_gauge_covariance():
    psi = 0.73
    spec = "builtin:holograph()"
    imm, grid, ff0, an0 = analysis_for(spec, 5)
    ff1 = darboux.darboux_frame(imm, grid, normal_phases=(psi,))
    an1 = invariants.Analysis(ff1)
    h0 = an0.second_ff["h"][0]
    h1 = an1.second_ff["h"][0]
    assert np.max(np.abs(h1 - np.exp(-1j * psi) * h0)) < 1e-12
    assert np.max(np.abs(an1.II_norm2 - an0.II_norm2)) < 1e-12


def test_rigid_motion_invariance(rng):
    from cartanheis import psh
    spec = "builtin:ellipsoid(2,1,1.3)"
    imm, grid, ff0, an0 = analysis_for(spec, 5, "nu")
    Phi = psh.random_element(2, rng)
    moved = dsl.transform_immersion(imm, Phi)
    ff1 = darboux.darboux_frame(moved, grid, policy="nu")
    an1 = invariants.Analysis(ff1)
    assert np.max(np.abs(ff1.nu_norm - ff0.nu_norm)) < 1e-11
    assert np.max(np.abs(an1.II_norm2 - an0.II_norm2)) < 1e-10
    assert np.max(np.abs(an1.torsion_norm2 - an0.torsion_norm2)) < 1e-10
    assert np.max(np.abs(an1.curvature["scalar"] - an0.curvature["scalar"])) < 1e-9


def test_tw_solve_well_conditioned(sphere_nu):
    _, _, _, an = sphere_nu
    assert an.coframe_condition() > 1e-3
    assert an.tanaka_webster["solve_residual"] < 1e-12
    assert an.tanaka_webster["admissibility"] < 1e-12


def test_extract_packs_everything(ellipsoid_nu):
    _, _, _, an = ellipsoid_nu
    assert an.curvature["scalar"] is not None and an.curvature["curv"] is not None
    assert an.second_ff["h"].shape[:3] == (1, 1, 1)
    assert an.restriction_residuals()["max"] < 1e-12
    assert an.mc.structure_residual() < 1e-12


def test_higher_dimension_sphere():
    # m = 2 exercises the full index range of the curvature identities
    imm = dsl.parse_surface_spec("builtin:sphere(3,1)")
    grid = darboux.ChartGrid(imm.chart, 3)
    ff = darboux.darboux_frame(imm, grid, policy="nu")
    an = invariants.Analysis(ff)
    assert np.max(np.abs(ff.nu_norm - 1.0)) < 1e-12
    assert np.max(np.abs(an.curvature["scalar"] - 6.0)) < 1e-10
    assert np.max(np.sqrt(an.II_norm2)) < 1e-12
    assert an.restriction_residuals()["max"] < 1e-12
    assert an.cnv_curvature_residual() < 1e-12
    assert an.scalar_torsion_residual() < 1e-12


def test_higher_dimension_torsionful_section():
    imm = dsl.parse_surface_spec("builtin:ellipsoid(3,1,1,1.2)")
    grid = darboux.ChartGrid(imm.chart, 3)
    ff = darboux.darboux_frame(imm, grid, policy="nu")
    an = invariants.Analysis(ff)
    assert np.min(ff.nu_norm) > 1e-2
    assert np.max(np.sqrt(an.torsion_norm2)) > 1e-2
    assert an.restriction_residuals()["max"] < 1e-12
    assert an.cnv_curvature_residual() < 1e-12
    assert an.scalar_torsion_residual() < 1e-12
    assert an.h_torsion_link_residual() < 1e-12
    assert invariants.theta_nn_from_intrinsic(an)["residual"] < 1e-12


def test_codimension_two_flat():
    imm = dsl.parse_surface_spec("builtin:heis_sub(1,3)")
    grid = darboux.ChartGrid(imm.chart, 5)
    ff = darboux.darboux_frame(imm, grid)
    an = invariants.Analysis(ff)
    assert an.codim == 2
    assert an.restriction_residuals()["max"] < 1e-13
    assert an.normal_conn_coeffs["skew_hermitian"] < 1e-13
    assert np.max(an.II_norm2) < 1e-26


def test_full_pipeline_fd_mode_black_box():
    # documented factor-1e4 tolerances against the AD pipeline
    ref = dsl.parse_surface_spec("builtin:sphere(2,1)")
    bb = dsl.BlackBoxImmersion("bb_sphere", 2, 1, ref.chart,
                               lambda u: ref.values(u))
    grid = darboux.ChartGrid(bb.chart, 7)
    ff = darboux.darboux_frame(bb, grid, policy="nu", mode="fd")
    an = invariants.Analysis(ff)
    assert np.max(np.abs(ff.nu_norm - 1.0)) < 1e-6
    assert np.max(np.abs(an.curvature["scalar"] - 2.0)) < 1e-3
    assert an.restriction_residuals()["max"] < 1e-4


def test_graph_curvature_closed_form():
    # independent oracle: for the vertical graph z2 = F(z1) the bending
    # coefficient is plane-curve-like, |h| = |F''| / (1 + |F'|^2)^{3/2},
    # and the Gauss identity turns it into the Webster curvature
    for degree in (2, 3):
        imm = dsl.holograph(degree)
        grid = darboux.ChartGrid(imm.chart, 5)
        ff = darboux.darboux_frame(imm, grid)
        an = invariants.Analysis(ff)
        z = grid.points[0] + 1j * grid.points[1]
        Fp = degree * z ** (degree - 1)
        Fpp = degree * (degree - 1) * z ** (degree - 2)
        pred = np.abs(Fpp) / (1 + np.abs(Fp) ** 2) ** 1.5
        h = np.abs(an.second_ff["h"][0, 0, 0])
        assert np.max(np.abs(h - pred)) < 1e-12
        R = an.curvature["scalar"]
        assert np.max(np.abs(R + pred ** 2)) < 1e-12

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from cartanheis import darboux, dsl, invariants, jets, reconstruct
from cartanheis.errors import DegeneratePoint, IllConditionedCoframe, WrongClass
from conftest import analysis_for


def test_flat_model_everything_vanishes(heis_sub12):
    _, _, ff, an = heis_sub12
    assert np.max(ff.nu_norm) == 0.0
    assert np.max(an.II_norm2) < 1e-28
    assert np.max(an.torsion_norm2) < 1e-28
    assert np.max(np.abs(an.curvature["scalar"])) < 1e-13
    tw = an.tanaka_webster
    for key in ("gamma_hol", "gamma_bar", "gamma_0"):
        assert np.max(np.abs(jets.values(tw[key]))) < 1e-13
    # theta_a^b paired with Zhat_k, Zhat_kbar and That vanishes
    normal = an.conn_slots["normal"].truncated(0)
    zhat = an.zhat1.T.truncated(0)
    for vec in (zhat, zhat.conj(), an.that1.truncated(0)):
        assert np.max(np.abs(jets.values(normal @ vec))) < 1e-13
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


def _normal_skew_hermitian_defect(an):
    data = reconstruct.intrinsic_data_from_analysis(an)
    return reconstruct.intrinsic_defects(data)["skew_hermitian"]


def test_codim_one_normal_connection_imaginary(ellipsoid_nu):
    _, _, ff, an = ellipsoid_nu
    slots = an.conn_slots["normal"][0][0]
    got = jets.values(slots)
    assert np.max(np.abs(got.real)) < 1e-13  # skew-hermitian 1x1 block
    assert _normal_skew_hermitian_defect(an) < 1e-13


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


# the vertical graph z_3 = z_1^2 + 0.8 z_1 z_2 in H_3
GRAPH_3_2 = """surface graph32 {
  n = 3; m = 2;
  params = [u1, u2, u3, u4, u5];
  chart = [[0.35, 0.95], [0.4, 1.0], [-0.2, 0.6], [-0.25, 0.55], [-0.4, 0.6]];
}
x[1] = u1;
x[2] = u2;
x[3] = u1 * u1 - u3 * u3 + 0.8 * (u1 * u2 - u3 * u4);
y[1] = u3;
y[2] = u4;
y[3] = 2 * u1 * u3 + 0.8 * (u1 * u4 + u3 * u2);
t = u5;
"""


def test_h_from_curvature_two_entries():
    # n = 3, m = 2 graph with two independent nonzero h entries
    imm = dsl.parse(GRAPH_3_2)
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


def test_theta_nn_rejects_a_nan_nu():
    # a NaN minimum of |nu|^2 does not clear the completely non-vertical gate
    imm = dsl.builtin("sphere", 2, 1.0)
    ff = darboux.darboux_frame(imm, darboux.ChartGrid(imm.chart, 3), policy="nu")
    an = invariants.Analysis(ff)
    an.lifted.ff.nu_norm2.c[0].flat[4] = np.nan
    with pytest.raises(WrongClass, match="completely non-vertical"):
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


def test_nan_coframe_condition_fails_the_tanaka_webster_solve():
    imm = dsl.builtin("sphere", 2, 1.0)
    ff = darboux.darboux_frame(imm, darboux.ChartGrid(imm.chart, 3))
    ff.condition = float("nan")
    with pytest.raises(IllConditionedCoframe, match="condition nan too small"):
        invariants.Analysis(ff).tanaka_webster


def test_tw_solve_well_conditioned(sphere_nu):
    _, _, _, an = sphere_nu
    assert an.coframe_condition() > 1e-3
    assert an.consistency["solve_residual"] < 1e-12
    assert an.consistency["admissibility"] < 1e-12


@pytest.mark.parametrize("spec, count", [
    ("sphere(2,1)", 5), ("holograph()", 5), ("ellipsoid(2,1,1.3)", 5),
    ("heis_sub(1,2)", 5), ("sphere(3,1)", 3), ("ellipsoid(3,1,1,1.3)", 3),
    ("ellipsoid(3,1,1.2,1.3)", 3), ("heis_sub(2,3)", 3)])
def test_consistency_residuals_on_the_builtins(spec, count):
    an = analysis_for(f"builtin:{spec}", count)[3]
    res = an.consistency
    for key in ("solve_residual", "admissibility", "hermitian", "purity"):
        assert res[key] < 1e-12, key


SUITE = ("tangent_coframe", "normal_coframe", "contact", "nu_components",
         "tangent_connection", "mixed_connection", "h_symmetry", "max")


@pytest.mark.parametrize("spec, count", [("builtin:ellipsoid(2,1,1.3)", 5),
                                         ("builtin:heis_sub(1,3)", 3),
                                         ("builtin:sphere(3,1)", 3)])
def test_mutations_lift_their_restriction_ties(spec, count):
    # tangent_coframe and contact pair omega with the charts that the
    # Tanaka-Webster solve inverts on its own, so an error in either shows
    imm = dsl.parse_surface_spec(spec)
    ff = darboux.darboux_frame(imm, darboux.ChartGrid(imm.chart, count))
    exact = invariants.Analysis(ff).restriction_residuals()
    assert tuple(exact) == SUITE and exact["max"] < 1e-12, exact
    mc = darboux.darboux_derivative(ff)
    mc.translation.c[0][..., ff.m:ff.n] += 1e-8       # the rows of e_a
    res = invariants.Analysis(ff, mc).restriction_residuals()
    assert res["normal_coframe"] > 1e-9, res
    assert res["tangent_coframe"] < 1e-12 and res["contact"] < 1e-12, res
    ff.charts = ff.charts * (1 + 1e-8)
    res = invariants.Analysis(ff).restriction_residuals()
    assert res["tangent_coframe"] > 1e-9 and res["contact"] > 1e-9, res


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
    assert _normal_skew_hermitian_defect(an) < 1e-13
    assert np.max(an.II_norm2) < 1e-26


def test_full_pipeline_fd_mode():
    # documented factor-1e4 tolerances against the AD pipeline
    imm = dsl.parse_surface_spec("builtin:sphere(2,1)")
    grid = darboux.ChartGrid(imm.chart, 7)
    ff = darboux.darboux_frame(imm, grid, policy="nu", mode="fd")
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


# ---------------------------------------------------------------------------
# first-order frames and their full-order lifts
# ---------------------------------------------------------------------------

BUILTINS = [("sphere(2,1)", 5), ("holograph()", 5), ("ellipsoid(2,1,1.3)", 5),
            ("heis_sub(1,2)", 5), ("sphere(3,1)", 3), ("ellipsoid(3,1,1,1.3)", 3),
            ("heis_sub(2,3)", 3)]


def _same_bits(low, full):
    """``low`` is ``full`` truncated to the order of ``low``, byte for byte."""
    if isinstance(low, jets.Jet):
        return low.c.tobytes() == full.truncated(low.ctx.order).c.tobytes()
    return np.asarray(low).tobytes() == np.asarray(full).tobytes()


# the FD ellipsoid(3,1,1,1.3) at 3^5 fails the CR check under every gauge
@pytest.mark.parametrize("spec, count, mode",
                         [(s, c, "ad") for s, c in BUILTINS]
                         + [(s, c, "fd") for s, c in BUILTINS
                            if s != "ellipsoid(3,1,1,1.3)"])
def test_first_order_frame_is_its_twin_truncated(spec, count, mode):
    """A frame built without a plan reads immersion jets one order below
    its lift (``MCForm.lifted``); every field of it and of its Analysis is
    the lift's, truncated to its order, bit for bit, under every gauge that
    applies."""
    imm = dsl.parse_surface_spec(f"builtin:{spec}")
    grid = darboux.ChartGrid(imm.chart, count)
    gauges = 0
    for policy in darboux.POLICIES:
        try:
            ff = darboux.darboux_frame(imm, grid, policy=policy, mode=mode)
        except WrongClass:      # the nu gauge on a vertical surface
            continue
        an = invariants.Analysis(ff)
        tw = an.lifted
        assert tw.ff is an.mc.lifted.ff and tw.mc is an.mc.lifted
        assert (ff.ctx.order, tw.ff.ctx.order) == (1, 2)
        assert tw.ff.plan == replace(ff.plan, condition=ff.condition)
        assert tw.ff.policy == ff.policy
        fields = ["X", "XiF", "legs_t", "legs_jt", "legs_n", "legs_jn", "nu_frame",
                  "nu_norm2", "nu_norm", "charts"]
        for name in fields:
            assert _same_bits(getattr(ff, name), getattr(tw.ff, name)), (policy, name)
        pairs = {"mc": (an.mc.values, tw.mc.values), "conn": (an.mc.conn, tw.mc.conn),
                 "II": (an.second_ff["h"], tw.second_ff["h"]),
                 "II_norm2": (an.II_norm2, tw.II_norm2),
                 "torsion": (an.tanaka_webster["torsion"], tw.tanaka_webster["torsion"]),
                 "torsion_norm2": (an.torsion_norm2, tw.torsion_norm2)}
        for name, (low, full) in pairs.items():
            assert _same_bits(low, full), (policy, name)
        gauges += 1
    assert gauges >= 3


def _count_builds(monkeypatch, imm):
    """The immersion-jet order of every frame build, and the order of every
    AD immersion-jet evaluation, from now on."""
    builds, evaluated = [], []
    build, evaluate = darboux.FrameField._build, type(imm).jets

    def counted_build(self, X):
        builds.append(X.ctx.order)
        return build(self, X)

    def counted_jets(self, points, order=3):
        evaluated.append(order)
        return evaluate(self, points, order=order)

    monkeypatch.setattr(darboux.FrameField, "_build", counted_build)
    monkeypatch.setattr(type(imm), "jets", counted_jets)
    return builds, evaluated


@pytest.mark.parametrize("spec, policy, detect", [
    ("heis_sub(1,2)", "canonical", "detect_flat"), ("sphere(2,1)", "nu", "detect_sphere")])
def test_rigidity_reads_build_no_twin(spec, policy, detect, monkeypatch):
    """The rigidity flow of the Python API, darboux_frame, Analysis and a
    detector at 5^3, builds one frame from jets below FRAME_ORDER; the
    curvature lifts it once, and the other second-order readers share the
    lift.  The lift takes the frame's coframe condition."""
    from cartanheis import rigidity
    order = darboux.FRAME_ORDER
    imm = dsl.parse_surface_spec(f"builtin:{spec}")
    grid = darboux.ChartGrid(imm.chart, 5)
    builds, evaluated = _count_builds(monkeypatch, imm)
    conditions = []
    condition = darboux.coframe_condition
    monkeypatch.setattr(darboux, "coframe_condition",
                        lambda *args: conditions.append(1) or condition(*args))
    an = invariants.Analysis(darboux.darboux_frame(imm, grid, policy=policy))
    getattr(rigidity, detect)(an)
    an.restriction_residuals()
    assert builds == [order - 1] and max(evaluated) < order
    an.curvature
    assert builds == [order - 1, order] and evaluated.count(order) == 1
    an.consistency, an.mc.structure_residual(), an.gauss_residual()
    invariants.Summary(an.ff.plan, grid).fold(an).close()
    assert builds == [order - 1, order] and evaluated.count(order) == 1
    assert len(conditions) == 1


@pytest.mark.parametrize("planned", [False, True])
def test_frames_forms_and_analyses_hold_no_reference_cycle(planned):
    """With the cycle collector off, a frame, its Maurer-Cartan form, its
    Analysis and the lifted form, frame and analysis die with their last
    reference after every second-order read: none holds itself, so a
    sweep's blocks are freed at their turn."""
    imm = dsl.parse_surface_spec("builtin:ellipsoid(2,1,1.3)")
    grid = darboux.ChartGrid(imm.chart, 5)
    plan = darboux.plan_frame(imm, grid) if planned else None
    enabled = gc.isenabled()
    gc.disable()
    try:
        an = invariants.Analysis(darboux.darboux_frame(imm, grid, plan=plan))
        an.curvature, an.consistency, an.mc.structure_residual()
        lifted = an.lifted
        objects = [an, an.mc, an.ff, lifted, lifted.mc, lifted.ff]
        distinct = len({id(o) for o in objects})
        refs = [weakref.ref(o) for o in objects]
        del an, lifted, objects
        alive = [r() is not None for r in refs]
    finally:
        if enabled:
            gc.enable()
    assert distinct == (3 if planned else 6)
    assert not any(alive)


NONFINITE_THIRD = """surface steep {
  n = 2; m = 1;
  params = [p, q, r];
  chart = [[-0.5, 0.5], [-0.5, 0.5], [-0.5, 0.5]];
}
x[1] = p; y[1] = q; x[2] = 0; y[2] = 0;
t = r + 1e-200*sin(1e110*p);
"""


def test_non_finite_third_order_raises_at_the_first_second_order_read():
    """The contact term's third derivative overflows (1e-200 * 1e330) where
    its lower ones are finite: a frame without a plan builds and answers
    the first-order readers, and its first second-order read raises the
    located DomainError that a planned build raises at construction."""
    from cartanheis import rigidity
    from cartanheis.errors import DomainError
    imm = dsl.parse(NONFINITE_THIRD)
    grid = darboux.ChartGrid(imm.chart, 5)
    an = invariants.Analysis(darboux.darboux_frame(imm, grid))
    assert rigidity.detect_flat(an).image_residual == 0.0
    with pytest.raises(DomainError) as planned:
        darboux.darboux_frame(imm, grid, plan=darboux.plan_frame(imm, grid))
    for read in (lambda: an.curvature, an.mc.structure_residual):
        with pytest.raises(DomainError) as info:
            read()
        assert str(info.value) == str(planned.value)
        assert info.value.location == planned.value.location == (0, 0, 0)

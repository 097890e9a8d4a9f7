import tracemalloc

import numpy as np
import pytest

from cartanheis import darboux, dsl, heis, invariants, psh, reconstruct
from cartanheis.errors import (DimensionMismatch, IntegrabilityFailure,
                               ProjectionDrift)
from conftest import analysis_for


def _eta_of(an):
    return reconstruct.eta_from_frame_field(an.mc)


def test_zero_form_zero_holonomy():
    grid = darboux.ChartGrid([(-1, 1)] * 3, 4)
    eta = reconstruct.EtaForm(2, grid, np.zeros((3, 6, 6) + grid.shape))
    out = reconstruct.holonomy_residual(eta)
    assert out["max"] == 0.0


def test_holonomy_order_on_frame_derivative():
    imm = dsl.builtin("sphere", 2, 1.0)
    maxes = []
    for N in (5, 9, 17):
        _, _, ff, an = analysis_for("builtin:sphere(2,1)", N)
        maxes.append(reconstruct.holonomy_residual(_eta_of(an))["max"])
    orders = [np.log2(maxes[i] / maxes[i + 1]) for i in range(2)]
    assert min(orders) >= 2.7, (maxes, orders)


def test_holonomy_flags_non_integrable_perturbation():
    _, grid, ff, an = analysis_for("builtin:sphere(2,1)", 5)
    eta = _eta_of(an)
    bad = eta.slots.copy()
    bad[0, 1, 2] += 0.4        # constant antisymmetric-block perturbation
    bad[0, 2, 1] -= 0.4
    eta_bad = reconstruct.EtaForm(2, grid, bad)
    per_area = []
    for N in (5, 9):
        _, g2, _, an2 = analysis_for("builtin:sphere(2,1)", N)
        b = _eta_of(an2).slots.copy()
        b[0, 1, 2] += 0.4
        b[0, 2, 1] -= 0.4
        per_area.append(reconstruct.holonomy_residual(
            reconstruct.EtaForm(2, g2, b))["max_per_area"])
    assert min(per_area) > 1e-2       # bounded away from zero under refinement
    verdict = reconstruct.integrability_verdict(eta_bad)
    assert not verdict["pass"]


def test_integrability_verdict_accepts_curved_but_integrable():
    for spec, policy in (("builtin:holograph()", "canonical"),
                         ("builtin:ellipsoid(2,1,1.3)", "nu")):
        _, _, _, an = analysis_for(spec, 7, policy)
        verdict = reconstruct.integrability_verdict(_eta_of(an))
        assert verdict["pass"], (spec, verdict)


def _curve_frames(svals):
    out = []
    for s in svals:
        p = heis.HPoint(1, [np.sin(s)], [1 - np.cos(s)], 0.3 * s)
        c, sn = np.cos(0.7 * s), np.sin(0.7 * s)
        out.append(psh.recompose(p, np.array([[c, -sn], [sn, c]])).mat)
    return np.array(out)


def _curve_eta(svals, grid):
    h = 1e-6
    slots = []
    for s in svals:
        A = _curve_frames([s])[0]
        dA = (_curve_frames([s + h])[0] - _curve_frames([s - h])[0]) / (2 * h)
        slots.append(np.linalg.solve(A, dA))
    return reconstruct.EtaForm(1, grid, np.moveaxis(np.array(slots), 0, -1)[None])


def test_integrator_exact_on_translation_curve():
    svals = np.linspace(0, 1, 9)
    grid = darboux.ChartGrid([(0.0, 1.0)], [9])
    gen = np.zeros((4, 4))
    gen[1, 0] = 1.0
    gen[3, 2] = -1.0
    eta = reconstruct.EtaForm(1, grid, np.repeat(
        gen[:, :, None], 9, axis=2)[None])
    sol = reconstruct.integrate_frame(eta, psh.identity(1))
    exact = np.array([psh.left_translation(heis.HPoint(1, [s], [0.0], 0.0)).mat
                      for s in svals])
    assert np.max(np.abs(sol.frames - exact)) < 1e-14


def test_integrator_fourth_order_on_rotating_curve():
    errs = []
    for N in (17, 33, 65, 129):
        svals = np.linspace(0, 1.5, N)
        grid = darboux.ChartGrid([(0.0, 1.5)], [N])
        eta = _curve_eta(svals, grid)
        sol = reconstruct.integrate_frame(eta, psh.PSHElement(
            1, _curve_frames([0.0])[0]))
        errs.append(np.max(np.abs(sol.frames - _curve_frames(svals))))
    slope = np.polyfit(np.log([1.5 / (N - 1) for N in (17, 33, 65, 129)]),
                       np.log(errs), 1)[0]
    assert 3.5 <= slope <= 4.5, (errs, slope)


def test_integrator_left_invariance(rng):
    _, grid, ff, an = analysis_for("builtin:sphere(2,1)", 5)
    eta = _eta_of(an)
    base = ff.psh_at((0, 0, 0))
    g = psh.random_element(2, rng)
    sol1 = reconstruct.integrate_frame(eta, base)
    sol2 = reconstruct.integrate_frame(eta, psh.compose(g, base))
    moved = np.einsum("rc,...cs->...rs", g.mat, sol1.frames)
    assert np.max(np.abs(moved - sol2.frames)) < 1e-10


def test_path_independence(rng):
    # endpoint frames from the two edge orders of a rectangle agree within a
    # multiple of the accumulated plaquette holonomy
    _, grid, ff, an = analysis_for("builtin:ellipsoid(2,1,1.3)", 5, "nu")
    eta = _eta_of(an)
    hol = reconstruct.holonomy_residual(eta)
    sol = reconstruct.integrate_frame(eta, ff.psh_at((0, 0, 0)),
                                      check_integrability=False)
    # re-integrate with the axis order reversed by permuting the grid data
    perm = (1, 0, 2)
    grid2 = darboux.ChartGrid([grid.chart[i] for i in perm],
                              [grid.counts[i] for i in perm])
    slots2 = np.stack([np.transpose(eta.slots[i], [0, 1] +
                                    [2 + p for p in perm]) for i in perm])
    eta2 = reconstruct.EtaForm(2, grid2, slots2)
    sol2 = reconstruct.integrate_frame(eta2, ff.psh_at((0, 0, 0)),
                                       check_integrability=False)
    end = tuple(c - 1 for c in grid.counts)
    end2 = tuple(end[i] for i in perm)
    gap = np.max(np.abs(sol.frames[end] - sol2.frames[end2]))
    budget = 10 * hol["max"] * grid.npoints
    assert gap <= max(budget, 1e-9), (gap, budget)


def test_slab_sweep_matches_pointwise_sweep():
    # reference: one Magnus step per substep and lattice point in
    # lexicographic order, the predecessor differing in the last nonzero axis
    _, grid, ff, an = analysis_for("builtin:ellipsoid(2,1,1.3)", [4, 5, 3], "nu")
    eta = _eta_of(an)
    sol = reconstruct.integrate_frame(eta, ff.psh_at((0, 0, 0)), substeps=2,
                                      stencil=6, check_integrability=False)
    nodes = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0
    ref = np.zeros_like(sol.frames)
    ref[0, 0, 0] = ff.psh_at((0, 0, 0)).mat
    for idx in np.ndindex(*grid.shape):
        if not any(idx):
            continue
        ax = max(i for i in range(3) if idx[i])
        prev = idx[:ax] + (idx[ax] - 1,) + idx[ax + 1:]
        line = np.moveaxis(eta.slots[ax], (0, 1), (-2, -1))[
            idx[:ax] + (slice(None),) + idx[ax + 1:]]
        hh = grid.spacing[ax] / 2
        F = ref[prev]
        for s0 in idx[ax] - 1 + np.array([0.0, 0.5]):
            A1, A2 = reconstruct._interpolate(line, s0 + nodes / 2, 6)
            F = F @ psh.exp(0.5 * hh * (A1 + A2)
                            + np.sqrt(3.0) * hh ** 2 / 12 * (A1 @ A2 - A2 @ A1))
        ref[idx] = F
    assert np.max(np.abs(sol.frames - ref)) < 1e-14


def test_congruence_identity_and_recovery(rng):
    _, grid, ff, _ = analysis_for("builtin:sphere(2,1)", 5)
    A = np.moveaxis(ff.matrix_values(), (0, 1), (-2, -1))
    f1 = reconstruct.FrameSolution(2, grid, A, (0, 0, 0), 0.0)
    g, resid = reconstruct.congruence(f1, f1)
    assert np.allclose(g.mat, np.eye(6)) and resid < 1e-14
    Phi = psh.random_element(2, rng)
    f2 = reconstruct.FrameSolution(
        2, grid, np.einsum("rc,...cs->...rs", Phi.mat, A), (0, 0, 0), 0.0)
    g, resid = reconstruct.congruence(f1, f2)
    assert np.max(np.abs(g.mat - Phi.mat)) < 1e-12 and resid < 1e-10


def test_congruence_negative_control():
    _, grid, ff1, _ = analysis_for("builtin:sphere(2,1)", 5)
    _, _, ff2, _ = analysis_for("builtin:ellipsoid(2,1,1.3)", 5, "nu")
    A1 = np.moveaxis(ff1.matrix_values(), (0, 1), (-2, -1))
    A2 = np.moveaxis(ff2.matrix_values(), (0, 1), (-2, -1))
    f1 = reconstruct.FrameSolution(2, grid, A1, (0, 0, 0), 0.0)
    f2 = reconstruct.FrameSolution(2, grid, A2, (0, 0, 0), 0.0)
    _, resid = reconstruct.congruence(f1, f2)
    assert resid > 1e-2


def test_assembled_form_matches_frame_derivative():
    for spec, policy in (("builtin:heis_sub(1,2)", "canonical"),
                         ("builtin:sphere(2,1)", "nu"),
                         ("builtin:holograph()", "canonical"),
                         ("builtin:ellipsoid(2,1,1.3)", "nu")):
        _, _, ff, an = analysis_for(spec, 5, policy)
        data = reconstruct.intrinsic_data_from_analysis(an)
        eta = reconstruct.assemble_eta(data)
        assert np.max(np.abs(eta.slots - an.mc.values)) < 1e-12, spec


def test_assemble_rejects_bad_shapes(sphere_nu):
    _, _, ff, an = sphere_nu
    data = reconstruct.intrinsic_data_from_analysis(an)
    data.gtensor = data.gtensor + np.array(1j)  # breaks symmetry? no: adds const
    data.gtensor[0, 0, 0] += 1.0  # fine, still symmetric for m=1
    # break skew-hermiticity of the normal connection instead
    data.normal_slots = data.normal_slots + 0.2
    with pytest.raises(DimensionMismatch):
        reconstruct.assemble_eta(data)


@pytest.mark.parametrize("field, gate", [("gtensor", "symmetric"),
                                         ("normal_slots", "skew-hermitian")])
def test_assemble_rejects_nan_intrinsic_data(field, gate):
    """A NaN fails the symmetry and skew-hermitian gates: the largest defect
    is then NaN, which no comparison with the tolerance passes."""
    _, _, _, an = analysis_for("builtin:ellipsoid(3,1,1,1.3)", 3)
    data = reconstruct.intrinsic_data_from_analysis(an)
    spoiled = getattr(data, field).copy()
    spoiled[0, 0, 0, 1, 2, 0, 1, 2] = np.nan
    setattr(data, field, spoiled)
    with pytest.raises(DimensionMismatch, match=f"{gate} .defect nan"):
        reconstruct.assemble_eta(data)


def test_corrupted_intrinsic_data_fails_integrability(sphere_nu):
    _, _, ff, an = sphere_nu
    data = reconstruct.intrinsic_data_from_analysis(an)
    data.gtensor = data.gtensor + 0.3
    eta = reconstruct.assemble_eta(data)
    with pytest.raises(IntegrabilityFailure):
        reconstruct.integrate_frame(eta, ff.psh_at((0, 0, 0)))


def test_embed_reproduces_surfaces():
    for spec, policy, tol in (("builtin:heis_sub(1,2)", "canonical", 1e-8),
                              ("builtin:sphere(2,1)", "nu", 1e-6),
                              ("builtin:holograph()", "canonical", 1e-3)):
        _, grid, ff, an = analysis_for(spec, 9, policy)
        data = reconstruct.intrinsic_data_from_analysis(an)
        sol = reconstruct.integrate_frame(reconstruct.assemble_eta(data),
                                          ff.psh_at((0, 0, 0)), substeps=2, stencil=6)
        pts = sol.points()
        X = np.stack([x.value + np.zeros(grid.shape) for x in ff.X], axis=-1)
        assert np.max(np.abs(pts - X)) < tol, spec


def test_projection_keeps_group_structure(rng):
    _, grid, ff, an = analysis_for("builtin:ellipsoid(2,1,1.3)", 5, "nu")
    eta = _eta_of(an)
    sol = reconstruct.integrate_frame(eta, ff.psh_at((0, 0, 0)),
                                      check_integrability=False)
    for idx in [(0, 0, 0), (2, 3, 1), (4, 4, 4)]:
        assert psh.psh_validate(sol.frames[idx], 1e-8).ok


@pytest.mark.parametrize("scale", [40.0, 1e9])
def test_projection_drift_guard(scale):
    # integrating a form that is not algebra-valued without the gate must
    # trip the group-residual alarm rather than return silently corrupted
    # frames; at 1e9 the steps overflow, which must fail the same way
    grid = darboux.ChartGrid([(-1, 1)] * 2 + [(-1, 1)], [5, 5, 3])
    rng = np.random.default_rng(0)
    slots = rng.normal(scale=scale, size=(3, 6, 6) + grid.shape)
    eta = reconstruct.EtaForm(2, grid, slots)
    with pytest.raises(ProjectionDrift):
        reconstruct.integrate_frame(eta, psh.identity(2),
                                    check_integrability=False)


def test_drift_is_the_group_residual_of_the_frames():
    # an algebra-valued form keeps the frames in the group up to rounding,
    # and drift is their worst group-membership residual
    _, _, ff, an = analysis_for("builtin:sphere(2,1)", 5)
    sol = reconstruct.integrate_frame(_eta_of(an), ff.psh_at((0, 0, 0)))
    assert sol.drift == psh.psh_validate(sol.frames).worst
    assert sol.drift < 1e-13
    # a form that is not algebra-valued but too small to overflow fails on
    # the residual itself
    grid = darboux.ChartGrid([(-1, 1)] * 3, [5, 5, 3])
    slots = np.random.default_rng(0).normal(scale=0.5, size=(3, 6, 6) + grid.shape)
    with pytest.raises(ProjectionDrift, match="group-membership residual"):
        reconstruct.integrate_frame(reconstruct.EtaForm(2, grid, slots),
                                    psh.identity(2), check_integrability=False)


@pytest.mark.parametrize("stencil", [4, 6])
def test_interpolator_reproduces_polynomials(stencil, rng):
    for N in range(2, 10):
        deg = min(stencil, N) - 1
        coef = rng.standard_normal((deg + 1, 2, 3))
        poly = lambda s: np.einsum("kab,mk->mab", coef,
                                   np.power.outer(s, np.arange(deg + 1)))
        # interior positions, nodes, and positions in the clamped end windows
        s = np.concatenate([np.linspace(0, N - 1, 4 * N - 3),
                            [0.1, 0.45, N - 1.45, N - 1.1]])
        got = reconstruct._interpolate(poly(np.arange(N, dtype=float)), s,
                                       stencil)
        assert got.shape == (len(s), 2, 3)
        want = poly(s)
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want)), \
            (N, stencil)


def test_roundtrip_property_all_builtins():
    # extract -> assemble -> integrate -> compare, including the torsionful
    # surface, at the 1e-5 field tolerance
    for spec, policy in (("builtin:ellipsoid(2,1,1.3)", "nu"),):
        _, grid, ff, an = analysis_for(spec, 9, policy)
        data = reconstruct.intrinsic_data_from_analysis(an)
        sol = reconstruct.integrate_frame(reconstruct.assemble_eta(data),
                                          ff.psh_at((0, 0, 0)), substeps=2, stencil=6)
        pts = sol.points()
        X = np.stack([x.value + np.zeros(grid.shape) for x in ff.X], axis=-1)
        assert np.max(np.abs(pts - X)) < 1e-5, spec


def test_embedded_sphere_is_round(rng):
    # existence loop closed by the sphere detector: integrate intrinsic
    # sphere data from a random base frame and verify the image is the
    # round sphere moved by the recovered congruence element
    _, grid, ff, an = analysis_for("builtin:sphere(2,1)", 7, "nu")
    data = reconstruct.intrinsic_data_from_analysis(an)
    eta = reconstruct.assemble_eta(data)
    g0 = psh.random_element(2, rng)
    base = psh.compose(g0, ff.psh_at((0, 0, 0)))
    sol = reconstruct.integrate_frame(eta, base, substeps=2, stencil=6)
    pts = sol.points().reshape(-1, 5)
    ginv = psh.inverse(g0)
    centred = np.array([psh.apply(ginv, heis.HPoint.from_coords(2, p)).coords
                        for p in pts[::7]])
    radii = np.linalg.norm(centred[:, :4], axis=1)
    assert np.max(np.abs(radii - 1.0)) < 1e-6
    assert np.max(np.abs(centred[:, 4])) < 1e-6


def _holonomy_with_inverses(eta, substeps):
    """Reference loop defects: forward propagators from psh.exp, closed with
    general matrix inverses."""
    g, d = eta.grid, eta.grid.ndim
    edges = {}
    for ax in range(d):
        h = g.spacing[ax]
        line = np.moveaxis(eta.slots[ax], (0, 1, 2 + ax), (-2, -1, 0))
        N = line.shape[0]
        pos = np.append(np.arange(N - 1)[:, None]
                        + np.arange(substeps) / substeps, N - 1)
        half = psh.exp(0.5 * (h / substeps)
                       * reconstruct._interpolate(line, pos))
        steps = (half[:-1] @ half[1:]).reshape((N - 1, substeps) + half.shape[1:])
        props = steps[:, 0]
        for j in range(1, substeps):
            props = props @ steps[:, j]
        edges[ax] = np.moveaxis(props, 0, ax)

    def cut(arr, axis, lo, hi):
        sl = [slice(None)] * d
        sl[axis] = slice(lo, hi)
        return arr[tuple(sl)]

    fields = {}
    for p in range(d):
        for q in range(p + 1, d):
            loop = (cut(edges[p], q, 0, -1) @ cut(edges[q], p, 1, None)
                    @ np.linalg.inv(cut(edges[p], q, 1, None))
                    @ np.linalg.inv(cut(edges[q], p, 0, -1)))
            fields[(p, q)] = np.sqrt(np.sum((loop - np.eye(loop.shape[-1])) ** 2,
                                            axis=(-2, -1)))
    return fields


@pytest.mark.parametrize("spec", ["builtin:sphere(2,1)", "builtin:holograph()",
                                  "builtin:ellipsoid(2,1,1.3)",
                                  "builtin:heis_sub(1,2)"])
def test_holonomy_matches_general_inverse_reference(spec):
    _, _, _, an = analysis_for(spec, 9, "auto")
    forms = (_eta_of(an), reconstruct.assemble_eta(
        reconstruct.intrinsic_data_from_analysis(an)))
    for eta in forms:
        for substeps in (1, 2):
            got = reconstruct.holonomy_residual(eta, substeps)
            want = _holonomy_with_inverses(eta, substeps)
            assert got["fields"].keys() == want.keys()
            for pq, field in want.items():
                assert np.max(np.abs(got["fields"][pq] - field)) < 1e-14


def test_holonomy_needs_no_general_inverse(monkeypatch):
    _, _, _, an = analysis_for("builtin:holograph()", 5)

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.inv called in holonomy")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    verdict = reconstruct.integrability_verdict(_eta_of(an))
    assert verdict["path"] == "subdivided"
    reconstruct.holonomy_residual(_eta_of(an), substeps=3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_form_fails_integrability(bad):
    grid = darboux.ChartGrid([(-1, 1)] * 3, 5)
    slots = np.zeros((3, 4, 4) + grid.shape)
    slots[1, 2, 0, 3, 1, 2] = bad
    eta = reconstruct.EtaForm(1, grid, slots)
    hol = reconstruct.holonomy_residual(eta)
    assert not np.isfinite(hol["max"]) and not np.isfinite(hol["max_per_area"])
    verdict = reconstruct.integrability_verdict(eta)
    assert verdict["pass"] is False
    assert "grid index (3, 1, 2)" in verdict["reason"]
    with pytest.raises(IntegrabilityFailure, match=r"\(3, 1, 2\)"):
        reconstruct.integrate_frame(eta, psh.identity(1))


def test_overflowing_form_fails_integrability():
    # finite slots whose edge exponentials overflow: the loop, not the form,
    # is where the holonomy stops being finite
    grid = darboux.ChartGrid([(-1, 1)] * 3, 5)
    slots = np.random.default_rng(0).normal(scale=1e9, size=(3, 4, 4) + grid.shape)
    verdict = reconstruct.integrability_verdict(reconstruct.EtaForm(1, grid, slots))
    assert verdict["pass"] is False
    assert "plaquette loop at grid index (0, 0, 0)" in verdict["reason"]


def test_verdict_reports_its_path():
    for spec, policy, path in (("builtin:sphere(2,1)", "nu", "fast"),
                               ("builtin:holograph()", "canonical", "subdivided")):
        _, _, _, an = analysis_for(spec, 7, policy)
        verdict = reconstruct.integrability_verdict(_eta_of(an))
        assert verdict["pass"] and verdict["path"] == path
        assert ("edge_refinement_order" in verdict) == (path == "subdivided")


def _slab_forms(spec, count):
    """The Maurer-Cartan form of ``spec`` and the form assembled from its
    intrinsic data, with the frame at the base corner."""
    _, grid, ff, an = analysis_for(spec, count, "auto")
    return (_eta_of(an), reconstruct.assemble_eta(
        reconstruct.intrinsic_data_from_analysis(an))), ff.psh_at((0,) * grid.ndim)


def _slab_outputs(eta, base):
    outputs = []
    for substeps in (1, 2):
        hol = reconstruct.holonomy_residual(eta, substeps)
        sol = reconstruct.integrate_frame(eta, base, substeps=substeps, stencil=6,
                                          check_integrability=False)
        outputs.append((hol["max"], hol["max_per_area"], hol["fields"], sol.frames,
                        sol.drift))
    return outputs


@pytest.mark.parametrize("spec, count", [
    ("builtin:sphere(2,1)", 9), ("builtin:holograph()", 9),
    ("builtin:ellipsoid(2,1,1.3)", 9), ("builtin:heis_sub(1,2)", 9),
    ("builtin:sphere(3,1)", 4), ("builtin:ellipsoid(3,1,1,1.3)", 4)])
def test_slabs_give_the_values_of_one_slab(spec, count, monkeypatch):
    """Holonomy defects and integrated frames are the same bits on slabs of
    one node layer, of two, and of the default budget (one slab here)."""
    forms, base = _slab_forms(spec, count)
    for eta in forms:
        want = _slab_outputs(eta, base)
        for budget in (1, 2 * eta.grid.npoints // count):
            monkeypatch.setattr(invariants, "BLOCK_POINTS", budget)
            got = _slab_outputs(eta, base)
            for (gmax, garea, gfields, gframes, gdrift), (wmax, warea, wfields, wframes,
                                                         wdrift) in zip(got, want):
                assert (gmax, garea, gdrift) == (wmax, warea, wdrift), budget
                assert gfields.keys() == wfields.keys()
                for pq in wfields:
                    assert np.array_equal(gfields[pq], wfields[pq], equal_nan=True)
                assert np.array_equal(gframes, wframes), budget
            monkeypatch.undo()


@pytest.mark.parametrize("value, axis, where, first", [
    (1e300, 0, (2, 1, 3), "plaquette loop at grid index (1, 0, 3)"),
    (1e300, 1, (3, 0, 4), "plaquette loop at grid index (2, 0, 4)"),
    (1e300, 2, (1, 4, 0), "plaquette loop at grid index (0, 4, 0)"),
    (np.nan, 0, (2, 1, 3), "one-form value at grid index (2, 1, 3)"),
    (np.nan, 2, (4, 0, 1), "one-form value at grid index (4, 0, 1)")])
def test_non_finite_loops_on_a_slab_cut_are_found_as_by_one_slab(value, axis, where,
                                                                  first, monkeypatch):
    """A NaN slot value, or one whose edge exponentials overflow, in a node
    layer that begins a slab: the verdict names the grid index that a single
    slab names, across the cut as within it."""
    grid = darboux.ChartGrid([(-1, 1)] * 3, 5)
    slots = np.zeros((3, 4, 4) + grid.shape)
    slots[(axis, 1, 0) + where] = value
    eta = reconstruct.EtaForm(1, grid, slots)
    verdicts = []
    for budget in (None, 25, 50):       # one slab, slabs of one layer, of two
        if budget:
            monkeypatch.setattr(invariants, "BLOCK_POINTS", budget)
        verdicts.append(reconstruct.integrability_verdict(eta))
    assert [v["reason"] for v in verdicts] == [
        f"plaquette holonomy is not finite: first non-finite {first}"] * 3
    assert not any(np.isfinite(v["holonomy"]) for v in verdicts)


def _traced_peak(call):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_slabs_bound_the_reconstruction_peak(monkeypatch):
    """With slabs of one node layer (a fifth of the 5^5 grid), neither the
    holonomy verdict nor the integration holds propagators over the grid:
    in units of one (D, D) matrix per grid point, the verdict peaks under 12
    and the integration under 7, where whole-grid stacks took 21 and 14."""
    (_, eta), base = _slab_forms("builtin:ellipsoid(3,1,1,1.3)", 5)
    unit = eta.grid.npoints * 8 * 8 * 8
    monkeypatch.setattr(invariants, "BLOCK_POINTS", 5 ** 4)
    verdict = _traced_peak(lambda: reconstruct.integrability_verdict(eta))
    integrate = _traced_peak(lambda: reconstruct.integrate_frame(
        eta, base, substeps=2, stencil=6, check_integrability=False))
    assert 0 < verdict < 12 * unit, verdict / unit
    assert 0 < integrate < 7 * unit, integrate / unit

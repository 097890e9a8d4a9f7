import math
import types

import numpy as np
import pytest

from cartanheis import darboux, dsl, heis, invariants, jets, psh
from cartanheis.jets import Jet
from cartanheis.errors import NotCRInvariant, SingularPoint
from conftest import analysis_for, coordinate_slice_plane


def test_contact_intersection_heis_sub():
    imm = dsl.builtin("heis_sub", 1, 2)
    basis = darboux.contact_intersection(imm, [0.2, -0.1, 0.3])
    assert basis.shape == (2, 5)
    # horizontal: the T-slot (Theta) vanishes
    assert np.all(np.abs(basis[:, 4]) < 1e-14)
    # spans the horizontal lifts of the z1-plane: components 2, 4 vanish
    assert np.all(np.abs(basis[:, [1, 3]]) < 1e-14)


def test_contact_intersection_sphere_j_invariant():
    imm = dsl.builtin("sphere", 2, 1.0)
    e, je = darboux.contact_intersection(imm, [0.7, 0.4, 0.5])
    assert abs(e[4]) < 1e-14
    assert np.allclose(heis.standard_j_block(2) @ e[:4], je[:4], atol=1e-12)
    assert abs(je[4]) < 1e-14


def test_slice_plane_failures():
    imm = coordinate_slice_plane()
    with pytest.raises(SingularPoint):
        darboux.contact_intersection(imm, [0.0, 0.0, 0.3])
    with pytest.raises(NotCRInvariant):
        darboux.contact_intersection(imm, [0.4, 0.3, 0.2])


def test_reeb_and_nu_heis_sub():
    imm = dsl.builtin("heis_sub", 2, 3)
    that, nu = darboux.reeb_and_nu(imm, [0.1, -0.2, 0.3, 0.0, 0.25])
    assert that.shape == nu.shape == (7,)
    assert np.allclose(nu, 0, atol=1e-14)
    assert np.allclose(that, np.eye(7)[6], atol=1e-14)


def test_reeb_and_nu_sphere_formula():
    r = 2.0
    imm = dsl.builtin("sphere", 2, r)
    u = [0.8, 0.3, 0.6]
    that, nu = darboux.reeb_and_nu(imm, u)
    p = np.array(imm.values(u), dtype=float)
    x, y = p[:2], p[2:4]
    expect = np.concatenate([-y, x, [0.0]]) / r ** 2
    assert np.allclose(nu, expect, atol=1e-13)
    assert np.isclose(np.linalg.norm(nu), 1 / r, atol=1e-13)
    assert np.isclose(that[4], 1.0, atol=1e-14)      # Theta(That) = 1


def test_heis_sub_frames_are_standard(heis_sub12):
    _, grid, ff, _ = heis_sub12
    idx = (3, 1, 5)
    assert psh.psh_validate(ff.psh_at(idx).mat, 1e-12).ok
    # tangent legs e1, Je1 are the first and third standard directions,
    # the normal pair is the second and fourth
    cols = jets.values(ff.frame_cols)[(...,) + idx].T
    assert np.allclose(np.abs(cols), np.eye(5), atol=1e-13)


@pytest.mark.parametrize("spec", ["sphere(2,1)", "ellipsoid(3,1,1,1.3)",
                                  "heis_sub(2,3)"])
def test_psh_at_is_the_matrix_field(spec):
    # the pointwise route (psh.frame_to_matrix at one index) and the lattice
    # route (the order-0 matrix jet) give the same moving frame
    imm = dsl.parse_surface_spec(f"builtin:{spec}")
    grid = darboux.ChartGrid(imm.chart, 3)
    ff = darboux.darboux_frame(imm, grid, policy="auto")
    A = ff.matrix_values()
    for idx in np.ndindex(grid.shape):
        gap = np.max(np.abs(ff.psh_at(idx).mat - A[(...,) + idx]))
        assert gap <= 1e-14, (idx, gap)


def test_frames_validate_everywhere(sphere_nu, ellipsoid_nu):
    for _, grid, ff, _ in (sphere_nu, ellipsoid_nu):
        frames = np.moveaxis(ff.matrix_values(), (0, 1), (-2, -1))
        assert frames.shape == grid.shape + (6, 6)
        assert psh.psh_validate(frames, 1e-10).ok


def test_nu_gauge_normal_leg(sphere_nu):
    _, _, ff, _ = sphere_nu
    idx = (2, 4, 1)
    nu = np.array([c.value[idx] for c in ff.nu_frame])
    e_n = np.array([c.value[idx] for c in ff.legs_n[0]])
    assert np.allclose(e_n, -nu / np.linalg.norm(nu), atol=1e-13)


def test_structure_residual_ad(sphere_nu, holograph, ellipsoid_nu):
    for _, _, ff, an in (sphere_nu, holograph, ellipsoid_nu):
        assert an.mc.structure_residual() < 1e-12
        diag = psh.algebra_validate(np.moveaxis(an.mc.values, (1, 2), (-2, -1)))
        assert max(diag.residuals.values()) < 1e-12


def test_structure_residual_fd_order():
    imm = dsl.builtin("sphere", 2, 1.0)
    res = []
    for N in (5, 9, 17):
        grid = darboux.ChartGrid(imm.chart, N)
        ff = darboux.darboux_frame(imm, grid, mode="fd")
        mc = darboux.darboux_derivative(ff)
        res.append(mc.structure_residual())
    orders = [np.log2(res[i] / res[i + 1]) for i in range(2)]
    assert min(orders) >= 1.7, (res, orders)


def test_pullback_identities(sphere_nu, ellipsoid_nu, heis_sub12):
    for _, _, ff, an in (sphere_nu, ellipsoid_nu, heis_sub12):
        res = an.restriction_residuals()
        assert res["max"] < 1e-12, res


def test_left_translation_leaves_omega(sphere_nu, rng):
    _, grid, ff, an = sphere_nu
    g = psh.random_element(2, rng)
    A = ff.matrix_values()                     # (D, D, *grid)
    moved = np.einsum("rc,cs...->rs...", g.mat, A)
    h = grid.spacing[0]

    def omega_fd(M):
        dM = (M[:, :, 2:] - M[:, :, :-2]) / (2 * h)
        Mi = np.moveaxis(M[:, :, 1:-1], (0, 1), (-2, -1))
        return np.linalg.inv(Mi) @ np.moveaxis(dM, (0, 1), (-2, -1))

    assert np.max(np.abs(omega_fd(A) - omega_fd(moved))) < 1e-9


def test_gauge_change_keeps_invariant_scalars():
    spec = "builtin:ellipsoid(2,1,1.3)"
    _, _, ff1, an1 = analysis_for(spec, 5, "canonical")
    _, _, ff2, an2 = analysis_for(spec, 5, "reverse")
    assert np.max(np.abs(ff1.nu_norm - ff2.nu_norm)) < 1e-12
    assert np.max(np.abs(an1.II_norm2 - an2.II_norm2)) < 1e-10
    assert np.max(np.abs(an1.torsion_norm2 - an2.torsion_norm2)) < 1e-10
    assert np.max(np.abs(an1.curvature["scalar"] - an2.curvature["scalar"])) < 1e-9
    # but the frames themselves differ (it is a different gauge)
    A1 = ff1.matrix_values()
    A2 = ff2.matrix_values()
    assert np.max(np.abs(A1 - A2)) > 1e-3


def test_continuity_of_frames(sphere_nu, ellipsoid_nu):
    # the largest column jump between grid neighbours (gauge continuity)
    for _, _, ff, _ in (sphere_nu, ellipsoid_nu):
        cols = jets.values(ff.frame_cols)
        jumps = [np.max(np.sqrt(np.sum(np.diff(cols, axis=ax) ** 2, axis=1)))
                 for ax in range(2, cols.ndim)]
        assert max(jumps) < 0.5


def test_identity_chart_frame_derivative():
    # identity chart of H_1 with standard frames: the derivative has constant
    # rotation-free slots whose only grid dependence sits in the contact slot
    imm = dsl.Immersion("plane11", 1, 1, ["u1", "u2", "u3"],
                        [(-0.5, 0.5)] * 3,
                        [dsl.param("u1"), dsl.param("u2"), dsl.param("u3")])
    grid = darboux.ChartGrid(imm.chart, [7, 5, 3])
    ff = darboux.darboux_frame(imm, grid)
    w = darboux.darboux_derivative(ff).values
    x, y = grid.points[0], grid.points[1]
    expect = np.zeros_like(w)
    expect[0, 1, 0] = 1.0            # w^1(d_x) = 1
    expect[0, 3, 0] = -y             # contact slot picks up -y along d_x
    expect[0, 3, 2] = -1.0
    expect[1, 2, 0] = 1.0            # w^2(d_y) = 1
    expect[1, 3, 0] = x
    expect[1, 3, 1] = 1.0
    expect[2, 3, 0] = 1.0            # theta(d_t) = 1
    assert np.max(np.abs(w - expect)) < 1e-13
    # on the axis line y = 0 the first slot is exactly the translation
    # generator: f(s) = frame at (s, 0, 0) has w^1 = ds and nothing else
    line = w[0][:, :, :, 2, 0]       # y = 0 slice (index 2 of 5), t = -0.5
    only = np.zeros((4, 4))
    only[1, 0] = 1.0
    only[3, 2] = -1.0
    assert np.allclose(line, only[:, :, None], atol=1e-14)


def test_nu_uniqueness_against_gauge(sphere_nu):
    # nu must not depend on the tangent gauge used to build it
    _, _, ff, _ = sphere_nu
    spec = "builtin:sphere(2,1)"
    _, _, ff2, _ = analysis_for(spec, 7, "reverse")
    nu1 = np.stack([c.value for c in ff.nu_frame])
    nu2 = np.stack([c.value for c in ff2.nu_frame])
    assert np.max(np.abs(nu1 - nu2)) < 1e-12


def test_constant_gauge_change_conjugates_omega():
    # rotating the normal pair by a constant phase multiplies the frame by a
    # constant group element on the right, so the derivative conjugates
    psi = 0.41
    spec = "builtin:ellipsoid(2,1,1.3)"
    imm, grid, ff0, an0 = analysis_for(spec, 5, "nu")
    ff1 = darboux.darboux_frame(imm, grid, policy="nu", normal_phases=(psi,))
    w0 = darboux.darboux_derivative(ff0).values
    w1 = darboux.darboux_derivative(ff1).values
    n = 2
    h = np.eye(2 * n + 2)
    c, s = np.cos(psi), np.sin(psi)
    # columns (e_n, Je_n) sit at positions n and 2n of the frame block
    h[n, n] = h[2 * n, 2 * n] = c
    h[n, 2 * n] = -s
    h[2 * n, n] = s
    conj = np.einsum("rc,ics...,st->irt...", np.linalg.inv(h), w0, h)
    assert np.max(np.abs(w1 - conj)) < 1e-12
    # phases past the last normal pair are ignored
    ff2 = darboux.darboux_frame(imm, grid, policy="nu", normal_phases=(psi, 0.7))
    assert np.array_equal(darboux.darboux_derivative(ff2).values, w1)


def _jets_in(obj, seen):
    """Every jet reachable through lists, tuples, dicts and object arrays."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, Jet):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            yield from _jets_in(x, seen)
    elif isinstance(obj, dict):
        for x in obj.values():
            yield from _jets_in(x, seen)
    elif isinstance(obj, np.ndarray) and obj.dtype == object:
        for x in obj.flat:
            yield from _jets_in(x, seen)


@pytest.mark.parametrize("spec, policy, counts", [
    ("builtin:sphere(2,1)", "nu", 3),
    ("builtin:heis_sub(1,2)", "canonical", 3),
    ("builtin:holograph()", "canonical", 3),
    ("builtin:ellipsoid(3,1,1,1.3)", "nu", 3),
    ("builtin:sphere(2,1)", "canonical", None),
])
def test_every_pipeline_jet_spans_the_grid(spec, policy, counts):
    # jets.values reads jet fields without broadcasting, which is right only
    # while every jet the pipeline builds carries the full batch shape
    imm = dsl.parse_surface_spec(spec)
    if counts is None:
        centre = [(lo + hi) / 2 for lo, hi in imm.chart]
        ff = darboux._point_field(imm, centre, policy=policy)
    else:
        ff = darboux.darboux_frame(imm, darboux.ChartGrid(imm.chart, counts),
                                   policy=policy)
    an = invariants.Analysis(ff)
    for name in ("frame_cols", "coframe", "duals"):
        getattr(ff, name)
    for name in ("zco1", "th1", "zhat1", "that1", "conn_slots", "_dz",
                 "tanaka_webster", "intrinsic_conn_slots"):
        getattr(an, name)
    seen = set()
    # the frame matrix is built on each call and not kept, so walk it here
    found = [j for obj in (ff, an.mc, an)
             for j in _jets_in(list(vars(obj).values()), seen)] + [ff.matrix()]
    # a tensor jet counts once per entry
    assert sum(math.prod(j.shape) for j in found) > 100
    bad = {j.batch_shape for j in found if j.batch_shape != ff.grid.shape}
    assert not bad, f"jets with batch shapes {bad} on a {ff.grid.shape} grid"


@pytest.mark.parametrize("spec, counts, gauge", [
    ("builtin:sphere(2,1)", 5, "nu"),
    ("builtin:ellipsoid(2,1,1.3)", 5, "nu"),
    ("builtin:ellipsoid(3,1,1,1.3)", 5, "nu"),
    ("builtin:holograph()", 5, "canonical"),
    ("builtin:heis_sub(1,2)", 5, "canonical"),
])
@pytest.mark.parametrize("mode", ["ad", "fd"])
def test_auto_gauge_resolves_inside_one_build(spec, counts, gauge, mode):
    imm = dsl.parse_surface_spec(spec)
    grid = darboux.ChartGrid(imm.chart, counts)
    ff = darboux.darboux_frame(imm, grid, policy="auto", mode=mode)
    assert ff.policy == gauge
    explicit = darboux.darboux_frame(imm, grid, policy=gauge, mode=mode)
    assert np.array_equal(ff.matrix_values(), explicit.matrix_values())


def test_unknown_gauge_is_rejected():
    imm = dsl.builtin("sphere", 2, 1.0)
    grid = darboux.ChartGrid(imm.chart, 3)
    with pytest.raises(ValueError) as info:
        darboux.darboux_frame(imm, grid, policy="nuu")
    for name in ("'nuu'", "auto", "canonical", "nu", "reverse"):
        assert name in str(info.value)


def _count_table_entries(monkeypatch):
    """Record (entries run, table size) of every jet product from now on."""
    visited = []
    product = jets._table_product

    def counting(ctx, op, a, sa, b, sb, out):
        visited.append((len(ctx.live_table(sa, sb)[0]), len(ctx.mul_table)))
        return product(ctx, op, a, sa, b, sb, out)

    monkeypatch.setattr(jets, "_table_product", counting)
    return visited


@pytest.mark.parametrize("moved", [False, True], ids=["plain", "moved"])
def test_structural_zeros_skip_table_entries(monkeypatch, moved):
    """heis_sub(1,2) is a flat subgroup, so its frame columns are constant:
    a product's support holds only the coefficients nonzero in its data, the
    columns carry the constant alone, and a frame build runs at most half
    the table, at first order (no plan) and at full order (planned)."""
    imm = dsl.builtin("heis_sub", 1, 2)
    if moved:
        imm = dsl.transform_immersion(imm, psh.random_element(2, np.random.default_rng(5)))
    grid = darboux.ChartGrid(imm.chart, 5)
    plan = darboux.plan_frame(imm, grid)
    visited = _count_table_entries(monkeypatch)
    for given, ncoeff in ((None, 4), (plan, 10)):
        visited.clear()
        cols = darboux.FrameField(imm, grid, plan=given).frame_cols
        live = [cols.ctx.monomials[k] for k in range(cols.ctx.ncoeff)
                if cols.support >> k & 1]
        assert cols.ctx.ncoeff == ncoeff and live == [(0, 0, 0)]
        assert all(alpha[2] == 0 for alpha in live)
        assert 2 * sum(v for v, _ in visited) <= sum(d for _, d in visited)


@pytest.mark.parametrize("name, args, first, full", [("heis_sub", (1, 2), 41, 63),
                                                     ("sphere", (2, 1.0), 156, 536)])
def test_frame_build_table_entries_stay_bounded(monkeypatch, name, args, first, full):
    """The table entries a 5^3 frame build runs, at most the count measured
    with data supports: ``first`` for the first-order build without a plan,
    ``full`` for the planned one (structural supports alone ran 285 and 639
    at full order)."""
    imm = dsl.builtin(name, *args)
    grid = darboux.ChartGrid(imm.chart, 5)
    plan = darboux.plan_frame(imm, grid)
    visited = _count_table_entries(monkeypatch)
    for given, bound in ((None, first), (plan, full)):
        visited.clear()
        darboux.FrameField(imm, grid, plan=given)
        assert 0 < sum(v for v, _ in visited) <= bound


def test_chart_solve_nilpotent_part_has_no_constant(monkeypatch):
    """The nilpotent part N = A - A(0) that darboux._solve iterates with has
    an exactly zero constant coefficient and bit 0 clear in its support, so
    a product N @ X with a jet X skips the (0, j) table entries; the 5^3
    frame is the one a full-support N gives.  The builds are planned: the
    first-order build of a frame without a plan solves for order-0 charts,
    where N has no term to iterate with."""
    imm = dsl.builtin("sphere", 2, 1.0)
    grid = darboux.ChartGrid(imm.chart, 5)
    plan = darboux.plan_frame(imm, grid)
    solve, matmul = darboux._solve, jets._matmul
    inside, factors = [False], []

    def tracked_solve(A, B):
        inside[0] = True
        try:
            return solve(A, B)
        finally:
            inside[0] = False

    def tracked_matmul(a, b):
        if inside[0] and isinstance(a, Jet):
            factors.append((a.support & 1, bool(np.any(a.c[0]))))
        return matmul(a, b)

    monkeypatch.setattr(darboux, "_solve", tracked_solve)
    monkeypatch.setattr(jets, "_matmul", tracked_matmul)
    ff = darboux.FrameField(imm, grid, plan=plan)
    builds = [(ff.frame_cols, ff.charts)]
    assert factors and all(f == (0, False) for f in factors)

    part = Jet.nilpotent_part
    monkeypatch.setattr(Jet, "nilpotent_part", lambda self: Jet(
        self.ctx, part(self).c, self.nt, self.support))
    factors.clear()
    ff = darboux.FrameField(imm, grid, plan=plan)
    builds.append((ff.frame_cols, ff.charts))
    assert factors and all(f == (1, False) for f in factors)
    for new, full in zip(*builds):
        assert np.array_equal(new.c, full.c)


@pytest.mark.parametrize("x2, y2, t, mode", [
    ("sqrt(1.05 - p - q)", "0", "r", "ad"),
    ("sqrt(0.12 - (p - 0.5)*q)", "0", "r", "fd"),
    ("0.5*(p^2 - q^2)", "p*q", "(r - 0.5)^3", "ad"),
    ("0.5*(p^2 - q^2)", "p*q + 0.01*(p - 0.2)^3", "r", "ad"),
    ("0.5*(p^2 - q^2)", "p*q + 0.01*(p - 0.2)^3", "r", "fd")])
def test_first_order_build_raises_the_errors_of_the_plan_pass(x2, y2, t, mode):
    """A frame without a plan builds one order below FRAME_ORDER, yet makes
    every check of the plan pass at construction, with its message and
    location; in FD mode it samples the whole FRAME_ORDER stencil."""
    from test_sweep import FAR_END
    imm = dsl.parse(FAR_END.format(x2=x2, y2=y2, t=t))
    grid = darboux.ChartGrid(imm.chart, 9)
    with pytest.raises(Exception) as planned:
        darboux.plan_frame(imm, grid, mode=mode)
    with pytest.raises(type(planned.value)) as built:
        darboux.darboux_frame(imm, grid, mode=mode)
    assert str(built.value) == str(planned.value)
    assert built.value.location == planned.value.location


def test_fd_build_without_a_plan_samples_the_full_stencil(monkeypatch):
    """An FD frame without a plan takes its jets at FRAME_ORDER - 1 and
    samples the whole FRAME_ORDER stencil, each offset once, in stencil
    order."""
    imm = dsl.builtin("sphere", 2, 1.0)
    grid = darboux.ChartGrid(imm.chart, 5)
    steps = [0.5 * s for s in grid.spacing]
    offsets = []
    values = imm.values

    def recorded(u_arrays):
        # each call stacks its offsets on a leading axis
        for j in range(len(u_arrays[0])):
            offsets.append(tuple(int(np.rint((u[j] - p) / h).flat[0])
                                 for u, p, h in zip(u_arrays, grid.points, steps)))
        return values(u_arrays)

    monkeypatch.setattr(imm, "values", recorded)
    ff = darboux.darboux_frame(imm, grid, mode="fd")
    assert offsets == dsl.fd_stencil(imm.nparams, darboux.FRAME_ORDER)
    assert ff.X.ctx.order == darboux.FRAME_ORDER - 2


@pytest.mark.parametrize("spec, count", [("sphere(2,1)", 5), ("ellipsoid(2,1,1.3)", 5),
                                         ("holograph()", 5), ("ellipsoid(3,1,1,1.3)", 3)])
def test_structure_residual_matches_the_batch_last_reference(spec, count):
    """The AD structure residual multiplies the slot tensor with batched
    matmuls; the reference forms the commutators of the full (D, D) slots
    with batch-last einsums, as the residual did before.  The two sum in
    different orders, so they agree to a tolerance fixed from the float
    epsilon and the size of the products."""
    imm = dsl.parse_surface_spec(f"builtin:{spec}")
    mc = darboux.darboux_derivative(darboux.darboux_frame(imm, darboux.ChartGrid(imm.chart,
                                                                                 count)))
    w, dw = mc.lifted.values, mc.d1
    ref = 0.0
    for p in range(mc.d):
        for q in range(p + 1, mc.d):
            comm = (np.einsum("rs...,sc...->rc...", w[p], w[q])
                    - np.einsum("rs...,sc...->rc...", w[q], w[p]))
            resid = dw[q][:, :, p] - dw[p][:, :, q] + comm[1:, :-1]
            ref = max(ref, float(np.max(np.abs(resid))))
    size = float(np.max(np.abs(w))) ** 2 * w.shape[1] + float(np.max(np.abs(dw)))
    assert abs(mc.structure_residual() - ref) <= 8 * np.finfo(float).eps * size
    assert 0 < ref < 1e-12


def _tangents_with_nan(where):
    """The chart tangents of sphere(2,1) at 5^3, with one NaN in the contact
    pairing theta(d_0) at grid index ``where``: past the finite check that
    ``_chart_tangents`` makes, as a gate's own input."""
    imm = dsl.builtin("sphere", 2, 1.0)
    grid = darboux.ChartGrid(imm.chart, 5)
    X = darboux._immersion_jets(imm, grid, 1, "ad")
    XiF = darboux._chart_tangents(X, X.truncated(0), grid)
    XiF.c[(0,) + where + (4, 0)] = np.nan
    return XiF, grid


def test_nan_contact_pairing_fails_the_contact_gate():
    XiF, grid = _tangents_with_nan((1, 2, 3))
    with pytest.raises(SingularPoint, match="contact form vanishes") as err:
        darboux._frame_legs(XiF, grid, 2, 1, "canonical", "ad")
    assert err.value.location == (1, 2, 3)


def test_nan_pivot_fails_the_pivot_gate(monkeypatch):
    """The pivot gate closes on NaN by itself: here the contact gate reads
    maxima that skip NaN, so only the pivot gate can see it."""
    XiF, grid = _tangents_with_nan((1, 2, 3))
    blind = types.SimpleNamespace(**vars(np))
    blind.max = np.nanmax
    monkeypatch.setattr(darboux, "np", blind)
    with pytest.raises(SingularPoint, match="no chart direction is uniformly transverse"):
        darboux._frame_legs(XiF, grid, 2, 1, "canonical", "ad")


def test_nan_seed_fails_the_cr_gate():
    """Seeds (v, Jv) span a J-invariant plane at every point but one, where
    an entry is NaN: the normal-equations check names that point."""
    grid = darboux.ChartGrid([(-1, 1)] * 3, 4)
    v = np.random.default_rng(5).normal(size=grid.shape + (5,))
    v[..., 4] = 0.0
    Jv = np.concatenate([-v[..., 2:4], v[..., 0:2], v[..., 4:]], axis=-1)
    seeds = np.stack([v, Jv], axis=-1)
    darboux._check_cr_invariance(seeds, 2, 1.0, darboux.TOL_CR, grid)
    seeds[2, 1, 3, 0, 1] = np.nan
    with pytest.raises(NotCRInvariant, match="residual nan") as err:
        darboux._check_cr_invariance(seeds, 2, 1.0, darboux.TOL_CR, grid)
    assert err.value.location == (2, 1, 3)

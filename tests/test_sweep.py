"""The sweep over point blocks: same reports, same errors, less memory."""

import contextlib
import inspect
import io
import json
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cartanheis import cli, darboux, dsl, invariants
from cartanheis.errors import DimensionMismatch

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
ONE_BLOCK = 10 ** 9


def run(argv, block_points, monkeypatch):
    """(exit code, stdout, stderr) of cli.main with the given block size."""
    monkeypatch.setattr(invariants, "BLOCK_POINTS", block_points)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def counting(monkeypatch, owner, name, planning=False):
    """Calls of owner.name from now on; with ``planning``, only those given no plan."""
    calls = []
    original = getattr(owner, name)
    signature = inspect.signature(original)

    def counted(*args, **kwargs):
        if not planning or signature.bind(*args, **kwargs).arguments.get("plan") is None:
            calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("spec, grid, blocks, policies", [
    ("sphere(2,1)", "5", 4, ("auto", "canonical", "reverse", "nu")),
    ("holograph()", "5", 4, ("auto", "canonical", "reverse")),
    ("heis_sub(1,2)", "5", 4, ("auto", "canonical", "reverse")),
    ("ellipsoid(2,1,1.3)", "5", 4, ("auto", "canonical", "reverse", "nu")),
    ("sphere(3,1)", "3", 2, ("auto", "canonical", "reverse", "nu")),
    ("heis_sub(2,3)", "3", 2, ("auto", "canonical", "reverse")),
])
def test_blocked_report_is_the_whole_grid_report(spec, grid, blocks, policies,
                                                 monkeypatch):
    points = int(grid) ** dsl.parse_surface_spec(f"builtin:{spec}").nparams
    for command in ("invariants", "check", "reconstruct", "roundtrip"):
        for policy in policies:
            argv = [command, "--surface", f"builtin:{spec}", "--grid", grid,
                    "--policy", policy, "--format", "structured"]
            # one block: one plan and one build of the whole grid per surface
            # swept (check and roundtrip also sweep a rigidly moved copy)
            whole_plans = counting(monkeypatch, invariants, "plan_frame")
            surfaces = counting(monkeypatch, darboux.FrameField, "_build")
            whole = run(argv, ONE_BLOCK, monkeypatch)
            monkeypatch.undo()
            assert len(whole_plans) == len(surfaces) > 0, (command, policy)
            plans = counting(monkeypatch, darboux, "_frame_legs", planning=True)
            builds = counting(monkeypatch, darboux.FrameField, "_build")
            blocked = run(argv, -(-points // blocks), monkeypatch)
            monkeypatch.undo()
            # one plan over the whole grid per surface, and no block plans
            # for itself
            assert (len(plans), len(builds)) == (len(surfaces), len(surfaces) * blocks), \
                (command, policy, surfaces, plans, builds)
            # invariants passes on all of these; the coarse grids fail some
            # reconstruction verdicts, which must fail the same way blocked
            assert whole[0] in ((0,) if command == "invariants" else (0, 1)), \
                (command, policy, whole[2])
            assert blocked == whole, (command, policy)


@pytest.mark.parametrize("spec, grid, block", [("ellipsoid(2,1,1.3)", "7", 100),
                                               ("sphere(3,1)", "3", 122)])
def test_blocked_fd_report_is_the_whole_grid_report(spec, grid, block, monkeypatch):
    # check reads the same kept slot values for its holonomy verdict
    for command in ("invariants", "check"):
        argv = [command, "--surface", f"builtin:{spec}", "--grid", grid,
                "--mode", "fd", "--format", "structured"]
        whole = run(argv, ONE_BLOCK, monkeypatch)
        assert whole[0] in ((0,) if command == "invariants" else (0, 1)), \
            (command, whole[2])
        assert run(argv, block, monkeypatch) == whole, command
        if grid == "7":
            # the structure residual differences across block boundaries
            assert json.loads(whole[1])["residuals"]["structure"]["value"] > 0


@pytest.mark.parametrize("spec, policy, mode, count", [
    ("ellipsoid(2,1,1.3)", "auto", "ad", 5), ("holograph()", "reverse", "ad", 5),
    ("sphere(3,1)", "canonical", "ad", 3),
    # in FD mode the structure residual of every sweep comes from Summary.close
    ("sphere(2,1)", "nu", "fd", 7)])
def test_sweep_is_the_folded_whole_grid_analysis(spec, policy, mode, count,
                                                 monkeypatch):
    imm = dsl.parse_surface_spec(f"builtin:{spec}")
    grid = darboux.ChartGrid(imm.chart, count)
    an = invariants.Analysis(darboux.darboux_frame(imm, grid, policy=policy, mode=mode))
    whole = invariants.Summary(an.ff.plan, grid).fold(an).close()
    for block in (ONE_BLOCK, 16):
        monkeypatch.setattr(invariants, "BLOCK_POINTS", block)
        swept = invariants.sweep(imm, grid, policy=policy, mode=mode)
        assert replace(swept.plan, condition=None) == whole.plan, block
        assert swept.residuals == whole.residuals, block
        for key in invariants.TABLES:
            assert np.array_equal(swept.table(key), whole.table(key)), (block, key)
    if mode == "fd":
        assert whole.residuals["structure"] > 0


@pytest.mark.parametrize("spec, policy, mode", [
    ("ellipsoid(3,1,1,1.3)", "auto", "ad"), ("holograph()", "reverse", "ad"),
    ("sphere(2,1)", "auto", "fd")])
def test_plan_pass_matches_the_plan_of_a_whole_grid_build(spec, policy, mode):
    imm = dsl.parse_surface_spec(f"builtin:{spec}")
    grid = darboux.ChartGrid(imm.chart, 3 if imm.m == 2 else 5)
    ff = darboux.darboux_frame(imm, grid, policy=policy, mode=mode)
    plan = darboux.plan_frame(imm, grid, policy=policy, mode=mode)
    # a frame's own plan leaves the coframe condition to the frame
    assert replace(plan, condition=None) == ff.plan
    assert plan.condition == invariants.Analysis(ff).coframe_condition()
    # the planned |nu| is the frame's |nu|, bit for bit
    assert (ff.plan.nu_min, ff.plan.nu_max, ff.plan.nu_mean) == (
        float(np.min(ff.nu_norm)), float(np.max(ff.nu_norm)),
        float(np.mean(ff.nu_norm)))


def test_fd_structure_residual_of_a_block_needs_the_whole_grid():
    """A block has no lattice axes to difference along, so the FD structure
    residual of a planned block frame is a DimensionMismatch naming
    Summary.close; an AD block and a whole-grid FD frame keep their values."""
    imm = dsl.builtin("sphere", 2, 1.0)
    grid = darboux.ChartGrid(imm.chart, 5)
    block = grid.blocks(2)[0]

    def residual(g, mode, plan=None):
        ff = darboux.FrameField(imm, g, mode=mode, plan=plan)
        return darboux.darboux_derivative(ff).structure_residual()

    with pytest.raises(DimensionMismatch, match="Summary.close"):
        residual(block, "fd", darboux.plan_frame(imm, grid, mode="fd"))
    # the block's points are points of the grid, with the same frames
    assert 0 <= residual(block, "ad", darboux.plan_frame(imm, grid)) \
        <= residual(grid, "ad") < 1e-12
    assert 0 < residual(grid, "fd") < 1e-3


def test_grid_blocks_are_views_with_global_indices():
    grid = darboux.ChartGrid([(0, 1), (0, 2), (0, 3)], [3, 4, 5])
    blocks = grid.blocks(7)
    assert [b.npoints for b in blocks] == [8, 9, 8, 9, 8, 9, 9]
    assert blocks[0].start == 0 and blocks[-1].stop == grid.npoints
    b = blocks[3]
    assert b.spacing is grid.spacing and b.shape == (9,)
    assert all(np.shares_memory(p, q) for p, q in zip(b.points, grid.points))
    assert tuple(int(i) for i in b.flat_index(2)) == (1, 1, 2)   # flat index 27
    assert [p[2] for p in b.points] == [grid.axes[0][1], grid.axes[1][1],
                                        grid.axes[2][2]]


FAR_END = """surface far_end {{
  n = 2; m = 1;
  params = [p, q, r];
  chart = [[0.2, 0.8], [-0.3, 0.3], [-0.5, 0.5]];
}}
x[1] = p; y[1] = q;
x[2] = {x2};
y[2] = {y2};
t = {t};
"""


@pytest.mark.parametrize("x2, y2, t, mode, error", [
    # sqrt goes negative only at the far corner of the chart
    ("sqrt(1.05 - p - q)", "0", "r", "ad", "DomainError"),
    # ... and only on the diagonal points of the finite-difference stencil
    ("sqrt(0.12 - (p - 0.5)*q)", "0", "r", "fd", "DomainError"),
    # the Jacobian drops rank on the far face
    ("0.5*(p^2 - q^2)", "p*q", "(r - 0.5)^3", "ad", "NotImmersed"),
    # TM ∩ ker Θ leaves J-invariance, worst at the far end
    ("0.5*(p^2 - q^2)", "p*q + 0.01*(p - 0.2)^3", "r", "ad", "NotCRInvariant"),
])
def test_blocks_give_the_errors_of_one_block(x2, y2, t, mode, error, tmp_path,
                                             monkeypatch):
    srf = tmp_path / "far_end.srf"
    srf.write_text(FAR_END.format(x2=x2, y2=y2, t=t))
    for command in ("invariants", "check"):
        argv = [command, "--surface", str(srf), "--grid", "9", "--mode", mode]
        whole = run(argv, ONE_BLOCK, monkeypatch)
        assert whole[0] == 2 and whole[2].startswith(f"input error: {error}"), \
            (command, whole[2])
        assert "grid index (" in whole[2]
        assert run(argv, 50, monkeypatch) == whole, command


def test_bad_inputs_give_the_errors_of_one_block(tmp_path, monkeypatch):
    slice_plane = tmp_path / "slice.srf"
    slice_plane.write_text(dsl.pretty_print(dsl.coordinate_slice_plane()))
    manifest = json.load(open(os.path.join(CORPUS, "manifest.json")))
    surfaces = [os.path.join(CORPUS, f"{name}.srf") for name in manifest["invalid"]]
    surfaces += ["builtin:ellipsoid(2,1,100)", str(slice_plane)]
    for surface in surfaces:
        argv = ["invariants", "--surface", surface, "--grid", "5"]
        whole = run(argv, ONE_BLOCK, monkeypatch)
        assert whole[0] == 2, (surface, whole[2])
        assert run(argv, 16, monkeypatch) == whole, surface


def _traced_peak(argv, block_points, monkeypatch):
    tracemalloc.start()
    try:
        code = run(argv, block_points, monkeypatch)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def test_blocked_invariants_peak_is_bounded_by_the_block(monkeypatch):
    # check also keeps order-0 arrays of the whole grid (slot values, frame
    # matrices), a small part of one block's jet fields
    for command in ("invariants", "check"):
        argv = [command, "--surface", "builtin:ellipsoid(3,1,1,1.3)", "--grid", "4",
                "--format", "structured"]
        whole = _traced_peak(argv, ONE_BLOCK, monkeypatch)
        blocked = _traced_peak(argv, 256, monkeypatch)
        assert blocked < 0.5 * whole, (command, blocked, whole)


def test_block_size_follows_the_frame_size(monkeypatch):
    """Blocks shrink where a point's frame outgrows that of (n, m) = (3, 2),
    at which BLOCK_POINTS was measured, and nowhere else: the block count of
    every n <= 3 with m <= 2 is ceil(npoints / BLOCK_POINTS)."""
    counts = []
    monkeypatch.setattr(darboux.ChartGrid, "blocks",
                        lambda grid, count: counts.append(count) or [])
    plan = darboux.plan_frame(dsl.builtin("heis_sub", 1, 2),
                              darboux.ChartGrid([(0, 1)] * 3, 3))
    monkeypatch.setattr(invariants, "plan_frame", lambda *a, **k: plan)

    def blocks(imm, count):
        invariants.sweep(imm, darboux.ChartGrid(imm.chart, count))
        return counts.pop()

    for n in (1, 2, 3):
        for m in range(1, min(n, 2) + 1):
            imm = dsl.builtin("heis_sub", m, n)
            count = 17 if m == 1 else 7
            points = count ** (2 * m + 1)
            assert blocks(imm, count) == -(-points // invariants.BLOCK_POINTS), (n, m)
    grown = [blocks(dsl.builtin("heis_sub", 1, n), 9) for n in (3, 8, 16, 32, 64)]
    assert grown == [1, 1, 2, 6, 23]


def test_blocked_report_of_a_large_n_is_its_one_block_report(monkeypatch):
    argv = ["invariants", "--surface", "builtin:heis_sub(1,32)", "--grid", "3",
            "--format", "structured"]
    whole = run(argv, ONE_BLOCK, monkeypatch)
    counts, split = [], darboux.ChartGrid.blocks
    monkeypatch.setattr(darboux.ChartGrid, "blocks",
                        lambda grid, count: counts.append(count) or split(grid, count))
    # 200 points per block at (3, 2) are 10 at n = 32: three blocks of 3^3
    blocked = run(argv, 200, monkeypatch)
    assert counts == [3] and whole[0] == 0
    assert blocked == whole

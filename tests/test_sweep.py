"""The invariants sweep over point blocks: same reports, same errors, less memory."""

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
    for policy in policies:
        argv = ["invariants", "--surface", f"builtin:{spec}", "--grid", grid,
                "--policy", policy, "--format", "structured"]
        whole = run(argv, ONE_BLOCK, monkeypatch)
        plans = counting(monkeypatch, darboux, "_frame_legs", planning=True)
        builds = counting(monkeypatch, darboux.FrameField, "_build")
        blocked = run(argv, -(-points // blocks), monkeypatch)
        monkeypatch.undo()
        # one plan over the whole grid, and no block plans for itself
        assert (len(plans), len(builds)) == (1, blocks), (policy, plans, builds)
        assert whole[0] == 0, (policy, whole[2])
        assert blocked == whole, policy


@pytest.mark.parametrize("spec, grid, block", [("ellipsoid(2,1,1.3)", "7", 100),
                                               ("sphere(3,1)", "3", 122)])
def test_blocked_fd_report_is_the_whole_grid_report(spec, grid, block, monkeypatch):
    argv = ["invariants", "--surface", f"builtin:{spec}", "--grid", grid,
            "--mode", "fd", "--format", "structured"]
    whole = run(argv, ONE_BLOCK, monkeypatch)
    assert whole[0] == 0, whole[2]
    assert run(argv, block, monkeypatch) == whole
    if grid == "7":
        # the structure residual differences across block boundaries
        assert json.loads(whole[1])["residuals"]["structure"]["value"] > 0


def _black_box_ellipsoid():
    ref = dsl.parse_surface_spec("builtin:ellipsoid(2,1,1.3)")
    return dsl.BlackBoxImmersion("bb_ellipsoid", 2, 1, ref.chart, ref.values)


@pytest.mark.parametrize("make, kw", [
    # a black box takes FD jets in AD mode too, with its default steps: the
    # plan pass and every block must take the same ones as a whole-grid build
    (_black_box_ellipsoid, {"policy": "auto"}),
], ids=["black_box"])
def test_blocked_sweep_is_the_whole_grid_sweep(make, kw, monkeypatch):
    imm = make()
    grid = darboux.ChartGrid(imm.chart, 5)
    sums = []
    for block in (ONE_BLOCK, 16):
        monkeypatch.setattr(invariants, "BLOCK_POINTS", block)
        sums.append(invariants.sweep(imm, grid, **kw))
    whole, blocked = sums
    assert replace(blocked.plan, condition=None) == whole.plan
    assert blocked.residuals == whole.residuals
    for key in invariants.TABLES:
        assert np.array_equal(blocked.table(key), whole.table(key)), key


@pytest.mark.parametrize("spec, policy, mode", [
    ("ellipsoid(3,1,1,1.3)", "auto", "ad"), ("holograph()", "reverse", "ad"),
    ("sphere(2,1)", "auto", "fd")])
def test_plan_pass_matches_the_plan_of_a_whole_grid_build(spec, policy, mode):
    imm = dsl.parse_surface_spec(f"builtin:{spec}")
    grid = darboux.ChartGrid(imm.chart, 3 if imm.m == 2 else 5)
    ff = darboux.darboux_frame(imm, grid, policy=policy, mode=mode)
    plan = darboux.plan_frame(imm, grid, policy=policy, mode=mode)
    # a frame's own plan leaves the coframe condition to its Analysis
    assert replace(plan, condition=None) == ff.plan
    assert plan.condition == invariants.Analysis(ff).coframe_condition()
    # the planned |nu| is the frame's |nu|, bit for bit
    assert (ff.plan.nu_min, ff.plan.nu_max, ff.plan.nu_mean) == (
        float(np.min(ff.nu_norm)), float(np.max(ff.nu_norm)),
        float(np.mean(ff.nu_norm)))


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
    argv = ["invariants", "--surface", str(srf), "--grid", "9", "--mode", mode]
    whole = run(argv, ONE_BLOCK, monkeypatch)
    assert whole[0] == 2 and whole[2].startswith(f"input error: {error}"), whole[2]
    assert "grid index (" in whole[2]
    assert run(argv, 50, monkeypatch) == whole


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
    argv = ["invariants", "--surface", "builtin:ellipsoid(3,1,1,1.3)", "--grid", "4",
            "--format", "structured"]
    whole = _traced_peak(argv, ONE_BLOCK, monkeypatch)
    blocked = _traced_peak(argv, 256, monkeypatch)
    assert blocked < 0.5 * whole, (blocked, whole)

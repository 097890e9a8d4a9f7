"""The sweep over point blocks: same reports, same errors, less memory."""

import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cartanheis import cli, darboux, dsl, invariants, jets
from cartanheis.errors import DimensionMismatch

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
ONE_BLOCK = 10 ** 9


def threads(monkeypatch, workers):
    """Sweeps from now on run on ``workers`` threads wherever they have two
    blocks, however few jet numbers a block holds."""
    monkeypatch.setattr(invariants, "_workers", lambda: workers)
    monkeypatch.setattr(invariants, "THREAD_NUMBERS", 0)


def run(argv, block_points, monkeypatch, workers=1):
    """(exit code, stdout, stderr) of cli.main with the given block size, on
    ``workers`` threads."""
    monkeypatch.setattr(invariants, "BLOCK_POINTS", block_points)
    threads(monkeypatch, workers)
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
    budget = -(-points // blocks)
    # two threads run blocks of a third of the budget, so thrice the budget
    # gives them the blocks of one thread
    cases = ((1, budget), (2, 3 * budget))
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
            # invariants passes on all of these; the coarse grids fail some
            # reconstruction verdicts, which must fail the same way blocked
            assert whole[0] in ((0,) if command == "invariants" else (0, 1)), \
                (command, policy, whole[2])
            for workers, block_points in cases:
                plans = counting(monkeypatch, darboux, "_frame_legs", planning=True)
                builds = counting(monkeypatch, darboux.FrameField, "_build")
                blocked = run(argv, block_points, monkeypatch, workers)
                monkeypatch.undo()
                # one plan over the whole grid per surface, and no block plans
                # for itself
                assert (len(plans), len(builds)) \
                    == (len(surfaces), len(surfaces) * blocks), \
                    (workers, command, policy, surfaces, plans, builds)
                assert blocked == whole, (workers, command, policy)


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
        # two threads on thrice the budget run the blocks of one thread
        for workers, block_points in ((1, block), (2, 3 * block)):
            assert run(argv, block_points, monkeypatch, workers) == whole, \
                (workers, command)
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
    for block, workers in ((ONE_BLOCK, 1), (16, 1), (16, 2)):
        monkeypatch.setattr(invariants, "BLOCK_POINTS", block)
        threads(monkeypatch, workers)
        swept = invariants.sweep(imm, grid, policy=policy, mode=mode)
        assert replace(swept.plan, condition=None) == whole.plan, (block, workers)
        assert swept.residuals == whole.residuals, (block, workers)
        for key in invariants.TABLES:
            assert np.array_equal(swept.table(key), whole.table(key)), \
                (block, workers, key)
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
        for workers, block_points in ((1, 50), (2, 150)):
            assert run(argv, block_points, monkeypatch, workers) == whole, \
                (workers, command)


@pytest.mark.parametrize("grid, where", [("9", "(7, 0, 0)"), ("17", "(14, 0, 0)")])
def test_threads_raise_the_error_of_the_first_failing_block(grid, where, tmp_path,
                                                           monkeypatch):
    """The plan pass reads first-order jets, which stay finite here; the third-
    order jets of t overflow from the plane p = 0.725 on, in the last blocks
    of the C order only.  Each of those blocks raises, the lowest first."""
    srf = tmp_path / "late.srf"
    srf.write_text(FAR_END.format(x2="0.5*(p^2 - q^2)", y2="p*q",
                                  t="r + sin(exp(320*p))*exp(-320*p)"))
    for command in ("invariants", "check", "roundtrip"):
        argv = [command, "--surface", str(srf), "--grid", grid]
        # one thread on the blocks of 50 points that two threads run below
        one = run(argv, 50, monkeypatch, 1)
        if command != "roundtrip":
            assert one == (2, "", "input error: DomainError: immersion or its "
                           f"derivatives not finite at grid index {where}\n")
        else:   # the intrinsic data of an earlier block fail first
            assert one[0] == 1 and "DimensionMismatch" in one[2]
        assert run(argv, 150, monkeypatch, 2) == one, command


def test_no_block_starts_after_a_block_fails_or_an_interrupt(monkeypatch):
    imm = dsl.builtin("sphere", 2, 1.0)
    grid = darboux.ChartGrid(imm.chart, 9)
    monkeypatch.setattr(invariants, "BLOCK_POINTS", 81)      # 27 blocks of 27
    threads(monkeypatch, 2)
    build = invariants.darboux_frame

    def frames(fault=None):
        """Block frames that record their block's index; with ``fault``,
        block 1 raises it, and block 0 waits until it has."""
        started, raised = [], threading.Event()

        def frame(imm, block, **kwargs):
            started.append(block.start // 27)
            if fault is not None and block.start == 27:
                raised.set()
                raise fault
            if fault is not None and block.start == 0:
                raised.wait(10)
            return build(imm, block, **kwargs)

        monkeypatch.setattr(invariants, "darboux_frame", frame)
        return started

    for fault in (DimensionMismatch("block 1"), KeyboardInterrupt()):
        started = frames(fault)
        with pytest.raises(type(fault)):
            invariants.sweep(imm, grid)
        assert sorted(started) == [0, 1], (fault, started)
    # an interrupt of the merging thread: no block starts after it
    started = frames()
    merged = []

    def merge(self, res, visited=None):
        merged.append(res)
        if len(merged) == 3:
            raise KeyboardInterrupt
        return self

    monkeypatch.setattr(invariants.Summary, "merge", merge)
    with pytest.raises(KeyboardInterrupt):
        invariants.sweep(imm, grid)
    count = len(started)
    assert count < 27, started
    time.sleep(0.05)
    assert len(started) == count


def test_many_threads_switching_often_give_the_sequential_summary(monkeypatch):
    """More threads than CPUs, a switch interval of a microsecond and jet
    tables built from empty caches: the fields, kept slot values and maxima
    of the blocks, ``visit``'s included, are those of one thread."""
    imm = dsl.builtin("ellipsoid", 2, 1.0, 1.3)
    grid = darboux.ChartGrid(imm.chart, 7)

    def swept():
        corner = {}

        def visit(block, an):
            if block.start == 0:
                corner["frame"] = an.ff.matrix_values()[..., 0]
            return {"link": an.h_torsion_link_residual(), "start": -block.start}

        s = invariants.sweep(imm, grid, policy="nu", keep_slots=True, visit=visit)
        return s, corner["frame"]

    one, corner = swept()
    monkeypatch.setattr(invariants, "BLOCK_POINTS", 90)
    threads(monkeypatch, 2 * (os.cpu_count() or 1) + 1)
    jets.context.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many, many_corner = swept()
    finally:
        sys.setswitchinterval(interval)
    assert (one.residuals, one.visited) == (many.residuals, many.visited)
    assert many.visited["start"] == 0
    assert np.array_equal(one.slots, many.slots) and np.array_equal(corner, many_corner)
    for key in invariants.FIELDS:
        assert np.array_equal(one.fields[key], many.fields[key]), key


def test_bad_inputs_give_the_errors_of_one_block(tmp_path, monkeypatch):
    slice_plane = tmp_path / "slice.srf"
    slice_plane.write_text(dsl.pretty_print(dsl.coordinate_slice_plane()))
    with open(os.path.join(CORPUS, "manifest.json")) as f:
        manifest = json.load(f)
    surfaces = [os.path.join(CORPUS, f"{name}.srf") for name in manifest["invalid"]]
    surfaces += ["builtin:ellipsoid(2,1,100)", str(slice_plane)]
    for surface in surfaces:
        argv = ["invariants", "--surface", surface, "--grid", "5"]
        whole = run(argv, ONE_BLOCK, monkeypatch)
        assert whole[0] == 2, (surface, whole[2])
        for workers, block_points in ((1, 16), (2, 48)):
            assert run(argv, block_points, monkeypatch, workers) == whole, \
                (surface, workers)


def _traced_peak(argv, block_points, monkeypatch, workers=1):
    tracemalloc.start()
    try:
        code = run(argv, block_points, monkeypatch, workers)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def test_blocked_invariants_peak_is_bounded_by_the_block(monkeypatch):
    # check also keeps order-0 arrays of the whole grid (slot values, frame
    # matrices), a small part of one block's jet fields; two threads share
    # the budget, each holding a block of a third of it
    for command in ("invariants", "check"):
        argv = [command, "--surface", "builtin:ellipsoid(3,1,1,1.3)", "--grid", "4",
                "--format", "structured"]
        whole = _traced_peak(argv, ONE_BLOCK, monkeypatch)
        for workers in (1, 2):
            blocked = _traced_peak(argv, 256, monkeypatch, workers)
            assert blocked < 0.5 * whole, (command, workers, blocked, whole)


def test_block_size_follows_the_frame_size(monkeypatch):
    """Blocks shrink where a point's frame outgrows that of (n, m) = (3, 2),
    at which BLOCK_POINTS was measured, and nowhere else: on one thread the
    block count of every n <= 3 with m <= 2 is ceil(npoints / BLOCK_POINTS).
    Two threads share the budget only where the shared blocks are large, and
    never where the frame outgrows that of (3, 2)."""
    found = []
    monkeypatch.setattr(darboux.ChartGrid, "blocks",
                        lambda grid, count: found.append(count) or [])
    plan = darboux.plan_frame(dsl.builtin("heis_sub", 1, 2),
                              darboux.ChartGrid([(0, 1)] * 3, 3))
    monkeypatch.setattr(invariants, "plan_frame", lambda *a, **k: plan)

    def blocks(imm, count):
        invariants.sweep(imm, darboux.ChartGrid(imm.chart, count))
        return found.pop()

    # block counts at 17^3 (m = 1) and 7^5 (m = 2) by (n, m) on two threads,
    # which share the budget where a shared block holds THREAD_NUMBERS jet
    # numbers: at (2, 2), (3, 1) and (3, 2)
    shared = {(1, 1): 3, (2, 1): 3, (2, 2): 22, (3, 1): 7, (3, 2): 22}
    for workers in (1, 2):
        monkeypatch.setattr(invariants, "_workers", lambda: workers)
        for n in (1, 2, 3):
            for m in range(1, min(n, 2) + 1):
                imm = dsl.builtin("heis_sub", m, n)
                count = 17 if m == 1 else 7
                points = count ** (2 * m + 1)
                assert blocks(imm, count) == (
                    -(-points // invariants.BLOCK_POINTS) if workers == 1
                    else shared[n, m]), (workers, n, m)
        grown = [blocks(dsl.builtin("heis_sub", 1, n), 9) for n in (3, 8, 16, 32, 64)]
        assert grown == [1, 1, 2, 6, 23], workers


def test_threads_follow_the_affinity_set():
    """One CPU in the affinity set gives one thread: a sweep then runs the
    blocks of the sequential rule."""
    code = ("import os\n"
            "from cartanheis import invariants\n"
            "print(invariants._workers() == len(os.sched_getaffinity(0)))\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "print(invariants._workers(), invariants._schedule(7 ** 5, 3, 2))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out == "True\n1 (7, 1)\n"


def test_blocked_report_of_a_large_n_is_its_one_block_report(monkeypatch):
    argv = ["invariants", "--surface", "builtin:heis_sub(1,32)", "--grid", "3",
            "--format", "structured"]
    whole = run(argv, ONE_BLOCK, monkeypatch)
    counts, split = [], darboux.ChartGrid.blocks
    monkeypatch.setattr(darboux.ChartGrid, "blocks",
                        lambda grid, count: counts.append(count) or split(grid, count))
    # 200 points per block at (3, 2) are 10 at n = 32: three blocks of 3^3,
    # on one thread however many there are
    for workers in (1, 2):
        blocked = run(argv, 200, monkeypatch, workers)
        assert counts.pop() == 3 and not counts and whole[0] == 0
        assert blocked == whole, workers

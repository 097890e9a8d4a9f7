"""The sweep over point blocks: same reports, same errors, less memory."""

import contextlib
import inspect
import io
import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cartanheis import cli, darboux, dsl, invariants, jets, reconstruct
from cartanheis.errors import DimensionMismatch
from conftest import coordinate_slice_plane

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
ONE_BLOCK = 10 ** 9
# state that the sweep's forked workers share with this process: made before
# the sweep, it survives the workers
FORK = multiprocessing.get_context("fork")


def processes(monkeypatch, workers):
    """Sweeps from now on run on ``workers`` forked processes wherever they
    have two blocks, however few jet numbers a block holds.  The pool is
    closed, so that the next pooled sweep forks workers that carry what has
    been patched by now."""
    monkeypatch.setattr(invariants, "_workers", lambda: workers)
    monkeypatch.setattr(invariants, "PROCESS_NUMBERS", 0)
    invariants._close_pool()


def main(argv):
    """(exit code, stdout, stderr) of cli.main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run(argv, block_points, monkeypatch, workers=1):
    """(exit code, stdout, stderr) of cli.main with the given block size, on
    ``workers`` processes."""
    monkeypatch.setattr(invariants, "BLOCK_POINTS", block_points)
    processes(monkeypatch, workers)
    return main(argv)


def worker_pids():
    """The pids of this process's sweep workers (its multiprocessing children)."""
    return sorted(p.pid for p in multiprocessing.active_children())


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def counting(monkeypatch, owner, name, planning=False):
    """Calls of owner.name from now on, here and in the sweep's workers (a
    shared counter: ``.value``); with ``planning``, only those given no plan."""
    calls = FORK.Value("i", 0)
    original = getattr(owner, name)
    signature = inspect.signature(original)

    def counted(*args, **kwargs):
        if not planning or signature.bind(*args, **kwargs).arguments.get("plan") is None:
            with calls.get_lock():
                calls.value += 1
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
    # two workers round the block count up to an even one, so on these even
    # counts they run the blocks of one process
    cases = ((1, budget), (2, budget))
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
            assert whole_plans.value == surfaces.value > 0, (command, policy)
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
                assert (plans.value, builds.value) \
                    == (surfaces.value, surfaces.value * blocks), \
                    (workers, command, policy, surfaces.value, plans.value,
                     builds.value)
                assert blocked == whole, (workers, command, policy)


@pytest.mark.parametrize("spec, grid, block", [("ellipsoid(2,1,1.3)", "7", 100),
                                               ("sphere(3,1)", "3", 122)])
def test_blocked_fd_report_is_the_whole_grid_report(spec, grid, block, monkeypatch):
    # check reads the same gathered slot values for its holonomy verdict
    for command in ("invariants", "check"):
        argv = [command, "--surface", f"builtin:{spec}", "--grid", grid,
                "--mode", "fd", "--format", "structured"]
        whole = run(argv, ONE_BLOCK, monkeypatch)
        assert whole[0] in ((0,) if command == "invariants" else (0, 1)), \
            (command, whole[2])
        # two workers run the blocks of one process (an even count)
        for workers, block_points in ((1, block), (2, block)):
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
        processes(monkeypatch, workers)
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
        # 15 blocks on one process, 16 on two
        for workers in (1, 2):
            assert run(argv, 50, monkeypatch, workers) == whole, (workers, command)


@pytest.mark.parametrize("grid, where", [("9", "(7, 0, 0)"), ("17", "(14, 0, 0)")])
def test_workers_raise_the_error_of_the_first_failing_block(grid, where, tmp_path,
                                                           monkeypatch):
    """The plan pass reads first-order jets, which stay finite here; the third-
    order jets of t overflow from the plane p = 0.725 on, in the last blocks
    of the C order only.  Each of those blocks raises in a worker, and this
    process runs the lowest of them again, which raises.  The intrinsic data
    of earlier blocks fail the gates of the assembled form, but roundtrip
    judges those after the sweep, so it raises the same error."""
    srf = tmp_path / "late.srf"
    srf.write_text(FAR_END.format(x2="0.5*(p^2 - q^2)", y2="p*q",
                                  t="r + sin(exp(320*p))*exp(-320*p)"))
    # block sizes that give an even block count (16 and 90), which two
    # workers keep, so that both run the same blocks
    block = {"9": 46, "17": 55}[grid]
    for command in ("invariants", "check", "roundtrip"):
        argv = [command, "--surface", str(srf), "--grid", grid]
        one = run(argv, block, monkeypatch, 1)
        assert one == (2, "", "input error: DomainError: immersion or its "
                       f"derivatives not finite at grid index {where}\n")
        assert run(argv, block, monkeypatch, 2) == one, command


def test_the_assembly_gates_judge_the_whole_grid(tmp_path, monkeypatch):
    """The gates of the form assembled from intrinsic data run once, on the
    maxima of every block: the late-overflow surface's roundtrip raises the
    DomainError of its one-block run on any blocks, and the FD ellipsoid's
    symmetry defect is the whole grid's on one worker and on two."""
    srf = tmp_path / "late.srf"
    srf.write_text(FAR_END.format(x2="0.5*(p^2 - q^2)", y2="p*q",
                                  t="r + sin(exp(320*p))*exp(-320*p)"))
    argv = ["roundtrip", "--surface", str(srf), "--grid", "9"]
    whole = run(argv, ONE_BLOCK, monkeypatch)
    assert whole == (2, "", "input error: DomainError: immersion or its "
                     "derivatives not finite at grid index (7, 0, 0)\n")
    for workers in (1, 2):
        assert run(argv, 50, monkeypatch, workers) == whole, workers
    for command in ("reconstruct", "roundtrip"):
        argv = [command, "--surface", "builtin:ellipsoid(3,1,1,1.3)", "--grid", "4",
                "--mode", "fd"]
        whole = run(argv, ONE_BLOCK, monkeypatch)
        assert whole[0] == 1 and "gtensor must be symmetric" in whole[2], whole
        for workers in (1, 2):
            assert run(argv, 512, monkeypatch, workers) == whole, (command, workers)


def test_no_block_starts_after_a_block_fails_or_an_interrupt(monkeypatch):
    imm = dsl.builtin("sphere", 2, 1.0)
    grid = darboux.ChartGrid(imm.chart, 9)
    monkeypatch.setattr(invariants, "BLOCK_POINTS", 27)    # 28 blocks on two workers
    processes(monkeypatch, 2)
    starts = [block.start for block in grid.blocks(28)]
    build = invariants.darboux_frame

    def frames(fault=None):
        """Block frames that record their block's index, here and in the
        workers; with ``fault``, block 1 raises it, and block 0 waits until
        it has.  Returns the recorded indices, as a call."""
        started, count, raised = FORK.Array("i", 64), FORK.Value("i", 0), FORK.Event()

        def frame(imm, block, **kwargs):
            with count.get_lock():
                started[count.value] = starts.index(block.start)
                count.value += 1
            if fault is not None and block.start == starts[1]:
                raised.set()
                raise fault
            if fault is not None and block.start == 0:
                raised.wait(10)
            return build(imm, block, **kwargs)

        monkeypatch.setattr(invariants, "darboux_frame", frame)
        processes(monkeypatch, 2)
        return lambda: started[:count.value]

    for fault in (DimensionMismatch("block 1"), KeyboardInterrupt()):
        started = frames(fault)
        with pytest.raises(type(fault)):
            invariants.sweep(imm, grid)
        # block 1 raised in a worker, and again here, where it was run again
        assert sorted(started()) == [0, 1, 1], (fault, started())
    # an interrupt of the merging process: no block starts after it
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
    count = len(started())
    assert count < 28, started()
    time.sleep(0.05)
    assert len(started()) == count


def test_pooled_runs_in_one_process_share_the_workers(monkeypatch):
    """The pool outlives a sweep, not its process: a second pooled cli.main
    run uses the workers of the first and gives its report, and another
    worker count makes a new pool, whose workers replace the old ones."""
    argv = ["check", "--surface", "builtin:sphere(2,1)", "--grid", "9",
            "--format", "structured"]
    first = run(argv, 100, monkeypatch, 2)
    pids = worker_pids()
    assert first[0] == 0 and len(pids) == 2
    assert main(argv) == first
    assert worker_pids() == pids
    monkeypatch.setattr(invariants, "_workers", lambda: 3)
    assert main(argv) == first
    assert len(worker_pids()) == 3 and not set(worker_pids()) & set(pids)
    assert not any(alive(pid) for pid in pids)


# cli.main in a fresh interpreter on two workers, which prints the workers'
# pids and then exits by the ending given
ENDINGS = """
import contextlib, io, multiprocessing, os, signal, sys, time
from cartanheis import cli, invariants
invariants.BLOCK_POINTS, invariants.PROCESS_NUMBERS = 100, 0
invariants._workers = lambda: 2
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["invariants", "--surface", "builtin:sphere(2,1)", "--grid", "9"])
print(*sorted(p.pid for p in multiprocessing.active_children()), flush=True)
if sys.argv[1] == "input error":
    code = cli.main(["invariants", "--surface", "builtin:sphere(2,-1)", "--grid", "9"])
elif sys.argv[1] == "interrupt":
    os.killpg(0, signal.SIGINT)     # its workers, in its process group, ignore it
    time.sleep(60)
sys.exit(code)
"""


@pytest.mark.parametrize("ending, code", [("normal", 0), ("input error", 2),
                                          ("interrupt", -signal.SIGINT)])
def test_no_worker_outlives_its_process(ending, code):
    """The pool is joined when its process exits: normally, with an input
    error's exit code, and by an interrupt that its workers ignore."""
    child = subprocess.run([sys.executable, "-c", ENDINGS, ending],
                           env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
                           text=True, start_new_session=True, timeout=120)
    assert child.returncode == code, child.stderr
    pids = [int(pid) for pid in child.stdout.split()]
    assert len(pids) == 2 and not any(alive(pid) for pid in pids), pids


def _pooled_sweep_pids(queue):
    """In a forked child: a pooled sweep, and the pids of its workers."""
    imm = dsl.builtin("sphere", 2, 1.0)
    invariants.sweep(imm, darboux.ChartGrid(imm.chart, 9))
    queue.put(worker_pids())


def test_a_forked_child_forks_its_own_pool(monkeypatch):
    """A (non-daemonic) child forked from the owner of a pool sweeps on a
    pool of its own, which it joins before it exits; the owner's pool stays."""
    imm = dsl.builtin("sphere", 2, 1.0)
    grid = darboux.ChartGrid(imm.chart, 9)
    monkeypatch.setattr(invariants, "BLOCK_POINTS", 100)
    processes(monkeypatch, 2)
    here = invariants.sweep(imm, grid)
    pids = worker_pids()
    queue = FORK.SimpleQueue()
    child = FORK.Process(target=_pooled_sweep_pids, args=(queue,))
    child.start()
    theirs = queue.get()
    child.join(60)
    if child.exitcode is None:
        child.kill()
    assert child.exitcode == 0
    assert len(theirs) == 2 and not set(theirs) & set(pids)
    assert not any(alive(pid) for pid in theirs)
    assert invariants.sweep(imm, grid).residuals == here.residuals
    assert worker_pids() == pids


@pytest.mark.parametrize("setting", ["warnings", "numpy"])
def test_settings_made_after_the_fork_reach_the_workers(setting, monkeypatch):
    """The workers are forked while the caller ignores warnings (or numpy's
    floating-point errors); the caller then turns them into errors.  A later
    pooled sweep on the same workers raises as one process does: the same
    exception, message and location."""
    imm = dsl.builtin("sphere", 2, 1.0)
    grid = darboux.ChartGrid(imm.chart, 9)
    monkeypatch.setattr(invariants, "BLOCK_POINTS", 100)   # 8 blocks
    build = invariants.darboux_frame

    def frame(imm, block, **kwargs):
        if block.start >= 300:
            if setting == "warnings":
                warnings.warn(f"block at {block.start}", UserWarning)
            else:
                np.log(np.zeros(1))
        return build(imm, block, **kwargs)

    monkeypatch.setattr(invariants, "darboux_frame", frame)

    @contextlib.contextmanager
    def acting(action):
        with warnings.catch_warnings(), np.errstate():
            if setting == "warnings":
                warnings.simplefilter(action)
            else:
                np.seterr(all=action)
            yield

    def outcome():
        strict = "error" if setting == "warnings" else "raise"
        with acting(strict), pytest.raises(Exception) as info:
            invariants.sweep(imm, grid)
        return (info.type, str(info.value), info.traceback[-1].path,
                info.traceback[-1].lineno)

    processes(monkeypatch, 1)
    one = outcome()
    assert one[:2] == ((UserWarning, "block at 364") if setting == "warnings"
                       else (FloatingPointError, "divide by zero encountered in log"))
    processes(monkeypatch, 2)
    with acting("ignore"):
        invariants.sweep(imm, grid)        # forks the workers
    pids = worker_pids()
    assert outcome() == one
    assert worker_pids() == pids


def test_the_blocks_of_a_killed_worker_run_here(monkeypatch):
    """A worker killed in its block breaks the pool: this process runs that
    block itself, and every later one that the pool had not returned, and
    the summary is that of one process.  The broken pool is joined, and the
    next pooled sweep forks a new one, with the same summary."""
    imm = dsl.builtin("sphere", 2, 1.0)
    grid = darboux.ChartGrid(imm.chart, 9)
    monkeypatch.setattr(invariants, "BLOCK_POINTS", 100)   # 8 blocks
    one = invariants.sweep(imm, grid)
    processes(monkeypatch, 2)
    parent, here = os.getpid(), FORK.Array("i", 8)
    starts = [block.start for block in grid.blocks(8)]
    build = invariants.darboux_frame

    def frame(imm, block, **kwargs):
        if os.getpid() != parent and block.start == starts[3]:
            os.kill(os.getpid(), signal.SIGKILL)
        if os.getpid() == parent:
            here[starts.index(block.start)] = 1
        return build(imm, block, **kwargs)

    monkeypatch.setattr(invariants, "darboux_frame", frame)
    killed = invariants.sweep(imm, grid)
    assert here[3] == 1, here[:]
    assert multiprocessing.active_children() == []
    # the next pooled sweep forks a new pool
    monkeypatch.setattr(invariants, "darboux_frame", build)
    again = invariants.sweep(imm, grid)
    assert len(worker_pids()) == 2
    for swept in (killed, again):
        assert swept.residuals == one.residuals
        for key in invariants.FIELDS:
            assert np.array_equal(swept.fields[key], one.fields[key]), key


def _corner_and_link(block, an):
    """A sweep's ``visit``: the frames and the Maurer-Cartan slot values of
    the block's points, the frame at the grid's first point, and two
    maxima."""
    frames, slots = an.ff.matrix_values(), an.mc.values
    values = {"link": an.h_torsion_link_residual(), "start": -block.start}
    if block.start == 0:
        values["corner"] = frames[..., 0]
    return {"frames": frames, "slots": slots.reshape(slots.shape[:3] + (-1,))}, values


def test_many_processes_give_the_sequential_summary(monkeypatch):
    """More processes than CPUs and jet tables built from empty caches: the
    gathered arrays (fields, frames and slot values) and the maxima of the
    blocks, ``visit``'s included, are those of one process."""
    imm = dsl.builtin("ellipsoid", 2, 1.0, 1.3)
    grid = darboux.ChartGrid(imm.chart, 7)

    def swept():
        s = invariants.sweep(imm, grid, policy="nu", visit=_corner_and_link)
        return s, s.visited.pop("corner")

    one, corner = swept()
    monkeypatch.setattr(invariants, "BLOCK_POINTS", 90)
    processes(monkeypatch, 2 * len(os.sched_getaffinity(0)) + 1)
    jets.context.cache_clear()
    many, many_corner = swept()
    assert (one.residuals, one.visited) == (many.residuals, many.visited)
    assert many.visited["start"] == 0
    assert np.array_equal(corner, many_corner)
    assert np.array_equal(corner, one.fields["frames"][..., 0]) and np.any(corner != 0)
    assert list(one.fields) == list(many.fields) == [*invariants.FIELDS, "frames", "slots"]
    for key in one.fields:
        assert np.array_equal(one.fields[key], many.fields[key]), key


@pytest.mark.parametrize("action", ["always", "default"])
def test_a_block_that_warns_gives_the_warnings_of_one_process(action, monkeypatch):
    """Blocks that warn in a worker run again here, in their turn: the
    warnings, with their texts, categories and locations, are those of the
    sequential sweep, also where the ``default`` action shows a repeated
    warning once."""
    imm = dsl.builtin("sphere", 2, 1.0)
    grid = darboux.ChartGrid(imm.chart, 9)
    monkeypatch.setattr(invariants, "BLOCK_POINTS", 100)   # 8 blocks
    build = invariants.darboux_frame

    def frame(imm, block, **kwargs):
        if block.start >= 200 and block.start % 2:
            text = f"block at {block.start}" if action == "always" else "odd block"
            warnings.warn(text, UserWarning)
        return build(imm, block, **kwargs)

    monkeypatch.setattr(invariants, "darboux_frame", frame)

    def swept(workers):
        processes(monkeypatch, workers)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            s = invariants.sweep(imm, grid)
        return s, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]

    one, warned = swept(1)
    two, warned_two = swept(2)
    assert len(warned) == (3 if action == "always" else 1)
    assert warned_two == warned
    assert one.residuals == two.residuals
    for key in invariants.FIELDS:
        assert np.array_equal(one.fields[key], two.fields[key]), key


def _daemonic_sweep():
    """In a daemonic process: the worker count and the summary of a sweep."""
    imm = dsl.builtin("sphere", 2, 1.0)
    s = invariants.sweep(imm, darboux.ChartGrid(imm.chart, 9))
    return invariants._workers(), s.residuals, {k: np.array(v) for k, v in s.fields.items()}


def test_a_daemonic_process_sweeps_in_process(monkeypatch):
    """A daemonic process, such as a multiprocessing pool's worker, may not
    start children: its sweeps run their blocks one after another there,
    where a process with the same affinity set would start workers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(invariants, "PROCESS_NUMBERS", 0)
    monkeypatch.setattr(invariants, "BLOCK_POINTS", 100)
    assert invariants._workers() == 2
    imm = dsl.builtin("sphere", 2, 1.0)
    here = invariants.sweep(imm, darboux.ChartGrid(imm.chart, 9))
    with FORK.Pool(1) as pool:
        workers, residuals, fields = pool.apply(_daemonic_sweep)
    assert workers == 1 and residuals == here.residuals
    for key in invariants.FIELDS:
        assert np.array_equal(fields[key], here.fields[key]), key


def test_no_affinity_call_gives_one_process(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")
    assert invariants._workers() == 1
    assert invariants._schedule(7 ** 5, 3, 2) == (7, 1)


def test_nan_intrinsic_data_fail_the_gate_after_the_merge(monkeypatch):
    """A NaN in one block's second fundamental form candidate sticks in the
    merged symmetry defect, which fails the gate of the assembled form after
    the sweep: the block runs once, in a worker, and raises nothing there."""
    parent = os.getpid()
    calls = FORK.Array("i", 2)      # [in workers, here] of the bad block
    intrinsic = reconstruct.intrinsic_data_from_analysis

    def spoiled(an):
        data = intrinsic(an)
        if an.ff.grid.start == 62:
            data.gtensor[0, 0, 0, 3] = np.nan
            calls[os.getpid() == parent] += 1
        return data

    monkeypatch.setattr(reconstruct, "intrinsic_data_from_analysis", spoiled)
    argv = ["roundtrip", "--surface", "builtin:ellipsoid(2,1,1.3)", "--grid", "5"]
    code, out, err = run(argv, 32, monkeypatch, 2)     # blocks from 0, 31, 62, 93
    assert (code, out) == (1, "")
    assert err == ("error: DimensionMismatch: gtensor must be symmetric "
                   "(defect nan)\n"), err
    assert list(calls) == [1, 0]


def test_an_immersion_too_deep_to_pickle_sweeps_here(tmp_path, monkeypatch):
    """A 3000-term sum is a chain of 3000 nodes, deeper than pickle recurses:
    its pooled sweeps run their blocks in this process, with the report of
    one block."""
    terms = " + ".join(f"{k}e-9*u1*u2" for k in range(1, 3001))
    srf = tmp_path / "long_sum.srf"
    srf.write_text("surface long_sum {\n  n = 2; m = 1;\n  params = [u1, u2, u3];\n"
                   "  chart = [[-0.5, 0.5], [-0.5, 0.5], [-0.5, 0.5]];\n}\n"
                   "x[1] = u1;  x[2] = 0.0;\ny[1] = u2;  y[2] = 0.0;\n"
                   f"t = u3 + {terms};\n")
    with pytest.raises(RecursionError):
        pickle.dumps(dsl.parse_surface_spec(str(srf)))
    for command in ("invariants", "check"):
        argv = [command, "--surface", str(srf), "--grid", "5", "--format", "structured"]
        whole = run(argv, ONE_BLOCK, monkeypatch)
        assert whole[0] in (0, 1), whole[2]
        assert run(argv, 32, monkeypatch, 2) == whole, command
    assert worker_pids() == []


def test_bad_inputs_give_the_errors_of_one_block(tmp_path, monkeypatch):
    slice_plane = tmp_path / "slice.srf"
    slice_plane.write_text(dsl.pretty_print(coordinate_slice_plane()))
    with open(os.path.join(CORPUS, "manifest.json")) as f:
        manifest = json.load(f)
    surfaces = [os.path.join(CORPUS, f"{name}.srf") for name in manifest["invalid"]]
    surfaces += ["builtin:ellipsoid(2,1,100)", str(slice_plane)]
    for surface in surfaces:
        argv = ["invariants", "--surface", surface, "--grid", "5"]
        whole = run(argv, ONE_BLOCK, monkeypatch)
        assert whole[0] == 2, (surface, whole[2])
        for workers in (1, 2):
            assert run(argv, 16, monkeypatch, workers) == whole, (surface, workers)


def _traced_peak(argv, block_points, monkeypatch):
    tracemalloc.start()
    try:
        code = run(argv, block_points, monkeypatch)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


# cli.main in a fresh interpreter with a block size and a worker count; it
# joins its sweep workers and prints the peak RSS in KiB of the largest
PEAK = """
import resource, sys
from cartanheis import cli, invariants
invariants.BLOCK_POINTS, workers = int(sys.argv[1]), int(sys.argv[2])
invariants._workers, invariants.PROCESS_NUMBERS = lambda: workers, 0
code = cli.main(sys.argv[3:])
invariants._close_pool()
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)
sys.exit(code)
"""


def _rss_peaks(argv, block_points, workers):
    """Peak RSS in KiB of a fresh process running ``argv`` (wait4, as CI
    measures it) and of its largest child."""
    child = subprocess.Popen([sys.executable, "-c", PEAK, str(block_points),
                              str(workers), *argv],
                             env=dict(os.environ, PYTHONPATH=SRC),
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    err = child.stderr.read()
    _, status, usage = os.wait4(child.pid, 0)
    child.stderr.close()
    # reaped by wait4 above; the Popen object must not wait again
    child.returncode = os.waitstatus_to_exitcode(status)
    assert child.returncode == 0, err
    return usage.ru_maxrss, int(err.split()[-1])


def test_blocked_invariants_peak_is_bounded_by_the_block(monkeypatch):
    # check also keeps order-0 arrays of the whole grid (slot values, frame
    # matrices), a small part of one block's jet fields.  tracemalloc sees
    # this process alone, so the peak of each of two workers is the peak
    # RSS of the largest child of a fresh process, against the peak RSS of
    # a fresh process that builds the whole grid; that one runs on 5^5,
    # where the 31 MB of an importing process are a smaller share
    for command in ("invariants", "check"):
        argv = [command, "--surface", "builtin:ellipsoid(3,1,1,1.3)", "--grid", "4",
                "--format", "structured"]
        whole = _traced_peak(argv, ONE_BLOCK, monkeypatch)
        blocked = _traced_peak(argv, 256, monkeypatch)
        assert blocked < 0.5 * whole, (command, blocked, whole)
        argv[4] = "5"
        whole, _ = _rss_peaks(argv, ONE_BLOCK, 1)
        _, worker = _rss_peaks(argv, 256, 2)
        assert 0 < worker < 0.5 * whole, (command, worker, whole)


def test_block_size_follows_the_frame_size(monkeypatch):
    """Blocks shrink where a point's frame outgrows that of (n, m) = (3, 2),
    at which BLOCK_POINTS was measured, and nowhere else: in one process the
    block count of every n <= 3 with m <= 2 is ceil(npoints / BLOCK_POINTS).
    Two workers round the count up to an even one where the blocks hold
    PROCESS_NUMBERS jet numbers, and never where the frame outgrows that of
    (3, 2)."""
    found = []
    monkeypatch.setattr(darboux.ChartGrid, "blocks",
                        lambda grid, count: found.append(count) or [])
    plan = darboux.plan_frame(dsl.builtin("heis_sub", 1, 2),
                              darboux.ChartGrid([(0, 1)] * 3, 3))
    monkeypatch.setattr(invariants, "plan_frame", lambda *a, **k: plan)

    def blocks(imm, count):
        invariants.sweep(imm, darboux.ChartGrid(imm.chart, count))
        return found.pop()

    # block counts at 17^3 (m = 1) and 7^5 (m = 2) by (n, m) on two workers,
    # which run where a block holds PROCESS_NUMBERS jet numbers: at (2, 1),
    # (2, 2), (3, 1) and (3, 2)
    pooled = {(1, 1): 3, (2, 1): 4, (2, 2): 8, (3, 1): 4, (3, 2): 8}
    for workers in (1, 2):
        monkeypatch.setattr(invariants, "_workers", lambda: workers)
        for n in (1, 2, 3):
            for m in range(1, min(n, 2) + 1):
                imm = dsl.builtin("heis_sub", m, n)
                count = 17 if m == 1 else 7
                points = count ** (2 * m + 1)
                assert blocks(imm, count) == (
                    -(-points // invariants.BLOCK_POINTS) if workers == 1
                    else pooled[n, m]), (workers, n, m)
        # at 9^3 two workers split n = 3 into two blocks of 364 points
        # (1.07e6 jet numbers); the larger frames shrink the blocks instead
        grown = [blocks(dsl.builtin("heis_sub", 1, n), 9) for n in (3, 8, 16, 32, 64)]
        assert grown == [workers, 1, 2, 6, 23], workers
    # the desk17 benchmark's m = 1 sweeps at 17^3 run on two workers
    monkeypatch.setattr(invariants, "_workers", lambda: 2)
    assert invariants._schedule(17 ** 3, 2, 1) == (4, 2)
    assert invariants._schedule(7 ** 5, 3, 2) == (8, 2)


def test_workers_follow_the_affinity_set():
    """One CPU in the affinity set gives one process: a sweep then runs the
    blocks of the sequential rule."""
    code = ("import os\n"
            "from cartanheis import invariants\n"
            "print(invariants._workers() == len(os.sched_getaffinity(0)))\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "print(invariants._workers(), invariants._schedule(7 ** 5, 3, 2))\n")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=SRC),
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
    # in one process however many workers there are
    for workers in (1, 2):
        blocked = run(argv, 200, monkeypatch, workers)
        assert counts.pop() == 3 and not counts and whole[0] == 0
        assert blocked == whole, workers

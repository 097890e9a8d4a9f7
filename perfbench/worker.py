"""One benchmark process: run a workload's passes in-process and time them.

Usage (normally started by run.py, with src/ on PYTHONPATH):

    python3 perfbench/worker.py --workload desk17 --seed 1 --seconds 25 --trace 0
    python3 perfbench/worker.py --workload desk17 --setup-only

A pass is the workload's fixed list of operations, run one after another by
a single client (a closed loop).  Before the timed passes the process runs a
warm-up round, left out of the timings: the workload's first `warmup`
operations, at full size, which touch every command and grow the heap to its
working size.  (A whole untimed pass would not fit the benchmark's time
budget.)  Every operation's output is checked after its timer stops.  The
last line of stdout is one JSON object for run.py.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
               "CARTAN_HEIS_THREADS")
# pinned before numpy is first imported: cli._cap_threads only uses setdefault
# inside main(), which is too late once numpy is loaded in this process
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

# Why each workload exists, and which layers it stresses:
# - desk17: check + roundtrip at 17^3, m = 1.  reconstruct (holonomy and
#   integration) dominates; half of the eight holonomy verdicts take the fast
#   path (sphere, heis_sub) and half subdivide (holograph, ellipsoid).
# - jets5d: invariants at 7^5, m = 2.  Jet arithmetic over 16 807-point
#   batches (frame, Maurer-Cartan form, Tanaka-Webster); no reconstruct code.
# - motions: seeded rigid motions at 5^3 through the Python API.  The same
#   jet, frame and invariant code as jets5d, on 125-point batches, where
#   per-call overhead dominates instead of memory traffic.
WORKLOADS = {
    "desk17": {"specs": ["sphere(2,1)", "holograph()", "ellipsoid(2,1,1.3)",
                         "heis_sub(1,2)"],
               "commands": ["check", "roundtrip"], "grid": 17, "warmup": 2},
    "jets5d": {"specs": ["ellipsoid(3,1,1,1.3)", "sphere(3,1)"],
               "commands": ["invariants"], "grid": 7, "warmup": 1},
    # one sphere motion per three flat ones: the two kinds differ about 2x in
    # cost, so p50 falls inside the flat cluster and p90 inside the sphere one
    "motions": {"specs": ["sphere(2,1)", "heis_sub(1,2)"], "grid": 5,
                "motions": 100, "sphere_every": 4, "warmup": 8},
}
SPHERES = {"sphere(2,1)": (1, 1.0), "sphere(3,1)": (2, 1.0)}   # spec -> (m, r)
FLAT = "heis_sub(1,2)"
NU_TOL, R_REL_TOL, FIT_TOL, FLAT_TOL = 1e-8, 1e-6, 1e-6, 1e-7


class Op:
    """One operation of a pass: a timed call and the check of its output."""

    def __init__(self, label, kind, points, call, check):
        self.label, self.kind, self.points = label, kind, points
        self.call, self.check = call, check


# -- desk17 and jets5d: cli.main in-process --------------------------------

def _sphere_checks(spec, rpt, problems):
    m, r = SPHERES[spec]
    nu, R = rpt["nu"], rpt["webster"]["R"]
    nu_err = max(abs(nu["min"] - 1 / r), abs(nu["max"] - 1 / r))
    want = m * (m + 1) / r ** 2
    r_err = max(abs(R["min"] - want), abs(R["max"] - want)) / want
    if not nu_err <= NU_TOL:
        problems.append(f"|nu| misses 1/r by {nu_err:.2e}")
    if not r_err <= R_REL_TOL:
        problems.append(f"R misses m(m+1)/r^2 by {r_err:.2e} (relative)")
    return {"nu_err": nu_err, "R_rel_err": r_err}


def _check_cli(command, spec, rc, out, err):
    if rc != 0:
        return [f"exit code {rc}: {err.strip()[-300:]}"], {}, []
    rpt = json.loads(out)
    problems = [f"verdict {k} is {v}" for k, v in sorted(rpt["verdicts"].items())
                if v is not True]
    values = {}
    for name, entry in sorted(rpt["residuals"].items()):
        if entry is None:
            continue
        values[name] = entry["value"]
        if not entry["value"] <= entry["threshold"]:
            problems.append(f"residual {name} {entry['value']:.2e} > "
                            f"{entry['threshold']:.0e}")
    if spec in SPHERES:
        values.update(_sphere_checks(spec, rpt, problems))
        if command == "roundtrip":
            fit = rpt["fits"]["sphere"]
            if fit is None:
                problems.append("no sphere fit")
            else:
                values["center_err"] = max(abs(c) for c in fit["center"])
                values["radius_err"] = abs(fit["radius"] - SPHERES[spec][1])
                if not max(values["center_err"], values["radius_err"]) <= FIT_TOL:
                    problems.append("sphere fit misses centre or radius")
    if spec == FLAT and command == "check":
        fit = rpt["fits"]["flat"]
        if fit is None:
            problems.append("no flat fit")
        else:
            values["image_residual"] = fit["image_residual"]
            if not fit["image_residual"] < FLAT_TOL:
                problems.append(f"flat image residual {fit['image_residual']:.2e}")
    return problems, values, rpt["diagnostics"]


def _cli_call(argv):
    from cartanheis import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def cli_ops(spec, seed):
    rng = random.Random(seed)
    grid = spec["grid"]
    ops = []
    for surface in spec["specs"]:
        for command in spec["commands"]:
            argv = [command, "--surface", f"builtin:{surface}", "--grid", str(grid),
                    "--policy", "auto", "--format", "structured",
                    "--seed", str(rng.randrange(2 ** 31))]
            npts = grid ** (3 if command != "invariants" else 5)
            ops.append(Op(f"{command} {surface}", command, npts,
                          lambda a=argv: _cli_call(a),
                          lambda res, c=command, s=surface: _check_cli(c, s, *res)))
    return ops


# -- motions: the Python API -----------------------------------------------

def motion_ops(spec, seed):
    import numpy as np
    from cartanheis import darboux, dsl, heis, invariants, psh, rigidity
    grid = spec["grid"]
    rng = np.random.default_rng(seed)
    sphere = dsl.parse_surface_spec(f"builtin:{spec['specs'][0]}")
    flat = dsl.parse_surface_spec(f"builtin:{spec['specs'][1]}")

    def call(imm, phi, policy, detect):
        moved = dsl.transform_immersion(imm, phi)
        ff = darboux.darboux_frame(moved, darboux.ChartGrid(moved.chart, grid),
                                   policy=policy)
        return ff, detect(invariants.Analysis(ff))

    def check_sphere(res, phi):
        ff, fit = res
        target = psh.apply(phi, heis.origin(2)).coords
        values = {"center_err": float(np.max(np.abs(fit.center.coords - target))),
                  "radius_err": abs(fit.radius - 1.0),
                  "nu_err": float(np.max(np.abs(ff.nu_norm - 1.0)))}
        bad = not (max(values["center_err"], values["radius_err"]) <= FIT_TOL
                   and values["nu_err"] <= NU_TOL)
        return (["sphere fit misses"] if bad else []), values, []

    def check_flat(res):
        fit = res[1]
        bad = not fit.image_residual < FLAT_TOL
        return ((["flat image residual too large"] if bad else []),
                {"image_residual": fit.image_residual}, [])

    ops = []
    for i in range(spec["motions"]):
        phi = psh.random_element(2, rng)
        if i % spec["sphere_every"] == 0:
            ops.append(Op(f"motion {spec['specs'][0]}", "motion", grid ** 3,
                          lambda p=phi: call(sphere, p, "nu", rigidity.detect_sphere),
                          lambda res, p=phi: check_sphere(res, p)))
        else:
            ops.append(Op(f"motion {spec['specs'][1]}", "motion", grid ** 3,
                          lambda p=phi: call(flat, p, "canonical",
                                             rigidity.detect_flat),
                          check_flat))
    return ops


def make_ops(workload, seed):
    spec = WORKLOADS[workload]
    return motion_ops(spec, seed) if "motions" in spec else cli_ops(spec, seed)


# -- host speed probe ------------------------------------------------------

class HostProbe:
    """A fixed calibration kernel, timed between operations.

    The benchmark runs on shared hosts whose speed drifts by a third or more
    over tens of seconds, longer than one run, so repeating work inside a
    run cannot average it out.  The probe is frozen benchmark code, not
    package code: its mix of interpreter work, small-array numpy calls, 6x6
    LAPACK calls and streaming over grid-sized arrays follows the package's
    cost profile.  The timed figures are scaled to a host on which one probe
    takes REFERENCE_S (host_scale); a change to the package moves a scaled
    figure exactly as it moves the wall-clock one.
    """

    REFERENCE_S = 0.006   # probe time on the reference host; figures scale to it
    EVERY_S = 0.5      # at most one burst of probes per half second of ops
    SAMPLE_PER_S = 5   # a burst holds one sample per 0.2 s of ops since the last
    MAX_BURST = 40

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(12345)
        self.small = rng.random((20, 125))
        self.mat = 0.1 * rng.random((6, 6))
        self.big = rng.random((20, 16807))
        self.samples, self.last = [], 0.0

    def start(self):
        """Begin a pass: drop the samples of the last one and take a first burst."""
        self.samples, self.last = [], perf_counter() - 1.0
        self.maybe()

    def _once(self):
        import numpy as np
        t0 = perf_counter()
        acc = 0
        for k in range(12000):
            acc += k * k % 7
        small = self.small
        for k in range(400):
            small[k % 20] * small[(k * 7) % 20] + small[(k * 3) % 20]
        for k in range(40):
            np.linalg.svd(self.mat + k * 1e-3)
        out = self.big * 1.0001
        for _ in range(8):
            out += self.big
        return perf_counter() - t0

    def maybe(self):
        """Take a burst of samples unless one was taken less than EVERY_S ago."""
        gap = perf_counter() - self.last
        if gap >= self.EVERY_S:
            n = min(round(gap * self.SAMPLE_PER_S), self.MAX_BURST)
            self.samples.extend(self._once() for _ in range(max(n, 1)))
            self.last = perf_counter()


# -- passes ----------------------------------------------------------------

class Tally:
    """Attempts, failures and the worst headline value per operation label."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems = []
        self.worst = {}
        self.notes = {}

    def record(self, op, problems, values, notes):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{op.label}: {p}" for p in problems)
        worst = self.worst.setdefault(op.label, {})
        for k, v in values.items():
            worst[k] = max(worst.get(k, v), v)
        self.notes[op.label] = notes


def run_pass(ops, tally, tracer=None, probe=None):
    """Run every op once; return per-op wall times and the points that passed."""
    times, kinds, points_ok = [], [], 0
    if probe is not None:
        probe.start()
    for i, op in enumerate(ops):
        t0 = perf_counter()
        try:
            res = op.call() if tracer is None else tracer.root("bench.op", i, op.call)
        except Exception as exc:   # an op that raises counts as failed
            dt = perf_counter() - t0
            problems, values, notes = [f"{type(exc).__name__}: {exc}"], {}, []
        else:
            dt = perf_counter() - t0
            try:
                problems, values, notes = op.check(res)
            except Exception as exc:   # malformed output fails the check
                problems, values, notes = [f"unreadable output: {exc!r}"], {}, []
        tally.record(op, problems, values, notes)
        times.append(dt)
        kinds.append(op.kind)
        points_ok += 0 if problems else op.points
        if probe is not None:
            probe.maybe()
    return {"times": times, "kinds": kinds, "points_ok": points_ok,
            "probe_s": statistics.median(probe.samples) if probe else None}


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def pass_metrics(p):
    """End-to-end figures of one pass (set-up and peak RSS come from run.py)."""
    t = p["times"]
    out = {"wall_points_per_s": p["points_ok"] / sum(t), "probe_s": p["probe_s"]}
    out["points_per_s"] = (out["wall_points_per_s"] * p["probe_s"]
                           / HostProbe.REFERENCE_S)
    for kind in sorted(set(p["kinds"])):
        mine = [x for x, k in zip(t, p["kinds"]) if k == kind]
        if kind == "motion":
            out.update(detect_p50_s=nearest_rank(mine, 0.5),
                       detect_p90_s=nearest_rank(mine, 0.9))
        else:
            out[f"{kind}_s"] = sum(mine)
    return out


def measure(ops, warmup, seconds, tally):
    """Warm-up round, then passes while another one still fits in `seconds`."""
    probe = HostProbe()
    run_pass(ops[:warmup], tally, probe=probe)
    passes = []
    start = perf_counter()
    while True:
        passes.append(pass_metrics(run_pass(ops, tally, probe=probe)))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    medians = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    medians["host_scale"] = HostProbe.REFERENCE_S / medians["probe_s"]
    return medians, len(passes), len(passes) * len(ops)


def traced(ops, tally):
    """Traced warm-up, untraced pass, traced pass; counts must repeat exactly."""
    from tracer import EXACT, Tracer
    tracer = Tracer()
    tracer.install()
    try:
        run_pass(ops, tally, tracer)
        first, _ = tracer.metrics()
    finally:
        tracer.remove()
    untraced = sum(run_pass(ops, tally)["times"])
    tracer.reset()
    tracer.install()
    try:
        traced_s = sum(run_pass(ops, tally, tracer)["times"])
    finally:
        tracer.remove()
    metrics, missing = tracer.metrics()
    metrics["trace.overhead_s"] = traced_s - untraced
    mismatched = [k for k in EXACT if first[k] != metrics[k]]
    return tracer, metrics, missing, mismatched


def environment(seed):
    import numpy
    from importlib import metadata
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:   # the config layout differs across numpy releases
        blas = "unknown"
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "blas": blas,
            "threads": {v: os.environ[v] for v in THREAD_VARS}, "seed": seed}


def setup_only(workload):
    """What set-up costs a user: import the package and parse the workload's specs."""
    import cartanheis
    for name in cartanheis.__all__:
        importlib.import_module(f"cartanheis.{name}")
    from cartanheis import dsl
    for surface in WORKLOADS[workload]["specs"]:
        dsl.parse_surface_spec(f"builtin:{surface}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.setup_only:
        setup_only(args.workload)
        return 0

    ops = make_ops(args.workload, args.seed)
    tally = Tally()
    out = {"env": environment(args.seed)}
    if args.trace:
        tracer, metrics, missing, mismatched = traced(ops, tally)
        out.update(metrics=metrics, absent=sorted(set(missing + tracer.absent)),
                   mismatched=mismatched, passes=1, samples=len(ops))
        out["spans"] = tracer.spans
    else:
        metrics, npasses, samples = measure(ops, WORKLOADS[args.workload]["warmup"],
                                            args.seconds, tally)
        out.update(metrics=metrics, passes=npasses, samples=samples)
    out.update(attempted=tally.attempted, failed=tally.failed,
               problems=tally.problems[:20], worst=tally.worst, notes=tally.notes)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

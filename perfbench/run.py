"""Benchmark of the cartanheis pipeline: one workload per invocation.

Usage, from the root of a source checkout (no install needed; src/ is put
on PYTHONPATH of every child process):

    python3 perfbench/run.py --workload desk17 --seed 1 --seconds 25 --trace 0

Workloads: desk17 (check + roundtrip at 17^3), jets5d (invariants at 7^5)
and motions (seeded rigid motions through the Python API at 5^3); worker.py
says why each exists.  All load comes from one client in a closed loop.

--trace 0 measures the end-to-end metrics:
  setup_s       median wall time of fresh interpreters that import the
                package and parse the workload's specs (first one discarded)
  points_per_s  lattice points of passed operations per second of op time
  peak_rss_mb   peak RSS of the fresh worker process that ran the workload
The two timed figures are scaled to a reference host speed: the worker
times a fixed probe kernel between operations (worker.HostProbe), and each
figure is multiplied by the ratio of the probe's time to its reference
time, so that the shared host's drift, which lasts longer than a run,
divides out.  The wall-clock values are printed beside them (wall_setup_s,
wall_points_per_s, probe_ms), with check_s, roundtrip_s, invariants_s
(summed command wall time per pass), detect_p50_s, detect_p90_s (wall
latency of one motion) and fail_frac where they apply.  Each figure is the
median over the warm passes of one worker process.
--trace 1 runs the traced passes instead and reports per-layer self time,
counts and the tracing overhead; spans go to perfbench/out/.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The exit code is 0 only when the run completed; a count that does
not repeat between two traced passes, or a missing source tree, is an error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEADLINE_S = 170          # the whole invocation must end within 180 s
SETUP_RUNS = 5            # measured set-up probes, after one discarded probe

END_TO_END = {"setup_s": "s", "points_per_s": "points/s", "peak_rss_mb": "MB"}
# printed where they apply; not part of the result
REPORTED = {"wall_setup_s": "s", "wall_points_per_s": "points/s", "probe_ms": "ms",
            "check_s": "s", "roundtrip_s": "s", "invariants_s": "s",
            "detect_p50_s": "s", "detect_p90_s": "s"}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def worker_argv(args, *extra):
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            *extra]


def setup_seconds(args, deadline):
    """Median wall time of fresh set-up processes; the first one is discarded."""
    times = []
    for _ in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(worker_argv(args, "--setup-only"), env=child_env(),
                                stdout=subprocess.DEVNULL)
        # a blocking wait, timed exactly; Popen.wait(timeout) polls in 50 ms steps
        watchdog = threading.Timer(max(deadline - time.monotonic(), 1), proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with code {code}")
    return statistics.median(times[1:])


def run_worker(args, deadline):
    """Run the workload in a fresh process; return its result and peak RSS in MB."""
    argv = worker_argv(args, "--seed", str(args.seed), "--seconds",
                       str(args.seconds), "--trace", str(args.trace))
    with tempfile.TemporaryFile(dir=OUT) as out:
        proc = subprocess.Popen(argv, env=child_env(), stdout=out)
        pid = 0
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    raise TimeoutError("worker exceeded the time limit")
                time.sleep(0.05)
        finally:
            if not pid:
                proc.kill()
                os.waitpid(proc.pid, 0)
            proc.returncode = 0   # reaped by wait4 above; stop Popen re-waiting
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise RuntimeError(f"worker exited with code {code}")
        out.seek(0)
        result = json.loads(out.read().decode().strip().splitlines()[-1])
    return result, usage.ru_maxrss / 1024.0      # ru_maxrss is in KiB on Linux


def source_id():
    """Git commit when the checkout has one, and a digest of the source tree."""
    import hashlib
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        commit = proc.stdout.strip() or commit
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def main(argv=None):
    ap = argparse.ArgumentParser(description="cartanheis benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("desk17", "jets5d", "motions"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "cartanheis" / "__init__.py").is_file():
        print(f"error: no cartanheis source tree under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    try:
        setup_s = None if args.trace else setup_seconds(args, deadline)
        result, peak_mb = run_worker(args, deadline)
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    env = dict(result["env"], **source_id())
    print("env " + json.dumps(env, sort_keys=True))
    w = args.workload
    for label in sorted(result["worst"]):
        worst = " ".join(f"{k}={v:.3e}" for k, v in sorted(result["worst"][label].items()))
        notes = "; ".join(result["notes"][label])
        print(f"residuals {w} {label}: {worst}" + (f" | {notes}" if notes else ""))
    for problem in result["problems"]:
        print(f"FAILED {w} {problem}")
    fail_frac = result["failed"] / result["attempted"]
    print(f"{w} fail_frac {fail_frac:.6f} ({result['failed']} of "
          f"{result['attempted']} operations)")
    print(f"{w} passes {result['passes']} samples {result['samples']}")

    m = result["metrics"]
    if args.trace:
        for name in result["absent"]:
            print(f"{w} absent {name}")
        metrics = {k: {"value": m[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
        spans = OUT / f"trace-{w}-seed{args.seed}.json"
        spans.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                     "spans": result["spans"]}))
        print(f"{w} spans written to {spans.relative_to(ROOT)}")
    else:
        m = dict(m, wall_setup_s=setup_s, setup_s=setup_s * m["host_scale"],
                 probe_ms=1e3 * m["probe_s"], peak_rss_mb=peak_mb)
        for k, unit in REPORTED.items():
            if k in m:
                print(f"{w} {k} {m[k]:.6g} {unit}")
        metrics = {k: {"value": m[k], "unit": u} for k, u in END_TO_END.items()}
    for k, v in metrics.items():
        print(f"{w} {k} {v['value']:.6g} {v['unit']}")
    mismatched = result.get("mismatched", [])
    if mismatched:
        print("error: counts differ between two traced passes of one seed: "
              + ", ".join(mismatched), file=sys.stderr)
        return 3
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

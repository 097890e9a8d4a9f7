"""Record an interleaved benchmark comparison as a BENCH_<name>.json file.

Usage, from anywhere inside a git checkout of this repository:

    python3 tools/bench_record.py --parent REV --change REV --out BENCH_15.json \
        --seeds 101-110

``REV`` names a commit.  Each commit is exported with ``git archive`` into a
temporary directory, and the record names it by its full hash.  For every
workload of ``BENCHMARK.json`` and every seed the unchanged
``perfbench/run.py`` of each tree runs once, for the benchmark's
``run_seconds``, the two sides in alternating order (parent first on odd
pairs), so that host drift falls on both alike.  Then each side runs once
with ``--trace 1`` at ``TRACE_SEED``.  The file holds each side's commit
and its ``env`` line (platform and ``src_sha256``, the digest of the source
tree that ran), the seeds, every run's end-to-end metrics, their median and
quartiles per workload and side, the pairs each side wins, and the traced
per-layer metrics.  Runs are sequential: run nothing else meanwhile.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
SECONDS = BENCHMARK["run_seconds"]
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
TRACE_SEED = 1       # the seed of the per-layer figures ROADMAP.md compares
SIDES = ("parent", "change")


def seeds_of(text):
    """The seeds of the inclusive range ``LO-HI``.  The quartiles of a side
    need at least two runs, so LO < HI."""
    lo, _, hi = text.partition("-")
    try:
        seeds = list(range(int(lo), int(hi) + 1))
    except ValueError:
        seeds = []
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(
            f"expected an inclusive range LO-HI of seeds with LO < HI, got {text!r}")
    return seeds


def export(rev, into):
    """The full hash of the commit ``rev``, and its files under ``into``."""
    def git(*argv):
        return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True,
                              check=True).stdout

    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    tree = into / commit
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as tar:
        tar.extractall(tree, filter="data")
    return commit, tree


def run(tree, workload, seed, trace):
    """The result JSON of one run.py invocation, and its ``env`` line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
            str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {' '.join(argv[1:])} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def summarise(runs):
    """Median, quartiles and pair wins of each end-to-end metric."""
    out = {}
    for metric, better in BETTER.items():
        sides = {side: [r["metrics"][metric]["value"] for r in runs[side]]
                 for side in SIDES}
        pairs = list(zip(sides["parent"], sides["change"]))
        wins = sum((c < p) if better == "lower" else (c > p) for p, c in pairs)
        entry = {side: dict(quartiles(v), runs=v) for side, v in sides.items()}
        p, c = entry["parent"], entry["change"]
        entry.update(better=better, change_wins=wins, pairs=len(pairs),
                     median_gap=abs(c["median"] - p["median"]),
                     parent_iqr=p["q3"] - p["q1"],
                     median_ratio=c["median"] / p["median"])
        out[metric] = entry
    return out


def record(revs, seeds, out, into):
    commits, trees = {}, {}
    for side in SIDES:
        commits[side], trees[side] = export(revs[side], into)
    rec = {side: {"commit": commits[side], "env": None} for side in SIDES}
    rec.update(seeds=seeds, seconds=SECONDS, workloads={})
    for workload in WORKLOADS:
        runs = {side: [] for side in SIDES}
        for k, seed in enumerate(seeds):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                t0 = time.monotonic()
                result, env = run(trees[side], workload, seed, 0)
                if not result["correct"]:
                    raise RuntimeError(f"{side} {workload} seed {seed}: failed ops")
                # the seeds are listed, and the side's commit names its tree
                rec[side]["env"] = {key: value for key, value in env.items()
                                    if key not in ("seed", "commit")}
                runs[side].append(result)
                print(f"{workload} seed {seed} {side} "
                      f"{result['metrics']['points_per_s']['value']:.1f} points/s "
                      f"({time.monotonic() - t0:.0f} s)", flush=True)
        traced = {side: run(trees[side], workload, TRACE_SEED, 1)[0]["metrics"]
                  for side in SIDES}
        rec["workloads"][workload] = {
            "end_to_end": summarise(runs), "traced_seed": TRACE_SEED,
            "traced": {side: {k: v["value"] for k, v in m.items()}
                       for side, m in traced.items()}}
        out.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")


def build_parser():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the parent commit")
    ap.add_argument("--change", required=True, help="the commit of the change")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--seeds", default="101-110", type=seeds_of,
                    help="an inclusive range LO-HI of at least two seeds "
                         "(default: 101-110)")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench_record_") as into:
        record({"parent": args.parent, "change": args.change}, args.seeds,
               args.out.resolve(), Path(into))
    return 0


if __name__ == "__main__":
    sys.exit(main())

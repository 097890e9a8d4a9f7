"""The argument parser and the summaries of tools/bench_record.py; nothing
here runs a benchmark."""

import importlib.util
import os

import pytest

PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_record.py")


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def parser(bench_record):
    return bench_record.build_parser()


REVS = ["--parent", "HEAD~1", "--change", "HEAD", "--out", "BENCH.json"]


@pytest.mark.parametrize("text, seeds", [("101-110", list(range(101, 111))),
                                         ("5-6", [5, 6])])
def test_seed_ranges_are_parsed(parser, text, seeds):
    assert parser.parse_args(REVS + ["--seeds", text]).seeds == seeds


def test_default_seeds_are_a_range(parser):
    assert parser.parse_args(REVS).seeds == list(range(101, 111))


# one seed, an empty or reversed range, a non-number: each would fail only
# after every pair of every workload had run
@pytest.mark.parametrize("text", ["5", "5-5", "110-101", "a-b", "1-", "-3", "1-2-3", ""])
def test_bad_seed_ranges_are_rejected_before_any_run(parser, text, capsys):
    with pytest.raises(SystemExit) as info:
        parser.parse_args(REVS + ["--seeds", text])
    assert info.value.code == 2
    assert "LO < HI" in capsys.readouterr().err


# the lines run.py prints for one jets5d run, as it formats them
RUN_LINES = """env {"nproc": 2}
jets5d fail_frac 0.000000 (0 of 20 operations)
jets5d passes 10 samples 20
jets5d wall_setup_s 0.31 s
jets5d wall_points_per_s 7890.5 points/s
jets5d probe_ms 6.25 ms
jets5d invariants_s 4.3 s
jets5d points_per_s 8218.2 points/s
desk17 probe_ms 9 ms
{"correct": true}""".splitlines()


def test_the_wall_rate_and_the_probe_time_of_a_run_are_kept(bench_record):
    assert bench_record.reported(RUN_LINES, "jets5d") == {
        "wall_points_per_s": {"value": 7890.5, "unit": "points/s"},
        "probe_ms": {"value": 6.25, "unit": "ms"}}


def test_reported_lines_get_medians_quartiles_and_wins_per_side(bench_record):
    """A scaled gain with a wall loss shows: the change is faster in
    ``points_per_s`` only because its probe ran slower."""
    def side(rates, walls, probes):
        return [{"metrics": {"points_per_s": {"value": r}},
                 "reported": {"wall_points_per_s": {"value": w},
                              "probe_ms": {"value": p}}}
                for r, w, p in zip(rates, walls, probes)]

    runs = {"parent": side([100, 110, 90, 105], [120, 130, 110, 125], [5, 5, 5, 5]),
            "change": side([108, 112, 95, 100], [110, 120, 100, 126], [6, 6, 6, 5])}
    scaled = bench_record.summarise(runs, {"points_per_s": "higher"})["points_per_s"]
    assert (scaled["change_wins"], scaled["parent_wins"]) == (3, 1)
    out = bench_record.summarise(runs, bench_record.REPORTED, "reported")
    wall, probe = out["wall_points_per_s"], out["probe_ms"]
    assert (wall["change_wins"], wall["parent_wins"], wall["pairs"]) == (1, 3, 4)
    assert wall["parent"]["median"] == 122.5 and wall["change"]["median"] == 115
    assert (wall["parent"]["q1"], wall["parent"]["q3"]) == (117.5, 126.25)
    assert wall["parent_iqr"] == 8.75 and wall["median_gap"] == 7.5
    # a slower probe is the parent's win: its time is better lower
    assert (probe["better"], probe["change_wins"], probe["parent_wins"]) == ("lower", 0, 3)
    assert probe["parent"]["runs"] == [5, 5, 5, 5] and probe["change"]["median"] == 6


@pytest.mark.parametrize("parent, change, unresolved", [
    # a parent spread of 1.0 s against 0.25 x its median 1.5 s, overlapping runs
    ([1.0, 1.0, 1.5, 2.0, 2.0], [1.2, 1.8, 1.4, 1.6, 2.1], True),
    # a spread of 0.1 s within 0.25 x 1.1 s
    ([1.0, 1.1, 1.1, 1.2, 1.0], [1.2, 1.8, 1.4, 1.6, 2.1], False),
    # the same wide spread, but every change run beats every parent run
    ([1.0, 1.0, 1.5, 2.0, 2.0], [0.5, 0.6, 0.7, 0.8, 0.9], False)])
def test_a_spread_wider_than_the_bound_is_unresolved(bench_record, parent, change,
                                                     unresolved):
    assert bench_record.BOUND["setup_s"] == 0.25
    runs = {side: [{"metrics": {"setup_s": {"value": v}}} for v in values]
            for side, values in (("parent", parent), ("change", change))}
    entry = bench_record.summarise(runs, {"setup_s": "lower"})["setup_s"]
    assert entry["unresolved"] is unresolved


def test_a_higher_better_metric_separates_upwards(bench_record):
    runs = {side: [{"metrics": {"points_per_s": {"value": v}}} for v in values]
            for side, values in (("parent", [80, 100, 120, 140]),
                                 ("change", [141, 150, 160, 170]))}
    assert bench_record.summarise(runs, {"points_per_s": "higher"})[
        "points_per_s"]["unresolved"] is False
    runs["change"][0]["metrics"]["points_per_s"]["value"] = 139
    assert bench_record.summarise(runs, {"points_per_s": "higher"})[
        "points_per_s"]["unresolved"] is True

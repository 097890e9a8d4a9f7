"""The argument parser of tools/bench_record.py; nothing here runs a benchmark."""

import importlib.util
import os

import pytest

PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_record.py")


@pytest.fixture(scope="module")
def parser():
    spec = importlib.util.spec_from_file_location("bench_record", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_parser()


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

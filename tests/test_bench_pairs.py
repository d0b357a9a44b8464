"""The gain rule of ``tools/bench_pairs.py``: at least 9/10 of the pairs
run won, a median gap wider than the parent's IQR, and no more failures
than the parent."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bp():
    spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _run(job_s, correct=True, failed=0):
    return {"correct": correct, "failed": failed,
            "metrics": {"job_s": {"value": job_s}}}


METRICS = [{"name": "job_s", "better": "lower", "bound": 0.25}]


def _verdict(bp, runs):
    return bp.summarize(runs, METRICS).splitlines()[-1].split()[-1]


def test_ten_clear_wins_are_a_gain(bp):
    runs = [{"parent": _run(10.0 + i % 3), "change": _run(6.0 + i % 3 / 10)}
            for i in range(10)]
    assert _verdict(bp, runs) == "gain"


def test_an_incomplete_pair_counts_as_not_won(bp):
    runs = [{"parent": _run(10.0 + i % 3), "change": _run(6.0 + i % 3 / 10)}
            for i in range(9)]
    # both sides fail alike, so only the pair count can refuse the gain
    runs += [{"parent": {"error": "timeout"}, "change": {"error": "timeout"}}
             for _ in range(2)]
    # 9 of 11 pairs won: below 9/10 once the incomplete pairs count
    assert _verdict(bp, runs) != "gain"


def test_more_failed_rows_is_no_gain(bp):
    runs = [{"parent": _run(10.0 + i % 3), "change": _run(6.0 + i % 3 / 10)}
            for i in range(10)]
    runs[0]["change"]["failed"] = 1
    assert _verdict(bp, runs) != "gain"


def test_parse_seeds(bp):
    assert bp.parse_seeds("31-33,40") == [31, 32, 33, 40]

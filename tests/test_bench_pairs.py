"""The gain rule of ``tools/bench_pairs.py`` (at least 9/10 of the pairs
run won, a median gap wider than the parent's IQR, and no more failures
than the parent) and the run record and steal it reports."""

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


def test_run_record_is_kept(bp, tmp_path):
    """``run_once`` keeps the run record, the line before the result."""
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json\n"
        "print(json.dumps({'affinity_cpus': 4, 'steal_frac': [0.01]}))\n"
        "print(json.dumps({'correct': True, 'failed': 0, 'metrics': {}}))\n")
    got = bp.run_once(str(tmp_path), "fresh_uniform", 1, 1.0)
    assert got["correct"] is True
    assert got["record"] == {"affinity_cpus": 4, "steal_frac": [0.01]}


def test_report_gives_steal_and_cpus(bp):
    """Each side's line gives its median steal over every job of every
    run, and the CPU counts its runs saw."""
    runs = []
    for i in range(4):
        pair = {"parent": _run(10.0), "change": _run(9.0)}
        pair["parent"]["record"] = {"affinity_cpus": 4,
                                    "steal_frac": [0.01 * i, 0.01]}
        pair["change"]["record"] = {"affinity_cpus": 4 if i else 2,
                                    "steal_frac": [0.2]}
        runs.append(pair)
    lines = bp.summarize(runs, METRICS).splitlines()
    assert lines[0].endswith("median steal_frac 0.0100, affinity_cpus 4")
    assert lines[1].endswith("median steal_frac 0.2000, affinity_cpus 2/4")

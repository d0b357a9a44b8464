"""Span extraction of ``tools/trace_job.py`` on a synthetic
``ray.timeline()`` event list."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "trace_job.py"
T0 = 1_700_000_000_000_000.0  # epoch microseconds, the timeline's clock


@pytest.fixture(scope="module")
def tj():
    spec = importlib.util.spec_from_file_location("trace_job", _PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _task(name, start_s, dur_s, worker="w1"):
    """A task's whole-span event and its three phase events."""
    ts, dur = T0 + start_s * 1e6, dur_s * 1e6
    return [
        {"cat": f"task::{name}", "name": f"mod.{name}", "pid": "node",
         "tid": f"worker:{worker}", "ts": ts, "dur": dur, "ph": "X"},
        {"cat": "task:deserialize_arguments", "name": "x", "ts": ts,
         "dur": dur / 4, "ph": "X"},
        {"cat": "task:execute", "name": "x", "ts": ts + dur / 4,
         "dur": dur / 2, "ph": "X"},
        {"cat": "task:store_outputs", "name": "x", "ts": ts + 3 * dur / 4,
         "dur": dur / 4, "ph": "X"},
    ]


def test_spans_of_tasks_from_job_start(tj):
    events = (
        _task("warm", -2.0, 0.5)  # an earlier job's task
        + _task("_reduce_task", 2.5, 0.25, "w2")
        + _task("_split_task", 0.25, 1.0)
        + _task("_split_task", 0.125, 1.5, "w3")
        + [{"cat": "submit_task", "name": "submit_task", "ts": T0 + 1,
            "dur": 5.0, "ph": "X"},
           {"name": "thread_name", "ph": "M", "pid": "node", "tid": "w1",
            "args": {"name": "worker"}}]
    )
    assert tj.job_spans(events, T0) == [
        ("_split_task", 0.125, 1.625),
        ("_split_task", 0.25, 1.25),
        ("_reduce_task", 2.5, 2.75),
    ]


def test_summary_per_task_name(tj):
    spans = [("_split_task", 0.125, 1.625), ("_split_task", 0.25, 1.25),
             ("_reduce_task", 2.5, 2.75)]
    lines = tj.summary(spans)
    assert len(lines) == 2
    assert lines[0].split() == ["2", "x", "0.125", "..", "1.625", "dur",
                                "1.000-1.500", "_split_task"]
    assert lines[1].split()[-1] == "_reduce_task"

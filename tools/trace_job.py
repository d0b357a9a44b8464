"""Trace the benchmark's job: the task spans of ``ray.timeline()``.

    python3 tools/trace_job.py --workload fresh_uniform --seed 501 [--jobs 2]

Run from the root of a checkout.  The tool sets up one Ray session the
way ``perfbench/run.py`` does (its object store size, pinned
environment, inputs from ``--seed`` and warm-up), runs the workload's
job function ``--jobs`` times, checks each job's committed partitions,
and prints every Ray task of the LAST job: start and end in seconds from
the job's start, duration, and the task's name.  A summary per task name
follows (count, first start, last end, shortest and longest run).  Use
two or more jobs to trace a job whose worker processes already ran one.

It imports ``perfbench`` and writes only under ``.perfbench_work/``,
which it removes at the end, as ``perfbench/run.py`` does.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_TASK = "task::"


def job_spans(events: list[dict], t0_us: float) -> list[tuple[str, float, float]]:
    """``(task name, start_s, end_s)`` of every Ray task in a
    ``ray.timeline()`` event list that starts at or after ``t0_us``
    (epoch microseconds, the timeline's clock), in seconds from
    ``t0_us``, sorted by start.  A task is one complete (``"X"``) event
    whose category is ``task::<name>``; its phases (argument
    deserialization, execution, storing outputs) and the task
    submissions are left out."""
    spans = []
    for e in events:
        cat = e.get("cat", "")
        if e.get("ph") != "X" or not cat.startswith(_TASK) or e["ts"] < t0_us:
            continue
        start = (e["ts"] - t0_us) / 1e6
        spans.append((cat[len(_TASK):], start, start + e["dur"] / 1e6))
    return sorted(spans, key=lambda s: (s[1], s[0]))


def summary(spans: list[tuple[str, float, float]]) -> list[str]:
    """One line per task name: count, first start, last end, and the
    shortest and longest duration."""
    by_name: dict[str, list[tuple[float, float]]] = {}
    for name, start, end in spans:
        by_name.setdefault(name, []).append((start, end))
    lines = []
    for name, se in sorted(by_name.items(), key=lambda kv: kv[1][0][0]):
        durs = [e - s for s, e in se]
        lines.append(f"{len(se):>4} x  {se[0][0]:7.3f} .. "
                     f"{max(e for _, e in se):7.3f}  dur {min(durs):.3f}"
                     f"-{max(durs):.3f}  {name}")
    return lines


def main(argv=None) -> int:
    from perfbench.run import PINNED_ENV, WORKLOADS

    ap = argparse.ArgumentParser(prog="tools/trace_job.py")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args(argv)
    if args.jobs < 1:
        ap.error("--jobs must be at least 1")

    for k, v in PINNED_ENV.items():
        os.environ[k] = v
    import ray

    from perfbench.run import WORK, Run, _parse

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    run = Run(_parse(["--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", "0"]))
    try:
        run.setup()
        for i in range(args.jobs):
            out = run._prepare_out(i)
            t0 = time.time()
            run._job(run.input_path, out)
            job_s = time.time() - t0
            run._check(i, out, verify=i == 0)
            shutil.rmtree(out, ignore_errors=True)
        spans = job_spans(ray.timeline(), t0 * 1e6)
    finally:
        ray.shutdown()
        shutil.rmtree(WORK, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, job {args.jobs} of "
          f"{args.jobs}: {job_s:.2f} s on {run.num_cpus} CPUs, "
          f"{run.rows} rows")
    for why in run.problems:
        print(f"PROBLEM: {why}")
    print(f"{'start':>7} {'end':>7} {'dur':>6}  task")
    for name, start, end in spans:
        print(f"{start:7.3f} {end:7.3f} {end - start:6.3f}  {name}")
    print("per task name:")
    print("\n".join(summary(spans)))
    return 1 if run.problems else 0


if __name__ == "__main__":
    sys.path.insert(0, ROOT)
    sys.exit(main())

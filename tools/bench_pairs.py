"""Alternating parent/change pairs of the benchmark, with the verdict.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload fresh_uniform --seeds 31-40 [--seconds 10] 2>>runs.jsonl

``--parent`` and ``--change`` are two checkouts (for example the parent
commit as a ``git worktree``).  For each seed the tool runs
``python3 perfbench/run.py --workload W --seed S --seconds N --trace 0``
once in each checkout; the side that runs first alternates from pair to
pair, so a drift in the machine's load hits both sides alike.  Every
run's result goes to stderr as one JSON line, as above, with the run
record perfbench prints before it (environment, steal, every sample)
under ``"record"``.

For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles, how many pairs the change won (ties count for
neither side) and a verdict:

* ``gain``: the change won at least 9/10 of the pairs run (a pair
  that did not complete counts as not won), the medians differ, in the
  metric's better direction, by more than the parent's interquartile
  range, and the change had no fewer correct runs and no more failed
  rows than the parent;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
* ``unresolved``: neither, and one side's interquartile range is wider
  than the bound, so "no worse" cannot be told from the spread (unless
  every run of the change reads better than every run of the parent);
* ``within bound``: otherwise.

It also prints how many runs of each side were correct and their failed
rows, and each side's median ``steal_frac`` over every measured job and
its ``affinity_cpus``, so a verdict records the CPU count and steal it
was measured under.  The tool only runs ``perfbench/run.py``; it writes nothing in
either checkout beyond what that script writes and removes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
RUN_TIMEOUT_S = 300  # perfbench stops itself after 170 s


def parse_seeds(text: str) -> list[int]:
    """``"31-40"`` or ``"31,33,35"`` (or a mix) -> the seed list."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its result line with the run record line before
    it as ``"record"``, or ``{"error": ...}``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": "timeout"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr[-300:]}"}
    result = json.loads(lines[-1])
    if len(lines) > 1:
        result["record"] = json.loads(lines[-2])
    return result


def quartiles(vals: list[float]) -> tuple[float, float, float]:
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float, pairs_run: int, as_reliable: bool
            ) -> tuple[int, str]:
    """(pairs the change won, verdict) for one metric.  The lists hold
    the complete pairs, paired by index; ``pairs_run`` counts every pair
    run, and ``as_reliable`` says the change had no fewer correct runs
    and no more failed rows than the parent."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gap = sign * (cm - pm)  # > 0: the change's median is better
    if wins >= 0.9 * pairs_run and gap > p3 - p1 and as_reliable:
        return wins, "gain"
    if -gap > bound * abs(pm):
        return wins, "worse"
    every_run_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if max(p3 - p1, c3 - c1) > bound * abs(pm) and not every_run_better:
        return wins, "unresolved"
    return wins, "within bound"


def summarize(runs: list[dict], metrics: list[dict]) -> str:
    """The report over ``runs`` (one dict per pair: side -> result)."""
    out, ok, failed = [], {}, {}
    for side in SIDES:
        results = [r[side] for r in runs]
        ok[side] = sum(bool(x.get("correct")) for x in results)
        failed[side] = sum(x.get("failed", 0) for x in results)
        records = [x.get("record", {}) for x in results]
        steal = [f for rec in records for f in rec.get("steal_frac", [])]
        cpus = sorted({rec["affinity_cpus"] for rec in records
                       if "affinity_cpus" in rec})
        out.append(f"{side}: {ok[side]}/{len(results)} runs correct, "
                   f"{failed[side]} failed rows, median steal_frac "
                   + (f"{statistics.median(steal):.4f}" if steal else "n/a")
                   + ", affinity_cpus "
                   + ("/".join(map(str, cpus)) if cpus else "n/a"))
    as_reliable = (ok["change"] >= ok["parent"]
                   and failed["change"] <= failed["parent"])
    good = [r for r in runs
            if all("metrics" in r[s] and r[s]["metrics"] for s in SIDES)]
    out.append(f"{len(good)} complete pairs")
    if not good:
        return "\n".join(out)
    out.append(f"{'metric':<16}{'parent median (q1-q3)':>30}"
               f"{'change median (q1-q3)':>30}{'won':>8}  verdict")
    for m in metrics:
        name = m["name"]
        vals = {s: [r[s]["metrics"][name]["value"] for r in good]
                for s in SIDES}
        wins, why = verdict(vals["parent"], vals["change"], m["better"],
                            m["bound"], len(runs), as_reliable)
        cols = []
        for s in SIDES:
            q1, q2, q3 = quartiles(vals[s])
            cols.append(f"{q2:.3f} ({q1:.3f}-{q3:.3f})")
        out.append(f"{name:<16}{cols[0]:>30}{cols[1]:>30}"
                   f"{f'{wins}/{len(runs)}':>8}  {why}")
    return "\n".join(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="tools/bench_pairs.py")
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help='e.g. "31-40"')
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)

    dirs = {"parent": os.path.abspath(args.parent),
            "change": os.path.abspath(args.change)}
    with open(os.path.join(dirs["change"], "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    runs = []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {}
        for side in order:
            pair[side] = run_once(dirs[side], args.workload, seed,
                                  args.seconds)
            line = {"workload": args.workload, "seed": seed, "side": side,
                    "first": order[0], "result": pair[side]}
            print(json.dumps(line), file=sys.stderr, flush=True)
        runs.append(pair)
    print(f"workload {args.workload}, seeds {args.seeds}, "
          f"--seconds {args.seconds:g}")
    print(summarize(runs, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The repository's benchmark: the flagship job, end to end and per layer.

    python3 perfbench/run.py --workload fresh_uniform --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it is the run record (environment, seed, input size, steal,
every sample).  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics (see README.md in this directory).

The measured job is the one ``tscan_ray/run.py`` runs,
``pipelines.flagship.flagship(images_path=...)`` streamed into
``state.manifest.resumable_write``, with the settings README.md gives
and why.  All inputs come from ``--seed``;
nothing is cached across runs.  Everything the run writes lives under
``.perfbench_work/`` in the checkout and is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
DEADLINE_S = 170

# what every run pins, so runs differ only by seed and by the code
OBJECT_STORE_MIB = 512
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "ARROW_IO_THREADS": "2",
    "PYTHONPATH": ROOT,
    "RAY_DATA_DISABLE_PROGRESS_BARS": "1",
    "RAY_USAGE_STATS_ENABLED": "0",
}
NUM_BUCKETS = 8
# rows per job, and the fewest measured jobs in a run
WORKLOADS = {
    "fresh_uniform": {"rows": 1200, "jobs": 3},
    "resume_half": {"rows": 1200, "jobs": 2},
    "exchange_hot": {"rows": 7500, "jobs": 3},
}
LINEAGE = {"pipeline": "flagship", "benchmark": "perfbench"}


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------- jobs


def flagship_job(images_path: str, out_dir: str):
    from tscan_ray.pipelines.flagship import flagship
    from tscan_ray.state.manifest import resumable_write

    from perfbench.inputs import N_ENTITIES

    enriched = flagship(None, images_path=images_path, n_entities=N_ENTITIES,
                        num_buckets=NUM_BUCKETS)
    return resumable_write(enriched, out_dir, key="entity_id",
                           num_buckets=NUM_BUCKETS, lineage=LINEAGE)


def exchange_job(wide_path: str, out_dir: str):
    from tscan_ray.pipelines.flagship import add_timeline_features
    from tscan_ray.sources.io import read_table
    from tscan_ray.state.manifest import resumable_write

    from perfbench.inputs import N_ENTITIES

    enriched = add_timeline_features(
        read_table(wide_path), num_buckets=NUM_BUCKETS, snapshot_every=5,
        n_entities=N_ENTITIES)
    return resumable_write(enriched, out_dir, key="entity_id",
                           num_buckets=NUM_BUCKETS, lineage=LINEAGE)


# -------------------------------------------------------------- checks


def expected_partitions(table) -> set[int]:
    import numpy as np

    from tscan_ray.ops.keyed import bucket_of

    ents = table.column("entity_id").to_numpy()
    return set(np.unique(bucket_of(ents, NUM_BUCKETS)).astype(int).tolist())


def committed(out_dir: str) -> dict[int, tuple[int, int]]:
    """partition -> (rows, checksum) from the manifests on disk."""
    from tscan_ray.state.manifest import read_manifests

    return {m["partition"]: (m["rows"], m["checksum"])
            for m in read_manifests(out_dir)}


def verify_parts(out_dir: str, source) -> tuple[bool, str]:
    """Re-read every committed part file and check it against its
    manifest and against the job's input: the checksum recomputed from
    the file, each input row exactly once with its caption unchanged,
    each row in its entity's bucket, and the strictly-past lag-1 of
    ``wordCnt`` per entity."""
    import numpy as np
    import pandas as pd

    from tscan_ray.ops.keyed import bucket_of
    from tscan_ray.state.manifest import value_checksum

    parts = committed(out_dir)
    seen = []
    for k, (rows, checksum) in parts.items():
        df = pd.read_parquet(os.path.join(out_dir, f"part-{k:05d}.parquet"))
        if len(df) != rows or value_checksum(df) != checksum:
            return False, f"part {k}: file does not match its manifest"
        if (bucket_of(df["entity_id"].to_numpy(), NUM_BUCKETS) != k).any():
            return False, f"part {k}: row outside its bucket"
        df = df.sort_values(["entity_id", "ts", "image_id"], kind="mergesort")
        lag = df.groupby("entity_id")["wordCnt"].shift(1).to_numpy()
        got = df["wordCnt_lag1"].to_numpy()
        if not np.array_equal(np.isnan(lag), np.isnan(got)) or \
                not np.allclose(lag[~np.isnan(lag)], got[~np.isnan(got)]):
            return False, f"part {k}: wordCnt_lag1 is not the previous row"
        seen.append(df[["image_id", "caption"]])
    out = pd.concat(seen).sort_values("image_id").reset_index(drop=True)
    src = (source.select(["image_id", "caption"]).to_pandas()
           .sort_values("image_id").reset_index(drop=True))
    if not out.equals(src):
        return False, "committed rows differ from the input rows"
    return True, ""


# ---------------------------------------------------------------- run


class Run:
    def __init__(self, args):
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.num_cpus = 0
        self.setup_s: list[float] = []
        self.problems: list[str] = []
        self.reference: dict | None = None
        self.job_s: list[float] = []
        self.cpu_s: list[float] = []
        self.steal: list[float] = []
        self.peak: list[float] = []
        self.attempted = self.failed = 0
        self.record: dict = {"workload": args.workload, "seed": args.seed,
                             "trace": args.trace}

    # -- setup ---------------------------------------------------------

    def _start_ray(self) -> None:
        import ray
        from ray.data import DataContext

        from perfbench.probes import affinity_cpus

        self.num_cpus = affinity_cpus()
        tmp = os.path.join(WORK, "ray")
        # AF_UNIX socket paths under the session dir must stay < 108 bytes
        kwargs = {"_temp_dir": tmp} if len(tmp) <= 40 else {}
        ray.init(num_cpus=self.num_cpus,
                 object_store_memory=OBJECT_STORE_MIB << 20,
                 include_dashboard=False, log_to_driver=False,
                 logging_level="ERROR", **kwargs)
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False

    def _warm_up(self) -> None:
        """The driver and one task per CPU import the pipeline, so worker
        processes exist and every import is paid before the first job."""
        import ray.data as rd

        import tscan_ray.pipelines.flagship  # noqa: F401
        import tscan_ray.state.manifest  # noqa: F401

        def warm(batch):
            import tscan_ray.pipelines.flagship  # noqa: F401
            import tscan_ray.state.manifest  # noqa: F401

            return batch

        rd.range(self.num_cpus, override_num_blocks=self.num_cpus) \
            .map_batches(warm, batch_format="pyarrow").materialize()

    def _make_inputs(self, d: str) -> None:
        from perfbench import inputs

        seed, n = self.args.seed, self.spec["rows"]
        write = (inputs.write_wide if self.args.workload == "exchange_hot"
                 else inputs.write_images)
        shutil.rmtree(d, ignore_errors=True)
        self.input_bytes = write(f"{d}/input", seed, n, 8)

    def setup(self) -> None:
        """Inputs, Ray start and warm-up, timed as ``setup_s``."""
        t0 = time.perf_counter()
        d = os.path.join(WORK, "data")
        self._make_inputs(d)
        self._start_ray()
        self._warm_up()
        self.setup_s.append(time.perf_counter() - t0)
        self._load_source(d)
        if self.args.workload == "resume_half":
            self._build_resume_state()

    def _load_source(self, d: str) -> None:
        import pyarrow.parquet as pq

        self.input_path = f"{d}/input"
        self.source = pq.read_table(self.input_path,
                                    columns=["image_id", "caption", "entity_id"])
        self.rows = self.source.num_rows
        self.expected = expected_partitions(self.source)
        self.record.update(input_rows=self.rows, input_bytes=self.input_bytes)

    def _build_resume_state(self) -> None:
        """Run the fresh job once, check it, and keep its output with the
        manifests of half of the partitions removed, as a job killed
        half-way leaves it.  Its checksums are the fresh reference."""
        import numpy as np

        full = os.path.join(WORK, "resume_full")
        flagship_job(self.input_path, full)
        self._check("fresh reference", full, verify=True)
        rng = np.random.default_rng(self.args.seed)
        parts = sorted(self.reference)
        drop = rng.choice(parts, size=len(parts) // 2, replace=False)
        for k in drop:
            os.remove(os.path.join(full, "_manifest", f"part-{k:05d}.json"))
        self.resume_base = full
        self.record["resume_dropped_partitions"] = sorted(int(k) for k in drop)

    # -- measured jobs -------------------------------------------------

    def _prepare_out(self, i: int) -> str:
        out = os.path.join(WORK, f"out{i}")
        shutil.rmtree(out, ignore_errors=True)
        if self.args.workload == "resume_half":
            shutil.copytree(self.resume_base, out)
        return out

    def _job(self, path: str, out: str):
        if self.args.workload == "exchange_hot":
            return exchange_job(path, out)
        return flagship_job(path, out)

    def _check(self, i, out: str, verify: bool) -> int:
        """Rows this job left committed; records any mismatch.  With
        ``verify`` every part file is re-read and checked as well."""
        parts = committed(out)
        rows = sum(r for r, _ in parts.values())
        if rows != self.rows or set(parts) != self.expected:
            self.problems.append(
                f"job {i}: {rows} rows in {len(parts)} partitions committed, "
                f"expected {self.rows} in {len(self.expected)}")
        if verify:
            ok, why = verify_parts(out, self.source)
            if not ok:
                self.problems.append(f"job {i}: {why}")
        if self.reference is None:
            self.reference = parts
        elif parts != self.reference:
            self.problems.append(f"job {i}: partition checksums differ "
                                 "from the fresh reference")
        return rows

    def _measured_job(self, i: int) -> None:
        from perfbench.probes import CpuWindow, StorePeak

        out = self._prepare_out(i)
        win, store = CpuWindow(), StorePeak()
        self.attempted += self.rows
        win.start()
        store.start()
        t0 = time.perf_counter()
        try:
            self._job(self.input_path, out)
        except Exception as exc:  # a failed job is a measured outcome
            self.problems.append(f"job {i} raised {exc!r}")
            self.failed += self.rows
            return
        finally:
            peak = store.stop()
            win.stop()
        self.job_s.append(time.perf_counter() - t0)
        self.cpu_s.append(win.busy_s)
        self.steal.append(win.steal_frac)
        self.peak.append(peak)
        self.failed += self.rows - self._check(i, out, verify=i == 0)
        shutil.rmtree(out, ignore_errors=True)

    def measure(self) -> dict:
        """Setup, then the workload's jobs in one Ray session: at least
        ``jobs`` of them and at least ``--seconds`` of job time."""
        self.setup()
        while len(self.job_s) < self.spec["jobs"] or \
                sum(self.job_s) < self.args.seconds:
            self._measured_job(len(self.job_s))
            if self.failed:
                break
        self.record.update(job_s=self.job_s, cpu_s=self.cpu_s,
                           steal_frac=self.steal, peak_store_mib=self.peak)
        if not self.job_s:
            return {}
        job_s = statistics.median(self.job_s)
        return {
            "job_s": (job_s, "s"),
            "rows_per_s": (self.rows / job_s, "rows/s"),
            "setup_s": (statistics.median(self.setup_s), "s"),
            "cpu_s": (statistics.median(self.cpu_s), "s"),
            "peak_store_mib": (statistics.median(self.peak), "MiB"),
        }

    def trace(self) -> dict:
        """Setup, one untraced job (checked, and the base of
        ``layers.sum_over_job``), then the per-layer spans."""
        from perfbench import layers

        self.setup()
        self._measured_job(0)
        if not self.job_s:
            return {}
        return layers.trace(self, self.job_s[0])


def _child(argv) -> int:
    args = _parse(argv)
    for k, v in PINNED_ENV.items():
        os.environ[k] = v
    sys.path.insert(0, ROOT)
    import ray

    from perfbench.probes import environment

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    run = Run(args)
    try:
        metrics = run.trace() if args.trace else run.measure()
        run.record.update(environment(run.num_cpus, OBJECT_STORE_MIB),
                          setup_s=run.setup_s, problems=run.problems)
    finally:
        ray.shutdown()
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(run.record), flush=True)
    result = {
        "correct": not run.problems and bool(metrics),
        "attempted": int(run.attempted),
        "failed": int(run.failed),
        "metrics": {k: {"value": v if isinstance(v, int) else float(v),
                        "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    """Run the benchmark in its own session so that, on a deadline or a
    crash, every process it started (Ray's included) can be stopped."""
    argv = sys.argv[1:] if argv is None else argv
    _parse(argv)
    child = subprocess.Popen([sys.executable, os.path.abspath(__file__),
                              "--child", *argv], start_new_session=True)
    try:
        rc = child.wait(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        print("perfbench: deadline exceeded", file=sys.stderr)
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        rc = 3
    _kill_group(child.pid)
    return rc


def _kill_group(pgid: int) -> None:
    """SIGKILL every process left in the run's session and wait until
    none is alive."""
    for _ in range(100):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.exit(_child(sys.argv[2:]))
    sys.exit(main())

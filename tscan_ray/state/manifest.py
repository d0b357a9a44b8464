"""Checkpoint-resumable partitioned output with per-partition lineage.

North-rule requirement (BASELINE.json): jobs must be resumable from
checkpoint with per-partition lineage + metrics.  The reference's only
resume mechanism is the Alpino parse cache (reference
src/tscan.cxx:168-221) — file-granular memoization; the engine
generalizes it to partition-granular output manifests:

* output layout: ``out_dir/part-{K:05d}.parquet`` + sidecar
  ``out_dir/_manifest/part-{K:05d}.json`` (row count, key-hash bucket,
  value checksum, stage wall time, lineage dict) — never one giant file;
* both files are written to a temp name then atomically ``os.replace``d
  (safe under Ray task retries: a retried writer re-produces byte-
  identical content, the rename is last-writer-wins idempotent);
* the manifest is written AFTER its data file, so a manifest's presence
  proves the partition is complete;
* resume = re-run the same call: completed partitions are filtered out
  by bucket id in the block writer (cheap vectorized mask, same task
  that buckets the rows), so a restart writes only missing partitions.

Partitioning is by deterministic key-hash bucket (ops/keyed.py) — the
same bucketing the timeline operators use.

The wide payload never enters the object store again: one raw Ray task
per upstream block (``_write_block``) writes its rows to storage under
``out_dir/_shards/``, and only tiny pointer dicts flow back to the
driver (the barrier).  What a block writes depends on what it holds:

* **one bucket (one-pass commit).**  The block is written in final part
  form — ``to_pandas`` → ``to_parquet`` plus its checksum, the bytes a
  finalize would write.  If that file is the bucket's only pointer, the
  driver commits it by ``os.replace`` into ``part-K.parquet`` and then
  writes its manifest.  Every block ``ops/keyed.task_exchange`` emits
  holds exactly one whole bucket, so a sink fed by the exchange
  (every flagship job) commits every partition this way: no shards, no
  re-read.
* **several buckets (shard path).**  The block writes ONE compressed
  parquet shard with its rows sorted by bucket and one parquet ROW
  GROUP per bucket present.  A bucket with more than one pointer gets a
  finalize task that reads exactly its row groups (parquet row-group
  pruning — byte-ranged reads, not whole files) and any final-form
  files among its pointers, concatenates, and commits ``part-K.parquet``
  + manifest.  At the 3M-row soak the old full-width object-store
  exchange was ~52 % of wall (56 MiB/s spill path); the shard path is
  2×write + 1×read of snappy-compressed parquet on storage instead, and
  on a cluster the shard dir lives on the shared filesystem the output
  already uses.

The path is chosen by what the pointers show, not by an option.  Only
pointers returned in THIS call are committed; ``_shards/`` is wiped at
the start, so a killed run's leftovers are never committed.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
from ray.data.block import BlockAccessor

from tscan_ray.ops.keyed import bucket_of

SHARD_DIR = "_shards"
# pointer row_group of a block written whole in final part form
FINAL_FORM = -1

MANIFEST_DIR = "_manifest"


def _manifest_path(out_dir: str, k: int) -> str:
    return os.path.join(out_dir, MANIFEST_DIR, f"part-{k:05d}.json")


def _part_path(out_dir: str, k: int) -> str:
    return os.path.join(out_dir, f"part-{k:05d}.parquet")


def completed_partitions(out_dir: str) -> set[int]:
    """Bucket ids whose manifest exists (manifest presence == complete)."""
    mdir = os.path.join(out_dir, MANIFEST_DIR)
    if not os.path.isdir(mdir):
        return set()
    out = set()
    for name in os.listdir(mdir):
        if name.startswith("part-") and name.endswith(".json"):
            out.add(int(name[5:-5]))
    return out


def value_checksum(df: pd.DataFrame) -> int:
    """Order-independent deterministic checksum of a frame's values."""
    if df.empty:
        return 0
    h = pd.util.hash_pandas_object(
        df.reindex(sorted(df.columns), axis=1), index=False
    ).to_numpy()
    # mask to 63 bits so the checksum stays int64-representable (stable
    # parquet/pandas dtype across partitions)
    return int((np.bitwise_xor.reduce(h) ^ np.uint64(len(h))) & np.uint64((1 << 63) - 1))


def resumable_write(
    ds,
    out_dir: str,
    key: str,
    num_buckets: int = 64,
    lineage: dict | None = None,
) -> pd.DataFrame:
    """Write ``ds`` as key-hash-partitioned parquet, skipping partitions
    already recorded complete in ``out_dir/_manifest``.

    Returns a summary frame (partition, rows, wall_s, checksum) of the
    partitions written in THIS run; already-complete ones are skipped.
    """
    os.makedirs(os.path.join(out_dir, MANIFEST_DIR), exist_ok=True)
    done = completed_partitions(out_dir)
    if done:
        # resuming: the existing partitioning must match this call —
        # skipping bucket K from an OLD (key, num_buckets) layout while
        # writing the rest under a new one would silently lose rows
        with open(_manifest_path(out_dir, min(done))) as f:
            prev = json.load(f).get("lineage", {})
        if (prev.get("key") != key
                or prev.get("num_buckets") != num_buckets):
            raise ValueError(
                f"resume mismatch in {out_dir}: existing manifests were "
                f"written with key={prev.get('key')!r}, "
                f"num_buckets={prev.get('num_buckets')} but this call "
                f"uses key={key!r}, num_buckets={num_buckets}; delete "
                f"the output dir or rerun with the original settings")
    base_lineage = dict(lineage or {})
    base_lineage.setdefault("key", key)
    base_lineage.setdefault("num_buckets", num_buckets)

    done_arr = np.array(sorted(done), dtype=np.int64)
    summary_cols = {"partition": "int64", "rows": "int64",
                    "wall_s": "float64", "checksum": "int64"}

    # phase 1: one raw write task per upstream block, completed buckets
    # dropped.  The wide payload goes straight to storage; only pointers
    # (which carry the bucket) leave the task.
    shard_dir = os.path.join(out_dir, SHARD_DIR)
    shutil.rmtree(shard_dir, ignore_errors=True)  # stale kills' leftovers
    os.makedirs(shard_dir, exist_ok=True)
    refs = [_write_block.remote(block_ref, key, num_buckets, done_arr,
                                shard_dir)
            for bundle in ds.iter_internal_ref_bundles()
            for block_ref in bundle.block_refs]
    # the pointer lists are the barrier AND the only driver
    # materialization: <= blocks × buckets tiny dicts
    by_bucket: dict[int, list[dict]] = {}
    for ptrs in ray.get(refs):
        for ptr in ptrs:
            by_bucket.setdefault(ptr["bucket"], []).append(ptr)

    # phase 2: a bucket whose only pointer is a final-form file is
    # committed here by rename; any other bucket gets a finalize task
    # that reads exactly its row groups (partitions land as tasks
    # finish, resumable mid-burst)
    written, fin_refs = [], []
    for k in sorted(by_bucket):
        ptrs = by_bucket[k]
        if len(ptrs) == 1 and ptrs[0]["row_group"] == FINAL_FORM:
            p = ptrs[0]
            os.replace(p["path"], _part_path(out_dir, k))
            _write_manifest(out_dir, k, p["rows"], p["checksum"],
                            p["wall_s"], p["columns"], base_lineage)
            written.append({"partition": k, "rows": p["rows"],
                            "wall_s": p["wall_s"],
                            "checksum": p["checksum"]})
        else:
            fin_refs.append(_finalize_task.remote(
                out_dir, k, [(p["path"], p["row_group"]) for p in ptrs],
                base_lineage))
    written += ray.get(fin_refs)
    shutil.rmtree(shard_dir, ignore_errors=True)  # all committed
    if not written:
        return pd.DataFrame({c: pd.Series(dtype=d)
                             for c, d in summary_cols.items()})
    return (pd.DataFrame(written).sort_values("partition", ignore_index=True)
            .astype(summary_cols))


@ray.remote
def _write_block(block, key: str, num_buckets: int, done: np.ndarray,
                 shard_dir: str) -> list[dict]:
    """Write one upstream block's rows of the buckets not in ``done``;
    return one pointer per bucket present.

    * rows of ONE bucket: the block is written in final part form (the
      exact bytes :func:`_finalize_partition` would write for it), and
      the pointer carries its rows, checksum and columns so the driver
      can commit it by rename — ``row_group`` is ``FINAL_FORM``;
    * rows of several buckets: ONE parquet shard, rows sorted by bucket,
      one row group per bucket, for the finalize tasks to read back."""
    t0 = time.perf_counter()
    t = BlockAccessor.for_block(block).to_arrow()
    if t.num_rows == 0:
        return []
    b = bucket_of(t.column(key).to_numpy(zero_copy_only=False),
                  num_buckets).astype(np.int64)
    keep = ~np.isin(b, done)
    if not keep.any():
        return []
    order = np.flatnonzero(keep)[np.argsort(b[keep], kind="stable")]
    if not np.array_equal(order, np.arange(t.num_rows)):
        t = t.take(pa.array(order))
    t = t.replace_schema_metadata(None)
    buckets, starts = np.unique(b[order], return_index=True)
    name = uuid.uuid4().hex
    if len(buckets) == 1:
        df = t.to_pandas()
        path = os.path.join(shard_dir, f"final-{name}.parquet")
        tmp = f"{path}.tmp"
        df.to_parquet(tmp, index=False)
        os.replace(tmp, path)
        return [{"bucket": int(buckets[0]), "path": path,
                 "row_group": FINAL_FORM, "rows": len(df),
                 "checksum": value_checksum(df),
                 "columns": list(df.columns),
                 "wall_s": time.perf_counter() - t0}]
    bounds = np.append(starts, t.num_rows)
    path = os.path.join(shard_dir, f"shard-{name}.parquet")
    tmp = f"{path}.tmp"
    with pq.ParquetWriter(tmp, t.schema) as w:
        for i in range(len(buckets)):
            sub = t.slice(bounds[i], bounds[i + 1] - bounds[i])
            w.write_table(sub, row_group_size=max(sub.num_rows, 1))
    os.replace(tmp, path)
    return [{"bucket": int(k), "path": path, "row_group": i,
             "rows": int(bounds[i + 1] - bounds[i])}
            for i, k in enumerate(buckets)]


def _finalize_partition(out_dir: str, k: int, path_rgs: list,
                        base_lineage: dict) -> dict:
    """Read bucket ``k``'s row groups from the listed shards (the whole
    file for a ``FINAL_FORM`` pointer), commit ``part-K.parquet`` +
    manifest, return the summary row."""
    t0 = time.perf_counter()
    by_path: dict[str, list[int]] = {}
    for p, rg in path_rgs:
        by_path.setdefault(p, []).append(int(rg))
    parts = [pq.read_table(p).replace_schema_metadata(None)
             if rgs == [FINAL_FORM]
             else pq.ParquetFile(p).read_row_groups(sorted(rgs))
             for p, rgs in by_path.items()]
    # a final-form file went through pandas, which may have widened its
    # types (large_string -> string); permissive unifies them
    table = pa.concat_tables(parts, promote_options="permissive")
    df = table.to_pandas()
    path = _part_path(out_dir, k)
    tmp = f"{path}.tmp.{os.getpid()}"
    df.to_parquet(tmp, index=False)
    os.replace(tmp, path)
    checksum = value_checksum(df)
    wall = time.perf_counter() - t0
    _write_manifest(out_dir, k, len(df), checksum, wall, list(df.columns),
                    base_lineage)
    return {"partition": k, "rows": len(df), "wall_s": wall,
            "checksum": checksum}


_finalize_task = ray.remote(_finalize_partition)


def _write_manifest(out_dir: str, k: int, rows: int, checksum: int,
                    wall_s: float, columns: list, lineage: dict) -> None:
    """Commit partition ``k``'s manifest atomically.  Call it only once
    ``part-K.parquet`` is in place: manifest presence proves the
    partition complete."""
    manifest = {
        "partition": k,
        "rows": int(rows),
        "checksum": checksum,
        "wall_s": round(wall_s, 4),
        "columns": columns,
        "lineage": lineage,
    }
    mpath = _manifest_path(out_dir, k)
    mtmp = f"{mpath}.tmp.{os.getpid()}"
    with open(mtmp, "w") as fh:
        json.dump(manifest, fh)
    os.replace(mtmp, mpath)


def read_manifests(out_dir: str) -> list[dict]:
    """All partition manifests (the job's lineage + metrics record)."""
    out = []
    for k in sorted(completed_partitions(out_dir)):
        with open(_manifest_path(out_dir, k)) as fh:
            out.append(json.load(fh))
    return out

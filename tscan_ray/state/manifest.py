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
* resume = re-run the same call: the driver skips block K when
  partition K is complete, so a restart fetches and writes only the
  missing partitions.

Partitioning is by deterministic key-hash bucket (ops/keyed.py) — the
same bucketing the timeline operators use.

**Contract: block K is partition K.**  ``ds`` is
``ops/keyed.task_exchange`` output: one block per bucket, in bucket
order, so non-empty block K holds only rows of bucket K.  The sink runs
one raw Ray task per non-empty, not-yet-complete block
(``_write_block``), which checks the contract with ``bucket_of`` before
it writes anything and then commits partition K itself: ``to_pandas``
→ ``to_parquet`` to a temp name → ``os.replace`` into
``part-K.parquet`` → manifest.  Each bucket has exactly one writer, the
wide payload goes straight from the exchange's output to storage, and a
partition lands as soon as its own write ends — a killed job keeps every
partition whose write finished.  Only the summary rows come back to the
driver.  A killed run's temp files are removed at the start of the
next call.
"""

from __future__ import annotations

import glob
import json
import os
import time

import numpy as np
import pandas as pd
import ray
from ray.data.block import BlockAccessor

from tscan_ray.ops.keyed import bucket_of

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
    """Write ``ds`` (``task_exchange`` output: block K holds only rows of
    bucket K) as key-hash-partitioned parquet, skipping partitions
    already recorded complete in ``out_dir/_manifest``.

    Returns a summary frame (partition, rows, wall_s, checksum) of the
    partitions written in THIS run; already-complete ones are skipped.
    Raises ``ValueError`` if a block holds a row of another bucket.
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
    # a killed run's temp files: never renamed, never read
    for pattern in ("part-*.parquet.tmp.*",
                    os.path.join(MANIFEST_DIR, "part-*.json.tmp.*")):
        for stale in glob.glob(os.path.join(out_dir, pattern)):
            os.remove(stale)
    base_lineage = dict(lineage or {})
    base_lineage.setdefault("key", key)
    base_lineage.setdefault("num_buckets", num_buckets)

    # block K is partition K: empty and complete buckets are skipped from
    # the block metadata, so a resume never fetches a done bucket
    blocks = (pair for bundle in ds.iter_internal_ref_bundles()
              for pair in zip(bundle.block_refs, bundle.metadata))
    refs = [_write_block.remote(block_ref, out_dir, key, num_buckets, k,
                                base_lineage)
            for k, (block_ref, meta) in enumerate(blocks)
            if meta.num_rows != 0 and k not in done]
    written = [row for row in ray.get(refs) if row is not None]
    summary_cols = {"partition": "int64", "rows": "int64",
                    "wall_s": "float64", "checksum": "int64"}
    return pd.DataFrame(written, columns=list(summary_cols)).astype(
        summary_cols)


@ray.remote
def _write_block(block, out_dir: str, key: str, num_buckets: int, k: int,
                 lineage: dict) -> dict | None:
    """Commit block ``k`` as partition ``k``: ``part-K.parquet``, then its
    manifest.  Returns the summary row, or None for an empty block."""
    t0 = time.perf_counter()
    t = BlockAccessor.for_block(block).to_arrow()
    if t.num_rows == 0:
        return None
    b = bucket_of(t.column(key).to_numpy(zero_copy_only=False), num_buckets)
    if (b != k).any():
        raise ValueError(
            f"block {k} holds rows of buckets "
            f"{sorted(set(b.tolist()) - {k})}: resumable_write writes block "
            f"K as partition K, so feed it ops.keyed.task_exchange output "
            f"(key={key!r}, num_buckets={num_buckets})")
    df = t.replace_schema_metadata(None).to_pandas()
    path = _part_path(out_dir, k)
    tmp = f"{path}.tmp.{os.getpid()}"
    df.to_parquet(tmp, index=False)
    os.replace(tmp, path)
    checksum = value_checksum(df)
    wall = time.perf_counter() - t0
    _write_manifest(out_dir, k, len(df), checksum, wall, list(df.columns),
                    lineage)
    return {"partition": k, "rows": len(df), "wall_s": wall,
            "checksum": checksum}


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

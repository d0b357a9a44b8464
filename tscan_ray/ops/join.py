"""Broadcast (small-side) hash join.

The reference's only joins are broadcast lexicon lookups frozen into
process memory (SURVEY.md §2.5).  This operator is the dataset-level
generalization: the small side is materialized ONCE, put in the Ray
object store, and read from the node's shared copy by each task — the
big side streams through ``map_batches`` tasks with a vectorized pandas
merge per batch.  No all-to-all exchange: at 100 TB this is the correct
plan whenever one side fits in worker memory (lexicons, dimension
tables); use a keyed-bucket shuffle (ops/keyed.py) only when both sides
are large.
"""

from __future__ import annotations

import pandas as pd

import ray

from tscan_ray.stages import map_stage


class _BroadcastMerge:
    """Per-batch stage: fetch the broadcast table, merge one batch."""

    def __init__(self, right_ref, on: str, how: str):
        self.right = ray.get(right_ref)  # read of the node's shared copy
        self.on = on
        self.how = how
        if how in ("semi", "anti"):
            # membership probe, not a merge: no value columns attach and
            # duplicate right keys never multiply rows
            self.keys = self.right[on].unique()

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        if self.how == "semi":
            return batch[batch[self.on].isin(self.keys)]
        if self.how == "anti":
            return batch[~batch[self.on].isin(self.keys)]
        return batch.merge(self.right, on=self.on, how=self.how)


def broadcast_join(
    left,
    right,
    on: str,
    right_cols: list[str] | None = None,
    how: str = "inner",
    batch_size: int = 16384,
):
    """Join ``left`` (large, streaming) with ``right`` (small) on ``on``.

    ``right`` may be a Ray Dataset (materialized here — caller guarantees
    it is the small side) or a pandas DataFrame.  ``how`` in
    {"inner", "left", "semi", "anti"}.  For inner/left, right-side
    duplicate keys multiply rows exactly like a SQL join; semi/anti are
    membership filters (EXISTS / NOT EXISTS) — only the key set is
    broadcast, no value columns attach, no row multiplication.
    """
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(how)
    if how in ("semi", "anti"):
        right_cols = [on]  # only the key set crosses the wire
    if right_cols is not None:
        cols = [on] + [c for c in right_cols if c != on]
        right = (right[cols] if isinstance(right, pd.DataFrame)
                 else right.select_columns(cols))
    rdf = right if isinstance(right, pd.DataFrame) else right.to_pandas()
    # fail loudly if a big side was mis-passed as the broadcast side —
    # silently ray.put-ing it would OOM the driver/object store instead.
    # deep=True so string payload bytes count (deep=False sees only the
    # 8-byte object pointers); estimated from a row sample to stay cheap.
    n_rows = len(rdf)
    if n_rows <= 100_000:
        approx_bytes = int(rdf.memory_usage(index=False, deep=True).sum())
    else:
        k = 100_000
        sample_bytes = int(
            rdf.iloc[:k].memory_usage(index=False, deep=True).sum())
        approx_bytes = int(sample_bytes * (n_rows / k))
    if approx_bytes > 2 << 30:
        raise ValueError(
            f"broadcast side is ~{approx_bytes >> 20} MiB; broadcast_join "
            "expects a dimension-sized right side — use exchange_join")
    return map_stage(left, _BroadcastMerge, batch_size, "pandas",
                     right_ref=ray.put(rdf), on=on, how=how)


def exchange_join(
    left,
    right,
    on: str,
    right_cols: list[str],
    how: str = "inner",
    num_buckets: int | None = None,
):
    """Large×large equi-join: when NEITHER side fits in worker memory,
    broadcast is off the table — both sides go through ONE keyed
    task-shuffle exchange (ops/keyed.py) and each hash bucket merges its
    slice with a vectorized pandas merge.

    Same two-input exchange plan as ops/asof.asof_join: the kernel gets
    each side as its own table in its own schema, and each input row
    moves exactly once.  Skewed keys put whole key groups
    in one bucket — for a hot key whose rows exceed a worker, pre-split
    by salting the SMALLER side's duplicates (not implemented here;
    document the assumption at call sites).  Prefer broadcast_join
    whenever one side is dimension-sized.
    """
    import numpy as np

    from tscan_ray.ops.asof import nullable_int_dtype, side_frame
    from tscan_ray.ops.keyed import task_exchange

    if how not in ("inner", "left"):
        raise ValueError(how)
    rcols = [on] + [c for c in right_cols if c != on]

    def merge(lt, rt) -> pd.DataFrame:
        # each side converts only its own columns, so no other side's
        # nulls degrade int64 (>2^53-safe, e.g. phash ids)
        ldf, rdf = side_frame(lt, [on]), side_frame(rt, rcols)
        if how == "left":
            # unmatched left rows would degrade int payload columns to
            # float64; nullable Int64 keeps them exact alongside NAs
            for c in rdf.columns:
                if c != on and np.issubdtype(rdf[c].dtype, np.integer):
                    rdf[c] = rdf[c].astype(nullable_int_dtype(rdf[c].dtype))
        return ldf.merge(rdf, on=on, how=how)

    return task_exchange((left, right.select_columns(rcols)), on, merge,
                         num_buckets, batch_format="pyarrow")

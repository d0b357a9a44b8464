"""Keyed-bucket exchange primitive for the point-in-time layer.

Every timeline operator (as-of join, lag/lead, ffill/bfill, sessionize,
windowed diversity) needs "all rows of one entity together".  The
engine's exchange is a **two-stage task shuffle built from raw Ray
tasks** — the documented escape hatch for semantics/performance the
Dataset API can't deliver:

* measured on this Ray build (2.49), ``groupby().map_groups`` executes
  its SortMap/SortReduce as ONE task each (fully serial exchange), and
  the hash-shuffle strategy spawns per-partition aggregator actors that
  swamp a small node.  The task shuffle below is 4-8x faster on the
  same input (see BASELINE.md) and is the classic parallel plan:
  M split tasks (one per ~target-size input bundle, each sorting its
  blocks by key-hash bucket into ONE object: the sorted rows plus B+1
  bucket offsets) feeding B reduce tasks (slice bucket b out of each
  split, concat, apply the user kernel), wired by object refs — every
  stage fully parallel, payload moved exactly once.
* a mapped exchange (``map_block``, e.g. the flagship's decode+featurize)
  runs the map inside the split tasks, one split per input block: the
  mapped rows are put once, already bucket-sorted, and the map's cost
  scales with rows, not with the input's bytes.
* one object per split, not B slices, and that object is an Arrow IPC
  stream buffer, not a ``pa.Table``: Ray pickles a table column by
  column in Python, so on one 150-row x 746-column block a put costs
  58 ms and a get 30 ms, against 0.7 ms to encode the IPC stream,
  2.0 ms to put the buffer and 2.5 ms to get and decode it.  Reduces on
  one node decode the split zero-copy from shared memory; on a
  multi-node cluster a reduce fetches each whole split, trading bytes
  for puts.  Reduce outputs stay tables: they are Ray Data blocks.

Scale notes
-----------
* B (``num_buckets``): sized so one bucket fits a worker heap
  (``>= input_bytes / heap bytes per bucket``) and >= cluster
  parallelism.  The driver holds one ref per split (M); split inputs
  are bundled to ``~64 MB`` so M stays ~input_bytes/64MB.  At 100 TB use a
  two-level exchange (node-local combine, then cross-node) — same
  algebra, one more tier.
* Skew: a bucket holds whole entities, so the flagship timeline puts a
  hot entity in one reduce task.  ``ops/window.rolling_time_agg(
  slice_us=)`` splits hot keys by time range with window-sized overlap
  (:func:`salted_key`, SURVEY.md §7.4); pure aggregations instead
  pre-combine per batch (ops/agg.py).
* The hash is deterministic across processes (no PYTHONHASHSEED
  dependence): Knuth multiplicative for integer keys,
  ``pandas.util.hash_array`` for strings — retries re-produce identical
  partitions, which the resumable sink relies on.
"""

from __future__ import annotations

import gc
from collections.abc import Callable

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
# registers Ray's Arrow extension types (tensor, Python object) in each
# process that decodes an exchange buffer: an IPC stream carries only an
# extension's name, and an unregistered name decodes as its storage type
import ray.data.extensions  # noqa: F401

_KNUTH = np.uint64(0x9E3779B97F4A7C15)
_TARGET_SPLIT_BYTES = 64 * 1024 * 1024
_IPC_READ = pa.ipc.IpcReadOptions(use_threads=False)
# splits per combine task of the two-level exchange: a combine holds its
# whole group in heap, so the group is a 512 MiB budget of split bundles
_COMBINE_GROUP = 512 * 1024 * 1024 // _TARGET_SPLIT_BYTES


def _pandas_to_arrow(df) -> pa.Table:
    """pandas -> Arrow block.  The b'pandas' schema metadata is kept
    ONLY when an extension dtype (nullable Int64 etc.) needs it to
    round-trip exactly (int64 > 2^53 with NAs would otherwise come back
    float64); plain-numpy frames drop it — metadata-bearing pa.Schema
    is unhashable and floods Ray's block-schema dedup with warnings."""
    import pandas as _pd

    t = pa.Table.from_pandas(df, preserve_index=False)
    if not any(isinstance(dt, _pd.api.extensions.ExtensionDtype)
               for dt in df.dtypes):
        t = t.replace_schema_metadata(None)
    return t


def key_hash(values: np.ndarray) -> np.ndarray:
    """Deterministic uint64 hash of a key array: Knuth multiplicative for
    integer keys, pandas' stable siphash for strings / objects."""
    if np.issubdtype(values.dtype, np.integer):
        return values.astype(np.uint64, copy=False) * _KNUTH
    return pd.util.hash_array(np.asarray(values, dtype=object))


def bucket_of(values: np.ndarray, num_buckets: int) -> np.ndarray:
    """Deterministic bucket assignment for a key array."""
    h = key_hash(values)
    if np.issubdtype(values.dtype, np.integer):
        h = h >> np.uint64(33)
    return h % np.uint64(num_buckets)


def salted_key(values: np.ndarray, salt: np.ndarray) -> np.ndarray:
    """int64 exchange key for (key, salt) pairs — spreads one hot key
    over several buckets (salt = a time-slice index)."""
    sh = np.asarray(salt).astype(np.uint64) * _KNUTH
    return ((key_hash(values) ^ (sh >> np.uint64(7)))
            >> np.uint64(1)).astype(np.int64)


def _as_arrow(block) -> pa.Table:
    if isinstance(block, pa.Table):
        return block
    return _pandas_to_arrow(block)


def _bucket_rows(tbl: pa.Table, offsets: np.ndarray, b: int) -> pa.Table:
    """Bucket ``b``'s rows of a bucket-sorted table."""
    return tbl.slice(offsets[b], offsets[b + 1] - offsets[b])


def _to_ipc(tbl: pa.Table) -> pa.Buffer:
    """One Arrow IPC stream buffer of ``tbl``: Ray puts and gets it as one
    contiguous buffer, where a ``pa.Table`` is pickled column by column."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, tbl.schema) as writer:
        writer.write_table(tbl)
    return sink.getvalue()


def _from_ipc(buf: pa.Buffer) -> pa.Table:
    """The table of an :func:`_to_ipc` buffer, zero-copy over it.
    Single-threaded: an exchange task holds one CPU, and Arrow's thread
    pool made decoding 8 buffers of 746 columns slower (11.6 ms against
    8.9 ms)."""
    return pa.ipc.open_stream(buf, options=_IPC_READ).read_all()


def _concat(tables: list[pa.Table]) -> pa.Table:
    """``concat_tables``, unifying the schemas only when they differ:
    unifying equal schemas of 8 x 746 fields costs ~7 ms, the
    concatenation itself ~1 ms."""
    first = tables[0].schema
    same = all(t.schema.equals(first) for t in tables[1:])
    return pa.concat_tables(tables,
                            promote_options="none" if same else "default")


@ray.remote
def _split_task(key: str, num_buckets: int, map_block, *blocks):
    """Sort the input blocks by key-hash bucket (ONE stable sort +
    searchsorted per task — no per-bucket scan), after ``map_block``
    when one is given.  Returns ONE object: the sorted table as an IPC
    buffer and its ``num_buckets + 1`` int64 bucket offsets, so bucket
    ``b`` is rows ``offsets[b]:offsets[b + 1]``."""
    tbl = _concat([_as_arrow(b) for b in blocks])
    if map_block is not None and tbl.num_columns:  # not schema-less
        tbl = map_block(tbl)
    if key not in tbl.column_names:  # schema-less empty blocks
        return (_to_ipc(tbl.slice(0, 0)),
                np.zeros(num_buckets + 1, dtype=np.int64))
    vals = tbl.column(key).to_numpy(zero_copy_only=False)
    b = bucket_of(vals, num_buckets).astype(np.int64)
    order = np.argsort(b, kind="stable")
    tbl = tbl.take(pa.array(order))
    offsets = np.searchsorted(b[order], np.arange(num_buckets + 1))
    return _to_ipc(tbl), offsets.astype(np.int64)


@ray.remote
def _combine_task(num_buckets: int, *splits):
    """Intermediate combine tier of the two-level exchange: concatenate a
    GROUP of split outputs bucket by bucket into one object of the same
    shape (bucket-sorted rows as an IPC buffer + offsets) — reduce tasks
    then fan in over ceil(M/group) refs instead of M.  On a multi-node
    cluster this tier is where node-local combining would happen (one
    combine per node over its local splits)."""
    tables = [(_from_ipc(buf), o) for buf, o in splits]
    tbl = _concat([_bucket_rows(t, o, b)
                   for b in range(num_buckets) for t, o in tables])
    sizes = np.sum([np.diff(o) for _, o in splits], axis=0)
    return (_to_ipc(tbl),
            np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64))


def _apply(fn, batch_format: str, tbl: pa.Table):
    """``fn`` applied to ``tbl`` in ``batch_format``; a DataFrame result
    comes back as an Arrow block."""
    out = fn(tbl.to_pandas() if batch_format == "pandas" else tbl)
    if isinstance(out, pd.DataFrame):
        return _pandas_to_arrow(out)
    return out


@ray.remote
def _reduce_task(fn, batch_format: str, b: int, *parts):
    """Concat bucket ``b``'s rows out of each split/combine output and
    apply the user kernel."""
    return _apply(fn, batch_format, _concat(
        [_bucket_rows(_from_ipc(buf), o, b) for buf, o in parts]))


# stats of the most recent task_exchange on this driver (introspection /
# tests): splits submitted, combines submitted, peak driver-held ref count
LAST_EXCHANGE_STATS: dict = {}


def task_exchange(
    ds,
    key: str,
    fn: Callable,
    num_buckets: int,
    batch_format: str = "pandas",
    map_block: Callable | None = None,
):
    """Apply a vectorized multi-key kernel to each key-hash bucket
    (two-stage parallel hash exchange).  Returns a materialized Dataset
    of the kernel outputs, one block per bucket in bucket order: block K
    holds only rows of bucket K (``bucket_of(key, num_buckets) == K``)
    for a kernel that keeps its key column.  The resumable sink
    (``state/manifest.resumable_write``) relies on that order: it
    commits block K as partition K.

    ``fn`` receives one bucket (all rows of every entity hashed to it) as
    a pandas DataFrame (default) or a pyarrow Table
    (``batch_format="pyarrow"`` — use this when the kernel must control
    the pandas conversion itself, e.g. to keep int64 columns exact in
    the presence of union null-padding) and must itself be vectorized
    across keys (``df.groupby(key)`` transforms, ``merge_asof``, ...).

    ``map_block``: a per-row Arrow map (``pa.Table -> pa.Table``) that each
    split task applies to its input before bucketing, so the mapped rows
    are put once, already bucket-sorted, with no map stage of their own.
    Every input block then gets its own split task: the mapped cost
    scales with rows, not with the input's bytes.

    Streaming: split tasks are submitted as upstream blocks arrive
    (``iter_internal_ref_bundles`` is a generator over the running
    pipeline), and each COMBINE task is submitted the moment its group
    of splits is full — the driver then drops the group's split refs,
    so driver-held refs stay bounded at ~group + combines (+ pending
    blocks) instead of M, and combining overlaps the tail of the
    upstream scan.  Each split or combine is ONE object (bucket-sorted
    rows as an Arrow IPC stream buffer + offsets); reduce task ``b``
    decodes each and slices its bucket out.
    """
    import ray.data as rd

    # Ray Data's logical operators and executors reference each other, so
    # the blocks a finished Dataset still points at are freed only by the
    # cyclic collector.  Collect before this exchange puts a full copy of
    # its input in the object store, so a process running job after job
    # does not carry the previous job's blocks into this job's peak.
    gc.collect()

    # two-level exchange: when many split tasks exist, a combine tier
    # concatenates groups of splits per bucket so each reduce fans in
    # over ceil(M/group) refs instead of M
    group = _COMBINE_GROUP
    use_combine = num_buckets > 1

    split_group: list = []   # split ref-tuples not yet combined
    combined: list = []      # combine ref-tuples (final reduce inputs)
    pending_refs: list = []  # raw block refs awaiting a split task
    pending_bytes = 0
    n_splits = n_combines = peak_refs = 0

    def live_refs() -> int:
        return len(pending_refs) + len(split_group) + len(combined)

    def submit_combine():
        nonlocal n_combines
        combined.append(_combine_task.remote(num_buckets, *split_group))
        split_group.clear()
        n_combines += 1

    def flush():
        nonlocal pending_refs, pending_bytes, n_splits, peak_refs
        if pending_refs:
            split_group.append(_split_task.remote(
                key, num_buckets, map_block, *pending_refs))
            pending_refs, pending_bytes = [], 0
            n_splits += 1
            # combine eagerly per full group (streams with the scan) —
            # but only once a second group starts, so a small input
            # (m <= group) never pays the extra copy tier
            if use_combine:
                if combined and len(split_group) >= group:
                    submit_combine()
                elif not combined and len(split_group) > group:
                    overflow = split_group[group:]
                    del split_group[group:]
                    submit_combine()
                    split_group.extend(overflow)
        peak_refs = max(peak_refs, live_refs())

    for bundle in ds.iter_internal_ref_bundles():
        for block_ref, meta in zip(bundle.block_refs, bundle.metadata):
            pending_refs.append(block_ref)
            pending_bytes += meta.size_bytes or 0
            if map_block is not None or pending_bytes >= _TARGET_SPLIT_BYTES:
                flush()
    flush()
    # leftover group: combine only if a combine tier already exists
    # (otherwise reduces fan in over the raw splits, as before)
    if combined and split_group:
        submit_combine()
    peak_refs = max(peak_refs, live_refs())
    LAST_EXCHANGE_STATS.clear()
    LAST_EXCHANGE_STATS.update(
        splits=n_splits, combines=n_combines, peak_driver_refs=peak_refs,
        group=group, num_buckets=num_buckets)

    if not (split_group or combined):
        # empty input: still produce the KERNEL's output schema (the raw
        # padded-union schema would leak __side__/__r_* columns to
        # downstream select/write)
        schema = ds.schema()
        if schema is None:
            return ds
        empty = pa.table({n: pa.nulls(0, type=as_arrow_type(t))
                          for n, t in zip(schema.names, schema.types)})
        if map_block is not None:
            empty = map_block(empty)
        return rd.from_arrow(_apply(fn, batch_format, empty))

    final = combined + split_group
    LAST_EXCHANGE_STATS["reduce_fanin"] = len(final)
    outs = [_reduce_task.remote(fn, batch_format, b, *final)
            for b in range(num_buckets)]
    # materialized, the output is its own computed snapshot: a consumer's
    # iter_internal_ref_bundles() gets the reduce blocks without starting
    # a streaming executor, whose start-up deep-copies every block's
    # schema (~0.2 s on 8 buckets of 746 columns)
    return rd.from_arrow_refs(outs).materialize()


def as_arrow_type(t) -> pa.DataType:
    """Normalize a Ray Schema type entry to a pyarrow DataType (pandas-
    backed datasets report numpy dtypes / Python classes)."""
    if isinstance(t, pa.DataType):
        return t
    if t is str:
        return pa.string()
    if t is bytes:
        return pa.binary()
    dt = np.dtype(t)
    if dt == np.dtype(object):
        # pandas object columns are overwhelmingly strings; anything else
        # would already have failed upstream Arrow conversion
        return pa.string()
    return pa.from_numpy_dtype(dt)

"""Keyed-bucket exchange primitive: the library's one keyed shuffle.

Every operator that needs "all rows of one key together" runs on it:
the timeline operators, the exchange join and every keyed aggregate
(``ops/agg``, ``ops/dedup``, ``ops/textops.word_frequency_topk``, the
surprisal n-gram counts; ``connected_components`` runs one exchange per
iteration).  No library module calls Ray Data's ``groupby().aggregate()``
(``tests/test_one_exchange.py``).

Two-input operators — ``ops/asof.asof_join`` and ``interval_join``,
``ops/join.exchange_join`` and ``ops/dedup``'s exchange verification —
pass a tuple ``(left, right)`` instead of one Dataset.  Each input's
blocks are split on their own, and reduce K calls the kernel with one
table per input: bucket K's rows of that input, in that input's own
schema.  No side is padded to a shared schema, tagged or ``union``-ed
(``tests/test_one_exchange.py`` fails on either).

The exchange is a **two-stage task shuffle built from raw Ray tasks** —
the documented escape hatch for semantics/performance the Dataset API
can't deliver:

* measured on this Ray build (2.49), ``groupby().map_groups`` executes
  its SortMap/SortReduce as ONE task each (fully serial exchange), and
  the hash-shuffle strategy spawns per-partition aggregator actors that
  swamp a small node.  The task shuffle below is 4-8x faster on the
  same input (see BASELINE.md) and is the classic flat parallel plan:
  one split task per input block (sorting the block by key-hash bucket
  into ONE object: the sorted rows plus B+1 bucket offsets) feeding B
  reduce tasks (slice bucket b out of every split, concat, apply the
  user kernel), wired by object refs — every stage fully parallel,
  payload moved exactly once.
* a mapped exchange (``map_block``, e.g. the flagship's decode+featurize)
  runs the map inside the split tasks: the mapped rows are put once,
  already bucket-sorted, with no map stage of their own.
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
* B (``num_buckets``): defaults to cluster parallelism, one bucket per
  CPU of the Ray session (:func:`cluster_cpus`).  Each reduce decodes
  every split, so the exchange costs M x B, and a bucket per CPU is the
  smallest B that keeps every CPU busy.  Pass a larger count when one
  bucket would not fit a worker heap (``>= input_bytes / heap bytes per
  bucket``); the flagship passes its partition count, which the
  resumable sink commits as its layout.  M, the split count, is the
  input's block count: the driver holds one ref per split and each
  reduce fans in over all M, so the upstream read's block size sets
  both (``sources/io.read_table`` reads one block per parquet file, at
  least one per CPU).
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
import itertools
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
_IPC_READ = pa.ipc.IpcReadOptions(use_threads=False)


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


def cluster_cpus() -> int:
    """CPUs of the current Ray session, at least 1 (8 when none is
    running): the exchange's default bucket count."""
    if not ray.is_initialized():
        return 8
    return max(1, int(ray.cluster_resources().get("CPU", 8)))


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
def _split_task(key: str, num_buckets: int, map_block, block):
    """Sort one input block by key-hash bucket (ONE stable sort +
    searchsorted — no per-bucket scan), after ``map_block`` when one is
    given.  Returns ONE object: the sorted table as an IPC buffer and
    its ``num_buckets + 1`` int64 bucket offsets, so bucket ``b`` is rows
    ``offsets[b]:offsets[b + 1]``."""
    tbl = block if isinstance(block, pa.Table) else _pandas_to_arrow(block)
    if map_block is not None:
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


def _apply(fn, batch_format: str, tables: list[pa.Table]) -> pa.Table:
    """``fn`` applied to ``tables`` (one per input) in ``batch_format``; a
    DataFrame result comes back as an Arrow block.  An output column of
    Arrow type ``null`` (pandas' type for an object column with no
    values, e.g. a string column of an empty bucket) takes the type of
    the input column it came from: the longest input name it starts
    with (its own name, or a join's ``{col}{suffix}``), first input
    first, so every bucket types it alike."""
    out = fn(*(t.to_pandas() if batch_format == "pandas" else t
               for t in tables))
    if isinstance(out, pd.DataFrame):
        out = _pandas_to_arrow(out)
    types = {}
    for t in reversed(tables):  # a name in several inputs: the first's type
        types.update(zip(t.schema.names, t.schema.types))
    for i, (name, typ) in enumerate(zip(out.schema.names, out.schema.types)):
        if typ == pa.null():
            src = max((n for n in types if name.startswith(n)), key=len,
                      default=name)
            out = out.set_column(i, name, out.column(i).cast(types.get(src, typ)))
    return out


@ray.remote
def _reduce_task(fn, batch_format: str, b: int, counts: np.ndarray,
                 *splits):
    """Concat bucket ``b``'s rows out of each input's splits (the first
    ``counts[0]`` splits are input 0's, the next ``counts[1]`` input
    1's, ...) and apply the user kernel to one table per input.  An
    input with no split arrives as a zero-column table."""
    slices = [_from_ipc(buf).slice(o[b], o[b + 1] - o[b]) for buf, o in splits]
    ends = np.cumsum(counts)
    return _apply(fn, batch_format, [
        _concat(slices[end - n:end]) if n else pa.table({})
        for n, end in zip(counts, ends)])


def task_exchange(
    ds,
    key: str,
    fn: Callable,
    num_buckets: int | None = None,
    batch_format: str = "pandas",
    map_block: Callable | None = None,
):
    """Apply a vectorized multi-key kernel to each key-hash bucket
    (two-stage parallel hash exchange).  Returns a materialized Dataset
    of the kernel outputs, one block per bucket in bucket order: block K
    holds only rows of bucket K (``bucket_of(key, num_buckets) == K``)
    for a kernel that keeps its key column.  ``num_buckets`` defaults
    to :func:`cluster_cpus`.  The resumable sink
    (``state/manifest.resumable_write``) relies on that order: it
    commits block K as partition K.

    ``ds`` is one Dataset or a tuple of Datasets, each with a ``key``
    column.  ``fn`` receives one bucket (all rows of every entity hashed
    to it) as one argument per input, each in that input's own schema,
    as a pandas DataFrame (default) or a pyarrow Table
    (``batch_format="pyarrow"`` — use this when the kernel must control
    the pandas conversion itself, e.g. to keep int64 columns exact when
    it gathers values next to nulls), and must itself be vectorized
    across keys (``df.groupby(key)`` transforms, ``merge_asof``, ...).
    An input with no rows in the bucket arrives as a zero-row slice of
    its own splits; an input with no schema at all (no block, or only
    schema-less empty blocks) arrives as a zero-column table.

    ``map_block``: a per-row Arrow map (``pa.Table -> pa.Table``) that each
    split task applies to its input before bucketing, so the mapped rows
    are put once, already bucket-sorted, with no map stage of their own.
    It gets every block, so it must map a schema-less empty one (a
    zero-row file reads as one).

    Streaming: one split task is submitted per upstream block as it
    arrives (``iter_internal_ref_bundles`` is a generator over the
    running pipeline; several inputs are read round-robin, so their
    scans run together), so splitting overlaps the tail of the upstream
    scan.  Each split is ONE object (bucket-sorted rows as an Arrow IPC
    stream buffer + offsets); reduce task ``b`` fans in over every
    split, decodes each and slices its bucket out.
    """
    import ray.data as rd

    inputs = ds if isinstance(ds, tuple) else (ds,)
    if num_buckets is None:
        num_buckets = cluster_cpus()
    # Ray Data's logical operators and executors reference each other, so
    # the blocks a finished Dataset still points at are freed only by the
    # cyclic collector.  Collect before this exchange puts a full copy of
    # its input in the object store, so a process running job after job
    # does not carry the previous job's blocks into this job's peak.
    gc.collect()

    tagged = [(i, _split_task.remote(key, num_buckets, map_block, block_ref))
              for bundles in itertools.zip_longest(
                  *(d.iter_internal_ref_bundles() for d in inputs))
              for i, bundle in enumerate(bundles) if bundle is not None
              for block_ref in bundle.block_refs]

    if not tagged:
        # no input block: still produce the KERNEL's output schema
        schemas = [d.schema() for d in inputs]
        if schemas == [None]:  # one input, with nothing to type
            return ds
        empties = [pa.table({}) if schema is None else
                   pa.table({n: pa.nulls(0, type=as_arrow_type(t))
                             for n, t in zip(schema.names, schema.types)})
                   for schema in schemas]
        if map_block is not None:
            empties = [map_block(t) for t in empties]
        return rd.from_arrow(_apply(fn, batch_format, empties))

    tagged.sort(key=lambda t: t[0])  # stable: each input's splits in order
    counts = np.bincount([i for i, _ in tagged], minlength=len(inputs))
    splits = [s for _, s in tagged]
    outs = [_reduce_task.remote(fn, batch_format, b, counts, *splits)
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

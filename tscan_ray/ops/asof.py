"""Point-in-time (as-of) join — the engine's flagship relational operator.

For each left row (key, ts), find the latest right row of the same key
with ``ts_r <= ts`` (backward direction; ``allow_exact_matches`` keeps
the <= inclusive, which is the leakage-safe convention: a feature known
AT ts is usable AT ts).  Optional tolerance bounds the lookback.

Ray-Data-native design (north rule; no counterpart in the reference —
its only joins are broadcast lexicon lookups, SURVEY.md §2.5):

1. sides are tagged and schema-aligned (missing columns -> nulls), then
   ``union``-ed — Ray's streaming executor interleaves both scans;
2. ONE keyed task-shuffle exchange (ops/keyed.py) co-locates each key's
   left and right rows;
3. inside the bucket UDF the Arrow table is split by side BEFORE any
   pandas conversion (each side's own columns never carry padding
   nulls, so int64 ids above 2^53 — e.g. phash — survive exactly), then
   ``pd.merge_asof(by=key)`` matches left rows against a slim
   (key, ts, row-index) PROBE of the right side — a sorted-merge with
   binary-search galloping, vectorized across all keys in the bucket —
   and the right payload columns are gathered by row index afterwards,
   again without a float round trip.

Determinism: right-side duplicates on (key, ts) are reduced to the row
with the greatest ``order_col`` (latest-writer-wins, using the RIGHT
side's own order values) so the match is unique under retries; ties on
the left are preserved as independent rows.

Scale notes: the exchange moves each row exactly once; bucket count is
sized via ops/keyed.py.  If one side is tiny, prefer a broadcast lookup
(ray.put + searchsorted in map_batches) instead of this shuffle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from tscan_ray.config import DEFAULT_CONFIG
from tscan_ray.ops.keyed import as_arrow_type, task_exchange

_SIDE = "__side__"


def _tag_union(left, right, left_schema, right_schema, r_rename):
    """Side-tag and schema-align two Datasets, then union them — the
    shared preamble of every union-exchange join.  Missing columns are
    null-padded (the bucket UDFs split sides in Arrow before pandas
    conversion, so the padding never pollutes real columns).

    Returns ``(union_dataset, union_schema)`` — kernels use the schema
    to stand in for schema-less empty blocks (Ray skips the pad UDF on
    empty inputs)."""
    all_cols: dict[str, pa.DataType] = {
        n: as_arrow_type(t)
        for n, t in zip(left_schema.names, left_schema.types)}
    for name, typ in zip(right_schema.names, right_schema.types):
        all_cols.setdefault(r_rename[name], as_arrow_type(typ))
    union_names = list(all_cols.keys()) + [_SIDE]

    def pad(side: int, rename: dict[str, str]):
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            present = {rename.get(name, name): batch.column(name)
                       for name in batch.column_names}
            cols = {}
            for name in union_names:
                if name == _SIDE:
                    cols[name] = pa.array(np.full(n, side, dtype=np.int8))
                elif name in present:
                    cols[name] = present[name]
                else:
                    cols[name] = pa.nulls(n, type=all_cols[name])
            return pa.table(cols)

        return fn

    l_p = left.map_batches(pad(0, {}), batch_format="pyarrow",
                           zero_copy_batch=True)
    r_p = right.map_batches(pad(1, r_rename), batch_format="pyarrow",
                            zero_copy_batch=True)
    union_schema = pa.schema(
        [(n, all_cols[n]) for n in all_cols] + [(_SIDE, pa.int8())])
    return l_p.union(r_p), union_schema


def _split_sides(tbl: pa.Table, left_cols: list[str], rcols: list[str],
                 union_schema: pa.Schema):
    """Split a side-tagged bucket table into left/right pandas frames.
    Each side converts only its OWN columns, so no padding nulls (and no
    int64->float64 degradation) reach either frame.  Schema-less empty
    blocks (Ray skips map UDFs on empty inputs) are replaced by a typed
    empty table so downstream column access keeps working."""
    import pyarrow.compute as pc

    if _SIDE not in tbl.column_names:
        tbl = union_schema.empty_table()
    lmask = pc.equal(tbl.column(_SIDE), 0)
    ldf = tbl.filter(lmask).select(left_cols).to_pandas()
    rdf = tbl.filter(pc.invert(lmask)).select(rcols).to_pandas()
    return ldf, rdf.reset_index(drop=True)


def nullable_int_dtype(dtype) -> str:
    """Numpy integer dtype -> pandas nullable extension name.  str
    .capitalize() would produce 'Uint64' (unregistered) for unsigned
    dtypes; pandas only knows 'UInt64' etc."""
    return dtype.name.replace("uint", "UInt").replace("int", "Int")


def _gather(s: pd.Series, ridx: np.ndarray, out_index) -> pd.Series:
    """Positional gather of ``s`` (RangeIndexed) by ``ridx`` with -1 =
    missing -> NA.  Integer/bool sources go through their nullable
    extension dtype so exact values survive alongside NAs; fully-matched
    results are downcast back to the original numpy dtype."""
    orig = s.dtype
    if np.issubdtype(s.dtype, np.integer):
        s = s.astype(nullable_int_dtype(s.dtype))  # int64 -> Int64 etc.
    elif s.dtype == bool:
        s = s.astype("boolean")
    g = s.reindex(ridx).set_axis(out_index)
    if g.dtype != orig and not g.isna().any():
        g = g.astype(orig)
    return g


def _ts_i64(a: np.ndarray) -> np.ndarray:
    """Timestamp column as comparable int64 (datetime64 -> raw ticks)."""
    if np.issubdtype(a.dtype, np.datetime64):
        return a.view("int64")
    return a.astype(np.int64, copy=False)


def _asof_indices(lk, lts, rk, rts, direction: str,
                  tolerance_us: int | None) -> np.ndarray:
    """Arrow/numpy-native as-of matcher: for each left (key, ts) return
    the positional index into the (key, ts)-deduped right side, or -1.

    Replaces the pandas ``merge_asof(by=key)`` hot kernel: both sides'
    keys are codified with one ``np.unique`` and timestamps with a rank
    map, giving a single int64 composite ``key_code * M + ts_rank`` per
    row whose TOTAL order equals the (key, ts) lexicographic order —
    one vectorized ``np.searchsorted`` gallop then answers every left
    row at once (no per-key grouping, no pandas block manager).
    ``nearest`` ties prefer the backward row (pandas semantics)."""
    n_r = len(rk)
    if n_r == 0 or len(lk) == 0:
        return np.full(len(lk), -1, dtype=np.int64)
    allk = np.concatenate([rk, lk])
    _, kinv = np.unique(allk, return_inverse=True)
    rkc, lkc = kinv[:n_r].astype(np.int64), kinv[n_r:].astype(np.int64)
    lts_i, rts_i = _ts_i64(lts), _ts_i64(rts)
    allts = np.concatenate([rts_i, lts_i])
    uts, tinv = np.unique(allts, return_inverse=True)
    rtr, ltr = tinv[:n_r].astype(np.int64), tinv[n_r:].astype(np.int64)
    m = np.int64(len(uts) + 1)
    rcomp = rkc * m + rtr
    lcomp = lkc * m + ltr
    order_r = np.argsort(rcomp, kind="stable")
    rcomp_s = rcomp[order_r]

    def _backward():
        pos = np.searchsorted(rcomp_s, lcomp, side="right") - 1
        cand = order_r[np.maximum(pos, 0)]
        ok = (pos >= 0) & (rkc[cand] == lkc)
        if tolerance_us is not None:
            ok &= (lts_i - rts_i[cand]) <= tolerance_us
        return np.where(ok, cand, -1)

    def _forward():
        pos = np.searchsorted(rcomp_s, lcomp, side="left")
        cand = order_r[np.minimum(pos, n_r - 1)]
        ok = (pos < n_r) & (rkc[cand] == lkc)
        if tolerance_us is not None:
            ok &= (rts_i[cand] - lts_i) <= tolerance_us
        return np.where(ok, cand, -1)

    if direction == "backward":
        return _backward()
    if direction == "forward":
        return _forward()
    b, f = _backward(), _forward()
    db = np.where(b >= 0, lts_i - rts_i[np.maximum(b, 0)], np.int64(2**62))
    df_ = np.where(f >= 0, rts_i[np.maximum(f, 0)] - lts_i, np.int64(2**62))
    return np.where(b >= 0, np.where((f >= 0) & (df_ < db), f, b),
                    np.where(f >= 0, f, -1))


def asof_join(
    left,
    right,
    key: str,
    ts: str,
    right_value_cols: list[str],
    order_col: str | None = None,
    tolerance_us: int | None = None,
    right_suffix: str = "_r",
    how: str = "left",
    direction: str = "backward",
    num_buckets: int = DEFAULT_CONFIG.num_key_buckets,
):
    """As-of join two Datasets on (key, ts).

    Returns the left schema + ``{ts}{right_suffix}`` (matched right
    timestamp) + each right value column renamed ``{col}{right_suffix}``.
    ``how='inner'`` drops left rows with no match.

    ``direction``: ``backward`` (default; latest right ts_r <= ts — the
    leakage-safe convention), ``forward`` (earliest ts_r >= ts — a
    declared forward-looking join, e.g. label attachment), ``nearest``
    (closest |ts_r - ts|; ties prefer the backward/prior row, matching
    pandas).  Same single-exchange plan for all three.
    """
    if direction not in ("backward", "forward", "nearest"):
        raise ValueError(direction)
    left_schema = left.schema()
    left_cols = list(left_schema.names)
    right_keep = [key, ts] + ([order_col] if order_col and order_col not in (key, ts) else [])
    right_keep += [c for c in right_value_cols if c not in right_keep]

    right = right.select_columns(right_keep)
    right_schema = right.schema()
    # normalized right column names inside the exchange (avoid collisions)
    r_rename = {
        name: ("__r_" + name if name in left_cols and name not in (key, ts) else name)
        for name in right_schema.names
    }
    both, union_schema = _tag_union(left, right, left_schema,
                                    right_schema, r_rename)

    rv_cols = [r_rename.get(c, c) for c in right_value_cols]
    out_rename = {c: right_value_cols[i] + right_suffix for i, c in enumerate(rv_cols)}
    # the RIGHT side's own order column (possibly renamed) drives the
    # latest-writer-wins dedup; the left's order column only breaks ties
    # in the left sort
    r_order = r_rename.get(order_col, order_col) if order_col else None
    r_sort_extra = [r_order] if r_order and r_order not in (key, ts) else []
    l_sort_extra = [order_col] if order_col and order_col in left_cols else []
    ts_r = ts + right_suffix
    rcols = list(dict.fromkeys([key, ts] + rv_cols + r_sort_extra))

    def merge(tbl: pa.Table) -> pd.DataFrame:
        ldf, rdf = _split_sides(tbl, left_cols, rcols, union_schema)
        # deterministic dedup of right rows on (key, ts): latest order wins
        rdf = rdf.sort_values([key, ts] + r_sort_extra, kind="mergesort")
        rdf = rdf.drop_duplicates([key, ts], keep="last").reset_index(drop=True)
        ldf = ldf.sort_values([ts] + l_sort_extra,
                              kind="mergesort").reset_index(drop=True)
        ridx = _asof_indices(
            ldf[key].to_numpy(), ldf[ts].to_numpy(),
            rdf[key].to_numpy(), rdf[ts].to_numpy(),
            direction, tolerance_us)
        if how == "inner":
            keep = ridx >= 0
            ldf = ldf[keep].reset_index(drop=True)
            ridx = ridx[keep]
        out = ldf
        # gather the matched right values by row index — exact dtypes,
        # no float64 round trip even for >2^53 int64 payloads
        out[ts_r] = _gather(rdf[ts], ridx, out.index)
        for rc in rv_cols:
            out[out_rename[rc]] = _gather(rdf[rc], ridx, out.index)
        return out

    return task_exchange(both, key, merge, num_buckets,
                         batch_format="pyarrow")


def interval_join(
    left,
    right,
    key: str,
    ts: str,
    start_col: str,
    end_col: str,
    right_value_cols: list[str],
    how: str = "inner",
    num_buckets: int = DEFAULT_CONFIG.num_key_buckets,
):
    """Range (interval-containment) join: match each left point row
    (key, ts) to the right interval row of the same key with
    ``start_col <= ts <= end_col`` (inclusive both ends).

    PARTITIONING ASSUMPTION (documented per the custom-operator rule):
    intervals must be NON-OVERLAPPING per key — true by construction for
    sessionization output (ops/window.session_stats), the intended
    producer.  Under that assumption the latest interval starting at or
    before ts is the unique candidate, so the join reduces to ONE
    ``_asof_indices`` backward gallop on ``start_col`` followed by a
    vectorized ``end_col >= ts`` filter — same one-exchange,
    sorted-merge, gather-by-row-index plan as :func:`asof_join` (no
    per-key cartesian product).  For overlapping-but-bounded intervals,
    run k passes with the top-k starts; for unbounded overlap use a
    tree join (out of scope here).

    Output: left schema + start/end + each right value column.
    ``how='left'`` keeps unmatched left rows with nulls.
    """
    left_schema = left.schema()
    left_cols = list(left_schema.names)
    right_keep = list(dict.fromkeys([key, start_col, end_col] + right_value_cols))
    right = right.select_columns(right_keep)
    right_schema = right.schema()

    r_rename = {
        name: ("__r_" + name if name in left_cols and name != key else name)
        for name in right_schema.names
    }
    both, union_schema = _tag_union(left, right, left_schema,
                                    right_schema, r_rename)

    s_c, e_c = r_rename[start_col], r_rename[end_col]
    rv_cols = [r_rename[c] for c in right_value_cols]
    out_names = {s_c: start_col, e_c: end_col,
                 **{rc: right_value_cols[i] for i, rc in enumerate(rv_cols)}}
    rcols = list(dict.fromkeys([key, s_c, e_c] + rv_cols))

    def merge(tbl: pa.Table) -> pd.DataFrame:
        ldf, rdf = _split_sides(tbl, left_cols, rcols, union_schema)
        # non-overlapping intervals per key: the latest start <= ts is
        # the unique candidate — the same composite-code searchsorted
        # gallop as asof_join (_asof_indices; replaced the pandas
        # merge_asof probe r5), then the inclusive end-bound filter
        rdf = rdf.sort_values([key, s_c], kind="mergesort").reset_index(drop=True)
        ldf = ldf.sort_values(ts, kind="mergesort").reset_index(drop=True)
        cand = _asof_indices(
            ldf[key].to_numpy(), ldf[ts].to_numpy(),
            rdf[key].to_numpy(), rdf[s_c].to_numpy(), "backward", None)
        end_vals = _gather(rdf[e_c], cand, ldf.index)
        matched = ((end_vals.notna() & (ldf[ts] <= end_vals))
                   .fillna(False).to_numpy(dtype=bool))
        if how == "inner":
            ldf = ldf[matched].reset_index(drop=True)
            ridx = cand[matched]
        else:
            ridx = np.where(matched, cand, -1)
        out = ldf
        for internal, orig in out_names.items():
            out[orig] = _gather(rdf[internal], ridx, out.index)
        return out

    return task_exchange(both, key, merge, num_buckets,
                         batch_format="pyarrow")

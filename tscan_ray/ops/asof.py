"""Point-in-time (as-of) join — the engine's flagship relational operator.

For each left row (key, ts), find the latest right row of the same key
with ``ts_r <= ts`` (backward direction; ``allow_exact_matches`` keeps
the <= inclusive, which is the leakage-safe convention: a feature known
AT ts is usable AT ts).  Optional tolerance bounds the lookback.

Ray-Data-native design (north rule; no counterpart in the reference —
its only joins are broadcast lexicon lookups, SURVEY.md §2.5):

1. the sides stay apart: ``task_exchange((left, right), key, ...)``
   splits each side's blocks on their own, in their own schema, and
   reads both scans round-robin so they run together;
2. ONE keyed task-shuffle exchange (ops/keyed.py) co-locates each key's
   left and right rows;
3. the bucket UDF gets each side as its own Arrow table in its own
   schema, so each side converts only its own columns to pandas (no
   padding nulls, so int64 ids above 2^53 — e.g. phash — survive
   exactly); a slim (key, ts, row-index) probe of the right side is
   matched against the left rows by :func:`_asof_indices` — one
   composite-code ``searchsorted`` gallop, vectorized across all keys
   in the bucket — and the right payload columns are gathered by row
   index afterwards, again without a float round trip.

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

from tscan_ray.ops.keyed import task_exchange


def side_frame(tbl: pa.Table, cols: list[str]) -> pd.DataFrame:
    """One join side's bucket table as pandas.  A side with no schema at
    all (every block empty, e.g. a row filter that matched nothing)
    arrives as a zero-column table: it reads as zero rows of ``cols``."""
    if tbl.num_columns:
        return tbl.to_pandas()
    return pd.DataFrame({c: pd.Series(dtype=object) for c in cols})


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
    num_buckets: int | None = None,
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
    right_keep = [key, ts] + ([order_col] if order_col and order_col not in (key, ts) else [])
    right_keep += [c for c in right_value_cols if c not in right_keep]
    # the RIGHT side's own order column drives the latest-writer-wins
    # dedup; the left's order column only breaks ties in the left sort
    r_sort_extra = [order_col] if order_col and order_col not in (key, ts) else []
    ts_r = ts + right_suffix

    def merge(lt: pa.Table, rt: pa.Table) -> pd.DataFrame:
        ldf, rdf = side_frame(lt, [key, ts]), side_frame(rt, right_keep)
        # deterministic dedup of right rows on (key, ts): latest order wins
        rdf = rdf.sort_values([key, ts] + r_sort_extra, kind="mergesort")
        rdf = rdf.drop_duplicates([key, ts], keep="last").reset_index(drop=True)
        l_sort_extra = [order_col] if order_col in ldf.columns else []
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
        for rc in right_value_cols:
            out[rc + right_suffix] = _gather(rdf[rc], ridx, out.index)
        return out

    return task_exchange((left, right.select_columns(right_keep)), key,
                         merge, num_buckets, batch_format="pyarrow")


def interval_join(
    left,
    right,
    key: str,
    ts: str,
    start_col: str,
    end_col: str,
    right_value_cols: list[str],
    how: str = "inner",
    num_buckets: int | None = None,
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
    right_keep = list(dict.fromkeys([key, start_col, end_col] + right_value_cols))
    out_cols = list(dict.fromkeys([start_col, end_col] + right_value_cols))

    def merge(lt: pa.Table, rt: pa.Table) -> pd.DataFrame:
        ldf, rdf = side_frame(lt, [key, ts]), side_frame(rt, right_keep)
        # non-overlapping intervals per key: the latest start <= ts is
        # the unique candidate — the same composite-code searchsorted
        # gallop as asof_join (_asof_indices; replaced the pandas
        # merge_asof probe r5), then the inclusive end-bound filter
        rdf = rdf.sort_values([key, start_col],
                              kind="mergesort").reset_index(drop=True)
        ldf = ldf.sort_values(ts, kind="mergesort").reset_index(drop=True)
        cand = _asof_indices(
            ldf[key].to_numpy(), ldf[ts].to_numpy(),
            rdf[key].to_numpy(), rdf[start_col].to_numpy(), "backward", None)
        end_vals = _gather(rdf[end_col], cand, ldf.index)
        matched = ((end_vals.notna() & (ldf[ts] <= end_vals))
                   .fillna(False).to_numpy(dtype=bool))
        if how == "inner":
            ldf = ldf[matched].reset_index(drop=True)
            ridx = cand[matched]
        else:
            ridx = np.where(matched, cand, -1)
        out = ldf
        for c in out_cols:
            out[c] = _gather(rdf[c], ridx, out.index)
        return out

    return task_exchange((left, right.select_columns(right_keep)), key,
                         merge, num_buckets, batch_format="pyarrow")

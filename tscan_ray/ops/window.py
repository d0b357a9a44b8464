"""Windowed timeline operators: lag/lead, forward/backward fill,
sessionization, tumbling-window aggregates.

The reference's only sequence state is document-scoped (prev-sentence
buffer T5, 50-word ring T6 — SURVEY.md §2.9); the engine generalizes
those to the entity-timeline level per the north rule.  All operators:

* establish order explicitly — sort by (key, ts, order_col) *within* a
  key-hash bucket (see ops/keyed.py); never rely on arrival order;
* zero temporal leakage by construction: lag/ffill read only rows with
  ts' < ts (strict) resp. ts' <= ts; lead/bfill are the declared
  forward-looking duals;
* deterministic tie-breaks: equal timestamps are ordered by
  ``order_col`` (e.g. event_id) — required for reproducible retries.

One runner, :func:`timeline`, owns that order: it sorts each bucket's
Arrow table once, hands the operator's column rules (vectorized pandas
``groupby`` transforms over all keys at once, each written once, here)
a pandas frame of only the columns they read, and appends their columns
to the sorted Arrow rows; every other column keeps its Arrow type.
"""

from __future__ import annotations

import itertools

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from tscan_ray.config import DEFAULT_CONFIG
from tscan_ray.ops.keyed import salted_key, task_exchange


def _ts_us(s: pd.Series) -> pd.Series:
    """Timestamp column -> int64 microseconds, unit-safe (pandas may hold
    datetime64[us] from Arrow or datetime64[ns], tz-aware or naive);
    integer columns are assumed to already be microseconds."""
    if isinstance(s.dtype, pd.DatetimeTZDtype):
        # np.issubdtype cannot interpret tz-aware dtypes; normalize to
        # naive UTC first (instant is unchanged)
        s = s.dt.tz_convert("UTC").dt.tz_localize(None)
    if np.issubdtype(s.dtype, np.datetime64):
        return s.astype("datetime64[us]").astype("int64")
    return s.astype("int64")


def timeline_frame(tbl: pa.Table, key: str, ts: str, order_col: str | None,
                   reads: list[str]) -> tuple[pa.Table, pd.DataFrame]:
    """``tbl``'s rows sorted stably on ``(key, ts[, order_col])``, and a
    pandas frame of only the sort columns and those of ``reads`` it has."""
    cols = [key, ts] + ([order_col] if order_col else [])
    tbl = tbl.take(pc.sort_indices(tbl, [(c, "ascending") for c in cols]))
    have = set(tbl.column_names)
    names = [c for c in dict.fromkeys(cols + reads) if c in have]
    return tbl, tbl.select(names).to_pandas()


def timeline(ds, key: str, ts: str, order_col: str | None,
             reads: list[str], columns, num_buckets: int | None,
             map_block=None):
    """One keyed exchange whose kernel sorts each bucket once
    (:func:`timeline_frame`) and appends the columns ``columns(frame)``
    maps name -> values (a dict or DataFrame, in output order) to the
    sorted rows; a name already there is replaced in place."""

    def fn(tbl: pa.Table) -> pa.Table:
        tbl, df = timeline_frame(tbl, key, ts, order_col, reads)
        for name, values in columns(df).items():
            col = pa.array(values, from_pandas=True)
            i = tbl.schema.get_field_index(name)
            tbl = (tbl.set_column(i, name, col) if i >= 0
                   else tbl.append_column(name, col))
        return tbl

    return task_exchange(ds, key, fn, num_buckets, batch_format="pyarrow",
                         map_block=map_block)


def lag_columns(df: pd.DataFrame, key: str, cols: list[str],
                shifts: list[int]) -> dict:
    """``{col}_lag{k}`` (k > 0) / ``{col}_lead{-k}`` (k < 0) per k, col."""
    g = df.groupby(key, sort=False)
    return {c + (f"_lag{k}" if k > 0 else f"_lead{-k}"): g[c].shift(k)
            for k in shifts for c in cols}


def trailing_mean_columns(df: pd.DataFrame, key: str, cols: list[str],
                          window: int, suffix: str | None = None,
                          min_periods: int = 1) -> dict:
    """Mean of each of ``cols`` over the entity's last ``window`` rows."""
    g = df.groupby(key, sort=False)
    return {c + (suffix or f"_rmean{window}"): g[c].transform(
        lambda s: s.rolling(window, min_periods=min_periods).mean())
        for c in cols}


def fill_frame(values: pd.DataFrame, keys: pd.Series,
               method: str = "ffill") -> pd.DataFrame:
    """Each column of ``values`` forward- or backward-filled per key."""
    g = values.groupby(keys, sort=False)
    return g.ffill() if method == "ffill" else g.bfill()


def session_ids(df: pd.DataFrame, key: str, ts: str, gap_us: int) -> pd.Series:
    """0-based session per entity; a gap over ``gap_us`` starts the next."""
    tsv = _ts_us(df[ts])
    prev = tsv.groupby(df[key], sort=False).shift(1)
    new_session = prev.isna() | ((tsv - prev) > gap_us)
    return new_session.groupby(df[key], sort=False).cumsum().astype("int64") - 1


def lag_lead(
    ds,
    key: str,
    ts: str,
    cols: list[str],
    shifts: list[int],
    order_col: str | None = None,
    num_buckets: int | None = None,
):
    """Shift ``cols`` by each k in ``shifts`` within the (key, ts) timeline.

    Positive k = lag (value from k rows earlier: strictly past, leakage-
    free); negative k = lead.  New columns: ``{col}_lag{k}`` / ``{col}_lead{-k}``.
    """
    return timeline(ds, key, ts, order_col, cols,
                    lambda df: lag_columns(df, key, cols, shifts), num_buckets)


def fill(
    ds,
    key: str,
    ts: str,
    cols: list[str],
    method: str = "ffill",
    order_col: str | None = None,
    num_buckets: int | None = None,
    suffix: str = "_filled",
):
    """Forward-fill (from the entity's past only) or backward-fill nulls."""
    if method not in ("ffill", "bfill"):
        raise ValueError(method)

    return timeline(ds, key, ts, order_col, cols, lambda df: fill_frame(
        df[cols], df[key], method).add_suffix(suffix), num_buckets)


def sessionize(
    ds,
    key: str,
    ts: str,
    gap_us: int = DEFAULT_CONFIG.session_gap_us,
    order_col: str | None = None,
    num_buckets: int | None = None,
    out_col: str = "session_id",
):
    """Gap-based sessionization: a new session starts when the gap to the
    entity's previous event exceeds ``gap_us``.  ``session_id`` is 0-based
    per entity (deterministic given (key, ts, order_col) ordering).
    """
    return timeline(ds, key, ts, order_col, [],
                    lambda df: {out_col: session_ids(df, key, ts, gap_us)},
                    num_buckets)


def session_stats(
    ds,
    key: str,
    ts: str,
    value_col: str | None = None,
    gap_us: int = DEFAULT_CONFIG.session_gap_us,
    order_col: str | None = None,
    num_buckets: int | None = None,
):
    """Sessionize then aggregate per (key, session_id): event count, start,
    end, duration (sec), sum(value).  One shuffle total — the per-session
    aggregate happens inside the same bucket UDF (an entity's sessions
    never span buckets), so no second exchange is needed."""

    def fn(tbl: pa.Table) -> pd.DataFrame:
        _, df = timeline_frame(tbl, key, ts, order_col,
                                [value_col] if value_col else [])
        df = df.assign(session_id=session_ids(df, key, ts, gap_us))
        aggs = {"n_events": (ts, "size"), "start_ts": (ts, "min"), "end_ts": (ts, "max")}
        if value_col:
            aggs["sum_value"] = (value_col, "sum")
        out = df.groupby([key, "session_id"], sort=False).agg(**aggs).reset_index()
        out["duration_sec"] = (
            (out["end_ts"] - out["start_ts"]).dt.total_seconds()
            if np.issubdtype(df[ts].dtype, np.datetime64)
            else (out["end_ts"] - out["start_ts"]) / 1e6
        )
        return out

    return task_exchange(ds, key, fn, num_buckets, batch_format="pyarrow")


def tumbling_window(
    ds,
    key: str,
    ts: str,
    value_col: str,
    width_us: int,
    num_buckets: int | None = None,
):
    """Per-entity tumbling-window aggregate: count + sum + mean of
    ``value_col`` per (key, floor(ts/width)).  Pre-aggregates inside the
    bucket UDF — the shuffle moves raw rows once; output is one row per
    (key, window)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        micros = _ts_us(df[ts])
        df = df.assign(window_start=(micros // width_us) * width_us)
        out = (
            df.groupby([key, "window_start"], sort=False)
            .agg(n=(value_col, "size"), sum_value=(value_col, "sum"),
                 mean_value=(value_col, "mean"))
            .reset_index()
        )
        return out

    return task_exchange(ds, key, fn, num_buckets)


def rolling_text_diversity(
    ds,
    key: str,
    ts: str,
    text_col: str,
    window: int,
    order_col: str | None = None,
    num_buckets: int | None = None,
):
    """Trailing-window TTR + MTLD over the entity's last ``window`` texts
    (including the current row; ts' <= ts, leakage-free).

    MTLD is order-dependent and NON-decomposable (forward+reverse passes
    with a partial remainder, reference src/tscan.cxx:1806-1875), so each
    window is walked from its raw tokens — the SURVEY.md §7.4 rule: never
    merge partial MTLD factors.  Tokens are computed once per row (not
    once per window), and one vectorized walk advances every window of
    the bucket together, so the Python steps are the longest window's
    token count, independent of the row count and entity history.

    Adds ``ttr_w{window}`` and ``mtld_w{window}`` columns.
    """
    return timeline(
        ds, key, ts, order_col, [text_col],
        lambda df: rolling_diversity_frame(df, key, text_col, window),
        num_buckets)


def rolling_diversity_frame(df: pd.DataFrame, key: str, text_col: str,
                            window: int) -> pd.DataFrame:
    """The ``ttr_w{window}`` and ``mtld_w{window}`` columns of an ALREADY
    (key, ts)-sorted frame.  Used by :func:`rolling_text_diversity` and
    by the flagship's timeline.

    Row i's window is the lowercased words of its entity's rows
    ``max(entity start, i - window + 1) .. i``; a missing text (None /
    NaN) has no words.  Every row's window goes through one
    :func:`~tscan_ray.text.kernels.windowed_diversity` call."""
    from tscan_ray.text.kernels import windowed_diversity
    from tscan_ray.text.tokenize import words

    rows = [words(x) for x in df[text_col].fillna("").tolist()]
    # lowercase each distinct form once, then map the forms to ids
    codes, forms = pd.factorize(np.asarray(
        list(itertools.chain.from_iterable(rows)), dtype=object))
    ids = pd.factorize(np.asarray([f.lower() for f in forms],
                                  dtype=object))[0][codes]
    n = len(rows)
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=off[1:])
    keys = df[key].to_numpy()
    idx = np.arange(n)
    first = np.ones(n, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    entity_start = np.maximum.accumulate(np.where(first, idx, 0))
    lo = np.maximum(entity_start, idx - window + 1)
    ttrs, mtlds = windowed_diversity(ids, off[lo], off[1:])
    return pd.DataFrame({f"ttr_w{window}": ttrs, f"mtld_w{window}": mtlds},
                        index=df.index)


def rolling_mean(
    ds,
    key: str,
    ts: str,
    cols: list[str],
    window: int,
    order_col: str | None = None,
    num_buckets: int | None = None,
    min_periods: int = 1,
    suffix: str | None = None,
):
    """Trailing rolling mean over the last ``window`` rows of the entity's
    timeline INCLUDING the current row (ts' <= ts: point-in-time safe)."""
    return timeline(ds, key, ts, order_col, cols,
                    lambda df: trailing_mean_columns(df, key, cols, window,
                                                     suffix, min_periods),
                    num_buckets)


def expanding_agg(
    ds,
    key: str,
    ts: str,
    value_col: str,
    order_col: str | None = None,
    num_buckets: int | None = None,
):
    """Expanding (cumulative, point-in-time) aggregates over the entity
    timeline: running count / sum / mean / min / max of ``value_col``
    over all rows with ts' <= ts (including the current row).

    Decomposable the same way as ops/agg.py's 2-phase plan, but the
    running OUTPUT per row requires ordered scan state, so it lives in
    the bucket UDF as vectorized groupby cum* transforms — one exchange,
    no per-row Python.
    """

    def columns(df: pd.DataFrame) -> dict:
        v = df[value_col]
        g = v.groupby(df[key], sort=False)
        # SQL aggregate null rules: count/sum/mean are over NON-null
        # values (pandas cumsum/cummin/cummax already skip NaN; a
        # cumcount-based denominator would count null rows too)
        cnt = v.notna().groupby(df[key], sort=False).cumsum().astype("int64")
        cum = pd.DataFrame({"_csum": g.cumsum(), "_cmin": g.cummin(),
                            "_cmax": g.cummax()})
        if v.isna().any():
            # SQL running sum/min/max AT a null-value row return the
            # aggregate of prior non-null values; pandas cum* emit NaN at
            # the null row itself (they only skip nulls for later rows).
            # Forward-fill per key; rows before the first non-null stay
            # NaN (= SQL NULL, no values in frame yet).
            cum = fill_frame(cum, df[key])
        with np.errstate(invalid="ignore", divide="ignore"):
            cmean = cum["_csum"] / cnt.where(cnt > 0)
        return {value_col + "_cnt": cnt, value_col + "_csum": cum["_csum"],
                value_col + "_cmean": cmean, value_col + "_cmin": cum["_cmin"],
                value_col + "_cmax": cum["_cmax"]}

    return timeline(ds, key, ts, order_col, [value_col], columns, num_buckets)


def topn_per_key(
    ds,
    key: str,
    n: int,
    by: list[str],
    ascending: list[bool] | None = None,
    rank_col: str = "rn",
    num_buckets: int | None = None,
):
    """Per-key top-N: rank rows within each key by ``by`` (row_number
    semantics — ties broken by the full ``by`` list, so make its last
    column unique for determinism) and keep rank <= n.

    Scale: the bucket UDF sorts only its own bucket; a per-batch
    pre-prune (keep each batch's local top-n per key before the
    exchange) keeps shuffled bytes at O(n · keys) when batches hold many
    rows per key.
    """
    ascending = ascending if ascending is not None else [False] * len(by)

    def prune(df: pd.DataFrame) -> pd.DataFrame:
        # local top-n per key: safe pre-filter, the global top-n per key
        # is a subset of every batch-local top-n union
        df = df.sort_values([key] + by, ascending=[True] + list(ascending),
                            kind="mergesort")
        return df[df.groupby(key, sort=False).cumcount() < n]

    pruned = ds.map_batches(prune, batch_format="pandas")

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key] + by, ascending=[True] + list(ascending),
                            kind="mergesort")
        df[rank_col] = df.groupby(key, sort=False).cumcount() + 1
        return df[df[rank_col] <= n]

    return task_exchange(pruned, key, fn, num_buckets)


def sliding_window(
    ds,
    key: str,
    ts: str,
    value_col: str,
    width_us: int,
    hop_us: int,
    num_buckets: int | None = None,
):
    """Per-entity sliding (hopping) window aggregate: count + sum of
    ``value_col`` per (key, window_start) where windows are
    ``[window_start, window_start + width)`` at every multiple of
    ``hop_us``; requires ``width_us % hop_us == 0`` (k = width/hop
    windows contain each row).

    Vectorized replicate-by-k inside the bucket UDF (np.repeat + tiled
    offsets), then a grouped pre-aggregate — the exchange still moves
    each input row once; replication happens after the shuffle, and the
    output is one row per (key, window), k× smaller than the exploded
    intermediate.
    """
    if width_us % hop_us:
        raise ValueError("width_us must be a multiple of hop_us")
    k = width_us // hop_us

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        micros = _ts_us(df[ts]).to_numpy()
        vals = df[value_col].to_numpy()
        keys = df[key].to_numpy()
        n = len(df)
        base = (micros // hop_us) * hop_us  # latest window start containing ts
        offs = np.tile(np.arange(k, dtype=np.int64) * hop_us, n)
        starts = np.repeat(base, k) - offs
        rep = pd.DataFrame({key: np.repeat(keys, k), "window_start": starts,
                            value_col: np.repeat(vals, k)})
        out = (rep.groupby([key, "window_start"], sort=False)
               .agg(n=(value_col, "size"), sum_value=(value_col, "sum"))
               .reset_index())
        return out

    return task_exchange(ds, key, fn, num_buckets)


def _time_rolling_kernel(micros: np.ndarray, vals: np.ndarray,
                         seg_bounds: np.ndarray, window_us: int):
    """Peer-inclusive trailing time-window sum / row count / non-null
    count per row.

    For row i the frame is all rows of its segment with
    ``ts in [ts_i - window_us, ts_i]`` — SQL ``RANGE BETWEEN w PRECEDING
    AND CURRENT ROW`` semantics (equal-ts peers included, so the result
    is independent of intra-timestamp order).  NULL values follow SQL
    aggregate rules: they count toward the row count but not the sum or
    the non-null count (a raw cumsum would instead poison every later
    window of the entity with NaN).  ``seg_bounds`` are the [start, end)
    offsets of each (already sorted) segment.
    """
    n = len(micros)
    out_sum = np.empty(n, dtype=np.float64)
    out_n = np.empty(n, dtype=np.int64)
    out_nn = np.empty(n, dtype=np.int64)
    valid = ~np.isnan(vals)
    filled = np.where(valid, vals, 0.0)
    for s, e in zip(seg_bounds[:-1], seg_bounds[1:]):
        m = micros[s:e]
        csum = np.concatenate([[0.0], np.cumsum(filled[s:e])])
        ccnt = np.concatenate([[0], np.cumsum(valid[s:e])])
        lo = np.searchsorted(m, m - window_us, side="left")
        hi = np.searchsorted(m, m, side="right")
        out_sum[s:e] = csum[hi] - csum[lo]
        out_nn[s:e] = ccnt[hi] - ccnt[lo]
        out_n[s:e] = hi - lo
    return out_sum, out_n, out_nn


def _seg_bounds(*arrays: np.ndarray) -> np.ndarray:
    """[start..end] boundaries of runs where ALL given arrays are equal."""
    n = len(arrays[0])
    change = np.zeros(n, dtype=bool)
    for a in arrays:
        change[1:] |= a[1:] != a[:-1]
    change[:1] = True
    return np.append(np.flatnonzero(change), n)


def rolling_time_agg(
    ds,
    key: str,
    ts: str,
    value_col: str,
    window_us: int,
    slice_us: int | None = None,
    num_buckets: int | None = None,
):
    """Trailing TIME-window aggregate per entity: count / sum / mean of
    ``value_col`` over rows with ``ts' in [ts - window_us, ts]``
    (peer-inclusive, leakage-free).  Adds ``rt_n``, ``rt_sum``,
    ``rt_mean``.

    ``slice_us=None`` (default): one exchange keyed on ``key`` — a hot
    entity's whole timeline lands in one bucket.

    ``slice_us >= window_us``: the HOT-KEY PLAN (SURVEY.md §7.4; north
    rule's salted repartitioning).  The exchange key becomes
    (key, floor(ts/slice_us)), so one entity's timeline spreads over
    many buckets; each row whose ts falls in the last ``window_us`` of
    its slice is REPLICATED once into the next slice as lookback
    context (flagged, excluded from output).  Shuffle growth is bounded
    by window/slice; results match the unsliced plan up to float-sum
    associativity (the per-slice prefix sums can differ in the last
    ulp) — tests assert allclose and the shared SQL oracle.
    """
    if slice_us is not None and slice_us < window_us:
        raise ValueError("slice_us must be >= window_us (one-slice lookback)")

    _SLICE, _CTX, _SKEY = "__slice__", "__ctx__", "__skey__"

    def columns(df: pd.DataFrame, seg_arrays: list[np.ndarray]) -> dict:
        micros = _ts_us(df[ts]).to_numpy()
        vals = df[value_col].to_numpy(dtype=np.float64)
        bounds = _seg_bounds(*seg_arrays)
        s, n, nn = _time_rolling_kernel(micros, vals, bounds, window_us)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = np.where(nn > 0, s / np.maximum(nn, 1), np.nan)
        return {"rt_n": n, "rt_sum": s, "rt_mean": mean}

    if slice_us is None:
        return timeline(ds, key, ts, None, [value_col],
                        lambda df: columns(df, [df[key].to_numpy()]),
                        num_buckets)

    def replicate(df: pd.DataFrame) -> pd.DataFrame:
        micros = _ts_us(df[ts]).to_numpy()
        slc = micros // slice_us
        ctx_mask = micros >= (slc + 1) * slice_us - window_us
        ctx = df[ctx_mask].copy()
        df = df.assign(**{_SLICE: slc, _CTX: np.int8(0)})
        ctx = ctx.assign(**{_SLICE: slc[ctx_mask] + 1, _CTX: np.int8(1)})
        out = pd.concat([df, ctx], ignore_index=True)
        out[_SKEY] = salted_key(out[key].to_numpy(), out[_SLICE].to_numpy() + 1)
        return out

    replicated = ds.map_batches(replicate, batch_format="pandas")

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key, _SLICE, ts], kind="mergesort")
        codes = pd.factorize(df[key], use_na_sentinel=False)[0]
        df = df.assign(**columns(df, [codes, df[_SLICE].to_numpy()]))
        df = df[df[_CTX] == 0]
        return df.drop(columns=[_SLICE, _CTX, _SKEY])

    return task_exchange(replicated, _SKEY, fn, num_buckets)


def expanding_znorm(
    ds,
    key: str,
    ts: str,
    value_col: str,
    order_col: str | None = None,
    num_buckets: int | None = None,
    ddof: int = 1,
):
    """Leakage-free feature scaling: z-score each value against the
    entity's OWN history up to and including the current row (expanding
    mean / sample-std, ``ddof=1``).  Rows with fewer than 2 prior
    observations or zero variance get NaN — the caller decides the
    imputation policy.

    This is the point-in-time alternative to global dataset
    normalization (which leaks future statistics into past rows).
    Vectorized via cumulative sum / sum-of-squares transforms.
    """

    def columns(df: pd.DataFrame) -> dict:
        g = df.groupby(key, sort=False)[value_col]
        # n = running NON-null count (SQL semantics; cumcount would count
        # null rows and bias the mean/std)
        n = (df[value_col].notna().groupby(df[key], sort=False).cumsum()
             .to_numpy(dtype=np.float64))
        s1 = g.cumsum().to_numpy(dtype=np.float64)
        s2 = ((df[value_col] ** 2).groupby(df[key], sort=False)
              .cumsum().to_numpy(dtype=np.float64))
        mean = s1 / n
        with np.errstate(invalid="ignore", divide="ignore"):
            var = (s2 - n * mean**2) / np.maximum(n - ddof, 0)
            var = np.maximum(var, 0.0)  # cancellation can dip epsilon-negative
            std = np.sqrt(var)
            z = (df[value_col].to_numpy(dtype=np.float64) - mean) / std
        z[(n < 2) | (std == 0)] = np.nan
        return {value_col + "_zexp": z}

    return timeline(ds, key, ts, order_col, [value_col], columns, num_buckets)


def rolling_time_distinct(
    ds,
    key: str,
    ts: str,
    value_col: str,
    window_us: int,
    out_col: str = "rt_distinct",
    num_buckets: int | None = None,
):
    """Trailing time-window DISTINCT count per entity: number of distinct
    ``value_col`` values among rows with ``ts' in [ts - window_us, ts]``
    (peer-inclusive, like :func:`rolling_time_agg`).

    Distinct-over-window is not decomposable into cum-sums; the kernel is
    the classic two-pointer sweep with a multiplicity map — both pointers
    only move forward, so the scan is amortized O(1) per row after the
    per-segment binary searches (values are pre-factorized to ints).
    """

    def columns(df: pd.DataFrame) -> dict:
        micros = _ts_us(df[ts]).to_numpy()
        vals = pd.factorize(df[value_col], use_na_sentinel=False)[0]
        bounds = _seg_bounds(df[key].to_numpy())
        out = np.empty(len(df), dtype=np.int64)
        for s, e in zip(bounds[:-1], bounds[1:]):
            m = micros[s:e]
            v = vals[s:e]
            lo_idx = np.searchsorted(m, m - window_us, side="left")
            hi_idx = np.searchsorted(m, m, side="right")
            cnt: dict = {}
            lo = hi = 0
            res = np.empty(e - s, dtype=np.int64)
            for i in range(e - s):
                while hi < hi_idx[i]:
                    cnt[v[hi]] = cnt.get(v[hi], 0) + 1
                    hi += 1
                while lo < lo_idx[i]:
                    c = cnt[v[lo]] - 1
                    if c:
                        cnt[v[lo]] = c
                    else:
                        del cnt[v[lo]]
                    lo += 1
                res[i] = len(cnt)
            out[s:e] = res
        return {out_col: out}

    return timeline(ds, key, ts, None, [value_col], columns, num_buckets)

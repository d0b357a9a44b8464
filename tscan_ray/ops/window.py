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

Everything inside the bucket UDF is vectorized pandas ``groupby``
transforms over all keys at once — no per-entity Python loop.
"""

from __future__ import annotations

import itertools

import numpy as np
import pandas as pd

from tscan_ray.config import DEFAULT_CONFIG
from tscan_ray.ops.keyed import salted_key, task_exchange


def _sort_cols(key: str, ts: str, order_col: str | None) -> list[str]:
    return [key, ts] + ([order_col] if order_col else [])


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


def lag_lead(
    ds,
    key: str,
    ts: str,
    cols: list[str],
    shifts: list[int],
    order_col: str | None = None,
    num_buckets: int = DEFAULT_CONFIG.num_key_buckets,
):
    """Shift ``cols`` by each k in ``shifts`` within the (key, ts) timeline.

    Positive k = lag (value from k rows earlier: strictly past, leakage-
    free); negative k = lead.  New columns: ``{col}_lag{k}`` / ``{col}_lead{-k}``.
    """

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(_sort_cols(key, ts, order_col), kind="mergesort")
        g = df.groupby(key, sort=False)
        for k in shifts:
            name = f"_lag{k}" if k > 0 else f"_lead{-k}"
            for c in cols:
                df[c + name] = g[c].shift(k)
        return df

    return task_exchange(ds, key, fn, num_buckets)


def fill(
    ds,
    key: str,
    ts: str,
    cols: list[str],
    method: str = "ffill",
    order_col: str | None = None,
    num_buckets: int = DEFAULT_CONFIG.num_key_buckets,
    suffix: str = "_filled",
):
    """Forward-fill (from the entity's past only) or backward-fill nulls."""
    if method not in ("ffill", "bfill"):
        raise ValueError(method)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(_sort_cols(key, ts, order_col), kind="mergesort")
        g = df.groupby(key, sort=False)
        for c in cols:
            df[c + suffix] = g[c].ffill() if method == "ffill" else g[c].bfill()
        return df

    return task_exchange(ds, key, fn, num_buckets)


def sessionize(
    ds,
    key: str,
    ts: str,
    gap_us: int = DEFAULT_CONFIG.session_gap_us,
    order_col: str | None = None,
    num_buckets: int = DEFAULT_CONFIG.num_key_buckets,
    out_col: str = "session_id",
):
    """Gap-based sessionization: a new session starts when the gap to the
    entity's previous event exceeds ``gap_us``.  ``session_id`` is 0-based
    per entity (deterministic given (key, ts, order_col) ordering).
    """

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(_sort_cols(key, ts, order_col), kind="mergesort")
        tsv = _ts_us(df[ts])
        prev = tsv.groupby(df[key], sort=False).shift(1)
        new_session = prev.isna() | ((tsv - prev) > gap_us)
        df[out_col] = new_session.groupby(df[key], sort=False).cumsum().astype("int64") - 1
        return df

    return task_exchange(ds, key, fn, num_buckets)


def session_stats(
    ds,
    key: str,
    ts: str,
    value_col: str | None = None,
    gap_us: int = DEFAULT_CONFIG.session_gap_us,
    order_col: str | None = None,
    num_buckets: int = DEFAULT_CONFIG.num_key_buckets,
):
    """Sessionize then aggregate per (key, session_id): event count, start,
    end, duration (sec), sum(value).  One shuffle total — the per-session
    aggregate happens inside the same bucket UDF (an entity's sessions
    never span buckets), so no second exchange is needed."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(_sort_cols(key, ts, order_col), kind="mergesort")
        tsv = _ts_us(df[ts])
        prev = tsv.groupby(df[key], sort=False).shift(1)
        new_session = prev.isna() | ((tsv - prev) > gap_us)
        df = df.assign(session_id=new_session.groupby(df[key], sort=False).cumsum().astype("int64") - 1)
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

    return task_exchange(ds, key, fn, num_buckets)


def tumbling_window(
    ds,
    key: str,
    ts: str,
    value_col: str,
    width_us: int,
    num_buckets: int = DEFAULT_CONFIG.num_key_buckets,
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
    num_buckets: int = DEFAULT_CONFIG.num_key_buckets,
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
    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(_sort_cols(key, ts, order_col), kind="mergesort")
        return rolling_diversity_frame(df, key, text_col, window)

    return task_exchange(ds, key, fn, num_buckets)


def rolling_diversity_frame(df: pd.DataFrame, key: str, text_col: str,
                            window: int) -> pd.DataFrame:
    """Shared kernel: trailing-window TTR/MTLD columns over an ALREADY
    (key, ts)-sorted frame.  Used by :func:`rolling_text_diversity` and by
    the flagship's fused timeline UDF.

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
    df[f"ttr_w{window}"] = ttrs
    df[f"mtld_w{window}"] = mtlds
    return df


def rolling_mean(
    ds,
    key: str,
    ts: str,
    cols: list[str],
    window: int,
    order_col: str | None = None,
    num_buckets: int = DEFAULT_CONFIG.num_key_buckets,
    min_periods: int = 1,
    suffix: str | None = None,
):
    """Trailing rolling mean over the last ``window`` rows of the entity's
    timeline INCLUDING the current row (ts' <= ts: point-in-time safe)."""
    suffix = suffix or f"_rmean{window}"

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(_sort_cols(key, ts, order_col), kind="mergesort")
        g = df.groupby(key, sort=False)
        for c in cols:
            df[c + suffix] = g[c].transform(
                lambda s: s.rolling(window, min_periods=min_periods).mean()
            )
        return df

    return task_exchange(ds, key, fn, num_buckets)


def expanding_agg(
    ds,
    key: str,
    ts: str,
    value_col: str,
    order_col: str | None = None,
    num_buckets: int = DEFAULT_CONFIG.num_key_buckets,
):
    """Expanding (cumulative, point-in-time) aggregates over the entity
    timeline: running count / sum / mean / min / max of ``value_col``
    over all rows with ts' <= ts (including the current row).

    Decomposable the same way as ops/agg.py's 2-phase plan, but the
    running OUTPUT per row requires ordered scan state, so it lives in
    the bucket UDF as vectorized groupby cum* transforms — one exchange,
    no per-row Python.
    """

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(_sort_cols(key, ts, order_col), kind="mergesort")
        g = df.groupby(key, sort=False)[value_col]
        # SQL aggregate null rules: count/sum/mean are over NON-null
        # values (pandas cumsum/cummin/cummax already skip NaN; a
        # cumcount-based denominator would count null rows too)
        df[value_col + "_cnt"] = (
            df[value_col].notna().groupby(df[key], sort=False).cumsum()
            .astype("int64"))
        csum, cmin, cmax = g.cumsum(), g.cummin(), g.cummax()
        if df[value_col].isna().any():
            # SQL running sum/min/max AT a null-value row return the
            # aggregate of prior non-null values; pandas cum* emit NaN at
            # the null row itself (they only skip nulls for later rows).
            # Forward-fill per key; rows before the first non-null stay
            # NaN (= SQL NULL, no values in frame yet).
            gk = df[key]
            csum = csum.groupby(gk, sort=False).ffill()
            cmin = cmin.groupby(gk, sort=False).ffill()
            cmax = cmax.groupby(gk, sort=False).ffill()
        df[value_col + "_csum"] = csum
        with np.errstate(invalid="ignore", divide="ignore"):
            df[value_col + "_cmean"] = (
                df[value_col + "_csum"] / df[value_col + "_cnt"].where(
                    df[value_col + "_cnt"] > 0))
        df[value_col + "_cmin"] = cmin
        df[value_col + "_cmax"] = cmax
        return df

    return task_exchange(ds, key, fn, num_buckets)


def topn_per_key(
    ds,
    key: str,
    n: int,
    by: list[str],
    ascending: list[bool] | None = None,
    rank_col: str = "rn",
    num_buckets: int = DEFAULT_CONFIG.num_key_buckets,
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
    num_buckets: int = DEFAULT_CONFIG.num_key_buckets,
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
    change[0] = True
    return np.append(np.flatnonzero(change), n)


def rolling_time_agg(
    ds,
    key: str,
    ts: str,
    value_col: str,
    window_us: int,
    slice_us: int | None = None,
    num_buckets: int = DEFAULT_CONFIG.num_key_buckets,
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

    def compute(df: pd.DataFrame, seg_arrays: list[np.ndarray]) -> pd.DataFrame:
        if df.empty:  # a hash bucket no key mapped to
            return df.assign(rt_n=pd.Series(dtype="int64"),
                             rt_sum=pd.Series(dtype="float64"),
                             rt_mean=pd.Series(dtype="float64"))
        micros = _ts_us(df[ts]).to_numpy()
        vals = df[value_col].to_numpy(dtype=np.float64)
        bounds = _seg_bounds(*seg_arrays)
        s, n, nn = _time_rolling_kernel(micros, vals, bounds, window_us)
        df["rt_n"] = n
        df["rt_sum"] = s
        with np.errstate(invalid="ignore", divide="ignore"):
            df["rt_mean"] = np.where(nn > 0, s / np.maximum(nn, 1), np.nan)
        return df

    if slice_us is None:
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            df = df.sort_values([key, ts], kind="mergesort")
            return compute(df, [df[key].to_numpy()])

        return task_exchange(ds, key, fn, num_buckets)

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
        df = compute(df, [codes, df[_SLICE].to_numpy()])
        df = df[df[_CTX] == 0]
        return df.drop(columns=[_SLICE, _CTX, _SKEY])

    return task_exchange(replicated, _SKEY, fn, num_buckets)


def expanding_znorm(
    ds,
    key: str,
    ts: str,
    value_col: str,
    order_col: str | None = None,
    num_buckets: int = DEFAULT_CONFIG.num_key_buckets,
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

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(_sort_cols(key, ts, order_col), kind="mergesort")
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
        df[value_col + "_zexp"] = z
        return df

    return task_exchange(ds, key, fn, num_buckets)


def rolling_time_distinct(
    ds,
    key: str,
    ts: str,
    value_col: str,
    window_us: int,
    out_col: str = "rt_distinct",
    num_buckets: int = DEFAULT_CONFIG.num_key_buckets,
):
    """Trailing time-window DISTINCT count per entity: number of distinct
    ``value_col`` values among rows with ``ts' in [ts - window_us, ts]``
    (peer-inclusive, like :func:`rolling_time_agg`).

    Distinct-over-window is not decomposable into cum-sums; the kernel is
    the classic two-pointer sweep with a multiplicity map — both pointers
    only move forward, so the scan is amortized O(1) per row after the
    per-segment binary searches (values are pre-factorized to ints).
    """

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return df.assign(**{out_col: pd.Series(dtype="int64")})
        df = df.sort_values([key, ts], kind="mergesort")
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
        df[out_col] = out
        return df

    return task_exchange(ds, key, fn, num_buckets)

"""Two-phase (partial/combiner) aggregation.

The scale-critical groupby pattern: combine inside ``map_batches``
FIRST so the all-to-all exchange moves one row per (key, batch) instead
of one row per input row, then a small ``groupby`` reduces the partials.
For sum/count/min/max/mean this is exact (commutative-associative
merge); the reference's structStats::merge has the same algebra
(src/structstats.cxx:1374-1695).

Skew handling: the partial phase already collapses hot keys inside each
batch, which is what salting achieves for pure aggregation — a key with
10^9 rows reaches the exchange as (num_batches) partial rows.  (Hot keys
are salted only where rows, not partials, must meet:
``ops/window.rolling_time_agg(slice_us=)``.)
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def groupby_sum_2phase(
    ds,
    keys: list[str],
    value_cols: list[str],
    count_alias: str = "n",
):
    """sum(value_cols) + count(*) per ``keys`` with batch-side partials.

    Returns one row per key combination, columns ``sum_{col}`` and
    ``count_alias``.

    The reduction runs on the parallel task exchange (ops/keyed.py),
    keyed on ``keys[0]`` — all partials of one key combination land in
    one bucket, so the in-bucket pandas groupby completes every group.
    """
    from tscan_ray.ops.keyed import task_exchange

    sum_names = [f"sum_{c}" for c in value_cols]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(keys, sort=False, dropna=False)
        out = g[value_cols].sum().reset_index()
        out.columns = keys + sum_names
        out[count_alias] = g.size().to_numpy()
        return out

    partials = ds.map_batches(partial, batch_format="pandas")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return df
        return (df.groupby(keys, sort=False, dropna=False)
                [sum_names + [count_alias]].sum().reset_index())

    return task_exchange(partials, keys[0], fold)


def pivot_counts(
    ds,
    key: str,
    pivot_col: str,
    values: list[str],
    num_buckets: int | None = None,
):
    """Pivot/crosstab: one row per key with a ``n_{value}`` count column
    per listed pivot value (unlisted values are ignored — the column set
    must be declared up front, as in SQL ``COUNT(*) FILTER``).

    Same 2-phase shape as :func:`groupby_sum_2phase`: the per-batch
    partial collapses to (keys-in-batch × len(values)) cells before the
    exchange, so a hot key ships one partial row per batch regardless of
    its row count.
    """
    from tscan_ray.ops.keyed import task_exchange

    cols = [f"n_{v}" for v in values]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        keys = df[key]
        out = {}
        for v, c in zip(values, cols):
            # dropna=False: SQL GROUP BY keeps a NULL-key group
            out[c] = (df[pivot_col] == v).groupby(keys, sort=False,
                                                  dropna=False).sum()
        res = pd.DataFrame(out).reset_index()
        return res

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(key, sort=False, dropna=False)[cols].sum().reset_index()
        for c in cols:
            out[c] = out[c].astype("int64")
        return out

    return task_exchange(ds.map_batches(partial, batch_format="pandas"),
                         key, fold, num_buckets)


def groupby_stats_robust(
    ds,
    key: str,
    value_col: str,
    ts_col: str | None = None,
    num_buckets: int | None = None,
):
    """Per-key robust statistics: median, MAD (median absolute
    deviation, unscaled), and — when ``ts_col`` is given — the Pearson
    correlation of ``value_col`` against the event time.

    Median/MAD are holistic (not decomposable into partials), so unlike
    :func:`groupby_sum_2phase` the raw rows must co-locate: one keyed
    exchange, then vectorized pandas groupby medians inside the bucket.
    The correlation centers both series per key before the products —
    epoch-microsecond magnitudes would otherwise cancel catastrophically
    in float64.
    """
    from tscan_ray.ops.keyed import task_exchange

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        # dropna=False throughout: SQL GROUP BY keeps a NULL-key group
        g = df.groupby(key, sort=False, dropna=False)
        med = g[value_col].median()
        dev = (df[value_col] - df[key].map(med)).abs()
        mad = dev.groupby(df[key], sort=False, dropna=False).median()
        out = pd.DataFrame({key: med.index,
                            "med_value": med.to_numpy(),
                            "mad_value": mad.reindex(med.index).to_numpy()})
        if ts_col is not None:
            from tscan_ray.ops.window import _ts_us

            t = df[ts_col]
            if not np.issubdtype(getattr(t.dtype, "type", object), np.floating):
                t = _ts_us(t)  # tz-aware/naive timestamps or int micros
            t = t.astype("float64")
            cx = df[value_col] - df[key].map(g[value_col].mean())
            ty = t.groupby(df[key], sort=False, dropna=False).transform("mean")
            cy = t - ty
            sxy = (cx * cy).groupby(df[key], sort=False, dropna=False).sum()
            sxx = (cx * cx).groupby(df[key], sort=False, dropna=False).sum()
            syy = (cy * cy).groupby(df[key], sort=False, dropna=False).sum()
            with np.errstate(invalid="ignore", divide="ignore"):
                corr = sxy / np.sqrt(sxx * syy)
            out["corr_ts"] = corr.reindex(med.index).to_numpy()
        return out

    return task_exchange(ds, key, fn, num_buckets)

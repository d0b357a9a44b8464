"""Flagship pipeline: image+caption table -> validated, featurized,
point-in-time-enriched feature table.

    documents ──synth──▶ images(image_id bytes w h fmt caption phash entity_id ts)
        │ (or a pre-materialized images table read from ``images_path``)
        │ ONE fused actor pool: decode+validate (PSNR>=40, ahash, drop
        │ bytes BEFORE any shuffle) → caption featurizer (T-scan vector)
        ▼
    timeline layer — ONE keyed exchange computing, per entity ordered by ts:
        lag-1 of selected features (strictly past), trailing rolling mean,
        gap-based session_id, and the snapshot as-of features
        ("feature vector as of the entity's last k-th-event snapshot" —
        right side ⊆ left rows, so the as-of reduces to a marked-row
        forward fill inside the same bucket UDF)
        ▼
    state.manifest.resumable_write (key-hash partitions + manifests)

Scale shape: exactly ONE all-to-all exchange, carrying only the narrow
feature columns (binary payload dropped at decode).  Everything else
streams with backpressure.
"""

from __future__ import annotations

import pandas as pd

from tscan_ray.config import DEFAULT_CONFIG, EngineConfig
from tscan_ray.ops.keyed import salted_key, task_exchange
from tscan_ray.sources.images import synth_images
from tscan_ray.stages.featurizer import cluster_cpus, pool_size

# features carried into the timeline layer (keep the shuffle narrow)
TIMELINE_FEATURES = ["MTLD_wrd", "TTR_wrd", "Wrd_freq_log", "wordCnt"]
KEEP_COLS = ["image_id", "caption", "phash", "entity_id", "ts", "psnr_db", "ahash"]


class DecodeFeaturize:
    """Fused decode+validate → caption-featurize actor (one pool, one
    handoff).  Composes the two stage classes — setup for both happens
    once per actor; each batch flows decoder → featurizer in-process."""

    def __init__(self, cfg: EngineConfig = DEFAULT_CONFIG,
                 n_entities: int | None = 50,
                 keep_columns: list[str] | None = None):
        from tscan_ray.stages.decode import DecodeValidate
        from tscan_ray.stages.featurizer import CaptionFeaturizer

        self.decoder = DecodeValidate(cfg=cfg, drop_bytes=True,
                                      n_entities=n_entities)
        self.featurizer = CaptionFeaturizer(text_column="caption", cfg=cfg,
                                            keep_columns=keep_columns)

    def __call__(self, batch):
        return self.featurizer(self.decoder(batch))


def add_timeline_features(
    ds,
    key: str = "entity_id",
    ts: str = "ts",
    order_col: str = "image_id",
    feature_cols: list[str] = TIMELINE_FEATURES,
    rolling_window: int = 5,
    cfg: EngineConfig = DEFAULT_CONFIG,
    num_buckets: int | None = None,
    snapshot_every: int | None = None,
    n_entities: int | None = None,
    diversity_window: int | None = 5,
    text_col: str = "caption",
    hot_slice_us: int | None = None,
):
    """Lag-1 + trailing rolling mean + session_id + windowed TTR/MTLD over
    the entity's trailing captions — and, when ``snapshot_every`` is set,
    the snapshot as-of features — in ONE keyed exchange (fused bucket UDF
    instead of chained shuffles).  MTLD is non-decomposable, so the
    window recomputes from buffered tokens (SURVEY.md §7.4).

    The snapshot as-of is the degenerate-but-common case where the right
    side is a subset of the left rows: "latest snapshot row with
    ts' <= ts" then reduces to a per-entity forward-fill of the marked
    rows' values — no second exchange, no dataset fork (a lazy Dataset
    consumed by two branches would recompute its whole upstream).  The
    general two-sided operator is ops/asof.asof_join.

    ``hot_slice_us``: skew hardening (SURVEY §4.2's pathological phash
    bucket).  When set, the exchange key becomes (entity, ts-slice) so a
    Zipf-hot entity spreads over many reduce tasks instead of one —
    see :func:`add_timeline_features_sliced` for the exactness contract
    (previous-slice context must cover the row windows)."""
    if hot_slice_us is not None:
        return add_timeline_features_sliced(
            ds, key=key, ts=ts, order_col=order_col,
            feature_cols=feature_cols, rolling_window=rolling_window,
            cfg=cfg, num_buckets=num_buckets,
            snapshot_every=snapshot_every, n_entities=n_entities,
            diversity_window=diversity_window, text_col=text_col,
            slice_us=hot_slice_us)

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key, ts, order_col], kind="mergesort")
        g = df.groupby(key, sort=False)
        for c in feature_cols:
            df[c + "_lag1"] = g[c].shift(1)
            df[c + f"_rmean{rolling_window}"] = g[c].transform(
                lambda s: s.rolling(rolling_window, min_periods=1).mean()
            )
        tsv = df[ts].astype("datetime64[us]").astype("int64")
        prev = tsv.groupby(df[key], sort=False).shift(1)
        new_session = prev.isna() | ((tsv - prev) > cfg.session_gap_us)
        df["session_id"] = (
            new_session.groupby(df[key], sort=False).cumsum().astype("int64") - 1
        )
        if diversity_window is not None and text_col in df.columns:
            from tscan_ray.ops.window import rolling_diversity_frame

            df = rolling_diversity_frame(df, key, text_col, diversity_window)
        if snapshot_every is not None:
            seq = df[order_col].str.slice(4).astype("int64") // (n_entities or 1)
            is_snap = (seq % snapshot_every) == 0
            df["ts_snap"] = df[ts].where(is_snap)
            df["ts_snap"] = df.groupby(key, sort=False)["ts_snap"].ffill()
            for c in feature_cols:
                df[c + "_snap"] = df[c].where(is_snap)
                df[c + "_snap"] = df.groupby(key, sort=False)[c + "_snap"].ffill()
        return df

    return task_exchange(ds, key, fn, num_buckets or cfg.num_key_buckets)


def add_timeline_features_sliced(
    ds,
    key: str = "entity_id",
    ts: str = "ts",
    order_col: str = "image_id",
    feature_cols: list[str] = TIMELINE_FEATURES,
    rolling_window: int = 5,
    cfg: EngineConfig = DEFAULT_CONFIG,
    num_buckets: int | None = None,
    snapshot_every: int | None = None,
    n_entities: int | None = None,
    diversity_window: int | None = 5,
    text_col: str = "caption",
    slice_us: int = 3_600_000_000,
    hot_min_rows: int | None = None,
    ctx_us: int | None = None,
):
    """Skew-hardened timeline: HOT entities exchange on (entity,
    ts-slice) so one pathological key spreads over many reduce tasks;
    cold entities keep the exact whole-entity path in the same exchange.

    Two-phase plan (all exchanges hash-partitioned, nothing wide on the
    driver):

    1. a NARROW pre-exchange (key, ts, snapshot feature rows only —
       tens of bytes/row vs the wide caption-bearing feature row) over
       the same (key, slice) keying computes per-slice summaries:
       per-key row counts, sessions-started-per-slice (exact: a
       ``session_gap_us`` context window suffices — if no row falls in
       it, the gap exceeds the threshold either way), and each slice's
       last snapshot row;
    2. the driver reduces the TINY summary table (one row per
       key x slice) into per-(hot key, slice) session offsets and
       snapshot carry-ins, broadcast via ``ray.put``; the MAIN exchange
       then computes lag/rolling/diversity from previous-slice context
       rows and seeds session ids / snapshot ffill from the carry.

    Exactness contract: identical to :func:`add_timeline_features`
    PROVIDED every hot (key, slice) context span (one full slice) holds
    at least ``max(rolling_window, diversity_window) - 1`` rows — the
    regime where a key is hot enough to need salting.  Cold keys
    (< ``hot_min_rows``, default 3 slices' average) are exact
    unconditionally.  Covered by tests/test_flagship.py equality tests.
    """
    import numpy as np
    import ray

    gap_us = cfg.session_gap_us
    # context span: must cover the last max(rolling, diversity)-1 rows
    # of a hot key plus the session gap; defaults to one full slice
    # (always safe for keys hot enough to need salting), tunable down
    # when the hot key's density is known — ctx rows are recomputed, so
    # a tighter span cuts duplicated kernel work
    if ctx_us is None:
        ctx_us = slice_us
    ctx_us = max(ctx_us, gap_us)
    nb = num_buckets or cfg.num_key_buckets
    sort_cols = ["__slc__", ts, order_col]

    def _ts_us(col: pd.Series) -> np.ndarray:
        return col.astype("datetime64[us]").astype("int64").to_numpy()

    def _snap_seq(df: pd.DataFrame) -> pd.Series:
        return df[order_col].str.slice(4).astype("int64") // (n_entities or 1)

    def _salt(df: pd.DataFrame) -> pd.DataFrame:
        df["__skey__"] = salted_key(df[key].to_numpy(),
                                    df["__slc__"].to_numpy() + 2)
        return df

    # ---- phase 1: narrow summaries ------------------------------------
    def narrow(df: pd.DataFrame) -> pd.DataFrame:
        cols = [key, ts, order_col] + list(feature_cols)
        out = df[[c for c in cols if c in df.columns]].copy()
        tsu = _ts_us(out[ts])
        slc = tsu // slice_us
        ctx_mask = tsu >= (slc + 1) * slice_us - gap_us
        ctx = out[ctx_mask].copy()
        out["__slc__"] = slc
        out["__ctx__"] = np.int8(0)
        ctx["__slc__"] = slc[ctx_mask] + 1
        ctx["__ctx__"] = np.int8(1)
        return _salt(pd.concat([out, ctx], ignore_index=True))

    def summarize(df: pd.DataFrame) -> pd.DataFrame:
        cols_out = [key, "__slc__", "n_rows", "n_sess", "snap_ts"] + [
            "snap_" + c for c in feature_cols]

        def _empty(kdt) -> pd.DataFrame:
            dtypes = {key: kdt, "__slc__": "int64", "n_rows": "int64",
                      "n_sess": "int64", "snap_ts": "datetime64[us]",
                      **{"snap_" + c: "float64" for c in feature_cols}}
            return pd.DataFrame({c: pd.Series(dtype=dtypes[c])
                                 for c in cols_out})

        if df.empty:
            return _empty(df[key].dtype if key in df.columns else "int64")
        df = df.sort_values([key, *sort_cols], kind="mergesort")
        tsu = _ts_us(df[ts])
        kcode = pd.factorize(df[key], use_na_sentinel=False)[0]
        seg = kcode * (df["__slc__"].max() + 2) + df["__slc__"].to_numpy()
        first = np.r_[True, seg[1:] != seg[:-1]]
        prev_ts = np.r_[np.int64(0), tsu[:-1]]
        new_sess = first | ((tsu - prev_ts) > gap_us)
        real = df["__ctx__"].to_numpy() == 0
        gdf = df.assign(__new__=new_sess)[real]
        if gdf.empty:
            return _empty(df[key].dtype)
        agg = (gdf.groupby([key, "__slc__"], sort=False)
               .agg(n_rows=(ts, "size"), n_sess=("__new__", "sum"))
               .reset_index())
        agg["snap_ts"] = pd.Series(pd.NaT, index=agg.index,
                                   dtype="datetime64[us]")
        for c in feature_cols:
            agg["snap_" + c] = np.nan
        if snapshot_every is not None:
            snaps = gdf[(_snap_seq(gdf) % snapshot_every) == 0]
            if len(snaps):
                last = (snaps.groupby([key, "__slc__"], sort=False)
                        .tail(1)
                        .rename(columns={ts: "snap_ts", **{
                            c: "snap_" + c for c in feature_cols}}))
                keep = [key, "__slc__", "snap_ts"] + [
                    "snap_" + c for c in feature_cols]
                agg = agg.drop(columns=["snap_ts"] + [
                    "snap_" + c for c in feature_cols]).merge(
                    last[keep], on=[key, "__slc__"], how="left")
        return agg.reindex(columns=cols_out)

    summaries = task_exchange(ds.map_batches(narrow, batch_format="pandas"),
                              "__skey__", summarize, nb).to_pandas()
    summaries = summaries.sort_values([key, "__slc__"], kind="mergesort")

    counts = summaries.groupby(key)["n_rows"].sum()
    if hot_min_rows is None:
        hot_min_rows = max(int(counts.mean() * 3), 1) if len(counts) else 1
    hot_keys = frozenset(counts[counts >= hot_min_rows].index)

    carry: dict = {}
    for k, grp in summaries[summaries[key].isin(hot_keys)].groupby(
            key, sort=False):
        sess_before = 0
        snap = None
        for _, r in grp.iterrows():
            s = r["__slc__"]
            carry[(k, s)] = (sess_before, snap)
            sess_before += int(r["n_sess"])
            if snapshot_every is not None and pd.notna(r["snap_ts"]):
                snap = (r["snap_ts"],
                        tuple(r["snap_" + c] for c in feature_cols))
    carry_ref = ray.put((hot_keys, carry))

    # ---- phase 2: main sliced exchange --------------------------------
    def replicate(df: pd.DataFrame) -> pd.DataFrame:
        hot, _ = ray.get(carry_ref)
        tsu = _ts_us(df[ts])
        is_hot = df[key].isin(hot).to_numpy()
        slc = np.where(is_hot, tsu // slice_us, np.int64(-1))
        ctx_mask = is_hot & (tsu >= (slc + 1) * slice_us - ctx_us)
        ctx = df[ctx_mask].copy()
        df = df.assign(__slc__=slc, __ctx__=np.int8(0))
        ctx = ctx.assign(__slc__=slc[ctx_mask] + 1, __ctx__=np.int8(1))
        return _salt(pd.concat([df, ctx], ignore_index=True))

    def kern(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return df
        _, cmap = ray.get(carry_ref)
        df = df.sort_values([key, *sort_cols], kind="mergesort")
        seg_key = [key, "__slc__"]
        g = df.groupby(seg_key, sort=False)
        for c in feature_cols:
            df[c + "_lag1"] = g[c].shift(1)
            df[c + f"_rmean{rolling_window}"] = g[c].transform(
                lambda s: s.rolling(rolling_window, min_periods=1).mean())
        tsu = _ts_us(df[ts])
        prev = pd.Series(tsu, index=df.index).groupby(
            [df[key], df["__slc__"]], sort=False).shift(1)
        new_sess = prev.isna() | ((tsu - prev) > gap_us)
        # session index: carry offset + cumsum over the slice's REAL rows
        real = df["__ctx__"].to_numpy() == 0
        flags = new_sess.to_numpy() & real
        local = pd.Series(flags, index=df.index).groupby(
            [df[key], df["__slc__"]], sort=False).cumsum().to_numpy()
        offs = np.zeros(len(df), dtype=np.int64)
        snap_seed: list = [None] * len(df)
        pos = 0
        for (k, s), grp in df.groupby(seg_key, sort=False):
            c = cmap.get((k, s))
            if c is not None:
                offs[pos:pos + len(grp)] = c[0]
                if c[1] is not None:
                    snap_seed[pos] = c[1]
            pos += len(grp)
        df["session_id"] = (local + offs - 1).astype("int64")
        if diversity_window is not None and text_col in df.columns:
            from tscan_ray.ops.window import rolling_diversity_frame

            df["__seg__"] = (pd.factorize(df[key], use_na_sentinel=False)[0]
                             * (df["__slc__"].max() + 2)
                             + df["__slc__"].to_numpy())
            df = rolling_diversity_frame(df, "__seg__", text_col,
                                         diversity_window)
            df = df.drop(columns=["__seg__"])
        if snapshot_every is not None:
            is_snap = ((_snap_seq(df) % snapshot_every) == 0) & real
            df["ts_snap"] = df[ts].where(is_snap)
            for c in feature_cols:
                df[c + "_snap"] = df[c].where(is_snap)
            # seed each segment's head with the carry-in snapshot
            pos = 0
            for (k, s), grp in df.groupby(seg_key, sort=False):
                seed = snap_seed[pos]
                if seed is not None and pd.isna(df["ts_snap"].iat[pos]):
                    df.iat[pos, df.columns.get_loc("ts_snap")] = seed[0]
                    for ci, c in enumerate(feature_cols):
                        if pd.isna(df[c + "_snap"].iat[pos]):
                            df.iat[pos, df.columns.get_loc(c + "_snap")] = \
                                seed[1][ci]
                pos += len(grp)
            gg = df.groupby(seg_key, sort=False)
            df["ts_snap"] = gg["ts_snap"].ffill()
            for c in feature_cols:
                df[c + "_snap"] = gg[c + "_snap"].ffill()
        df = df[real]
        return df.drop(columns=["__slc__", "__ctx__", "__skey__"])

    return task_exchange(ds.map_batches(replicate, batch_format="pandas"),
                         "__skey__", kern, nb)


def amplify_docs(docs, sf_dir: str, amplify: int):
    """Deterministically replicate the documents table ``amplify``x with
    fresh doc_ids, INSIDE one map op (a union of K read branches adds
    ~2K operators of fixed streaming-executor overhead), then re-split
    so downstream codec work fans out."""
    import pyarrow.parquet as pq

    if amplify <= 1:
        return docs
    n0 = pq.read_metadata(f"{sf_dir}/documents.parquet").num_rows

    def replicate(batch):
        import pyarrow as pa
        import pyarrow.compute as pc

        i = batch.column_names.index("doc_id")
        copies = [batch]
        for r in range(1, amplify):
            copies.append(batch.set_column(
                i, "doc_id",
                pc.add(batch.column("doc_id"), pa.scalar(r * n0))))
        return pa.concat_tables(copies)

    return docs.map_batches(replicate, batch_format="pyarrow",
                            zero_copy_batch=True).repartition(
                                cluster_cpus() * 4)


def synthesized_images(sf_dir: str, n_entities: int = 50, amplify: int = 1,
                       cfg: EngineConfig = DEFAULT_CONFIG):
    """The image+caption table synthesized from
    ``{sf_dir}/documents.parquet`` (every value a pure function of
    doc_id, so it equals a table materialized from the same call)."""
    from tscan_ray.sources.io import read_table

    docs = read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return synth_images(amplify_docs(docs, sf_dir, amplify),
                        n_entities=n_entities, cfg=cfg)


def materialize_images(
    sf_dir: str,
    out_path: str,
    n_entities: int = 50,
    amplify: int = 1,
    cfg: EngineConfig = DEFAULT_CONFIG,
) -> str:
    """Synthesize the image+caption table to parquet (benchmark setup /
    fixture generation — NOT part of the timed pipeline)."""
    images = synthesized_images(sf_dir, n_entities, amplify, cfg)
    if amplify <= 1:  # amplify_docs already re-split the amplified docs
        images = images.repartition(cluster_cpus() * 4)
    images.write_parquet(out_path)
    return out_path


def flagship(
    sf_dir: str | None,
    n_entities: int = 50,
    cfg: EngineConfig = DEFAULT_CONFIG,
    snapshot_every: int = 5,
    num_buckets: int | None = None,
    amplify: int = 1,
    images_path: str | None = None,
    hot_slice_us: int | None = None,
):
    """Run the full pipeline over {sf_dir}/documents.parquet and return
    the enriched Dataset (feed it to ``state.manifest.resumable_write``).

    ``amplify=K`` deterministically replicates the input K× with fresh
    doc_ids (every synthesized value is a pure function of doc_id) — used
    by the scaling benchmark to measure steady-state throughput instead
    of fixed startup overhead on the small fixture tables.

    ``images_path``: read a pre-materialized images table (parquet dir)
    instead of synthesizing inline — the production shape, where the
    pipeline is read → decode/validate → featurize → timeline → sink and
    data generation is not on the clock.  Both sources feed the same
    stages and give the same rows."""
    if images_path is not None:
        from tscan_ray.sources.io import read_table

        images = read_table(images_path)  # Lance when available, else parquet
    else:
        images = synthesized_images(sf_dir, n_entities, amplify, cfg)
    # ONE fused decode+featurize pool: both stages are pure per-row CPU,
    # so splitting them bought nothing but a second pool's process-spawn/
    # import cost and an extra object-store handoff of every row.  Fusing
    # cuts the fixed startup that dominates the strong-scaling
    # denominator (BASELINE.md).
    feats = images.map_batches(
        DecodeFeaturize,
        fn_constructor_kwargs={"cfg": cfg, "n_entities": n_entities,
                               "keep_columns": KEEP_COLS},
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=cfg.featurizer_batch_size,
        concurrency=pool_size(),
    )
    return add_timeline_features(
        feats, cfg=cfg, num_buckets=num_buckets or cfg.num_key_buckets,
        snapshot_every=snapshot_every, n_entities=n_entities,
        hot_slice_us=hot_slice_us,
    )

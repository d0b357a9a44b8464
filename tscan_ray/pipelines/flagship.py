"""Flagship pipeline: image+caption table -> validated, featurized,
point-in-time-enriched feature table.

    documents ──synth──▶ images(image_id bytes w h fmt caption phash entity_id ts)
        │ (or a pre-materialized images table read from ``images_path``;
        │ Ray Data runs only this read / synthesis)
        ▼
    timeline layer — ONE keyed exchange (ops/keyed.task_exchange):
      map side, one split task per images block, on every CPU:
        decode+validate (PSNR>=40, ahash, drop bytes) → caption
        featurizer (T-scan vector), in featurizer_batch_size slices,
        then the rows sorted by bucket and put once as an IPC buffer
      reduce side, the ops/window timeline runner, per entity ordered
        by (ts, image_id): lag-1 of selected features (strictly past),
        trailing rolling mean, gap-based session_id, windowed TTR/MTLD
        of the captions, and the snapshot as-of features ("feature
        vector as of the entity's last k-th-event snapshot" — right
        side ⊆ left rows, so the as-of reduces to a marked-row forward
        fill inside the same bucket kernel)
        ▼
    state.manifest.resumable_write (key-hash partitions + manifests)

Scale shape: exactly ONE all-to-all exchange.  It carries the whole
featurized row, ~746 columns (the binary payload is dropped at decode,
before the rows leave the split task).  The timeline kernel sorts the
bucket in Arrow and converts only ``entity_id``, ``ts``, ``image_id``,
``caption`` and ``TIMELINE_FEATURES`` to pandas; its 16 columns are
appended to the sorted Arrow rows, so the other columns never pass
through pandas.  Everything else streams with backpressure.
"""

from __future__ import annotations

from functools import partial

from tscan_ray.config import DEFAULT_CONFIG, EngineConfig
from tscan_ray.ops import window
from tscan_ray.ops.keyed import cluster_cpus
from tscan_ray.sources.images import IMAGE_SCHEMA, synth_images
from tscan_ray.stages import map_slices
from tscan_ray.text import features

# the features the timeline kernel reads (the exchange carries every column)
TIMELINE_FEATURES = ["MTLD_wrd", "TTR_wrd", "Wrd_freq_log", "wordCnt"]
KEEP_COLS = ["image_id", "caption", "phash", "entity_id", "ts", "psnr_db", "ahash"]


class DecodeFeaturize:
    """Decode+validate → caption-featurize over one Arrow batch.  The
    flagship's split tasks build one per slice through
    ``stages.map_slices`` (the lexicons and LM are process-cached, so a
    build costs about 2 ms); perfbench also runs it as an actor and
    in-process.
    ``custom_groups`` goes to :class:`CaptionFeaturizer`: the snapshot of
    the pipeline builder's ``register_feature_group`` registry."""

    def __init__(self, cfg: EngineConfig = DEFAULT_CONFIG,
                 n_entities: int | None = 50,
                 keep_columns: list[str] | None = None,
                 custom_groups: dict | None = None):
        from tscan_ray.stages.decode import DecodeValidate
        from tscan_ray.stages.featurizer import CaptionFeaturizer

        self.decoder = DecodeValidate(cfg=cfg, drop_bytes=True,
                                      n_entities=n_entities)
        self.featurizer = CaptionFeaturizer(text_column="caption", cfg=cfg,
                                            keep_columns=keep_columns,
                                            custom_groups=custom_groups)

    def __call__(self, batch):
        return self.featurizer(self.decoder(batch))


def _decode_featurize(block, **kwargs):
    """``map_slices`` of :class:`DecodeFeaturize`; a zero-row images file
    reads as one schema-less block, mapped as the empty images table."""
    if not block.num_columns:
        block = IMAGE_SCHEMA.empty_table()
    return map_slices(block, stage=DecodeFeaturize, **kwargs)


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
    map_block=None,
):
    """Lag-1 + trailing rolling mean + session_id + windowed TTR/MTLD over
    the entity's trailing captions — and, when ``snapshot_every`` is set,
    the snapshot as-of features — in ONE keyed exchange (fused bucket
    kernel instead of chained shuffles).  MTLD is non-decomposable, so
    the window recomputes from buffered tokens (SURVEY.md §7.4).

    It runs through the ``ops/window`` timeline runner and column rules,
    which append ``c_lag1, c_rmean{rolling_window}`` per feature,
    ``session_id``, ``ttr_w{w}, mtld_w{w}``, ``ts_snap`` and ``c_snap``
    per feature to the sorted Arrow rows.

    The snapshot as-of is the degenerate-but-common case where the right
    side is a subset of the left rows: "latest snapshot row with
    ts' <= ts" then reduces to a per-entity forward-fill of the marked
    rows' values — no second exchange, no dataset fork (a lazy Dataset
    consumed by two branches would recompute its whole upstream).  The
    general two-sided operator is ops/asof.asof_join.

    ``map_block`` goes to :func:`~tscan_ray.ops.keyed.task_exchange`: a
    per-row Arrow map its split tasks apply to ``ds``'s blocks first."""

    def columns(df):
        out = {}
        for c in feature_cols:  # each feature's lag, then its mean
            out.update(window.lag_columns(df, key, [c], [1]))
            out.update(window.trailing_mean_columns(df, key, [c],
                                                    rolling_window))
        out["session_id"] = window.session_ids(df, key, ts, cfg.session_gap_us)
        if diversity_window is not None and text_col in df.columns:
            out.update(window.rolling_diversity_frame(df, key, text_col,
                                                      diversity_window))
        if snapshot_every is not None:
            seq = df[order_col].str.slice(4).astype("int64") // (n_entities or 1)
            snap = df[[ts] + feature_cols].where(
                (seq % snapshot_every) == 0, axis=0)
            snap.columns = ["ts_snap"] + [c + "_snap" for c in feature_cols]
            out.update(window.fill_frame(snap, df[key]))
        return out

    return window.timeline(
        ds, key, ts, order_col, feature_cols + [text_col], columns,
        num_buckets or cfg.num_key_buckets, map_block=map_block)


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
    # decode+featurize runs inside the exchange's split tasks, one per
    # images block: the featurized rows are put once, already sorted by
    # bucket, and Ray Data runs only the read (BASELINE.md,
    # "Decode+featurize in the split tasks")
    decode_featurize = partial(
        _decode_featurize, batch_size=cfg.featurizer_batch_size,
        kwargs={"cfg": cfg, "n_entities": n_entities,
                "keep_columns": KEEP_COLS,
                "custom_groups": dict(features._CUSTOM_GROUPS)})
    return add_timeline_features(
        images, cfg=cfg, num_buckets=num_buckets,
        snapshot_every=snapshot_every, n_entities=n_entities,
        map_block=decode_featurize,
    )

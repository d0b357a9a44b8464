"""The traced run: each layer timed from outside, by calling its public
functions on materialized input, in the order the job runs them.

    read ─▶ decode+featurize (actor pool) ─▶ exchange ─▶ timeline kernel ─▶ sink

Spans are recorded here, around the calls, never inside the program.
Single-process costs (decode and the text sub-phases) run on the driver
with nothing else running, so they read as per-row CPU cost; the pool
stage reads as the job sees it.  ``layers.sum_over_job`` is the staged
sum over an untraced job of the same input run just before: above 1 it
is the overlap that streaming buys plus the tracing overhead.
"""

from __future__ import annotations

import os
import time

# captions timed single-process for the text sub-phases
TEXT_SAMPLE = 200


class Spans:
    """Wall time of named spans, kept in memory and reported at the end."""

    def __init__(self):
        self.wall: dict[str, float] = {}

    def __call__(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.wall[name] = time.perf_counter() - t0
        return out


def text_phases(captions: list[str]) -> dict[str, float]:
    """Per-row ms of tokenize, tag, parse and the rest of
    ``featurize_document`` (fold + surprisal + emit), warm caches."""
    from tscan_ray.config import DEFAULT_CONFIG
    from tscan_ray.text import depparse
    from tscan_ray.text.features import analyze_word_decided, featurize_document
    from tscan_ray.text.lexicons import default_lexicons
    from tscan_ray.text.surprisal import default_lm
    from tscan_ray.text.tagger import tag_sentence
    from tscan_ray.text.tokenize import segment

    lex, lm = default_lexicons(), default_lm()
    for c in captions:
        featurize_document(c, lex, DEFAULT_CONFIG, lm=lm)
    span = Spans()
    docs = span("tokenize", lambda: [segment(c) for c in captions])
    sents = [s for d in docs for p in d for s in p]
    tags = span("tag", lambda: [tag_sentence(s, lex) for s in sents])
    anns = [[analyze_word_decided(w, d, lex) for w, d in zip(s, ds)]
            for s, ds in zip(sents, tags)]
    span("parse", lambda: [depparse.parse_sentence(a, lex) for a in anns])
    span("total", lambda: [featurize_document(c, lex, DEFAULT_CONFIG, lm=lm)
                           for c in captions])
    per_row = {k: v * 1000 / len(captions) for k, v in span.wall.items()}
    per_row["fold_emit"] = per_row["total"] - sum(
        per_row[k] for k in ("tokenize", "tag", "parse"))
    return per_row


def _featurize_stage(images):
    from tscan_ray.config import DEFAULT_CONFIG
    from tscan_ray.pipelines.flagship import KEEP_COLS, DecodeFeaturize
    from tscan_ray.stages.featurizer import pool_size

    from perfbench.inputs import N_ENTITIES

    return images.map_batches(
        DecodeFeaturize,
        fn_constructor_kwargs={"n_entities": N_ENTITIES,
                               "keep_columns": KEEP_COLS},
        batch_format="pyarrow", zero_copy_batch=True,
        batch_size=DEFAULT_CONFIG.featurizer_batch_size,
        concurrency=pool_size()).materialize()


def trace(run, job_s: float) -> dict:
    import numpy as np
    import pyarrow.parquet as pq
    import ray.data as rd

    from tscan_ray.ops.keyed import bucket_of, task_exchange
    from tscan_ray.pipelines.flagship import add_timeline_features
    from tscan_ray.sources.io import read_table
    from tscan_ray.stages.decode import DecodeValidate
    from tscan_ray.state.manifest import completed_partitions, resumable_write

    from perfbench import inputs
    from perfbench.run import LINEAGE, NUM_BUCKETS, WORK, WORKLOADS

    span = Spans()
    hot = run.args.workload == "exchange_hot"

    ds = span("read", lambda: read_table(run.input_path).materialize())
    read_bytes = ds.size_bytes()

    # front layers: on the job's own images, or for exchange_hot (whose
    # job starts after them) on images built from the same seed
    images_path = run.input_path
    if hot:
        images_path = os.path.join(WORK, "trace_images")
        inputs.write_images(images_path, run.args.seed,
                            WORKLOADS["fresh_uniform"]["rows"], 8)
    images = ds if not hot else read_table(images_path).materialize()
    table = pq.read_table(images_path)
    span("pool_start", _featurize_stage, rd.from_arrow(table.slice(0, 1)))
    feats = span("featurize", _featurize_stage, images)
    span("decode", DecodeValidate(n_entities=inputs.N_ENTITIES), table)
    text = text_phases(table.column("caption").to_pylist()[:TEXT_SAMPLE])

    keyed = ds if hot else feats
    span("exchange", lambda: task_exchange(
        keyed, "entity_id", lambda t: t, NUM_BUCKETS,
        batch_format="pyarrow").materialize())
    counts = np.bincount(
        bucket_of(run.source.column("entity_id").to_numpy(), NUM_BUCKETS)
        .astype(np.int64), minlength=NUM_BUCKETS)
    enriched = span("timeline", lambda: add_timeline_features(
        keyed, num_buckets=NUM_BUCKETS, snapshot_every=5,
        n_entities=inputs.N_ENTITIES).materialize())

    out = run._prepare_out("trace")
    skipped = len(completed_partitions(out))
    summary = span("sink", resumable_write, enriched, out, key="entity_id",
                   num_buckets=NUM_BUCKETS, lineage=LINEAGE)
    written = [os.path.join(out, f"part-{k:05d}.parquet")
               for k in summary["partition"]]
    committed_rows = int(summary["rows"].sum())
    run._check("traced", out, verify=False)

    w = span.wall
    staged = w["read"] + w["timeline"] + w["sink"]
    if not hot:
        staged += w["featurize"]
    n_front = table.num_rows
    metrics = {
        "read.wall_s": (w["read"], "s"),
        "read.bytes": (read_bytes, "bytes"),
        "decode.ms_per_row": (w["decode"] * 1000 / n_front, "ms"),
        "featurize.pool_start_s": (w["pool_start"], "s"),
        "featurize.ms_per_row": (
            (w["featurize"] - w["pool_start"]) * 1000 / n_front, "ms"),
        "text.tokenize_ms": (text["tokenize"], "ms"),
        "text.tag_ms": (text["tag"], "ms"),
        "text.parse_ms": (text["parse"], "ms"),
        "text.fold_emit_ms": (text["fold_emit"], "ms"),
        "exchange.wall_s": (w["exchange"], "s"),
        "exchange.bytes_in": (keyed.size_bytes(), "bytes"),
        "exchange.columns": (len(keyed.schema().names), "count"),
        "exchange.skew_max_mean": (counts.max() / counts.mean(), "ratio"),
        "timeline.wall_s": (w["timeline"], "s"),
        "sink.wall_s": (w["sink"], "s"),
        "sink.bytes_written": (sum(os.path.getsize(p) for p in written),
                               "bytes"),
        "sink.partitions_written": (len(summary), "count"),
        "sink.partitions_skipped": (skipped, "count"),
        "resume.useful_frac": (committed_rows / run.rows, "ratio"),
        "layers.sum_over_job": (staged / job_s, "ratio"),
    }
    return metrics

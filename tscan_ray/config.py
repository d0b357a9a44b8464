"""Engine configuration.

Mirrors the reference's config surface (thresholds and feature knobs read
from ``tscan.cfg``; see reference ``src/tscan.cxx:862-1119``) plus the
knobs the Ray-Data point-in-time layer needs (partition count, session
gap).  Pure dataclass — no I/O, no Ray.  MTLD's 0.72 factor threshold is
``text.kernels.MTLD_THRESHOLD``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EngineConfig:
    # --- linguistic feature thresholds (reference parity) -------------
    # document-level sliding overlap window, in words
    # (reference `overlapSize`, src/tscan.cxx:3039-3090)
    overlap_size: int = 50
    # rarity index: lemma doc-count cutoff (reference src/docstats.cxx:9-18)
    rarity_level: int = 4
    # parse-failure threshold: sentences longer than this are treated as
    # parse failures (the reference's Alpino times out on pathological
    # sentences; Alpino_status counts them and their parse-derived
    # features go NA, src/structstats.cxx:336-370)
    max_sentence_tokens: int = 300

    # feature-group toggles: names from ``features.feature_groups()`` to
    # omit from the output schema (the engine's ``--skip=[aw]`` analog,
    # reference src/tscan.cxx:1128 — 'a' ~ the parse-derived groups,
    # 'w' ~ "surprisal"; CSV-skip 'c' is a sink concern here)
    skip_groups: tuple = ()

    # --- point-in-time layer ------------------------------------------
    # entity bucketing: entity_id = phash >> phash_bucket_bits
    phash_bucket_bits: int = 16
    # sessionization gap (microseconds); 30 min default
    session_gap_us: int = 30 * 60 * 1_000_000
    # the flagship's partition count: its timeline exchange's bucket
    # count, which the resumable sink commits as its partition layout
    # (library exchanges default to one bucket per CPU instead)
    num_key_buckets: int = 64

    # --- execution sizing ---------------------------------------------
    # ~3 ms/doc UDF cost -> 128-doc batches are ~0.4 s of work per actor
    # task: long enough that per-task dispatch latency (~30-60 ms) stays
    # <15% of the task, short enough that a 5k-row input still fans out
    # across a 16-actor pool
    featurizer_batch_size: int = 128
    # decode+validate measured 0.3-0.5 ms/row (perfbench
    # decode.ms_per_row) -> 128-row batches are ~50 ms per task
    decode_batch_size: int = 128

    # --- dedup / similarity -------------------------------------------
    minhash_num_perm: int = 64
    minhash_bands: int = 16  # 16 bands x 4 rows
    shingle_k: int = 3  # word shingle size for minhash
    ann_top_k: int = 10

    # --- image invariants ---------------------------------------------
    psnr_min_db: float = 40.0


DEFAULT_CONFIG = EngineConfig()

"""Decode + validate stage (multimodal plumbing).

Treats the image payload as an opaque binary column with typed metadata
and enforces the per-row invariant from BASELINE.json's input_hint:

* decoded dimensions match (w, h);
* decoded-pixel PSNR >= cfg.psnr_min_db against the reference pixels
  (regenerated deterministically from image_id for synthetic data —
  for PNG the round trip is exact, PSNR = inf);
* caption is carried through untouched (byte equality is asserted by
  the pipeline tests at the sink).

Outputs per row: ``psnr_db`` (float64), ``ahash`` (int64 perceptual
hash of the decoded pixels), ``decode_ok`` (bool).  ``drop_bytes=True``
removes the heavy binary column afterwards — ALWAYS do this before any
wide shuffle (SURVEY.md §7.4: shuffles must stay narrow).

This is a ``map_batches`` task stage that builds a
:class:`DecodeValidate` per batch: its state is a config and two flags.
A real decoder whose codec contexts are costly to build would keep them
in a process-level cache, as the lexicons are kept, not in an actor.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from tscan_ray.config import DEFAULT_CONFIG, EngineConfig
from tscan_ray.sources import codecs
from tscan_ray.sources.images import make_pixels
from tscan_ray.stages import map_stage


class DecodeValidate:
    def __init__(self, cfg: EngineConfig = DEFAULT_CONFIG, drop_bytes: bool = True,
                 n_entities: int | None = 50):
        self.cfg = cfg
        self.drop_bytes = drop_bytes
        # n_entities lets us regenerate the reference pixels for the
        # synthetic table; None skips the PSNR-vs-original check (psnr is
        # then measured against a re-encode round trip).
        self.n_entities = n_entities

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("image_id").to_pylist()
        blobs = batch.column("bytes").to_pylist()
        ws = batch.column("w").to_pylist()
        hs = batch.column("h").to_pylist()
        fmts = batch.column("fmt").to_pylist()
        n = len(ids)
        psnr = np.full(n, np.nan)
        ahash = np.zeros(n, dtype=np.int64)
        ok = np.zeros(n, dtype=bool)
        for i in range(n):
            try:
                px = codecs.decode_image(blobs[i], fmts[i])
            except (ValueError, NotImplementedError):
                continue
            if px.shape[0] != hs[i] or px.shape[1] != ws[i]:
                continue
            ahash[i] = codecs.ahash64(px)
            seg = ids[i].split("-")[1] if ids[i].startswith("img-") else ""
            if self.n_entities is not None and seg.isdigit():
                doc_id = int(seg)
                ref = make_pixels(doc_id, doc_id % self.n_entities, ws[i], hs[i])
                p = codecs.psnr_db(ref, px)
            else:
                # no original available: verify re-encode determinism instead
                p = codecs.psnr_db(px, codecs.decode_image(
                    codecs.encode_image(px, fmts[i]), fmts[i]))
            psnr[i] = p
            ok[i] = p >= self.cfg.psnr_min_db
        batch = batch.append_column("psnr_db", pa.array(psnr, type=pa.float64()))
        batch = batch.append_column("ahash", pa.array(ahash, type=pa.int64()))
        batch = batch.append_column("decode_ok", pa.array(ok, type=pa.bool_()))
        if self.drop_bytes:
            batch = batch.drop_columns(["bytes"])
        return batch


def decode_validate(ds, cfg: EngineConfig = DEFAULT_CONFIG,
                    drop_bytes: bool = True, n_entities: int | None = 50):
    return map_stage(ds, DecodeValidate, cfg.decode_batch_size, cfg=cfg,
                     drop_bytes=drop_bytes, n_entities=n_entities)

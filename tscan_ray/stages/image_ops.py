"""Image transform stages: resize, feature extraction, frame sampling.

Multimodal columns are opaque ``binary`` payloads with typed metadata
(image_id, w, h, fmt); every transform here is a ``map_batches`` task
stage sized for large payloads (small ``batch_size``, SURVEY.md §4.2).
Decode uses the engine's self-contained codecs (sources/codecs.py): a
REAL minimal PNG codec and a clearly-marked stub lossy codec — the
Ray-side plumbing (schema, batch sizing, stage signature, output layout)
is real and tested; swap in PIL/cv2 decode on a production cluster.

Video frame-sampling is a STUB (no video codec in this container): the
deterministic fake treats the binary payload as a concatenation of
equally-sized encoded frames and samples every k-th — the
partitioning/batching behavior is the part under test.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from tscan_ray.config import DEFAULT_CONFIG, EngineConfig
from tscan_ray.sources.codecs import decode_image, encode_png
from tscan_ray.stages import map_stage


def resize_nearest(pixels: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbour resize, fully vectorized (no per-pixel loop)."""
    h, w = pixels.shape[:2]
    rows = np.minimum((np.arange(out_h) * h) // out_h, h - 1)
    cols = np.minimum((np.arange(out_w) * w) // out_w, w - 1)
    return pixels[rows[:, None], cols[None, :]]


def image_features(pixels: np.ndarray) -> dict[str, float]:
    """Cheap deterministic visual features (the feature-extract stage):
    per-channel means, luma mean/std, edge density (mean abs gradient)."""
    px = pixels.astype(np.float64)
    luma = 0.299 * px[..., 0] + 0.587 * px[..., 1] + 0.114 * px[..., 2]
    gy = np.abs(np.diff(luma, axis=0)).mean() if luma.shape[0] > 1 else 0.0
    gx = np.abs(np.diff(luma, axis=1)).mean() if luma.shape[1] > 1 else 0.0
    return {
        "mean_r": float(px[..., 0].mean()),
        "mean_g": float(px[..., 1].mean()),
        "mean_b": float(px[..., 2].mean()),
        "luma_mean": float(luma.mean()),
        "luma_std": float(luma.std()),
        "edge_density": float((gx + gy) / 2.0),
    }


class ImageResize:
    """Decode -> resize -> re-encode (PNG) stage."""

    def __init__(self, out_h: int, out_w: int, bytes_col: str = "bytes"):
        self.out_h, self.out_w = out_h, out_w
        self.bytes_col = bytes_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        resized = []
        for data in batch.column(self.bytes_col):
            px = decode_image(data.as_py())
            resized.append(encode_png(resize_nearest(px, self.out_h, self.out_w)))
        n = len(resized)
        batch = batch.drop_columns([self.bytes_col])
        for name, val in (("w", self.out_w), ("h", self.out_h)):
            arr = pa.array([val] * n, type=pa.int32())
            if name in batch.column_names:
                batch = batch.set_column(batch.column_names.index(name), name, arr)
            else:
                batch = batch.append_column(name, arr)
        # resized payloads are PNG regardless of input fmt
        if "fmt" in batch.column_names:
            batch = batch.set_column(batch.column_names.index("fmt"), "fmt",
                                     pa.array(["png"] * n, type=pa.string()))
        return batch.append_column(self.bytes_col, pa.array(resized, type=pa.binary()))


class ImageFeatures:
    """Decode -> visual feature columns (keeps or drops the payload)."""

    def __init__(self, bytes_col: str = "bytes", drop_bytes: bool = True):
        self.bytes_col = bytes_col
        self.drop_bytes = drop_bytes

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats: dict[str, list[float]] = {}
        for data in batch.column(self.bytes_col):
            f = image_features(decode_image(data.as_py()))
            for k, v in f.items():
                feats.setdefault(k, []).append(v)
        if self.drop_bytes:
            batch = batch.drop_columns([self.bytes_col])
        for k, v in feats.items():
            batch = batch.append_column(k, pa.array(v, type=pa.float64()))
        return batch


def sample_frames_stub(payload: bytes, frame_size: int, every_k: int) -> list[bytes]:
    """STUB frame sampler: no video codec in this container.  Treats the
    payload as concatenated fixed-size encoded frames and returns every
    k-th.  Replace with a real demuxer (pyav/ffmpeg) in production."""
    if frame_size <= 0 or every_k <= 0:
        raise ValueError("frame_size and every_k must be positive")
    n = len(payload) // frame_size
    return [payload[i * frame_size:(i + 1) * frame_size] for i in range(0, n, every_k)]


def resize_images(ds, out_h: int, out_w: int, cfg: EngineConfig = DEFAULT_CONFIG):
    return map_stage(ds, ImageResize, cfg.decode_batch_size,
                     out_h=out_h, out_w=out_w)


def extract_image_features(ds, drop_bytes: bool = True,
                           cfg: EngineConfig = DEFAULT_CONFIG):
    return map_stage(ds, ImageFeatures, cfg.decode_batch_size,
                     drop_bytes=drop_bytes)

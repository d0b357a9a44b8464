"""Deterministic, dependency-free image codecs + pixel invariants.

The engine treats image payloads as opaque ``binary`` columns with typed
metadata (image_id, w, h, fmt) and validates the per-row invariant from
BASELINE.json's input_hint: decoded-pixel PSNR >= 40 dB (exact for
lossless) plus caption byte-equality.

Because this container has no image libraries (no PIL / cv2), we ship:

* a REAL minimal PNG codec (pure stdlib ``zlib`` + ``struct``; 8-bit RGB,
  filter type 0) — lossless, byte-exact round trip;
* a clearly-marked STUB "jpeg" codec (``FJPG`` magic): deterministic
  uniform quantization (step 5) of the RGB pixels, zlib-compressed.  It
  simulates lossy compression with a bounded reconstruction error
  (PSNR ~= 45 dB > 40 dB) so the decode/validate stage and the PSNR
  oracle are fully real even though the entropy coding is fake.  Swap in
  a real JPEG library on a production cluster.

Also provides an 8x8 average-hash (``ahash64``) used as the perceptual
``phash`` for entity (image-lineage) bucketing.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

PNG_SIG = b"\x89PNG\r\n\x1a\n"
FAKE_JPEG_MAGIC = b"FJPG"
FAKE_JPEG_QSTEP = 5  # uniform quantization step -> max abs error 2, PSNR ~45dB


def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)


def encode_png(pixels: np.ndarray) -> bytes:
    """Encode an (h, w, 3) uint8 array as a minimal RGB PNG (filter 0)."""
    if pixels.dtype != np.uint8 or pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError("encode_png expects (h, w, 3) uint8")
    h, w, _ = pixels.shape
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)  # 8-bit, colortype 2 (RGB)
    # one 0x00 filter byte per scanline, then raw RGB bytes
    raw = np.empty((h, 1 + w * 3), dtype=np.uint8)
    raw[:, 0] = 0
    raw[:, 1:] = pixels.reshape(h, w * 3)
    idat = zlib.compress(raw.tobytes(), 6)
    return PNG_SIG + _png_chunk(b"IHDR", ihdr) + _png_chunk(b"IDAT", idat) + _png_chunk(b"IEND", b"")


def decode_png(data: bytes) -> np.ndarray:
    """Decode a PNG produced by :func:`encode_png` (8-bit RGB, filter 0)."""
    if data[:8] != PNG_SIG:
        raise ValueError("not a PNG")
    pos = 8
    w = h = None
    idat = bytearray()
    while pos < len(data):
        (length,) = struct.unpack_from(">I", data, pos)
        tag = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            w, h, bitdepth, colortype, _, _, interlace = struct.unpack(">IIBBBBB", payload)
            if bitdepth != 8 or colortype != 2 or interlace != 0:
                raise NotImplementedError("minimal codec: 8-bit RGB non-interlaced only")
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
    if w is None:
        raise ValueError("PNG missing IHDR")
    raw = np.frombuffer(zlib.decompress(bytes(idat)), dtype=np.uint8)
    raw = raw.reshape(h, 1 + w * 3)
    if not (raw[:, 0] == 0).all():
        raise NotImplementedError("minimal codec: filter type 0 only")
    return raw[:, 1:].reshape(h, w, 3).copy()


def encode_fake_jpeg(pixels: np.ndarray) -> bytes:
    """STUB lossy codec (see module docstring). Deterministic quantize+deflate."""
    if pixels.dtype != np.uint8 or pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError("encode_fake_jpeg expects (h, w, 3) uint8")
    h, w, _ = pixels.shape
    q = (pixels.astype(np.int32) // FAKE_JPEG_QSTEP).astype(np.uint8)
    body = zlib.compress(q.tobytes(), 6)
    return FAKE_JPEG_MAGIC + struct.pack(">II", w, h) + body


def decode_fake_jpeg(data: bytes) -> np.ndarray:
    if data[:4] != FAKE_JPEG_MAGIC:
        raise ValueError("not a FJPG payload")
    w, h = struct.unpack_from(">II", data, 4)
    q = np.frombuffer(zlib.decompress(data[12:]), dtype=np.uint8).reshape(h, w, 3)
    # dequantize to bin centers, clamped to uint8 range
    out = q.astype(np.int32) * FAKE_JPEG_QSTEP + FAKE_JPEG_QSTEP // 2
    return np.clip(out, 0, 255).astype(np.uint8)


def encode_image(pixels: np.ndarray, fmt: str) -> bytes:
    if fmt == "png":
        return encode_png(pixels)
    if fmt == "jpeg":
        return encode_fake_jpeg(pixels)
    raise NotImplementedError(f"unsupported image format: {fmt!r}")


def decode_image(data: bytes, fmt: str | None = None) -> np.ndarray:
    """Decode by magic sniffing (fmt hint optional).  A missing, unknown
    or malformed payload (truncated deflate stream, short chunk header,
    pixel count off the declared size) raises ``ValueError``, so callers
    can turn one bad row into data instead of losing the batch."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise ValueError(f"no image payload ({type(data).__name__})")
    if data[:8] == PNG_SIG:
        decode = decode_png
    elif data[:4] == FAKE_JPEG_MAGIC:
        decode = decode_fake_jpeg
    else:
        raise ValueError(f"unknown image payload (fmt hint={fmt!r})")
    try:
        return decode(data)
    except (zlib.error, struct.error) as e:
        raise ValueError(f"malformed image payload: {e}") from e


def psnr_db(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB; inf for identical images."""
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(255.0 * 255.0 / mse))


def ahash64(pixels: np.ndarray) -> int:
    """8x8 average-hash of the grayscale image -> signed int64 (the `phash`).

    Deterministic block-mean downsample to 8x8, threshold at the mean.
    Bits packed row-major, MSB first; returned as signed int64 so it fits
    an Arrow int64 column.
    """
    gray = pixels.astype(np.float64) @ np.array([0.299, 0.587, 0.114])
    h, w = gray.shape
    # block-mean resize to 8x8 via index binning (handles non-multiples)
    ys = (np.arange(h) * 8) // h
    xs = (np.arange(w) * 8) // w
    sums = np.zeros((8, 8))
    counts = np.zeros((8, 8))
    np.add.at(sums, (ys[:, None].repeat(w, 1), xs[None, :].repeat(h, 0)), gray)
    np.add.at(counts, (ys[:, None].repeat(w, 1), xs[None, :].repeat(h, 0)), 1.0)
    small = sums / np.maximum(counts, 1.0)
    bits = (small > small.mean()).astype(np.uint64).ravel()
    val = np.uint64(0)
    for b in bits:
        val = (val << np.uint64(1)) | b
    return int(val.astype(np.int64))

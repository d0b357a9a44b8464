"""Codec round-trip + PSNR invariant tests (BASELINE.json input_hint:
decoded-pixel PSNR >= 40 dB, exact for lossless)."""

import numpy as np
import pytest

from tscan_ray.sources import codecs


def _tile(seed: int, w: int = 32, h: int = 24) -> np.ndarray:
    rng = np.random.default_rng(seed)
    grad = np.linspace(0, 255, w, dtype=np.float64)[None, :, None]
    noise = rng.integers(0, 64, size=(h, w, 3)).astype(np.float64)
    return np.clip(grad + noise, 0, 255).astype(np.uint8)


class TestPng:
    def test_roundtrip_exact(self):
        px = _tile(1)
        data = codecs.encode_png(px)
        out = codecs.decode_png(data)
        assert np.array_equal(px, out)
        assert codecs.psnr_db(px, out) == float("inf")

    def test_magic_sniffing(self):
        px = _tile(2)
        assert np.array_equal(codecs.decode_image(codecs.encode_png(px)), px)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            codecs.decode_png(b"not a png")


class TestFakeJpeg:
    def test_psnr_above_40(self):
        px = _tile(3, 64, 48)
        out = codecs.decode_fake_jpeg(codecs.encode_fake_jpeg(px))
        assert out.shape == px.shape
        p = codecs.psnr_db(px, out)
        assert p >= 40.0, p

    def test_deterministic(self):
        px = _tile(4)
        assert codecs.encode_fake_jpeg(px) == codecs.encode_fake_jpeg(px)


class TestAhash:
    def test_deterministic_and_discriminative(self):
        a = codecs.ahash64(_tile(5))
        b = codecs.ahash64(_tile(5))
        c = codecs.ahash64(_tile(6).transpose(1, 0, 2).copy())  # vertical gradient
        assert a == b
        assert isinstance(a, int)
        assert a != c  # structurally different image -> different hash

    def test_similar_images_close(self):
        px = _tile(7)
        noisy = np.clip(px.astype(np.int16) + 2, 0, 255).astype(np.uint8)
        ha, hb = codecs.ahash64(px), codecs.ahash64(noisy)
        assert bin((ha ^ hb) & (2**64 - 1)).count("1") <= 8


class TestPoisonPayloads:
    """A malformed or missing payload is one row with decode_ok=False,
    never an exception out of the batch."""

    _POISON = {
        "truncated_png": lambda px: codecs.encode_png(px)[:45],
        "null": lambda px: None,
        "short_ihdr": lambda px: (codecs.PNG_SIG + b"\x00\x00\x00\x0dIHDR"
                                  + b"\x00\x00"),
        "truncated_fjpg": lambda px: codecs.encode_fake_jpeg(px)[:20],
    }

    def test_decode_image_raises_value_error(self):
        px = _tile(5, 12, 16)
        for name, make in self._POISON.items():
            with pytest.raises(ValueError):
                codecs.decode_image(make(px))

    def test_decode_validate_keeps_the_batch(self):
        import pyarrow as pa

        from tscan_ray.sources.images import make_pixels
        from tscan_ray.stages.decode import DecodeValidate

        good = make_pixels(7, 7, 12, 16)
        payloads = [codecs.encode_png(good)] + [
            make(good) for make in self._POISON.values()]
        n = len(payloads)
        batch = pa.table({
            "image_id": [f"img-{7 + 50 * i}" for i in range(n)],
            "bytes": pa.array(payloads, pa.binary()),
            "w": [12] * n, "h": [16] * n,
            "fmt": ["png", "png", "png", "png", "jpeg"],
        })
        out = DecodeValidate(n_entities=50)(batch)
        assert out.num_rows == n
        assert out.column("decode_ok").to_pylist() == [True] + [False] * (n - 1)

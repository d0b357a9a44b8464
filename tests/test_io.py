"""sources/io read seam: Lance-first dispatch contract + parquet path.

No pylance wheel ships in this container, so the Lance branch is proven
by CONTRACT: a mock ``ray.data.read_lance`` asserts the seam (a) detects
a Lance dataset layout, (b) passes the column-prune and filter kwargs
through verbatim, and (c) never falls back to parquet for it.  On a
cluster with pylance installed the same call sites run the real reader
unchanged (``read_table`` docstring).  ``TestReadBlocks`` pins the
parquet branch's default of one block per file, at least one per CPU.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _make_lance_layout(tmp_path) -> str:
    """A directory that LOOKS like a Lance dataset (``_versions/``)."""
    d = tmp_path / "imgs.lance"
    (d / "_versions").mkdir(parents=True)
    return str(d)


class TestLanceSeam:
    def test_lance_layout_detected_and_kwargs_forwarded(
            self, tmp_path, monkeypatch):
        import ray.data as rd

        from tscan_ray.sources import io

        calls = {}

        def fake_read_lance(path, columns=None, **kwargs):
            calls["path"] = path
            calls["columns"] = columns
            calls["kwargs"] = kwargs
            return rd.from_arrow(pa.table({"caption": ["x"],
                                           "phash": [1]}))

        monkeypatch.setattr(io, "lance_available", lambda: True)
        monkeypatch.setattr(rd, "read_lance", fake_read_lance,
                            raising=False)
        path = _make_lance_layout(tmp_path)
        ds = io.read_table(path, columns=["caption", "phash"],
                           filter="phash > 0")
        assert calls["path"] == path
        assert calls["columns"] == ["caption", "phash"]
        assert calls["kwargs"] == {"filter": "phash > 0"}
        assert ds.take_all() == [{"caption": "x", "phash": 1}]

    def test_lance_suffix_also_dispatches(self, tmp_path, monkeypatch):
        import ray.data as rd

        from tscan_ray.sources import io

        hit = []
        monkeypatch.setattr(io, "lance_available", lambda: True)
        monkeypatch.setattr(
            rd, "read_lance",
            lambda path, columns=None, **kw: hit.append(path)
            or rd.from_arrow(pa.table({"a": [1]})), raising=False)
        p = str(tmp_path / "plain.lance")
        os.makedirs(p)
        io.read_table(p)
        assert hit == [p]

    def test_missing_pylance_is_loud(self, tmp_path, monkeypatch):
        from tscan_ray.sources import io

        monkeypatch.setattr(io, "lance_available", lambda: False)
        with pytest.raises(ImportError, match="[Ll]ance"):
            io.read_table(_make_lance_layout(tmp_path))

    def test_parquet_fallback_prunes_and_strips_metadata(self, tmp_path):
        """The parquet branch prunes columns at the scan and its blocks
        carry NO pandas schema metadata (hashable schemas)."""
        import pandas as pd

        from tscan_ray.sources import io

        f = str(tmp_path / "t.parquet")
        pd.DataFrame({"a": [1, 2], "b": ["x", "y"],
                      "c": [0.5, 1.5]}).to_parquet(f)
        assert (pq.read_table(f).schema.metadata or {})  # pandas meta set
        ds = io.read_table(f, columns=["a", "b"])
        batches = list(ds.iter_batches(batch_format="pyarrow"))
        assert all(b.column_names == ["a", "b"] for b in batches)
        for b in batches:
            assert not (b.schema.metadata or {})
            hash(b.schema)  # must not raise

    def test_flagship_accepts_lance_images_path(self, tmp_path,
                                                monkeypatch):
        """flagship(images_path=...) reads the image table through the
        seam: a mocked Lance dataset flows into decode+featurize."""
        import ray.data as rd

        from tscan_ray.sources import io

        seen = {}

        def fake_read_lance(path, columns=None, **kwargs):
            seen["path"] = path
            seen["columns"] = columns
            from tscan_ray.sources.images import synth_images

            docs = rd.range(8).map_batches(
                lambda b: {"doc_id": b["id"],
                           "text": ["a small test caption"] * len(b["id"])},
                batch_format="numpy")
            ds = synth_images(docs, n_entities=2)
            return ds.select_columns(columns) if columns else ds

        monkeypatch.setattr(io, "lance_available", lambda: True)
        monkeypatch.setattr(rd, "read_lance", fake_read_lance,
                            raising=False)
        path = _make_lance_layout(tmp_path)
        img = io.read_table(path, columns=["image_id", "bytes", "w", "h",
                                           "fmt", "caption", "phash"])
        assert seen["path"] == path
        assert "caption" in seen["columns"]
        assert img.count() == 8


def _write_files(d, n_files: int, n_cols: int, rows: int) -> None:
    """``n_files`` parquet files of float columns under ``d``."""
    rng = np.random.default_rng(7)
    os.makedirs(d, exist_ok=True)
    for i in range(n_files):
        pq.write_table(pa.table({f"c{j}": rng.random(rows)
                                 for j in range(n_cols)}),
                       os.path.join(d, f"part-{i}.parquet"))


def _blocks(ds) -> int:
    return ds.materialize().num_blocks()


class TestReadBlocks:
    def test_wide_files_read_one_fused_block_each(self, tmp_path):
        """8 files of a 300-column table (~19 MB, which Ray's own
        sizing of ~1 MiB per block would split into 24 blocks) read as
        8 blocks, and the metadata strip fuses into the read."""
        from tscan_ray.sources import io

        d = str(tmp_path / "wide")
        _write_files(d, n_files=8, n_cols=300, rows=1000)
        ds = io.read_table(d).materialize()
        assert ds.num_blocks() == 8
        stats = ds.stats()
        assert "ReadParquet->MapBatches(<lambda>)" in stats
        assert "SplitBlocks" not in stats

    def test_single_file_gives_one_block_per_cpu(self, tmp_path):
        from tscan_ray.sources import io
        from tscan_ray.ops.keyed import cluster_cpus

        d = str(tmp_path / "one")
        _write_files(d, n_files=1, n_cols=3, rows=100)
        assert _blocks(io.read_table(os.path.join(d, "part-0.parquet"))) \
            == cluster_cpus()

    def test_explicit_block_count_wins(self, tmp_path):
        from tscan_ray.sources import io

        d = str(tmp_path / "many")
        _write_files(d, n_files=8, n_cols=3, rows=100)
        assert _blocks(io.read_table(d, override_num_blocks=16)) == 16

    def test_nested_files_are_counted(self, tmp_path):
        from tscan_ray.sources import io
        from tscan_ray.ops.keyed import cluster_cpus

        d = tmp_path / "nested"
        n = cluster_cpus() + 2
        _write_files(str(d), n_files=2, n_cols=3, rows=100)
        _write_files(str(d / "sub"), n_files=n - 2, n_cols=3, rows=100)
        assert _blocks(io.read_table(str(d))) == n

"""Table IO: Lance-first with parquet fallback.

The north rule's input is a Lance table of image+caption pairs.  This
container has no ``pylance`` wheel, so the reader is gated behind an
import-try: on a cluster with Lance installed, ``read_table`` uses
``ray.data.read_lance`` (zero-copy fragments, column pruning,
row-filter pushdown); here it falls back to ``read_parquet`` with the
same pruning arguments.  All engine code reads through this seam so the
storage format is a deployment choice, not a code change.
"""

from __future__ import annotations

import os


def lance_available() -> bool:
    try:
        import lance  # noqa: F401

        return True
    except ImportError:
        return False


def strip_schema_metadata(ds):
    """Drop Arrow schema metadata from every block (a metadata-only op).
    Ray fuses it into the read task whenever that task's output is not
    split; ``read_table``'s default of one block per file guarantees
    that once there are at least as many files as CPUs and no file's
    in-memory size passes Ray's maximum block size.  Pandas-written
    parquet carries a b'pandas' schema-metadata dict that makes
    ``pa.Schema`` UNHASHABLE — Ray's block-schema dedup then logs
    'Failed to hash the schemas' on every unify and falls into the slow
    path."""
    return ds.map_batches(
        lambda t: t.replace_schema_metadata(None),
        batch_format="pyarrow", zero_copy_batch=True)


def _parquet_file_count(path: str) -> int:
    """Parquet files under ``path``: 1 for a file, else every
    ``*.parquet`` below the directory, recursively, as Ray lists a
    directory (0 for a path that is not local)."""
    if os.path.isfile(path):
        return 1
    return sum(f.endswith(".parquet")
               for _, _, files in os.walk(path) for f in files)


def read_table(path: str, columns: list[str] | None = None, **kwargs):
    """Read a Lance dataset directory or a parquet file/directory into a
    ``ray.data.Dataset``, pruning to ``columns`` at the scan.

    A parquet read defaults ``override_num_blocks`` to
    ``max(parquet files, cluster CPUs)``: one read task per file, split
    only when there are fewer files than CPUs.  Left to itself Ray sizes
    blocks by its 1 MiB minimum and splits a wide table's files into
    many small blocks; a split read also cannot fuse the metadata strip,
    so every block crossed the object store twice (BASELINE.md, "Wide
    reads: one block per file").  An explicit ``override_num_blocks``
    wins.

    Real-Lance status (2026-08-19, round 5): no pylance wheel exists in
    this container and there is no network (``pip download pylance`` ->
    no matching distribution), so the ``read_lance`` branch has still
    never executed against a real Lance dataset.  The seam is contract-
    tested with a mocked ``read_lance`` (tests/test_io.py: layout
    detection, column/kwarg passthrough, loud ImportError)."""
    import ray.data as rd

    if path.endswith(".lance") or os.path.isdir(os.path.join(path, "_versions")):
        if not lance_available():
            raise ImportError(
                "input is a Lance dataset but pylance is not installed"
            )
        return rd.read_lance(path, columns=columns, **kwargs)
    from tscan_ray.ops.keyed import cluster_cpus

    kwargs.setdefault("override_num_blocks",
                      max(_parquet_file_count(path), cluster_cpus()))
    return strip_schema_metadata(
        rd.read_parquet(path, columns=columns, **kwargs))


def write_table(ds, path: str, format: str = "auto", **kwargs) -> None:
    """Write parquet (default) or Lance when available and requested."""
    if format == "lance" or (format == "auto" and path.endswith(".lance")):
        if not lance_available():
            raise ImportError("pylance is not installed; write parquet instead")
        ds.write_lance(path, **kwargs)
        return
    ds.write_parquet(path, **kwargs)

"""Seeded benchmark inputs.

Everything here is a pure function of the workload seed, so two runs
with the same seed read byte-identical tables and no run reuses another
run's files.

Captions follow the shape of the ``documents.text`` column at sf0.1:
10 to 100 words drawn uniformly from a 30-word vocabulary, one sentence
per caption, and one caption in twenty a near-duplicate of an earlier
one with " dup" appended.  The seed picks the words and the order; the
multiset of caption lengths and of entity row counts is the same for
every seed, so the amount of work does not vary with the seed.  The images table is built from them by the
repository's own synthesizer (``sources.images.synth_images_batch``),
so the job reads exactly the schema ``run.py`` produces.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB = (
    "a agg batch big column customer data fast filter group hash join "
    "key line merge order part query row scan slow small sort spark "
    "stream table the value vector window").split()
N_ENTITIES = 50
# share of the exchange_hot rows that belong to its one hot entity
HOT_SHARE = 0.4


def captions(seed: int, n: int) -> list[str]:
    rng = np.random.default_rng(seed)
    lengths = rng.permutation(np.resize(np.arange(10, 101), n))
    out: list[str] = []
    for i, k in enumerate(lengths):
        if i >= 20 and rng.random() < 0.05:
            out.append(out[int(rng.integers(0, i))] + " dup")
        else:
            out.append(" ".join(VOCAB[j] for j in rng.integers(0, len(VOCAB), size=k)))
    return out


def _write_files(table: pa.Table, path: str, files: int) -> int:
    """Write ``table`` as ``files`` parquet files; return bytes on disk."""
    os.makedirs(path, exist_ok=True)
    step = -(-table.num_rows // files)
    total = 0
    for i in range(files):
        name = os.path.join(path, f"part-{i:03d}.parquet")
        pq.write_table(table.slice(i * step, step), name)
        total += os.path.getsize(name)
    return total


def images_table(seed: int, n: int) -> pa.Table:
    """The flagship's input: image+caption rows, uniform entities."""
    from tscan_ray.sources.images import synth_images_batch

    docs = pa.table({"doc_id": pa.array(np.arange(n), type=pa.int64()),
                     "text": captions(seed, n)})
    return synth_images_batch(docs, N_ENTITIES)


def write_images(path: str, seed: int, n: int, files: int) -> int:
    return _write_files(images_table(seed, n), path, files)


def wide_table(seed: int, n: int) -> pa.Table:
    """A featurized table as the fused decode+featurize stage emits it:
    the same columns and types, seeded values, real captions, and one
    hot entity holding ``HOT_SHARE`` of the rows."""
    from tscan_ray.pipelines.flagship import KEEP_COLS, DecodeFeaturize
    from tscan_ray.sources.images import event_time_us

    # the exact output schema, from the stage itself on two rows
    schema = DecodeFeaturize(keep_columns=KEEP_COLS)(
        images_table(seed, 2)).schema
    rng = np.random.default_rng(seed + 1)
    n_hot = int(n * HOT_SHARE)
    ents = rng.permutation(np.concatenate([
        np.zeros(n_hot, dtype=np.int64),
        np.resize(np.arange(1, N_ENTITIES), n - n_hot)]))
    seqs = np.zeros(n, dtype=np.int64)
    seen: dict[int, int] = {}
    for i, k in enumerate(ents.tolist()):
        seqs[i] = seen.get(k, 0)
        seen[k] = seqs[i] + 1
    ent_ids = np.array([(k * 0x9E3779B1 + 17) % (1 << 40) for k in range(N_ENTITIES)],
                       dtype=np.int64)[ents]
    cols = {
        "image_id": pa.array([f"img-{i:08d}" for i in range(n)]),
        "caption": pa.array(captions(seed, n)),
        "phash": pa.array((ent_ids << 16) | rng.integers(0, 1 << 16, size=n)),
        "entity_id": pa.array(ent_ids),
        "ts": pa.array(np.array([event_time_us(int(k), int(s))
                                 for k, s in zip(ents, seqs)],
                                dtype="datetime64[us]")),
        "psnr_db": pa.array(rng.uniform(40.0, 60.0, size=n)),
        "ahash": pa.array(rng.integers(0, 1 << 62, size=n)),
    }
    for field in schema:
        if field.name in cols:
            continue
        if pa.types.is_integer(field.type):
            cols[field.name] = pa.array(rng.integers(0, 200, size=n))
        else:
            cols[field.name] = pa.array(rng.uniform(0.0, 100.0, size=n))
    return pa.table({f.name: cols[f.name] for f in schema}).cast(schema)


def write_wide(path: str, seed: int, n: int, files: int) -> int:
    return _write_files(wide_table(seed, n), path, files)

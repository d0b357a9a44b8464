"""Similarity search over an embedding column (list<float>).

* Brute-force cosine top-k: the baseline — numpy matmul per batch
  against a broadcast query matrix (``ray.put`` once; fetched per actor,
  never re-shipped per batch), per-batch partial top-k, tiny final merge.
* LSH-bucketed variant: random-hyperplane signatures route vectors into
  buckets; queries search only their bucket (+ optional multiprobe) —
  the 100 TB path where a full scan per query is off the table.
* Embedding-cosine near-dup: pairs within a cosine threshold, via the
  same LSH bucket exchange.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from tscan_ray.config import DEFAULT_CONFIG


def _as_matrix(col) -> np.ndarray:
    """Embedding column -> (n, d) float64 matrix.

    Handles Arrow list<float> / fixed_size_list (zero-copy flatten) and
    Ray's ArrowTensorArray extension type."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if isinstance(col, (pa.ListArray, pa.LargeListArray, pa.FixedSizeListArray)):
        values = np.asarray(col.flatten(), dtype=np.float64)
        return values.reshape(len(col), -1)
    arr = col.to_numpy(zero_copy_only=False)
    if arr.dtype == object:
        return np.stack(arr).astype(np.float64)
    return np.asarray(arr, dtype=np.float64).reshape(len(col), -1)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def topk_cosine(
    ds,
    query: np.ndarray,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    k: int = DEFAULT_CONFIG.ann_top_k,
    round_to: int | None = 6,
):
    """Exact top-k by cosine similarity to ``query``.

    Per-batch: one matmul + argpartition (partial top-k) — each batch
    emits at most k candidate rows, so the final global sort/limit is
    over ~k × num_batches rows, not the dataset.  The query vector is
    broadcast via the object store.
    """
    q = np.asarray(query, dtype=np.float64).ravel()
    q = q / (np.linalg.norm(q) or 1.0)
    q_ref = ray.put(q)

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:  # e.g. a fully-filtered LSH/IVF block
            return pa.table({id_col: pa.nulls(0, batch.column(id_col).type),
                             "cosine": pa.array([], type=pa.float64())})
        qv = ray.get(q_ref)
        m = _normalize(_as_matrix(batch.column(vec_col)))
        sims = m @ qv
        if round_to is not None:
            from tscan_ray.ops.rounding import round_half_away

            sims = round_half_away(sims, round_to)  # DuckDB round() parity
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        kk = min(k, len(sims))
        # lexsort tie-break on id so the batch-local selection agrees
        # with the final (-cosine, id) global sort — otherwise equal
        # cosines straddling the cutoff make the result depend on block
        # boundaries
        idx = np.lexsort((ids, -sims))[:kk]
        return pa.table({id_col: pa.array(ids[idx]),
                         "cosine": pa.array(sims[idx], type=pa.float64())})

    partials = ds.select_columns([id_col, vec_col]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    )
    # deterministic global top-k: sort by (-cosine, id) then limit
    return partials.sort(["cosine", id_col], descending=[True, False]).limit(k)


def _hyperplanes(dim: int, nbits: int, seed: int = 0xA11) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((nbits, dim))


def lsh_bucket_ids(m: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """Random-hyperplane signature -> int64 bucket id per row."""
    bits = (m @ planes.T) > 0
    weights = (1 << np.arange(planes.shape[0], dtype=np.int64))
    return bits.astype(np.int64) @ weights


def add_lsh_bucket(ds, vec_col: str = "embedding", nbits: int = 8,
                   out_col: str = "lsh_bucket", dim: int | None = None,
                   seed: int = 0xA11):
    """Append the LSH bucket id column (stateless vectorized stage; the
    plane matrix is tiny and closure-captured — serialized once per task)."""
    planes_holder = {}

    def fn(batch: pa.Table) -> pa.Table:
        m = _as_matrix(batch.column(vec_col))
        if "p" not in planes_holder:
            planes_holder["p"] = _hyperplanes(m.shape[1], nbits, seed)
        b = lsh_bucket_ids(_normalize(m), planes_holder["p"])
        return batch.append_column(out_col, pa.array(b, type=pa.int64()))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def topk_cosine_lsh(
    ds,
    query: np.ndarray,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    k: int = DEFAULT_CONFIG.ann_top_k,
    nbits: int = 8,
    multiprobe: int = 1,
):
    """Approximate top-k: scan only rows whose LSH bucket is within
    ``multiprobe`` bit flips of the query's bucket.  Trades recall for a
    ~2^nbits reduction in scanned rows; same per-batch kernel as the
    exact path afterwards."""
    q = np.asarray(query, dtype=np.float64).ravel()
    qn = q / (np.linalg.norm(q) or 1.0)

    def probe_buckets(planes: np.ndarray) -> set[int]:
        base = int(lsh_bucket_ids(qn[None, :], planes)[0])
        return _multiprobe_buckets(base, planes.shape[0], multiprobe)

    planes = None

    def fn(batch: pa.Table) -> pa.Table:
        nonlocal planes
        m = _as_matrix(batch.column(vec_col))
        if planes is None:
            planes = _hyperplanes(m.shape[1], nbits)
        bs = lsh_bucket_ids(_normalize(m), planes)
        mask = np.isin(bs, list(probe_buckets(planes)))
        return batch.filter(pa.array(mask))

    filtered = ds.select_columns([id_col, vec_col]).map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True
    )
    return topk_cosine(filtered, query, vec_col=vec_col, id_col=id_col, k=k)


# ---------------------------------------------------------------------------
# IVF (inverted-file) variant — the coarse-quantizer scale path
# ---------------------------------------------------------------------------

def train_ivf_centroids(
    ds,
    vec_col: str = "embedding",
    n_centroids: int = 16,
    sample_rows: int = 4096,
    iters: int = 10,
    seed: int = 0x1FF,
) -> np.ndarray:
    """Deterministic k-means on a bounded sample (Lloyd iterations over a
    driver-side matrix — the coarse quantizer is tiny; the DATA never
    leaves the cluster, only ``sample_rows`` rows are pulled).
    Deterministic: fixed seed for init, ties broken by lowest index."""
    sample = ds.select_columns([vec_col]).limit(sample_rows)
    mats = [_as_matrix(b.column(vec_col))
            for b in sample.iter_batches(batch_size=1024, batch_format="pyarrow")]
    m = _normalize(np.concatenate(mats, axis=0))
    k = min(n_centroids, len(m))
    rng = np.random.default_rng(seed)
    cent = m[rng.choice(len(m), size=k, replace=False)]
    for _ in range(iters):
        assign = np.argmax(m @ cent.T, axis=1)  # cosine on normalized rows
        for c in range(k):
            members = m[assign == c]
            if len(members):
                v = members.sum(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    cent[c] = v / n
    return cent


def add_ivf_cell(ds, centroids: np.ndarray, vec_col: str = "embedding",
                 out_col: str = "ivf_cell"):
    """Assign each vector to its nearest centroid (one matmul per batch;
    centroid matrix broadcast once via the object store)."""
    cent_ref = ray.put(np.asarray(centroids, dtype=np.float64))

    def fn(batch: pa.Table) -> pa.Table:
        cent = ray.get(cent_ref)
        m = _normalize(_as_matrix(batch.column(vec_col)))
        cells = np.argmax(m @ cent.T, axis=1).astype(np.int64)
        return batch.append_column(out_col, pa.array(cells, type=pa.int64()))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def topk_cosine_ivf(
    ds,
    query: np.ndarray,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    k: int = DEFAULT_CONFIG.ann_top_k,
    n_centroids: int = 16,
    nprobe: int = 4,
    centroids: np.ndarray | None = None,
):
    """IVF search: train (or reuse) a coarse quantizer, scan only the
    ``nprobe`` cells nearest the query.  At 100 TB the cell column is
    written as a partition key so probes prune at the READ (row-group
    skip), not per batch."""
    cent = centroids if centroids is not None else train_ivf_centroids(
        ds, vec_col, n_centroids)
    q = np.asarray(query, dtype=np.float64).ravel()
    qn = q / (np.linalg.norm(q) or 1.0)
    order = np.argsort(-(cent @ qn))
    probes = set(int(c) for c in order[:nprobe])

    with_cell = add_ivf_cell(ds.select_columns([id_col, vec_col]), cent, vec_col)

    def keep(batch: pa.Table) -> pa.Table:
        mask = np.isin(batch.column("ivf_cell").to_numpy(zero_copy_only=False),
                       list(probes))
        return batch.filter(pa.array(mask))

    filtered = with_cell.map_batches(keep, batch_format="pyarrow",
                                     zero_copy_batch=True)
    return topk_cosine(filtered.drop_columns(["ivf_cell"]), query,
                       vec_col=vec_col, id_col=id_col, k=k)


# ---------------------------------------------------------------------------
# partitioned ANN indexes — prune at the READ (the 100 TB path)
# ---------------------------------------------------------------------------

# stats of the most recent indexed probe: partitions scanned / total,
# scanned fraction (introspection + the BASELINE.md evidence line)
LAST_PROBE_STATS: dict = {}


def _partition_files(paths: list[str]) -> list[str]:
    """Expand partition directories to their parquet files (read_parquet
    with an explicit path LIST does not expand directories)."""
    import glob
    import os

    out: list[str] = []
    for p in paths:
        out.extend(sorted(glob.glob(os.path.join(p, "*.parquet"))))
    return out


def _log_probe(kind: str, scanned: int, total: int) -> float:
    import logging

    frac = scanned / total if total else 1.0
    LAST_PROBE_STATS.clear()
    LAST_PROBE_STATS.update(kind=kind, partitions_scanned=scanned,
                            partitions_total=total, scanned_fraction=frac)
    logging.getLogger("tscan_ray.ann").info(
        "%s probe: scanning %d/%d partitions (fraction %.3f)",
        kind, scanned, total, frac)
    return frac


def build_ivf_index(
    ds,
    index_dir: str,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    n_centroids: int = 16,
    centroids: np.ndarray | None = None,
) -> np.ndarray:
    """Write the corpus as Parquet hive-partitioned by ``ivf_cell`` —
    the docstring-promised scale layout where a probe reads ONLY its
    nprobe cells' files (partition prune at ``read_parquet``, no
    full-corpus scan).  The coarse quantizer is persisted next to the
    data (``_centroids.npy``) so probes are self-contained."""
    import os

    cent = centroids if centroids is not None else train_ivf_centroids(
        ds, vec_col, n_centroids)
    with_cell = add_ivf_cell(ds.select_columns([id_col, vec_col]), cent,
                             vec_col)
    with_cell.write_parquet(index_dir, partition_cols=["ivf_cell"])
    np.save(os.path.join(index_dir, "_centroids.npy"), cent)
    return cent


def topk_cosine_ivf_indexed(
    index_dir: str,
    query: np.ndarray,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    k: int = DEFAULT_CONFIG.ann_top_k,
    nprobe: int = 4,
):
    """IVF top-k over a :func:`build_ivf_index` layout: rank cells by
    centroid similarity, ``read_parquet`` ONLY the nprobe partition
    directories (scanned fraction logged), then the exact per-batch
    kernel.  Identical results to :func:`topk_cosine_ivf` with the same
    centroids — the per-batch cell filter becomes a file skip."""
    import os

    import ray.data as rd

    cent = np.load(os.path.join(index_dir, "_centroids.npy"))
    q = np.asarray(query, dtype=np.float64).ravel()
    qn = q / (np.linalg.norm(q) or 1.0)
    order = np.argsort(-(cent @ qn))
    cells = [int(c) for c in order[:nprobe]]
    avail = {d for d in os.listdir(index_dir) if d.startswith("ivf_cell=")}
    paths = [os.path.join(index_dir, f"ivf_cell={c}")
             for c in cells if f"ivf_cell={c}" in avail]
    _log_probe("ivf", len(paths), len(avail))
    if not paths:
        import pyarrow as _pa

        return rd.from_arrow(_pa.table({id_col: _pa.array([], _pa.int64()),
                                        "cosine": _pa.array([], _pa.float64())}))
    return topk_cosine(rd.read_parquet(_partition_files(paths)), query, vec_col=vec_col,
                       id_col=id_col, k=k)


def build_lsh_index(
    ds,
    index_dir: str,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    nbits: int = 8,
    seed: int = 0xA11,
    dim: int | None = None,
) -> np.ndarray:
    """Write the corpus hive-partitioned by ``lsh_bucket`` with the
    hyperplane matrix persisted (``_planes.npy``) — probes then read
    only the query's bucket + multiprobe flips."""
    import os

    if dim is None:
        first = ds.select_columns([vec_col]).limit(1).take(1)
        dim = len(np.asarray(first[0][vec_col]).ravel())
    planes = _hyperplanes(dim, nbits, seed)
    bucketed = add_lsh_bucket(ds.select_columns([id_col, vec_col]), vec_col,
                              nbits=nbits, seed=seed)
    bucketed.write_parquet(index_dir, partition_cols=["lsh_bucket"])
    np.save(os.path.join(index_dir, "_planes.npy"), planes)
    return planes


def _multiprobe_buckets(base: int, nbits: int, depth: int) -> set[int]:
    """All buckets within ``depth`` Hamming bit flips of ``base``
    (depth=0 -> just the query bucket; depth=2 probes 1- AND 2-bit
    flips, etc.).  Shared by the scan and indexed LSH probes so the two
    stay identical."""
    from itertools import combinations

    buckets = {base}
    for d in range(1, max(0, depth) + 1):
        for bits in combinations(range(nbits), d):
            m = 0
            for b in bits:
                m |= 1 << b
            buckets.add(base ^ m)
    return buckets


def topk_cosine_lsh_indexed(
    index_dir: str,
    query: np.ndarray,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    k: int = DEFAULT_CONFIG.ann_top_k,
    multiprobe: int = 1,
):
    """LSH top-k over a :func:`build_lsh_index` layout: compute the
    query's bucket + bit-flip probes, read ONLY those partition
    directories (scanned fraction logged).  Identical results to
    :func:`topk_cosine_lsh` with the same planes."""
    import os

    import ray.data as rd

    planes = np.load(os.path.join(index_dir, "_planes.npy"))
    q = np.asarray(query, dtype=np.float64).ravel()
    qn = q / (np.linalg.norm(q) or 1.0)
    base = int(lsh_bucket_ids(qn[None, :], planes)[0])
    buckets = _multiprobe_buckets(base, planes.shape[0], multiprobe)
    avail = {d for d in os.listdir(index_dir) if d.startswith("lsh_bucket=")}
    paths = [os.path.join(index_dir, f"lsh_bucket={b}")
             for b in sorted(buckets) if f"lsh_bucket={b}" in avail]
    _log_probe("lsh", len(paths), len(avail))
    if not paths:
        import pyarrow as _pa

        return rd.from_arrow(_pa.table({id_col: _pa.array([], _pa.int64()),
                                        "cosine": _pa.array([], _pa.float64())}))
    return topk_cosine(rd.read_parquet(_partition_files(paths)), query, vec_col=vec_col,
                       id_col=id_col, k=k)


def cosine_neardup_pairs(
    ds,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    threshold: float = 0.95,
    nbits: int = 10,
    round_to: int | None = 6,
):
    """Embedding-cosine near-duplicate pairs (id_a < id_b, cosine >= t).

    One groupby exchange on the LSH bucket; exact cosine verification per
    bucket (vectorized gram matrix).  Pairs split across buckets are
    missed with probability falling with nbits — the standard LSH recall
    trade; run with multiple seeds and union for higher recall.
    ``round_to``: similarities are rounded (half-away, DuckDB parity)
    BEFORE the threshold compare, so the pair set is deterministic
    across engines whose float association order differs."""
    bucketed = add_lsh_bucket(ds.select_columns([id_col, vec_col]), vec_col,
                              nbits=nbits)

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        # one exchange bucket holds many whole LSH buckets: run-scan the
        # sorted frame, gram-matrix per LSH bucket (a pair lives in exactly
        # one LSH bucket — its id is the full signature — so no dedup pass)
        df = df.sort_values(["lsh_bucket", id_col], kind="mergesort")
        buckets = df["lsh_bucket"].to_numpy()
        ids_all = df[id_col].to_numpy()
        vecs_all = df[vec_col].to_numpy()
        out = {"id_a": [], "id_b": [], "cosine": []}
        n = len(df)
        starts = np.flatnonzero(np.r_[True, buckets[1:] != buckets[:-1]])
        ends = np.r_[starts[1:], n]
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue
            ids = ids_all[s:e]
            m = _normalize(np.stack(vecs_all[s:e]).astype(np.float64))
            sims = m @ m.T
            if round_to is not None:
                from tscan_ray.ops.rounding import round_half_away

                sims = round_half_away(sims, round_to)
            iu, ju = np.triu_indices(len(ids), k=1)
            mask = sims[iu, ju] >= threshold
            ia, jb = ids[iu[mask]], ids[ju[mask]]
            out["id_a"].extend(np.minimum(ia, jb).tolist())
            out["id_b"].extend(np.maximum(ia, jb).tolist())
            out["cosine"].extend(sims[iu, ju][mask].tolist())
        return pd.DataFrame({"id_a": pd.array(out["id_a"], dtype="int64"),
                             "id_b": pd.array(out["id_b"], dtype="int64"),
                             "cosine": pd.array(out["cosine"], dtype="float64")})

    from tscan_ray.ops.keyed import task_exchange

    return task_exchange(bucketed, "lsh_bucket", verify)

"""Deduplication family: exact, MinHash+LSH, SimHash, n-gram Jaccard.

The reference has no dataset-level dedup (SURVEY.md §2.7); these are the
training-data-pipeline operators the engine adds as first-class citizens.

Scale design:

* exact: ONE keyed exchange of (text, id) on the text;
  representative = min(id) (deterministic).
* MinHash-LSH: shingles -> 64 permutations -> 16 banded Horner hashes;
  the exchange carries ONLY (band_key:int64, doc_id) pairs — 20 bytes ×
  bands per doc, no shingle/signature payload (the r01 design shipped
  the full shingle set into every band row, a bands× amplification of
  the pipeline's largest intermediate).  Candidate pairs come out of
  the band-key exchange; exact-Jaccard verification is one more chain
  of keyed exchanges that recomputes shingles for the CANDIDATE docs
  only, with nothing collected on the driver or broadcast.
* connected components: hash-min label propagation, one keyed exchange
  per iteration.
* SimHash: 64-bit fingerprint per doc from token hashes (near-dup via
  Hamming distance on prefix buckets).

Cross-engine verifiability: every hash in the MinHash/SimHash path is
md5-derived with arithmetic confined to [0, 2^31-1) (products < 2^62,
exact in uint64 AND in SQL hugeint), so a DuckDB oracle can reproduce
the exact pair set — see ``oracle_sql()['dedup_minhash']``.  Swap
``_md5_u64`` for a faster vectorized hash (xxhash) at production scale
if oracle parity is not needed.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from tscan_ray.config import DEFAULT_CONFIG
from tscan_ray.ops.keyed import task_exchange

# ASCII token class, lowercased input: identical semantics in Python re
# and RE2/DuckDB (`\w` is unicode-aware in Python but ASCII in RE2 —
# an ASCII class keeps the two tokenizers bit-identical).
_TOKEN_RE = re.compile(r"[0-9a-z_]+")

_P31 = np.uint64((1 << 31) - 1)  # modulus: keeps all products < 2^62
_HORNER_K = np.uint64(1_000_003)


def _md5_u64(strs: list[str]) -> np.ndarray:
    """First 8 bytes of md5 as uint64 (big-endian) — matches DuckDB's
    ('0x' || substr(md5(s), 1, 16))::ubigint exactly."""
    return np.fromiter(
        (int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big")
         for s in strs),
        np.uint64, len(strs))


def _minhash_params(num_perm: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(0x75CA)  # fixed seed: reproducible across runs
    a = rng.integers(1, int(_P31), size=num_perm, dtype=np.uint64)
    b = rng.integers(0, int(_P31), size=num_perm, dtype=np.uint64)
    return a, b


def shingles(text: str, k: int) -> np.ndarray:
    """Word k-shingle hashes: distinct md5-u64 mod 2^31-1 (uint64)."""
    toks = _TOKEN_RE.findall(text.lower())
    if len(toks) < k:
        grams = [" ".join(toks)] if toks else []
    else:
        grams = [" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)]
    if not grams:
        return np.empty(0, dtype=np.uint64)
    return np.unique(_md5_u64(grams) % _P31)


# fast-path token-hash memo: natural text reuses a small vocabulary, so
# md5 runs once per DISTINCT token per worker; gram hashing is then a
# k-step vectorized rolling Horner over the token-hash array (no
# per-gram Python hashing).  Bounded to keep worker heaps flat on
# open-vocabulary corpora.
_TOKEN_HASH_CACHE: dict[str, int] = {}
_TOKEN_HASH_CACHE_LIMIT = 1_000_000


def shingles_fast(text: str, k: int) -> np.ndarray:
    """Vectorized word k-shingle hashes (production path).

    Same output SHAPE and modulus as :func:`shingles` but a different
    (still deterministic, process-independent) hash function: per-token
    md5 (memoized) combined per-gram with the Horner rolling hash.
    Jaccard over these hashes equals Jaccard over the md5-gram hashes
    up to mod-P collisions, so the verified pair set matches the md5
    path in practice; the DuckDB oracle pins the md5 path, which stays
    the default for oracle-checked queries.

    Collision/equivalence bound (property-tested in
    tests/test_property.py::TestFastHashDedupEquivalence): both hash
    functions map distinct grams ~uniformly into [0, P), P = 2^31-1.
    For a candidate pair with U distinct grams in the union, the exact
    verify-stage Jaccard differs between the paths only if some pair of
    distinct grams collides mod P under one hash but not the other:
    probability <= 2*C(U,2)/P ~ U^2/2^31 per pair (~5e-4 at U=10^3),
    and a collision perturbs Jaccard by at most 1/U, so a pair can flip
    across the threshold only when its exact Jaccard lies within 1/U of
    it — combined flip probability < 1e-6 per candidate pair.  The LSH
    CANDIDATE sample (r = num_perm/bands rows per band) is drawn from
    the same distribution but with different randomness under the two
    hashes, so for r > 1 near-threshold pairs may appear in one path's
    candidate set and not the other's; with r = 1 banding both paths
    reach recall ~1 (miss <= (1-J)^num_perm) and the verified pair sets
    coincide, which is the regime the property test asserts."""
    toks = _TOKEN_RE.findall(text.lower())
    if not toks:
        return np.empty(0, dtype=np.uint64)
    h = np.empty(len(toks), dtype=np.uint64)
    cache = _TOKEN_HASH_CACHE
    for i, t in enumerate(toks):
        v = cache.get(t)
        if v is None:
            v = int.from_bytes(hashlib.md5(t.encode()).digest()[:8], "big")
            if len(cache) >= _TOKEN_HASH_CACHE_LIMIT:
                cache.clear()
            cache[t] = v
        h[i] = v
    h %= _P31
    if len(toks) < k:
        acc = np.uint64(0)
        for v in h:
            acc = (acc * _HORNER_K + v) % _P31
        return np.array([acc], dtype=np.uint64)
    m = len(toks) - k + 1
    acc = np.zeros(m, dtype=np.uint64)
    for j in range(k):
        acc = (acc * _HORNER_K + h[j:j + m]) % _P31
    return np.unique(acc)


def _shingle_fn(hash_impl: str):
    if hash_impl == "md5":
        return shingles
    if hash_impl == "fast":
        return shingles_fast
    raise ValueError(f"hash_impl must be 'md5' or 'fast', got {hash_impl!r}")


def minhash_signature(sh: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """num_perm minima of (a*x + b) mod (2^31-1) — vectorized over
    shingles; a, x < 2^31 so products stay < 2^62 (exact in uint64)."""
    if sh.size == 0:
        return np.full(a.shape[0], _P31, dtype=np.uint64)
    prod = (sh[None, :] * a[:, None] + b[:, None]) % _P31
    return prod.min(axis=1)


def band_keys(sig: np.ndarray, bands: int) -> np.ndarray:
    """Fold a (num_perm,) signature into ``bands`` int64 keys: Horner
    hash of each band's rows mod 2^31-1, offset by band_id*(2^31-1) so
    keys never collide across bands (single-column exchange key)."""
    rows = sig.shape[0] // bands
    view = sig.reshape(bands, rows)
    bh = np.zeros(bands, dtype=np.uint64)
    for j in range(rows):
        bh = (bh * _HORNER_K + view[:, j]) % _P31
    return (np.arange(bands, dtype=np.uint64) * _P31 + bh).astype(np.int64)


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def dedup_exact(ds, text_col: str, id_col: str):
    """Exact dedup by column content.  Returns one row per distinct text:
    (text_col, id_col = min id, n = duplicate count); a NULL text is one
    group, as in SQL ``GROUP BY``.

    One keyed exchange on the text itself (no hash-collision false
    merges) folds min id and count per text inside each bucket; at
    100 TB key it by a 64-bit content hash instead (same plan, narrower
    key)."""

    def fold(t: pa.Table) -> pa.Table:
        g = t.to_pandas().groupby(text_col, dropna=False, sort=False)[id_col]
        out = pd.DataFrame({id_col: g.min(), "n": g.size()}).reset_index()
        return pa.Table.from_pandas(out, preserve_index=False, schema=pa.schema(
            [t.schema.field(text_col), t.schema.field(id_col),
             pa.field("n", pa.int64())]))

    return task_exchange(ds.select_columns([id_col, text_col]), text_col,
                         fold, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# MinHash + LSH near-dup
# ---------------------------------------------------------------------------

def minhash_lsh_pairs(
    ds,
    text_col: str,
    id_col: str,
    num_perm: int = DEFAULT_CONFIG.minhash_num_perm,
    bands: int = DEFAULT_CONFIG.minhash_bands,
    shingle_k: int = DEFAULT_CONFIG.shingle_k,
    jaccard_threshold: float = 0.7,
    hash_impl: str = "md5",
):
    """Near-duplicate pairs via MinHash banding, verified with exact
    Jaccard over shingle sets.

    Returns a Dataset of (id_a, id_b, jaccard) with id_a < id_b, pairs
    restricted to band collisions (standard LSH recall trade) and
    jaccard >= threshold (exact, over distinct shingle hashes).

    Plan (keyed exchanges only: nothing is collected on the driver or
    broadcast):
      1. one pass over the corpus emits (band_key:int64, id) rows —
         bands × 20 bytes per doc, no shingle/signature payload;
      2. an exchange on band_key, where equal-key runs yield candidate
         pairs, then one on id_a, which drops the repeats of a pair that
         collides in several bands and emits each pair's two endpoint
         rows (id, id_a, id_b, slot), keyed on the corpus's id column;
      3. a two-input exchange of the endpoint rows and the corpus on that
         column: each bucket shingles only the docs an endpoint
         references and emits one (id_a, id_b, slot, shingles) row per
         endpoint; on a repeated doc id the lexicographically smallest
         text wins;
      4. an exchange on id_a, where each pair's two rows meet and exact
         Jaccard is computed.
    Docs with zero shingles never enter the banding (a doc with no
    tokens has no similarity evidence).  ``id_col`` holds integer ids and
    may not be named ``id_a`` or ``id_b``.
    """
    if id_col in ("id_a", "id_b"):
        raise ValueError(f"id_col {id_col!r} clashes with a pair column")
    sh_fn = _shingle_fn(hash_impl)
    a, b = _minhash_params(num_perm)
    docs = ds.select_columns([id_col, text_col])

    def to_bands(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        shs, keep = [], []
        for i, t in enumerate(texts):
            sh = sh_fn(t or "", shingle_k)
            if sh.size:
                shs.append(sh)
                keep.append(i)
        if not shs:
            return pa.table({
                "band_key": pa.array([], type=pa.int64()),
                id_col: pa.array([], type=batch.column(id_col).type),
            })
        # ONE (num_perm, total_shingles) pass for the whole batch, then
        # segment-minima per doc — no per-doc numpy dispatch overhead
        lens = np.fromiter((s.size for s in shs), np.int64, len(shs))
        offsets = np.zeros(len(shs), dtype=np.int64)
        np.cumsum(lens[:-1], out=offsets[1:])
        sh_all = np.concatenate(shs)
        prod = (sh_all[None, :] * a[:, None] + b[:, None]) % _P31
        sigs = np.minimum.reduceat(prod, offsets, axis=1).T  # (docs, perm)
        # banded Horner keys, vectorized across docs
        rows = sigs.shape[1] // bands
        view = sigs.reshape(len(shs), bands, rows)
        bh = np.zeros((len(shs), bands), dtype=np.uint64)
        for j in range(rows):
            bh = (bh * _HORNER_K + view[:, :, j]) % _P31
        keys = (np.arange(bands, dtype=np.uint64)[None, :] * _P31
                + bh).astype(np.int64)
        return pa.table({
            "band_key": pa.array(keys.ravel(), type=pa.int64()),
            id_col: pa.array(np.repeat(ids[keep], bands),
                             type=batch.column(id_col).type),
        })

    banded = docs.map_batches(to_bands, batch_format="pyarrow",
                              zero_copy_batch=True)

    def bucket_candidates(df: pd.DataFrame) -> pd.DataFrame:
        """One hash bucket of band keys: sort, detect equal-key runs
        vectorized, emit unique (id_a < id_b) candidate pairs."""
        df = df.sort_values(["band_key", id_col], kind="mergesort")
        keys = df["band_key"].to_numpy()
        ids = df[id_col].to_numpy()
        n = len(df)
        out_a, out_b = [], []
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        ends = np.r_[starts[1:], n]
        for s, e in zip(starts, ends):
            if e - s < 2:
                continue
            # a doc_id repeated in the corpus would otherwise self-pair
            # (id_a == id_b), violating the id_a < id_b contract
            run = np.unique(ids[s:e])
            if len(run) < 2:
                continue
            for i in range(len(run)):
                for j in range(i + 1, len(run)):
                    out_a.append(run[i])
                    out_b.append(run[j])
        return pd.DataFrame({"id_a": pd.array(out_a, dtype="int64"),
                             "id_b": pd.array(out_b, dtype="int64")})

    def endpoints(df: pd.DataFrame) -> pd.DataFrame:
        """Each distinct pair of one id_a bucket as its two endpoint rows,
        slot 0 keyed on id_a and slot 1 on id_b."""
        df = df.drop_duplicates()
        ia, ib = df["id_a"].to_numpy(), df["id_b"].to_numpy()
        return pd.DataFrame({
            id_col: np.concatenate([ia, ib]),
            "id_a": np.tile(ia, 2),
            "id_b": np.tile(ib, 2),
            "__slot__": np.repeat(np.array([0, 1], np.int8), len(ia)),
        })

    def join_shingles(e: pa.Table, d: pa.Table) -> pd.DataFrame:
        """One id bucket: each endpoint row with the shingle set of its
        doc, as uint64 bytes; only referenced docs are shingled."""
        if not e.num_rows:  # every endpoint's doc is in its bucket
            return pd.DataFrame({"id_a": pd.Series(dtype=np.int64),
                                 "id_b": pd.Series(dtype=np.int64),
                                 "__slot__": pd.Series(dtype=np.int8),
                                 "__sh__": pd.Series(dtype=object)})
        endp = e.to_pandas()
        txt = d.to_pandas()
        txt = (txt[txt[id_col].isin(endp[id_col])]
               .sort_values([id_col, text_col], kind="mergesort")
               .drop_duplicates(id_col, keep="first"))
        sh = {k: sh_fn(t or "", shingle_k).tobytes()
              for k, t in zip(txt[id_col], txt[text_col])}
        return pd.DataFrame({"id_a": endp["id_a"], "id_b": endp["id_b"],
                             "__slot__": endp["__slot__"],
                             "__sh__": endp[id_col].map(sh)})

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        """One id_a bucket: both endpoint rows of every pair, sorted into
        slot-0/slot-1 neighbours; keep the pairs at the threshold."""
        from tscan_ray.ops.rounding import round_half_away

        df = df.sort_values(["id_a", "id_b", "__slot__"], kind="mergesort")
        sh = df["__sh__"].to_numpy()
        jac = np.array([_jaccard(np.frombuffer(x, np.uint64),
                                 np.frombuffer(y, np.uint64))
                        for x, y in zip(sh[0::2], sh[1::2])], np.float64)
        keep = jac >= jaccard_threshold
        return pd.DataFrame({
            "id_a": df["id_a"].to_numpy(np.int64)[0::2][keep],
            "id_b": df["id_b"].to_numpy(np.int64)[0::2][keep],
            "jaccard": round_half_away(jac[keep], 6)})

    cand = task_exchange(banded, "band_key", bucket_candidates)
    ends = task_exchange(cand, "id_a", endpoints)
    sides = task_exchange((ends, docs), id_col, join_shingles,
                          batch_format="pyarrow")
    return task_exchange(sides, "id_a", verify)


def _jaccard(sa: np.ndarray, sb: np.ndarray) -> float:
    """Jaccard of two distinct-shingle arrays (0 when both are empty)."""
    inter = np.intersect1d(sa, sb, assume_unique=True).size
    union = sa.size + sb.size - inter
    return inter / union if union else 0.0


def ngram_jaccard(text_a: str, text_b: str, k: int = DEFAULT_CONFIG.shingle_k) -> float:
    """Exact word-k-gram Jaccard similarity of two texts (verification kernel)."""
    sa, sb = shingles(text_a, k), shingles(text_b, k)
    if sa.size == 0 and sb.size == 0:
        return 1.0
    return _jaccard(sa, sb)


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

def simhash64(text: str) -> int:
    """64-bit SimHash over word tokens (unit weights), deterministic."""
    toks = _TOKEN_RE.findall(text.lower())
    if not toks:
        return 0
    h = _md5_u64(toks)
    bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.int64)
    v = (2 * bits - 1).sum(axis=0)
    out = np.uint64(0)
    for i in range(64):
        if v[i] > 0:
            out |= np.uint64(1) << np.uint64(i)
    return int(out.astype(np.int64))


def add_simhash(ds, text_col: str, out_col: str = "simhash"):
    """Append a SimHash fingerprint column (vectorized batch stage)."""

    def fn(batch: pa.Table) -> pa.Table:
        vals = [simhash64(t or "") for t in batch.column(text_col).to_pylist()]
        return batch.append_column(out_col, pa.array(vals, type=pa.int64()))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def hamming64(a: int, b: int) -> int:
    return bin((a ^ b) & ((1 << 64) - 1)).count("1")


_LABEL_ROW, _MESSAGE_ROW, _EDGE_ROW = 0, 1, 2  # a state row's ``kind``


@ray.remote
def _changed_labels(block: pa.Table) -> int:
    """How many rows of a :func:`connected_components` state block are
    labels that changed this iteration."""
    return pc.sum(block.column("changed")).as_py() or 0


@ray.remote
def _components(block: pa.Table) -> pa.Table:
    """The (node, component) rows of a :func:`connected_components`
    state block: its label rows."""
    t = block.filter(pc.equal(block.column("kind"), _LABEL_ROW))
    return pa.table({"node": t.column("node"), "component": t.column("value")})


def connected_components(
    pairs,
    src_col: str = "id_a",
    dst_col: str = "id_b",
    max_iters: int = 50,
    num_buckets: int | None = None,
):
    """Cluster duplicate PAIRS into duplicate GROUPS: distributed
    connected components by hash-min label propagation.

    Returns a Dataset of (node, component) where ``component`` is the
    MINIMUM node id in the cluster — the canonical representative (the
    same keep-smallest-id convention as :func:`dedup_exact`).

    Plan per iteration (a driver loop): ONE keyed exchange on ``node``
    over one state table of (node, kind, value, changed) rows: per node
    a label row (value = its label), message rows (value = a
    neighbour's label) and edge rows (value = a neighbour).  A node's
    new label is the min of its old label, its messages, itself and its
    neighbours; each bucket emits the new labels with a ``changed``
    flag, one message per out-edge and the edges themselves, so the
    exchange's materialized output is the next iteration's input.  The
    first state is the edges alone, both ways, made in the first
    exchange's split tasks (``map_block``: unlike a Ray Data map, it also
    maps empty blocks).  Hash-min converges in
    O(diameter) iterations (near-dup clusters are shallow: mostly
    cliques from LSH bands); the loop stops after an iteration that
    changes no label.
    """
    def to_edges(batch: pa.Table) -> pa.Table:
        if src_col not in batch.column_names:  # a schema-less empty block
            batch = pa.table({c: pa.array([], pa.int64()) for c in (src_col, dst_col)})
        a = batch.column(src_col).combine_chunks()
        b = batch.column(dst_col).combine_chunks()
        n = 2 * len(a)
        return pa.table({"node": pa.concat_arrays([a, b]),
                         "kind": np.full(n, _EDGE_ROW, np.int8),
                         "value": pa.concat_arrays([b, a]),
                         "changed": np.zeros(n, bool)})

    def step(t: pa.Table) -> pa.Table:
        node = t.column("node").to_numpy()
        kind = t.column("kind").to_numpy()
        value = t.column("value").to_numpy()
        nodes, inv = np.unique(node, return_inverse=True)
        label = nodes.copy()
        np.minimum.at(label, inv, value)
        changed = np.ones(len(nodes), bool)
        old = kind == _LABEL_ROW
        changed[inv[old]] = value[old] != label[inv[old]]
        edge = kind == _EDGE_ROW
        src, dst = node[edge], value[edge]
        return pa.table({
            "node": np.concatenate([nodes, dst, src]),
            "kind": np.repeat(np.array([_LABEL_ROW, _MESSAGE_ROW, _EDGE_ROW],
                                       np.int8),
                              [len(nodes), len(src), len(src)]),
            "value": np.concatenate([label, label[inv[edge]], dst]),
            "changed": np.concatenate([changed, np.zeros(2 * len(src), bool)]),
        })

    state = pairs
    for i in range(max_iters):
        state = task_exchange(state, "node", step, num_buckets,
                              batch_format="pyarrow",
                              map_block=None if i else to_edges)
        # the exchange's output is materialized: count the changed labels
        # with one task per block, where ``Dataset.sum`` would start a
        # Ray Data executor every iteration
        if not sum(ray.get([_changed_labels.remote(ref)
                            for bundle in state.iter_internal_ref_bundles()
                            for ref in bundle.block_refs])):
            break

    # one task per block, as for the count: a Ray Data map would skip
    # the zero-row blocks and leave them without a schema
    return rd.from_arrow_refs([_components.remote(ref)
                               for bundle in state.iter_internal_ref_bundles()
                               for ref in bundle.block_refs]).materialize()

"""Text-analysis operators for large-scale training-data pipelines:
token counting, quality scoring, language-ID, document fingerprinting.

All are stateless vectorized ``map_batches`` stages (Arrow/numpy kernels
or one C-speed pass per batch); none shuffles.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from tscan_ray.ops.rounding import round_half_away, round_half_away_scalar

_WS_RE = r"\s+"
# BPE-ish pretokenizer: word pieces, numbers, or single non-space symbols
_BPE_RE = re.compile(r"[A-Za-zÀ-ɏ]+|\d+|[^\sA-Za-zÀ-ɏ\d]")

_STOPWORDS = {
    "en": frozenset("the a of and to in is was for on with as by at it from".split()),
    "nl": frozenset("de het een en van in is was voor op met als bij om uit".split()),
    "de": frozenset("der die das und zu in ist war für auf mit als bei".split()),
    "fr": frozenset("le la les un une et de du dans est était pour sur avec".split()),
    "es": frozenset("el la los las un una y de en es era para con por".split()),
}


def add_token_counts(ds, text_col: str, prefix: str = ""):
    """Whitespace token count + BPE-ish token count per row.

    Whitespace count is pure Arrow (split + list_value_length); the
    BPE-ish count is one compiled-regex pass per row (C speed)."""

    def fn(batch: pa.Table) -> pa.Table:
        txt = batch.column(text_col)
        trimmed = pc.utf8_trim_whitespace(txt)
        ws = pc.list_value_length(pc.split_pattern_regex(trimmed, _WS_RE))
        # empty strings split to [''] -> force 0
        ws = pc.if_else(pc.equal(pc.utf8_length(trimmed), 0), pa.scalar(0, pa.int32()), ws)
        bpe = pa.array(
            [len(_BPE_RE.findall(t)) if t else 0 for t in txt.to_pylist()],
            type=pa.int64(),
        )
        batch = batch.append_column(prefix + "n_tokens_ws", pc.cast(ws, pa.int64()))
        batch = batch.append_column(prefix + "n_tokens_bpe", bpe)
        return batch

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def add_ttr(ds, text_col: str, prefix: str = ""):
    """Whitespace-token TTR per row: n_tokens, n_types, ttr (round 6).
    (The linguistically faithful TTR lives in the T-scan featurizer; this
    is the cheap corpus-screening variant over lowercased split tokens.)"""

    def fn(batch: pa.Table) -> pa.Table:
        n_tok, n_typ, ttr = [], [], []
        for t in batch.column(text_col).to_pylist():
            toks = (t or "").lower().split()
            n_tok.append(len(toks))
            n_typ.append(len(set(toks)))
            # half-away rounding = DuckDB round() (ties occur, e.g. 1/128)
            ttr.append(round_half_away_scalar(len(set(toks)) / len(toks), 6)
                       if toks else None)
        batch = batch.append_column(prefix + "n_tokens", pa.array(n_tok, type=pa.int64()))
        batch = batch.append_column(prefix + "n_types", pa.array(n_typ, type=pa.int64()))
        batch = batch.append_column(prefix + "ttr", pa.array(ttr, type=pa.float64()))
        return batch

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def add_quality_score(ds, text_col: str, prefix: str = ""):
    """Heuristic document quality: length, mean word length, punctuation
    ratio, stopword ratio, digit ratio, repetition ratio, and a combined
    [0,1] score.  Vectorized Arrow kernels + one token pass."""

    def fn(batch: pa.Table) -> pa.Table:
        texts = [t or "" for t in batch.column(text_col).to_pylist()]
        n = len(texts)
        n_chars = np.fromiter((len(t) for t in texts), np.int64, n)
        out = {
            "n_chars": n_chars,
            "mean_word_len": np.zeros(n),
            "punct_ratio": np.zeros(n),
            "stopword_ratio": np.zeros(n),
            "digit_ratio": np.zeros(n),
            "repetition_ratio": np.zeros(n),
        }
        stop_en = _STOPWORDS["en"]
        for i, t in enumerate(texts):
            toks = t.lower().split()
            if toks:
                out["mean_word_len"][i] = sum(map(len, toks)) / len(toks)
                out["stopword_ratio"][i] = sum(w in stop_en for w in toks) / len(toks)
                out["repetition_ratio"][i] = 1.0 - len(set(toks)) / len(toks)
            if t:
                npunct = sum(not ch.isalnum() and not ch.isspace() for ch in t)
                out["punct_ratio"][i] = npunct / len(t)
                out["digit_ratio"][i] = sum(ch.isdigit() for ch in t) / len(t)
        # combined score: long-enough, word-shaped, not punct/digit soup,
        # not pathologically repetitive
        length_ok = np.clip(out["n_chars"] / 200.0, 0, 1)
        word_ok = np.clip((out["mean_word_len"] - 1) / 5.0, 0, 1)
        clean = 1.0 - np.clip(out["punct_ratio"] * 3 + out["digit_ratio"] * 2, 0, 1)
        diverse = 1.0 - np.clip(out["repetition_ratio"] * 1.25, 0, 1)
        out["quality_score"] = round_half_away(
            0.25 * length_ok + 0.25 * word_ok + 0.25 * clean + 0.25 * diverse, 6
        )
        for k, v in out.items():
            typ = pa.int64() if v.dtype == np.int64 else pa.float64()
            name = prefix + k
            arr = pa.array(round_half_away(v, 6) if typ == pa.float64() else v,
                           type=typ)
            if name in batch.column_names:  # replace (e.g. a source n_chars)
                batch = batch.set_column(batch.column_names.index(name), name, arr)
            else:
                batch = batch.append_column(name, arr)
        return batch

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def add_lang_id(ds, text_col: str, out_col: str = "lang_pred"):
    """Stopword-profile language ID over {en,nl,de,fr,es}; deterministic
    tie-break by language code order.  'und' when no stopwords hit."""
    langs = sorted(_STOPWORDS)

    def fn(batch: pa.Table) -> pa.Table:
        preds = []
        for t in batch.column(text_col).to_pylist():
            toks = (t or "").lower().split()
            best, best_score = "und", 0
            for lang in langs:
                score = sum(w in _STOPWORDS[lang] for w in toks)
                if score > best_score:
                    best, best_score = lang, score
            preds.append(best)
        return batch.append_column(out_col, pa.array(preds, type=pa.string()))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


_P31_INT = (1 << 31) - 1


def rolling_fingerprint(text: str, k: int = 4) -> int:
    """Document fingerprint combining an exact-content hash with a
    winnowing-style rolling minimum:

      ``fp = (md5_u64(text) mod 2^31-1) * (2^31-1) + min_gram``

    where ``min_gram`` is the minimum md5-u64-mod-(2^31-1) over the
    lowercased word ``k``-grams (0 when the text has no tokens).  The
    exact-content part changes on any byte edit; the min-gram part is
    shared by heavily-overlapping documents, so equal low halves flag
    near-dup candidates.  Values stay < 2^62 (exact in int64 and in SQL
    hugeint arithmetic — cross-engine verifiable, see
    ``oracle_sql()['text_fingerprint']``).  Empty text -> 0."""
    from tscan_ray.ops.dedup import shingles

    if not text:
        return 0
    h_text = int.from_bytes(
        __import__("hashlib").md5(text.encode()).digest()[:8], "big") % _P31_INT
    sh = shingles(text, k)
    min_gram = int(sh.min()) if sh.size else 0
    return h_text * _P31_INT + min_gram


def add_fingerprint(ds, text_col: str, out_col: str = "fingerprint",
                    k: int = 4):
    """Append the fingerprint column (one md5 per doc + one per word
    k-gram — memoize or swap for a vectorized hash at production scale)."""

    def fn(batch: pa.Table) -> pa.Table:
        vals = [rolling_fingerprint(t or "", k) for t in batch.column(text_col).to_pylist()]
        return batch.append_column(out_col, pa.array(vals, type=pa.int64()))

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def word_frequency_topk(ds, text_col: str, k: int = 20):
    """Global token frequency top-k with per-batch partial aggregation:
    each batch emits (token, partial_count) rows — the keyed exchange on
    token sums the pre-reduced partials, then sort + limit."""
    from tscan_ray.ops.keyed import task_exchange

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        cnt: Counter = Counter()
        for t in batch.column(text_col).to_pylist():
            cnt.update((t or "").lower().split())
        if not cnt:
            return pa.table({"token": pa.array([], type=pa.string()),
                             "partial": pa.array([], type=pa.int64())})
        toks, vals = zip(*cnt.items())
        return pa.table({"token": pa.array(list(toks), type=pa.string()),
                         "partial": pa.array(list(vals), type=pa.int64())})

    partials = ds.select_columns([text_col]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    )

    def total(t: pa.Table) -> pa.Table:
        n = t.to_pandas().groupby("token", sort=False)["partial"].sum()
        return pa.table({"token": pa.array(n.index, pa.string()),
                         "n": pa.array(n.to_numpy(), pa.int64())})

    totals = task_exchange(partials, "token", total, batch_format="pyarrow")
    return totals.sort(["n", "token"], descending=[True, False]).limit(k)


def frequency_rank_table(ds, text_col: str, k: int = 20000,
                         bands: tuple = (1000, 2000, 3000, 5000, 10000, 20000)):
    """Rebuild the reference's static top-k frequency rank table from a
    corpus (reference loads it from a file, rank = line number, and W16
    assigns cumulative rank bands — src/tscan.cxx:492-523).

    Distributed plan: 2-phase token counts -> sort desc -> limit k (all
    Dataset-native); the rank + band attach runs on the k-row RESULT
    (repartition(1), whole-block batch), which is legitimately small.
    """
    top = word_frequency_topk(ds, text_col, k).repartition(1)
    band_arr = np.asarray(bands, dtype=np.int64)

    def add_rank(batch: pa.Table) -> pa.Table:
        rnk = np.arange(1, batch.num_rows + 1, dtype=np.int64)
        # ranks past the last band edge (k > max(bands)) clamp into it
        band = band_arr[np.minimum(np.searchsorted(band_arr, rnk, side="left"),
                                   len(band_arr) - 1)]
        return batch.append_column("rnk", pa.array(rnk)).append_column(
            "band", pa.array(band))

    return top.map_batches(add_rank, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None)


def chunk_documents(ds, text_col: str, id_col: str, chunk_tokens: int = 64,
                    overlap: int = 0):
    """Split each document into fixed-size whitespace-token chunks (the
    context-window preparation step of a training-data pipeline).

    Pure per-row flat transform — deterministic chunk ids, no shuffle,
    and a row only ever expands into its own chunks, so the stage
    parallelizes like any map.  ``overlap`` tokens are repeated from the
    previous chunk (stride = chunk_tokens - overlap).
    """
    if not 0 <= overlap < chunk_tokens:
        raise ValueError("overlap must be in [0, chunk_tokens)")
    stride = chunk_tokens - overlap

    def fn(batch: pa.Table) -> pa.Table:
        ids_out, cids, texts = [], [], []
        ids = batch.column(id_col).to_pylist()
        for i, t in enumerate(batch.column(text_col).to_pylist()):
            toks = (t or "").split()
            if not toks:
                continue
            n = len(toks)
            cid = 0
            for start in range(0, n, stride):
                ids_out.append(ids[i])
                cids.append(cid)
                texts.append(" ".join(toks[start:start + chunk_tokens]))
                cid += 1
                if start + chunk_tokens >= n:
                    break
        # type the id column from the input even when no chunks were
        # produced — an empty pa.array() would be null-typed and break
        # schema unification with other batches
        return pa.table({
            id_col: pa.array(ids_out, type=batch.column(id_col).type),
            "chunk_id": pa.array(cids, type=pa.int64()),
            "chunk_text": pa.array(texts, type=pa.string()),
        })

    return ds.select_columns([id_col, text_col]).map_batches(
        fn, batch_format="pyarrow", zero_copy_batch=True)

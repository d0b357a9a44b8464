"""Deterministic lookup language model — the engine's Wopr replacement.

The reference attaches per-word forward/backward log10-probabilities and
per-sentence avg_prob10 / entropy / perplexity from a Wopr LM server
(reference src/tscan.cxx:1978-2064; doc normalizations
src/tscan.cxx:2843-2864).  The sandbox has no Wopr and the north rule
demands reproducibility, so per SURVEY.md §7.0 (M4) the engine uses a
**lookup-table bigram LM held in stage state**:

* ``BigramLM`` — Laplace-smoothed bigram with unigram backoff, built
  either from the packaged lexicon frequencies (default, unigram-only)
  or **fitted distributedly from a corpus** with :func:`fit_bigram_lm`
  (map_batches partial counts -> one small groupby -> driver-side table,
  bounded by vocabulary size, broadcast to scoring tasks via ``ray.put``).
* forward logprob10 = log10 P(w_i | w_{i-1}); backward =
  log10 P(w_i | w_{i+1}) (the reverse conditional from the same table).
* sentence aggregates (what Wopr's FoLiA metrics carried):
  ``avg_prob10`` = mean word logprob10; ``entropy`` = mean surprisal in
  bits = -avg_prob10 / log10(2); ``perplexity`` = 2**entropy;
  ``*_norm`` = entropy/len and perplexity/len² (reference
  src/tscan.cxx:2860-2864).

The reference's Wopr answers -99 for words it cannot score; tscan then
LEAVES those word logprobs unset/NaN (src/tscan.cxx:2272-2275) and the
unguarded sums at sentence (src/tscan.cxx:2337-2356) and document
(src/structstats.cxx:1491-1507) level poison every enclosing aggregate
to NaN -> "NA" in the CSV.  The engine reproduces that discipline when
``oov_missing=True``: an out-of-vocabulary target word scores NaN (the
-99 analog) and NaN propagates through sentence_stats / subset means /
doc folds exactly like the reference's +=.  With the default
``oov_missing=False`` the Laplace-smoothed LM always answers and the
sentinel path never triggers (documented stand-in behavior).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

_LOG10_2 = math.log10(2.0)


@dataclass
class BigramLM:
    """Laplace-smoothed bigram LM with unigram backoff (pure, picklable)."""

    unigrams: dict[str, int] = field(default_factory=dict)
    bigrams: dict[tuple[str, str], int] = field(default_factory=dict)
    total: int = 0
    vocab_size: int = 1
    #: when True, an out-of-vocabulary target word scores NaN — the
    #: engine's analog of Wopr's -99 "cannot score" sentinel
    #: (reference src/tscan.cxx:2272-2275)
    oov_missing: bool = False

    @classmethod
    def from_unigrams(cls, unigrams: dict[str, int]) -> "BigramLM":
        return cls(unigrams=dict(unigrams), bigrams={},
                   total=sum(unigrams.values()), vocab_size=max(1, len(unigrams)))

    def _uni_lp(self, w: str) -> float:
        return math.log10(
            (self.unigrams.get(w, 0) + 1) / (self.total + self.vocab_size)
        )

    def logprob10(self, w: str, context: str | None) -> float:
        """log10 P(w | context); unigram backoff when the context word was
        never seen as a condition.  NaN for OOV ``w`` in oov_missing
        mode (Wopr -99; the caller leaves the word field NaN and every
        enclosing sum poisons, matching the reference)."""
        if self.oov_missing and w not in self.unigrams:
            return float("nan")
        if context is not None:
            c_ctx = self.unigrams.get(context, 0)
            if c_ctx > 0 and self.bigrams:
                c_bi = self.bigrams.get((context, w), 0)
                return math.log10((c_bi + 1) / (c_ctx + self.vocab_size))
        return self._uni_lp(w)

    def logprob10_bwd(self, w: str, following: str | None) -> float:
        """log10 P(w | next word) — reverse conditional from the same
        bigram table: c(w, next) / c(next).  NaN for OOV ``w`` in
        oov_missing mode (Wopr -99)."""
        if self.oov_missing and w not in self.unigrams:
            return float("nan")
        if following is not None:
            c_nxt = self.unigrams.get(following, 0)
            if c_nxt > 0 and self.bigrams:
                c_bi = self.bigrams.get((w, following), 0)
                return math.log10((c_bi + 1) / (c_nxt + self.vocab_size))
        return self._uni_lp(w)


def sentence_stats(logprobs: list[float]) -> dict[str, float]:
    """Wopr-equivalent sentence metrics from per-word logprob10s."""
    nan = float("nan")
    n = len(logprobs)
    if n == 0:
        return {"avg_prob10": nan, "entropy": nan, "perplexity": nan,
                "entropy_norm": nan, "perplexity_norm": nan}
    avg = sum(logprobs) / n
    entropy = -avg / _LOG10_2  # mean surprisal in bits
    perplexity = 2.0 ** entropy
    return {
        "avg_prob10": avg,
        "entropy": entropy,
        "perplexity": perplexity,
        "entropy_norm": entropy / n,
        "perplexity_norm": perplexity / (n * n),
    }


# ---------------------------------------------------------------------------
# distributed fit (Ray Data; one small shuffle over vocabulary-sized keys)
# ---------------------------------------------------------------------------

def fit_bigram_lm(ds, text_col: str, min_count: int = 1) -> BigramLM:
    """Fit a BigramLM over a Dataset's text column.

    Scale shape: per-batch token/bigram Counters (C-speed dict ops) emit
    partial (gram, n) rows — each batch's partial is ALREADY vocabulary-
    bounded — then a DISTRIBUTED ``groupby(gram).Sum`` reduces them and
    ``min_count`` prunes the long tail BEFORE anything reaches the
    driver.  The driver only materializes the trimmed vocabulary table
    (the thing that must fit in the LM anyway); an unbounded driver-side
    Counter fold (the r01 design) would not survive an open-vocabulary
    web corpus.  The fitted LM is broadcast to scoring tasks via
    ``ray.put``.
    """
    import pandas as pd
    import pyarrow as pa

    from tscan_ray.ops.keyed import task_exchange
    from tscan_ray.text.tokenize import is_punct, segment

    def partial(batch: pa.Table) -> pa.Table:
        uni: Counter = Counter()
        bi: Counter = Counter()
        for text in batch.column(text_col).to_pylist():
            for para in segment(text or ""):
                for sent in para:
                    words = [t.lower() for t in sent if not is_punct(t)]
                    uni.update(words)
                    bi.update(zip(words, words[1:]))
        # \x1f (unit separator), NOT \x00: pandas' string hashtable (and
        # pd.util.hash_array) compares C-string style — embedded NULs
        # truncate the key and silently merge distinct grams
        grams = [f"u\x1f{w}" for w in uni] + [f"b\x1f{a}\x1f{b}" for a, b in bi]
        counts = list(uni.values()) + list(bi.values())
        return pa.table({"gram": pa.array(grams, type=pa.string()),
                         "n": pa.array(counts, type=pa.int64())})

    partials = ds.select_columns([text_col]).map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    )

    # distributed reduce on the parallel task exchange (ops/keyed.py) —
    # hash-bucketed per-gram sums, measured 4-8x faster on this Ray
    # build than Dataset.groupby's sort-based shuffle (BASELINE.md)
    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return df
        return df.groupby("gram", sort=False)["n"].sum().reset_index()

    totals = task_exchange(partials, "gram", fold)
    if min_count > 1:
        totals = totals.filter(expr=f"n >= {min_count}")
    unigrams: dict[str, int] = {}
    bigrams: dict[tuple[str, str], int] = {}
    for batch in totals.iter_batches(batch_size=65536, batch_format="pyarrow"):
        for gram, n in zip(batch.column("gram").to_pylist(),
                           batch.column("n").to_pylist()):
            parts = gram.split("\x1f")
            if parts[0] == "u":
                unigrams[parts[1]] = n
            else:
                bigrams[(parts[1], parts[2])] = n
    return BigramLM(unigrams=unigrams, bigrams=bigrams,
                    total=sum(unigrams.values()),
                    vocab_size=max(1, len(unigrams)))


_DEFAULT_LM: BigramLM | None = None


def default_lm() -> BigramLM:
    """Unigram LM from the packaged lexicon frequencies (once per process)."""
    global _DEFAULT_LM
    if _DEFAULT_LM is None:
        from tscan_ray.text.lexicons import default_lexicons

        _DEFAULT_LM = BigramLM.from_unigrams(default_lexicons().word_freq)
    return _DEFAULT_LM

# ---------------------------------------------------------------------------
# dedicated LM-only document scorer (no 739-column featurizer detour)
# ---------------------------------------------------------------------------

#: doc-level Wopr columns the scorer emits, in _emit_doc's order
SURPRISAL_COLUMNS = (
    "Log_prob_fwd", "Log_prob_bwd", "Entropie_fwd", "Entropie_bwd",
    "Perplexiteit_fwd", "Perplexiteit_bwd",
)


def doc_surprisal(text: str, lm: BigramLM) -> dict[str, float]:
    """The 6 doc-level Wopr columns (Log_prob / Entropie / Perplexiteit
    x fwd/bwd) WITHOUT running the full featurizer: same tokenization
    (tokenize.segment), the same word filter the featurizer's surprisal
    attach uses (prop != ISLET, which the tagger sets iff
    tokenize.is_punct — features.py:954 / tagger.py:954), the same
    per-sentence ``sentence_stats`` and the same NaN-poisoning doc fold
    (``proportion(sum over sentences, sentCnt)`` where sentCnt counts
    sentences with >=1 scored word, src/structstats.cxx:978-1003).

    Equality with the full ``featurize_document`` path is
    pytest-asserted (tests/test_surprisal.py).  Assumes the default
    (empty) stoplist: a custom stoplist changes the featurizer's
    sentCnt but not its scored-word list, so the two paths would
    diverge — use the full featurizer then.
    """
    from tscan_ray.text.kernels import NA, proportion
    from tscan_ray.text.tokenize import is_punct, segment

    fwd: list[dict] = []
    bwd: list[dict] = []
    n_sent = 0
    for para in segment(text or ""):
        for sent in para:
            words = [t.lower() for t in sent if not is_punct(t)]
            if words:
                n_sent += 1
            lpf = [lm.logprob10(w, words[k - 1] if k else None)
                   for k, w in enumerate(words)]
            lpb = [lm.logprob10_bwd(
                       w, words[k + 1] if k + 1 < len(words) else None)
                   for k, w in enumerate(words)]
            fwd.append(sentence_stats(lpf))
            bwd.append(sentence_stats(lpb))
    out: dict[str, float] = {}
    for lbl, stats in (("fwd", fwd), ("bwd", bwd)):
        for col, metric in ((f"Log_prob_{lbl}", "avg_prob10"),
                            (f"Entropie_{lbl}", "entropy"),
                            (f"Perplexiteit_{lbl}", "perplexity")):
            vals = [s[metric] for s in stats]
            out[col] = proportion(sum(vals), n_sent) if vals else NA
    return out


class SurprisalScorer:
    """Surprisal stage: the LM is the process-cached default or the
    ``ray.put`` broadcast (ray.get in __init__), then pure-Python scoring
    over the batch's text column."""

    def __init__(self, text_column: str = "text", lm_ref=None,
                 keep_columns: list[str] | None = None):
        import ray

        self.text_column = text_column
        self.lm = ray.get(lm_ref) if lm_ref is not None else default_lm()
        self.keep_columns = keep_columns or []

    def __call__(self, batch):
        import pyarrow as pa

        rows = [doc_surprisal(t or "", self.lm)
                for t in batch.column(self.text_column).to_pylist()]
        cols: dict = {k: batch.column(k) for k in self.keep_columns}
        for name in SURPRISAL_COLUMNS:
            cols[name] = pa.array([r[name] for r in rows],
                                  type=pa.float64())
        return pa.table(cols)


def score_surprisal(ds, text_col: str, lm_ref=None,
                    keep_columns: list[str] | None = None):
    """LM-only surprisal scoring over a Dataset: read only the needed
    columns, score as tasks.  ~100x less per-row work than
    ``featurize(...)`` + select when only the Wopr columns are wanted."""
    from tscan_ray.stages import map_stage

    keep = keep_columns or []
    ds = ds.select_columns(list(dict.fromkeys([*keep, text_col])))
    return map_stage(ds, SurprisalScorer, None, text_column=text_col,
                     lm_ref=lm_ref, keep_columns=keep)

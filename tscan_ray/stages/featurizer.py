"""Caption featurizer stage, run as Ray Data tasks.

A :class:`~tscan_ray.stages.text_stage.TextStage`: the lexicons come from
the process-cached ``default_lexicons()``, so each worker process loads
them ONCE (the reference loads its ~20 lexicon files once at startup,
src/tscan.cxx:862-1119); each ``__call__`` walks one zero-copy Arrow
batch and appends the flat document feature vector columns.

Usage::

    ds = featurize(ds, "caption")   # map_stage(ds, CaptionFeaturizer, ...)

Scale notes: the stage is embarrassingly parallel (a document never
spans rows, SURVEY.md §7.0) — no shuffle, no skew concern beyond row
size; hot phash-bucket entities do NOT affect this stage because it is
keyed by nothing.  Lexicons are a few MB → per-process copies are cheap;
for very large lexicons pass ``lexicons_ref=ray.put(lex)`` so all
workers on a node share one object-store copy.
"""

from __future__ import annotations

import pyarrow as pa

from tscan_ray.config import DEFAULT_CONFIG, EngineConfig
from tscan_ray.ops.keyed import cluster_cpus
from tscan_ray.stages.text_stage import (TextStage, feature_arrays,
                                         map_text_stage)
from tscan_ray.text.features import emit_document


def pool_size(cap: int = 32, headroom: int = 2) -> int:
    """Actor-pool size that fits the current session: cluster CPUs minus
    headroom for read/shuffle tasks.  The library starts no actor pool;
    the benchmark harness sizes its own with this."""
    return max(1, min(cap, cluster_cpus() - headroom))


class CaptionFeaturizer(TextStage):
    """Compute the T-scan feature vector for a text column, per batch."""

    def __init__(self, text_column: str = "caption",
                 keep_columns: list[str] | None = None, **stage_opts):
        super().__init__(text_column, **stage_opts)
        self.keep_columns = keep_columns
        self.names, self.int_names = self.feature_schema()

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = [emit_document(folds, self.cfg)
                for folds in self.documents(batch)]
        if self.keep_columns is not None:
            batch = batch.select(self.keep_columns)
        # one arrow table construction (not 400 append_column copies)
        cols = {c: batch.column(c) for c in batch.column_names}
        cols.update(feature_arrays(rows, self.names, self.int_names))
        return pa.table(cols)


def featurize(
    ds,
    text_column: str = "caption",
    cfg: EngineConfig = DEFAULT_CONFIG,
    batch_size: int | None = None,
    keep_columns: list[str] | None = None,
    lm_ref=None,
    lexicons_ref=None,
    annotations_column: str | None = None,
):
    """Attach the feature-vector columns to a Dataset (task stage).

    ``annotations_column``: name of a JSON annotation column
    (``sources/folia.annotations_to_json``) — rows carrying precomputed
    Frog/Alpino annotations are featurized from those instead of the
    heuristic tagger (the reference's ``alpino_lookup.data`` pattern,
    src/tscan.cxx:168-221, as a distributed column).

    ``lexicons_ref``: ``ray.put()`` of a customized LexiconBundle (e.g.
    from :func:`with_custom_wordlist`) — the user-extension hook mirroring
    the reference's CLAM custom-wordlist upload
    (webservice/tscanservice/tscanwrapper.py:73-88): one object-store
    copy, fetched once per batch.
    """
    return map_text_stage(
        ds, CaptionFeaturizer, batch_size or cfg.featurizer_batch_size,
        text_column=text_column, cfg=cfg, keep_columns=keep_columns,
        lm_ref=lm_ref, lexicons_ref=lexicons_ref,
        annotations_column=annotations_column)


def with_custom_wordlist(wordlist, classification: str = "custom"):
    """Build a LexiconBundle with a user wordlist merged in (§2.10 hook;
    reference: `load_custom_wordlist`,
    webservice/tscanservice/tscanwrapper.py:73-88, feeding the
    my_classification lexicon, src/tscan.cxx:815-860).

    ``wordlist``: list of lemmas, a dict lemma->label, or a pyarrow Table
    / pandas DataFrame with columns (word, classification).  Returns the
    bundle — pass ``ray.put(bundle)`` to ``featurize(lexicons_ref=...)``.
    Words classified here count into ``myClassCnt`` per document.
    """
    import copy

    from tscan_ray.text.lexicons import default_lexicons

    import itertools

    from tscan_ray.text import lexicons as _lexmod

    lex = copy.deepcopy(default_lexicons())
    # a deepcopy keeps the source bundle's memo token; issue a fresh one
    # so the word-analysis memo cannot serve stale entries
    lex.memo_token = next(_lexmod._GEN_COUNTER)
    if hasattr(wordlist, "column_names"):  # pyarrow Table
        words = wordlist.column("word").to_pylist()
        labels = (wordlist.column("classification").to_pylist()
                  if "classification" in wordlist.column_names
                  else [classification] * len(words))
        mapping = dict(zip(words, labels))
    elif hasattr(wordlist, "columns"):  # pandas DataFrame
        words = wordlist["word"].tolist()
        labels = (wordlist["classification"].tolist()
                  if "classification" in wordlist.columns
                  else [classification] * len(words))
        mapping = dict(zip(words, labels))
    elif isinstance(wordlist, dict):
        mapping = dict(wordlist)
    else:
        mapping = {w: classification for w in wordlist}
    lex.my_classification = {str(k).lower(): str(v) for k, v in mapping.items()}
    return lex

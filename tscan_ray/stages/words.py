"""Word-level exploded output (the reference's word CSV, S4).

The reference writes one CSV row per word with the wordStats fields
(reference src/wordstats.cxx:381-407, emit per level
src/docstats.cxx:24-94).  The engine equivalent: explode each document
into one output row per token — a ``map_batches`` task stage (lexicons
in ``__init__``) that turns N caption rows into ΣN_tokens word rows.
No shuffle: a document's words never span input rows.
The stage is a :class:`~tscan_ray.stages.text_stage.TextStage`, which
owns the setup and the document walk; this module keeps only the word
row emit.
"""

from __future__ import annotations

import pyarrow as pa

from tscan_ray.config import DEFAULT_CONFIG, EngineConfig
from tscan_ray.stages.text_stage import TextStage, map_text_stage
from tscan_ray.text import display as _d

# (name, arrow type, WordAnn attribute) — the word-level schema
_WORD_FIELDS = [
    ("word", pa.string(), "word"),
    ("lemma", pa.string(), "lemma"),
    ("tag", pa.string(), "tag"),
    ("prop", pa.string(), "prop"),
    ("wwform", pa.string(), "wwform"),
    ("sem_type", pa.string(), "sem_type"),
    ("conn_type", pa.string(), "conn_type"),
    ("ner", pa.string(), "ner"),
    ("char_cnt", pa.int32(), "char_cnt"),
    ("morph_cnt", pa.int32(), "morph_cnt"),
    ("is_content", pa.bool_(), "is_content"),
    ("is_content_strict", pa.bool_(), "is_content_strict"),
    ("is_nominal", pa.bool_(), "is_nominal"),
    ("is_prop_neg", pa.bool_(), "is_prop_neg"),
    ("is_morph_neg", pa.bool_(), "is_morph_neg"),
    ("position", pa.string(), "position"),
    ("sit_type", pa.string(), "sit_type"),
    ("is_pers_ref", pa.bool_(), "is_pers_ref"),
    ("is_pron_ref", pa.bool_(), "is_pron_ref"),
    ("archaic", pa.bool_(), "archaic"),
    ("is_imperative", pa.bool_(), "is_imperative"),
    # per-word argument overlap with the previous sentence
    # (wordStats::addMetrics word_overlap_count/lemma_overlap_count)
    ("word_overlap_cnt", pa.int32(), "word_overlap_cnt"),
    ("lemma_overlap_cnt", pa.int32(), "lemma_overlap_cnt"),
    ("top_freq", pa.int32(), "top_freq"),
    ("word_freq_log", pa.float64(), "word_freq_log"),
    ("lemma_freq_log", pa.float64(), "lemma_freq_log"),
    ("prevalence_p", pa.float64(), "prevalence_p"),
    ("prevalence_z", pa.float64(), "prevalence_z"),
    # Wopr columns of the reference word CSV (lprob10_fwd/bwd,
    # src/wordstats.cxx:668-676; NaN -> "NA"); NaN for punctuation and
    # for OOV words under an oov_missing LM (the -99 sentinel path)
    ("lprob_fwd", pa.float64(), "lprob_fwd"),
    ("lprob_bwd", pa.float64(), "lprob_bwd"),
]

# reference Dutch display columns (the word CSV / FoLiA metric
# vocabulary, text/display.py): name -> fn(WordAnn)
_DISPLAY_FIELDS = [
    ("property_nl", lambda a: _d.prop_nl(a.prop)),
    ("semtype_nl", lambda a: _d.semtype_nl(a.sem_type, a.tag)),
    ("connective_nl", lambda a: _d.conn_nl(a.conn_type)),
    ("situation_nl", lambda a: _d.sit_nl(a.sit_type)),
]
# the word table after its id columns
_SCHEMA = pa.schema(
    [(c, pa.int32()) for c in ("par_idx", "sent_idx", "word_idx")]
    + [(name, typ) for name, typ, _ in _WORD_FIELDS]
    + [(name, pa.string()) for name, _ in _DISPLAY_FIELDS])


class WordExploder(TextStage):
    """Explode a text column into one row per token (word-level S4).

    The word rows come from the full sentence analysis (contextual
    passes — checkAls connectives, modifier demotion, prev-sentence
    argument overlap, LM logprob attach), so they carry the same values
    the document fold counted; the reference's word CSV is likewise
    emitted from the fully analyzed wordStats, src/wordstats.cxx:381-407.
    """

    def __init__(self, text_column: str, id_columns: list[str],
                 **stage_opts):
        super().__init__(text_column, **stage_opts)
        self.id_columns = id_columns

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_rows: list[int] = []
        out: dict[str, list] = {c: [] for c in _SCHEMA.names}
        for row, folds_by_par in enumerate(self.documents(batch)):
            for pi, folds in enumerate(folds_by_par):
                for si, fold in enumerate(folds):
                    for wi, ann in enumerate(fold.words):
                        doc_rows.append(row)
                        out["par_idx"].append(pi)
                        out["sent_idx"].append(si)
                        out["word_idx"].append(wi)
                        for name, _, attr in _WORD_FIELDS:
                            out[name].append(getattr(ann, attr))
                        for name, fn in _DISPLAY_FIELDS:
                            out[name].append(fn(ann))
        return self.table(batch.select(self.id_columns), _SCHEMA, out,
                          doc_rows)


def explode_words(
    ds,
    text_column: str,
    id_columns: list[str],
    cfg: EngineConfig = DEFAULT_CONFIG,
    batch_size: int = 256,
    lexicons_ref=None,
    lm_ref=None,
    annotations_column: str | None = None,
):
    """One output row per token of ``text_column`` (task stage).

    ``lm_ref``: ``ray.put`` handle of a corpus-fitted LM so word-level
    lprob_fwd/bwd come from the SAME model as the document-level
    surprisal aggregates (the reference feeds both CSV levels from one
    Wopr model); defaults to the packaged unigram LM."""
    return map_text_stage(
        ds, WordExploder, batch_size,
        text_column=text_column, id_columns=id_columns, cfg=cfg,
        lexicons_ref=lexicons_ref, lm_ref=lm_ref,
        annotations_column=annotations_column)

"""Sentence-level exploded output (the reference's sentence CSV, S4).

One output row per sentence with the sentence-scoped measures the
reference emits at that level (reference src/structstats.cxx:89-121 row
emit; sentence counters from the sentStats ctor): token counts, content/
name counts, parse-derived AL mean/max + D-level + clause counts, and
the LM sentence metrics.  Same no-shuffle shape as the word explode —
a document's sentences never span input rows.  The stage is a
:class:`~tscan_ray.stages.text_stage.TextStage`, which owns the setup
and the document walk; this module keeps only the sentence row emit.
"""

from __future__ import annotations

import math

import pyarrow as pa

from tscan_ray.config import DEFAULT_CONFIG, EngineConfig
from tscan_ray.stages.text_stage import (TextStage, map_text_stage,
                                         repeat_ids)

_COUNTER_COLS = (
    "wordCnt letCnt nameCnt contentCnt contentStrictCnt nounCnt verbCnt "
    "adjCnt propNegCnt morphNegCnt questCnt smainCnt ssubCnt sv1Cnt "
    "clauseCnt correctedClauseCnt npCnt indefNpCnt betrCnt impCnt"
).split()
# (column, arrow type, fn(parse, forward LM stats)), after the counters
_SENT_FIELDS = [
    ("d_level", pa.int32(), lambda p, lm: p.d_level),
    ("al_gem", pa.float64(), lambda p, lm: p.al_gem),
    ("al_max", pa.float64(), lambda p, lm: p.al_max),
    ("avg_prob10_fwd", pa.float64(),
     lambda p, lm: lm.get("avg_prob10", math.nan)),
    ("entropy_fwd", pa.float64(), lambda p, lm: lm.get("entropy", math.nan)),
    ("perplexity_fwd", pa.float64(),
     lambda p, lm: lm.get("perplexity", math.nan)),
]


class SentenceExploder(TextStage):
    def __init__(self, text_column: str, id_columns: list[str],
                 **stage_opts):
        super().__init__(text_column, **stage_opts)
        self.id_columns = id_columns

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_rows: list[int] = []
        out: dict[str, list] = {c: [] for c in ("par_idx", "sent_idx",
                                                "n_tokens", *_COUNTER_COLS)}
        out.update({name: [] for name, _, _ in _SENT_FIELDS})
        for row, folds_by_par in enumerate(self.documents(batch)):
            for pi, folds in enumerate(folds_by_par):
                for si, f in enumerate(folds):
                    fwd = f.surps[0]["fwd"] if f.surps else {}
                    doc_rows.append(row)
                    out["par_idx"].append(pi)
                    out["sent_idx"].append(si)
                    out["n_tokens"].append(len(f.words))
                    for c in _COUNTER_COLS:
                        out[c].append(int(f.c[c]))
                    for name, _, fn in _SENT_FIELDS:
                        out[name].append(fn(f.parses[0], fwd))
        cols = repeat_ids(batch, self.id_columns, doc_rows)
        for c in ("par_idx", "sent_idx", "n_tokens", *_COUNTER_COLS):
            cols[c] = pa.array(out[c], type=pa.int32())
        for name, typ, _ in _SENT_FIELDS:
            cols[name] = pa.array(out[name], type=typ)
        return pa.table(cols)


def explode_sentences(
    ds,
    text_column: str,
    id_columns: list[str],
    cfg: EngineConfig = DEFAULT_CONFIG,
    batch_size: int = 128,
    lexicons_ref=None,
    lm_ref=None,
    annotations_column: str | None = None,
):
    """One output row per sentence of ``text_column`` (task stage).

    ``annotations_column``: JSON annotation column (sources/folia) —
    rows with precomputed Frog/Alpino annotations bypass the heuristic
    tagger / reduced parser, like the featurizer and word table."""
    return map_text_stage(
        ds, SentenceExploder, batch_size,
        text_column=text_column, id_columns=id_columns, cfg=cfg,
        lexicons_ref=lexicons_ref, lm_ref=lm_ref,
        annotations_column=annotations_column)

"""Paragraph-level exploded output — the reference's 4th CSV level.

The reference writes four CSVs (document / paragraph / sentence / word,
src/docstats.cxx:24-94); a parStats is a structStats, so each paragraph
row carries the SAME feature vector as the document level, computed
over the paragraph's own merged sentence folds — paragraph-scoped MTLD
and frequency normalization (src/tscan.cxx:3026-3034) fall out of that
for free.  One output row per paragraph; a document's paragraphs never
span input rows, so the stage is a pure no-shuffle task map like
the word/sentence explodes.  The stage is a
:class:`~tscan_ray.stages.text_stage.TextStage`, which owns the setup
and the document walk; this module keeps only the paragraph row emit.
"""

from __future__ import annotations

import pyarrow as pa

from tscan_ray.config import DEFAULT_CONFIG, EngineConfig
from tscan_ray.stages.text_stage import (TextStage, feature_arrays,
                                         map_text_stage, repeat_ids)
from tscan_ray.text.features import emit_paragraphs


class ParagraphExploder(TextStage):
    """One row per paragraph with the full structStats feature vector."""

    def __init__(self, text_column: str, id_columns: list[str],
                 **stage_opts):
        super().__init__(text_column, **stage_opts)
        self.id_columns = id_columns
        self.names, self.int_names = self.feature_schema()

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_rows: list[int] = []
        par_idx: list[int] = []
        rows: list[dict] = []
        for row, folds_by_par in enumerate(self.documents(batch)):
            for pi, vec in enumerate(emit_paragraphs(folds_by_par, self.cfg)):
                doc_rows.append(row)
                par_idx.append(pi)
                rows.append(vec)
        cols = repeat_ids(batch, self.id_columns, doc_rows)
        cols["par_idx"] = pa.array(par_idx, type=pa.int32())
        cols.update(feature_arrays(rows, self.names, self.int_names))
        return pa.table(cols)


def explode_paragraphs(
    ds,
    text_column: str,
    id_columns: list[str],
    cfg: EngineConfig = DEFAULT_CONFIG,
    batch_size: int = 64,
    lexicons_ref=None,
    lm_ref=None,
    annotations_column: str | None = None,
):
    """One output row per paragraph of ``text_column`` (task stage).
    ``annotations_column``: JSON annotation column (sources/folia), same
    contract as the featurizer/word/sentence stages."""
    return map_text_stage(
        ds, ParagraphExploder, batch_size,
        text_column=text_column, id_columns=id_columns, cfg=cfg,
        lexicons_ref=lexicons_ref, lm_ref=lm_ref,
        annotations_column=annotations_column)

"""Shared base of the text-output stages.

Every text output — the document feature table (``featurizer``), the
paragraph, sentence and word tables (``paragraphs``, ``sentences``,
``words``) and the FoLiA XML (``folia_writer``) — is emitted from ONE
analyzed document tree, ``text.features.analyze_document``, as the
reference emits its four CSV levels and the FoLiA document from one
docStats (src/tscan.cxx:3092-3127, src/docstats.cxx:24-94).

:class:`TextStage` owns the setup those stages share (config,
lexicons, LM, the custom feature groups registered where the pipeline
is built) and the per-row walk: decode the row's annotation column, if
any, and yield the row's sentence folds grouped by paragraph.  A
subclass keeps its row emit and its declared schema, which
:meth:`TextStage.table` types every batch from.  :func:`map_text_stage`
runs a stage as Ray Data tasks (``stages.map_stage``).

``annotations_column``: JSON per row (``sources/folia.annotations_to_json``)
carrying precomputed Frog/Alpino annotations — the reference's
parse-cache pattern (src/tscan.cxx:168-221) as a distributed column.
Rows with a non-null value bypass the heuristic tagger (and, where a
tree is given, the reduced parser); null rows take the heuristic path.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
import pyarrow as pa

import ray

from tscan_ray.config import DEFAULT_CONFIG, EngineConfig
from tscan_ray.sources.folia import annotations_from_json
from tscan_ray.stages import map_stage
from tscan_ray.text import features
from tscan_ray.text.features import Fold, analyze_document
from tscan_ray.text.lexicons import default_lexicons
from tscan_ray.text.surprisal import default_lm


class TextStage:
    """Per-stage setup + the per-row document walk.  Subclasses take
    their own row-emit arguments and pass the rest (``cfg``,
    ``lexicons_ref``, ``lm_ref``, ``annotations_column``,
    ``custom_groups``) through to this constructor."""

    def __init__(
        self,
        text_column: str,
        cfg: EngineConfig = DEFAULT_CONFIG,
        lexicons_ref=None,
        lm_ref=None,
        annotations_column: str | None = None,
        custom_groups: dict | None = None,
    ):
        # the register_feature_group() registry of the process that
        # builds the pipeline does not exist in this (worker) process:
        # map_text_stage snapshots it at pipeline-build time and it
        # becomes this process's registry here; None leaves it as it is
        if custom_groups is not None:
            features.set_custom_groups(custom_groups)
        self.text_column = text_column
        self.cfg = cfg
        self.annotations_column = annotations_column
        # lexicons_ref / lm_ref: ray.put() of a customized LexiconBundle
        # or a corpus-fitted BigramLM (one object-store copy per node);
        # None -> the packaged defaults
        self.lex = (ray.get(lexicons_ref) if lexicons_ref is not None
                    else default_lexicons())
        self.lm = ray.get(lm_ref) if lm_ref is not None else default_lm()

    def documents(self, batch: pa.Table) -> Iterator[list[list[Fold]]]:
        """Each row's analyzed sentence folds, grouped by paragraph."""
        texts = batch.column(self.text_column).to_pylist()
        ann_json = (batch.column(self.annotations_column).to_pylist()
                    if self.annotations_column in batch.column_names
                    else [None] * len(texts))
        for text, ann in zip(texts, ann_json):
            annotations = tree_lookup = None
            if ann:
                annotations, tree_lookup = annotations_from_json(ann)
            yield analyze_document(text or "", self.lex, self.cfg, self.lm,
                                   annotations, tree_lookup)

    @staticmethod
    def table(head: pa.Table, schema: pa.Schema, columns,
              rows: list[int] | None = None) -> pa.Table:
        """``head``'s columns (row ``rows[i]`` as output row ``i``, if
        given), then ``columns[f.name]`` typed as ``f`` for each ``schema``
        field ``f``, so every batch gets one schema; a value that does not
        fit raises ``ValueError`` naming the column and its group."""
        if rows is not None:
            head = head.take(pa.array(rows, type=pa.int64()))
        cols = dict(zip(head.column_names, head.columns))
        for f in schema:
            cols[f.name] = _typed(columns[f.name], f)
        return pa.table(cols)


def _typed(vals: list, f: pa.Field) -> pa.Array:
    try:
        if pa.types.is_integer(f.type):
            # pa.array would truncate a float to an int without a word
            arr = np.asarray(vals) if vals else np.zeros(0, np.int64)
            if arr.dtype.kind not in "iub":
                raise TypeError(f"got {arr.dtype} values")
            vals = arr.astype(np.int64, copy=False)
        return pa.array(vals, type=f.type)
    except (TypeError, ValueError, pa.ArrowException) as e:
        group = (f.metadata or {}).get(b"group", b"").decode()
        where = f" (feature group {group!r})" if group else ""
        raise ValueError(f"column {f.name!r}{where} is declared {f.type}: "
                         f"{e}") from e


def map_text_stage(ds, stage: type[TextStage], batch_size: int, **kwargs):
    """:func:`~tscan_ray.stages.map_stage` of a :class:`TextStage`;
    ``kwargs`` go to the stage's constructor, plus a snapshot of this
    process's custom feature groups."""
    return map_stage(ds, stage, batch_size, **kwargs,
                     custom_groups=dict(features._CUSTOM_GROUPS))

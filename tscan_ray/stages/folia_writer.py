"""FoLiA XML writer — the reference's annotated-document output (S3).

The reference saves each input document back out as FoLiA XML decorated
with ``<metric class=... value=...>`` elements at word, sentence,
paragraph and document level (``doc->save(outName)`` after addMetrics,
reference src/tscan.cxx:3474-3476; metric writers
src/wordstats.cxx:691-800, src/structstats.cxx:1051-1372).  The engine
equivalent: a ``map_batches`` task stage that analyzes each
document (or consumes its precomputed annotation column), renders the
annotated FoLiA document, and writes one ``<doc_id>.xml`` per input doc
(atomic replace — resumable, idempotent under retries).  The returned
dataset is the write manifest (doc_id, path, n_words).  The stage is a
:class:`~tscan_ray.stages.text_stage.TextStage`, which owns the setup
and the document walk; this module keeps only the XML render and write.

Metric vocabulary = the reference's own (text/metric_names.py display
maps text/display.py); floats render with 6 significant digits
(TiCC::toString / std::ostream default).
"""

from __future__ import annotations

import math
import os
import xml.etree.ElementTree as ET

import pyarrow as pa

from tscan_ray.config import DEFAULT_CONFIG, EngineConfig
from tscan_ray.stages.text_stage import TextStage, map_text_stage
from tscan_ray.text import depparse
from tscan_ray.text import display as _d
from tscan_ray.text.features import paragraph_al
from tscan_ray.text.metric_names import (COMPUTED_METRICS,
                                         CONDITIONAL_METRICS,
                                         COUNTER_METRICS,
                                         COUNTER_METRICS_EXT, DIST_METRICS,
                                         PARSE_METRICS)

_FOLIA_NS = "http://ilk.uvt.nl/folia"
_XML_ID = "{http://www.w3.org/XML/1998/namespace}id"


def _fmt(v) -> str:
    """TiCC::toString float rendering: 6 significant digits; NaN -> NA
    (toMString, reference src/utils.cxx:183-191)."""
    if isinstance(v, float):
        if math.isnan(v):
            return "NA"
        if v == int(v) and abs(v) < 1e15:
            return str(int(v))
        return f"{v:.6g}"
    return str(v)


def _metric(parent: ET.Element, cls: str, value) -> None:
    m = ET.SubElement(parent, "metric")
    m.set("class", cls)
    m.set("value", _fmt(value))


# per-word boolean metrics: metric class -> WordAnn attribute
# (wordStats::addMetrics, src/wordstats.cxx:702-725)
_WORD_BOOLS = [
    ("pers_ref", "is_pers_ref"), ("pron_ref", "is_pron_ref"),
    ("archaic", "archaic"), ("content_word", "is_content"),
    ("content_word_strict", "is_content_strict"),
    ("nominalization", "is_nominal"), ("imperative", "is_imperative"),
    ("proper_negative", "is_prop_neg"), ("morph_negative", "is_morph_neg"),
]


def _word_el(parent: ET.Element, ann, wid: str) -> None:
    w = ET.SubElement(parent, "w")
    w.set(_XML_ID, wid)
    ET.SubElement(w, "t").text = ann.word
    pos = ET.SubElement(w, "pos")
    pos.set("class", ann.tag)
    lem = ET.SubElement(w, "lemma")
    lem.set("class", ann.lemma)
    if ann.wwform:
        # second pos annotation set (addMetrics, wordstats.cxx:694-699)
        wf = ET.SubElement(w, "pos")
        wf.set("class", f"wwform({_d.wwform_nl(ann.wwform)})")
        wf.set("set", "tscan-set")
    if ann.full_lemma:
        _metric(w, "full-lemma", ann.full_lemma)
    for cls, attr in _WORD_BOOLS:
        if getattr(ann, attr):
            _metric(w, cls, "true")
    if ann.is_onder:
        _metric(w, "subordinate", "true")
    if ann.is_betr:
        _metric(w, "betrekkelijk", "true")
    if ann.conn_type:
        _metric(w, "connective", _d.conn_nl(ann.conn_type))
    if ann.is_multi_conn:
        _metric(w, "multi_connective", "true")
    if ann.formal_type:
        _metric(w, "formalType", _d.formal_nl(ann.formal_type))
    if ann.afk_type:
        _metric(w, "afktype", _d.afk_nl(ann.afk_type))
    if ann.sit_type:
        _metric(w, "situation", _d.sit_nl(ann.sit_type))
    _metric(w, "word_overlap_count", ann.word_overlap_cnt)
    _metric(w, "lemma_overlap_count", ann.lemma_overlap_cnt)
    if ann.prop:
        _metric(w, "property", _d.prop_nl(ann.prop))
    if ann.sem_type:
        _metric(w, "semtype", _d.semtype_nl(ann.sem_type, ann.tag))


def _struct_metrics(el: ET.Element, folds, level: str) -> None:
    """Struct-level metrics (addMetrics runs per level over the merged
    stats, src/structstats.cxx:1327-1372): counters and parse counts
    sum over the level's sentences; distance means pool the merged
    multimap; ``deplen``/``max_deplen`` are the sentence's own pooled
    values at level 's' but getMeanAL/getHighestAL (mean of child
    al_gem/al_max) at paragraph/doc level (structstats.cxx:28-54)."""
    totals: dict[str, float] = {}
    for f in folds:
        for k, v in f.c.items():
            totals[k] = totals.get(k, 0) + v
    for cls, key in COUNTER_METRICS.items():
        _metric(el, cls, int(totals.get(key, 0)))
    for cls, key in COUNTER_METRICS_EXT.items():
        val = int(totals.get(key, 0))
        if cls in CONDITIONAL_METRICS and val == 0:
            continue  # emitted only when non-zero (structstats.cxx)
        _metric(el, cls, val)
    for cls, fn in COMPUTED_METRICS.items():
        _metric(el, cls, int(fn(totals)))
    parses = [f.parses[0] for f in folds if f.parses]
    if not parses:
        return
    for cls, attr in PARSE_METRICS.items():
        if cls == "d_level":
            dlv = depparse.merge_d_level([p.d_level for p in parses])
            if dlv >= 0:
                _metric(el, cls, dlv)
            continue
        _metric(el, cls, int(sum(getattr(p, attr) for p in parses)))
    # distance metrics are emitted UNCONDITIONALLY, "NA" when absent
    # (toMString on the NaN mean, structstats.cxx:1342-1364)
    for cls, typ in DIST_METRICS.items():
        got = [d for p in parses for d in p.distances.get(typ, ())]
        _metric(el, cls, sum(got) / len(got) if got else float("nan"))
    if level == "s":
        all_d = parses[0].all_distances()
        _metric(el, "deplen",
                sum(all_d) / len(all_d) if all_d else float("nan"))
        # sentStats::getHighestAL returns 0 (not NaN) on no distances
        # (src/sentstats.cxx:257-264)
        _metric(el, "max_deplen", max(all_d) if all_d else 0)
    else:
        al_gem, al_max = paragraph_al(folds)
        _metric(el, "deplen", al_gem)
        _metric(el, "max_deplen", al_max)


def render_folia(doc_id: str, sent_folds_by_par, doc_metrics: dict) -> str:
    """Render one annotated FoLiA document string from per-paragraph
    lists of analyzed sentence folds."""
    root = ET.Element("FoLiA")
    root.set("xmlns", _FOLIA_NS)
    root.set(_XML_ID, doc_id)
    text = ET.SubElement(root, "text")
    text.set(_XML_ID, f"{doc_id}.text")
    for cls, v in doc_metrics.items():
        _metric(text, cls, v)
    for pi, folds in enumerate(sent_folds_by_par, 1):
        p = ET.SubElement(text, "p")
        p.set(_XML_ID, f"{doc_id}.p.{pi}")
        for si, fold in enumerate(folds, 1):
            s = ET.SubElement(p, "s")
            sid = f"{doc_id}.p.{pi}.s.{si}"
            s.set(_XML_ID, sid)
            for wi, ann in enumerate(fold.words, 1):
                _word_el(s, ann, f"{sid}.w.{wi}")
            _struct_metrics(s, [fold], "s")
        _struct_metrics(p, folds, "p")
    return ET.tostring(root, encoding="unicode")


def _doc_metrics(folds_by_par) -> dict:
    """Document-level metrics: d_level = raw SUM (structstats.cxx:
    1620-1624); deplen/max_deplen = two-level paragraph rollups."""
    all_folds = [f for folds in folds_by_par for f in folds]
    out: dict = {}
    dlv = depparse.merge_d_level(
        [f.parses[0].d_level for f in all_folds if f.parses])
    if dlv >= 0:
        out["d_level"] = dlv
    par_al = [paragraph_al(folds) for folds in folds_by_par]
    out["deplen"] = depparse.doc_mean_al([g for g, _ in par_al])
    out["max_deplen"] = depparse.doc_mean_al([m for _, m in par_al])
    out["word_count"] = int(sum(f.c.get("wordCnt", 0) for f in all_folds))
    return out


class FoliaWriter(TextStage):
    """Analyze each document and write ``out_dir/<doc_id>.xml``."""

    def __init__(self, out_dir: str, text_column: str = "text",
                 id_column: str = "doc_id", **stage_opts):
        super().__init__(text_column, **stage_opts)
        self.out_dir = out_dir
        self.id_column = id_column
        os.makedirs(out_dir, exist_ok=True)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_column).to_pylist()
        out_ids, out_paths, out_words = [], [], []
        for row, folds_by_par in enumerate(self.documents(batch)):
            doc_id = str(ids[row])
            xml = render_folia(doc_id, folds_by_par, _doc_metrics(folds_by_par))
            path = os.path.join(self.out_dir, f"{doc_id}.xml")
            tmp = f"{path}.tmp.{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(xml)
            os.replace(tmp, path)
            out_ids.append(doc_id)
            out_paths.append(path)
            out_words.append(sum(len(f.words) for folds in folds_by_par
                                 for f in folds))
        return pa.table({
            "doc_id": pa.array(out_ids, pa.string()),
            "path": pa.array(out_paths, pa.string()),
            "n_words": pa.array(out_words, pa.int64()),
        })


def write_folia(
    ds,
    out_dir: str,
    text_column: str = "text",
    id_column: str = "doc_id",
    annotations_column: str | None = None,
    cfg: EngineConfig = DEFAULT_CONFIG,
    batch_size: int = 64,
    lexicons_ref=None,
    lm_ref=None,
):
    """Write one annotated FoLiA XML per document (S3); returns the
    write-manifest Dataset (doc_id, path, n_words)."""
    return map_text_stage(
        ds, FoliaWriter, batch_size,
        out_dir=out_dir, text_column=text_column, id_column=id_column,
        annotations_column=annotations_column, cfg=cfg,
        lexicons_ref=lexicons_ref, lm_ref=lm_ref)

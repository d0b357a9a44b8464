"""Every text output comes from one document walk
(``features.analyze_document``): the walk's own contract, and the
annotated path through the actor stages (``stages/text_stage.py``)
against the in-process functions, without the reference corpus."""

import math

import pyarrow as pa
import pytest

import ray.data

from tscan_ray.config import DEFAULT_CONFIG
from tscan_ray.sources.folia import annotations_from_json, annotations_to_json
from tscan_ray.text.features import (TokenAnnotation, analyze_document,
                                     featurize_document, featurize_paragraphs)
from tscan_ray.text.lexicons import default_lexicons
from tscan_ray.text.surprisal import default_lm

# "De man loopt ." as a small Alpino tree: smain(su=np(det, hd), hd=verb)
_TREE = """<alpino_ds version="1.3">
  <node begin="0" cat="top" end="4" id="0" rel="top">
    <node begin="0" cat="smain" end="3" id="1" rel="--">
      <node begin="0" cat="np" end="2" id="2" rel="su">
        <node begin="0" end="1" id="3" lemma="de" pos="det" postag="LID(bep,stan,rest)" pt="lid" rel="det" root="de" word="De"/>
        <node begin="1" end="2" id="4" lemma="man" pos="noun" postag="N(soort,ev,basis,zijd,stan)" pt="n" rel="hd" root="man" word="man"/>
      </node>
      <node begin="2" end="3" id="5" lemma="lopen" pos="verb" postag="WW(pv,tgw,met-t)" pt="ww" rel="hd" root="loop" word="loopt"/>
    </node>
    <node begin="3" end="4" id="6" lemma="." pos="punct" postag="LET()" pt="let" rel="--" root="." word="."/>
  </node>
  <sentence>De man loopt .</sentence>
</alpino_ds>"""

# word -> (lemma, head tag, full tag)
_LEX = {
    "De": ("de", "LID", "LID(bep,stan,rest)"),
    "de": ("de", "LID", "LID(bep,stan,rest)"),
    "Het": ("het", "LID", "LID(bep,stan,evon)"),
    "man": ("man", "N", "N(soort,ev,basis,zijd,stan)"),
    "kat": ("kat", "N", "N(soort,ev,basis,zijd,stan)"),
    "huis": ("huis", "N", "N(soort,ev,basis,onz,stan)"),
    "loopt": ("lopen", "WW", "WW(pv,tgw,met-t)"),
    "ziet": ("zien", "WW", "WW(pv,tgw,met-t)"),
    "slaapt": ("slapen", "WW", "WW(pv,tgw,met-t)"),
    "is": ("zijn", "WW", "WW(pv,tgw,ev)"),
    "Hij": ("hij", "VNW", "VNW(pers,pron,nomin,vol,3,ev,masc)"),
    "groot": ("groot", "ADJ", "ADJ(vrij,basis,zonder)"),
    "naar": ("naar", "VZ", "VZ(init)"),
    ".": (".", "LET", "LET()"),
}


def _sent(text):
    return [TokenAnnotation(w, *_LEX[w]) for w in text.split()]


# two documents of two paragraphs each; only the first sentence of doc 1
# has a tree, every other sentence falls back to the reduced parser
_DOCS = {
    1: ([["De man loopt .", "Hij ziet de kat ."], ["De kat slaapt ."]],
        [_TREE, None, None]),
    2: ([["Het huis is groot ."], ["De man loopt naar huis .",
                                   "De kat ziet de man ."]],
        None),
}
_NULL_DOC = (3, "De hond blaft .\n\nHij slaapt .")


def _text(paras):
    return "\n\n".join(" ".join(p) for p in paras)


def _ann_json(doc_id):
    paras, trees = _DOCS[doc_id]
    return annotations_to_json([[_sent(s) for s in p] for p in paras], trees)


def _fresh(doc_id):
    """(annotations, tree_lookup) — the lookup is stateful, one per walk."""
    return annotations_from_json(_ann_json(doc_id))


def _ds():
    ids = [*_DOCS, _NULL_DOC[0]]
    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": [_text(_DOCS[i][0]) for i in _DOCS] + [_NULL_DOC[1]],
        "ann": [_ann_json(i) for i in _DOCS] + [None],
    }))


def _same(a, b):
    return (a == b or (isinstance(a, float) and isinstance(b, float)
                       and math.isnan(a) and math.isnan(b)))


def _assert_vectors_equal(row, ref):
    bad = [k for k, v in ref.items() if not _same(row[k], v)]
    assert not bad, [(k, row[k], ref[k]) for k in bad[:5]]


class TestAnalyzeDocument:
    def test_tree_lookup_once_per_sentence_in_order(self):
        seen = []

        def lookup(key):
            seen.append(key)
            return None

        annotations, _ = _fresh(1)
        folds = analyze_document("", default_lexicons(), DEFAULT_CONFIG,
                                 default_lm(), annotations, lookup)
        assert seen == ["De man loopt .", "Hij ziet de kat .",
                        "De kat slaapt ."]
        assert [len(p) for p in folds] == [2, 1]

    def test_prev_sentence_resets_per_paragraph(self):
        lex, lm = default_lexicons(), default_lm()
        same_par = analyze_document("De kat slaapt . De kat slaapt .",
                                    lex, DEFAULT_CONFIG, lm)
        new_par = analyze_document("De kat slaapt .\n\nDe kat slaapt .",
                                   lex, DEFAULT_CONFIG, lm)
        assert sum(w.word_overlap_cnt for w in same_par[0][1].words) > 0
        assert sum(w.word_overlap_cnt for w in new_par[1][0].words) == 0

    def test_tree_changes_the_parse(self):
        """The inline tree is consumed: the tree path and the reduced
        parser disagree on this sentence, so the stage comparisons below
        would notice a lookup that is skipped or misaligned."""
        lex, lm = default_lexicons(), default_lm()
        annotations, lookup = _fresh(1)
        with_tree = analyze_document("", lex, DEFAULT_CONFIG, lm,
                                     annotations, lookup)
        without = analyze_document("", lex, DEFAULT_CONFIG, lm, annotations)
        # the tree's smain node is counted; the reduced parser finds none
        assert with_tree[0][0].parses[0].smain_cnt == 1
        assert without[0][0].parses[0].smain_cnt == 0


class TestAnnotatedStages:
    def test_featurize_and_paragraphs_match_in_process(self):
        from tscan_ray.stages.featurizer import featurize
        from tscan_ray.stages.paragraphs import explode_paragraphs

        docs = featurize(_ds(), "text", keep_columns=["doc_id"],
                         annotations_column="ann").to_pandas()
        pars = explode_paragraphs(_ds(), "text", ["doc_id"],
                                  annotations_column="ann").to_pandas()
        docs = docs.set_index("doc_id")
        for doc_id, (paras, _) in _DOCS.items():
            annotations, lookup = _fresh(doc_id)
            _assert_vectors_equal(docs.loc[doc_id], featurize_document(
                _text(paras), annotations=annotations, tree_lookup=lookup))
            annotations, lookup = _fresh(doc_id)
            ref = featurize_paragraphs(_text(paras), annotations=annotations,
                                       tree_lookup=lookup)
            got = pars[pars.doc_id == doc_id].sort_values("par_idx")
            assert len(got) == len(ref) == 2
            for (_, row), vec in zip(got.iterrows(), ref):
                _assert_vectors_equal(row, vec)
        # the annotated rows did not take the heuristic path ...
        heuristic = featurize_document(_text(_DOCS[1][0]))
        assert not all(_same(docs.loc[1][k], v) for k, v in heuristic.items())
        # ... and a null annotation does
        doc_id, text = _NULL_DOC
        _assert_vectors_equal(docs.loc[doc_id], featurize_document(text))
        got = pars[pars.doc_id == doc_id].sort_values("par_idx")
        for (_, row), vec in zip(got.iterrows(), featurize_paragraphs(text)):
            _assert_vectors_equal(row, vec)

    @pytest.mark.parametrize("level", ["sentences", "words"])
    def test_exploded_rows_match_walk(self, level):
        from tscan_ray.stages.sentences import explode_sentences
        from tscan_ray.stages.words import explode_words

        explode = explode_sentences if level == "sentences" else explode_words
        out = explode(_ds(), "text", ["doc_id"],
                      annotations_column="ann").to_pandas()
        lex, lm = default_lexicons(), default_lm()
        walks = {i: analyze_document("", lex, DEFAULT_CONFIG, lm, *_fresh(i))
                 for i in _DOCS}
        walks[_NULL_DOC[0]] = analyze_document(_NULL_DOC[1], lex,
                                               DEFAULT_CONFIG, lm)
        for doc_id, folds_by_par in walks.items():
            got = out[out.doc_id == doc_id]
            if level == "sentences":
                got = got.sort_values(["par_idx", "sent_idx"])
                want = [f.parses[0].d_level for p in folds_by_par for f in p]
                assert got["d_level"].tolist() == want
            else:
                got = got.sort_values(["par_idx", "sent_idx", "word_idx"])
                want = [w.tag for p in folds_by_par for f in p
                        for w in f.words]
                assert got["tag"].tolist() == want
        # the annotated tags are the hand-made ones, not the tagger's
        if level == "words":
            d1 = out[out.doc_id == 1].sort_values(
                ["par_idx", "sent_idx", "word_idx"])
            assert d1["tag"].tolist()[:4] == ["LID", "N", "WW", "LET"]


_ADVERSARIAL = ["", "de kat\x00slaapt .", "de 🐈 slaapt 😴 .", "x" * 5000]


class TestDeclaredSchema:
    """The document and paragraph stages give exactly
    ``feature_schema(cfg)``, after their id and kept columns, on every
    batch: the schema is declared, not read off the values."""

    @staticmethod
    def _stages(cfg):
        from tscan_ray.stages.featurizer import CaptionFeaturizer
        from tscan_ray.stages.paragraphs import ParagraphExploder
        from tscan_ray.text.features import feature_schema

        feats = list(feature_schema(cfg))
        doc_id = pa.field("doc_id", pa.int64())
        return [
            (CaptionFeaturizer(text_column="text", keep_columns=["doc_id"],
                               annotations_column="ann", cfg=cfg),
             pa.schema([doc_id, *feats])),
            (ParagraphExploder(text_column="text", id_columns=["doc_id"],
                               annotations_column="ann", cfg=cfg),
             pa.schema([doc_id, pa.field("par_idx", pa.int32()), *feats])),
        ]

    @staticmethod
    def _batches():
        ids = list(_DOCS)
        annotated = pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": [_text(_DOCS[i][0]) for i in ids],
            "ann": [_ann_json(i) for i in ids]})
        heuristic = pa.table({
            "doc_id": pa.array([_NULL_DOC[0]], pa.int64()),
            "text": [_NULL_DOC[1]], "ann": pa.array([None], pa.string())})
        yield "empty", annotated.slice(0, 0)
        yield "annotated", annotated
        yield "heuristic", heuristic
        for i, text in enumerate(_ADVERSARIAL):
            yield f"adversarial{i}", pa.table({
                "doc_id": pa.array([i], pa.int64()), "text": [text],
                "ann": pa.array([None], pa.string())})

    @pytest.mark.parametrize("skip", [(), ("surprisal", "lint")])
    def test_every_batch_gets_the_declared_schema(self, skip):
        from tscan_ray.config import EngineConfig

        cfg = EngineConfig(skip_groups=skip)
        for stage, want in self._stages(cfg):
            for name, batch in self._batches():
                got = stage(batch).schema
                assert got.equals(want), (type(stage).__name__, name)
                assert not set(skip) & {
                    (f.metadata or {}).get(b"group", b"").decode()
                    for f in want}

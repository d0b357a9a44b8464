"""WORD-level golden conformance over the reference's own annotations.

The reference writes per-word ``<metric>`` elements into its output
FoLiA (wordStats::addMetrics, reference src/wordstats.cxx:691-800) and
renders enums as Dutch display strings (cgn/sem/conn/situation
``toString``).  These tests walk every word of every reference fixture
and assert the engine's WordAnn record reproduces each metric exactly —
per-word positional parity, stronger than the sentence-sum checks in
test_golden_folia.py.

Excluded: frequency/prevalence/staphorsius/Wopr metrics (data files the
reference repo does not ship) and full-lemma/wwform POS re-annotation
(Alpino-internal).  Pure-Python tests (no Ray).
"""

from __future__ import annotations

import os

import pytest

REF_TESTS = "/root/reference/tests"

pytestmark = pytest.mark.skipif(
    not os.path.isdir(REF_TESTS),
    reason="reference test corpus not available")

from tests.test_golden_folia import CASES, lex, tree_lookup  # noqa: E402,F401

# golden metric class -> WordAnn boolean attribute (emitted iff true)
BOOL_METRICS = {
    "pers_ref": "is_pers_ref",
    "pron_ref": "is_pron_ref",
    "archaic": "archaic",
    "content_word": "is_content",
    "content_word_strict": "is_content_strict",
    "nominalization": "is_nominal",
    "imperative": "is_imperative",
    "proper_negative": "is_prop_neg",
    "morph_negative": "is_morph_neg",
}

# golden metric class -> WordAnn int attribute (always emitted)
INT_METRICS = {
    "word_overlap_count": "word_overlap_cnt",
    "lemma_overlap_count": "lemma_overlap_cnt",
}


def _word_rows(case: str, lex, tree_lookup):
    from tscan_ray.sources.folia import parse_folia_file
    from tscan_ray.text.features import DEFAULT_CONFIG, analyze_sentence

    doc = parse_folia_file(os.path.join(REF_TESTS, f"{case}.example.ok"))
    flat = 0
    for para in doc.paragraphs:
        prev = None
        for sent in para:
            wm = doc.word_metrics[flat]
            flat += 1
            key = " ".join(t.word for t in sent)
            fold = analyze_sentence([t.word for t in sent], prev, lex,
                                    DEFAULT_CONFIG, pre=sent,
                                    alpino_tree=tree_lookup(key))
            prev = fold
            assert len(fold.words) == len(wm)
            for wi, (ann, gold) in enumerate(zip(fold.words, wm)):
                yield f"{case} s{flat} w{wi} ({ann.word})", ann, gold


@pytest.mark.parametrize("case", CASES)
def test_word_booleans_golden(case, lex, tree_lookup):
    """Per-word boolean metrics (pers_ref ... morph_negative) match the
    golden FoLiA exactly — emitted iff the engine flag is True."""
    for ctx, ann, gold in _word_rows(case, lex, tree_lookup):
        for mk, attr in BOOL_METRICS.items():
            want = gold.get(mk) == "true"
            assert bool(getattr(ann, attr)) == want, f"{ctx}: {mk}"
        for mk, attr in INT_METRICS.items():
            if mk in gold:
                assert getattr(ann, attr) == int(gold[mk]), f"{ctx}: {mk}"


@pytest.mark.parametrize("case", CASES)
def test_word_displays_golden(case, lex, tree_lookup):
    """Per-word display metrics (property/semtype/connective/situation,
    the reference's Dutch toString vocabulary) match exactly."""
    from tscan_ray.text.display import conn_nl, prop_nl, semtype_nl, sit_nl

    for ctx, ann, gold in _word_rows(case, lex, tree_lookup):
        assert prop_nl(ann.prop) == gold.get("property", ""), \
            f"{ctx}: property"
        assert semtype_nl(ann.sem_type, ann.tag) == gold.get("semtype", ""), \
            f"{ctx}: semtype"
        assert conn_nl(ann.conn_type) == gold.get("connective", ""), \
            f"{ctx}: connective"
        assert sit_nl(ann.sit_type) == gold.get("situation", ""), \
            f"{ctx}: situation"


@pytest.mark.parametrize("case", CASES)
def test_word_flags_golden(case, lex, tree_lookup):
    """Remaining per-word metric classes: formalType, afktype,
    subordinate (VG conjtype), betrekkelijk (relative pronoun) and
    multi_connective membership — all exact vs the golden FoLiA."""
    from tscan_ray.text.display import afk_nl, formal_nl

    for ctx, ann, gold in _word_rows(case, lex, tree_lookup):
        assert formal_nl(ann.formal_type) == gold.get("formalType", ""), \
            f"{ctx}: formalType"
        assert afk_nl(ann.afk_type) == gold.get("afktype", ""), \
            f"{ctx}: afktype"
        assert ann.is_onder == (gold.get("subordinate") == "true"), \
            f"{ctx}: subordinate"
        assert ann.is_betr == (gold.get("betrekkelijk") == "true"), \
            f"{ctx}: betrekkelijk"
        assert ann.is_multi_conn == (gold.get("multi_connective")
                                     == "true"), f"{ctx}: multi_connective"


@pytest.mark.parametrize("case", CASES)
def test_word_verb_forms_golden(case, lex, tree_lookup):
    """Per-word verb-form classification (wwform pos annotation) and
    separable-verb full-lemma match the golden FoLiA exactly."""
    from tscan_ray.text.display import wwform_nl

    for ctx, ann, gold in _word_rows(case, lex, tree_lookup):
        assert wwform_nl(ann.wwform) == gold.get("wwform", ""), \
            f"{ctx}: wwform"
        assert (ann.full_lemma or "") == gold.get("full-lemma", ""), \
            f"{ctx}: full-lemma"


def test_word_table_stage_annotated(ray_session):
    """The distributed word table (explode_words, annotations_column)
    emits the reference's Dutch display vocabulary per word — checked
    against the golden FoLiA word metrics for a whole fixture doc."""
    import ray
    import ray.data as rd

    from tscan_ray.sources.folia import annotations_to_json, parse_folia_file
    from tscan_ray.stages.words import explode_words
    from tscan_ray.text.lexicons import reference_test_lexicons

    case = "overlap3"
    doc = parse_folia_file(os.path.join(REF_TESTS, f"{case}.example.ok"))
    rows = [{
        "doc_id": case,
        "text": "\n".join(" ".join(t.word for t in s)
                          for p in doc.paragraphs for s in p),
        "annotations": annotations_to_json(doc.paragraphs),
    }]
    lex_ref = ray.put(reference_test_lexicons())
    out = explode_words(rd.from_items(rows), "text", ["doc_id"],
                        lexicons_ref=lex_ref,
                        annotations_column="annotations").to_pandas()
    golden = [w for s in doc.word_metrics for w in s]
    assert len(out) == len(golden)
    out = out.sort_values(["par_idx", "sent_idx", "word_idx"])
    for (_, r), g in zip(out.iterrows(), golden):
        assert r["property_nl"] == g.get("property", ""), r["word"]
        assert r["semtype_nl"] == g.get("semtype", ""), r["word"]
        assert r["situation_nl"] == g.get("situation", ""), r["word"]
        assert r["word_overlap_cnt"] == int(g["word_overlap_count"]), r["word"]
        assert r["lemma_overlap_cnt"] == int(g["lemma_overlap_count"]), r["word"]
        assert bool(r["is_pers_ref"]) == (g.get("pers_ref") == "true"), r["word"]

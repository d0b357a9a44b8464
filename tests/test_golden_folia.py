"""End-to-end golden conformance over the reference's OWN annotations.

Each reference test case ships three files (reference tests/):
``<case>.example`` (raw text), ``<case>.example.alpino`` (the pre-parsed
Alpino trees, indexed by ``alpino_lookup.data``) and
``<case>.example.ok`` (the reference's full FoLiA output: Frog
POS/lemma/morphology/NER annotations per word PLUS every computed
``<metric>``).  These tests drive the engine's feature math with the
reference's own token annotations (``analyze_sentence(pre=...)``) and
its own trees (``alpino_tree=...``) and assert the engine reproduces
the golden metrics EXACTLY — feature-math conformance decoupled from
the heuristic tagger and the reduced parser.

Lexicons: ``reference_test_lexicons()`` mirrors the reference's
tests/tscan.cfg (config-only lists empty, no synthetic seeds).
Frequency/staphorsius/prevalence metrics are excluded — the golden run
used the CLIB/SoNaR frequency files, which the reference repo does not
ship (data/.gitignore).

Pure-Python tests (no Ray).
"""

from __future__ import annotations

import math
import os

import pytest

REF_TESTS = "/root/reference/tests"

pytestmark = pytest.mark.skipif(
    not os.path.isdir(REF_TESTS),
    reason="reference test corpus not available")

CASES = (
    ["afk"] + [f"bug{i}" for i in range(1, 6)]
    + [f"concreet{i}" for i in range(1, 4)]
    + [f"connective{i}" for i in range(1, 7)]
    + [f"d{i}" for i in range(8)]
    + [f"depdist{i}" for i in range(1, 23)]
    + [f"dlevel{i}" for i in range(1, 8)]
    + ["gebeuren_abstr", "gebeuren_conc", "lsa1", "lsa2", "flair1",
       "mod_adv", "mod_bw", "mtld", "negative", "nomin", "noun-adv",
       "npmod", "numstring"]
    + [f"overlap{i}" for i in range(1, 6)]
    + ["predc-a", "predc-n", "relativeclauses", "semicolon",
       "smallconjuncts", "svp"]
)

# sentence <metric> class -> DD type (structstats.cxx:1342-1364)
DIST_METRICS = {
    "sub_verb_dist": "SUB_VERB", "obj_verb_dist": "OBJ1_VERB",
    "lijdend_verb_dist": "OBJ2_VERB", "verb_pp_dist": "VERB_PP",
    "noun_det_dist": "NOUN_DET", "prep_obj_dist": "PREP_OBJ1",
    "verb_vc_dist": "VERB_VC", "comp_body_dist": "COMP_BODY",
    "crd_cnj_dist": "CRD_CNJ", "verb_comp_dist": "VERB_COMP",
    "noun_vc_dist": "NOUN_VC", "verb_svp_dist": "VERB_SVP",
    "verb_cop_dist": "VERB_PREDC_N", "verb_adj_dist": "VERB_PREDC_A",
    "verb_bw_mod_dist": "VERB_MOD_BW", "verb_adv_mod_dist": "VERB_MOD_A",
    "verb_noun_dist": "VERB_NOUN",
}

# sentence <metric> class -> SentParse field
PARSE_METRICS = {
    "smain_count": "smain_cnt", "ssub_count": "ssub_cnt",
    "sv1_count": "sv1_cnt", "smain_cnj_count": "smain_cnj_cnt",
    "ssub_cnj_count": "ssub_cnj_cnt", "sv1_cnj_count": "sv1_cnj_cnt",
    "rel_count": "betr_cnt", "vc_modifier_count": "vc_mod_cnt",
    "vc_modifier_single_count": "vc_mod_single_cnt",
    "adj_np_modifier_count": "adj_np_mod_cnt",
    "np_modifier_count": "np_mod_cnt", "d_level": "d_level",
}

# sentence <metric> class -> engine fold counter (setCommonCounts names)
COUNTER_METRICS = {
    "word_count": "wordCnt", "let_count": "letCnt", "name_count": "nameCnt",
    "noun_count": "nounCnt", "verb_count": "verbCnt", "adj_count": "adjCnt",
    "content_count": "contentCnt",
    "content_strict_count": "contentStrictCnt",
    "past_verb_count": "pastCnt", "present_verb_count": "presentCnt",
    "subjonct_count": "subjonctCnt",
    "pers_pron_1_count": "pron1Cnt", "pers_pron_2_count": "pron2Cnt",
    "pers_pron_3_count": "pron3Cnt",
    "bv_vd_count": "vdBvCnt", "nw_vd_count": "vdNwCnt",
    "vrij_vd_count": "vdVrijCnt", "bv_od_count": "odBvCnt",
    "nw_od_count": "odNwCnt", "vrij_od_count": "odVrijCnt",
    "bv_inf_count": "infBvCnt", "nw_inf_count": "infNwCnt",
    "vrij_inf_count": "infVrijCnt",
    "vg_count": "vgCnt", "tsw_count": "tswCnt", "spec_count": "specCnt",
    "bw_count": "bwCnt", "vnw_count": "vnwCnt", "lid_count": "lidCnt",
    "tw_count": "twCnt", "vz_count": "vzCnt",
    "passive_count": "passiveCnt", "modal_count": "modalCnt",
    "time_count": "timeVCnt", "koppel_count": "koppelCnt",
    "prop_neg_count": "propNegCnt", "morph_neg_count": "morphNegCnt",
    "pers_ref_count": "persRefCnt", "pron_ref_count": "pronRefCnt",
    "archaic_count": "archaicsCnt",
    "word_overlap_count": "wordOverlapCnt",
    "lemma_overlap_count": "lemmaOverlapCnt",
    "general_adverb_count": "generalAdverbCnt",
    "specific_adverb_count": "specificAdverbCnt",
    "intens_count": "intensCnt", "formal_count": "formalCnt",
    "nominal_count": "nominalCnt", "character_count": "charCnt",
    "morpheme_count": "morphCnt",
    "all_connector_count": "allConnCnt",
    "temporal_connector_count": "tempConnCnt",
    "reeks_wg_connector_count": "opsomWgConnCnt",
    "reeks_zin_connector_count": "opsomZinConnCnt",
    "contrast_connector_count": "contrastConnCnt",
    "comparatief_connector_count": "comparConnCnt",
    "causaal_connector_count": "causeConnCnt",
    "time_situation_count": "timeSitCnt",
    "space_situation_count": "spaceSitCnt",
    "cause_situation_count": "causalSitCnt",
    "emotion_situation_count": "emoSitCnt",
    "human_nouns_count": "humanCnt",
    "voorzetsel_expression_count": "prepExprCnt",
}


@pytest.fixture(scope="module")
def lex():
    from tscan_ray.text.lexicons import reference_test_lexicons

    return reference_test_lexicons()


@pytest.fixture(scope="module")
def tree_lookup():
    from tscan_ray.text.alpino import load_treebank_file

    table: dict[str, tuple[str, int]] = {}
    with open(os.path.join(REF_TESTS, "alpino_lookup.data"),
              encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            toks, fname, idx = line.split("\t")
            table[toks] = (fname, int(idx))
    cache: dict[str, list] = {}

    def lookup(key: str):
        hit = table.get(key)
        if hit is None:
            return None
        fname, idx = hit
        if fname not in cache:
            cache[fname] = load_treebank_file(os.path.join(REF_TESTS, fname))
        return cache[fname][idx - 1]

    return lookup


def _folds(case: str, lex, tree_lookup):
    """Analyze every sentence of a case with the reference's own
    annotations + trees; yield (sent_idx, tokens_key, fold, metrics)."""
    from tscan_ray.sources.folia import parse_folia_file
    from tscan_ray.text.features import DEFAULT_CONFIG, analyze_sentence

    doc = parse_folia_file(os.path.join(REF_TESTS, f"{case}.example.ok"))
    flat = 0
    for para in doc.paragraphs:
        prev = None
        for sent in para:
            sm = doc.sent_metrics[flat]
            flat += 1
            key = " ".join(t.word for t in sent)
            tree = tree_lookup(key)
            assert tree is not None, f"{case}: no tree for {key!r}"
            fold = analyze_sentence([t.word for t in sent], prev, lex,
                                    DEFAULT_CONFIG, pre=sent,
                                    alpino_tree=tree)
            prev = fold
            yield flat, key, fold, sm


@pytest.mark.parametrize("case", CASES)
def test_parse_metrics_golden(case, lex, tree_lookup):
    """Every parse-derived sentence metric (17 DD-type means, deplen,
    max_deplen, d-level, clause/conjunction/modifier counters) matches
    the reference's golden FoLiA output exactly."""
    for si, key, fold, sm in _folds(case, lex, tree_lookup):
        p = fold.parses[0]
        ctx = f"{case} s{si} ({key[:60]})"
        for mk, fk in PARSE_METRICS.items():
            if mk in sm:
                assert getattr(p, fk) == int(sm[mk]), f"{ctx}: {mk}"
        for mk, dt in DIST_METRICS.items():
            want = sm.get(mk)
            got = p.distances.get(dt)
            if want in (None, "NA"):
                assert not got, f"{ctx}: {mk} expected NA, got {got}"
            else:
                assert got, f"{ctx}: {mk} expected {want}, got NA"
                assert sum(got) / len(got) == pytest.approx(
                    float(want), abs=2e-4), f"{ctx}: {mk}"
        all_d = p.all_distances()
        want_dep = sm.get("deplen")
        if want_dep not in (None, "NA"):
            assert all_d and sum(all_d) / len(all_d) == pytest.approx(
                float(want_dep), abs=2e-4), f"{ctx}: deplen"
        want_max = sm.get("max_deplen")
        if want_max not in (None, "NA"):
            got_max = max(all_d) if all_d else 0
            assert got_max == int(float(want_max)), f"{ctx}: max_deplen"


@pytest.mark.parametrize("case", CASES)
def test_counter_metrics_golden(case, lex, tree_lookup):
    """Every word-derived sentence counter (POS/props/negation/overlap/
    connectives/situations/formality/NER-backed person reference, 60
    metric classes) matches the golden FoLiA output exactly."""
    for si, key, fold, sm in _folds(case, lex, tree_lookup):
        ctx = f"{case} s{si} ({key[:60]})"
        for mk, ck in COUNTER_METRICS.items():
            if mk in sm:
                assert fold.c.get(ck, 0) == int(sm[mk]), f"{ctx}: {mk}"


def test_doc_level_deplen_golden(lex, tree_lookup):
    """Document-level featurize over annotations + trees: AL rollups
    (mean-of-sentence deplen semantics) reproduce doc metrics."""
    from tscan_ray.sources.folia import parse_folia_file
    from tscan_ray.text.features import featurize_document

    for case in ("dlevel4", "bug2", "smallconjuncts"):
        doc = parse_folia_file(os.path.join(REF_TESTS,
                                            f"{case}.example.ok"))
        out = featurize_document("", lex=lex, annotations=doc.paragraphs,
                                 tree_lookup=tree_lookup)
        # FoLiA doc metric d_level is the raw SUM over sentences
        # (structstats.cxx:1620-1624); the CSV column D_level is
        # proportion(sum, sentCnt) (structstats.cxx:376) -> rescale.
        want = doc.doc_metrics.get("d_level")
        if want not in (None, "NA"):
            n_sent = sum(len(p) for p in doc.paragraphs)
            assert out["D_level"] * n_sent == pytest.approx(
                float(want), abs=2e-4), case
        # doc deplen = getMeanAL over all sentences (structstats.cxx:28-42)
        want_dep = doc.doc_metrics.get("deplen")
        if want_dep not in (None, "NA"):
            assert out["AL_gem"] == pytest.approx(float(want_dep),
                                                  abs=2e-4), case
        want_max = doc.doc_metrics.get("max_deplen")
        if want_max not in (None, "NA"):
            assert out["AL_max"] == pytest.approx(float(want_max),
                                                  abs=2e-4), case


def test_distributed_annotated_featurizer(ray_session, tmp_path):
    """The annotation COLUMN path: reference FoLiA docs + their own
    Alpino trees serialized to JSON rows, featurized through the
    distributed actor-pool stage — doc-level goldens (D_level sum,
    AL_gem/AL_max) must match, proving the alpino_lookup pattern works
    as a distributed column, not just in-process."""
    import json
    import xml.etree.ElementTree as ET

    import ray
    import ray.data as rd

    from tscan_ray.sources.folia import annotations_to_json, parse_folia_file
    from tscan_ray.stages.featurizer import featurize
    from tscan_ray.text.lexicons import reference_test_lexicons

    # sentence-string -> raw alpino_ds XML (via the reference's lookup)
    table = {}
    with open(os.path.join(REF_TESTS, "alpino_lookup.data"),
              encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                toks, fname, idx = line.split("\t")
                table[toks] = (fname, int(idx))
    tree_xml_cache: dict[str, list[str]] = {}

    def tree_xml(key):
        fname, idx = table[key]
        if fname not in tree_xml_cache:
            root = ET.parse(os.path.join(REF_TESTS, fname)).getroot()
            tree_xml_cache[fname] = [
                ET.tostring(ds, encoding="unicode")
                for ds in root.iter("alpino_ds")]
        return tree_xml_cache[fname][idx - 1]

    rows, want = [], {}
    for case in ("dlevel4", "bug2", "overlap3"):
        doc = parse_folia_file(os.path.join(REF_TESTS,
                                            f"{case}.example.ok"))
        trees = [tree_xml(" ".join(t.word for t in s))
                 for p in doc.paragraphs for s in p]
        rows.append({
            "doc_id": case,
            "caption": "\n".join(" ".join(t.word for t in s)
                                 for p in doc.paragraphs for s in p),
            "annotations": annotations_to_json(doc.paragraphs, trees),
        })
        n_sent = sum(len(p) for p in doc.paragraphs)
        want[case] = (float(doc.doc_metrics["d_level"]) / n_sent,
                      float(doc.doc_metrics["deplen"]))

    ds = rd.from_items(rows)
    lex_ref = ray.put(reference_test_lexicons())
    out = featurize(ds, text_column="caption",
                    annotations_column="annotations", lexicons_ref=lex_ref,
                    keep_columns=["doc_id"]).to_pandas()
    assert len(out) == 3
    for _, r in out.iterrows():
        wd, wdep = want[r["doc_id"]]
        assert r["D_level"] == pytest.approx(wd, abs=2e-4), r["doc_id"]
        assert r["AL_gem"] == pytest.approx(wdep, abs=2e-4), r["doc_id"]


def test_sentence_table_stage_annotated(ray_session):
    """The distributed sentence table consumes the annotation column:
    per-sentence d_level equals the golden FoLiA metric for every
    sentence of a multi-paragraph fixture."""
    import ray
    import ray.data as rd

    from tscan_ray.sources.folia import annotations_to_json, parse_folia_file
    from tscan_ray.stages.sentences import explode_sentences
    from tscan_ray.text.lexicons import reference_test_lexicons
    from tests.test_folia_writer import _tree_xml_lookup

    tree_xml = _tree_xml_lookup()
    case = "dlevel2"
    doc = parse_folia_file(os.path.join(REF_TESTS, f"{case}.example.ok"))
    trees = [tree_xml(" ".join(t.word for t in s))
             for p in doc.paragraphs for s in p]
    rows = [{
        "doc_id": case,
        "text": "\n".join(" ".join(t.word for t in s)
                          for p in doc.paragraphs for s in p),
        "annotations": annotations_to_json(doc.paragraphs, trees),
    }]
    lex_ref = ray.put(reference_test_lexicons())
    out = explode_sentences(rd.from_items(rows), "text", ["doc_id"],
                            lexicons_ref=lex_ref,
                            annotations_column="annotations").to_pandas()
    out = out.sort_values(["par_idx", "sent_idx"]).reset_index(drop=True)
    assert len(out) == len(doc.sent_metrics)
    for i, sm in enumerate(doc.sent_metrics):
        if sm.get("d_level") not in (None, "NA"):
            assert out.loc[i, "d_level"] == int(sm["d_level"]), i
        if sm.get("word_count") not in (None, "NA"):
            assert out.loc[i, "wordCnt"] == int(sm["word_count"]), i


@pytest.mark.parametrize("case", CASES)
def test_counter_metrics_ext_golden(case, lex, tree_lookup):
    """The extended counter surface — NER name counts, the full
    noun/adj/verb semtype taxonomies, intensifier/formal/general
    classes, NP stats, afk domains, conditional counts — matches the
    golden FoLiA exactly (everything except the data-file-gated
    frequency/prevalence/LM families)."""
    from tscan_ray.text.metric_names import (COMPUTED_METRICS,
                                             COUNTER_METRICS_EXT)

    for si, key, fold, sm in _folds(case, lex, tree_lookup):
        ctx = f"{case} s{si} ({key[:60]})"
        for mk, ck in COUNTER_METRICS_EXT.items():
            if mk in sm:
                assert fold.c.get(ck, 0) == int(sm[mk]), f"{ctx}: {mk}"
        for mk, fn in COMPUTED_METRICS.items():
            if mk in sm:
                assert fn(fold.c) == int(sm[mk]), f"{ctx}: {mk}"


# doc-level golden metric class -> engine output column
_DOC_METRIC_COLS = {
    "word_mtld": "MTLD_wrd", "lemma_mtld": "MTLD_lem",
    "name_mtld": "MTLD_namen", "content_mtld": "MTLD_inhwrd",
    "content_mtld_strict": "MTLD_inhwrd_zonder_abw",
    "word_ttr": "TTR_wrd", "lemma_ttr": "TTR_lem",
    "names_ttr": "TTR_namen", "content_word_ttr": "TTR_inhwrd",
    "content_word_ttr_strict": "TTR_inhwrd_zonder_abw",
    "all_conn_mtld": "Conn_MTLD", "all_conn_ttr": "Conn_TTR",
    "temp_conn_mtld": "Conn_temp_MTLD", "temp_conn_ttr": "Conn_temp_TTR",
    "opsom_wg_conn_mtld": "Conn_reeks_wg_MTLD",
    "opsom_wg_conn_ttr": "Conn_reeks_wg_TTR",
    "opsom_zin_conn_mtld": "Conn_reeks_zin_MTLD",
    "opsom_zin_conn_ttr": "Conn_reeks_zin_TTR",
    "contrast_conn_mtld": "Conn_contr_MTLD",
    "contrast_conn_ttr": "Conn_contr_TTR",
    "comp_conn_mtld": "Conn_comp_MTLD", "comp_conn_ttr": "Conn_comp_TTR",
    "cause_conn_mtld": "Conn_caus_MTLD", "cause_conn_ttr": "Conn_caus_TTR",
    "cause_sit_mtld": "Causaal_MTLD", "cause_sit_ttr": "Causaal_TTR",
    "ruimte_sit_mtld": "Ruimte_MTLD", "ruimte_sit_ttr": "Ruimte_TTR",
    "tijd_sit_mtld": "Tijd_MTLD", "tijd_sit_ttr": "Tijd_TTR",
    "emotion_sit_mtld": "Emotie_MTLD", "emotion_sit_ttr": "Emotie_TTR",
}


@pytest.mark.parametrize("case", CASES)
def test_doc_mtld_ttr_golden(case, lex, tree_lookup):
    """Document-level lexical-diversity metrics (MTLD / TTR over word,
    lemma, name, content and connective/situation classes) match the
    golden FoLiA doc metrics exactly."""
    from tscan_ray.sources.folia import parse_folia_file
    from tscan_ray.text.features import featurize_document

    doc = parse_folia_file(os.path.join(REF_TESTS, f"{case}.example.ok"))
    out = featurize_document("", lex=lex, annotations=doc.paragraphs,
                             tree_lookup=tree_lookup)
    for mk, col in _DOC_METRIC_COLS.items():
        want = doc.doc_metrics.get(mk)
        if want is None:
            continue
        got = out[col]
        if want == "NA":
            assert isinstance(got, float) and math.isnan(got), \
                f"{case}: {mk} expected NA, got {got}"
        else:
            # golden values are 6-significant-digit renderings
            assert got == pytest.approx(float(want), rel=5e-6,
                                        abs=2e-4), f"{case}: {mk}"


@pytest.mark.parametrize("case", ["bug4", "bug5", "dlevel2", "npmod",
                                  "flair1", "overlap5"])
def test_doc_counters_and_ring_overlap_golden(case, lex, tree_lookup):
    """Doc-level merged counters (every sentence counter summed) and the
    50-word ring-buffer argument overlap (docStats doc_word/
    doc_lemma_overlapCnt) match the golden doc metrics."""
    from tscan_ray.sources.folia import parse_folia_file
    from tscan_ray.text.features import (DEFAULT_CONFIG, _doc_overlap,
                                         analyze_sentence, merge_folds)
    from tscan_ray.text.metric_names import (COUNTER_METRICS,
                                             COUNTER_METRICS_EXT)

    doc = parse_folia_file(os.path.join(REF_TESTS, f"{case}.example.ok"))
    folds = []
    for para in doc.paragraphs:
        prev = None
        for sent in para:
            key = " ".join(t.word for t in sent)
            f = analyze_sentence([t.word for t in sent], prev, lex,
                                 DEFAULT_CONFIG, pre=sent,
                                 alpino_tree=tree_lookup(key))
            prev = f
            folds.append(f)
    merged = merge_folds(folds)
    for mk, ck in {**COUNTER_METRICS, **COUNTER_METRICS_EXT}.items():
        want = doc.doc_metrics.get(mk)
        if want not in (None, "NA", "missing"):
            assert merged.c.get(ck, 0) == int(want), f"{case}: {mk}"
    dw, dl = _doc_overlap(merged.words, DEFAULT_CONFIG.overlap_size)
    want_w = doc.doc_metrics.get("document_word_argument_overlap_count")
    want_l = doc.doc_metrics.get("document_lemma_argument_overlap_count")
    if want_w is not None:
        assert dw == int(want_w), f"{case}: doc word ring overlap"
    if want_l is not None:
        assert dl == int(want_l), f"{case}: doc lemma ring overlap"


def test_paragraph_table_stage_annotated(ray_session):
    """The distributed paragraph table consumes the annotation column:
    per-paragraph D_level (CSV proportion semantics) and AL_gem match
    the golden paragraph metrics of a multi-paragraph fixture."""
    import ray
    import ray.data as rd

    from tests.test_folia_writer import _tree_xml_lookup
    from tscan_ray.sources.folia import annotations_to_json, parse_folia_file
    from tscan_ray.stages.paragraphs import explode_paragraphs
    from tscan_ray.text.lexicons import reference_test_lexicons

    tree_xml = _tree_xml_lookup()
    case = "dlevel2"
    doc = parse_folia_file(os.path.join(REF_TESTS, f"{case}.example.ok"))
    trees = [tree_xml(" ".join(t.word for t in s))
             for p in doc.paragraphs for s in p]
    rows = [{
        "doc_id": case,
        "text": "\n".join(" ".join(t.word for t in s)
                          for p in doc.paragraphs for s in p),
        "annotations": annotations_to_json(doc.paragraphs, trees),
    }]
    lex_ref = ray.put(reference_test_lexicons())
    out = explode_paragraphs(rd.from_items(rows), "text", ["doc_id"],
                             lexicons_ref=lex_ref,
                             annotations_column="annotations").to_pandas()
    out = out.sort_values("par_idx").reset_index(drop=True)
    assert len(out) == len(doc.par_metrics)
    for i, pm in enumerate(doc.par_metrics):
        n_sent = len(doc.paragraphs[i])
        if pm.get("d_level") not in (None, "NA", "missing"):
            # FoLiA par d_level is the SUM; the CSV column D_level is
            # proportion(sum, sentCnt)
            assert out.loc[i, "D_level"] * n_sent == pytest.approx(
                float(pm["d_level"]), abs=2e-4), i
        if pm.get("deplen") not in (None, "NA"):
            assert out.loc[i, "AL_gem"] == pytest.approx(
                float(pm["deplen"]), abs=2e-4), i

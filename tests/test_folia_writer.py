"""FoLiA XML writer (S3): round-trip golden conformance.

Write a reference fixture (driven by its own annotations + trees)
through the distributed FoLiA sink, re-parse OUR output with the FoLiA
reader, and assert every emitted word/sentence/doc metric equals the
reference's original golden ``.example.ok`` values.
"""

from __future__ import annotations

import os

import pytest

REF_TESTS = "/root/reference/tests"

pytestmark = pytest.mark.skipif(
    not os.path.isdir(REF_TESTS),
    reason="reference test corpus not available")

from tests.test_golden_folia import CASES, lex, tree_lookup  # noqa: E402,F401


def _tree_xml_lookup():
    import xml.etree.ElementTree as ET

    table = {}
    with open(os.path.join(REF_TESTS, "alpino_lookup.data"),
              encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                toks, fname, idx = line.split("\t")
                table[toks] = (fname, int(idx))
    cache: dict[str, list[str]] = {}

    def get(key: str) -> str:
        fname, idx = table[key]
        if fname not in cache:
            root = ET.parse(os.path.join(REF_TESTS, fname)).getroot()
            cache[fname] = [ET.tostring(ds, encoding="unicode")
                            for ds in root.iter("alpino_ds")]
        return cache[fname][idx - 1]

    return get


def test_folia_writer_round_trip_golden(ray_session, tmp_path, lex):
    import ray
    import ray.data as rd

    from tscan_ray.sources.folia import annotations_to_json, parse_folia_file
    from tscan_ray.stages.folia_writer import write_folia
    from tscan_ray.text.metric_names import (COMPUTED_METRICS,
                                             COUNTER_METRICS,
                                             COUNTER_METRICS_EXT,
                                             DIST_METRICS, PARSE_METRICS)

    tree_xml = _tree_xml_lookup()
    # the ENTIRE reference fixture corpus round-trips (multi-paragraph
    # cases — dlevel*, bug4/5, npmod — exercise the paragraph level)
    cases = list(CASES)
    rows, golden = [], {}
    for case in cases:
        doc = parse_folia_file(os.path.join(REF_TESTS,
                                            f"{case}.example.ok"))
        golden[case] = doc
        trees = [tree_xml(" ".join(t.word for t in s))
                 for p in doc.paragraphs for s in p]
        rows.append({
            "doc_id": case,
            "text": "\n".join(" ".join(t.word for t in s)
                              for p in doc.paragraphs for s in p),
            "annotations": annotations_to_json(doc.paragraphs, trees),
        })

    out_dir = str(tmp_path / "folia_out")
    lex_ref = ray.put(lex)
    manifest = write_folia(rd.from_items(rows), out_dir,
                           annotations_column="annotations",
                           lexicons_ref=lex_ref).to_pandas()
    assert sorted(manifest["doc_id"]) == sorted(cases)

    emitted_sent = (set(COUNTER_METRICS) | set(COUNTER_METRICS_EXT)
                    | set(COMPUTED_METRICS) | set(PARSE_METRICS)
                    | set(DIST_METRICS) | {"deplen", "max_deplen"})
    for case in cases:
        ours = parse_folia_file(os.path.join(out_dir, f"{case}.xml"))
        ref = golden[case]
        # same shape, same words
        assert [[t.word for t in s] for p in ours.paragraphs for s in p] \
            == [[t.word for t in s] for p in ref.paragraphs for s in p]
        # every sentence metric we emit equals the reference's golden
        for si, (got, want) in enumerate(zip(ours.sent_metrics,
                                             ref.sent_metrics)):
            for cls in emitted_sent:
                if cls in want:
                    assert cls in got, f"{case} s{si}: {cls} missing"
                    if want[cls] == "NA":
                        assert got[cls] == "NA", f"{case} s{si}: {cls}"
                    else:
                        assert float(got[cls]) == pytest.approx(
                            float(want[cls]), abs=2e-4), \
                            f"{case} s{si}: {cls}"
        # word metrics: booleans + displays + overlap counts
        for si, (gs, ws) in enumerate(zip(ours.word_metrics,
                                          ref.word_metrics)):
            for wi, (g, w) in enumerate(zip(gs, ws)):
                for cls in ("pers_ref", "content_word", "property",
                            "semtype", "connective", "situation",
                            "word_overlap_count", "lemma_overlap_count"):
                    assert g.get(cls) == w.get(cls), \
                        f"{case} s{si} w{wi}: {cls}"
        # paragraph metrics (parStats: same addMetrics, merged counters,
        # mean-of-sentence-means deplen)
        for pi, (got, want) in enumerate(zip(ours.par_metrics,
                                             ref.par_metrics)):
            for cls in emitted_sent:
                if cls in want:
                    assert cls in got, f"{case} p{pi}: {cls} missing"
                    if want[cls] == "NA":
                        assert got[cls] == "NA", f"{case} p{pi}: {cls}"
                    else:
                        assert float(got[cls]) == pytest.approx(
                            float(want[cls]), abs=2e-4), \
                            f"{case} p{pi}: {cls}"
        # doc metrics
        for cls in ("d_level", "deplen", "max_deplen"):
            if cls in ref.doc_metrics:
                want = ref.doc_metrics[cls]
                if want == "NA":
                    assert ours.doc_metrics[cls] == "NA", f"{case}: {cls}"
                else:
                    assert float(ours.doc_metrics[cls]) == pytest.approx(
                        float(want), abs=2e-4), f"{case}: {cls}"

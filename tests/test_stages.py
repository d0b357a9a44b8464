"""Word-level explode (S4 word CSV parity), image transform stages,
2-phase aggregation over a hot key."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _docs_ds():
    import ray.data as rd

    return rd.from_items([
        {"doc_id": 1, "text": "De man ziet de kat ."},
        {"doc_id": 2, "text": "Loopt snel .\n\nDe kat is groot ."},
        {"doc_id": 3, "text": ""},
    ])


class TestExplodeWords:
    def test_one_row_per_token(self, ray_session):
        from tscan_ray.stages.words import explode_words

        out = explode_words(_docs_ds(), "text", ["doc_id"]).to_pandas()
        # doc1: 6 tokens; doc2: 3 + 5 tokens (2 paragraphs); doc3: 0
        assert len(out) == 6 + 8
        d1 = out[out.doc_id == 1]
        assert list(d1["word"]) == ["De", "man", "ziet", "de", "kat", "."]
        assert list(d1["tag"]) == ["LID", "N", "WW", "LID", "N", "LET"]
        assert d1["word_idx"].tolist() == [0, 1, 2, 3, 4, 5]
        d2 = out[out.doc_id == 2]
        assert d2["par_idx"].max() == 1  # second paragraph tracked
        # punctuation rows flagged
        assert (out[out.word == "."]["prop"] == "ISLET").all()

    def test_content_flags(self, ray_session):
        from tscan_ray.stages.words import explode_words

        out = explode_words(_docs_ds(), "text", ["doc_id"]).to_pandas()
        kat = out[(out.word == "kat") & (out.doc_id == 1)].iloc[0]
        assert kat["is_content"]
        assert kat["lemma"] == "kat"


class TestImageOps:
    def _images_ds(self):
        import ray.data as rd

        from tscan_ray.sources.codecs import encode_png

        rng = np.random.default_rng(7)
        rows = []
        for i in range(4):
            px = rng.integers(0, 256, size=(16, 12, 3), dtype=np.uint8)
            rows.append({"image_id": f"img{i}", "bytes": encode_png(px),
                         "w": 12, "h": 16, "fmt": "png"})
        return rd.from_arrow(pa.Table.from_pylist(rows)), rows

    def test_resize(self, ray_session):
        from tscan_ray.sources.codecs import decode_image
        from tscan_ray.stages.image_ops import resize_nearest, resize_images

        ds, rows = self._images_ds()
        out = resize_images(ds, out_h=8, out_w=6).to_pandas()
        assert (out["w"] == 6).all() and (out["h"] == 8).all()
        px0 = decode_image(out[out.image_id == "img0"]["bytes"].iloc[0])
        assert px0.shape == (8, 6, 3)
        # matches the pure kernel on the same input
        src = decode_image(rows[0]["bytes"])
        np.testing.assert_array_equal(px0, resize_nearest(src, 8, 6))

    def test_features(self, ray_session):
        from tscan_ray.stages.image_ops import extract_image_features

        ds, rows = self._images_ds()
        out = extract_image_features(ds).to_pandas()
        assert "bytes" not in out.columns  # dropped before any shuffle
        for c in ("mean_r", "luma_mean", "luma_std", "edge_density"):
            assert np.isfinite(out[c]).all()

    def test_frame_sample_stub(self):
        from tscan_ray.stages.image_ops import sample_frames_stub

        payload = bytes(range(100))
        frames = sample_frames_stub(payload, frame_size=10, every_k=3)
        assert len(frames) == 4  # frames 0, 3, 6, 9
        assert frames[0] == payload[0:10]
        assert frames[1] == payload[30:40]
        with pytest.raises(ValueError):
            sample_frames_stub(payload, 0, 1)


class TestHotKeyAgg:
    def test_hot_key_matches_ground_truth(self, ray_session):
        import ray.data as rd

        from tscan_ray.ops.agg import groupby_sum_2phase

        # hot-key distribution: 90% of rows on one key
        n = 2000
        keys = np.where(np.arange(n) % 10 < 9, 7, np.arange(n) % 5)
        df = pd.DataFrame({"k": keys.astype(np.int64),
                           "v": np.arange(n, dtype=np.float64)})
        ds = rd.from_pandas(df).repartition(8)
        p = groupby_sum_2phase(ds, ["k"], ["v"]).to_pandas()
        # matches pandas ground truth
        gt = df.groupby("k")["v"].sum().sort_index()
        np.testing.assert_allclose(p.set_index("k")["sum_v"].sort_index(), gt)
        assert (p.set_index("k")["n"].sort_index()
                == df.groupby("k").size().sort_index()).all()


class TestExplodeSentences:
    def test_one_row_per_sentence(self, ray_session):
        from tscan_ray.stages.sentences import explode_sentences

        out = explode_sentences(_docs_ds(), "text", ["doc_id"]).to_pandas()
        # doc1: 1 sentence; doc2: 1 + 1 (two paragraphs); doc3: 0
        assert len(out) == 3
        d1 = out[out.doc_id == 1].iloc[0]
        assert d1["n_tokens"] == 6
        # default stoplist is empty (reference fill_stop_lemmata is
        # config-only): every non-punct token counts
        assert d1["wordCnt"] == 5 and d1["letCnt"] == 1
        assert d1["smainCnt"] == 1
        assert d1["al_max"] >= 1.0
        assert d1["avg_prob10_fwd"] < 0
        d2 = out[out.doc_id == 2]
        assert set(d2["par_idx"]) == {0, 1}
        # imperative paragraph: "Loopt snel ." -> sv1
        assert d2[d2.par_idx == 0].iloc[0]["sv1Cnt"] == 1


class TestCustomWordlist:
    def test_custom_wordlist_counts(self):
        """§2.10 user-extension hook: a user wordlist swapped into actor
        state drives myClassCnt (reference load_custom_wordlist,
        webservice/tscanservice/tscanwrapper.py:73-88)."""
        import pandas as pd
        import ray
        import ray.data as rd

        from tscan_ray.stages.featurizer import featurize, with_custom_wordlist

        docs = rd.from_pandas(pd.DataFrame({
            "doc_id": [1, 2],
            "text": ["de fiets ging snel", "een huis was groot"],
        }))
        lex = with_custom_wordlist(["fiets", "huis"], classification="thing")
        out = featurize(docs, "text", keep_columns=["doc_id"],
                        lexicons_ref=ray.put(lex)).to_pandas()
        assert (out.sort_values("doc_id")["myClassCnt"] == [1, 1]).all()
        base = featurize(docs, "text", keep_columns=["doc_id"]).to_pandas()
        assert (base["myClassCnt"] == 0).all()

    def test_wordlist_table_form(self):
        import pyarrow as pa

        from tscan_ray.stages.featurizer import with_custom_wordlist

        tbl = pa.table({"word": ["Fiets", "huis"],
                        "classification": ["vehicle", "building"]})
        lex = with_custom_wordlist(tbl)
        assert lex.my_classification == {"fiets": "vehicle", "huis": "building"}


class TestFeaturizerEdgeCases:
    def test_null_empty_and_odd_rows(self):
        """Null text, empty string, whitespace-only, emoji/non-latin and a
        pathological repeat must flow through the actor stage without
        error and with sane counts (wordCnt 0 for contentless rows)."""
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd

        from tscan_ray.stages.featurizer import featurize

        docs = rd.from_arrow(pa.table({
            "doc_id": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
            "text": pa.array([None, "", "   \t  ", "🎉 好 мир",
                              ("ha " * 2000).strip()], type=pa.string()),
        }))
        out = featurize(docs, "text", keep_columns=["doc_id"]).to_pandas()
        out = out.sort_values("doc_id").reset_index(drop=True)
        assert len(out) == 5
        assert out.loc[0, "wordCnt"] == 0  # null
        assert out.loc[1, "wordCnt"] == 0  # empty
        assert out.loc[2, "wordCnt"] == 0  # whitespace
        assert out.loc[3, "wordCnt"] >= 1  # non-latin tokens still count
        assert out.loc[4, "wordCnt"] == 2000  # long doc intact


class TestParagraphTable:
    def test_paragraph_scoped_normalization(self, ray_session):
        import math

        import pyarrow as pa
        import ray.data as rd

        from tscan_ray.stages.paragraphs import explode_paragraphs
        from tscan_ray.text.features import featurize_document

        two_par = ("de man ziet de kat . de kat loopt weg .\n\n"
                   "het huis staat in de stad . de stad is erg groot .")
        ds = rd.from_arrow(pa.table({"doc_id": [7], "text": [two_par]}))
        out = explode_paragraphs(ds, "text", ["doc_id"]).to_pandas()
        assert len(out) == 2
        assert out["par_idx"].tolist() == [0, 1]
        assert (out["doc_id"] == 7).all()
        # paragraph-scoped: each paragraph's vector equals the DOC vector
        # of that paragraph alone (parStats IS a structStats) — MTLD/freq
        # normalization runs over the paragraph, not the document
        for pi, ptext in enumerate(two_par.split("\n\n")):
            solo = featurize_document(ptext)
            row = out.iloc[pi]
            for col in ("wordCnt", "sentCnt", "MTLD_wrd", "Wrd_freq_log",
                        "TTR_wrd", "LiNT_score1"):
                v, w = row[col], solo[col]
                assert (isinstance(v, float) and math.isnan(v)
                        and math.isnan(w)) or v == w, (col, v, w)
        # and the doc-level fold differs from per-paragraph (overlap
        # buffers reset but unique maps span paragraphs)
        doc = featurize_document(two_par)
        assert doc["parCnt"] == 2
        assert doc["wordCnt"] == int(out["wordCnt"].sum())

"""Regression tests for the ops-layer review findings (round 2)."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd


class TestQuantileNulls:
    def test_nulls_ignored(self):
        import duckdb

        from tscan_ray.ops.quantile import quantiles_disc

        rng = np.random.default_rng(9)
        v = rng.random(1000) * 10
        v[rng.random(1000) < 0.1] = np.nan
        df = pd.DataFrame({"v": v})
        out = quantiles_disc(rd.from_pandas(df).repartition(8), "v",
                             [0.5, 0.95])
        got = dict(zip(out.column("q").to_pylist(),
                       out.column("v").to_pylist()))
        for q in (0.5, 0.95):
            want = duckdb.sql(
                f"select quantile_disc(v, {q}) from df").fetchone()[0]
            assert got[q] == want, (q, got[q], want)


class TestRankTableClamp:
    def test_k_beyond_last_band(self):
        from tscan_ray.ops.textops import frequency_rank_table

        docs = rd.from_pandas(pd.DataFrame(
            {"text": ["a b c d e f g h i j"] * 3}))
        out = frequency_rank_table(docs, "text", k=50,
                                   bands=(2, 4)).to_pandas()
        assert (out[out["rnk"] > 4]["band"] == 4).all()


class TestRobustStatsTz:
    def test_tz_aware_ts(self):
        from tscan_ray.ops.agg import groupby_stats_robust

        ts = pd.to_datetime(["2024-01-01", "2024-01-02", "2024-01-03"],
                            utc=True)
        df = pd.DataFrame({"k": [1, 1, 1], "v": [1.0, 2.0, 4.0], "ts": ts})
        out = groupby_stats_robust(rd.from_pandas(df), "k", "v",
                                   ts_col="ts").to_pandas()
        assert len(out) == 1
        assert out["med_value"].iloc[0] == 2.0
        assert 0.9 < out["corr_ts"].iloc[0] <= 1.0


class TestAnnEmptyBlocks:
    def test_topk_with_empty_filtered_blocks(self):
        from tscan_ray.ops.ann import topk_cosine

        rng = np.random.default_rng(2)
        emb = [list(map(float, rng.random(8))) for _ in range(40)]
        df = pd.DataFrame({"vec_id": range(40), "embedding": emb})
        # many tiny blocks -> some become empty through upstream filters
        ds = rd.from_pandas(df).repartition(16).filter(
            expr="vec_id < 5")
        out = topk_cosine(ds, np.asarray(emb[0]), k=3).to_pandas()
        assert len(out) == 3
        assert out["cosine"].iloc[0] == 1.0  # self-match first

    def test_tie_break_stable_across_partitioning(self):
        from tscan_ray.ops.ann import topk_cosine

        # 12 identical vectors: every cosine ties; top-5 must be the 5
        # smallest ids regardless of block layout
        df = pd.DataFrame({"vec_id": range(12),
                           "embedding": [[1.0, 0.0]] * 12})
        for parts in (1, 7):
            out = topk_cosine(rd.from_pandas(df).repartition(parts),
                              np.array([1.0, 0.0]), k=5).to_pandas()
            assert sorted(out["vec_id"]) == [0, 1, 2, 3, 4], parts


class TestTextLayerFixes:
    def test_normalize_matches_reference_line_loop(self):
        from tscan_ray.text.tokenize import normalize_text

        # ### truncates (prefix survives), per reference substr(0, match)
        assert normalize_text("keep ### drop") == "keep "
        # >>> at line start closes the block; its line and the block drop
        out = normalize_text("before\n<<<\nhidden\n>>> trailing\nafter")
        assert out == "before\nafter"
        # unmatched close is lenient (engine divergence, documented)
        assert "text" in normalize_text(">>> x\ntext")

    def test_closing_quote_absorbed_into_sentence(self):
        from tscan_ray.text.tokenize import split_sentences, tokenize

        s = split_sentences(tokenize('Hij zei "stop." De man liep weg.'))
        assert len(s) == 2
        assert s[0][-1] == '"'
        assert s[1][0] == "De"

    def test_separable_verb_full_lemma(self):
        from tscan_ray.config import DEFAULT_CONFIG
        from tscan_ray.text.features import analyze_sentence
        from tscan_ray.text.lexicons import default_lexicons

        lex = default_lexicons()
        with_part = analyze_sentence("de man liep snel weg .".split(),
                                     None, lex, DEFAULT_CONFIG)
        verb = next(a for a in with_part.words if a.tag == "WW")
        assert verb.full_lemma == "weglopen"
        assert verb.sem_type == lex.verb_sem["weglopen"]
        without = analyze_sentence("de man liep snel .".split(),
                                   None, lex, DEFAULT_CONFIG)
        verb2 = next(a for a in without.words if a.tag == "WW")
        assert verb2.full_lemma == ""

    def test_memo_isolated_across_custom_bundles(self):
        from tscan_ray.config import DEFAULT_CONFIG
        from tscan_ray.stages.featurizer import with_custom_wordlist
        from tscan_ray.text.features import analyze_word

        a = with_custom_wordlist(["fiets"], classification="thing")
        ann_a = analyze_word("fiets", False, a)
        b = with_custom_wordlist([], classification="x")
        ann_b = analyze_word("fiets", False, b)
        assert ann_a.my_class == "thing"
        assert ann_b.my_class == ""  # not served from bundle a's cache


class TestDecodeBadId:
    def test_non_numeric_id_marks_not_ok(self):
        import pyarrow as pa
        import ray.data as rd

        from tscan_ray.sources.codecs import encode_image
        from tscan_ray.sources.images import make_pixels
        from tscan_ray.stages.decode import decode_validate

        px = make_pixels(1, 1, 8, 8)
        blob = encode_image(px, "png")
        ds = rd.from_arrow(pa.table({
            "image_id": ["img-final-2"], "bytes": [blob],
            "w": pa.array([8], type=pa.int32()),
            "h": pa.array([8], type=pa.int32()),
            "fmt": ["png"], "caption": ["x"],
        }))
        out = decode_validate(ds).to_pandas()
        # falls back to the re-encode round-trip check, no crash
        assert len(out) == 1
        assert bool(out["decode_ok"].iloc[0])


class TestManifestResumeGuard:
    def test_mismatched_bucketing_raises(self, tmp_path):
        import pandas as pd
        import pytest
        import ray.data as rd

        from tscan_ray.ops.keyed import task_exchange
        from tscan_ray.state.manifest import resumable_write

        df = pd.DataFrame({"k": range(50), "v": range(50)})
        out = str(tmp_path / "out")
        exchanged = task_exchange(rd.from_pandas(df), "k", lambda t: t, 8,
                                  batch_format="pyarrow")
        resumable_write(exchanged, out, "k", num_buckets=8)
        with pytest.raises(ValueError, match="resume mismatch"):
            resumable_write(rd.from_pandas(df), out, "k", num_buckets=4)
        with pytest.raises(ValueError, match="resume mismatch"):
            resumable_write(rd.from_pandas(df), out, "v", num_buckets=8)


class TestRound2AdviceFixes:
    """Regression tests for the round-1 VERDICT/ADVICE findings."""

    def test_round_half_away_matches_duckdb(self):
        import duckdb
        import numpy as np

        from tscan_ray.ops.rounding import round_half_away

        vals = [42.4653125, -42.4653125, 0.0078125, 1.5e-6, -2.5e-6, 0.0,
                float("nan"), 123.9999995]
        got = round_half_away(np.array(vals), 6)
        want = [duckdb.sql(f"select round({v!r}::double, 6)").fetchone()[0]
                if v == v else float("nan") for v in vals]
        for g, w in zip(got, want):
            assert (g != g and w != w) or g == w, (g, w)

    def test_asof_gather_uint64_right_value(self):
        """ADVICE: unsigned right-value columns crashed _gather via
        'Uint64' (unregistered pandas dtype)."""
        import numpy as np
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd

        from tscan_ray.ops.asof import asof_join

        big = np.uint64(2**63 + 7)  # > int64 max, > 2^53
        left = rd.from_arrow(pa.table({
            "k": [1, 1, 2], "ts": [10, 20, 10], "lid": [1, 2, 3]}))
        right = rd.from_arrow(pa.table({
            "k": pa.array([1, 2], type=pa.int64()),
            "ts": pa.array([5, 50], type=pa.int64()),
            "pay": pa.array([big, big + np.uint64(1)], type=pa.uint64())}))
        out = asof_join(left, right, key="k", ts="ts",
                        right_value_cols=["pay"], how="left").to_pandas()
        out = out.sort_values("lid")
        assert int(out["pay_r"].iloc[0]) == int(big)
        assert pd.isna(out["pay_r"].iloc[2])  # k=2: right ts=50 > 10

    def test_expanding_agg_null_value_rows(self):
        """ADVICE: SQL running sum/min/max at a null-value row = aggregate
        of prior non-nulls, not NaN."""
        import numpy as np
        import pandas as pd
        import ray.data as rd

        from tscan_ray.ops.window import expanding_agg

        df = pd.DataFrame({
            "k": [1] * 5, "ts": [1, 2, 3, 4, 5], "oid": [1, 2, 3, 4, 5],
            "v": [np.nan, 2.0, np.nan, 4.0, np.nan]})
        out = expanding_agg(rd.from_pandas(df), "k", "ts", "v",
                            order_col="oid").to_pandas().sort_values("oid")
        assert out["v_cnt"].tolist() == [0, 1, 1, 2, 2]
        assert pd.isna(out["v_csum"].iloc[0])  # no prior non-null
        assert out["v_csum"].iloc[2] == 2.0    # null row keeps running sum
        assert out["v_cmin"].iloc[4] == 2.0
        assert out["v_cmax"].iloc[4] == 4.0

    def test_pivot_counts_keeps_null_key_group(self):
        import pandas as pd
        import ray.data as rd

        from tscan_ray.ops.agg import pivot_counts

        df = pd.DataFrame({"k": [1.0, 1.0, None, None],
                           "t": ["a", "b", "a", "a"]})
        out = pivot_counts(rd.from_pandas(df), "k", "t", ["a", "b"]).to_pandas()
        assert len(out) == 2  # null-key group survives
        nul = out[out["k"].isna()]
        assert int(nul["n_a"].iloc[0]) == 2

    def test_broadcast_join_size_guard(self):
        import pandas as pd
        import pytest
        import ray.data as rd

        from tscan_ray.ops import join as join_mod

        left = rd.from_pandas(pd.DataFrame({"k": [1], "x": [1]}))
        big = pd.DataFrame({"k": [1], "y": [1]})
        orig = pd.DataFrame.memory_usage

        def fake_mem(self, *a, **kw):
            s = orig(self, *a, **kw)
            return s * (1 << 32)

        pd.DataFrame.memory_usage = fake_mem
        try:
            with pytest.raises(ValueError, match="broadcast side"):
                join_mod.broadcast_join(left, big, on="k", right_cols=["y"])
        finally:
            pd.DataFrame.memory_usage = orig


class TestRound3AdviceFixes:
    def test_paragraphs_honor_skip_groups(self):
        """r3 advice: ParagraphExploder must use feature_names(cfg) so
        skip_groups doesn't KeyError on the skipped columns."""
        import pyarrow as pa
        import ray.data as rd

        from tscan_ray.config import EngineConfig
        from tscan_ray.stages.paragraphs import explode_paragraphs

        cfg = EngineConfig(skip_groups=("surprisal",))
        ds = rd.from_arrow(pa.table({
            "doc_id": pa.array([1], type=pa.int64()),
            "text": ["de kat slaapt .\n\nde hond blaft ."]}))
        out = explode_paragraphs(ds, "text", ["doc_id"], cfg=cfg).to_pandas()
        assert len(out) == 2
        assert "Log_prob_fwd" not in out.columns
        assert "Wrd_per_zin" in out.columns

    def test_minhash_repeated_doc_id_no_self_pair(self):
        """r3 advice: a repeated doc_id in the corpus must not emit a
        self-pair (id_a == id_b)."""
        import pandas as pd

        from tscan_ray.ops.dedup import minhash_lsh_pairs

        base = ("the quick brown fox jumps over the lazy dog while the cat "
                "watches from the warm stone wall near the old garden gate")
        rows = pd.DataFrame({"doc_id": [7, 7, 9],
                             "text": [base, base, base]})
        pairs = minhash_lsh_pairs(rd.from_pandas(rows), "text", "doc_id",
                                  jaccard_threshold=0.5).to_pandas()
        assert (pairs["id_a"] < pairs["id_b"]).all()
        assert set(zip(pairs["id_a"], pairs["id_b"])) == {(7, 9)}

    def test_broadcast_guard_counts_string_bytes(self):
        """r3 advice: the 2 GiB broadcast guard must count string payload
        (deep=True), not 8-byte object pointers."""
        import pandas as pd
        import pytest

        from tscan_ray.ops.join import broadcast_join

        # ~3 GiB of string payload in only 300 rows — deep=False sees ~2 KB
        big = pd.DataFrame({"k": range(300), "s": ["x" * (11 << 20)] * 300})
        left = rd.from_pandas(pd.DataFrame({"k": [1, 2]}))
        with pytest.raises(ValueError, match="broadcast side"):
            broadcast_join(left, big, on="k", right_cols=["s"])

    def test_word_table_uses_fitted_lm(self):
        """r3 advice: explode_words must forward lm_ref so word-level
        logprobs come from the corpus-fitted LM."""
        import pyarrow as pa
        import ray
        import ray.data as rd

        from tscan_ray.stages.words import explode_words
        from tscan_ray.text.surprisal import fit_bigram_lm

        docs = pa.table({
            "doc_id": pa.array([1, 2], type=pa.int64()),
            "text": ["de kat slaapt .", "de kat slaapt ."]})
        lm = fit_bigram_lm(rd.from_arrow(docs), "text")
        lm_ref = ray.put(lm)
        out = explode_words(rd.from_arrow(docs), "text", ["doc_id"],
                            lm_ref=lm_ref).to_pandas()
        kat = out[out["word"] == "kat"].iloc[0]
        assert kat["lprob_fwd"] == lm.logprob10("kat", "de")


class TestBroadcastJoinRightCols:
    """``broadcast_join`` projects a pandas right side to ``right_cols``
    exactly as it projects a Dataset."""

    RIGHT = {"k": [1, 2, 2], "v": [10, 20, 21], "x": [7, 8, 9],
             "extra": ["a", "b", "c"]}

    def _join(self, right, how, right_cols=("v",)):
        from tscan_ray.ops.join import broadcast_join

        left = rd.from_pandas(pd.DataFrame({"k": [1, 2, 3], "x": [1, 2, 3]}))
        out = broadcast_join(left, right, on="k", how=how,
                             right_cols=list(right_cols)).to_pandas()
        return out.sort_values(list(out.columns)).reset_index(drop=True)

    @pytest.mark.parametrize("how", ["inner", "left"])
    def test_pandas_right_attaches_only_right_cols(self, how):
        got = self._join(pd.DataFrame(self.RIGHT), how)
        assert list(got.columns) == ["k", "x", "v"]  # no x_x / x_y, no extra
        want = self._join(rd.from_pandas(pd.DataFrame(self.RIGHT)), how)
        pd.testing.assert_frame_equal(got, want)

    @pytest.mark.parametrize("how", ["semi", "anti"])
    def test_pandas_right_broadcasts_only_the_key(self, how, monkeypatch):
        from types import SimpleNamespace

        import ray

        from tscan_ray.ops import join as join_mod

        put = []  # what broadcast_join puts in the object store
        monkeypatch.setattr(join_mod, "ray", SimpleNamespace(
            put=lambda obj: put.append(obj) or ray.put(obj)))
        got = self._join(pd.DataFrame(self.RIGHT), how)
        assert [list(p.columns) for p in put] == [["k"]]
        assert list(got.columns) == ["k", "x"]
        assert got["k"].tolist() == ([1, 2] if how == "semi" else [3])

"""Surprisal LM (W26/T13): bigram lookup LM, sentence stats, distributed fit.

Reference semantics mirrored: per-word logprob10 fwd/bwd
(src/tscan.cxx:2272-2275), sentence avg_prob10/entropy/perplexity and
the len / len² normalizations (src/tscan.cxx:2843-2864).
"""

import math

import pytest

from tscan_ray.text.features import featurize_document
from tscan_ray.text.surprisal import (
    BigramLM,
    default_lm,
    fit_bigram_lm,
    sentence_stats,
)

LOG10_2 = math.log10(2.0)


class TestBigramLM:
    def test_unigram_backoff(self):
        lm = BigramLM.from_unigrams({"a": 3, "b": 1})
        # P(a) = (3+1)/(4+2), no context
        assert lm.logprob10("a", None) == pytest.approx(math.log10(4 / 6))
        # unseen word
        assert lm.logprob10("z", None) == pytest.approx(math.log10(1 / 6))
        # context given but no bigram table -> backoff
        assert lm.logprob10("a", "b") == pytest.approx(math.log10(4 / 6))

    def test_bigram_conditional(self):
        lm = BigramLM(unigrams={"the": 10, "cat": 4}, bigrams={("the", "cat"): 3},
                      total=14, vocab_size=2)
        # P(cat|the) = (3+1)/(10+2)
        assert lm.logprob10("cat", "the") == pytest.approx(math.log10(4 / 12))
        # unseen bigram: (0+1)/(4+2)
        assert lm.logprob10("the", "cat") == pytest.approx(math.log10(1 / 6))
        # backward: P(the|next=cat) = (c(the,cat)+1)/(c(cat)+V)
        assert lm.logprob10_bwd("the", "cat") == pytest.approx(math.log10(4 / 6))

    def test_sentence_stats(self):
        lp = [-1.0, -2.0, -3.0]
        st = sentence_stats(lp)
        assert st["avg_prob10"] == pytest.approx(-2.0)
        assert st["entropy"] == pytest.approx(2.0 / LOG10_2)
        assert st["perplexity"] == pytest.approx(2 ** (2.0 / LOG10_2))
        assert st["entropy_norm"] == pytest.approx(st["entropy"] / 3)
        assert st["perplexity_norm"] == pytest.approx(st["perplexity"] / 9)
        empty = sentence_stats([])
        assert math.isnan(empty["avg_prob10"])


class TestDocIntegration:
    def test_doc_features_present_and_finite(self):
        out = featurize_document("De man ziet de kat . De kat is groot .")
        for k in ("Log_prob_fwd", "Log_prob_bwd", "Entropie_fwd",
                  "Perplexiteit_bwd", "Entropie_fwd_norm", "Perplexiteit_fwd_norm",
                  "Log_prob_fwd_inhwrd", "Log_prob_bwd_zn"):
            assert k in out
            assert not math.isnan(out[k]), k
        # logprobs are negative
        assert out["Log_prob_fwd"] < 0
        assert out["Entropie_fwd"] > 0
        assert out["Perplexiteit_fwd"] > 1

    def test_doc_mean_over_sentences(self):
        lm = default_lm()
        one = featurize_document("De man ziet de kat .", lm=lm)
        # single sentence: doc avg == sentence avg; two identical sentences
        # give the same per-sentence mean
        two = featurize_document("De man ziet de kat . De man ziet de kat .", lm=lm)
        assert two["Log_prob_fwd"] == pytest.approx(one["Log_prob_fwd"])

    def test_empty_doc_nan(self):
        out = featurize_document("")
        assert math.isnan(out["Log_prob_fwd"])


class TestDistributedFit:
    def test_fit_bigram_lm(self, ray_session):
        import ray.data as rd

        docs = rd.from_items([
            {"text": "the cat sat . the cat ran ."},
            {"text": "the dog sat ."},
        ])
        lm = fit_bigram_lm(docs, "text")
        assert lm.unigrams["the"] == 3
        assert lm.unigrams["cat"] == 2
        assert lm.bigrams[("the", "cat")] == 2
        assert lm.bigrams[("cat", "sat")] == 1
        # fitted conditional beats unigram backoff for a frequent pair
        assert lm.logprob10("cat", "the") > lm.logprob10("cat", None)


class TestOovMissingSentinel:
    """Wopr's -99 "cannot score" path (reference src/tscan.cxx:2272-2275):
    an OOV word scores NaN and the NaN poisons every enclosing aggregate
    (unguarded += at sentence src/tscan.cxx:2337-2356 and document
    src/structstats.cxx:1491-1507 level)."""

    def _lm(self, oov_missing=True):
        from tscan_ray.text.surprisal import BigramLM

        lm = BigramLM.from_unigrams({"de": 10, "man": 5, "ziet": 3, "kat": 2})
        lm.oov_missing = oov_missing
        return lm

    def test_oov_word_scores_nan(self):
        lm = self._lm()
        assert math.isnan(lm.logprob10("zeppelin", "de"))
        assert math.isnan(lm.logprob10_bwd("zeppelin", "de"))
        assert lm.logprob10("man", "de") < 0  # known word still answers

    def test_default_mode_always_answers(self):
        lm = self._lm(oov_missing=False)
        assert lm.logprob10("zeppelin", "de") < 0

    def test_nan_poisons_doc_aggregates(self):
        # "groot" is OOV for this tiny LM -> second sentence unscoreable
        # -> doc-level Wopr columns all NA, count columns unaffected
        lm = self._lm()
        out = featurize_document("De man ziet de kat . De kat is groot .", lm=lm)
        for k in ("Log_prob_fwd", "Log_prob_bwd", "Entropie_fwd",
                  "Perplexiteit_bwd", "Log_prob_fwd_inhwrd"):
            assert math.isnan(out[k]), k
        assert out["Wrd_per_zin"] > 0  # non-Wopr features still computed

    def test_all_scored_doc_stays_finite(self):
        lm = self._lm()
        out = featurize_document("De man ziet de kat .", lm=lm)
        assert not math.isnan(out["Log_prob_fwd"])
        assert out["Log_prob_fwd"] < 0

    def test_word_table_lprob_columns(self, ray_session):
        import ray.data as rd

        from tscan_ray.stages.words import explode_words

        ds = rd.from_items([{"doc_id": 1, "text": "De man ziet de kat ."}])
        tbl = explode_words(ds, "text", ["doc_id"]).to_pandas()
        assert {"lprob_fwd", "lprob_bwd"} <= set(tbl.columns)
        words = tbl[tbl["prop"] != "ISLET"]
        assert (words["lprob_fwd"] < 0).all()
        # punctuation rows carry the NaN ("NA") sentinel like the
        # reference word CSV (src/wordstats.cxx:668-676)
        puncts = tbl[tbl["prop"] == "ISLET"]
        assert puncts["lprob_fwd"].isna().all()


class TestDocSurprisalScorer:
    """The dedicated LM-only scorer must be exactly equal to the full
    featurizer path on the 6 doc-level Wopr columns (it replaces the
    739-column detour in q_text_surprisal)."""

    CASES = [
        "De man ziet de kat . De kat ziet de man .",
        "",                       # empty doc -> all NA
        ". . .",                  # punctuation-only sentence -> poison
        "Eén zin zonder eindpunt",
        "De hond blaft !\n\nDe kat miauwt ? Ja .",   # two paragraphs
        "Woord",                  # single word, no bigram context
        "De grote RODE auto rijdt snel , maar de kleine auto niet .",
    ]

    @pytest.mark.parametrize("oov", [False, True])
    def test_matches_featurizer(self, oov):
        from tscan_ray.text.surprisal import SURPRISAL_COLUMNS, doc_surprisal

        lm = BigramLM(
            unigrams={"de": 30, "man": 5, "kat": 5, "ziet": 4, "hond": 3,
                      "blaft": 1, "miauwt": 1, "ja": 2, "auto": 4,
                      "grote": 2, "rode": 1, "rijdt": 1, "snel": 1,
                      "maar": 3, "kleine": 1, "niet": 4},
            bigrams={("de", "man"): 3, ("de", "kat"): 3, ("man", "ziet"): 2},
            total=68, vocab_size=16, oov_missing=oov)
        for text in self.CASES:
            full = featurize_document(text, lm=lm)
            fast = doc_surprisal(text, lm)
            for col in SURPRISAL_COLUMNS:
                a, b = full[col], fast[col]
                assert (math.isnan(a) and math.isnan(b)) or a == b, \
                    (text, col, a, b)

    def test_dataset_stage(self, ray_session):
        import ray
        import ray.data as rd

        from tscan_ray.text.surprisal import score_surprisal

        lm = default_lm()
        ds = rd.from_items([
            {"doc_id": i, "text": t} for i, t in enumerate(self.CASES)
        ])
        out = score_surprisal(ds, "text", lm_ref=ray.put(lm),
                              keep_columns=["doc_id"])
        df = out.to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert len(df) == len(self.CASES)
        for i, text in enumerate(self.CASES):
            full = featurize_document(text, lm=lm)
            for col in ("Log_prob_fwd", "Perplexiteit_bwd"):
                a, b = full[col], df.loc[i, col]
                assert (math.isnan(a) and math.isnan(b)) or a == pytest.approx(b)

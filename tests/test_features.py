"""Featurizer conformance tests: hand-checked documents against the
reference semantics (SURVEY.md §2.2-2.4; golden values derived by hand
from the cited formulas)."""

import math

import pytest

from tscan_ray.config import DEFAULT_CONFIG
from tscan_ray.text.features import analyze_word, feature_names, featurize_document
from tscan_ray.text.lexicons import default_lexicons
from tscan_ray.text.tokenize import segment, split_sentences, tokenize


LEX = default_lexicons()


class TestTokenize:
    def test_tokens_and_punct(self):
        assert tokenize("De kat loopt.") == ["De", "kat", "loopt", "."]

    def test_sentence_split(self):
        s = split_sentences(tokenize("De kat loopt. De man ziet!"))
        assert len(s) == 2
        assert s[0][-1] == "."

    def test_paragraphs(self):
        paras = segment("De kat loopt.\n\nDe man ziet.")
        assert len(paras) == 2

    def test_no_terminal_punct_is_one_sentence(self):
        assert len(split_sentences(tokenize("de kat loopt"))) == 1


class TestAnalyzeWord:
    def test_punct(self):
        assert analyze_word(".", False, LEX).prop == "ISLET"

    def test_known_noun(self):
        a = analyze_word("katten", False, LEX)
        assert a.tag == "N" and a.lemma == "kat" and a.morph_cnt == 2

    def test_name_detection_mid_sentence(self):
        a = analyze_word("Jan", False, LEX)
        assert a.prop == "ISNAME" and a.ner == "PER" and a.is_pers_ref

    def test_sentence_initial_known_word_not_name(self):
        a = analyze_word("De", True, LEX)
        assert a.tag == "LID" and a.prop != "ISNAME"

    def test_verb_tense(self):
        assert analyze_word("loopt", False, LEX).prop == "ISPVTGW"
        assert analyze_word("liep", False, LEX).prop == "ISPVVERL"
        assert analyze_word("gelopen", False, LEX).prop == "ISVD"

    def test_pronoun_person(self):
        assert analyze_word("ik", False, LEX).prop == "ISPPRON1"
        assert analyze_word("jij", False, LEX).prop == "ISPPRON2"
        assert analyze_word("hij", False, LEX).prop == "ISPPRON3"
        # men is excluded from pronoun props (src/wordstats.cxx:216-219)
        assert analyze_word("men", False, LEX).prop == ""

    def test_negation(self):
        assert analyze_word("niet", False, LEX).is_prop_neg
        assert analyze_word("onmogelijk", False, LEX).is_morph_neg
        assert not analyze_word("kat", False, LEX).is_prop_neg

    def test_content_words(self):
        assert analyze_word("kat", False, LEX).is_content
        assert analyze_word("loopt", False, LEX).is_content  # HEAD_VERB
        assert not analyze_word("is", False, LEX).is_content  # COPULA
        # adverbs: broad content yes, strict only MANNER
        snel = analyze_word("samen", False, LEX)
        assert snel.is_content and snel.is_content_strict
        mss = analyze_word("misschien", False, LEX)
        assert mss.is_content and not mss.is_content_strict

    def test_nominalization(self):
        assert analyze_word("werking", False, LEX).is_nominal
        assert not analyze_word("kat", False, LEX).is_nominal
        # tail rule for unanalyzed words: 'organisatie' ends in 'tie'
        assert analyze_word("relatie", False, LEX).is_nominal

    def test_freq_log_matches_kernel(self):
        from tscan_ray.text.kernels import freq_log

        a = analyze_word("kat", False, LEX)
        assert a.word_freq_log == pytest.approx(
            freq_log(LEX.word_freq["kat"], LEX.word_total)
        )


class TestFeaturizeDocument:
    def test_simple_counts(self):
        f = featurize_document("De kat loopt .")
        # default stoplist is EMPTY (reference fill_stop_lemmata is
        # config-only; tests/numstring.example.ok word_count counts 'de');
        # letCnt counts '.'
        assert f["wordCnt"] == 3
        assert f["letCnt"] == 1
        assert f["stoplistCnt"] == 0
        assert f["wordInclCnt"] == 3
        assert f["sentCnt"] == 1
        assert f["Wrd_per_zin"] == 3.0  # wordInclCnt/sentCnt (ref formula)

    def test_explicit_stoplist(self):
        # W15: a CONFIGURED stoplist (isOnStopList src/tscan.cxx:1586)
        # diverts matches to stoplistCnt / the Incl counters only
        from tscan_ray.text.features import analyze_sentence
        from tscan_ray.text.lexicons import build_default_lexicons

        lex = build_default_lexicons()  # fresh bundle: never mutate the
        lex.stop_lemmata.add("de")      # process-cached default
        fold = analyze_sentence("De kat loopt .".split(), None, lex,
                                DEFAULT_CONFIG)
        assert fold.c["wordCnt"] == 2
        assert fold.c["stoplistCnt"] == 1

    def test_char_morph_proportions(self):
        f = featurize_document("kat loopt")
        # chars: kat=3, loopt=5 -> 8/2
        assert f["Let_per_wrd"] == pytest.approx(4.0)

    def test_ttr_and_mtld(self):
        f = featurize_document("kat kat kat kat")
        assert f["TTR_wrd"] == pytest.approx(0.25)
        assert f["MTLD_wrd"] == pytest.approx(2.0)  # same as kernel hand-calc

    def test_question(self):
        assert featurize_document("Loopt de kat ?")["questCnt"] == 1
        assert featurize_document("De kat loopt .")["questCnt"] == 0

    def test_multi_negation(self):
        f = featurize_document("De kat loopt niet zonder reden .")
        assert f["propNegCnt"] == 2
        assert f["multiNegCnt"] == 1

    def test_connectives(self):
        f = featurize_document("De kat loopt omdat de man ziet .")
        assert f["causeConnCnt"] == 1

    def test_multiword_connective(self):
        f = featurize_document("Ten slotte loopt de kat .")
        assert f["opsomZinConnCnt"] == 1

    def test_prev_sentence_overlap(self):
        # 'kat' (noun, overlap candidate) repeats in the next sentence
        f = featurize_document("De kat loopt . De kat ziet .")
        assert f["wordOverlapCnt"] == 1
        assert f["lemmaOverlapCnt"] == 1
        # pronoun equivalence across sentences: ik ... mijn
        f2 = featurize_document("Ik loopt . Mijn kat ziet .")
        assert f2["wordOverlapCnt"] >= 1

    def test_overlap_resets_across_paragraphs(self):
        cont = featurize_document("De kat loopt . De kat ziet .")
        split = featurize_document("De kat loopt .\n\nDe kat ziet .")
        assert cont["wordOverlapCnt"] == 1
        assert split["wordOverlapCnt"] == 0

    def test_doc_overlap_requires_window(self):
        # fewer than overlap_size words -> 0 by construction
        f = featurize_document("De kat loopt .")
        assert f["Wrd_overlap_doc"] == 0
        # 60 identical words -> overlaps counted after the 50-word buffer fills
        text = " ".join(["kat"] * 60)
        f2 = featurize_document(text)
        assert f2["Wrd_overlap_doc"] == 10

    def test_freq_rollup_mean_of_sums(self):
        # doc-level Wrd_freq_log = sum(word_freq_log over content)/contentCnt
        from tscan_ray.text.kernels import freq_log

        f = featurize_document("kat loopt")
        expected = (
            freq_log(LEX.word_freq["kat"], LEX.word_total)
            + freq_log(LEX.word_freq["loopt"], LEX.word_total)
        ) / 2
        assert f["Wrd_freq_log"] == pytest.approx(expected)

    def test_empty_document(self):
        f = featurize_document("")
        assert f["wordCnt"] == 0
        assert math.isnan(f["Wrd_per_zin"])
        assert f["MTLD_wrd"] == 0.0

    def test_schema_stable(self):
        names = feature_names()
        f1 = featurize_document("De kat .")
        f2 = featurize_document("")
        assert list(f1.keys()) == names == list(f2.keys())

    def test_rarity(self):
        # 1 rare lemma out of 2 unique (kat appears 5x, loopt 1x; level=4)
        text = "kat kat kat kat kat loopt"
        f = featurize_document(text)
        assert f["Zeldz_index"] == pytest.approx(0.5)

    def test_intensifier_and_formal(self):
        f = featurize_document("De kat is heel erg groot .")
        assert f["intensCnt"] >= 2
        f2 = featurize_document("De kat loopt reeds .")
        assert f2["formalCnt"] == 1

    def test_bvbw_modifier_demotion(self):
        # checkIntensify BVBW special case (src/tscan.cxx:1483-1485 +
        # checkModifier src/Alpino.cxx:968-984): BVBW counts only as a
        # modifier of an AP/participle/infinitive or a mod under a
        # finite clause — a copula predicate ("dat is erg") does not.
        kept = featurize_document("Dat is erg mooi .")
        assert kept["intensBvbwCnt"] == 1
        demoted = featurize_document("Dat is erg .")
        assert demoted["intensBvbwCnt"] == 0 and demoted["intensCnt"] == 0
        free_mod = featurize_document("De man gaat enorm .")
        assert free_mod["intensBvbwCnt"] == 1

    def test_nominal_infinitive_under_np(self):
        # checkNominal verb-under-NP (src/wordstats.cxx:121-138):
        # determiner + infinitive = nominalization ("het lopen")
        f = featurize_document("Het lopen is leuk .")
        assert f["nominalCnt"] == 1
        f2 = featurize_document("Wij lopen naar huis .")
        assert f2["nominalCnt"] == 0

    def test_prep_expr(self):
        f = featurize_document("De kat loopt op grond van de reden .")
        assert f["prepExprCnt"] == 1


class TestReferenceSections:
    """Conformance for the r02 derived-column families (reference emit
    bodies src/structstats.cxx:123-1049) — hand-computed on curated
    lexicon entries."""

    def test_noun_sem_subtype_counts(self):
        from tscan_ray.text.features import featurize_document

        # man=human kat=nonhuman skateboard=artefact (published golden
        # lexicon: huis AND stad are both place) politie=institut
        # brood=voed_verz water=substance_conc feest=dynamic_conc
        f = featurize_document(
            "de man ziet de kat . het skateboard staat in de stad . "
            "de politie eet brood met water op het feest .")
        assert f["humanCnt"] == 1 and f["nonHumanCnt"] == 1
        assert f["artefactCnt"] == 1 and f["placeCnt"] == 1
        assert f["institutCnt"] == 1 and f["foodcareCnt"] == 1
        assert f["substanceConcCnt"] == 1 and f["dynamicConcCnt"] == 1
        # strict: human+nonhuman+artefact+voed_verz+substance_conc+dynamic_conc
        assert f["strictNounCnt"] == 6
        # broad adds place (stad); institut is NOT broad (src/sem.cxx:292-309)
        assert f["broadNounCnt"] == 7
        covered = f["nounCnt"] + f["nameCnt"] - f["uncoveredNounCnt"]
        import math
        assert math.isclose(f["Conc_nw_strikt_p"], 6 / covered)
        assert math.isclose(f["Pers_nw_d"], 1000.0 * 1 / f["wordCnt"])

    def test_verb_atp_families(self):
        from tscan_ray.text.features import WordAnn, _word_sem_counts
        from collections import Counter

        c = Counter()
        for sem, tag in (("abstract_action", "WW"), ("concrete_state", "WW"),
                         ("undefined_process", "WW"), ("undefined", "WW"),
                         ("abstract_undefined", "WW"), ("UNFOUND_VERB", "WW")):
            _word_sem_counts(c, WordAnn("w", "w", "w", tag, sem_type=sem))
        assert c["abstractWwCnt"] == 2   # abstract_action + abstract_undefined
        assert c["concreteWwCnt"] == 1
        assert c["undefinedWwCnt"] == 2  # undefined_process + undefined
        assert c["actionCnt"] == 1 and c["stateCnt"] == 1 and c["processCnt"] == 1
        assert c["undefinedATPCnt"] == 1  # only bare "undefined"
        assert c["uncoveredVerbCnt"] == 1

    def test_adj_aggregates(self):
        from tscan_ray.text.features import WordAnn, _word_sem_counts
        from collections import Counter

        c = Counter()
        for sem in ("shape", "color", "human", "time", "spec_pos",
                    "evaluative", "abstract", "undefined"):
            _word_sem_counts(c, WordAnn("w", "w", "w", "ADJ", sem_type=sem))
        assert c["nonhumanAdjCnt"] == 2      # shape + color
        assert c["strictAdjCnt"] == 3        # shape + color + human
        assert c["broadAdjCnt"] == 4         # + time
        assert c["subjectiveAdjCnt"] == 2    # spec_pos + evaluative
        assert c["undefinedAdjCnt"] == 1 and c["abstractAdjCnt"] == 1

    def test_intens_formal_afk_classes(self):
        from tscan_ray.text.features import featurize_document

        # erg=BVBW intensifier; tevens=BW formal; bv=Juridisch in the
        # published afkortingen.lst (the legal entity), tv=media seed
        f = featurize_document("de man is erg blij . tevens komt de bv en de tv .")
        assert f["intensBvbwCnt"] == 1 and f["intensCnt"] >= 1
        assert f["formalBwCnt"] == 1
        assert f["afk_juridischCnt"] == 1 and f["afk_mediaCnt"] == 1
        import math
        wic = f["wordInclCnt"]
        assert math.isclose(f["Int_bvbw_d"], 1000.0 / wic)
        assert math.isclose(f["Afk_med_d"], 1000.0 / wic)

    def test_compound_section(self):
        from tscan_ray.text.features import analyze_word
        from tscan_ray.text.lexicons import default_lexicons

        lex = default_lexicons()
        ann = analyze_word("boekenkast", False, lex)
        assert ann.is_compound and ann.compound_parts == 2
        assert ann.char_cnt_head == len("kast")
        assert ann.char_cnt_sat == len("boeken")
        assert ann.word_freq_log_head_sat == (
            ann.word_freq_log_head + ann.word_freq_log_sat) / 2
        assert ann.word_freq_log_corr == ann.word_freq_log_head

        from tscan_ray.text.features import featurize_document

        f = featurize_document("de boekenkast staat daar .")
        assert f["compoundCnt"] == 1
        assert f["Samenst_p"] == 1 / f["nounCnt"]
        assert f["Let_per_wrd_hfdwrd"] == 4.0  # "kast"
        assert f["Let_per_wrd_satwrd"] == 6.0  # "boeken"

    def test_participle_position_counts(self):
        from tscan_ray.text.features import Fold, WordAnn, _common_counts

        f = Fold()
        for prop, pos in (("ISVD", "PRENOM"), ("ISVD", "VRIJ"),
                          ("ISINF", "NOMIN"), ("ISOD", "VRIJ")):
            _common_counts(f, WordAnn("w", "w", "w", "WW", prop=prop,
                                      position=pos))
        assert f.c["vdBvCnt"] == 1 and f.c["vdVrijCnt"] == 1
        assert f.c["infNwCnt"] == 1 and f.c["odVrijCnt"] == 1

    def test_coherence_ttr_excludes_reeks_wg_from_all(self):
        from tscan_ray.text.features import featurize_document

        # "en"=OPSOMMEND_WG (excluded from allConn), "maar"=CONTRASTIEF
        f = featurize_document("jan en piet lopen maar piet valt .")
        assert f["opsomWgConnCnt"] >= 1
        assert f["contrastConnCnt"] == 1
        assert f["allConnCnt"] == f["contrastConnCnt"]  # WG excluded
        assert f["Conn_TTR"] == 1.0

    def test_clause_families_doc(self):
        from tscan_ray.text.features import featurize_document

        # "omdat" = adverbial subordinate; "dat" = complement clause
        f = featurize_document(
            "hij loopt omdat hij werkt . hij ziet dat hij loopt .")
        assert f["bijwCnt"] == 1
        assert f["complCnt"] == 1
        assert f["Bijw_bijzin_per_zin"] == 0.5
        assert f["Compl_bijzin_per_zin"] == 0.5
        assert f["Fin_bijzin_per_zin"] == 1.0

    def test_ner_density_section(self):
        from tscan_ray.text.features import featurize_document
        import math

        f = featurize_document("Jan ziet Amsterdam en Philips .")
        assert f["nerPERCnt"] == 1 and f["nerLOCCnt"] == 1 and f["nerORGCnt"] == 1
        assert math.isclose(f["Pers_namen_d"], 1000.0 / f["wordCnt"])
        assert f["Pers_namen_p"] == 1 / f["nerCnt"]

    def test_parse_failure_na_accounting(self):
        """Alpino_status counts failed parses; their parse features go NA
        (reference src/structstats.cxx:336-370)."""
        import math

        from tscan_ray.config import EngineConfig
        from tscan_ray.text.features import featurize_document

        cfg = EngineConfig(max_sentence_tokens=5)
        long_sent = " ".join(["man"] * 10) + " ."
        ok_sent = "de man loopt ."
        f = featurize_document(long_sent + " " + ok_sent, cfg=cfg)
        assert f["Alpino_status"] == 1
        assert f["parseFailCnt"] == 1
        # the failed sentence contributes no clauses: only the short
        # sentence's smain remains
        assert f["smainCnt"] == 1
        # doc with ONLY a failed parse: parse-derived means collapse to NA
        f2 = featurize_document(long_sent, cfg=cfg)
        assert f2["Alpino_status"] == 1
        assert math.isnan(f2["AL_gem"])
        assert math.isnan(f2["D_level"])
        # default config: the same text parses fine
        f3 = featurize_document(long_sent)
        assert f3["Alpino_status"] == 0


class TestCompoundSplitter:
    """Deterministic splitter fallback for unknown nouns (the reference's
    splitCompound service path, src/tscan.cxx:1355-1393)."""

    def test_split_kernel(self):
        from tscan_ray.text.kernels import split_compound

        v = {"boek", "kast", "deur", "huis", "sleutel"}
        assert split_compound("huisdeur", v) == ("deur", "huis", 2)
        assert split_compound("huisdeursleutel", v) == ("sleutel", "huisdeur", 3)
        # binding element "en"
        assert split_compound("boekenkast", v) == ("kast", "boek", 2)
        assert split_compound("onsplitsbaar", v) is None
        # parts below min length never match
        assert split_compound("boek", v) is None

    def test_unknown_noun_splits_and_inherits_head_sem(self):
        from tscan_ray.text.features import analyze_word
        from tscan_ray.text.lexicons import default_lexicons

        lex = default_lexicons()
        # build a compound of two known nouns that is itself unknown
        nouns = [l for l in lex.noun_sem if len(l) >= 3]
        head, sat = nouns[0], nouns[1]
        lemma = sat + head
        assert lemma not in lex.noun_sem and lemma not in lex.compounds
        # unknown nouns fall back to the lemma==token path -> tag N only if
        # lexicon tags it; analyze a synthetic noun via the lexicon-miss path
        ann = analyze_word(lemma, False, lex)
        assert ann.tag == "N"  # unknown-word fallback tags nounish
        assert ann.is_compound
        assert ann.compound_parts == 2
        assert ann.sem_type == lex.noun_sem[head]

    def test_known_noun_untouched(self):
        from tscan_ray.text.features import analyze_word
        from tscan_ray.text.lexicons import default_lexicons

        lex = default_lexicons()
        known = next(l for l in lex.noun_sem
                     if l not in lex.compounds and len(l) >= 3)
        ann = analyze_word(known, False, lex)
        assert not ann.is_compound or known in lex.compounds


class TestPublishedLexiconLists:
    """The vendored published lists (text/data/, loaders.py) drive the
    connective/situation/adverb/formal/afko classifiers with the
    reference's lookup semantics."""

    def test_connective_types_and_priority(self):
        from tscan_ray.text.lexicons import default_lexicons

        lex = default_lexicons()
        assert lex.conn_type("aangezien", "VG") == "CAUSAAL"
        assert lex.conn_type("aldoor", "BW") == "TEMPOREEL"
        # "aldoor" is in BOTH temporal_connectors.lst and tijd.txt: the
        # connective lookup hits TEMPOREEL first (fixed priority order)
        assert lex.situation_type("aldoor", "BW") == "TIME_SIT"

    def test_tag_restricted_entries(self):
        from tscan_ray.text.lexicons import default_lexicons

        lex = default_lexicons()
        # compar_connectors.lst: "dan<TAB>VG" — only the VG reading
        assert lex.conn_type("dan", "VG") == "COMPARATIEF"
        assert lex.conn_type("dan", "BW") == ""
        # emoties.txt: "glimlach<TAB>N"
        assert lex.situation_type("glimlach", "N") == "EMO_SIT"
        assert lex.situation_type("glimlach", "WW") == ""

    def test_multiword_entries_merged(self):
        from tscan_ray.text.lexicons import default_lexicons

        lex = default_lexicons()
        # opsom_connectors_zin.lst multiword entry
        assert lex.conn_multi.get("in de tweede plaats") == "OPSOMMEND_ZIN"
        assert lex.conn_multi.get("in verband met") == "CAUSAAL"
        # the reference's space-tag quirk ("getuige VZ" has no TAB, so
        # fill_connectors files it as a dead multiword entry) is mirrored
        assert "getuige VZ" in lex.conn_multi
        # voorzetseluitdrukkingen.txt
        assert "bij wijze van" in lex.vzexpr

    def test_formal_and_adverb_tables(self):
        from tscan_ray.text.lexicons import default_lexicons

        lex = default_lexicons()
        # formal.data: "aanbevelen<TAB>werkwoord"
        assert lex.formal.get("aanbevelen") == "WW"
        assert lex.formal_multi.get("aan de hand van") == "VZG"
        # adverbs.data: "andersom<TAB>algemeen<TAB>ambigu"
        assert lex.adverbs.get("andersom") == ("GENERAL", "AMBIGUOUS")
        # "afkorting"-classed formal entries are skipped (INVALID in the
        # reference never reaches a counter)
        assert all(v != "INVALID" for v in lex.formal.values())

    def test_word_level_classification(self):
        from tscan_ray.text.features import featurize_document

        f = featurize_document("De man vertrekt aangezien het laat is .")
        assert f["causeConnCnt"] >= 1


class TestTestdataVocabulary:
    def test_exact_entries_win_over_learned_overrides(self):
        """Every synthetic-testdata word is tagged with its exact lexicon
        entry, alone and in a sentence of the whole vocabulary; a learned
        ``word_overrides.tsv`` row for the same lowercase key (``a`` ->
        SPEC) must not shadow it."""
        from tscan_ray.text.lexicons import _testdata_entries
        from tscan_ray.text.tagger import tag_sentence

        lex = default_lexicons()
        entries = _testdata_entries()
        words = list(entries)
        tagged = [tag_sentence([w], lex)[0] for w in words]
        tagged_in_sentence = tag_sentence(words, lex)
        for w, alone, in_sent in zip(words, tagged, tagged_in_sentence):
            assert alone.info.tag == entries[w].tag, (w, alone.info)
            assert in_sent.info.tag == entries[w].tag, (w, in_sent.info)

    def test_no_override_row_shadows_an_exact_entry(self):
        """Every ``word_overrides.tsv`` row, tagged alone: an exact
        testdata lexicon entry keeps its own tag, and every other row is
        applied as written (tag, lemma, morphemes)."""
        import os

        from tscan_ray.text import tagger
        from tscan_ray.text.lexicons import _testdata_entries
        from tscan_ray.text.tagger import tag_sentence

        lex = default_lexicons()
        entries = _testdata_entries()
        path = os.path.join(os.path.dirname(tagger.__file__), "data",
                            "word_overrides.tsv")
        with open(path, encoding="utf-8") as f:
            rows = [line.rstrip("\n").split("\t") for line in f
                    if line.strip() and not line.startswith("#")]
        assert len(rows) > 300
        for lw, tag, lemma, morphs, _feats in rows:
            info = tag_sentence([lw], lex)[0].info
            if lw in entries:
                assert info.tag == entries[lw].tag, (lw, info)
            else:
                assert (info.tag, info.lemma, info.morphemes) == (
                    tag, lemma, tuple(morphs.split("+"))), (lw, info)

"""Per-document T-scan feature computation (the fused word→sentence→document fold).

A caption/document is ONE row; the reference's 4-level containment
hierarchy (wordStats → sentStats → parStats → docStats, reference
include/tscan/stats.h:30-108) collapses into this pure function executed
inside a ``map_batches`` actor — no shuffle is ever needed for the
linguistic features (SURVEY.md §7.0).

Reference semantics mirrored here (file:line citations inline):

* word analysis  = wordStats ctor        (src/tscan.cxx:1669-1802)
* CGN props      = setCGNProps           (src/wordstats.cxx:144-249)
* common fold    = setCommonCounts       (src/sentstats.cxx:9-238)
* freq rollup    = sentStats/parStats/docStats normalizations
                   (src/tscan.cxx:2829-2864, 3026-3034, 3112-3122)
* prev-sentence overlap buffers          (src/tscan.cxx:2092-2103,
                   src/wordstats.cxx:313-360) — reset per paragraph
                   (parStats ctor src/tscan.cxx:3014-3035 starts prev=0)
* 50-word doc overlap ring buffer        (src/tscan.cxx:3039-3090)
* MTLD families  = calculate_MTLDs       (src/tscan.cxx:1877-1975)
* rarity         = docStats::rarity      (src/docstats.cxx:9-18)
* LiNT           = structStats emit      (src/structstats.cxx:1005-1040)

Deliberate, documented divergences (deterministic self-contained
annotators replace NLP services, SURVEY.md §7.0): POS/lemma/morphemes
come from the packaged lexicon tagger (unknown words default to N/noun);
verb-form classification (classifyVerb, src/Alpino.cxx:640-726) is
approximated lexically (copula/modal/time-aux lemma sets, else
HEAD_VERB); parse-tree features (dependency distances, d-level, clause
counts) are produced by the deterministic dependency annotator when its
columns are present, else NaN.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any

import pyarrow as pa

from tscan_ray.config import DEFAULT_CONFIG, EngineConfig
from tscan_ray.text import depparse, kernels
from tscan_ray.text.depparse import DD_TYPES, SentParse
from tscan_ray.text.kernels import NA, density, proportion
from tscan_ray.text.lexicons import (
    NEG_MINUS,
    NEG_MORPHS,
    NEGATIVES,
    NOMINAL_MORPHS,
    NOMINAL_TAILS,
    Lexicons,
    PosInfo,
    default_lexicons,
)
from tscan_ray.text.tokenize import is_punct, segment

# verb-form lexical approximation of classifyVerb (src/Alpino.cxx:640-726)
_COPULA_LEMMAS = frozenset({"zijn", "worden", "blijven", "lijken", "heten", "is"})
_MODAL_LEMMAS = frozenset({"kunnen", "moeten", "mogen", "willen", "zullen"})
_TIME_LEMMAS = frozenset({"hebben", "gaan", "komen"})

# tiny deterministic NER gazetteer (replaces Frog NER, src/ner.cxx:8-41)
_NER_PER = frozenset({"jan", "marie", "piet", "anna", "sophie", "daan"})
_NER_LOC = frozenset({"amsterdam", "rotterdam", "utrecht", "nederland",
                      "europa", "ede", "antwerpen", "drenthe",
                      "denemarken", "duitsland", "noord-duitsland",
                      "belgië", "frankrijk", "engeland", "amerika",
                      "afrika", "azië", "groningen", "friesland"})
_NER_ORG = frozenset({"philips", "shell", "rabobank"})
_NER_LOC_SUFFIX = ("dam", "burg", "wijk", "stad", "dorp", "land",
                   "dijk", "veen", "loo", "richt", "um")
# NER -> SEM fallback (src/ner.cxx:85-100)
_NER_TO_SEM = {"PER": "human", "ORG": "institut", "LOC": "place"}

_PRON_PERS_TYPES = frozenset({"pers", "refl", "pr", "bez"})
_PRON_EXCLUDED = frozenset({"men", "er", "het"})


@dataclass
class WordAnn:
    """Resolved per-word annotation — the engine's wordStats record."""

    word: str
    lword: str
    lemma: str
    tag: str
    conjtype: str = ""  # VG: "neven" | "onder" (drives clause split + d-level)
    prop: str = ""  # ISLET ISNAME ISVD ISINF ISOD ISPVTGW ISPVVERL ISPPRON1/2/3 ISAANW
    position: str = ""  # NOMIN PRENOM VRIJ
    wwform: str = ""  # HEAD_VERB PASSIVE_VERB MODAL_VERB TIME_VERB COPULA
    morphemes: tuple[str, ...] = ()
    full_lemma: str = ""
    char_cnt: int = 0
    morph_cnt: int = 0
    is_content: bool = False
    is_content_strict: bool = False
    is_prop_neg: bool = False
    is_morph_neg: bool = False
    is_pers_ref: bool = False
    is_pron_ref: bool = False
    archaic: bool = False
    is_nominal: bool = False
    is_imperative: bool = False
    # isBetr (vwtype=="betr", src/wordstats.cxx:211 — set BEFORE the
    # men/er/het exclusion) / isOnder (VG conjtype=="onder", :247, the
    # ORIGINAL tag value: contextual passes mutate .conjtype later) /
    # isMultiConn (multiword-connective member, sentstats.cxx:283-316)
    is_betr: bool = False
    is_onder: bool = False
    is_multi_conn: bool = False
    # the 'hidden adj' rule gave this WW word an ADJ semtype — it counts
    # in the ADJ taxonomy (the count switch is on the SEM enum, not the
    # tag, src/tscan.cxx:2402-2607)
    sem_hidden_adj: bool = False
    on_stoplist: bool = False
    conn_type: str = ""
    sit_type: str = ""
    sem_type: str = ""
    ner: str = ""
    ner_begin: bool = True  # first word of its NER entity (ner.cxx *_B)
    intensify_type: str = ""
    formal_type: str = ""
    general_noun_type: str = ""
    general_verb_type: str = ""
    adverb_type: str = ""
    adverb_subtype: str = ""
    afk_type: str = ""
    my_class: str = ""
    top_freq: int = 0  # 0 = notFound, else band 1000..20000
    word_freq: int = 0
    word_freq_log: float = NA
    lemma_freq: int = 0
    lemma_freq_log: float = NA
    # compound fields (wordStats compound section, src/tscan.cxx:1786-1799)
    is_compound: bool = False
    compound_parts: int = 0
    char_cnt_head: int = 0
    char_cnt_sat: int = 0
    word_freq_log_head: float = NA
    word_freq_log_sat: float = NA
    word_freq_log_head_sat: float = NA
    word_freq_log_corr: float = NA
    top_freq_head: int = 0
    top_freq_sat: int = 0
    prevalence_p: float = NA
    prevalence_z: float = NA
    f50: bool = False
    f65: bool = False
    f77: bool = False
    f80: bool = False
    word_overlap_cnt: int = 0
    lemma_overlap_cnt: int = 0
    lprob_fwd: float = NA  # log10 P(w | prev)  (W26; Wopr lprob10 stand-in)
    lprob_bwd: float = NA  # log10 P(w | next)

    def is_overlap_candidate(self) -> bool:
        # reference src/wordstats.cxx:313-331
        return (
            (self.tag == "VNW" and self.prop != "ISAANW")
            or self.tag == "N"
            or self.prop == "ISNAME"
            or (self.tag == "WW" and self.wwform == "HEAD_VERB")
        )


# Per-process memo of the context-independent word analysis: natural text
# reuses a small vocabulary, so the ~50 lexicon probes per token run once
# per (word, sentence-initial) pair and later occurrences pay one shallow
# dataclass copy.  Context-dependent fields (overlap counts, logprobs,
# conn/sit types from multiword scans, imperative) are mutated only on the
# per-occurrence copy — the cached template stays pristine.
_ANALYZE_CACHE: dict = {}
_ANALYZE_CACHE_LIMIT = 250_000  # bound worker heap on open-vocabulary data


def analyze_word(token: str, sent_initial: bool, lex: Lexicons) -> WordAnn:
    """Word-level analysis: the wordStats ctor (src/tscan.cxx:1669-1802).
    Memoized per (lexicon generation, token, sent_initial); returns a
    fresh copy.  The key uses the bundle's memo_token, not id() — a
    freed bundle's address can be reused, which would serve stale
    analyses from the previous lexicon."""
    ck = (lex.memo_token, token, sent_initial)
    tmpl = _ANALYZE_CACHE.get(ck)
    if tmpl is None:
        tmpl = _analyze_word_uncached(token, sent_initial, lex)
        if len(_ANALYZE_CACHE) >= _ANALYZE_CACHE_LIMIT:
            _ANALYZE_CACHE.clear()
        _ANALYZE_CACHE[ck] = tmpl
    # fast flat clone (WordAnn is a plain dataclass, all fields
    # immutable values): ~3x cheaper than copy.copy's reduce protocol
    w = WordAnn.__new__(WordAnn)
    w.__dict__.update(tmpl.__dict__)
    return w


def analyze_word_decided(token: str, decision, lex: Lexicons) -> WordAnn:
    """wordStats ctor over a sentence-context tagger decision
    (text/tagger.py) — memoized like :func:`analyze_word` but keyed on
    the decision (the same surface form can resolve differently per
    context: ``het`` LID vs VNW)."""
    if decision.punct:
        lword = token.lower()
        return WordAnn(word=token, lword=lword, lemma=token, tag="LET",
                       prop="ISLET")
    ck = (lex.memo_token, token, decision.key())
    tmpl = _ANALYZE_CACHE.get(ck)
    if tmpl is None:
        tmpl = _build_word_ann(token, token.lower(), decision.info,
                               decision.is_name, lex)
        if len(_ANALYZE_CACHE) >= _ANALYZE_CACHE_LIMIT:
            _ANALYZE_CACHE.clear()
        _ANALYZE_CACHE[ck] = tmpl
    w = WordAnn.__new__(WordAnn)
    w.__dict__.update(tmpl.__dict__)
    return w


def _analyze_word_uncached(token: str, sent_initial: bool, lex: Lexicons) -> WordAnn:
    lword = token.lower()
    if is_punct(token):
        w = WordAnn(word=token, lword=lword, lemma=token, tag="LET", prop="ISLET")
        return w

    info = lex.pos.get(lword, None)
    is_name = token[0].isupper() and (not sent_initial or info is None)
    if not is_name and info is None:
        # number-shaped unknowns (reference Frog tagging, evidenced by
        # tests/numstring.example.ok): pure digit strings are TW
        # numerals; digit-prefixed derivations ("35jarige",
        # "20-jarige") are prenominal ADJs, never nouns
        head = lword.rstrip("-.,")
        if head and head.replace(".", "").replace(",", "").isdigit():
            info = PosInfo("TW", lword, (lword,))
        elif head and head[0].isdigit() and head[-1].isalpha():
            info = PosInfo("ADJ", lword, (lword,))
        else:
            info = PosInfo("N", lword, (lword,))
    return _build_word_ann(token, lword, info, is_name, lex)


def _build_word_ann(token: str, lword: str, info, is_name: bool,
                    lex: Lexicons) -> WordAnn:
    """wordStats construction given a tag decision (lexicon hit, tagger
    decision, or default) — shared by the per-word heuristic path and
    the sentence-context tagger path."""
    if is_name:
        ann = WordAnn(
            word=token, lword=lword, lemma=token, tag="SPEC", prop="ISNAME",
            morphemes=(lword,),
        )
        ner = (
            "PER" if lword in _NER_PER
            else "LOC" if lword in _NER_LOC
            or lword.endswith(_NER_LOC_SUFFIX)
            else "ORG" if lword in _NER_ORG
            # acronym-shaped names (VARA, PvdA: >=2 capitals, or
            # mixed-case with internal capitals) are organisations
            # (tests/afk s2: nerORG 2)
            else "ORG" if sum(1 for ch in token if ch.isupper()) >= 2
            and token.isalpha()
            # Frog's NER reads a standalone capitalized token as a
            # person by default (first names dominate)
            else "PER" if token[:1].isupper() and not token.isupper()
            and token[1:].islower() and len(token) > 2
            else "MISC"
        )
        ann.ner = ner
        # name sem lookup is by RAW word, case-sensitive (checkSemProps
        # src/tscan.cxx:1399-1407: "Bourgogne" the region matches its
        # capitalized lexicon entry); lowercase + NER-gazetteer fallback
        # is the engine's coverage extension for the synthetic bundle
        ann.sem_type = (lex.noun_sem.get(token) or lex.noun_sem.get(lword)
                        or _NER_TO_SEM.get(ner, ""))
    else:
        ann = WordAnn(
            word=token, lword=lword, lemma=info.lemma, tag=info.tag,
            morphemes=info.morphemes or (lword,),
        )
        _set_cgn_props(ann, info)
        _set_sem_type(ann, lex)
        if ann.tag == "VG":
            ann.conjtype = info.feat("conjtype")
            ann.is_onder = ann.conjtype == "onder"

    return _finish_word(ann, lex)


@dataclass
class TokenAnnotation:
    """One precomputed token annotation — the Frog record the reference
    consumes (word + lemma + full CGN tag + features + morphemes).  The
    engine accepts these via ``analyze_sentence(pre=...)`` /
    ``featurize_document(annotations=...)`` so external-NLP-annotated
    tables (and the reference's own golden FoLiA fixtures) can drive the
    feature math directly, bypassing the heuristic tagger."""

    word: str
    lemma: str
    tag: str  # CGN head tag (N WW ADJ ... LET)
    full_tag: str = ""  # e.g. "WW(pv,verl,ev)" (ISNAME needs "eigen")
    feats: tuple[tuple[str, str], ...] = ()  # (subset, class) pairs
    morphemes: tuple[str, ...] = ()
    # Frog NER entity class ("PER"/"LOC"/"ORG"/"EVE"/"MISC"/"PRO", empty
    # = none) and whether this word BEGINS the entity (NER::lookupNer,
    # reference src/ner.cxx:8-41: only *_B words count toward nerCnt)
    ner: str = ""
    ner_begin: bool = True
    # Frog CHUNKER tag ("NP"/"VP"/"PP"/..., empty = none) + whether this
    # word BEGINS its chunk — drives np_length (src/tscan.cxx:2105-2124)
    chunk: str = ""
    chunk_begin: bool = True


def analyze_word_annotated(tok: TokenAnnotation, lex: Lexicons) -> WordAnn:
    """wordStats ctor over a PRECOMPUTED annotation (src/tscan.cxx:1669-
    1802 with Frog output supplied instead of the heuristic tagger)."""
    word = tok.word
    lword = word.lower()
    if tok.tag == "LET":
        return WordAnn(word=word, lword=lword, lemma=tok.lemma or word,
                       tag="LET", prop="ISLET")
    morphemes = tok.morphemes or (lword,)
    ann = WordAnn(word=word, lword=lword, lemma=tok.lemma, tag=tok.tag,
                  morphemes=morphemes)
    ann.ner = tok.ner
    ann.ner_begin = tok.ner_begin
    # ISNAME: tag SPEC with an "eigen" subtype (setCGNProps,
    # src/wordstats.cxx:147-148 — pos.find("eigen"))
    if tok.tag == "SPEC" and "eigen" in tok.full_tag:
        ann.prop = "ISNAME"
        # names look up noun_sem by RAW word, case-sensitive
        # (checkSemProps, src/tscan.cxx:1399-1407)
        ann.sem_type = lex.noun_sem.get(word, "UNFOUND_NOUN")
    else:
        info = PosInfo(tok.tag, tok.lemma, morphemes, tok.feats)
        _set_cgn_props(ann, info)
        _set_sem_type(ann, lex)
        if ann.tag == "VG":
            ann.conjtype = info.feat("conjtype")
            ann.is_onder = ann.conjtype == "onder"
    # NER->SEM fallback (src/tscan.cxx:2306-2308 + NER::toSem,
    # src/ner.cxx:85-100): only fills an UNFOUND noun slot
    if ann.sem_type == "UNFOUND_NOUN" and ann.ner:
        ann.sem_type = _NER_TO_SEM.get(ann.ner, "UNFOUND_NOUN")
    return _finish_word(ann, lex)


def _finish_word(ann: WordAnn, lex: Lexicons) -> WordAnn:
    """Shared tail of the wordStats ctor: everything downstream of the
    tag/lemma/morpheme resolution (src/tscan.cxx:1728-1802)."""
    token = ann.word
    lword = ann.lword
    ann.char_cnt = len(token)
    ann.morph_cnt = max(1, len(ann.morphemes))

    if ann.tag == "WW":
        ann.wwform = _classify_verb(ann)

    # negation (src/wordstats.cxx:274-305)
    ann.is_prop_neg = lword in NEGATIVES or (
        ann.tag == "BW" and lword in ("moeilijk", "weg")
    )
    ann.is_morph_neg = _check_morph_neg(ann)

    # content predicates (src/wordstats.cxx:17-33)
    if ann.tag == "BW":
        at = lex.adverbs.get(lword)
        if at:
            ann.adverb_type, ann.adverb_subtype = at
    ann.is_content = _check_content(ann, strict=False)
    ann.is_content_strict = _check_content(ann, strict=True)

    # nominalization (src/wordstats.cxx:59-138; morph rules only — the
    # Alpino verb-under-NP rule needs the parse annotation)
    ann.is_nominal = _check_nominal(ann)

    # lexicon families (tag-aware ordered lookups over the published
    # lists; checkConnective/checkSituation, src/tscan.cxx:1134-1217)
    if ann.tag in ("VG", "VZ", "BW"):
        ann.conn_type = lex.conn_type(ann.lemma, ann.tag)
    ann.sit_type = lex.situation_type(ann.lemma, ann.tag)
    ann.intensify_type = lex.intensify.get(ann.lemma, "")
    formal = kernels.find_inflected(lex.formal, ann.lemma)
    ann.formal_type = formal or ""
    if ann.tag == "N":
        ann.general_noun_type = lex.general_nouns.get(ann.lemma, "")
    if ann.tag == "WW":
        ann.general_verb_type = lex.general_verbs.get(ann.lemma, "")
    if ann.tag in ("N", "SPEC"):
        # case-sensitive raw-form lookup (checkAfk, src/tscan.cxx:1559):
        # "DE"/"IS" the country codes are abbreviations, the function
        # words are not
        ann.afk_type = lex.afkos.get(ann.word, "")
    ann.on_stoplist = ann.lemma in lex.stop_lemmata
    ann.my_class = lex.my_classification.get(ann.lemma, "")

    # frequency features (src/tscan.cxx:1597-1667)
    ann.top_freq = lex.top_freq.get(lword, 0)
    ann.word_freq = lex.word_freq.get(lword, 0)
    ann.word_freq_log = kernels.freq_log(ann.word_freq, lex.word_total)
    lf = lex.lemma_freq.get(ann.full_lemma) if ann.full_lemma else None
    if lf is None:
        lf = lex.lemma_freq.get(ann.lemma.lower(), 0)
    ann.lemma_freq = lf
    ann.lemma_freq_log = kernels.freq_log(ann.lemma_freq, lex.lemma_total)
    prev = lex.prevalence.get(ann.lemma.lower())
    if prev:
        ann.prevalence_p, ann.prevalence_z = prev
    staph = lex.staph_freq.get(lword)
    if staph is not None:
        ann.f50 = staph <= 50
        ann.f65 = staph <= 65
        ann.f77 = staph <= 77
        ann.f80 = staph <= 80

    # compound stats (src/tscan.cxx:1786-1799): head/sat char counts,
    # head/sat frequency features, compound-corrected word frequency
    comp = lex.compounds.get(ann.lemma) if ann.tag == "N" else None
    if comp is None and ann.tag == "N" and ann.sem_type == "UNFOUND_NOUN" \
            and lex.use_compound_splitter:
        # unknown noun -> deterministic splitter fallback (the reference
        # calls the splitter service only when the noun_sem lookup missed,
        # src/tscan.cxx:1355-1385); on a split the compound inherits its
        # HEAD's semantic type (src/tscan.cxx:1379-1383)
        comp = kernels.split_compound(ann.lemma.lower(), lex.noun_sem,
                                      longest=lex.longest_noun)
        if comp is not None:
            head_sem = lex.noun_sem.get(comp[0])
            if head_sem is not None:
                ann.sem_type = head_sem
    if comp is not None:
        head, sat, parts = comp
        ann.is_compound = True
        ann.compound_parts = parts
        ann.char_cnt_head = len(head)
        ann.char_cnt_sat = len(sat)
        ann.word_freq_log_head = kernels.freq_log(
            lex.word_freq.get(head, 0), lex.word_total)
        ann.word_freq_log_sat = kernels.freq_log(
            lex.word_freq.get(sat, 0), lex.word_total)
        ann.word_freq_log_head_sat = (
            ann.word_freq_log_head + ann.word_freq_log_sat) / 2.0
        ann.top_freq_head = lex.top_freq.get(head, 0)
        ann.top_freq_sat = lex.top_freq.get(sat, 0)
        ann.word_freq_log_corr = ann.word_freq_log_head
    else:
        ann.word_freq_log_corr = ann.word_freq_log

    # is_pron_ref was set in _set_cgn_props (vwtype pers/bez at persoon 3,
    # or aanw — src/wordstats.cxx:224-238); nothing to recompute here
    ann.is_pers_ref = (
        (ann.sem_type == "human" and ann.tag in ("N", "SPEC"))
        or (ann.ner == "PER" and ann.ner_begin)  # PER_B (wordstats.cxx:11-15)
        or ann.prop in ("ISPPRON1", "ISPPRON2", "ISPPRON3")
    )
    return ann


def _set_cgn_props(ann: WordAnn, info: PosInfo) -> None:
    """setCGNProps (src/wordstats.cxx:144-249)."""
    if ann.tag == "WW":
        wvorm = info.feat("wvorm")
        if wvorm in ("inf", "vd", "od"):
            ann.prop = {"inf": "ISINF", "vd": "ISVD", "od": "ISOD"}[wvorm]
            pos = info.feat("positie")
            ann.position = {"vrij": "VRIJ", "prenom": "PRENOM", "nom": "NOMIN"}.get(
                pos, "VRIJ"
            )
        elif wvorm == "pv":
            tijd = info.feat("pvtijd")
            if tijd == "tgw":
                ann.prop = "ISPVTGW"
            elif tijd == "verl":
                ann.prop = "ISPVVERL"
            elif tijd == "conj":
                ann.prop = "ISSUBJ"
    elif ann.tag == "VNW":
        ann.is_betr = info.feat("vwtype") == "betr"
        if ann.lword not in _PRON_EXCLUDED:
            vwtype = info.feat("vwtype")
            cas = info.feat("naamval")
            ann.archaic = cas in ("gen", "dat")
            if vwtype in _PRON_PERS_TYPES:
                persoon = info.feat("persoon")
                if persoon.startswith("1"):
                    ann.prop = "ISPPRON1"
                elif persoon.startswith("2"):
                    ann.prop = "ISPPRON2"
                elif persoon.startswith("3"):
                    ann.prop = "ISPPRON3"
                    # reflexive/shared-case 3rd-person pronouns ("zich")
                    # are NOT referential (setCGNProps,
                    # src/wordstats.cxx:224-230)
                    ann.is_pron_ref = vwtype in ("pers", "bez")
            elif vwtype == "aanw":
                ann.prop = "ISAANW"
                ann.is_pron_ref = True
    elif ann.tag == "LID":
        ann.archaic = info.feat("naamval") in ("gen", "dat")


def _set_sem_type(ann: WordAnn, lex: Lexicons) -> None:
    """checkNoun + checkSemProps (src/tscan.cxx:1337-1464): noun via
    findInflected on the lemma; adj via findInflected on lemma then
    word; verb via full_lemma, then the 'hidden adj' rule (a PRENOM
    participle is looked up in the ADJ lexicon by word form BEFORE the
    verb-lemma fallback), then lemma."""
    if ann.tag == "N":
        st = kernels.find_inflected(lex.noun_sem, ann.lemma)
        ann.sem_type = st if st is not None else "UNFOUND_NOUN"
    elif ann.tag == "ADJ":
        # the reference's checkSemProps ADJ branch runs findInflected on
        # the LOWERCASED l_lemma (src/tscan.cxx:1409-1427): a
        # sentence-initial capitalized FoLiA lemma must still hit
        st = kernels.find_inflected(lex.adj_sem, ann.lemma.lower())
        if st is None:
            st = kernels.find_inflected(lex.adj_sem, ann.lword)
        ann.sem_type = st if st is not None else "UNFOUND_ADJ"
    elif ann.tag == "WW":
        st = lex.verb_sem.get(ann.full_lemma) if ann.full_lemma else None
        if st is None and ann.position == "PRENOM" \
                and ann.prop in ("ISVD", "ISOD"):
            st = lex.adj_sem.get(ann.lword)
            if st is not None:
                # the SEM enum value IS an ADJ type — the tag-blind
                # count switch (src/tscan.cxx:2402-2607) then counts
                # this WW word in the ADJ taxonomy
                ann.sem_hidden_adj = True
        if st is None:
            st = lex.verb_sem.get(ann.lemma)
        ann.sem_type = st if st is not None else "UNFOUND_VERB"


def _classify_verb(ann: WordAnn) -> str:
    """Lexical approximation of classifyVerb (src/Alpino.cxx:640-726)."""
    if ann.lemma in _COPULA_LEMMAS:
        return "COPULA"
    if ann.lemma in _MODAL_LEMMAS:
        return "MODAL_VERB"
    if ann.lemma in _TIME_LEMMAS:
        return "TIME_VERB"
    return "HEAD_VERB"


def _check_morph_neg(ann: WordAnn) -> bool:
    """checkMorphNeg (src/wordstats.cxx:288-305)."""
    m1 = ann.morphemes[0] if ann.morphemes else ""
    m2 = ann.morphemes[1] if len(ann.morphemes) > 1 else ""
    if m1 in NEG_MORPHS and m2 != "en" and m2 != "":
        return True
    return any(m in ann.word for m in NEG_MINUS)


def _check_content(ann: WordAnn, strict: bool) -> bool:
    """checkContent (src/wordstats.cxx:17-33)."""
    if ann.tag == "WW":
        return ann.wwform == "HEAD_VERB"
    if ann.tag == "BW":
        # strict: only MANNER adverbs are content (src/adverb.cxx:57-59)
        return (not strict) or ann.adverb_subtype == "MANNER"
    return ann.prop == "ISNAME" or ann.tag in ("N", "ADJ")


def _check_nominal(ann: WordAnn) -> bool:
    """checkNominal morph/tail rules (src/wordstats.cxx:59-138)."""
    if ann.tag == "N" and len(ann.morphemes) > 1:
        last = ann.morphemes[-1]
        if last in ("en", "s", "n"):
            last = ann.morphemes[-2]
        if last in NOMINAL_MORPHS:
            return True
        if len(last) > 4 and any(last.endswith(t) for t in NOMINAL_TAILS):
            return True
    if len(ann.morphemes) < 2 and len(ann.word) > 4:
        if any(ann.word.endswith(t) for t in NOMINAL_TAILS):
            return True
    return False


# ---------------------------------------------------------------------------
# Sentence / document fold
# ---------------------------------------------------------------------------

_COUNT_KEYS = (
    "wordCnt letCnt wordInclCnt nameCnt nameInclCnt contentCnt contentInclCnt "
    "contentStrictCnt contentStrictInclCnt nounCnt verbCnt adjCnt "
    "nounInclCnt verbInclCnt adjInclCnt vgCnt tswCnt specCnt bwCnt vnwCnt "
    "lidCnt twCnt vzCnt pastCnt presentCnt subjonctCnt pron1Cnt pron2Cnt "
    "pron3Cnt vdCnt infCnt odCnt passiveCnt modalCnt timeVCnt koppelCnt "
    "propNegCnt morphNegCnt multiNegCnt persRefCnt pronRefCnt archaicsCnt "
    "impCnt nominalCnt charCnt charCntExNames morphCnt morphCntExNames "
    "f50Cnt f65Cnt f77Cnt f80Cnt top1000Cnt top2000Cnt top3000Cnt top5000Cnt "
    "top10000Cnt top20000Cnt "
    "top1000ContentCnt top2000ContentCnt top3000ContentCnt "
    "top5000ContentCnt top10000ContentCnt top20000ContentCnt "
    "top1000ContentStrictCnt top2000ContentStrictCnt top3000ContentStrictCnt "
    "top5000ContentStrictCnt top10000ContentStrictCnt top20000ContentStrictCnt "
    "generalAdverbCnt specificAdverbCnt intensCnt intensBvnwCnt intensBvbwCnt "
    "intensBwCnt intensCombiCnt intensNwCnt intensTussCnt intensWwCnt "
    "formalCnt formalMultiCnt formalBvnwCnt formalBwCnt formalVgwCnt "
    "formalVnwCnt formalVzCnt formalVzgCnt formalWwCnt formalZnwCnt "
    "generalNounCnt generalVerbCnt "
    "generalNounSepCnt generalNounRelCnt generalNounActCnt "
    "generalNounKnowCnt generalNounDiscCnt generalNounDeveCnt "
    "generalVerbSepCnt generalVerbRelCnt generalVerbActCnt "
    "generalVerbKnowCnt generalVerbDiscCnt generalVerbDeveCnt "
    "afkCnt afk_generiekCnt afk_internationaalCnt afk_juridischCnt "
    "afk_mediaCnt afk_onderwijsCnt afk_overheidCnt afk_overigeCnt "
    "afk_zorgCnt stoplistCnt myClassCnt questCnt sentCnt "
    "tempConnCnt opsomWgConnCnt opsomZinConnCnt contrastConnCnt "
    "comparConnCnt causeConnCnt allConnCnt timeSitCnt causalSitCnt "
    "spaceSitCnt emoSitCnt prepExprCnt wordOverlapCnt lemmaOverlapCnt "
    "nerCnt nerPERCnt nerLOCCnt nerORGCnt nerPROCnt nerEVECnt nerMISCCnt "
    "humanCnt nonHumanCnt artefactCnt substanceConcCnt foodcareCnt "
    "concrotherCnt dynamicConcCnt placeCnt timeCnt measureCnt "
    "substanceAbstrCnt dynamicAbstrCnt nonDynamicCnt institutCnt "
    "undefinedNounCnt strictNounCnt broadNounCnt "
    "uncoveredNounCnt uncoveredAdjCnt uncoveredVerbCnt "
    "humanAdjCnt emoAdjCnt shapeAdjCnt colorAdjCnt matterAdjCnt soundAdjCnt "
    "nonhumanOtherAdjCnt nonhumanAdjCnt techAdjCnt timeAdjCnt placeAdjCnt "
    "specPosAdjCnt specNegAdjCnt posAdjCnt negAdjCnt evaluativeAdjCnt "
    "epiPosAdjCnt epiNegAdjCnt abstractAdjCnt undefinedAdjCnt "
    "strictAdjCnt broadAdjCnt subjectiveAdjCnt "
    "concreteWwCnt abstractWwCnt undefinedWwCnt stateCnt actionCnt "
    "processCnt undefinedATPCnt "
    "vdBvCnt vdNwCnt vdVrijCnt infBvCnt infNwCnt infVrijCnt "
    "odBvCnt odNwCnt odVrijCnt "
    "compoundCnt compound3Cnt charCntNoun charCntNonComp charCntComp "
    "charCntHead charCntSat charCntNounCorr charCntCorr "
    "top1000CntNoun top5000CntNoun top20000CntNoun "
    "top1000CntNonComp top5000CntNonComp top20000CntNonComp "
    "top1000CntComp top5000CntComp top20000CntComp "
    "top1000CntHead top5000CntHead top20000CntHead "
    "top1000CntSat top5000CntSat top20000CntSat "
    "top1000CntNounCorr top5000CntNounCorr top20000CntNounCorr "
    "top1000CntCorr top5000CntCorr top20000CntCorr "
    "smainCnt ssubCnt sv1Cnt clauseCnt correctedClauseCnt npCnt indefNpCnt "
    "npSizeSum npModCnt adjNpModCnt betrCnt dLevelGt4Cnt "
    "bijwCnt complCnt infinComplBepCnt mvFinInbedCnt mvInbedCnt "
    "losBetrCnt losBijwCnt smainCnjCnt ssubCnjCnt sv1CnjCnt "
    "smallCnjCnt smallCnjExtraCnt vcModCnt vcModSingleCnt parseFailCnt"
).split()

# --- the full reference SEM taxonomy (include/tscan/sem.h:9-35; count
# switch src/tscan.cxx:2402-2607) — counter key per lexicon class ---------
_NOUN_SEM_KEY = {
    "human": "humanCnt", "nonhuman": "nonHumanCnt", "artefact": "artefactCnt",
    "substance_conc": "substanceConcCnt", "voed_verz": "foodcareCnt",
    "concrother": "concrotherCnt", "dynamic_conc": "dynamicConcCnt",
    "place": "placeCnt", "time": "timeCnt", "measure": "measureCnt",
    "substance_abstr": "substanceAbstrCnt", "dynamic_abstr": "dynamicAbstrCnt",
    "nondynamic": "nonDynamicCnt", "institut": "institutCnt",
    "undefined": "undefinedNounCnt",
}
# isStrictNoun / isBroadNoun (src/sem.cxx:277-309)
_NOUN_STRICT = frozenset({"human", "nonhuman", "artefact", "substance_conc",
                          "voed_verz", "concrother", "dynamic_conc"})
_NOUN_BROAD = _NOUN_STRICT | {"place", "time", "measure"}
_ADJ_SEM_KEY = {
    "human": "humanAdjCnt", "emo": "emoAdjCnt", "shape": "shapeAdjCnt",
    "color": "colorAdjCnt", "matter": "matterAdjCnt", "sound": "soundAdjCnt",
    "nonhuman_other": "nonhumanOtherAdjCnt", "tech": "techAdjCnt",
    "time": "timeAdjCnt", "place": "placeAdjCnt", "spec_pos": "specPosAdjCnt",
    "spec_neg": "specNegAdjCnt", "pos": "posAdjCnt", "neg": "negAdjCnt",
    "evaluative": "evaluativeAdjCnt", "epi_pos": "epiPosAdjCnt",
    "epi_neg": "epiNegAdjCnt", "abstract": "abstractAdjCnt",
    "undefined": "undefinedAdjCnt",
}
_ADJ_NONHUMAN = frozenset({"shape", "color", "matter", "sound", "nonhuman_other"})
_ADJ_STRICT = _ADJ_NONHUMAN | {"human", "emo"}        # isStrictAdj
_ADJ_BROAD = _ADJ_STRICT | {"time", "place"}          # isBroadAdj
_ADJ_SUBJECTIVE = frozenset({"spec_pos", "spec_neg", "pos", "neg",
                             "evaluative", "epi_pos", "epi_neg"})
# verb classes: prefix = concreteness, suffix = ATP family
_VERB_ATP_KEY = {"state": "stateCnt", "action": "actionCnt",
                 "process": "processCnt"}
# General::is* families (src/general.cxx:147-244) over the 6 aggregate
# lexicon values (see lexicons.py)
_GENERAL_FAMS = {
    "separate": ("Sep",),
    "related": ("Rel",),
    "acting": ("Rel", "Act"),
    "knowledge": ("Know",),
    "discussion": ("Know", "Disc"),
    "development": ("Rel", "Deve"),
}
_INTENS_KEY = {"BVNW": "intensBvnwCnt", "BVBW": "intensBvbwCnt",
               "BW": "intensBwCnt", "COMBI": "intensCombiCnt",
               "NW": "intensNwCnt", "TUSS": "intensTussCnt",
               "WW": "intensWwCnt"}
_FORMAL_KEY = {"BVNW": "formalBvnwCnt", "BW": "formalBwCnt",
               "VGW": "formalVgwCnt", "VNW": "formalVnwCnt",
               "VZ": "formalVzCnt", "VZG": "formalVzgCnt",
               "WW": "formalWwCnt", "ZNW": "formalZnwCnt"}
_AFK_DOMAINS = ("generiek", "internationaal", "juridisch", "media",
                "onderwijs", "overheid", "overige", "zorg")
# unique-token families per connective/situation class (reference
# unique_*_conn / unique_*_sits maps, src/sentstats.cxx:425-520)
_CONN_UNIQ = {"TEMPOREEL": "temp_conn", "OPSOMMEND_WG": "reeks_wg_conn",
              "OPSOMMEND_ZIN": "reeks_zin_conn", "CONTRASTIEF": "contr_conn",
              "COMPARATIEF": "comp_conn", "CAUSAAL": "cause_conn"}
_SIT_UNIQ = {"TIME_SIT": "tijd_sits", "CAUSAL_SIT": "cause_sits",
             "SPACE_SIT": "ruimte_sits", "EMO_SIT": "emotion_sits"}

_SUM_KEYS = (
    "word_freq word_freq_n word_freq_strict word_freq_n_strict "
    "lemma_freq lemma_freq_n lemma_freq_strict lemma_freq_n_strict "
    "prevalenceP_sum prevalenceZ_sum prevalenceCovered "
    "prevalenceContentP_sum prevalenceContentZ_sum prevalenceContentCovered "
    "prob_fwd_content prob_fwd_ex_names prob_fwd_content_ex_names "
    "prob_bwd_content prob_bwd_ex_names prob_bwd_content_ex_names "
    # compound-corrected frequency sums (src/tscan.cxx:2627-2790)
    "word_freq_log_noun word_freq_log_non_comp word_freq_log_comp "
    "word_freq_log_head word_freq_log_sat word_freq_log_head_sat "
    "word_freq_log_noun_corr word_freq_log_corr word_freq_log_n_corr "
    "word_freq_log_corr_strict word_freq_log_n_corr_strict"
).split()

_CONN_KEY = {
    "TEMPOREEL": "tempConnCnt",
    "OPSOMMEND_WG": "opsomWgConnCnt",
    "OPSOMMEND_ZIN": "opsomZinConnCnt",
    "CONTRASTIEF": "contrastConnCnt",
    "COMPARATIEF": "comparConnCnt",
    "CAUSAAL": "causeConnCnt",
}
_SIT_KEY = {
    "TIME_SIT": "timeSitCnt",
    "CAUSAL_SIT": "causalSitCnt",
    "SPACE_SIT": "spaceSitCnt",
    "EMO_SIT": "emoSitCnt",
}


@dataclass
class Fold:
    """Accumulated counters + unique-token maps (the structStats record)."""

    c: Counter = field(default_factory=Counter)
    s: dict[str, float] = field(default_factory=dict)
    unique_words: Counter = field(default_factory=Counter)
    unique_lemmas: Counter = field(default_factory=Counter)
    unique_names: Counter = field(default_factory=Counter)
    unique_contents: Counter = field(default_factory=Counter)
    unique_contents_strict: Counter = field(default_factory=Counter)
    # per-class connective/situation unique maps ("all_conn", "temp_conn",
    # ..., "tijd_sits", ...) — reference unique_*_conn/unique_*_sits
    uniq: dict[str, Counter] = field(default_factory=dict)
    words: list[WordAnn] = field(default_factory=list)
    parses: list[SentParse] = field(default_factory=list)
    surps: list[dict] = field(default_factory=list)  # per-sentence LM stats
    # per-paragraph (al_gem, al_max) — the doc-level AL rollup averages
    # over PARAGRAPH values, each itself a mean over that paragraph's
    # sentences (structStats::getMeanAL/getHighestAL run per level over
    # DIRECT children, src/structstats.cxx:28-54); filled by
    # featurize_document, empty for single-level folds
    par_al: list = field(default_factory=list)

    def uniq_add(self, family: str, token: str) -> None:
        self.uniq.setdefault(family, Counter())[token] += 1

    def __post_init__(self):
        for k in _SUM_KEYS:
            self.s.setdefault(k, 0.0)


def _multiword_scan(lowers: list[str], table: dict[str, str], max_n: int,
                    min_n: int = 2,
                    firsts: frozenset | None = None) -> list[tuple[int, int, str]]:
    """Greedy left-to-right longest-match n-gram scan (resolveMultiWord
    template, include/tscan/stats.h:966-991): returns (start, length, type)
    and skips past each match.  ``firsts`` (the set of expression first
    words) short-circuits positions that cannot start a match — the hot
    path for corpora where expressions are rare."""
    hits = []
    i = 0
    n = len(lowers)
    while i < n:
        if firsts is not None and lowers[i] not in firsts:
            i += 1
            continue
        matched = 0
        mtype = ""
        for k in range(min(max_n, n - i), min_n - 1, -1):
            gram = " ".join(lowers[i : i + k])
            t = table.get(gram)
            if t is not None:
                matched, mtype = k, t
                break
        if matched:
            hits.append((i, matched, mtype))
            i += matched
        else:
            i += 1
    return hits


def _mw_tables(lex: Lexicons) -> dict:
    """Per-bundle prepped multiword tables: (table, max_n, first-word set),
    built once per lexicon bundle (the vzexpr dict materialization and the
    first-word index are loop-invariant across sentences)."""
    mw = getattr(lex, "_mw_tables", None)
    if mw is None:
        def prep(tbl: dict, maxn: int):
            return (tbl, maxn,
                    frozenset(g.split(" ", 1)[0] for g in tbl))

        mw = {
            "conn": prep(lex.conn_multi, 3),
            "sit": prep(lex.sit_multi, 4),
            "intens": prep(lex.intensify_multi, 5),
            "formal": prep(lex.formal_multi, 5),
            "vz": prep({g: "X" for g in lex.vzexpr}, 4),
        }
        lex._mw_tables = mw
    return mw


def _apply_full_lemma(ann: WordAnn, lex: Lexicons) -> None:
    """Re-run the full-lemma-first lookups after a separable verb got its
    full lemma (reference src/tscan.cxx:1430-1434, 1479-1477, 1640-1650:
    verb_sem, intensify, formal and lemma_freq all try full_lemma before
    lemma)."""
    lf = lex.lemma_freq.get(ann.full_lemma)
    if lf is not None:
        ann.lemma_freq = lf
        ann.lemma_freq_log = kernels.freq_log(lf, lex.lemma_total)
    _set_sem_type(ann, lex)
    it = lex.intensify.get(ann.full_lemma)
    if it is not None:
        ann.intensify_type = it
    formal = kernels.find_inflected(lex.formal, ann.full_lemma)
    if formal:
        ann.formal_type = formal
    ann.is_content = _check_content(ann, False)
    ann.is_content_strict = _check_content(ann, True)


def analyze_sentence(
    tokens: list[str],
    prev: Fold | None,
    lex: Lexicons,
    cfg: EngineConfig,
    lm=None,
    pre: list[TokenAnnotation] | None = None,
    alpino_tree=None,
) -> Fold:
    """Sentence-level analysis + fold (sentStats ctor, src/tscan.cxx:2126-2865).

    ``pre``: precomputed token annotations (Frog output) replacing the
    heuristic tagger; ``alpino_tree`` an ``alpino.AlpTree`` replacing
    the reduced parser (the reference's pre-parsed-lookup path,
    src/tscan.cxx:2144-2153).  Either may be given independently."""
    f = Fold()
    c = f.c
    if pre is not None:
        anns = [analyze_word_annotated(p, lex) for p in pre]
        tokens = [p.word for p in pre]
    else:
        # sentence-context heuristic tagger (text/tagger.py): emulates
        # the Frog tag decisions the reference consumes — including the
        # "dat" complementizer-vs-relative saturation rule ("De kans dat
        # hij Piet ziet", reference tests/depdist21: cp under np, not
        # rel; expletive "er" fills the subject slot, tests/
        # relativeclauses s15) and the prepositional-"als" retag
        # ("dienden als begraafplaats", tests/d0)
        from tscan_ray.text.tagger import tag_sentence

        decisions = tag_sentence(tokens, lex)
        anns = [analyze_word_decided(t, d, lex)
                for t, d in zip(tokens, decisions)]
        # multiword-name entity grouping (Frog NER spans B/I tags,
        # src/ner.cxx:8-41): a run of adjacent ISNAME words is ONE
        # entity — only the first word counts toward nerCnt, and the
        # span class (taken from the begin word) covers every word's
        # NER->SEM fallback ("Willem de Tweede": nerCnt 1, humanCnt 3)
        for k, a in enumerate(anns):
            if (a.prop == "ISNAME" and k > 0
                    and anns[k - 1].prop == "ISNAME"):
                a.ner_begin = False
                first = anns[k - 1]
                a.ner = first.ner
                span_sem = _NER_TO_SEM.get(a.ner)
                if span_sem and a.sem_type != span_sem \
                        and lex.noun_sem.get(a.word) is None:
                    a.sem_type = span_sem
                    _finish_word(a, lex)
    f.words = anns

    # checkAls (resolveConnectives, src/sentstats.cxx:366-424): "als" is
    # never a connective-list entry; its type is contextual —
    # sentence-initial = CAUSAAL, paired with an earlier net/evenmin/zo/
    # zomin = COMPARATIEF on BOTH words, zowel..als = OPSOMMEND_WG on
    # both, else (as VG) prev-ADJ = COMPARATIEF / otherwise CAUSAAL, and
    # "als <telwoord>" = COMPARATIEF
    for k, a in enumerate(anns):
        if a.lword != "als":
            continue
        if k == 0:
            a.conn_type = "CAUSAAL"
            continue
        paired = False
        for j in range(k - 1, -1, -1):
            w = anns[j].lword
            if w in ("net", "evenmin", "zo", "zomin"):
                anns[j].conn_type = "COMPARATIEF"
                a.conn_type = "COMPARATIEF"
                paired = True
                break
            if w == "zowel":
                anns[j].conn_type = "OPSOMMEND_WG"
                a.conn_type = "OPSOMMEND_WG"
                paired = True
                break
        if paired:
            continue
        if a.tag == "VG":
            prv = next((anns[j] for j in range(k - 1, -1, -1)
                        if anns[j].prop != "ISLET"), None)
            a.conn_type = ("COMPARATIEF" if prv is not None
                           and prv.tag == "ADJ" else "CAUSAAL")
        elif k + 1 < len(anns) and anns[k + 1].tag == "TW":
            a.conn_type = "COMPARATIEF"  # "als eerste" / "als dertigste"

    # tree-based verb classification (classifyVerb, src/Alpino.cxx:630-
    # 726) + per-word imperative check (src/tscan.cxx:1715-1723): with a
    # precomputed tree these replace the lexical approximations below
    if alpino_tree is not None:
        from tscan_ray.text import alpino as _alp

        for i, a in enumerate(anns):
            if a.tag != "WW":
                continue
            wn = alpino_tree.word_node(i)
            if wn is None:
                continue
            wwform, full = _alp.classify_verb(wn, a.lemma)
            a.wwform = wwform
            if full:
                a.full_lemma = full.lower()
                _apply_full_lemma(a, lex)
            else:
                # content predicates depend on the tree wwform (HEAD_VERB
                # only, checkContent src/wordstats.cxx:17-21)
                a.is_content = _check_content(a, False)
                a.is_content_strict = _check_content(a, True)
            if a.prop in ("ISPVTGW", "ISPVVERL") \
                    and wwform != "PASSIVE_VERB" and _alp.check_imp(wn):
                a.is_imperative = True
            # nominalization, Alpino verb-under-NP clause (checkNominal,
            # src/wordstats.cxx:121-131)
            if not a.is_nominal and _alp.check_nominal_verb(wn):
                a.is_nominal = True

    # context verb reclassification (classifyVerb without a tree,
    # src/Alpino.cxx:640-726 mirrored over the token window): hebben is
    # a TIME auxiliary only with a verbal complement; zijn/worden with a
    # participle are passive/perfect, not copulas; a copula needs a
    # predicate.  The per-word lexical guess (_classify_verb) cannot see
    # any of this.
    if alpino_tree is None:
        from tscan_ray.text.alpino import KOPPELS, MODALS

        for k, a in enumerate(anns):
            if a.tag != "WW":
                continue
            # the window ends at a CLAUSAL conjunction; a nominal
            # coordination ("zijn zoon en zijn dochter gezien") does
            # not cut the verb cluster off from its auxiliary
            end = len(anns)
            for j in range(k + 1, len(anns)):
                if (anns[j].tag == "VNW"
                        and anns[j].prop in ("ISPPRON1", "ISPPRON2",
                                             "ISPPRON3")
                        and anns[j].word[:1].isupper()):
                    # run-on clause boundary ("... bakker Hij IS ...",
                    # reference tests/predc-n)
                    end = j
                    break
                if (anns[j].tag == "VNW"
                        and anns[j].lword in ("wie", "wat")
                        and j >= 1 and anns[j - 1].tag == "VZ"):
                    # prepositional wh clause boundary ("is
                    # kinderopvang voor WIE gaat werken",
                    # tests/relativeclauses s10: the embedded verbs
                    # must not demote the copula)
                    end = j
                    break
                if (anns[j].word == ","
                        and j + 1 < len(anns)
                        and anns[j + 1].tag == "WW"
                        and anns[j + 1].prop.startswith("ISPV")):
                    # comma directly followed by a finite = the next
                    # clause ("Toen ik tien WAS , maakten we ...",
                    # tests/flair1 s6: the copula window must not see
                    # the main clause's participle)
                    end = j
                    break
                if (anns[j].word == "," and j + 2 < len(anns)
                        and anns[j + 1].tag == "VNW"
                        and anns[j + 2].tag == "WW"
                        and anns[j + 2].prop.startswith("ISPV")):
                    # comma + pronoun subject + finite = asyndetic next
                    # clause ("oprecht IS , het zijn gewoon ...",
                    # tests/bug4 s7: the is-window stops at the comma)
                    end = j
                    break
                if (anns[j].tag == "VNW"
                        and anns[j].lword in ("die", "dat")
                        and j >= 1 and anns[j - 1].tag in ("N", "SPEC")):
                    # relative clause boundary ("twee dingen DIE je
                    # uit elkaar moet houden", tests/bug4 s7: the
                    # zijn-window must not see the rel's cluster)
                    end = j
                    break
                if anns[j].tag != "VG":
                    continue
                if (anns[j].lword == "maar" and j > 0
                        and anns[j - 1].tag == "BW"
                        and anns[j - 1].lword in ("steeds", "nog",
                                                  "alsmaar", "almaar")):
                    # continuative "steeds maar": advp-internal, no
                    # clause boundary (tests/predc-a)
                    continue
                if anns[j].conjtype == "onder" or any(
                        b.tag == "WW" and b.prop.startswith("ISPV")
                        for b in anns[j + 1:]):
                    end = j
                    break
            later = anns[k + 1:end]
            # verb-final subordinate order: the participle/infinitive
            # sits directly before the finite aux ("gevraagd had",
            # "komen wou") — extend the window backwards over the
            # immediately preceding verb cluster
            back = []
            for j in range(k - 1, -1, -1):
                if anns[j].tag == "WW":
                    if j == 0 and anns[j].prop == "ISINF":
                        # sentence-initial nominalized-infinitive
                        # SUBJECT, not a cluster member ("HUILEN is
                        # prima", tests/bug4 s6: koppel 1)
                        break
                    if (anns[j].prop == "ISINF" and j >= 1
                            and anns[j - 1].tag == "VZ"
                            and anns[j - 1].lword not in ("te", "om")):
                        # nominalized PP-object infinitive, not a
                        # cluster mate ("een recensie over SCHRIJVEN
                        # lijkt mij", tests/dlevel6 s9: koppel 1)
                        break
                    back.append(anns[j])
                else:
                    break
            cluster = later + back
            # prenominal participles are NP-internal adjectives, and a
            # bare infinitive right after a preposition is a
            # nominalized PP object ("bedreven IN REKENEN",
            # tests/dlevel5 s4) — neither is a cluster mate
            def _cluster_ww(b, prop_set) -> bool:
                if b.tag != "WW" or b.prop not in prop_set \
                        or b.position == "PRENOM":
                    return False
                bi2 = next((x for x, a2 in enumerate(anns)
                            if a2 is b), -1)
                return not (bi2 >= 1 and anns[bi2 - 1].tag == "VZ"
                            and anns[bi2 - 1].lword not in ("te", "om")
                            and b.prop == "ISINF")

            has_vd = any(_cluster_ww(b, ("ISVD",)) for b in cluster)
            has_vc = any(_cluster_ww(b, ("ISVD", "ISINF"))
                         for b in cluster)
            predc = False
            skip_past = -1  # consumed PP object ("IS sinds JAREN de
            # beste skier": the predicate follows the PP — tests/predc-n)
            for bi, b in enumerate(later):
                if bi <= skip_past:
                    continue
                if b.prop == "ISLET" or b.tag in ("BW", "LID", "TW",
                                                  "VNW"):
                    continue
                if (b.tag == "VG" and b.lword == "maar" and bi > 0
                        and later[bi - 1].tag == "BW"
                        and later[bi - 1].lword in ("steeds", "nog",
                                                    "alsmaar",
                                                    "almaar")):
                    continue  # continuative "steeds maar"
                if b.tag == "WW":
                    if b.prop in ("ISVD", "ISOD") \
                            and b.position == "PRENOM":
                        # prenominal participle opens the predicate NP
                        # ("is ... het GEWENSTE antewoord", tests/bug4
                        # s20: koppel + predc)
                        predc = True
                    break
                if b.tag == "VZ":
                    if a.lemma not in KOPPELS:
                        break
                    # copula: skip the PP (through its object noun)
                    for bj in range(bi + 1, len(later)):
                        if later[bj].tag in ("VZ", "WW"):
                            skip_past = bj - 1
                            break
                        if later[bj].tag == "N" \
                                or later[bj].prop == "ISNAME":
                            skip_past = bj
                            break
                    else:
                        skip_past = len(later)
                    if skip_past < bi:
                        break
                    continue
                if b.tag in ("ADJ", "N") or b.prop == "ISNAME":
                    predc = True
                break
            nxt_content = next((b for b in later
                                if b.prop != "ISLET"), None)
            if not predc and (nxt_content is None
                              or nxt_content.tag in ("VG", "WW")
                              # a comma directly after the verb closes
                              # its clause: the predicate PRECEDES
                              # ("minder oprecht IS ,", tests/bug4 s7)
                              or (k + 1 < len(anns)
                                  and anns[k + 1].prop == "ISLET"
                                  and anns[k + 1].word == ",")):
                # verb-final subordinate clause: the predicate PRECEDES
                # the copula ("omdat ie moe was", "de beste SKIER van
                # Nederland te ZIJN" — the te marker is skipped).  A
                # verb with its own following content ("Leen IS in
                # tranen als ...") is not clause-final: its preceding
                # NP is the subject, not a predicate (tests/bug4 s2:
                # timeV 1, koppel 0)
                for j in range(k - 1, -1, -1):
                    b = anns[j]
                    if b.prop == "ISLET" or b.tag == "BW" \
                            or b.lword == "te":
                        continue
                    # a bare numeral or demonstrative is a predicate
                    # too ("Toen ik TIEN was", tests/flair1 s6; "als
                    # Piet DAT is", tests/connective5)
                    if (b.tag in ("ADJ", "N", "TW")
                            or b.prop in ("ISNAME", "ISAANW")):
                        predc = True
                    break
            # existential "er zijn/is X": the post-verb NP is the
            # SUBJECT, not a predicate — Alpino gives zijn no predc
            # sibling, so classifyVerb yields TIME_VERB ("er ZIJN geen
            # repen met punten meer", tests/bug1 s2: timeV 1, koppel 0)
            if predc and not has_vc:
                pj = next((j for j in range(k - 1, -1, -1)
                           if anns[j].prop != "ISLET"
                           and anns[j].tag != "BW"), -1)
                if (pj >= 0 and anns[pj].lword == "er") or (
                        later and later[0].lword == "er"):
                    predc = False
            lemma = a.lemma
            if lemma == "worden" and has_vd:
                ww = "PASSIVE_VERB"
            elif lemma in KOPPELS and predc and not has_vc:
                ww = "COPULA"
            elif lemma == "zullen":
                ww = "TIME_VERB"
            elif lemma in _MODAL_LEMMAS or (lemma in MODALS and has_vc):
                ww = "MODAL_VERB"
            elif lemma == "hebben":
                hebben_vc = has_vc
                if has_vc and not has_vd:
                    # a te-infinitive with an object NOUN between the
                    # finite and the te-marker complements the NOUN,
                    # not hebben ("heb het gevoel nergens bij TE
                    # horen", reference tests/npmod s43: HEAD_VERB)
                    inf_i = next((j for j in range(k + 1, len(anns))
                                  if anns[j].tag == "WW"
                                  and anns[j].prop == "ISINF"), -1)
                    if (inf_i >= 2 and anns[inf_i - 1].lword == "te"
                            and any(anns[j].tag == "N"
                                    for j in range(k + 1, inf_i - 1))):
                        hebben_vc = False
                ww = "TIME_VERB" if hebben_vc else "HEAD_VERB"
            elif lemma == "zijn":
                ww = "TIME_VERB"
            else:
                ww = "HEAD_VERB"
            if ww != a.wwform:
                a.wwform = ww
                a.is_content = _check_content(a, False)
                a.is_content_strict = _check_content(a, True)

    # separable-verb resolution (sentence context): a listed particle
    # elsewhere in the sentence gives the verb its full lemma, and the
    # full-lemma-first lookups (verb_sem, lemma_freq — reference
    # src/tscan.cxx:1430-1434, 1640-1650) re-run on the fresh copies.
    # With a tree, classifyVerb above is the authoritative source.
    if lex.separable_verbs and alpino_tree is None:
        sent_words = {a.lword for a in anns}
        for a in anns:
            if a.tag != "WW":
                continue
            parts = lex.separable_verbs.get(a.lemma)
            if not parts:
                continue
            hit = sorted(parts & (sent_words - {a.lword}))
            if hit:
                a.full_lemma = hit[0] + a.lemma
                _apply_full_lemma(a, lex)

    # BVBW intensifier demotion (checkIntensify, src/tscan.cxx:1483-1485
    # + checkModifier, src/Alpino.cxx:968-984): a BVBW intensifier counts
    # only when it MODIFIES — directly below an AP/PPART/PPRES/INF node,
    # or rel=mod under a finite clause (smain/ssub).  Reduced analog
    # over tags: the next token is an adjective/adverb/participle/
    # infinitive, else a free adverbial in a finite sentence (but a
    # copula predicate — "dat is erg" — is predc, not mod: demote).
    if alpino_tree is not None:
        from tscan_ray.text import alpino as _alp

        for i, a in enumerate(anns):
            if a.intensify_type == "BVBW" and not _alp.check_modifier(
                    alpino_tree.word_node(i)):
                a.intensify_type = ""
    for k, a in (enumerate(anns) if alpino_tree is None else ()):
        if a.intensify_type != "BVBW":
            continue
        nxt = next((anns[j] for j in range(k + 1, len(anns))
                    if anns[j].prop != "ISLET"), None)
        if nxt is not None and (
                nxt.tag in ("ADJ", "BW")
                or (nxt.tag == "WW"
                    and nxt.prop in ("ISVD", "ISOD", "ISINF"))):
            continue  # below an AP / ppart / ppres / inf
        prv = next((anns[j] for j in range(k - 1, -1, -1)
                    if anns[j].prop != "ISLET"), None)
        if (prv is None or prv.wwform != "COPULA") and any(
                w.tag == "WW" and w.prop in ("ISPVTGW", "ISPVVERL")
                for w in anns):
            continue  # mod under smain/ssub
        a.intensify_type = ""

    # nominalization, verb-under-NP rule (checkNominal,
    # src/wordstats.cxx:121-138): Alpino hangs nominalized infinitives
    # ("het zwemmen") as pos=verb under an NP node — reduced analog: an
    # infinitive directly preceded by a determiner is nominal.
    for k, a in (enumerate(anns) if alpino_tree is None else ()):
        if a.tag == "WW" and a.prop == "ISINF" and not a.is_nominal:
            prv = next((anns[j] for j in range(k - 1, -1, -1)
                        if anns[j].prop != "ISLET"), None)
            if prv is not None and prv.tag == "LID":
                a.is_nominal = True

    # surprisal attach (W26/T13; Wopr stand-in — text/surprisal.py)
    if lm is not None:
        content_words = [(i, a.lword) for i, a in enumerate(anns) if a.prop != "ISLET"]
        for k, (i, w) in enumerate(content_words):
            prev_w = content_words[k - 1][1] if k > 0 else None
            next_w = content_words[k + 1][1] if k + 1 < len(content_words) else None
            anns[i].lprob_fwd = lm.logprob10(w, prev_w)
            anns[i].lprob_bwd = lm.logprob10_bwd(w, next_w)
        from tscan_ray.text.surprisal import sentence_stats

        fwd = sentence_stats([anns[i].lprob_fwd for i, _ in content_words])
        bwd = sentence_stats([anns[i].lprob_bwd for i, _ in content_words])
        surp = {"fwd": fwd, "bwd": bwd}
        # per-sentence subset means (content / excluding names / both) —
        # the doc level divides their per-sentence SUMS by sentCnt
        # (misc emit, src/structstats.cxx:978-1003)
        def _mean(vals: list[float]) -> float:
            return sum(vals) / len(vals) if vals else float("nan")

        for key, pred in (
            ("content", lambda a: a.is_content),
            ("ex_names", lambda a: a.prop != "ISNAME"),
            ("content_ex_names",
             lambda a: a.is_content and a.prop != "ISNAME"),
        ):
            subset = [i for i, _ in content_words if pred(anns[i])]
            surp["fwd_" + key] = _mean([anns[i].lprob_fwd for i in subset])
            surp["bwd_" + key] = _mean([anns[i].lprob_bwd for i in subset])
        f.surps.append(surp)

    # previous-sentence overlap buffers (src/tscan.cxx:2092-2103)
    wordbuffer: list[str] = []
    lemmabuffer: list[str] = []
    if prev is not None:
        for pw in prev.words:
            if pw.is_overlap_candidate():
                wordbuffer.append(pw.lword)
                lemmabuffer.append(pw.lemma.lower())

    # multiword resolvers operate on lowercased surface words (conn/intensify/
    # formal/prep expr) or lemmas (situations)
    lowers = [a.lword for a in anns]
    lemmas = [a.lemma.lower() for a in anns]
    mw = _mw_tables(lex)

    def scan(words, entry):
        tbl, maxn, firsts = entry
        return _multiword_scan(words, tbl, maxn, firsts=firsts)

    for start, length, t in scan(lowers, mw["conn"]):
        # type goes to the expression head; the covered words' own
        # word-level types are CLEARED (reference resolveConnectives
        # sets sv[i+1..] to NOCONN, src/sentstats.cxx:283-304 — "dan
        # ook" must not also count ook's OPSOMMEND hit); every covered
        # word is flagged isMultiConn (setMultiConn on each)
        anns[start].conn_type = t
        anns[start].is_multi_conn = True
        for k in range(start + 1, start + length):
            anns[k].conn_type = ""
            anns[k].is_multi_conn = True

    # multiword negatives (resolveConnectives src/sentstats.cxx:271-272,
    # 291-306: "afgezien van", "zomin als", "met uitzondering van")
    for k in range(len(lowers) - 1):
        if f"{lowers[k]} {lowers[k + 1]}" in ("afgezien van", "zomin als") \
                or (k + 2 < len(lowers)
                    and f"{lowers[k]} {lowers[k + 1]} {lowers[k + 2]}"
                    == "met uitzondering van"):
            c["propNegCnt"] += 1
    for start, length, t in scan(lemmas, mw["sit"]):
        # reference: only last word of expression keeps the type
        # (src/tscan.cxx:2891-2908)
        anns[start + length - 1].sit_type = t
    intens_hits = scan(lowers, mw["intens"])
    formal_hits = scan(lowers, mw["formal"])
    prep_hits = scan(lowers, mw["vz"])
    # resolveMultiWordIntensify (src/tscan.cxx:2804-2812): the assign
    # lambda runs once per COVERED WORD, bumping combi+total each time;
    # word-level intens counting keeps the words' own single types
    # (setCommonCounts ran before the multi pass in the reference)
    for _s, length, _t in intens_hits:
        c["intensCombiCnt"] += length
        c["intensCnt"] += length
    # resolveMultiWordFormal (src/tscan.cxx:2814-2824): the multi's type
    # is assigned to EVERY covered word, and formal counting happens
    # once per word AFTER that (setFormalCounts loop) — the per-word
    # counting pass below picks these up
    for start, length, t in formal_hits:
        for k in range(start, start + length):
            anns[k].formal_type = t
    c["formalMultiCnt"] += len(formal_hits)
    c["prepExprCnt"] += len(prep_hits)

    # parse-derived resolution pass (T7-T12; reduced deterministic parser).
    # Sentences over the failure threshold mirror an Alpino parse failure
    # (src/structstats.cxx:336-370): Alpino_status counts them and every
    # parse-derived feature of the sentence goes NA (empty SentParse with
    # the d_level=-1 sentinel; correctedClauseCnt stays its floor of 1).
    n_real_tokens = sum(1 for a in anns if a.prop != "ISLET")
    if alpino_tree is not None:
        from tscan_ray.text import alpino as _alp

        parse = _alp.sent_parse_from_tree(
            alpino_tree, anns,
            adverb_type_fn=lambda w: (lex.adverbs.get(w) or ("", ""))[0])
        # NP length counters come from the Frog CHUNKER in the reference
        # (np_length, src/tscan.cxx:2105-2124), not the tree: consume
        # chunk annotations when the precomputed tokens carry them,
        # else keep the reduced NP scan (documented divergence)
        if pre is not None and any(t.chunk for t in pre):
            j = 0
            while j < len(pre):
                t = pre[j]
                if t.chunk == "NP" and t.chunk_begin:
                    parse.np_cnt += 1
                    k = j + 1
                    while (k < len(pre) and pre[k].chunk == "NP"
                           and not pre[k].chunk_begin):
                        k += 1
                    parse.np_size_sum += k - j
                    if t.tag == "LID" and t.word == "een":
                        parse.indef_np_cnt += 1
                    j = k
                else:
                    j += 1
        else:
            rp = depparse.parse_sentence(anns, lex)
            parse.np_cnt = rp.np_cnt
            parse.indef_np_cnt = rp.indef_np_cnt
            parse.np_size_sum = rp.np_size_sum
    elif n_real_tokens > cfg.max_sentence_tokens:
        parse = SentParse()
        c["parseFailCnt"] += 1
    else:
        # ALL-CAPS tokens Frog resolved to SPEC still parse by their
        # lowercase reading in the Alpino tree ("Erg geloofwaardig
        # OPEREERT hij als woordvoerder NIET", tests/mod_adv s1: the
        # word tag is SPEC, the tree hd a verb) — re-analyze on a
        # parse-only clone with the caps forms lowercased
        from tscan_ray.text.tagger import _word_overrides
        _ov = _word_overrides()
        caps_idx = [i for i, a in enumerate(anns)
                    if a.prop == "ISNAME" and len(a.word) >= 2
                    and a.word.isupper() and a.word.isalpha()
                    # only override-driven caps-SPEC forms have a known
                    # lowercase reading (OPEREERT -> opereren); a plain
                    # all-caps NAME (VARA) stays a name in the parse
                    and a.word in _ov]
        parse_anns = anns
        if caps_idx and alpino_tree is None:
            low_words = [a.word.lower() if i in set(caps_idx)
                         else a.word for i, a in enumerate(anns)]
            try:
                low_fold = analyze_sentence(low_words, None, lex, cfg)
                parse_anns = low_fold.words
            except RecursionError:  # defensive: never recurse twice
                parse_anns = anns
        parse = depparse.parse_sentence(
            parse_anns, lex,
            ladder_anns=anns if parse_anns is not anns else None)
    f.parses.append(parse)
    if parse.imperative_idx >= 0:
        anns[parse.imperative_idx].is_imperative = True
    for key, val in (
        ("smainCnt", parse.smain_cnt), ("ssubCnt", parse.ssub_cnt),
        ("sv1Cnt", parse.sv1_cnt), ("clauseCnt", parse.clause_cnt),
        ("correctedClauseCnt", parse.corrected_clause_cnt),
        ("npCnt", parse.np_cnt), ("indefNpCnt", parse.indef_np_cnt),
        ("npSizeSum", parse.np_size_sum), ("npModCnt", parse.np_mod_cnt),
        ("adjNpModCnt", parse.adj_np_mod_cnt), ("betrCnt", parse.betr_cnt),
        ("dLevelGt4Cnt", parse.d_level_gt4),
        ("bijwCnt", parse.bijw_cnt), ("complCnt", parse.compl_cnt),
        ("infinComplBepCnt", parse.infin_compl_bep_cnt),
        ("mvFinInbedCnt", parse.mv_fin_inbed_cnt),
        ("mvInbedCnt", parse.mv_inbed_cnt),
        ("losBetrCnt", parse.los_betr_cnt),
        ("losBijwCnt", parse.los_bijw_cnt),
        ("smainCnjCnt", parse.smain_cnj_cnt),
        ("ssubCnjCnt", parse.ssub_cnj_cnt),
        ("sv1CnjCnt", parse.sv1_cnj_cnt),
        ("smallCnjCnt", parse.small_cnj_cnt),
        ("smallCnjExtraCnt", parse.small_cnj_extra_cnt),
        ("vcModCnt", parse.vc_mod_cnt),
        ("vcModSingleCnt", parse.vc_mod_single_cnt),
    ):
        if val:
            c[key] += val

    question = False
    for ann in anns:
        if ann.lemma and ann.lemma[-1] == "?":
            question = True
        if prev is not None and ann.is_overlap_candidate():
            # getSentenceOverlap (src/wordstats.cxx:333-360)
            ann.word_overlap_cnt = kernels.argument_overlap_count(ann.lword, wordbuffer)
            ann.lemma_overlap_cnt = kernels.argument_overlap_count(
                ann.lemma.lower(), lemmabuffer
            )
        if ann.prop == "ISLET":
            c["letCnt"] += 1
            continue
        if ann.on_stoplist:
            c["stoplistCnt"] += 1
            _common_counts(f, ann)
            continue

        c["wordCnt"] += 1
        if ann.prop == "ISNAME":
            c["nameCnt"] += 1
        if ann.is_content:
            c["contentCnt"] += 1
        if ann.is_content_strict:
            c["contentStrictCnt"] += 1
        if ann.tag == "N":
            c["nounCnt"] += 1
        if ann.tag == "WW":
            c["verbCnt"] += 1
        if ann.tag == "ADJ":
            c["adjCnt"] += 1
        if ann.ner and ann.ner_begin:
            # only entity-INITIAL words count (src/tscan.cxx:2310-2321)
            c["nerCnt"] += 1
            c["ner" + ann.ner + "Cnt"] += 1
        _word_sem_counts(c, ann)
        _compound_counts(f, ann)

        _common_counts(f, ann)

        c["charCnt"] += ann.char_cnt
        c["morphCnt"] += ann.morph_cnt
        if ann.prop != "ISNAME":
            c["charCntExNames"] += ann.char_cnt
            c["morphCntExNames"] += ann.morph_cnt

        s = f.s
        if ann.is_content:
            s["word_freq"] += ann.word_freq_log
            s["lemma_freq"] += ann.lemma_freq_log
            if ann.prop != "ISNAME":
                s["word_freq_n"] += ann.word_freq_log
                s["lemma_freq_n"] += ann.lemma_freq_log
        if ann.is_content_strict:
            s["word_freq_strict"] += ann.word_freq_log
            s["lemma_freq_strict"] += ann.lemma_freq_log
            if ann.prop != "ISNAME":
                s["word_freq_n_strict"] += ann.word_freq_log
                s["lemma_freq_n_strict"] += ann.lemma_freq_log
        if not math.isnan(ann.prevalence_p):
            s["prevalenceP_sum"] += ann.prevalence_p
            s["prevalenceZ_sum"] += ann.prevalence_z
            s["prevalenceCovered"] += 1
            if ann.is_content:  # content-word prevalence (Inhwrd_prev*)
                s["prevalenceContentP_sum"] += ann.prevalence_p
                s["prevalenceContentZ_sum"] += ann.prevalence_z
                s["prevalenceContentCovered"] += 1
        if not math.isnan(ann.lprob_fwd):
            # Wopr per-word sums (src/tscan.cxx:2855-2860 normalizers)
            if ann.is_content:
                s["prob_fwd_content"] += ann.lprob_fwd
                s["prob_bwd_content"] += ann.lprob_bwd
                if ann.prop != "ISNAME":
                    s["prob_fwd_content_ex_names"] += ann.lprob_fwd
                    s["prob_bwd_content_ex_names"] += ann.lprob_bwd
            if ann.prop != "ISNAME":
                s["prob_fwd_ex_names"] += ann.lprob_fwd
                s["prob_bwd_ex_names"] += ann.lprob_bwd

        if ann.is_nominal:
            c["nominalCnt"] += 1
        if ann.f50:
            c["f50Cnt"] += 1
        if ann.f65:
            c["f65Cnt"] += 1
        if ann.f77:
            c["f77Cnt"] += 1
        if ann.f80:
            c["f80Cnt"] += 1

        # cumulative top-k bands (fallthrough switch, src/tscan.cxx:2366-2400)
        # with the content / strict-content variants per band
        if ann.top_freq:
            for band in (1000, 2000, 3000, 5000, 10000, 20000):
                if ann.top_freq <= band:
                    c[f"top{band}Cnt"] += 1
                    if ann.is_content:
                        c[f"top{band}ContentCnt"] += 1
                    if ann.is_content_strict:
                        c[f"top{band}ContentStrictCnt"] += 1

    if question:
        c["questCnt"] = 1
    if c["morphNegCnt"] + c["propNegCnt"] > 1:
        c["multiNegCnt"] = 1
    c["sentCnt"] = 1 if c["wordCnt"] > 0 else 0
    return f


def _word_sem_counts(c: Counter, ann: WordAnn) -> None:
    """The wordSemCounts switch (src/tscan.cxx:2402-2607): per-class sem
    counters + the strict/broad/subjective/nonhuman aggregates."""
    sem = ann.sem_type
    if ann.tag == "N" or ann.prop == "ISNAME":
        if sem in _NOUN_SEM_KEY:
            c[_NOUN_SEM_KEY[sem]] += 1
            if sem in _NOUN_STRICT:
                c["strictNounCnt"] += 1
            if sem in _NOUN_BROAD:
                c["broadNounCnt"] += 1
        else:  # UNFOUND_NOUN / a name with no sem entry
            c["uncoveredNounCnt"] += 1
    elif ann.tag == "ADJ" or ann.sem_hidden_adj:
        if sem in _ADJ_SEM_KEY:
            c[_ADJ_SEM_KEY[sem]] += 1
            if sem in _ADJ_NONHUMAN:
                c["nonhumanAdjCnt"] += 1
            if sem in _ADJ_STRICT:
                c["strictAdjCnt"] += 1
            if sem in _ADJ_BROAD:
                c["broadAdjCnt"] += 1
            if sem in _ADJ_SUBJECTIVE:
                c["subjectiveAdjCnt"] += 1
        else:
            c["uncoveredAdjCnt"] += 1
    elif ann.tag == "WW":
        if sem == "UNFOUND_VERB" or not sem:
            c["uncoveredVerbCnt"] += 1
        else:
            if sem.startswith("abstract"):
                c["abstractWwCnt"] += 1
            elif sem.startswith("concrete"):
                c["concreteWwCnt"] += 1
            else:
                c["undefinedWwCnt"] += 1
            fam = sem.split("_")[-1]
            if fam in _VERB_ATP_KEY:
                c[_VERB_ATP_KEY[fam]] += 1
            elif sem == "undefined":  # UNDEFINED_VERB
                c["undefinedATPCnt"] += 1


def _compound_counts(f: Fold, ann: WordAnn) -> None:
    """Compound / compound-corrected frequency accumulation
    (src/tscan.cxx:2627-2790): nouns split into compound vs non-compound
    branches (corrected stats use the HEAD word's features for
    compounds); non-nouns feed only the *Corr totals."""
    c, s = f.c, f.s

    def bands(top: int, *suffixes: str) -> None:
        if top:
            for band, nm in ((1000, "top1000"), (5000, "top5000"),
                             (20000, "top20000")):
                if top <= band:
                    for suf in suffixes:
                        c[nm + "Cnt" + suf] += 1

    if ann.tag == "N":
        c["charCntNoun"] += ann.char_cnt
        s["word_freq_log_noun"] += ann.word_freq_log
        bands(ann.top_freq, "Noun")
        if ann.is_compound:
            c["compoundCnt"] += 1
            if ann.compound_parts == 3:
                c["compound3Cnt"] += 1
            c["charCntComp"] += ann.char_cnt
            c["charCntHead"] += ann.char_cnt_head
            c["charCntSat"] += ann.char_cnt_sat
            c["charCntNounCorr"] += ann.char_cnt_head
            c["charCntCorr"] += ann.char_cnt_head
            s["word_freq_log_comp"] += ann.word_freq_log
            s["word_freq_log_head"] += ann.word_freq_log_head
            s["word_freq_log_sat"] += ann.word_freq_log_sat
            s["word_freq_log_head_sat"] += ann.word_freq_log_head_sat
            s["word_freq_log_noun_corr"] += ann.word_freq_log_head
            s["word_freq_log_corr"] += ann.word_freq_log_head
            s["word_freq_log_n_corr"] += ann.word_freq_log_head
            if ann.is_content_strict:
                s["word_freq_log_corr_strict"] += ann.word_freq_log_head
                s["word_freq_log_n_corr_strict"] += ann.word_freq_log_head
            bands(ann.top_freq, "Comp")
            bands(ann.top_freq_head, "Head", "NounCorr", "Corr")
            bands(ann.top_freq_sat, "Sat")
        else:
            c["charCntNonComp"] += ann.char_cnt
            c["charCntNounCorr"] += ann.char_cnt
            c["charCntCorr"] += ann.char_cnt
            s["word_freq_log_non_comp"] += ann.word_freq_log
            s["word_freq_log_noun_corr"] += ann.word_freq_log
            s["word_freq_log_corr"] += ann.word_freq_log
            s["word_freq_log_n_corr"] += ann.word_freq_log
            if ann.is_content_strict:
                s["word_freq_log_corr_strict"] += ann.word_freq_log
                s["word_freq_log_n_corr_strict"] += ann.word_freq_log
            bands(ann.top_freq, "NonComp", "NounCorr", "Corr")
    else:
        c["charCntCorr"] += ann.char_cnt
        if ann.is_content:
            s["word_freq_log_corr"] += ann.word_freq_log
            if ann.prop != "ISNAME":
                s["word_freq_log_n_corr"] += ann.word_freq_log
        if ann.is_content_strict:
            s["word_freq_log_corr_strict"] += ann.word_freq_log
            if ann.prop != "ISNAME":
                s["word_freq_log_n_corr_strict"] += ann.word_freq_log
        bands(ann.top_freq, "Corr")


def _common_counts(f: Fold, ann: WordAnn) -> None:
    """setCommonCounts (src/sentstats.cxx:9-238) — on- and off-stoplist words."""
    c = f.c
    c["wordInclCnt"] += 1
    prop_key = {
        "ISNAME": "nameInclCnt", "ISPVVERL": "pastCnt", "ISPVTGW": "presentCnt",
        "ISSUBJ": "subjonctCnt", "ISPPRON1": "pron1Cnt", "ISPPRON2": "pron2Cnt",
        "ISPPRON3": "pron3Cnt", "ISVD": "vdCnt", "ISINF": "infCnt",
        "ISOD": "odCnt",
    }.get(ann.prop)
    if prop_key:
        c[prop_key] += 1
    # participle/infinitive position split (setCommonCounts,
    # src/sentstats.cxx:17-58): prenominal/nominal/free usage
    if ann.prop in ("ISVD", "ISINF", "ISOD"):
        stem = {"ISVD": "vd", "ISINF": "inf", "ISOD": "od"}[ann.prop]
        pos_key = {"PRENOM": "Bv", "NOMIN": "Nw", "VRIJ": "Vrij"}.get(ann.position)
        if pos_key:
            c[stem + pos_key + "Cnt"] += 1
    if ann.prop == "ISNAME":
        f.unique_names[ann.lword] += 1
    tag_key = {
        "N": "nounInclCnt", "ADJ": "adjInclCnt", "WW": "verbInclCnt",
        "VG": "vgCnt", "TSW": "tswCnt", "SPEC": "specCnt", "BW": "bwCnt",
        "VNW": "vnwCnt", "LID": "lidCnt", "TW": "twCnt", "VZ": "vzCnt",
    }.get(ann.tag)
    if tag_key:
        c[tag_key] += 1
    ww_key = {
        "PASSIVE_VERB": "passiveCnt", "MODAL_VERB": "modalCnt",
        "TIME_VERB": "timeVCnt", "COPULA": "koppelCnt",
    }.get(ann.wwform)
    if ww_key:
        c[ww_key] += 1
    if ann.is_prop_neg:
        c["propNegCnt"] += 1
    if ann.is_morph_neg:
        c["morphNegCnt"] += 1
    if ann.is_pers_ref:
        c["persRefCnt"] += 1
    if ann.is_pron_ref:
        c["pronRefCnt"] += 1
    if ann.archaic:
        c["archaicsCnt"] += 1
    if ann.is_imperative:
        c["impCnt"] += 1
    f.unique_words[ann.lword] += 1
    f.unique_lemmas[ann.lemma] += 1
    c["wordOverlapCnt"] += ann.word_overlap_cnt
    c["lemmaOverlapCnt"] += ann.lemma_overlap_cnt
    if ann.is_content:
        c["contentInclCnt"] += 1
        f.unique_contents[ann.lword] += 1
    if ann.is_content_strict:
        c["contentStrictInclCnt"] += 1
        f.unique_contents_strict[ann.lword] += 1
    if ann.afk_type:
        c["afkCnt"] += 1
        c["afk_" + ann.afk_type + "Cnt"] += 1  # 8 Afk::Type domains
    if ann.adverb_type == "GENERAL":
        c["generalAdverbCnt"] += 1
    elif ann.adverb_type == "SPECIFIC":
        c["specificAdverbCnt"] += 1
    # intensifier classes (src/sentstats.cxx:161-192)
    ik = _INTENS_KEY.get(ann.intensify_type)
    if ik:
        c["intensCnt"] += 1
        c[ik] += 1
    # formal classes (setFormalCounts, src/sentstats.cxx:201-238)
    fk = _FORMAL_KEY.get(ann.formal_type)
    if fk:
        c["formalCnt"] += 1
        c[fk] += 1
    # general noun/verb aggregate families (src/tscan.cxx:2609-2625)
    if ann.general_noun_type:
        c["generalNounCnt"] += 1
        for fam in _GENERAL_FAMS.get(ann.general_noun_type, ()):
            c["generalNoun" + fam + "Cnt"] += 1
    if ann.general_verb_type:
        c["generalVerbCnt"] += 1
        for fam in _GENERAL_FAMS.get(ann.general_verb_type, ()):
            c["generalVerb" + fam + "Cnt"] += 1
    if ann.my_class:
        c["myClassCnt"] += 1
    # connectives: per-class counts + unique maps + allConnCnt, which
    # EXCLUDES word-group enumeration (OPSOMMEND_WG) — resolveConnectives
    # (src/sentstats.cxx:425-470)
    if ann.conn_type in _CONN_KEY:
        c[_CONN_KEY[ann.conn_type]] += 1
        f.uniq_add(_CONN_UNIQ[ann.conn_type], ann.lword)
        if ann.conn_type != "OPSOMMEND_WG":
            c["allConnCnt"] += 1
            f.uniq_add("all_conn", ann.lword)
    if ann.sit_type in _SIT_KEY:
        c[_SIT_KEY[ann.sit_type]] += 1
        f.uniq_add(_SIT_UNIQ[ann.sit_type], ann.lemma)


def merge_folds(folds: list[Fold]) -> Fold:
    """structStats::merge (src/structstats.cxx:1374-1695): commutative sums
    + map unions; word lists concatenated in document order."""
    out = Fold()
    for f in folds:
        out.c.update(f.c)
        for k in _SUM_KEYS:
            out.s[k] += f.s[k]
        out.unique_words.update(f.unique_words)
        out.unique_lemmas.update(f.unique_lemmas)
        out.unique_names.update(f.unique_names)
        out.unique_contents.update(f.unique_contents)
        out.unique_contents_strict.update(f.unique_contents_strict)
        for fam, cnt in f.uniq.items():
            out.uniq.setdefault(fam, Counter()).update(cnt)
        out.words.extend(f.words)
        out.parses.extend(f.parses)
        out.surps.extend(f.surps)
    return out


def _doc_overlap(words: list[WordAnn], overlap_size: int) -> tuple[int, int]:
    """50-word sliding-window document overlap (src/tscan.cxx:3039-3090)."""
    non_punct = [w for w in words if w.prop != "ISLET"]
    if len(non_punct) < overlap_size:
        return 0, 0
    wordbuffer: list[str] = []
    lemmabuffer: list[str] = []
    wcnt = lcnt = 0
    for w in non_punct:
        lw, ll = w.lword, w.lemma.lower()
        if len(wordbuffer) >= overlap_size:
            if w.is_overlap_candidate():
                wcnt += kernels.argument_overlap_count(lw, wordbuffer)
                lcnt += kernels.argument_overlap_count(ll, lemmabuffer)
            wordbuffer.pop(0)
            lemmabuffer.pop(0)
        wordbuffer.append(lw)
        lemmabuffer.append(ll)
    return wcnt, lcnt


def _mtld_families(words: list[WordAnn]) -> dict[str, float]:
    """calculate_MTLDs (src/tscan.cxx:1877-1975)."""
    lists: dict[str, list[str]] = {
        "wrd": [], "lem": [], "inhwrd": [], "inhwrd_strict": [], "naam": [],
        "temp_conn": [], "reeks_wg_conn": [], "reeks_zin_conn": [],
        "contr_conn": [], "comp_conn": [], "cause_conn": [],
        "tijd_sit": [], "ruimte_sit": [], "cause_sit": [], "emo_sit": [],
    }
    conn_map = {
        "TEMPOREEL": "temp_conn", "OPSOMMEND_WG": "reeks_wg_conn",
        "OPSOMMEND_ZIN": "reeks_zin_conn", "CONTRASTIEF": "contr_conn",
        "COMPARATIEF": "comp_conn", "CAUSAAL": "cause_conn",
    }
    sit_map = {
        "TIME_SIT": "tijd_sit", "CAUSAL_SIT": "cause_sit",
        "SPACE_SIT": "ruimte_sit", "EMO_SIT": "emo_sit",
    }
    for w in words:
        if w.prop == "ISLET":
            continue
        lists["wrd"].append(w.lword)
        lists["lem"].append(w.lemma.lower())
        if w.is_content:
            lists["inhwrd"].append(w.lword)
        if w.is_content_strict:
            lists["inhwrd_strict"].append(w.lword)
        if w.prop == "ISNAME":
            lists["naam"].append(w.lword)
        ck = conn_map.get(w.conn_type)
        if ck:
            lists[ck].append(w.lword)
        sk = sit_map.get(w.sit_type)
        if sk:
            lists[sk].append(w.lemma)
    out = {f"MTLD_{k}": kernels.average_mtld(v) for k, v in lists.items()}
    # combined connective MTLD excludes reeks_wg (src/tscan.cxx:1963-1974).
    # QUIRK mirrored exactly: the reference's average_mtld REVERSES its
    # argument in place (src/tscan.cxx:1857-1875), and all_conn is built
    # from the per-class lists AFTER their own MTLDs ran — i.e. from the
    # reversed lists (golden bug3 all_conn_mtld = 8, not 8.48)
    all_conn = (lists["temp_conn"][::-1] + lists["reeks_zin_conn"][::-1]
                + lists["contr_conn"][::-1] + lists["comp_conn"][::-1]
                + lists["cause_conn"][::-1])
    out["MTLD_alle_conn"] = kernels.average_mtld(all_conn)
    return out


def analyze_document(
    text: str,
    lex: Lexicons,
    cfg: EngineConfig,
    lm,
    annotations: list[list[list[TokenAnnotation]]] | None = None,
    tree_lookup=None,
) -> list[list[Fold]]:
    """The docStats walk (src/tscan.cxx:3092-3127): one analyzed sentence
    Fold per sentence, grouped by paragraph.  Every text output (the
    document, paragraph, sentence and word tables and the FoLiA XML) is
    emitted from this one tree, as the reference emits all its levels
    from one docStats (src/docstats.cxx:24-94).

    Tokens come from ``annotations`` (paragraphs of sentences of
    TokenAnnotation, replacing segmentation + the heuristic tagger) or
    from ``segment(text)``.  The prev-sentence pointer resets per
    paragraph (src/tscan.cxx:3018).  ``tree_lookup`` maps a tokenized
    sentence string to an ``alpino.AlpTree`` (or None: reduced parser) —
    the reference's alpino_lookup pattern (src/tscan.cxx:3237-3262).  It
    is called exactly once per sentence, in document order, which the
    stateful lookup of ``sources/folia.annotations_from_json`` relies on.
    """
    out: list[list[Fold]] = []
    for para in (annotations if annotations is not None else segment(text)):
        prev: Fold | None = None
        folds: list[Fold] = []
        for sent in para:
            pre = sent if annotations is not None else None
            toks = [t.word for t in sent] if pre is not None else sent
            tree = (tree_lookup(" ".join(toks))
                    if tree_lookup is not None else None)
            prev = analyze_sentence(toks, prev, lex, cfg, lm=lm, pre=pre,
                                    alpino_tree=tree)
            folds.append(prev)
        out.append(folds)
    return out


def paragraph_al(folds: list[Fold]) -> tuple[float, float]:
    """parStats::al_gem/al_max: getMeanAL/getHighestAL over the
    paragraph's sentences (src/structstats.cxx:1693-1694)."""
    parses = [f.parses[0] for f in folds if f.parses]
    return (depparse.doc_mean_al([p.al_gem for p in parses]),
            depparse.doc_mean_al([p.al_max for p in parses]))


def emit_document(folds_by_par: list[list[Fold]], cfg: EngineConfig,
                  **emit_kw) -> dict[str, float]:
    """Document feature vector over :func:`analyze_document`'s folds:
    merge-then-normalize, with the doc-level AL averaged over PARAGRAPH
    values (two-level rollup)."""
    doc = merge_folds([f for folds in folds_by_par for f in folds])
    doc.par_al = [paragraph_al(folds) for folds in folds_by_par]
    return _emit_doc(doc, len(folds_by_par), cfg, **emit_kw)


def emit_paragraphs(folds_by_par: list[list[Fold]],
                    cfg: EngineConfig) -> list[dict[str, float]]:
    """Paragraph-level feature vectors — the reference's 4th CSV level
    (parStats, src/docstats.cxx:24-94): a parStats IS a structStats, so
    each paragraph gets the SAME emit as the document, computed over the
    paragraph's own merged sentence folds (paragraph-scoped MTLD /
    frequency normalization, src/tscan.cxx:3026-3034)."""
    return [_emit_doc(merge_folds(folds), 1, cfg) for folds in folds_by_par]


def featurize_document(
    text: str,
    lex: Lexicons | None = None,
    cfg: EngineConfig = DEFAULT_CONFIG,
    lm=None,
    annotations: list[list[list[TokenAnnotation]]] | None = None,
    tree_lookup=None,
) -> dict[str, float]:
    """Compute the full document feature vector for one text.

    ``lm`` is the surprisal lookup LM (default: unigram from the packaged
    lexicon; pass a corpus-fitted BigramLM for real context sensitivity).
    ``annotations``/``tree_lookup``: precomputed Frog/Alpino output, as
    in :func:`analyze_document`; sentences without a tree fall back to
    the reduced parser.  Returns a flat dict whose keys are
    :func:`feature_names`, in order.
    """
    out = emit_document(_walk(text, lex, cfg, lm, annotations, tree_lookup),
                        cfg)
    return {k: out[k] for k in feature_names(cfg)}


def _walk(text, lex, cfg, lm, annotations=None, tree_lookup=None):
    """:func:`analyze_document`, the packaged lexicons and LM standing in
    for a ``None`` ``lex`` or ``lm``."""
    if lm is None:
        from tscan_ray.text.surprisal import default_lm

        lm = default_lm()
    return analyze_document(text, lex or default_lexicons(), cfg, lm,
                            annotations, tree_lookup)


class _PlainOut(dict):
    """Emit dict for the hot path: section markers are no-ops."""

    __slots__ = ()

    def sec(self, name: str) -> None:  # pragma: no cover - trivial
        pass


class _SectionDict(dict):
    """Emit dict that records which section each column came from —
    used once per process to record ``feature_schema()``."""

    def __init__(self) -> None:
        super().__init__()
        self._section = "status"
        self.sections: dict[str, list[str]] = {}

    def sec(self, name: str) -> None:
        self._section = name

    def __setitem__(self, k, v) -> None:
        if k not in self:
            self.sections.setdefault(self._section, []).append(k)
        super().__setitem__(k, v)

    def setdefault(self, k, default=None):
        # dict.setdefault bypasses __setitem__ in CPython; route through
        # it so late setdefault-ed columns are still attributed
        if k not in self:
            self[k] = default
        return self[k]


# user-extension surface (SURVEY §2.10 "feature-group plugin registry",
# mirroring the reference's one-header/emit-pair-per-CSV-section design,
# src/structstats.cxx:65-83): a registered group contributes extra
# columns computed from the merged document Fold.  Plugins run after the
# built-in sections so they may read built-in columns from ``out``.
_CUSTOM_GROUPS: dict[str, Any] = {}


def register_feature_group(name: str, fn) -> None:
    """Register a custom feature group.  ``fn(doc: Fold, out: dict,
    cfg: EngineConfig) -> dict[str, float]`` returns the group's columns
    (it may read — but not overwrite — built-in columns via ``out``).
    The group joins ``feature_schema()``, typed from the dummy document,
    and honors ``cfg.skip_groups`` like any built-in section."""
    if name in _CUSTOM_GROUPS or name in feature_groups():
        raise ValueError(f"feature group {name!r} already exists")
    _CUSTOM_GROUPS[name] = fn
    _SCHEMAS.clear()


def unregister_feature_group(name: str) -> None:
    _CUSTOM_GROUPS.pop(name, None)
    _SCHEMAS.clear()


def set_custom_groups(groups: dict) -> None:
    """Make this process's registry exactly ``groups``, a snapshot of the
    registry where a pipeline was built (a worker runs job after job).
    The recorded schemas stay only for the very functions already
    registered: closures of one factory share code, not captured values."""
    if list(groups.items()) != list(_CUSTOM_GROUPS.items()):
        _SCHEMAS.clear()
    _CUSTOM_GROUPS.clear()
    _CUSTOM_GROUPS.update(groups)


# cfg.skip_groups -> feature_schema(), cleared when the registry changes
_SCHEMAS: dict[tuple, pa.Schema] = {}


def feature_schema(cfg: EngineConfig = DEFAULT_CONFIG) -> pa.Schema:
    """The document vector, recorded once per process from one emit of a
    dummy document: each column's name and order, its group (the field
    metadata's ``group``) and its Arrow type, int64 where the emitted
    value is an ``int`` and float64 otherwise.  Built-in groups follow
    the reference's CSV section order; ``cfg.skip_groups`` are left out.
    Every document and paragraph table has exactly these columns, typed
    from the packaged lexicons and LM whatever a stage's own are."""
    key = tuple(cfg.skip_groups)
    if key not in _SCHEMAS:
        out = emit_document(_walk("x .", None, cfg, None), cfg,
                            out_cls=_SectionDict)
        _SCHEMAS[key] = pa.schema([
            pa.field(k, pa.int64() if isinstance(out[k], int)
                     else pa.float64(), metadata={"group": g})
            for g, cols in out.sections.items() if g not in key
            for k in cols])
    return _SCHEMAS[key]


def feature_groups(cfg: EngineConfig = DEFAULT_CONFIG) -> dict[str, list[str]]:
    """Group name -> ordered column names, from :func:`feature_schema`."""
    groups: dict[str, list[str]] = {}
    for f in feature_schema(cfg):
        groups.setdefault(f.metadata[b"group"].decode(), []).append(f.name)
    return groups


def feature_names(cfg: EngineConfig = DEFAULT_CONFIG) -> list[str]:
    """The document vector's column names, from :func:`feature_schema`."""
    return feature_schema(cfg).names


def _emit_doc(doc: Fold, par_cnt: int, cfg: EngineConfig,
              out_cls=_PlainOut):
    """The full structStats CSV emit (src/structstats.cxx:85-1049), in the
    reference's section order and with the reference's column names and
    formulas.  Raw counters are appended after the derived columns (the
    reference keeps them in FoLiA metrics; here they are plain columns).
    """
    c, s = doc.c, doc.s
    out = out_cls()
    wc = c["wordCnt"]
    wic = c["wordInclCnt"]
    n_sent = c["sentCnt"]
    ccc = c["correctedClauseCnt"]
    covered_nouns = c["nounCnt"] + c["nameCnt"] - c["uncoveredNounCnt"]
    covered_adj = c["adjCnt"] - c["uncoveredAdjCnt"]
    covered_verbs = c["verbCnt"] - c["uncoveredVerbCnt"]
    bijzin_cnt = c["betrCnt"] + c["bijwCnt"] + c["complCnt"]
    np_mod_corr = max(0, c["npModCnt"] - c["betrCnt"])
    vc_mod_corr = max(0, c["vcModCnt"] - c["bijwCnt"])
    mt = _mtld_families(doc.words)

    out["Alpino_status"] = int(c["parseFailCnt"])

    # --- topPredictors (src/structstats.cxx:123-163) ----------------------

    out.sec("topPredictors")
    wrd_freq_log_zn_corr = proportion(s["word_freq_log_n_corr"],
                                      c["contentCnt"] - c["nameCnt"])
    out["wrd_freq_log_zn_corr"] = wrd_freq_log_zn_corr
    out["wrd_freq_zn_log"] = proportion(s["word_freq_n"],
                                        c["contentCnt"] - c["nameCnt"])
    conc_nw_ruim_p = proportion(c["broadNounCnt"], covered_nouns)
    out["Conc_nw_ruim_p"] = conc_nw_ruim_p
    out["Conc_nw_strikt_p"] = proportion(c["strictNounCnt"], covered_nouns)
    alg_nw_d = density(c["generalNounCnt"], wc)
    out["Alg_nw_d"] = alg_nw_d
    out["Pers_ref_d"] = density(c["persRefCnt"], wic)
    out["Pers_vnw_d"] = density(c["pron1Cnt"] + c["pron2Cnt"] + c["pron3Cnt"], wic)
    out["Wrd_per_zin"] = proportion(wic, n_sent)
    out["Wrd_per_dz"] = proportion(wic, ccc)
    inhwrd_dz_zonder_abw = proportion(c["contentStrictInclCnt"], ccc)
    out["Inhwrd_dz_zonder_abw"] = inhwrd_dz_zonder_abw
    # docStats AL = mean over PARAGRAPH means, each a mean over that
    # paragraph's sentences (structStats::getMeanAL runs per level over
    # DIRECT children, src/structstats.cxx:28-54); single-level folds
    # (empty par_al) fall back to the flat per-sentence mean.
    if doc.par_al:
        al_max = depparse.doc_mean_al([m for _, m in doc.par_al])
    else:
        al_max = depparse.doc_mean_al([p.al_max for p in doc.parses])
    out["AL_max"] = al_max
    out["Bijzin_per_zin"] = proportion(bijzin_cnt + c["infinComplBepCnt"], n_sent)
    bijv_bep_dz_zbijzin = proportion(np_mod_corr, ccc)
    out["Bijv_bep_dz_zbijzin"] = bijv_bep_dz_zbijzin
    out["Extra_KConj_dz"] = proportion(c["smallCnjExtraCnt"], ccc)
    out["MTLD_inhwrd_zonder_abw"] = mt["MTLD_inhwrd_strict"]

    # --- wordDifficulties (src/structstats.cxx:165-235) -------------------

    out.sec("wordDifficulties")
    out["Let_per_wrd"] = proportion(c["charCnt"], wc)
    out["Wrd_per_let"] = proportion(wc, c["charCnt"])
    out["Let_per_wrd_zn"] = proportion(c["charCntExNames"], wc - c["nameCnt"])
    out["Wrd_per_let_zn"] = proportion(wc - c["nameCnt"], c["charCntExNames"])
    out["Morf_per_wrd"] = proportion(c["morphCnt"], wc)
    out["Wrd_per_morf"] = proportion(wc, c["morphCnt"])
    out["Morf_per_wrd_zn"] = proportion(c["morphCntExNames"], wc - c["nameCnt"])
    out["Wrd_per_morf_zn"] = proportion(wc - c["nameCnt"], c["morphCntExNames"])
    out["Namen_p"] = proportion(c["nameCnt"], c["nameCnt"] + c["nounCnt"])
    out["Namen_d"] = density(c["nameCnt"], wc)
    out["Wrd_prev"] = proportion(s["prevalenceP_sum"], s["prevalenceCovered"])
    out["Wrd_prev_z"] = proportion(s["prevalenceZ_sum"], s["prevalenceCovered"])
    out["Inhwrd_prev"] = proportion(s["prevalenceContentP_sum"],
                                    s["prevalenceContentCovered"])
    out["Inhwrd_prev_z"] = proportion(s["prevalenceContentZ_sum"],
                                      s["prevalenceContentCovered"])
    out["Dekking_inhwrd_prev"] = proportion(s["prevalenceContentCovered"],
                                            c["contentCnt"])
    out["Freq50_staph"] = proportion(c["f50Cnt"], wc)
    out["Freq65_Staph"] = proportion(c["f65Cnt"], wc)
    out["Freq77_Staph"] = proportion(c["f77Cnt"], wc)
    out["Freq80_Staph"] = proportion(c["f80Cnt"], wc)
    out["Wrd_freq_log"] = proportion(s["word_freq"], c["contentCnt"])
    out["Lem_freq_log"] = proportion(s["lemma_freq"], c["contentCnt"])
    out["Lem_freq_zn_log"] = proportion(s["lemma_freq_n"],
                                        c["contentCnt"] - c["nameCnt"])
    out["Wrd_freq_log_zonder_abw"] = proportion(s["word_freq_strict"],
                                                c["contentStrictCnt"])
    out["Wrd_freq_zn_log_zonder_abw"] = proportion(
        s["word_freq_n_strict"], c["contentStrictCnt"] - c["nameCnt"])
    out["Lem_freq_log_zonder_abw"] = proportion(s["lemma_freq_strict"],
                                                c["contentStrictCnt"])
    out["Lem_freq_zn_log_zonder_abw"] = proportion(
        s["lemma_freq_n_strict"], c["contentStrictCnt"] - c["nameCnt"])
    for band in (1000, 2000, 3000, 5000, 10000, 20000):
        out[f"Freq{band}"] = proportion(c[f"top{band}Cnt"], wc)
    for band in (1000, 2000, 3000, 5000, 10000, 20000):
        out[f"Freq{band}_inhwrd"] = proportion(c[f"top{band}ContentCnt"],
                                               c["contentCnt"])
    for band in (1000, 2000, 3000, 5000, 10000, 20000):
        out[f"Freq{band}_inhwrd_zonder_abw"] = proportion(
            c[f"top{band}ContentStrictCnt"], c["contentStrictCnt"])

    # --- compound (src/structstats.cxx:237-302) ---------------------------

    out.sec("compound")
    non_compound_cnt = c["nounCnt"] - c["compoundCnt"]
    out["Samenst_d"] = density(c["compoundCnt"], wc)
    out["Samenst_p"] = proportion(c["compoundCnt"], c["nounCnt"])
    out["Samenst3_d"] = density(c["compound3Cnt"], wc)
    out["Samenst3_p"] = proportion(c["compound3Cnt"], c["nounCnt"])
    out["Let_per_wrd_nw"] = proportion(c["charCntNoun"], c["nounCnt"])
    out["Let_per_wrd_nsam"] = proportion(c["charCntNonComp"], non_compound_cnt)
    out["Let_per_wrd_sam"] = proportion(c["charCntComp"], c["compoundCnt"])
    out["Let_per_wrd_hfdwrd"] = proportion(c["charCntHead"], c["compoundCnt"])
    out["Let_per_wrd_satwrd"] = proportion(c["charCntSat"], c["compoundCnt"])
    out["Let_per_wrd_nw_corr"] = proportion(c["charCntNounCorr"], c["nounCnt"])
    out["Let_per_wrd_corr"] = proportion(c["charCntCorr"], wc)
    out["Wrd_freq_log_nw"] = proportion(s["word_freq_log_noun"], c["nounCnt"])
    out["Wrd_freq_log_ong_nw"] = proportion(s["word_freq_log_non_comp"],
                                            non_compound_cnt)
    out["Wrd_freq_log_sam_nw"] = proportion(s["word_freq_log_comp"],
                                            c["compoundCnt"])
    out["Wrd_freq_log_hfdwrd"] = proportion(s["word_freq_log_head"],
                                            c["compoundCnt"])
    out["Wrd_freq_log_satwrd"] = proportion(s["word_freq_log_sat"],
                                            c["compoundCnt"])
    out["Wrd_freq_log_(hfd_sat)"] = proportion(s["word_freq_log_head_sat"],
                                               c["compoundCnt"])
    out["Wrd_freq_log_nw_corr"] = proportion(s["word_freq_log_noun_corr"],
                                             c["nounCnt"])
    out["Wrd_freq_log_corr"] = proportion(s["word_freq_log_corr"],
                                          c["contentCnt"])
    out["Wrd_freq_log_corr_zonder_abw"] = proportion(
        s["word_freq_log_corr_strict"], c["contentStrictCnt"])
    out["Wrd_freq_log_zn_corr_zonder_abw"] = proportion(
        s["word_freq_log_n_corr_strict"], c["contentStrictCnt"] - c["nameCnt"])
    for band in (1000, 5000, 20000):
        out[f"Freq{band}_nw"] = proportion(c[f"top{band}CntNoun"], c["nounCnt"])
    for band in (1000, 5000, 20000):
        out[f"Freq{band}_nsam_nw"] = proportion(c[f"top{band}CntNonComp"],
                                                non_compound_cnt)
    for band in (1000, 5000, 20000):
        out[f"Freq{band}_sam_nw"] = proportion(c[f"top{band}CntComp"],
                                               c["compoundCnt"])
    for band in (1000, 5000, 20000):
        out[f"Freq{band}_hfdwrd_nw"] = proportion(c[f"top{band}CntHead"],
                                                  c["compoundCnt"])
    for band in (1000, 5000, 20000):
        out[f"Freq{band}_satwrd_nw"] = proportion(c[f"top{band}CntSat"],
                                                  c["compoundCnt"])
    for band in (1000, 5000, 20000):
        out[f"Freq{band}_nw_corr"] = proportion(c[f"top{band}CntNounCorr"],
                                                c["nounCnt"])
    for band in (1000, 5000, 20000):
        out[f"Freq{band}_corr"] = proportion(c[f"top{band}CntCorr"], wc)

    # --- sentDifficulties (src/structstats.cxx:304-410) -------------------

    out.sec("sentDifficulties")
    out["Zin_per_wrd"] = proportion(n_sent, wic)
    out["Dzin_per_wrd"] = proportion(ccc, wic)
    out["Wrd_per_nwg"] = proportion(wic, n_sent)
    out["Betr_bijzin_per_zin"] = proportion(c["betrCnt"], n_sent)
    out["Bijw_bijzin_per_zin"] = proportion(c["bijwCnt"], n_sent)
    out["Compl_bijzin_per_zin"] = proportion(c["complCnt"], n_sent)
    out["Fin_bijzin_per_zin"] = proportion(bijzin_cnt, n_sent)
    out["Mv_fin_inbed_per_zin"] = proportion(c["mvFinInbedCnt"], n_sent)
    out["Infin_compl_bep_per_zin"] = proportion(c["infinComplBepCnt"], n_sent)
    out["Mv_inbed_per_zin"] = proportion(c["mvInbedCnt"], n_sent)
    out["Betr_bijzin_los"] = proportion(c["losBetrCnt"], n_sent)
    out["Bijw_compl_bijzin_los"] = proportion(c["losBijwCnt"], n_sent)
    out["Pv_hzin_per_zin"] = proportion(c["smainCnt"], n_sent)
    out["Pv_bijzin_per_zin"] = proportion(c["ssubCnt"], n_sent)
    out["Pv_ww1_per_zin"] = proportion(c["sv1Cnt"], n_sent)
    out["Hzin_conj"] = proportion(c["smainCnjCnt"], n_sent)
    out["Bijzin_conj"] = proportion(c["ssubCnjCnt"], n_sent)
    out["Ww1_conj"] = proportion(c["sv1CnjCnt"], n_sent)
    out["Pv_Alpino_per_zin"] = proportion(c["clauseCnt"], n_sent)
    frog_clause_cnt = c["pastCnt"] + c["presentCnt"]
    out["Pv_Frog_d"] = density(frog_clause_cnt, wic)
    out["Pv_Frog_per_zin"] = proportion(frog_clause_cnt, n_sent)
    dlevel_sum = depparse.merge_d_level([p.d_level for p in doc.parses])
    out["D_level"] = (proportion(dlevel_sum, n_sent)
                      if dlevel_sum >= 0 else NA)
    out["D_level_gt4_p"] = proportion(c["dLevelGt4Cnt"], n_sent)
    out["Nom_d"] = density(c["nominalCnt"], wc)
    out["Lijdv_d"] = density(c["passiveCnt"], wic)
    out["Lijdv_dz"] = proportion(c["passiveCnt"], ccc)
    out["Ontk_zin_d"] = density(c["propNegCnt"], wic)
    out["Ontk_zin_dz"] = proportion(c["propNegCnt"], ccc)
    out["Ontk_morf_d"] = density(c["morphNegCnt"], wic)
    out["Ontk_morf_dz"] = proportion(c["morphNegCnt"], ccc)
    out["Ontk_tot_d"] = density(c["propNegCnt"] + c["morphNegCnt"], wic)
    out["Ontk_tot_dz"] = proportion(c["propNegCnt"] + c["morphNegCnt"], ccc)
    out["Meerv_ontk_d"] = density(c["multiNegCnt"], wic)
    out["Meerv_ontk_dz"] = proportion(c["multiNegCnt"], ccc)
    # MMtoString per DD type: mean of the doc-pooled distance bag
    pooled: dict[str, list[int]] = {}
    for p in doc.parses:
        for t, vals in p.distances.items():
            pooled.setdefault(t, []).extend(vals)
    _AL_NAME = {
        "SUB_VERB": "AL_sub_ww", "OBJ1_VERB": "AL_ob_ww",
        "OBJ2_VERB": "AL_indirob_ww", "VERB_PP": "AL_ww_vzg",
        "NOUN_DET": "AL_lidw_znw", "PREP_OBJ1": "AL_vz_znw",
        "VERB_VC": "AL_ww_wwvc", "COMP_BODY": "AL_vg_wwbijzin",
        "CRD_CNJ": "AL_vg_conj", "VERB_COMP": "AL_vg_wwhoofdzin",
        "NOUN_VC": "AL_znw_bijzin", "VERB_SVP": "AL_ww_schdw",
        "VERB_PREDC_N": "AL_ww_znwpred", "VERB_PREDC_A": "AL_ww_bnwpred",
        "VERB_MOD_A": "AL_ww_bnwbwp", "VERB_MOD_BW": "AL_ww_bwbwp",
        "VERB_NOUN": "AL_ww_znwbwp",
    }
    for t in DD_TYPES:
        vals = pooled.get(t)
        out[_AL_NAME[t]] = (sum(vals) / len(vals)) if vals else NA
    out["AL_gem"] = (depparse.doc_mean_al([g for g, _ in doc.par_al])
                     if doc.par_al
                     else depparse.doc_mean_al([p.al_gem for p in doc.parses]))

    # --- information density (src/structstats.cxx:411-518) ----------------

    out.sec("infoDensity")
    out["Bijw_bep_d"] = density(c["vcModCnt"], wic)
    out["Bijw_bep_dz"] = proportion(c["vcModCnt"], ccc)
    out["Bijw_bep_dz_zbijzin"] = proportion(vc_mod_corr, ccc)
    out["Bijw_bep_alg_d"] = density(c["vcModSingleCnt"], wic)
    out["Bijw_bep_alg_dz"] = proportion(c["vcModSingleCnt"], ccc)
    out["Bijv_bep_d"] = density(c["npModCnt"], wic)
    out["Bijv_bep_dz"] = proportion(c["npModCnt"], ccc)
    out["Attr_bijv_nw_d"] = density(c["adjNpModCnt"], wic)
    out["Attr_bijv_nw_dz"] = proportion(c["adjNpModCnt"], ccc)
    out["Ov_bijv_bep_d"] = density(c["npModCnt"] - c["adjNpModCnt"], wic)
    out["Ov_bijv_bep_dz"] = proportion(c["npModCnt"] - c["adjNpModCnt"], ccc)
    out["KConj_per_zin"] = proportion(c["smallCnjCnt"], n_sent)
    out["Extra_KConj_per_zin"] = proportion(c["smallCnjExtraCnt"], n_sent)
    out["KConj_dz"] = proportion(c["smallCnjCnt"], ccc)
    props = vc_mod_corr + np_mod_corr + c["smallCnjExtraCnt"]
    props_pr = proportion(props, ccc)
    out["Props_dz_tot"] = (props_pr + 1.0) if not math.isnan(props_pr) else NA
    out["TTR_wrd"] = proportion(len(doc.unique_words), wic)
    out["MTLD_wrd"] = mt["MTLD_wrd"]
    out["TTR_lem"] = proportion(len(doc.unique_lemmas), wic)
    out["MTLD_lem"] = mt["MTLD_lem"]
    out["TTR_namen"] = proportion(len(doc.unique_names), c["nameInclCnt"])
    out["MTLD_namen"] = mt["MTLD_naam"]
    out["TTR_inhwrd"] = proportion(len(doc.unique_contents), c["contentInclCnt"])
    out["MTLD_inhwrd"] = mt["MTLD_inhwrd"]
    out["TTR_inhwrd_zonder_abw"] = proportion(
        len(doc.unique_contents_strict), c["contentStrictInclCnt"])
    out["Inhwrd_d"] = density(c["contentInclCnt"], wic)
    out["Inhwrd_dz"] = proportion(c["contentInclCnt"], ccc)
    out["Inhwrd_d_zonder_abw"] = density(c["contentStrictInclCnt"], wic)
    out["Zeldz_index"] = kernels.rarity(dict(doc.unique_lemmas),
                                        cfg.rarity_level)
    out["Vnw_ref_d"] = density(c["pronRefCnt"], wic)
    out["Vnw_ref_dz"] = proportion(c["pronRefCnt"], ccc)
    out["Arg_over_vzin_d"] = density(c["wordOverlapCnt"], wic)
    out["Arg_over_vzin_dz"] = proportion(c["wordOverlapCnt"], ccc)
    out["Lem_over_vzin_d"] = density(c["lemmaOverlapCnt"], wic)
    out["Lem_over_vzin_dz"] = proportion(c["lemmaOverlapCnt"], ccc)
    dw, dl = _doc_overlap(doc.words, cfg.overlap_size)
    out["Arg_over_buf_d"] = density(dw, wic - cfg.overlap_size)
    out["Arg_over_buf_dz"] = proportion(dw, ccc)
    out["Lem_over_buf_d"] = density(dl, wic - cfg.overlap_size)
    out["Lem_over_buf_dz"] = proportion(dl, ccc)
    out["Onbep_nwg_p"] = proportion(c["indefNpCnt"], c["npCnt"])
    out["Onbep_nwg_dz"] = proportion(c["indefNpCnt"], ccc)

    # --- coherence (src/structstats.cxx:520-577) --------------------------

    out.sec("coherence")
    def _uniq_n(fam: str) -> int:
        return len(doc.uniq.get(fam, ()))

    out["Conn_d"] = density(c["allConnCnt"], wic)
    out["Conn_dz"] = proportion(c["allConnCnt"], ccc)
    out["Conn_TTR"] = proportion(_uniq_n("all_conn"), c["allConnCnt"])
    out["Conn_MTLD"] = mt["MTLD_alle_conn"]
    for label, cnt_key, fam, mtld_key in (
        ("temp", "tempConnCnt", "temp_conn", "MTLD_temp_conn"),
        # NOTE: the reference emits reeks_zin_conn_mtld for BOTH reeks_wg
        # and reeks_zin (src/structstats.cxx:532-539) — mirrored verbatim
        ("reeks_wg", "opsomWgConnCnt", "reeks_wg_conn", "MTLD_reeks_zin_conn"),
        ("reeks_zin", "opsomZinConnCnt", "reeks_zin_conn", "MTLD_reeks_zin_conn"),
        ("contr", "contrastConnCnt", "contr_conn", "MTLD_contr_conn"),
        ("comp", "comparConnCnt", "comp_conn", "MTLD_comp_conn"),
        ("caus", "causeConnCnt", "cause_conn", "MTLD_cause_conn"),
    ):
        out[f"Conn_{label}_d"] = density(c[cnt_key], wic)
        out[f"Conn_{label}_dz"] = proportion(c[cnt_key], ccc)
        out[f"Conn_{label}_TTR"] = proportion(_uniq_n(fam), c[cnt_key])
        out[f"Conn_{label}_MTLD"] = mt[mtld_key]
    out["Causaal_d"] = density(c["causalSitCnt"], wic)
    out["Ruimte_d"] = density(c["spaceSitCnt"], wic)
    out["Tijd_d"] = density(c["timeSitCnt"], wic)
    out["Emotie_d"] = density(c["emoSitCnt"], wic)
    out["Causaal_TTR"] = proportion(_uniq_n("cause_sits"), c["causalSitCnt"])
    out["Causaal_MTLD"] = mt["MTLD_cause_sit"]
    out["Ruimte_TTR"] = proportion(_uniq_n("ruimte_sits"), c["spaceSitCnt"])
    out["Ruimte_MTLD"] = mt["MTLD_ruimte_sit"]
    out["Tijd_TTR"] = proportion(_uniq_n("tijd_sits"), c["timeSitCnt"])
    out["Tijd_MTLD"] = mt["MTLD_tijd_sit"]
    out["Emotie_TTR"] = proportion(_uniq_n("emotion_sits"), c["emoSitCnt"])
    out["Emotie_MTLD"] = mt["MTLD_emo_sit"]

    # --- concreteness (src/structstats.cxx:579-789) -----------------------

    out.sec("concreteness")
    out["Conc_nw_strikt_d"] = density(c["strictNounCnt"], wc)
    out["Conc_nw_ruim_d"] = density(c["broadNounCnt"], wc)
    for label, key in (
        ("Pers_nw", "humanCnt"), ("PlantDier_nw", "nonHumanCnt"),
        ("Gebr_vw_nw", "artefactCnt"), ("Subst_conc_nw", "substanceConcCnt"),
        ("Voed_verz_nw", "foodcareCnt"), ("Concr_ov_nw", "concrotherCnt"),
        ("Gebeuren_conc_nw", "dynamicConcCnt"), ("Plaats_nw", "placeCnt"),
        ("Tijd_nw", "timeCnt"), ("Maat_nw", "measureCnt"),
        ("Subst_abstr_nw", "substanceAbstrCnt"),
        ("Gebeuren_abstr_nw", "dynamicAbstrCnt"),
        ("Organisatie_nw", "institutCnt"), ("Ov_abstr_nw", "nonDynamicCnt"),
    ):
        out[f"{label}_p"] = proportion(c[key], covered_nouns)
        out[f"{label}_d"] = density(c[key], wc)
    out["Undefined_nw_p"] = proportion(c["undefinedNounCnt"], covered_nouns)
    out["Gedekte_nw_p"] = proportion(covered_nouns, c["nounCnt"] + c["nameCnt"])
    out["Alg_nw_p"] = proportion(c["generalNounCnt"], covered_nouns)
    for label, key in (
        ("Alg_nw_afz_sit", "generalNounSepCnt"),
        ("Alg_nw_rel_sit", "generalNounRelCnt"),
        ("Alg_nw_hand", "generalNounActCnt"),
        ("Alg_nw_kenn", "generalNounKnowCnt"),
        ("Alg_nw_disc_caus", "generalNounDiscCnt"),
        ("Alg_nw_ontw", "generalNounDeveCnt"),
    ):
        out[f"{label}_d"] = density(c[key], wc)
        out[f"{label}_p"] = proportion(c[key], covered_nouns)
    for label, key in (
        ("Waarn_mens_bvnw", "humanAdjCnt"), ("Emosoc_bvnw", "emoAdjCnt"),
        ("Waarn_nmens_bvnw", "nonhumanAdjCnt"),
        ("Vorm_omvang_bvnw", "shapeAdjCnt"), ("Kleur_bvnw", "colorAdjCnt"),
        ("Stof_bvnw", "matterAdjCnt"), ("Geluid_bvnw", "soundAdjCnt"),
        ("Waarn_nmens_ov_bvnw", "nonhumanOtherAdjCnt"),
        ("Technisch_bvnw", "techAdjCnt"), ("Tijd_bvnw", "timeAdjCnt"),
        ("Plaats_bvnw", "placeAdjCnt"), ("Spec_positief_bvnw", "specPosAdjCnt"),
        ("Spec_negatief_bvnw", "specNegAdjCnt"),
        ("Alg_positief_bvnw", "posAdjCnt"), ("Alg_negatief_bvnw", "negAdjCnt"),
        ("Alg_ev_zr_bvnw", "evaluativeAdjCnt"),
        ("Ep_positief_bvnw", "epiPosAdjCnt"),
        ("Ep_negatief_bvnw", "epiNegAdjCnt"),
        ("Ov_abstr_bvnw", "abstractAdjCnt"),
    ):
        out[f"{label}_p"] = proportion(c[key], covered_adj)
        out[f"{label}_d"] = density(c[key], wc)
    out["Spec_ev_bvnw_p"] = proportion(c["specPosAdjCnt"] + c["specNegAdjCnt"],
                                       covered_adj)
    out["Spec_ev_bvnw_d"] = density(c["specPosAdjCnt"] + c["specNegAdjCnt"], wc)
    alg_ev = c["posAdjCnt"] + c["negAdjCnt"] + c["evaluativeAdjCnt"]
    out["Alg_ev_bvnw_p"] = proportion(alg_ev, covered_adj)
    out["Alg_ev_bvnw_d"] = density(alg_ev, wc)
    out["Ep_ev_bvnw_p"] = proportion(c["epiPosAdjCnt"] + c["epiNegAdjCnt"],
                                     covered_adj)
    out["Ep_ev_bvnw_d"] = density(c["epiPosAdjCnt"] + c["epiNegAdjCnt"], wc)
    out["Conc_bvnw_strikt_p"] = proportion(c["strictAdjCnt"], covered_adj)
    out["Conc_bvnw_strikt_d"] = density(c["strictAdjCnt"], wc)
    out["Conc_bvnw_ruim_p"] = proportion(c["broadAdjCnt"], covered_adj)
    out["Conc_bvnw_ruim_d"] = density(c["broadAdjCnt"], wc)
    out["Subj_bvnw_p"] = proportion(c["subjectiveAdjCnt"], covered_adj)
    out["Subj_bvnw_d"] = density(c["subjectiveAdjCnt"], wc)
    out["Undefined_bvnw_p"] = proportion(c["undefinedAdjCnt"], covered_adj)
    out["Gelabeld_bvnw_p"] = proportion(covered_adj - c["undefinedAdjCnt"],
                                        covered_adj)
    out["Gedekte_bvnw_p"] = proportion(covered_adj, c["adjCnt"])
    out["Conc_ww_p"] = proportion(c["concreteWwCnt"], covered_verbs)
    out["Conc_ww_d"] = density(c["concreteWwCnt"], wc)
    out["Abstr_ww_p"] = proportion(c["abstractWwCnt"], covered_verbs)
    out["Abstr_ww_d"] = density(c["abstractWwCnt"], wc)
    out["Undefined_ww_p"] = proportion(c["undefinedWwCnt"], covered_verbs)
    out["Gedekte_ww_p"] = proportion(covered_verbs, c["verbCnt"])
    out["Alg_ww_d"] = density(c["generalVerbCnt"], wc)
    out["Alg_ww_p"] = proportion(c["generalVerbCnt"], covered_verbs)
    for label, key in (
        ("Alg_ww_afz_sit", "generalVerbSepCnt"),
        ("Alg_ww_rel_sit", "generalVerbRelCnt"),
        ("Alg_ww_hand", "generalVerbActCnt"),
        ("Alg_ww_kenn", "generalVerbKnowCnt"),
        ("Alg_ww_disc_caus", "generalVerbDiscCnt"),
        ("Alg_ww_ontw", "generalVerbDeveCnt"),
    ):
        out[f"{label}_d"] = density(c[key], wc)
        out[f"{label}_p"] = proportion(c[key], covered_verbs)
    total_covered = covered_nouns + covered_adj + covered_verbs
    total_conc = c["strictNounCnt"] + c["strictAdjCnt"] + c["concreteWwCnt"]
    out["Conc_tot_p"] = proportion(total_conc, total_covered)
    out["Conc_tot_d"] = density(total_conc, wc)
    covered_adverbs = c["generalAdverbCnt"] + c["specificAdverbCnt"]
    out["Alg_bijw_d"] = density(c["generalAdverbCnt"], wic)
    out["Alg_bijw_p"] = proportion(c["generalAdverbCnt"], covered_adverbs)
    out["Spec_bijw_d"] = density(c["specificAdverbCnt"], wic)
    out["Spec_bijw_p"] = proportion(c["specificAdverbCnt"], covered_adverbs)
    out["Gedekte_bw_p"] = proportion(covered_adverbs, c["bwCnt"])

    # --- persoonlijkheid (src/structstats.cxx:790-813) --------------------

    out.sec("persoonlijkheid")
    out["Pers_vnw1_d"] = density(c["pron1Cnt"], wic)
    out["Pers_vnw2_d"] = density(c["pron2Cnt"], wic)
    out["Pers_vnw3_d"] = density(c["pron3Cnt"], wic)
    out["Pers_namen_p"] = proportion(c["nerPERCnt"], c["nerCnt"])
    out["Pers_namen_p2"] = proportion(c["nerPERCnt"],
                                      c["nounCnt"] + c["nameCnt"])
    out["Pers_namen_d"] = density(c["nerPERCnt"], wc)
    out["Plaatsnamen_d"] = density(c["nerLOCCnt"], wc)
    out["Org_namen_d"] = density(c["nerORGCnt"], wc)
    out["Prod_namen_d"] = density(c["nerPROCnt"], wc)
    out["Event_namen_d"] = density(c["nerEVECnt"], wc)

    # --- verb (src/structstats.cxx:815-869) -------------------------------

    out.sec("verb")
    out["Actieww_p"] = proportion(c["actionCnt"], c["verbCnt"])
    out["Actieww_d"] = density(c["actionCnt"], wc)
    out["Toestww_p"] = proportion(c["stateCnt"], c["verbCnt"])
    out["Toestww_d"] = density(c["stateCnt"], wc)
    out["Procesww_p"] = proportion(c["processCnt"], c["verbCnt"])
    out["Procesww_d"] = density(c["processCnt"], wc)
    out["Undefined_ATP_ww_p"] = proportion(c["undefinedATPCnt"], covered_verbs)
    out["Ww_tt_p"] = density(c["presentCnt"], wic)
    out["Ww_tt_dz"] = proportion(c["presentCnt"], ccc)
    out["Ww_mod_d_"] = density(c["modalCnt"], wic)
    out["Ww_mod_dz"] = proportion(c["modalCnt"], ccc)
    out["Huww_tijd_d"] = density(c["timeVCnt"], wic)
    out["Huww_tijd_dz"] = proportion(c["timeVCnt"], ccc)
    out["Koppelww_d"] = density(c["koppelCnt"], wic)
    out["Koppelww_dz"] = proportion(c["koppelCnt"], ccc)
    for stem, label in (("inf", "Infin"), ("vd", "Vd"), ("od", "Ovd")):
        for pos_key, suffix in (("Bv", "bv"), ("Nw", "nw"), ("Vrij", "vrij")):
            key = stem + pos_key + "Cnt"
            out[f"{label}_{suffix}_d"] = density(c[key], wic)
            out[f"{label}_{suffix}_dz"] = proportion(c[key], ccc)

    # --- imperative (src/structstats.cxx:871-881) -------------------------

    out.sec("imperative")
    out["Imp_ellips_p"] = proportion(c["impCnt"], n_sent)
    out["Imp_ellips_d"] = density(c["impCnt"], wic)
    out["Vragen_p"] = proportion(c["questCnt"], n_sent)
    out["Vragen_d"] = density(c["questCnt"], wic)

    # --- wordSort (src/structstats.cxx:883-920) ---------------------------

    out.sec("wordSort")
    out["Bvnw_d"] = density(c["adjInclCnt"], wic)
    out["Vg_d"] = density(c["vgCnt"], wic)
    out["Vnw_d"] = density(c["vnwCnt"], wic)
    out["Lidw_d"] = density(c["lidCnt"], wic)
    out["Vz_d"] = density(c["vzCnt"], wic)
    out["Bijw_d"] = density(c["bwCnt"], wic)
    out["Tw_d"] = density(c["twCnt"], wic)
    out["Nw_d"] = density(c["nounInclCnt"], wic)
    out["Ww_d"] = density(c["verbInclCnt"], wic)
    out["Tuss_d"] = density(c["tswCnt"], wic)
    out["Spec_d"] = density(c["specCnt"], wic)
    out["Interp_d"] = density(c["letCnt"], wic)
    afk_total = sum(c[f"afk_{d}Cnt"] for d in _AFK_DOMAINS)
    out["Afk_d"] = density(afk_total, wic)
    out["Afk_gen_d"] = density(c["afk_generiekCnt"], wic)
    out["Afk_int_d"] = density(c["afk_internationaalCnt"], wic)
    out["Afk_jur_d"] = density(c["afk_juridischCnt"], wic)
    out["Afk_med_d"] = density(c["afk_mediaCnt"], wic)
    out["Afk_ond_d"] = density(c["afk_onderwijsCnt"], wic)
    out["Afk_pol_d"] = density(c["afk_overheidCnt"], wic)
    out["Afk_ov_d"] = density(c["afk_overigeCnt"], wic)
    out["Afk_zorg_d"] = density(c["afk_zorgCnt"], wic)

    # --- prepPhrase (src/structstats.cxx:922-930) -------------------------

    out.sec("prepPhrase")
    out["Vzu_d"] = density(c["prepExprCnt"], wic)
    out["Vzu_dz"] = proportion(c["prepExprCnt"], ccc)
    out["Arch_d"] = density(c["archaicsCnt"], wic)

    # --- intensifiers (src/structstats.cxx:932-947) -----------------------

    out.sec("intensifiers")
    out["Int_d"] = density(c["intensCnt"], wic)
    out["Int_bvnw_d"] = density(c["intensBvnwCnt"], wic)
    out["Int_bvbw_d"] = density(c["intensBvbwCnt"], wic)
    out["Int_bw_d"] = density(c["intensBwCnt"], wic)
    out["Int_combi_d"] = density(c["intensCombiCnt"], wic)
    out["Int_nw_d"] = density(c["intensNwCnt"], wic)
    out["Int_tuss_d"] = density(c["intensTussCnt"], wic)
    out["Int_ww_d"] = density(c["intensWwCnt"], wic)

    # --- formal (src/structstats.cxx:949-973) -----------------------------

    out.sec("formal")
    out["Form_d"] = density(c["formalCnt"], wic)
    out["Form_d_z_vnw"] = density(c["formalCnt"] - c["formalVnwCnt"], wic)
    out["Form_bvnw_d"] = density(c["formalBvnwCnt"], wic)
    out["Form_bw_d"] = density(c["formalBwCnt"], wic)
    out["Form_vgw_d"] = density(c["formalVgwCnt"], wic)
    out["Form_vnw_d"] = density(c["formalVnwCnt"], wic)
    out["Form_vz_d"] = density(c["formalVzCnt"], wic)
    out["Form_vzg_d"] = density(c["formalVzgCnt"], wic)
    out["Form_ww_d"] = density(c["formalWwCnt"], wic)
    out["Form_znw_d"] = density(c["formalZnwCnt"], wic)

    # --- misc / surprisal / LiNT (src/structstats.cxx:975-1049) -----------

    out.sec("surprisal")
    # NaN sentence values POISON the document sum (the reference's doc
    # fold is an unguarded += over sentence means,
    # src/structstats.cxx:1491-1507): one unscored (-99 / empty) sentence
    # makes the doc-level Wopr columns NA, and the engine mirrors that.
    def _surp_sum(key: str) -> float:
        vals = [sp[key] for sp in doc.surps if key in sp]
        return sum(vals) if vals else float("nan")

    def _surp_stat(direction: str, metric: str) -> float:
        vals = [sp[direction][metric] for sp in doc.surps]
        return proportion(sum(vals), n_sent) if vals else NA

    for d_lbl, d_key in (("fwd", "fwd"), ("bwd", "bwd")):
        out[f"Log_prob_{d_lbl}"] = _surp_stat(d_key, "avg_prob10")
        out[f"Log_prob_{d_lbl}_inhwrd"] = proportion(
            _surp_sum(f"{d_key}_content"), n_sent)
        out[f"Log_prob_{d_lbl}_zn"] = proportion(
            _surp_sum(f"{d_key}_ex_names"), n_sent)
        out[f"Log_prob_{d_lbl}_inhwrd_zn"] = proportion(
            _surp_sum(f"{d_key}_content_ex_names"), n_sent)
        out[f"Entropie_{d_lbl}"] = _surp_stat(d_key, "entropy")
        out[f"Entropie_{d_lbl}_norm"] = _surp_stat(d_key, "entropy_norm")
        out[f"Perplexiteit_{d_lbl}"] = _surp_stat(d_key, "perplexity")
        out[f"Perplexiteit_{d_lbl}_norm"] = _surp_stat(d_key, "perplexity_norm")
    out["Eigen_classificatie_cnt"] = int(c["myClassCnt"])
    out.sec("lint")
    s1, l1, s2, l2 = kernels.lint_scores(
        wrd_freq_log_zn_corr, bijv_bep_dz_zbijzin, alg_nw_d, al_max,
        inhwrd_dz_zonder_abw, conc_nw_ruim_p,
    )
    out["LiNT_score1"] = s1
    out["LiNT_niveau1"] = l1
    out["LiNT_score2"] = s2
    out["LiNT_niveau2"] = l2

    # --- raw counters + engine extras (diagnostics; not in the reference
    #     CSV, which keeps counts in FoLiA metrics) ------------------------

    out.sec("counts")
    for k in _COUNT_KEYS:
        out[k] = int(c[k])
    out["parCnt"] = par_cnt
    out["Wrd_overlap_doc"] = dw
    out["Lem_overlap_doc"] = dl
    for k, v in mt.items():  # full MTLD family set (engine extra)
        out.setdefault(k, v)

    for gname, fn in _CUSTOM_GROUPS.items():
        if gname in cfg.skip_groups:
            continue
        out.sec(gname)
        for k, v in fn(doc, out, cfg).items():
            if k in out:
                raise ValueError(
                    f"feature group {gname!r} overwrites column {k!r}")
            out[k] = v
    return out


def featurize_paragraphs(
    text: str,
    lex: Lexicons | None = None,
    cfg: EngineConfig = DEFAULT_CONFIG,
    lm=None,
    annotations: list[list[list[TokenAnnotation]]] | None = None,
    tree_lookup=None,
) -> list[dict[str, float]]:
    """One feature vector per paragraph (:func:`emit_paragraphs`); the
    arguments are :func:`featurize_document`'s."""
    names = feature_names(cfg)
    return [{k: out[k] for k in names} for out in emit_paragraphs(
        _walk(text, lex, cfg, lm, annotations, tree_lookup), cfg)]


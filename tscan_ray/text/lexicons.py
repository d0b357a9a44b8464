"""Deterministic mini-lexicons + lexicon-backed tagger state.

The reference loads ~20 lexicon files once at startup into a read-only
global (`settingData`, reference src/tscan.cxx:101-162, loaders at
src/tscan.cxx:223-860).  The engine re-expresses that as a frozen
:class:`Lexicons` bundle built once **per map_batches actor** in
``__init__`` (or broadcast via ``ray.put`` and fetched there) — never
re-shipped per batch.

The default bundle is generated deterministically in code (no files, no
network): a closed Dutch-ish vocabulary engineered so every feature
family of SURVEY.md §2.2 fires, plus the synthetic-testdata English
vocabulary with deterministically assigned attributes so the
``documents`` table exercises frequency/semantic features too.

Word-list constants that define reference behavior (negatives, pronoun
classes, nominalization suffixes) are reproduced from the cited
reference locations — they are the published semantics of the features,
not engine code.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from functools import cached_property

# ---------------------------------------------------------------------------
# Behavior constants (reference-cited)
# ---------------------------------------------------------------------------

# Proper negatives (reference src/wordstats.cxx:254-261)
NEGATIVES = frozenset({
    "geeneens", "geenszins", "kwijt", "nergens", "niet", "niets", "nooit",
    "allerminst", "allesbehalve", "amper", "behalve", "contra", "evenmin",
    "geen", "generlei", "nauwelijks", "niemand", "niemendal", "nihil",
    "niks", "nimmer", "nimmermeer", "noch", "ongeacht", "slechts", "tenzij",
    "ternauwernood", "uitgezonderd", "weinig", "zelden", "zeldzaam", "zonder",
})
# Negation morphemes / infix markers (reference src/wordstats.cxx:265-272)
NEG_MORPHS = frozenset({"mis", "de", "non", "on"})
NEG_MINUS = ("mis-", "non-", "niet-", "anti-", "ex-", "on-", "oud-")

# Nominalization morph suffixes (reference src/wordstats.cxx:61-66)
NOMINAL_MORPHS = frozenset({
    "ing", "sel", "nis", "enis", "heid", "te", "schap", "dom", "sie", "ie",
    "iek", "iteit", "isme", "age", "atie", "esse", "name",
})
NOMINAL_TAILS = ("ose", "ase", "ese", "isme", "sie", "tie")

# Top-k frequency bands (reference fill_topvals src/tscan.cxx:492-534)
TOP_BANDS = (1000, 2000, 3000, 5000, 10000, 20000)


@dataclass(frozen=True)
class PosInfo:
    """Per-word annotation the reference gets from Frog (POS + features +
    lemma + morphemes); here: a deterministic lexicon entry."""
    tag: str  # CGN main tag: N WW ADJ BW VNW LID VG VZ TW TSW SPEC LET
    lemma: str
    morphemes: tuple[str, ...]
    feats: tuple[tuple[str, str], ...] = ()  # (wvorm, pvtijd, vwtype, persoon, conjtype, ...)

    def feat(self, name: str) -> str:
        for k, v in self.feats:
            if k == name:
                return v
        return ""


_GEN_COUNTER = itertools.count()


@dataclass
class Lexicons:
    # unique per-bundle generation id — memo-cache key in features.py
    # (id() of a garbage-collected bundle can be reused by a new one,
    # which would serve stale cached analyses)
    memo_token: int = field(default_factory=lambda: next(_GEN_COUNTER),
                            compare=False)
    """Frozen lexicon bundle — the engine's `settingData` equivalent."""
    pos: dict[str, PosInfo] = field(default_factory=dict)
    word_freq: dict[str, int] = field(default_factory=dict)
    word_total: int = 1
    lemma_freq: dict[str, int] = field(default_factory=dict)
    lemma_total: int = 1
    top_freq: dict[str, int] = field(default_factory=dict)  # word -> band (1000..20000)
    prevalence: dict[str, tuple[float, float]] = field(default_factory=dict)  # lemma -> (pct, z)
    staph_freq: dict[str, float] = field(default_factory=dict)
    noun_sem: dict[str, str] = field(default_factory=dict)  # lemma -> semtype
    adj_sem: dict[str, str] = field(default_factory=dict)
    verb_sem: dict[str, str] = field(default_factory=dict)
    compounds: dict[str, tuple[str, str, int]] = field(default_factory=dict)  # lemma -> (head, sat, n_parts)
    # separable (particle) verbs: verb lemma -> particles; a particle in
    # the same sentence yields full_lemma = particle + lemma
    # (reference classifyVerb fills `full` from the Alpino svp relation,
    # src/Alpino.cxx:640-726 — deterministic lexicon stand-in here)
    separable_verbs: dict[str, frozenset] = field(default_factory=dict)
    # connectives: per type, single-word lemma sets + multiword (space-joined, 2-3 grams)
    conn_single: dict[str, str] = field(default_factory=dict)  # lemma -> conn type
    conn_multi: dict[str, str] = field(default_factory=dict)  # "a b [c]" -> conn type
    sit_single: dict[str, str] = field(default_factory=dict)  # lemma -> sit type
    sit_multi: dict[str, str] = field(default_factory=dict)  # lemma 2-4 grams
    intensify: dict[str, str] = field(default_factory=dict)  # lemma -> intensify cat
    intensify_multi: dict[str, str] = field(default_factory=dict)
    formal: dict[str, str] = field(default_factory=dict)
    formal_multi: dict[str, str] = field(default_factory=dict)
    general_nouns: dict[str, str] = field(default_factory=dict)
    general_verbs: dict[str, str] = field(default_factory=dict)
    adverbs: dict[str, tuple[str, str]] = field(default_factory=dict)  # word -> (type, subtype)
    afkos: dict[str, str] = field(default_factory=dict)  # abbreviation -> domain
    # useCompoundSplitter (reference tscan.cfg): gates the deterministic
    # splitter FALLBACK only (lexicon-listed compounds always apply)
    use_compound_splitter: bool = True
    stop_lemmata: set[str] = field(default_factory=set)
    my_classification: dict[str, str] = field(default_factory=dict)
    vzexpr: set[str] = field(default_factory=set)  # prep expressions, 2-4 grams space-joined
    # ordered tag-aware connective / situation sets from the vendored
    # published lists (loaders.py); priority order = the reference's
    # fixed lookup order (checkConnective src/tscan.cxx:1134-1181,
    # checkSituation src/tscan.cxx:1183-1217)
    conn_order: list = field(default_factory=list)  # [(type, TaggedWordSet)]
    sit_order: list = field(default_factory=list)   # [(type, TaggedWordSet)]

    def conn_type(self, lemma: str, tag: str) -> str:
        """Single-word connective type; tag-specific entries first within
        each type, fixed type priority across lists.  Falls back to the
        flat conn_single dict (custom/synthetic additions)."""
        for typ, tws in self.conn_order:
            if tws.matches(lemma, tag):
                return typ
        return self.conn_single.get(lemma, "")

    def situation_type(self, lemma: str, tag: str) -> str:
        for typ, tws in self.sit_order:
            if tws.matches(lemma, tag):
                return typ
        return self.sit_single.get(lemma, "")

    def max_conn_multi(self) -> int:
        return max((s.count(" ") + 1 for s in self.conn_multi), default=0)

    @cached_property
    def longest_noun(self) -> int:
        """The compound splitter's bound on a part, read once per bundle
        (a bundle in use is not changed, as the word-analysis memo assumes)."""
        return max(map(len, self.noun_sem), default=0)


def _stable_int(s: str, mod: int) -> int:
    return int.from_bytes(hashlib.sha1(s.encode()).digest()[:8], "big") % mod


# ---------------------------------------------------------------------------
# Default deterministic vocabulary
# ---------------------------------------------------------------------------

def _dutch_entries() -> dict[str, PosInfo]:
    e: dict[str, PosInfo] = {}

    def add(word, tag, lemma=None, morphs=None, **feats):
        e[word] = PosInfo(tag, lemma or word, tuple(morphs or [word]),
                          tuple(sorted(feats.items())))

    # determiners / pronouns (drive pronoun-person props + overlap classes)
    add("de", "LID", "de"); add("het", "LID", "het"); add("een", "LID", "een")
    for w, pers in [("ik", "1"), ("mij", "1"), ("me", "1"), ("mijn", "1"),
                    ("jij", "2"), ("je", "2"), ("jou", "2"), ("jouw", "2"),
                    ("hij", "3"), ("hem", "3"), ("zij", "3"), ("ze", "3"),
                    ("haar", "3"), ("wij", "1"), ("we", "1"), ("ons", "1"),
                    ("onze", "1"), ("jullie", "2"), ("hen", "3"), ("hun", "3")]:
        add(w, "VNW", w, vwtype="pers", persoon=pers)
    add("zijn2", "VNW", "zijn", vwtype="bez", persoon="3")  # unused alias
    for w in ("deze", "die", "dit", "dat"):
        add(w, "VNW", w, vwtype="aanw")
    add("welke", "VNW", "welke", vwtype="vb")
    # free-relative / interrogative pronouns (whrel heads, reference
    # tests/relativeclauses); "waar" the locative adverb-pronoun
    add("wie", "VNW", "wie", vwtype="vb", persoon="3")
    add("wat", "VNW", "wat", vwtype="vb")
    add("waar", "VNW", "waar", vwtype="vb")
    add("u", "VNW", "u", vwtype="pers", persoon="2")
    add("men", "VNW", "men", vwtype="pers", persoon="3")
    add("iedereen", "VNW", "iedereen", vwtype="onbep")
    add("alle", "VNW", "al", vwtype="onbep")
    add("ie", "VNW", "ie", vwtype="pers", persoon="3")  # reduced "hij"

    # verbs: finite present/past, infinitive, participle
    verbs = [("loopt", "lopen", "pv", "tgw"), ("liep", "lopen", "pv", "verl"),
             ("lopen", "lopen", "inf", ""), ("gelopen", "lopen", "vd", ""),
             ("ziet", "zien", "pv", "tgw"), ("zag", "zien", "pv", "verl"),
             ("zien", "zien", "inf", ""), ("gezien", "zien", "vd", ""),
             ("maakt", "maken", "pv", "tgw"), ("maakte", "maken", "pv", "verl"),
             ("maken", "maken", "inf", ""), ("gemaakt", "maken", "vd", ""),
             ("denkt", "denken", "pv", "tgw"), ("denken", "denken", "inf", ""),
             ("werkt", "werken", "pv", "tgw"), ("werken", "werken", "inf", ""),
             ("groeit", "groeien", "pv", "tgw"), ("groeien", "groeien", "inf", ""),
             # dlevel/depdist golden-fixture vocabulary (reference
             # tests/d0..d7 — POS the reference gets from Frog)
             ("dienden", "dienen", "pv", "verl"),
             ("vergat", "vergeten", "pv", "verl"),
             ("kammen", "kammen", "inf", ""),
             ("dacht", "denken", "pv", "verl"),
             ("kunnen", "kunnen", "inf", ""),
             ("scoren", "scoren", "inf", ""),
             ("woonden", "wonen", "pv", "verl"),
             ("maakten", "maken", "pv", "verl"),
             ("gebruikten", "gebruiken", "pv", "verl"),
             ("bewaren", "bewaren", "inf", ""),
             ("gingen", "gaan", "pv", "verl"),
             ("wonen", "wonen", "inf", ""),
             ("lagen", "liggen", "pv", "verl"),
             ("weggehaald", "weghalen", "vd", ""),
             # depdist golden-fixture vocabulary (reference tests/depdist*)
             ("gaat", "gaan", "pv", "tgw"),
             ("gaan", "gaan", "pv", "tgw"),  # plural present ("zij gaan")
             ("ging", "gaan", "pv", "verl"),
             ("gegaan", "gaan", "vd", ""),
             ("zie", "zien", "pv", "tgw"),
             ("staan", "staan", "inf", ""),
             ("geef", "geven", "pv", "tgw"),
             ("zet", "zetten", "pv", "tgw"),
             ("zetten", "zetten", "pv", "tgw"),
             ("gestolen", "stelen", "vd", ""),
             # concreet golden-fixture vocabulary (reference
             # tests/concreet1..3)
             ("snuffelde", "snuffelen", "pv", "verl"),
             ("drink", "drinken", "pv", "tgw"),
             ("ruik", "ruiken", "pv", "tgw"),
             # depdist golden-fixture vocabulary (reference
             # tests/depdist8..21)
             ("waardeer", "waarderen", "pv", "tgw"),
             ("bewonder", "bewonderen", "pv", "tgw"),
             ("liepen", "lopen", "pv", "verl"),
             ("at", "eten", "pv", "verl"),
             ("kon", "kunnen", "pv", "verl"),
             ("reed", "rijden", "pv", "verl"),
             ("doet", "doen", "pv", "tgw"),
             ("begrijpt", "begrijpen", "pv", "tgw"),
             ("komt", "komen", "pv", "tgw"),
             ("kom", "komen", "pv", "tgw"),
             ("laten", "laten", "pv", "tgw"),
             ("houden", "houden", "pv", "tgw"),
             ("uitleggen", "uitleggen", "inf", ""),
             ("zou", "zullen", "pv", "verl"),
             ("komen", "komen", "inf", ""),
             ("viel", "vallen", "pv", "verl"),
             ("won", "winnen", "pv", "verl"),
             ("zegt", "zeggen", "pv", "tgw"),
             ("heb", "hebben", "pv", "tgw"),
             ("gekocht", "kopen", "vd", ""),
             ("scheldt", "schelden", "pv", "tgw"),
             ("roept", "roepen", "pv", "tgw"),
             ("neem", "nemen", "pv", "tgw"),
             ("langskomt", "langskomen", "pv", "tgw"),
             ("las", "lezen", "pv", "verl"),
             ("leest", "lezen", "pv", "tgw"),
             ("opereert", "opereren", "pv", "tgw"),
             ("tennist", "tennissen", "pv", "tgw"),
             ("geweest", "zijn", "vd", "")]
    for w, lem, wv, tijd in verbs:
        feats = {"wvorm": wv}
        if tijd:
            feats["pvtijd"] = tijd
        add(w, "WW", lem, [lem], **feats)
    # copula / modal / time auxiliaries (classifyVerb lexical approximation)
    for w, lem, tijd in [("is", "zijn", "tgw"), ("was", "zijn", "verl"),
                         ("zijn", "zijn", "tgw"), ("waren", "zijn", "verl"),
                         ("wordt", "worden", "tgw"), ("werd", "worden", "verl"),
                         ("kan", "kunnen", "tgw"), ("moet", "moeten", "tgw"),
                         ("mag", "mogen", "tgw"), ("wil", "willen", "tgw"),
                         ("zal", "zullen", "tgw"), ("heeft", "hebben", "tgw"),
                         ("had", "hebben", "verl"), ("hebben", "hebben", "tgw"),
                         ("blijft", "blijven", "tgw"), ("lijkt", "lijken", "tgw")]:
        add(w, "WW", lem, [lem], wvorm="pv", pvtijd=tijd)

    # nouns (with morphemes for nominalization + compounds)
    nouns = [("huis", ["huis"]), ("huizen", ["huis", "en"]),
             ("kat", ["kat"]), ("katten", ["kat", "en"]),
             ("man", ["man"]), ("vrouw", ["vrouw"]), ("kind", ["kind"]),
             ("stad", ["stad"]), ("land", ["land"]), ("water", ["water"]),
             ("werking", ["werk", "ing"]), ("groeisel", ["groei", "sel"]),
             ("waarheid", ["waar", "heid"]), ("vriendschap", ["vriend", "schap"]),
             ("politie", ["politie"]), ("organisatie", ["organis", "atie"]),
             ("ding", ["ding"]), ("deel", ["deel"]), ("boekenkast", ["boeken", "kast"]),
             ("kast", ["kast"]), ("boek", ["boek"]), ("tafel", ["tafel"]),
             ("idee", ["idee"]), ("gevoel", ["gevoel"]), ("reden", ["reden"]),
             ("oorzaak", ["oorzaak"]), ("gevolg", ["gevolg"]), ("tijd", ["tijd"]),
             ("begraafplaats", ["be", "graaf", "plaats"]), ("wereld", ["wereld"]),
             ("mensen", ["mens", "en"]), ("potten", ["pot", "en"]),
             ("jaar", ["jaar"]), ("voorraden", ["voorraad", "en"]),
             # depdist golden-fixture vocabulary ("met eigen ogen",
             # "De kans dat ...")
             ("ogen", ["oog", "en"]), ("kans", ["kans"]),
             ("toetje", ["toetje"]), ("plaatjes", ["plaatje", "s"]),
             ("humor", ["humor"]), ("verwachting", ["verwachting"]),
             ("einde", ["einde"]), ("optreden", ["optreden"]),
             ("jaren", ["jaar", "en"]), ("eeuwen", ["eeuw", "en"]),
             ("boeken", ["boek", "en"]), ("honden", ["hond", "en"]),
             ("wegen", ["weg", "en"]), ("kinderen", ["kind", "eren"]),
             ("weerstand", ["weerstand"]),
             ("wedstrijden", ["wedstrijd", "en"]), ("deel", ["deel"])]
    for w, m in nouns:
        lem = m[0] if len(m) > 1 and m[1] in ("en", "s", "n", "eren") else w
        add(w, "N", lem, m)

    # adjectives
    for w, lem in [("groot", "groot"), ("grote", "groot"), ("klein", "klein"),
                   ("kleine", "klein"), ("mooi", "mooi"), ("mooie", "mooi"),
                   ("snel", "snel"), ("snelle", "snel"), ("oud", "oud"),
                   ("nieuw", "nieuw"), ("goed", "goed"), ("onmogelijk", "onmogelijk"),
                   ("blij", "blij"), ("boos", "boos"), ("bang", "bang"),
                   ("groter", "groot"), ("jonger", "jong"), ("moe", "moe"),
                   # "vrij klein": Alpino tags degree-"vrij" adj/rel=mod
                   # under the AP (reference tests/depdist21.example.alpino)
                   ("vrij", "vrij"), ("boze", "boos"),
                   ("onaanvaardbaar", "onaanvaardbaar"), ("laat", "laat"),
                   ("erg", "erg"), ("heel", "heel"),
                   ("blind", "blind"), ("vlug", "vlug"),
                   ("halve", "half"), ("half", "half"), ("duur", "duur"),
                   ("meeste", "veel"), ("blaffende", "blaffen"),
                   ("geasfalteerde", "asfalteren")]:
        add(w, "ADJ", lem)
    e["onmogelijk"] = PosInfo("ADJ", "onmogelijk", ("on", "mogelijk"))

    # adverbs
    # "daar"/"hier" are VNW(aanw,adv-pron) in CGN (Frog: reference
    # tests/connective1.example.ok), which FAILS checkConnective's
    # VG/VZ/BW gate — locative "daar" never counts as the causal
    # conjunction (golden all_connector_count excludes it)
    add("daar", "VNW", "daar", vwtype="aanw")
    for w in ("niet", "nooit", "altijd", "vandaag", "morgen", "gisteren",
              "nu", "dan", "snel2", "zeer",
              "misschien", "moeilijk", "weg", "samen", "graag", "vaak",
              "bovendien", "echter", "daarna", "vervolgens", "daardoor",
              "daarnaast", "verder", "toch", "dus", "ook", "zo", "net",
              "zowel", "evenmin", "al", "binnen", "eens", "vandaan",
              "juist", "meteen", "thuis"):
        add(w, "BW", w)
    # CGN adv-pronouns (Frog: VNW(aanw/vb, adv-pron) — like "daar" above)
    add("er", "VNW", "er", vwtype="aanw")
    add("hier", "VNW", "hier", vwtype="aanw")

    # conjunctions
    for w, ct in [("en", "neven"), ("of", "neven"), ("maar", "neven"),
                  ("want", "neven"), ("omdat", "onder"), ("terwijl", "onder"),
                  ("hoewel", "onder"), ("voordat", "onder"), ("doordat", "onder"),
                  ("als", "onder"), ("toen", "onder"), ("zoals", "onder"),
                  ("tenzij", "onder"), ("zodat", "onder"), ("nadat", "onder"),
                  ("totdat", "onder"), ("opdat", "onder")]:
        add(w, "VG", w, conjtype=ct)

    # prepositions
    for w in ("in", "op", "aan", "van", "met", "voor", "naar", "uit", "bij",
              "over", "door", "tot", "zonder", "tussen", "onder2", "per",
              "te", "om", "na", "achter"):
        add(w, "VZ", w)

    # numerals, punctuation handled by tokenizer; abbreviations
    for w in ("twee", "drie", "vier", "vijf", "tien", "honderd",
              "eerste", "tweede", "derde"):
        add(w, "TW", w)
    for w in ("bv", "enz", "ca", "nl", "dhr", "mw"):
        add(w, "SPEC", w)

    return e


def _testdata_entries() -> dict[str, PosInfo]:
    """Deterministic attributes for the synthetic-testdata English vocab so
    `documents.text` exercises every lookup family."""
    e: dict[str, PosInfo] = {}
    det = {"the", "a"}
    adj = {"fast", "slow", "small", "big"}
    verb = {"sort", "merge", "join", "scan", "filter", "group"}
    for w in ("the a fast key order sort table scan merge part window small "
              "hash join batch stream spark group query row data slow filter "
              "customer line value big column vector agg dup").split():
        if w in det:
            e[w] = PosInfo("LID", w, (w,))
        elif w in adj:
            e[w] = PosInfo("ADJ", w, (w,))
        elif w in verb:
            e[w] = PosInfo("WW", w, (w,), (("wvorm", "pv"), ("pvtijd", "tgw")))
        else:
            e[w] = PosInfo("N", w, (w,))
    return e


def build_default_lexicons() -> Lexicons:
    """Build the deterministic default lexicon bundle (seeded by word text,
    no RNG state)."""
    pos = _dutch_entries()
    pos.update(_testdata_entries())
    # drop helper aliases that were only needed for construction
    for alias in ("zijn2", "snel2", "onder2"):
        pos.pop(alias, None)

    lex = Lexicons(pos=pos)

    # frequencies: deterministic per-word counts spread over several orders
    # of magnitude (drives freq_log + top-k bands + staph bands)
    for w, info in pos.items():
        c = 10 ** (1 + _stable_int("wf:" + w, 5)) + _stable_int("wfo:" + w, 900)
        lex.word_freq[w] = c
        lex.lemma_freq[info.lemma] = lex.lemma_freq.get(info.lemma, 0) + c
    lex.word_total = sum(lex.word_freq.values())
    lex.lemma_total = sum(lex.lemma_freq.values())

    # top-k bands: assign deterministically; frequent words -> lower bands
    ranked = sorted(lex.word_freq, key=lambda w: (-lex.word_freq[w], w))
    for i, w in enumerate(ranked):
        frac = (i + 1) / len(ranked)
        band = TOP_BANDS[min(int(frac * len(TOP_BANDS)), len(TOP_BANDS) - 1)]
        if frac <= 0.85:  # leave a deterministic tail out of the top-20k list
            lex.top_freq[w] = band

    # prevalence: percentage in [60, 100), z in [-2, 2)
    for lem in sorted({i.lemma for i in pos.values()}):
        pct = 60.0 + _stable_int("prev:" + lem, 4000) / 100.0
        z = -2.0 + _stable_int("prevz:" + lem, 400) / 100.0
        lex.prevalence[lem] = (pct, z)

    # staphorsius: freq values over [30, 100) so bands <=50/65/77/80 all fire
    for w in sorted(pos):
        lex.staph_freq[w] = 30.0 + _stable_int("staph:" + w, 7000) / 100.0

    # semantic types — the FULL reference taxonomy (include/tscan/sem.h:9-35,
    # classifier strings src/sem.cxx:classifyNoun/classifyADJ/classifyWW);
    # assignment is the deterministic stand-in for the reference's sem TSVs
    sem_noun_types = (
        "undefined", "concrother", "institut", "substance_conc", "artefact",
        "nonhuman", "human", "voed_verz", "dynamic_conc", "substance_abstr",
        "dynamic_abstr", "nondynamic", "place", "time", "measure",
    )
    for lem in sorted({i.lemma for i in pos.values() if i.tag == "N"}):
        lex.noun_sem[lem] = sem_noun_types[_stable_int("ns:" + lem, len(sem_noun_types))]
    lex.noun_sem.update({"man": "human", "vrouw": "human", "kind": "human",
                         "huis": "artefact", "kat": "nonhuman", "stad": "place",
                         "tijd": "time", "idee": "nondynamic",
                         "gevoel": "nondynamic", "politie": "institut",
                         "customer": "human", "brood": "voed_verz",
                         "water": "substance_conc", "feest": "dynamic_conc"})
    sem_adj_types = (
        "human", "emo", "shape", "color", "matter", "sound", "nonhuman_other",
        "tech", "time", "place", "spec_pos", "spec_neg", "pos", "neg",
        "evaluative", "epi_pos", "epi_neg", "abstract", "undefined",
    )
    for lem in sorted({i.lemma for i in pos.values() if i.tag == "ADJ"}):
        lex.adj_sem[lem] = sem_adj_types[_stable_int("as:" + lem, len(sem_adj_types))]
    sem_verb_types = (
        "abstract_state", "concrete_state", "undefined_state",
        "abstract_action", "concrete_action", "undefined_action",
        "abstract_process", "concrete_process", "undefined_process",
        "abstract_undefined", "concrete_undefined", "undefined",
    )
    for lem in sorted({i.lemma for i in pos.values() if i.tag == "WW"}):
        lex.verb_sem[lem] = sem_verb_types[_stable_int("vs:" + lem, len(sem_verb_types))]

    # compounds: lemma -> (head, satellite, parts); deterministic synthetic
    # compound assignment over the noun vocabulary (the reference reads a
    # compound-split lexicon; same shape here) + one curated entry
    noun_lemmas = sorted({i.lemma for i in pos.values() if i.tag == "N"})
    for lem in noun_lemmas:
        r = _stable_int("comp:" + lem, 10)
        if r < 2 and len(noun_lemmas) > 2:  # ~20% of nouns are compounds
            head = noun_lemmas[_stable_int("ch:" + lem, len(noun_lemmas))]
            sat = noun_lemmas[_stable_int("cs:" + lem, len(noun_lemmas))]
            parts = 3 if r == 0 and _stable_int("c3:" + lem, 4) == 0 else 2
            lex.compounds[lem] = (head, sat, parts)
    lex.compounds["boekenkast"] = ("kast", "boeken", 2)

    # separable verbs + their full-lemma entries (verb_sem / lemma_freq
    # consult full_lemma FIRST, src/tscan.cxx:1430-1434 / 1640-1650)
    lex.separable_verbs.update({
        "lopen": frozenset({"weg", "door", "achter"}),
        "eten": frozenset({"op"}),
        # reference tests/svp.example: uitschelden, oproepen, deelnemen
        "schelden": frozenset({"uit"}),
        "roepen": frozenset({"op"}),
        "nemen": frozenset({"deel"}),
        "zien": frozenset({"toe"}),
        "maken": frozenset({"op", "af"}),
        "denken": frozenset({"na"}),
        "werken": frozenset({"mee", "uit"}),
    })
    for verb, parts in lex.separable_verbs.items():
        for p in sorted(parts):
            full = p + verb
            lex.verb_sem[full] = "action"
            lex.lemma_freq[full] = lex.lemma_freq.get(full, 0) + 25

    # connectives (single, per SURVEY W6; POS-gated to VG/VZ/BW at use site)
    lex.conn_single.update({
        "toen": "TEMPOREEL", "daarna": "TEMPOREEL", "voordat": "TEMPOREEL",
        "terwijl": "TEMPOREEL", "vervolgens": "TEMPOREEL",
        "en": "OPSOMMEND_WG", "of": "OPSOMMEND_WG", "ook": "OPSOMMEND_WG",
        "bovendien": "OPSOMMEND_ZIN", "verder": "OPSOMMEND_ZIN",
        "daarnaast": "OPSOMMEND_ZIN",
        "maar": "CONTRASTIEF", "echter": "CONTRASTIEF", "hoewel": "CONTRASTIEF",
        "toch": "CONTRASTIEF",
        # "als"/"dan" are NOT list entries in the reference: "als" is
        # resolved contextually by checkAls (sentstats.cxx:366-424) and
        # bare "dan" is no connective at all
        "zoals": "COMPARATIEF",
        "omdat": "CAUSAAL", "want": "CAUSAAL", "dus": "CAUSAAL",
        "daardoor": "CAUSAAL", "doordat": "CAUSAAL",
    })
    lex.conn_multi.update({
        "ten slotte": "OPSOMMEND_ZIN", "onder andere": "OPSOMMEND_WG",
        "met andere woorden": "COMPARATIEF", "als gevolg van": "CAUSAAL",
        "aan de andere kant": "CONTRASTIEF", "in de eerste plaats": "OPSOMMEND_ZIN",
    })

    # situations (lemma-based, per SURVEY W7/T3)
    lex.sit_single.update({
        "vandaag": "TIME_SIT", "morgen": "TIME_SIT", "gisteren": "TIME_SIT",
        "nu": "TIME_SIT", "altijd": "TIME_SIT", "tijd": "TIME_SIT",
        "hier": "SPACE_SIT", "daar": "SPACE_SIT", "stad": "SPACE_SIT",
        "reden": "CAUSAL_SIT", "oorzaak": "CAUSAL_SIT", "gevolg": "CAUSAL_SIT",
        "blij": "EMO_SIT", "boos": "EMO_SIT", "bang": "EMO_SIT",
        "gevoel": "EMO_SIT",
    })
    lex.sit_multi.update({
        "op dit moment": "TIME_SIT", "van tijd tot tijd": "TIME_SIT",
        "aan de kant": "SPACE_SIT", "om deze reden": "CAUSAL_SIT",
    })

    # intensifiers
    # intensifiers: the reference's 7 classes (include/tscan/intensify.h:10)
    lex.intensify.update({"erg": "BVBW", "heel": "BVBW", "zeer": "BVBW",
                          "enorm": "BVBW", "vaak": "BW", "bijzonder": "BVNW",
                          "ontzettend": "BVBW", "hoop": "NW", "tjonge": "TUSS",
                          "overtreffen": "WW"})
    lex.intensify_multi.update({"heel erg": "COMBI", "in hoge mate": "COMBI"})

    # formal words: the reference's 8 classes (include/tscan/formal.h:9)
    lex.formal.update({"tevens": "BW", "gaarne": "BW", "reeds": "BW",
                       "omtrent": "VZ", "aangaande": "VZ", "geschieden": "WW",
                       "organisatie": "ZNW", "desbetreffend": "BVNW",
                       "dewelke": "VNW", "doch": "VGW"})
    lex.formal_multi.update({"ten behoeve van": "VZG",
                             "met betrekking tot": "VZG"})

    # general nouns/verbs: 6 aggregate families — the reference's 25
    # General::Type values only surface in the CSV through the
    # isSeparate/isRelated/isActing/isKnowledge/isDiscussion/isDevelopment
    # aggregates (src/general.cxx:147-244), so the lexicon stores the
    # family directly; "discussion" implies knowledge+discussion,
    # "acting"/"development" imply related (same overlap structure)
    lex.general_nouns.update({"ding": "separate", "deel": "related",
                              "idee": "knowledge", "reden": "discussion",
                              "gevolg": "development", "data": "knowledge",
                              "value": "separate"})
    lex.general_verbs.update({"maken": "acting", "denken": "knowledge",
                              "werken": "acting", "groeien": "development",
                              "zien": "knowledge"})

    # adverbs: type GENERAL/SPECIFIC x subtype (MANNER gates strict content)
    lex.adverbs.update({
        "snel": ("SPECIFIC", "MANNER"), "samen": ("SPECIFIC", "MANNER"),
        "graag": ("SPECIFIC", "MANNER"), "zo": ("GENERAL", "MANNER"),
        "hier": ("SPECIFIC", "PLACE"), "daar": ("SPECIFIC", "PLACE"),
        "nu": ("SPECIFIC", "TIME"), "dan": ("GENERAL", "TIME"),
        "vandaag": ("SPECIFIC", "TIME"), "morgen": ("SPECIFIC", "TIME"),
        "misschien": ("GENERAL", "MODAL"), "vaak": ("SPECIFIC", "FREQUENCY"),
        "altijd": ("SPECIFIC", "FREQUENCY"), "ook": ("GENERAL", "FOCUS"),
        "niet": ("GENERAL", "NEGATION"), "nooit": ("SPECIFIC", "NEGATION"),
    })

    # abbreviations -> domain: the reference's 8 Afk::Type domains
    # (include/tscan/afk.h:8-12)
    lex.afkos.update({"bv": "generiek", "enz": "generiek", "ca": "generiek",
                      "nl": "internationaal", "eu": "internationaal",
                      "dhr": "overige", "mw": "overige", "min": "overheid",
                      "wet": "juridisch", "uni": "onderwijs", "tv": "media",
                      "ggz": "zorg"})

    # stop_lemmata stays EMPTY by default: the reference loads a stoplist
    # only when the config names one (fill_stop_lemmata,
    # src/tscan.cxx:1108-1110; tests/tscan.cfg sets none, and the golden
    # word_count in tests/numstring.example.ok counts every determiner).
    # Users opt in via a customized bundle (stages/featurizer.py hook).
    lex.my_classification.update({"spark": "tech", "ray": "tech", "data": "tech"})

    # prepositional expressions (2-4 grams, reference src/tscan.cxx:2967-2995)
    lex.vzexpr.update({"op grond van", "aan de hand van", "in plaats van",
                       "met behulp van", "ten opzichte van", "naar aanleiding van"})

    _merge_published_lists(lex)

    return lex


def _merge_published_lists(lex: Lexicons) -> None:
    """Fold the vendored published lexicon lists (text/data/, loaders.py)
    into the bundle.  Single-word connective/situation entries build the
    ordered tag-aware sets (the synthetic dict entries above are folded
    into their type's UNASS set so one priority order governs both);
    multiword entries extend the *_multi scan dicts; adverbs / formal /
    abbreviation / prep-expression tables are extended with the real
    data taking precedence over the synthetic seeds."""
    from tscan_ray.text import loaders

    conn_files = [("TEMPOREEL", "temporal_connectors.lst"),
                  ("OPSOMMEND_WG", "opsom_connectors_wg.lst"),
                  ("OPSOMMEND_ZIN", "opsom_connectors_zin.lst"),
                  ("CONTRASTIEF", "contrast_connectors.lst"),
                  ("COMPARATIEF", "compar_connectors.lst"),
                  ("CAUSAAL", "causal_connectors.lst")]
    for typ, fname in conn_files:
        tws = loaders.read_tagged_words(fname)
        covered = tws.unass.union(*tws.tagged.values()) if tws.tagged else tws.unass
        for lemma, t in list(lex.conn_single.items()):
            if lemma in covered:
                # the real list is authoritative (it may carry a tag
                # restriction the synthetic seed lacked) — drop the seed
                del lex.conn_single[lemma]
            elif t == typ:
                tws.unass.add(lemma)
        for phrase in tws.multi:
            lex.conn_multi.setdefault(phrase, typ)
        lex.conn_order.append((typ, tws))

    sit_files = [("TIME_SIT", "tijd.txt"), ("CAUSAL_SIT", "causaliteit.txt"),
                 ("SPACE_SIT", "ruimte.txt"), ("EMO_SIT", "emoties.txt")]
    for typ, fname in sit_files:
        tws = loaders.read_tagged_words(fname)
        covered = tws.unass.union(*tws.tagged.values()) if tws.tagged else tws.unass
        for lemma, t in list(lex.sit_single.items()):
            if lemma in covered:
                del lex.sit_single[lemma]
            elif t == typ:
                tws.unass.add(lemma)
        for phrase in tws.multi:
            lex.sit_multi.setdefault(phrase, typ)
        lex.sit_order.append((typ, tws))

    lex.vzexpr.update(loaders.read_vzexpr())
    f_single, f_multi = loaders.read_formal()
    lex.formal.update(f_single)
    lex.formal_multi.update(f_multi)
    lex.adverbs.update(loaders.read_adverbs())
    lex.afkos.update(loaders.read_afkos())

    # POS coverage for the connective vocabulary: a connective word the
    # POS lexicon does not know would fall back to the noun tag and the
    # VG/VZ/BW gate (checkConnective src/tscan.cxx:1135) would silently
    # drop it.  Tag-restricted entries get their own tag; untagged
    # entries default to BW (passes the gate, stays out of the nounish
    # scans).  The reference gets these tags from Frog.
    # the ("auto","1") feat marks these as derived POS evidence (lemma
    # lists, not a tagger) — the sentence tagger's closed-class tables
    # and morphology may override them, unlike hand-curated entries
    auto = (("auto", "1"),)
    for _, tws in lex.conn_order:
        for tag, entries in tws.tagged.items():
            for w in entries:
                lex.pos.setdefault(w, PosInfo(tag, w, (w,), auto))
        for w in tws.unass:
            lex.pos.setdefault(w, PosInfo("BW", w, (w,), auto))

    # semantic-type lexicons (the reference golden-test bundles,
    # tests/{nouns,adjs,verbs}_semtype.data; fillN/fillADJ/fillWW
    # src/tscan.cxx:222-316): real entries override the synthetic
    # assignment, and the noun file's compound columns feed the
    # compound table.  Lemmas the POS lexicon lacks get a POS entry
    # with the file's tag so the semtype is reachable (Frog's job in
    # the reference).
    n_sem, n_comp = loaders.read_noun_sem()
    lex.noun_sem.update(n_sem)
    lex.compounds.update(n_comp)
    for lem in n_sem:
        lex.pos.setdefault(lem, PosInfo("N", lem, (lem,), auto))
    a_sem = loaders.read_adj_sem()
    lex.adj_sem.update(a_sem)
    for lem in a_sem:
        lex.pos.setdefault(lem, PosInfo("ADJ", lem, (lem,), auto))
    v_sem = loaders.read_verb_sem()
    lex.verb_sem.update(v_sem)
    for lem in v_sem:
        lex.pos.setdefault(lem, PosInfo("WW", lem, (lem,),
                                         (("auto", "1"), ("wvorm", "inf"))))


_DEFAULT: Lexicons | None = None


def default_lexicons() -> Lexicons:
    """Process-level cached default bundle (built once per actor/worker)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = build_default_lexicons()
    return _DEFAULT


_REFERENCE_TEST: Lexicons | None = None


def reference_test_lexicons() -> Lexicons:
    """Bundle mirroring the reference's OWN test configuration
    (reference tests/tscan.cfg): config-only lexicons that file does not
    name are EMPTY — adverbs, intensify(+multi), general_nouns,
    general_verbs (fill sites src/tscan.cxx:985-1003) — and
    useCompoundSplitter=0 disables the splitter fallback.  Used by the
    golden conformance fixtures so engine counters match the .ok
    metrics the reference produced under that config; production runs
    keep ``default_lexicons`` (all published lists loaded)."""
    global _REFERENCE_TEST
    if _REFERENCE_TEST is None:
        from tscan_ray.text import loaders

        lex = build_default_lexicons()
        # config-only lexicons the test cfg does not name -> empty
        lex.adverbs.clear()
        lex.intensify.clear()
        lex.intensify_multi.clear()
        lex.general_nouns.clear()
        lex.general_verbs.clear()
        # separable_verbs kept: the ANNOTATED path takes full_lemma
        # from the Alpino tree regardless (features.py guards the
        # sentence-context resolution with `alpino_tree is None`), but
        # the raw-text heuristic path needs the list for the svp
        # edges/displays the golden trees carry (tests/svp s1-s3)
        lex.use_compound_splitter = False
        # connectives: PURE published lists (no synthetic seeds — a seed
        # in the wrong priority class, e.g. "terwijl" seeded TEMPOREEL
        # while the published entry is CONTRASTIEF, breaks conformance).
        # The test cfg's "opsommers" key is not one the reference reads
        # (src/tscan.cxx:1040-1048 reads opsom_connectors_wg/_zin), so
        # BOTH opsom classes were empty in the golden run.
        lex.conn_single.clear()
        lex.conn_multi.clear()
        lex.conn_order = []
        for typ, fname in [("TEMPOREEL", "temporal_connectors.lst"),
                           ("CONTRASTIEF", "contrast_connectors.lst"),
                           ("COMPARATIEF", "compar_connectors.lst"),
                           ("CAUSAAL", "causal_connectors.lst")]:
            tws = loaders.read_tagged_words(fname)
            for phrase in tws.multi:
                lex.conn_multi.setdefault(phrase, typ)
            lex.conn_order.append((typ, tws))
        # situations: pure published lists, reference priority order
        lex.sit_single.clear()
        lex.sit_multi.clear()
        lex.sit_order = []
        for typ, fname in [("TIME_SIT", "tijd.txt"),
                           ("CAUSAL_SIT", "causaliteit.txt"),
                           ("SPACE_SIT", "ruimte.txt"),
                           ("EMO_SIT", "emoties.txt")]:
            tws = loaders.read_tagged_words(fname)
            for phrase in tws.multi:
                lex.sit_multi.setdefault(phrase, typ)
            lex.sit_order.append((typ, tws))
        # formal / abbreviations / prep expressions: published files only
        lex.formal.clear()
        lex.formal_multi.clear()
        f_single, f_multi = loaders.read_formal()
        lex.formal.update(f_single)
        lex.formal_multi.update(f_multi)
        lex.afkos.clear()
        lex.afkos.update(loaders.read_afkos())
        lex.vzexpr.clear()
        lex.vzexpr.update(loaders.read_vzexpr())
        # semantic types: ONLY the reference test bundles (synthetic
        # assignments would turn UNFOUND words into counted classes)
        lex.noun_sem.clear()
        lex.adj_sem.clear()
        lex.verb_sem.clear()
        lex.compounds.clear()
        n_sem, n_comp = loaders.read_noun_sem()
        lex.noun_sem.update(n_sem)
        lex.compounds.update(n_comp)
        lex.adj_sem.update(loaders.read_adj_sem())
        lex.verb_sem.update(loaders.read_verb_sem())
        _REFERENCE_TEST = lex
    return _REFERENCE_TEST

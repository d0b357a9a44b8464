"""Deterministic reduced dependency annotator (parse-derived features).

The reference obtains a full Alpino dependency tree per sentence over a
TCP service (reference src/tscan.cxx:3237-3298) and derives from it:
dependency distances per relation type (T12, src/Alpino.cxx:269-614),
AL means (A8, src/Alpino.cxx:29-67), the D-level ladder (T7,
src/Alpino.cxx:728-954), clause counts (src/sentstats.cxx:684-691),
NP/modifier stats (T11, src/Alpino.cxx:987-996) and the imperative
check (W24, src/Alpino.cxx:956-966).

The sandbox has no Alpino, and the north rule demands reproducibility,
so per SURVEY.md §7.0 this module is a *deterministic reduced parser*:
a rule cascade over the CGN tag sequence that assigns head->dependent
edges for the same 17 ``DD_type`` relations (include/tscan/Alpino.h:45-48).
The *derived math* — punctuation-corrected distances, per-type pooled
means, mean-of-sentence-means AL rollup, the D-level decision ladder,
``correctedClauseCnt = max(1, clauses)`` — mirrors the reference
formulas exactly (file:line cited per function); only the tree itself
is the documented approximation.

Pure Python over one sentence (captions are short: O(n) rules);
executed inside the featurizer actor's batch UDF — never touches Ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# include/tscan/Alpino.h:45-48
DD_TYPES = (
    "SUB_VERB", "OBJ1_VERB", "OBJ2_VERB", "VERB_PP", "VERB_VC",
    "VERB_COMP", "NOUN_DET", "PREP_OBJ1", "CRD_CNJ", "COMP_BODY",
    "NOUN_VC", "VERB_SVP", "VERB_PREDC_N", "VERB_PREDC_A",
    "VERB_MOD_BW", "VERB_MOD_A", "VERB_NOUN",
)

_FINITE_PROPS = frozenset({"ISPVTGW", "ISPVVERL", "ISSUBJ"})
_NONFINITE_PROPS = frozenset({"ISINF", "ISVD", "ISOD"})
_REL_PRONOUNS = frozenset({"die", "dat", "welke"})

# verbs that head verb clusters with a bare infinitive complement
# (mirrors the tagger's _CLUSTER_VERBS; used for the parse-only
# pv -> cluster-inf demotion in parse_sentence)
# adverbs whose Alpino lexical category is "ap" (not "advp"): their
# verb mods classify as VERB_MOD_A (src/Alpino.cxx:474-476; set
# measured over the reference's own treebank fixtures)
_AP_ADVERBS = frozenset({"wel", "even", "graag", "anders", "evenmin",
                         "ff"})

# subject-control verbs whose te-infinitive complement carries a
# coindexed su ref in the tree ("vergat ... te kammen", tests/d1 s2)
_CONTROL_VERBS = frozenset({
    "vergeten", "proberen", "besluiten", "weigeren", "beloven",
    "hopen", "wensen", "trachten", "pogen", "dreigen", "beginnen",
    "ophouden", "leren", "durven", "weten", "denken"})

_CLUSTER_MODALS = frozenset({
    "zullen", "kunnen", "moeten", "mogen", "willen", "gaan", "komen",
    "laten", "blijven", "hoeven", "durven", "leren", "helpen", "zien",
    "horen", "voelen", "doen", "staan", "zitten", "liggen", "lopen"})
# possessive pronouns that act as NP determiners (Alpino rel="det";
# evidenced by reference tests/depdist22: "mijn fiets" -> noun_det 0).
# "zijn"/"haar"/"hun" are kept only with a nounish right neighbour.
_POSS_PRONOUNS = frozenset({"mijn", "jouw", "uw", "onze", "ons", "je",
                            "zijn", "haar", "hun", "jullie"})
# auxiliary wvorm classes: a finite aux + participle clause attaches
# su/obj/mod edges to the participle (reference tests/depdist17, 22)
_AUX_WWFORMS = frozenset({"COPULA", "TIME_VERB", "PASSIVE_VERB"})
# subject-raising aspectual verbs whose bare-infinitive complement is
# the content verb of the cluster (Alpino vc inf with coindexed su);
# AcI verbs (laten/zien/horen) are NOT here — their object is the
# embedded subject, a different tree shape
_ASPECTUAL_CLUSTER = frozenset({"blijven", "gaan", "komen", "durven",
                                "hoeven"})
# bare temporal nouns attach as verb_noun adjuncts, not objects
# (reference tests/mod_adv s3, noun-adv: "al jaren", "eeuwen achter")
_TEMPORAL_NOUNS = frozenset({
    "jaar", "eeuw", "dag", "uur", "week", "maand", "minuut", "seconde",
    "avond", "ochtend", "middag", "nacht",
})
# quantifying pronouns acting as NP determiners ("ALLE boeken":
# noun_det 0, reference tests/npmod)
_SVP_PARTICLES = frozenset({
    "mee", "op", "af", "uit", "aan", "in", "toe", "terug", "weg",
    "door", "over", "om", "rond", "neer", "na", "voort", "binnen"})

_DET_PRONOUNS = frozenset({"alle", "sommige", "enkele", "vele", "beide",
                           "geen", "elke", "elk", "iedere", "ieder"})

# pronouns Frog's chunker does NOT open an NP chunk for: adverbial
# pronouns and bare comparative quantifiers ("er zijn ...", "punten
# MEER" — reference tests/bug1 s2: npCnt excludes er/meer)
_NON_CHUNK_PRONOUNS = frozenset({"er", "hier", "daar", "waar",
                                 "meer", "minder", "meest", "minst"})


@dataclass
class Clause:
    start: int
    end: int  # exclusive
    kind: str  # "main" | "coord" | "sub"
    conj_idx: int = -1  # index of the introducing VG (-1 for the first clause)


@dataclass
class SentParse:
    """Parse-derived per-sentence record (the engine's alpino-resolution
    output: what sentStats pulls out of the Alpino DOM)."""

    distances: dict[str, list[int]] = field(default_factory=dict)
    al_gem: float = float("nan")  # sentStats::getMeanAL (src/sentstats.cxx:244-255)
    al_max: float = 0.0  # sentStats::getHighestAL (src/sentstats.cxx:257-264): 0 if empty
    d_level: int = -1
    d_level_gt4: int = 0
    smain_cnt: int = 0
    ssub_cnt: int = 0
    sv1_cnt: int = 0
    clause_cnt: int = 0
    corrected_clause_cnt: int = 1
    np_cnt: int = 0
    indef_np_cnt: int = 0
    np_size_sum: int = 0
    np_mod_cnt: int = 0
    adj_np_mod_cnt: int = 0
    betr_cnt: int = 0  # relative clauses (rel-pronoun directly after a noun)
    imperative_idx: int = -1  # token index of the imperative finite verb, -1 none
    # clause families (resolveRelativeClauses src/sentstats.cxx:546-677 —
    # reduced proxies over the flat clause split, divergence documented):
    bijw_cnt: int = 0          # adverbial finite sub clauses (onder-VG != dat/of)
    compl_cnt: int = 0         # finite complement clauses (onder-VG dat/of)
    infin_compl_bep_cnt: int = 0  # "te"+infinitive complements (ti/oti)
    mv_fin_inbed_cnt: int = 0  # multiply-embedded finite clauses (proxy)
    mv_inbed_cnt: int = 0      # multiply-embedded incl. infinitival (proxy)
    los_betr_cnt: int = 0      # loose relative clause at sentence start
    los_bijw_cnt: int = 0      # loose adverbial clause at sentence start
    # conjunction families (resolveConjunctions src/sentstats.cxx:690-699)
    smain_cnj_cnt: int = 0
    ssub_cnj_cnt: int = 0
    sv1_cnj_cnt: int = 0
    small_cnj_cnt: int = 0       # non-clausal conjuncts ("X en Y")
    small_cnj_extra_cnt: int = 0  # extra conjuncts beyond one per group
    # adverbials (resolveAdverbials src/tscan.cxx:2997-3012): BW/PP
    # modifiers of clause verbs; single = one-word GENERAL adverbs
    vc_mod_cnt: int = 0
    vc_mod_single_cnt: int = 0

    def all_distances(self) -> list[int]:
        out: list[int] = []
        for v in self.distances.values():
            out.extend(v)
        return out


def _store(parse: SentParse, typ: str, p1: int, p2: int, puncts: set[int]) -> None:
    """store_result (src/Alpino.cxx:274-292): dist = pos2-pos1-1 minus the
    number of punctuation tokens in [pos1, pos2]; only dist >= 0 stored."""
    if p1 > p2:
        p1, p2 = p2, p1
    dist = p2 - p1 - 1
    for i in range(p1, p2 + 1):
        if i in puncts:
            dist -= 1
    if dist >= 0:
        parse.distances.setdefault(typ, []).append(dist)


def _is_finite(ann) -> bool:
    return ann.tag == "WW" and ann.prop in _FINITE_PROPS


# fixed prepositional complements (Alpino rel=pc: "houden VAN",
# "meedoen AAN") and post-verb locative complements of position/motion
# verbs (rel=ld) are NOT adverbial modifiers — getAdverbialNodes counts
# rel=mod|predm only (reference src/Alpino.cxx:1024-1028); the VERB_PP
# DISTANCE is stored regardless of rel (src/Alpino.cxx:500-505)
_PC_PREPS = {
    "houden": ("van",), "meedoen": ("aan",), "denken": ("aan", "over"),
    "geloven": ("in",), "wachten": ("op",), "hopen": ("op",),
    "rekenen": ("op",), "letten": ("op",), "kijken": ("naar",),
    "luisteren": ("naar",), "zorgen": ("voor",), "lijken": ("op",),
    "horen": ("bij",), "passen": ("bij",), "beginnen": ("aan", "met"),
    "stoppen": ("met",), "praten": ("over",), "spreken": ("over",),
    "klagen": ("over",), "genieten": ("van",), "twijfelen": ("aan",),
    "wennen": ("aan",), "voldoen": ("aan",), "deelnemen": ("aan",),
    "behoren": ("tot",), "bestaan": ("uit",), "blijken": ("uit",),
}
_LD_VERBS = frozenset({
    "staan", "zitten", "liggen", "hangen", "lopen", "gaan", "komen",
    "blijven", "wonen", "vallen", "stappen", "springen", "zetten",
    "leggen", "belanden", "verhuizen",
})
_LD_PREPS = frozenset({"in", "op", "uit", "bij", "naast", "onder",
                       "boven", "achter", "tussen", "binnen", "buiten",
                       "langs", "tegenover"})


def _pp_is_adverbial(verb_ann, prep: str, post_verb: bool) -> bool:
    if prep == "naar":
        # directional naar-PPs are rel=ld complements, not mods ("ging
        # NAAR huis omdat ...", tests/depdist18: vcMod 1)
        return False
    lemma = verb_ann.full_lemma or verb_ann.lemma
    if prep in _PC_PREPS.get(lemma, ()):
        return False
    if post_verb and lemma in _LD_VERBS and prep in _LD_PREPS:
        return False
    return True


def _is_nounish(ann) -> bool:
    # names are nounish; bare SPEC (abbreviations / foreign words) is
    # NOT an argument — Alpino attaches it as a modifier ("bijv."
    # rel=mod, reference tests/afk golden: verb_bw_mod edge, np_mod)
    return ann.tag == "N" or ann.prop == "ISNAME"


def _is_su_candidate(ann) -> bool:
    if ann.tag == "VNW" and ann.lword in ("mij", "jou", "hem", "hen",
                                          "hun", "me"):
        return False  # oblique (object-form) personal pronouns
    if ann.tag == "VNW" and ann.lword == "men":
        return True  # impersonal subject pronoun ("MEN denkt dat",
        # tests/d3 s1: su edge dist 0)
    return _is_nounish(ann) or (
        ann.tag == "VNW" and ann.prop in ("ISPPRON1", "ISPPRON2", "ISPPRON3")
    ) or (
        # expletive/neuter "het" reads VNW only when no NP head follows
        # (tagger), so as a VNW it IS the clause subject ("omdat het
        # heel hard regent", reference tests/dlevel5) — CGN gives the
        # reduced pronoun no ISPPRON prop
        ann.tag == "VNW" and ann.lword == "het"
    )


def _obj_is_conj(anns: list, obj: int, end: int, puncts: set[int]) -> bool:
    """True when the PP object at ``obj`` is a BARE noun heading a
    nominal CONJUNCTION ("over bezit EN rechtspraak", "in rekenen EN
    sterrenkunde"): the obj1 is then a cat=conj of leaf cnjs with no
    recursible hd, so get_dependency_dist stores NO prep_obj edge
    (reference tests/d5 s1, dlevel5 s4) — a PHRASAL first cnj ("van
    EEN GAME en ...", tests/dlevel6 s9) keeps the edge."""
    if obj >= 1 and anns[obj - 1].tag != "VZ":
        return False  # phrasal first conjunct (det/adj before the hd)
    k = obj + 1
    while k < end and (k in puncts or _is_nounish(anns[k])):
        k += 1
    if k < end and anns[k].tag == "VG" and anns[k].conjtype != "onder":
        nk = next((x for x in range(k + 1, end) if x not in puncts), -1)
        return nk >= 0 and (_is_nounish(anns[nk])
                            or anns[nk].tag in ("LID", "ADJ"))
    return False


def _has_np_complement(anns: list, j: int, end: int, puncts: set[int]) -> bool:
    """True when the preposition at ``j`` is followed by nominal material
    (the start of its own object NP) before the next VZ/WW/VG — a bare
    particle ("at ... op als toetje") has none.  A VG directly followed
    by another VZ is a coordinated preposition ("in EN ROND hunebedden",
    reference tests/d6 s2) and is passed through."""
    k = j + 1
    while k < end:
        if k in puncts:
            k += 1
            continue
        a = anns[k]
        if a.tag == "VG":
            nk = next((x for x in range(k + 1, end) if x not in puncts), -1)
            if nk >= 0 and anns[nk].tag == "VZ":
                k = nk + 1
                continue
            return False
        if a.tag == "WW" and a.prop in ("ISVD", "ISOD") \
                and a.position == "PRENOM":
            # prenominal participle opens the object NP ("de geur van
            # AANGEBRAND vlees", reference tests/concreet3 s1: np_mod 2,
            # no verb_pp edge)
            return True
        if (a.tag == "VZ" and a.lword == "van" and k + 1 < end
                and anns[k + 1].tag == "VNW"
                and anns[k + 1].lword in ("die", "dat", "deze", "dit")):
            # partitive-determiner "van die X" (tests/bug5 s14)
            k += 2
            continue
        if a.tag == "WW" and a.prop == "ISINF":
            # nominalized bare infinitive object directly before the
            # matrix finite ("een recensie OVER SCHRIJVEN lijkt",
            # tests/dlevel6 s9)
            nk3 = next((x for x in range(k + 1, end)
                        if x not in puncts), -1)
            return nk3 < 0 or _is_finite(anns[nk3])
        if a.tag in ("VZ", "WW"):
            return False
        if _is_nounish(a) or a.tag in ("VNW", "LID", "ADJ", "TW"):
            return True
        if a.tag == "BW" and a.lword in ("morgen", "vandaag",
                                         "gisteren", "overmorgen",
                                         "eergisteren"):
            # temporal adverb as PP object ("voor MORGEN",
            # tests/relativeclauses s6: prep_obj1 0, np_mod)
            return True
        k += 1
    return False


def _pp_object(anns: list, i: int, end: int, puncts: set[int]) -> int:
    """Head of the object NP of the preposition at ``i``: the first
    noun/name, nominal plural numeral ("na al die duizenden JAREN" →
    duizenden, the TW head in the Alpino np) or non-determiner pronoun
    scanning right; determiner-like pronouns with a nominal head ahead
    are skipped; a VG+VZ pair (coordinated preposition) is passed
    through.  -1 when the PP has no nominal object."""
    k = i + 1
    while k < end:
        if k in puncts:
            k += 1
            continue
        a = anns[k]
        if a.tag == "VG":
            nk = next((x for x in range(k + 1, end) if x not in puncts), -1)
            if nk >= 0 and anns[nk].tag == "VZ":
                k = nk + 1
                continue
            return -1
        if a.tag == "VZ" and a.lword == "om":
            return -1  # an om..te clause is the complement, not an
            # object NP ("houdt er niet van OM energie te verspillen",
            # tests/bug4 s5: no prep_obj1)
        if (a.tag == "VZ" and a.lword == "van" and k + 1 < end
                and anns[k + 1].tag == "VNW"
                and anns[k + 1].lword in ("die", "dat", "deze", "dit")):
            # partitive-determiner "van die X" ("voor VAN DIE leuke
            # glow-in-the-dark-tanden", tests/bug5 s14): the van+dem
            # pair is the detp, scan on for the head
            k += 2
            continue
        if (a.prop == "ISNAME" and a.word.endswith("s")
                and k + 1 < end and anns[k + 1].tag == "N"
                and anns[k + 1].prop != "ISNAME"):
            # genitive name as determiner ("van LEENS gesnik",
            # tests/bug4 s20: det Leens, hd gesnik)
            k += 1
            continue
        if a.tag == "WW" and a.prop in ("ISVD", "ISOD"):
            # prenominal participle inside the PP ("van een GEVONDEN
            # winkelkar", tests/flair1 s6): skip to the nominal head
            nk = next((x for x in range(k + 1, end)
                       if x not in puncts), -1)
            if nk >= 0 and (_is_nounish(anns[nk])
                            or anns[nk].tag == "ADJ"):
                k += 1
                continue
            return -1
        if a.tag == "WW" and a.prop == "ISINF":
            # nominalized bare infinitive as PP object when the clause
            # FINITE (or nothing verbal) follows: Alpino reads it
            # pos=noun ("hier een recensie OVER SCHRIJVEN lijkt mij",
            # tests/dlevel6 s9: prep_obj over->schrijven)
            nk3 = next((x for x in range(k + 1, end)
                        if x not in puncts), -1)
            if nk3 < 0 or _is_finite(anns[nk3]):
                return k
            return -1
        if a.tag in ("VZ", "WW"):
            return -1
        if a.tag == "BW" and a.lword in ("hoe", "waarom", "wanneer"):
            return -1  # prepositional WH-clause ("over hoe hij won"):
            # the complement is a clause, not a nominal object
        if a.tag == "BW" and a.lword in ("morgen", "vandaag",
                                         "gisteren", "overmorgen",
                                         "eergisteren"):
            return k  # temporal adverb object ("voor MORGEN")
        if a.tag == "LID" and a.lword == "een":
            nk2 = next((x for x in range(k + 1, end)
                        if x not in puncts), -1)
            if nk2 >= 0 and anns[nk2].tag == "VZ" \
                    and anns[nk2].lword == "van":
                return k  # partitive head ("tijdens EEN van de
                # ijstijden", tests/d3 s1: prep_obj1 0)
        if _is_nounish(a):
            return k
        if a.tag == "TW" and a.lword.endswith("en"):
            return k
        if a.tag == "VNW":
            head_ahead = False
            for x in range(k + 1, end):
                if x in puncts:
                    continue
                if anns[x].tag in ("VZ", "WW", "VG"):
                    break
                if _is_nounish(anns[x]) or (anns[x].tag == "TW"
                                            and anns[x].lword.endswith("en")):
                    head_ahead = True
                    break
            if not head_ahead:
                return k
        k += 1
    return -1


# measure/container nouns heading a partitive N-N pair ("een GLAS
# melk", "drie LITER water": the measure is the np head)
_MEASURE_NOUNS = frozenset({
    "glas", "kop", "fles", "liter", "kilo", "gram", "pond", "stuk",
    "paar", "aantal", "soort", "groep", "reeks", "rij", "massa",
    "hoop", "boel", "beetje", "plak", "snee", "zak", "doos", "blik",
    "pak", "krat", "emmer", "schaal", "bord", "lepel", "mok", "beker",
    "kan", "pot", "bak", "mand", "kist", "ton", "meter", "centimeter",
    "kilometer", "hectare", "procent", "miljoen", "miljard"})

# unaccusative / change-of-state verbs: their zijn-perfect keeps the
# subject edge ("is gegaan"), unlike the zijn/worden passive of a
# transitive verb ("is aangetroffen" -> obj1)
_UNACCUSATIVES = frozenset({
    "gaan", "komen", "blijven", "worden", "geworden", "vallen",
    "gebeuren", "lukken", "mislukken", "beginnen", "sterven",
    "overlijden", "ontstaan", "blijken", "zijn", "verdwijnen",
    "arriveren", "vertrekken", "groeien", "veranderen", "eindigen",
    "starten", "stoppen", "slagen", "verschijnen", "stijgen", "dalen",
    "vergaan", "belanden", "geraken", "raken", "opgroeien", "uitgroeien",
    "terechtkomen", "aankomen", "binnenkomen", "opstaan", "ontsnappen",
    "vluchten", "genezen", "smelten", "bevriezen", "exploderen",
    "verongelukken", "verhuizen", "emigreren", "zinken", "vollopen",
    "aflopen", "verlopen", "doorgaan", "uitgaan", "ingaan", "opgaan",
    "afgaan", "meegaan", "weggaan", "terugkeren", "terugkomen",
    "thuiskomen", "vrijkomen", "overblijven", "achterblijven",
    "wegblijven", "omvallen", "uitvallen", "opvallen", "tegenvallen",
    "meevallen", "invallen", "toenemen", "afnemen"})

# connective adverbs that start a new (V1-inverted) main clause when a
# finite clause precedes and another finite verb follows
_CONN_ADVERBS = frozenset({"dus", "daarom", "daardoor", "daarna",
                           "vervolgens", "bovendien", "echter", "toch",
                           "immers", "bijgevolg", "zodoende"})


def _split_clauses(anns: list) -> list[Clause]:
    """Clause segmentation: a VG token closes the current clause and opens
    a new one — ``neven`` (coordinating) opens a peer main clause,
    ``onder`` (subordinating) opens an embedded clause (the reduced stand-
    in for Alpino's smain/ssub bracketing)."""
    clauses: list[Clause] = []
    # paren tokens split clauses only when the parenthesized span holds
    # a finite verb; a verbless aside is clause-transparent
    clausal_parens: set[int] = set()
    open_i = -1
    for i, a in enumerate(anns):
        if a.word == "(":
            open_i = i
        elif a.word == ")" and open_i >= 0:
            if (any(_is_finite(anns[j]) for j in range(open_i + 1, i))
                    # a paren pair wrapping the WHOLE sentence is
                    # transparent ("( Daar horen dus ... bij ! )",
                    # tests/bug2 s8: one smain)
                    and not (open_i == 0
                             and all(anns[k].prop == "ISLET"
                                     for k in range(i + 1,
                                                    len(anns))))):
                clausal_parens.update((open_i, i))
            open_i = -1
    start = 0
    kind = "main"
    conj = -1
    seen_finite = False
    for i, a in enumerate(anns):
        if (a.tag == "VG" and a.conjtype != "onder"
                and 0 < i < len(anns) - 1
                and anns[i - 1].tag == "VZ"
                and anns[i + 1].tag == "VZ"):
            # coordinated bare particles/prepositions ("dozen IN OF
            # UIT te pakken", tests/flair1 s18) — phrase-level, never
            # a clause boundary
            pass
        elif (a.lword == "maar" and a.tag == "VG" and i > 0
              and anns[i - 1].tag == "BW"
              and anns[i - 1].lword in ("steeds", "nog", "alsmaar",
                                        "almaar")):
            # continuative "steeds maar" / "nog maar" is advp-internal
            # (tests/predc-a: no conjuncts), not a coordinator
            pass
        elif a.tag == "VG":
            if i > start:
                clauses.append(Clause(start, i, kind, conj))
            kind = "sub" if a.conjtype == "onder" else "coord"
            conj = i
            start = i + 1
            seen_finite = False
        elif (a.word in (":", ";") and seen_finite
              and any(_is_finite(anns[j])
                      for j in range(i + 1, len(anns)))):
            # colon/semicolon between two finite fields opens a fresh
            # clause ("... gezegd worden : wat willen we ...",
            # tests/bug5 s2: 3 clauses)
            if i > start:
                clauses.append(Clause(start, i, kind, conj))
            kind = "main"
            conj = -1
            start = i + 1
            seen_finite = False
        elif a.word in ("(", ")") and i in clausal_parens:
            # clausal parentheticals are their own clause spans ("een (
            # hoe kan het ook anders ) zwart mutsje", reference
            # tests/flair1 s20: the aside is an sv1 clause) — but a
            # verbless paren NP ("maar nu ( 26 april ) zijn ze er niet
            # meer", tests/bug2 s6) stays inside the host clause
            if i > start:
                clauses.append(Clause(start, i, kind, conj))
            kind = "main"
            conj = -1
            start = i + 1
            seen_finite = False
        elif (a.tag in ("BW", "VNW") and i > start
              and a.lword in ("hoe", "waarom", "wanneer", "wie", "wat")
              and anns[i - 1].tag == "VZ"
              and any(_is_finite(anns[j])
                      for j in range(i + 1, len(anns)))):
            # prepositional WH-clause complement ("verhalen over HOE
            # hij won"): the wh word heads an embedded whsub
            # (reference tests/relativeclauses s16: ssub + compl)
            clauses.append(Clause(start, i, kind, conj))
            kind = "sub"
            conj = i
            start = i + 1
            seen_finite = False
        elif (a.tag == "BW" and a.lword in _CONN_ADVERBS and seen_finite
              and i > start
              and next((_is_finite(anns[j])
                        for j in range(i + 1, len(anns))
                        if anns[j].prop != "ISLET"), False)):
            # connective adverb joining two finite clauses without a VG
            # ("... geen repen met punten meer DUS kocht ik 2 repen",
            # reference tests/bug1/bug2: Alpino brackets the clauses
            # as CONJUNCTS with the adverb as coordinator (smain_cnj
            # counts both, crd edges run from the adverb).  V2
            # inversion (finite DIRECTLY after the adverb) is required:
            # a mid-clause "echter"/"toch" is a plain modifier ("Het
            # moeten er ECHTER veel meer zijn geweest", tests/dlevel4)
            clauses.append(Clause(start, i, kind, conj))
            kind = "coord"
            conj = i
            start = i + 1
            seen_finite = False
        elif (a.word == "," and i > start and not seen_finite
              and i + 1 < len(anns)
              and _is_finite(anns[i + 1])
              and any(anns[k].lword == "te"
                      and k + 1 < i and anns[k + 1].tag == "WW"
                      for k in range(start, i))):
            # fronted infinitival adjunct + comma + finite ("Na over
            # de muur te zijn gesprongen , RAAKTE hij uit balans",
            # tests/dlevel2 s9): the te-clause is its own span — no
            # su refs, no shared cluster
            clauses.append(Clause(start, i, kind, conj))
            kind = "main"
            conj = -1
            start = i + 1
            seen_finite = False
        elif (a.word == "," and i > start
              and i + 2 < len(anns)
              and anns[i + 1].tag == "BW"
              and anns[i + 1].lword in ("dan", "nu", "toen")
              and _is_finite(anns[i + 2])
              and not seen_finite
              # not after a verbless comparative sub clause ("net als
              # Lara Stone , dan ben je ...", tests/bug5 s18: the dan
              # clause resumes the conditional, no fresh smain)
              and kind != "sub"):
            # verbless opener + comma + adverb-V2 ("' Lieve schat ,
            # DAN WORDT het tijd ...", tests/bug4 s18): the fragment
            # is a du, the V2 clause stands alone
            clauses.append(Clause(start, i, kind, conj))
            kind = "main"
            conj = -1
            start = i + 1
            seen_finite = False
        elif (a.word == "," and seen_finite
              and i + 2 < len(anns)
              and anns[i + 1].lword == "al"
              and _is_finite(anns[i + 2])):
            # concessive ", al HEB ik ..." (tests/bug4 s11): an sv1
            # clause modifying the matrix
            clauses.append(Clause(start, i, kind, conj))
            kind = "sub"
            conj = i + 1
            start = i + 2
            seen_finite = False
        elif (a.word == "," and seen_finite
              and i + 2 < len(anns)
              and anns[i + 1].tag == "VNW"
              and anns[i + 1].lword == "dat"
              and not _is_finite(anns[i + 2])
              and i >= 1 and anns[i - 1].tag == "WW"
              and any(_is_finite(anns[j])
                      for j in range(i + 2, len(anns)))):
            # comma + dat + verb-final material directly after a finite
            # verb: a complement clause even though Frog tags the dat
            # as a pronoun ("Carola vond , DAT Artur wel erg raar
            # deed", tests/dlevel3 s3: ssub + compl + cmp edges)
            if i > start:
                clauses.append(Clause(start, i, kind, conj))
            kind = "sub"
            conj = i + 1
            start = i + 2
            seen_finite = False
        elif (a.word == "," and seen_finite
              and i + 2 < len(anns)
              and anns[i + 1].tag == "VNW"
              and anns[i + 1].lword in ("dat", "dit")
              and _is_finite(anns[i + 2])):
            # comma + demonstrative subject + V2 finite = asyndetic
            # peer clause ("... te pakken , DAT IS mij niet helemaal
            # duidelijk", tests/flair1 s18: 2 smains) — a relative
            # would be verb-FINAL after dat
            clauses.append(Clause(start, i, kind, conj))
            kind = "coord"
            conj = -1
            start = i + 1
            seen_finite = False
        elif (a.word == "," and seen_finite and i > start
              and kind != "sub"
              and not any(anns[j].word == "," for j in range(start, i))
              # a mid-segment die/dat after nominal material is a
              # (possibly still untagged) relative: the post-comma
              # finite then continues the MATRIX clause ("Het weinige
              # dat zij hebben nagelaten , LIGT ...", tests/dlevel6 s1)
              and not any(anns[j].lword in ("die", "dat") and j > start
                          and (_is_nounish(anns[j - 1])
                               or anns[j - 1].tag == "VNW")
                          for j in range(start + 1, i))
              # a wh-initial segment is a fronted free relative, not a
              # full first conjunct ("WIE zoiets dappers presteert ,
              # verdient ...", tests/dlevel6 s4)
              and anns[start].lword not in ("wie", "wat", "waar", "hoe",
                                            "waarom", "wanneer",
                                            "zoals", "als", "toen")
              and i + 1 < len(anns) and _is_finite(anns[i + 1])):
            # asyndetic clause coordination: comma directly followed by
            # a finite verb opens a peer conjunct sharing the subject
            # ("Zij woonden in lemen boerderijen , GEBRUIKTEN houten
            # en stenen werktuigen", reference tests/d2 s1: 3 smains).
            # An internal comma means the segment holds an embedded
            # relative/parenthetical instead — the following finite is
            # the MATRIX verb ("Het voorstel , waarover ik je
            # vertelde , IS aangenomen", tests/dlevel6 s6)
            clauses.append(Clause(start, i, kind, conj))
            kind = "coord"
            conj = -1
            start = i + 1
            seen_finite = False
        elif (seen_finite and i > start and a.tag == "VNW"
              and a.prop in ("ISPPRON1", "ISPPRON2", "ISPPRON3")
              and a.word[:1].isupper()
              and any(_is_finite(anns[j]) for j in range(i + 1, len(anns)))):
            # run-on text: a CAPITALIZED subject pronoun after a finite
            # clause opens a fresh main clause ("Hij is bakker Hij IS
            # ...", reference tests/predc-n)
            clauses.append(Clause(start, i, kind, conj))
            kind = "main"
            conj = -1
            start = i
            seen_finite = False
        elif _is_finite(a):
            if (seen_finite and i > start + 1
                    and anns[start].tag == "VNW"
                    and anns[start].lword in ("wat", "wie", "welke")
                    and not any(anns[k].word == ","
                                for k in range(start, i))):
                # fronted wh clause directly before the matrix finite
                # ("wat hij wil WEET ik niet", tests/smallconjuncts
                # s29; "maar welke dat zijn IS niet meer te
                # achterhalen", tests/d5 s1).  Mid-sentence the wh
                # clause is its own whsub (kind=sub, the wh word as
                # its cmp slot); the pending kind/conj stay with the
                # MATRIX clause so a preceding coordinator counts the
                # matrix as the conjunct (Alpino: conj of smains).
                # Sentence-initial the existing whsub_su block decides
                # subject- vs object-wh, so the kind stays untouched.
                if any(anns[j].tag != "LET" for j in range(start)):
                    clauses.append(Clause(start, i, "sub", start))
                else:
                    clauses.append(Clause(start, i, kind, conj))
                    kind = "main"
                    conj = -1
                start = i
                seen_finite = False
            if seen_finite and i > start + 1:
                # run-on second main clause without conjunction: a
                # fresh det+noun subject NP directly before a second
                # finite verb ("... een probleem de situatie zit zo",
                # reference tests/bug1: Alpino brackets two smains)
                j = i - 1
                while j > start and anns[j].tag in ("N", "SPEC"):
                    j -= 1
                while j > start and anns[j].tag in ("ADJ", "TW"):
                    j -= 1
                if (j < i - 1 and j > start
                        and kind != "sub"
                        # inside a SUB clause "det N finite" is the
                        # regular verb-final order resuming after an
                        # embedded rel ("Dat de republikein , die ...
                        # had hangen , DE VERKIEZINGEN WON",
                        # tests/dlevel4 s6) — no run-on rescue
                        and (anns[j].tag == "LID"
                             or (anns[j].tag == "VNW"
                                 and anns[j].lword in (
                                     "deze", "die", "dit", "dat", "mijn",
                                     "zijn", "haar", "hun", "onze")))
                        and anns[i - 1].tag in ("N", "SPEC")):
                    clauses.append(Clause(start, j, kind, conj))
                    kind = "main"
                    conj = -1
                    start = j
            seen_finite = True
    if start < len(anns):
        clauses.append(Clause(start, len(anns), kind, conj))
    if not clauses:
        clauses.append(Clause(0, len(anns), "main", -1))
    return clauses


def _merge_nominal_conj(anns: list, clauses: list[Clause]) -> tuple[list[Clause], list[int]]:
    """Nominal (phrase-level) coordination is not a clause boundary: a
    coordinating VG where either side has no finite verb joins two NPs/PPs
    ("Jan en Piet gaan...", "...Denemarken en Noord-Duitsland"); merge those
    splits back and return the nominal conj indices (their crd edges run
    conj -> each conjunct head, reference tests/depdist3)."""

    def has_finite(cl: Clause) -> bool:
        return any(_is_finite(anns[i]) for i in range(cl.start, cl.end))

    out: list[Clause] = []
    nominal: list[int] = []
    for cl in clauses:
        # a V-INITIAL right conjunct with a finite is VP/clause
        # coordination sharing the left subject ("hielden ... op en
        # GINGEN wonen", reference tests/d5 s3) — never nominal, even
        # when the directly preceding fragment is verbless
        first = next((i for i in range(cl.start, cl.end)
                      if anns[i].prop != "ISLET"), -1)
        v_initial = (cl.kind == "coord" and first >= 0
                     and _is_finite(anns[first]))
        # coordinated participles under ONE clause-final aux stay one
        # clause ("geordend EN op elkaar gestapeld zijn", tests/d2 s3:
        # the en joins the ppart cnjs, zijn is the shared finite)
        if (cl.kind == "coord" and out and not v_initial
                and has_finite(cl) and cl.conj_idx >= 1):
            last_np = next((i for i in range(cl.end - 1, cl.start - 1,
                                             -1)
                            if anns[i].prop != "ISLET"), -1)
            lprev = next((i for i in range(cl.conj_idx - 1, -1, -1)
                          if anns[i].prop != "ISLET"), -1)
            if (last_np >= 1 and _is_finite(anns[last_np])
                    and anns[last_np].lemma in ("zijn", "worden",
                                                "hebben")
                    and anns[last_np - 1].tag == "WW"
                    and anns[last_np - 1].prop == "ISVD"
                    and lprev >= 0 and anns[lprev].tag == "WW"
                    and anns[lprev].prop == "ISVD"
                    and not any(_is_finite(anns[i])
                                for i in range(cl.start, last_np))):
                prev = out[-1]
                out[-1] = Clause(prev.start, cl.end, prev.kind,
                                 prev.conj_idx)
                nominal.append(cl.conj_idx)
                continue
        if cl.kind == "coord" and out and not v_initial and (
            not has_finite(cl) or not has_finite(out[-1])
        ):
            # gapping: a comma + coordinator after a COMPLETE clause,
            # followed by verbless nominal material ("..., en Arie en
            # Truus ook."): a du conjunct in Alpino, not NP coordination
            if (has_finite(out[-1]) and not has_finite(cl)
                    and cl.conj_idx >= 1
                    and anns[cl.conj_idx - 1].word == ","
                    and not any(anns[i].tag == "WW"
                                for i in range(cl.start, cl.end))
                    and any(_is_nounish(anns[i])
                            for i in range(cl.start, cl.end))):
                out.append(Clause(cl.start, cl.end, "gap", cl.conj_idx))
                continue
            prev = out[-1]
            out[-1] = Clause(prev.start, cl.end, prev.kind, prev.conj_idx)
            nominal.append(cl.conj_idx)
            continue
        out.append(cl)
    return out, nominal


_FUNC_MWUS = frozenset({
    ("af", "en", "toe"), ("nu", "en", "dan"), ("her", "en", "der"),
    ("heen", "en", "weer"), ("op", "en", "neer"), ("min", "of", "meer"),
    ("in", "plaats", "daarvan"), ("in", "plaats", "hiervan"),
    ("a", "la", "minute"),
})
# complex prepositions: one mwu node heading a pp; the prep_obj edge
# runs from the mwu's resolved hd word (its 2nd token) to the object
_COMPLEX_PREPS = frozenset({
    ("met", "behulp", "van"), ("in", "plaats", "van"),
    ("ten", "opzichte", "van"), ("op", "basis", "van"),
    ("aan", "de", "hand"), ("met", "betrekking", "tot"),
    ("in", "tegenstelling", "tot"), ("naar", "aanleiding", "van"),
})
# two-token predicate MWUs: mwu head of a predc AP in the tree
_PRED_MWUS_2 = frozenset({
    ("in", "staat"), ("van", "plan"), ("op", "zoek"), ("aan", "bod"),
})


def parse_sentence(anns: list, lex=None,
                   ladder_anns: list | None = None) -> SentParse:
    """Run the reduced parser over one sentence of ``WordAnn`` records.

    Rule cascade (deterministic, left-to-right):

    * per clause: first finite verb = clause head; first noun/pronoun
      before it = subject (SUB_VERB); post-verb scan assigns OBJ1/OBJ2
      (PREDC_N under a copula), PPs (VERB_PP + PREP_OBJ1), adverbial
      modifiers (VERB_MOD_BW), free adjectives (PREDC_A under copula,
      else VERB_MOD_A) and verb clusters (VERB_VC);
    * NPs: maximal [LID]? [ADJ]* N+ runs (NOUN_DET, np/mod counters);
    * conjunctions: CRD_CNJ / COMP_BODY to the next clause's verb.
    """
    parse = SentParse()
    n = len(anns)
    puncts = {i for i, a in enumerate(anns) if a.prop == "ISLET"}

    # foreign-majority fragment: Alpino groups an (English) run into a
    # du/mwu with NO clause structure and no dependency edges ("Before
    # is Taro's name on textbook but", tests/mtld s4: clause 0, all
    # distances NA, AL NaN) — only the Frog-chunker NP count survives
    nonp = [a for i, a in enumerate(anns) if i not in puncts]
    foreign_cnt = sum(1 for a in nonp
                      if a.tag == "SPEC" and a.prop != "ISNAME")
    if foreign_cnt >= 3 and foreign_cnt * 2 >= len(nonp):
        i2 = 0
        while i2 < n:
            a2 = anns[i2]
            if a2.tag in ("N", "SPEC") or (
                    a2.tag == "VNW" and a2.lword not in
                    _NON_CHUNK_PRONOUNS):
                parse.np_cnt += 1
                size2 = 1
                while (i2 + 1 < n and i2 + 1 not in puncts
                       and anns[i2 + 1].tag in ("N", "SPEC")):
                    i2 += 1
                    size2 += 1
                parse.np_size_sum += size2
            i2 += 1
        return parse

    # Frog tags a clause-final plural-present homograph after a modal
    # as pv ("wou ik 2 repen KOPEN ,", tests/bug3 s2) but the Alpino
    # TREE still forms the verb cluster (verb_vc [3] there).  The word
    # counters keep the pv tag; the parse sees a cluster infinitive —
    # demote on a CLONE so only tree-derived metrics shift.
    demote = []
    seg_start = 0
    _CONN_BW = ("dus", "daarom", "vervolgens", "bovendien", "daarna",
                "toch")
    for i in range(n + 1):
        at_bound = (i == n or anns[i].word in (",", ";", ":", "(", ")")
                    or (anns[i].tag == "VG"
                        and anns[i].conjtype != "onder")
                    or (anns[i].tag == "BW" and anns[i].lword in _CONN_BW
                        and any(_is_finite(anns[j])
                                for j in range(seg_start, i)))
                    # an extraposed relative pronoun right after the
                    # verb cluster closes it ("leerde er jongens KENNEN
                    # die dol waren op ...", tests/dlevel3 s1: verb_vc
                    # leerde->kennen, the rel body is its own clause)
                    or (anns[i].tag == "VNW"
                        and anns[i].lword in ("die", "dat")
                        and i > seg_start and anns[i - 1].tag == "WW"
                        and anns[i - 1].prop == "ISPVTGW"))
        if not at_bound:
            continue
        last = next((j for j in range(i - 1, seg_start - 1, -1)
                     if j not in puncts), -1)
        # an auxiliary "zijn/hebben/worden" between the modal and a
        # trailing participle run is the cluster infinitive too ("Het
        # moeten er echter veel meer ZIJN geweest", tests/dlevel4 s7:
        # verb_vc [4, 0]) — walk back over the participles first
        while (last > seg_start and anns[last].tag == "WW"
               and anns[last].prop == "ISVD"):
            last = next((j for j in range(last - 1, seg_start - 1, -1)
                         if j not in puncts), -1)
        if last > seg_start:
            a = anns[last]
            fins = [j for j in range(seg_start, last)
                    if _is_finite(anns[j])]
            if (fins and a.tag == "WW" and a.prop == "ISPVTGW"
                    and (a.lword.endswith("en")
                         or a.lword in ("zijn", "worden"))
                    and a.lword == a.lemma
                    and anns[fins[-1]].lemma in _CLUSTER_MODALS
                    and fins[-1] != last):
                demote.append(last)
        seg_start = i + 1
    # a determined infinitive is an NP head in the tree ("met HET
    # BESTAAN als jager", tests/d5 s3: prep_obj1 met->bestaan, det
    # edge, np counts) — demote to N on the same parse-only clone
    first_np_tok = next((i for i in range(n)
                         if anns[i].prop != "ISLET"), -1)
    for i, a in enumerate(anns):
        if (a.tag == "WW" and a.prop == "ISINF"
                and a.position == "NOMIN" and i == first_np_tok
                and any(_is_finite(anns[k]) for k in range(i + 1, n))):
            # sentence-initial nominalized-infinitive SUBJECT ("HUILEN
            # is prima", tests/bug4 s6; "ROEIEN ... was vermoeiend",
            # tests/overlap5 s2: su edge, no cluster)
            demote.append(-i - 1)
            continue
        if a.tag == "WW" and a.prop == "ISINF" and i:
            pj = next((j for j in range(i - 1, -1, -1)
                       if j not in puncts), -1)
            if (pj >= 0 and anns[pj].tag == "VZ"
                    and anns[pj].lword not in ("te", "om")):
                # bare infinitive as a PP object is a nominalization
                # when no verbal material follows directly ("een
                # recensie over SCHRIJVEN lijkt mij", tests/dlevel6
                # s9; "bedreven in REKENEN en sterrenkunde",
                # tests/dlevel5 s4)
                nxtf = next((j for j in range(i + 1, n)
                             if j not in puncts), -1)
                if nxtf < 0 or _is_finite(anns[nxtf]) \
                        or anns[nxtf].tag in ("VG", "N", "LET"):
                    demote.append(-i - 1)
                continue
            if pj >= 0 and (anns[pj].tag == "LID"
                            or (anns[pj].tag == "VNW"
                                and anns[pj].lword in (
                                    "mijn", "jouw", "uw", "zijn",
                                    "haar", "hun", "ons", "onze"))):
                # "aan het WERKEN" is the progressive aspect, still
                # verbal (tests/smallconjuncts s12: no det/obj edges)
                pj2 = next((j for j in range(pj - 1, -1, -1)
                            if j not in puncts), -1)
                if pj2 >= 0 and anns[pj].lword == "het" \
                        and (anns[pj2].lword == "aan"
                             # coordinated progressive conjunct ("aan
                             # het schikken en HET PLOOIEN")
                             or (anns[pj2].tag == "VG"
                                 and any(anns[k].lword == "aan"
                                         and anns[k + 1].lword == "het"
                                         for k in range(pj2)))):
                    continue
                demote.append(-i - 1)  # negative marker = noun demotion

    # the D-level ladder counts FROG word tags; with a lowercased
    # parse clone (caps-SPEC re-analysis) the caller passes the word
    # anns separately (tests/mod_adv s1: als VG -> level 5)
    orig_anns = ladder_anns if ladder_anns is not None else anns
    # PROMOTION: Frog tags a V2 plural-present homograph after a
    # clause-initial R-pronoun as INF, but the tree reads the inverted
    # finite ("( Daar HOREN dus eigenlijk nog 2 spaarpunten bij ! )",
    # tests/bug2 s8: smain) — promote on the parse clone when the
    # sentence has no finite at all
    if not any(_is_finite(a) for a in anns):
        first_np2 = next((i for i in range(n)
                          if anns[i].prop != "ISLET"), -1)
        if (first_np2 >= 0 and first_np2 + 1 < n
                and anns[first_np2].tag == "VNW"
                and anns[first_np2].lword in ("daar", "er", "hier")
                and anns[first_np2 + 1].tag == "WW"
                and anns[first_np2 + 1].prop == "ISINF"
                and anns[first_np2 + 1].lword
                == anns[first_np2 + 1].lemma):
            demote.append(first_np2 + 1 + 2 * n)  # promotion marker
    nom_inf_heads: set[int] = set()
    if demote:
        import dataclasses
        anns = list(anns)
        for j in demote:
            if j >= 2 * n:
                k = j - 2 * n
                anns[k] = dataclasses.replace(anns[k], prop="ISPVTGW")
            elif j < 0:
                k = -j - 1
                anns[k] = dataclasses.replace(anns[k], tag="N", prop="")
                nom_inf_heads.add(k)
            else:
                anns[j] = dataclasses.replace(anns[j], prop="ISINF",
                                              wwform=anns[j].wwform)

    # lexicalized function-word MWUs ("af en toe"): one mwu node in
    # Alpino — the tokens join no PP/conjunction/modifier scan (they do
    # count in distances, unlike punctuation)
    mwu: set[int] = set()
    for i in range(n - 2):
        if (anns[i].lword, anns[i + 1].lword,
                anns[i + 2].lword) in _FUNC_MWUS:
            mwu.update((i, i + 1, i + 2))
            # the mwu node itself is rel=mod under its clause —
            # getAdverbialNodes counts it ("IN PLAATS DAARVAN",
            # tests/bug5 s8: vcMod)
            parse.vc_mod_cnt += 1
    for i in range(n - 1):
        if (anns[i].lword, anns[i + 1].lword) in _PRED_MWUS_2:
            # two-token predicate mwu ("IN STAAT zijn geweest om ...",
            # tests/dlevel6 s8: mwu hd of the predc ap — no PP/NP
            # reading for its tokens)
            mwu.update((i, i + 1))
    complex_pps: list[int] = []
    complex_pp_objs: set[int] = set()
    for i in range(n - 2):
        if (anns[i].lword, anns[i + 1].lword,
                anns[i + 2].lword) in _COMPLEX_PREPS:
            # complex preposition ("MET BEHULP VAN Rogier",
            # tests/connective3 s1): one pp whose hd is the mwu — the
            # prep_obj edge runs from the mwu's 2nd token, and the pp
            # is a rel=mod adverbial
            mwu.update((i, i + 1, i + 2))
            cobj = next((x for x in range(i + 3, n)
                         if x not in puncts
                         and (_is_nounish(anns[x])
                              or anns[x].tag == "VNW")), -1)
            if cobj >= 0:
                _store(parse, "PREP_OBJ1", i + 1, cobj, puncts)
                complex_pp_objs.add(cobj)
            complex_pps.append(i)
            parse.vc_mod_cnt += 1

    # relative clauses (rel-pronoun directly after a noun) — detected
    # up front so they can shape the clause spans below
    rel_after_noun: list[tuple[int, int]] = []  # (noun_idx, pron_idx)
    for i in range(1, n):
        a = anns[i]
        prev_idx = i - 1
        if prev_idx in puncts and i >= 2:  # "de man , die ..."
            prev_idx = i - 2
        # "dat/die" + clause-final copula is a PREDICATIVE demonstrative,
        # not a relative ("zomin een roker als Piet DAT IS .",
        # tests/connective5 s1: betr 0)
        nxt_np = next((k for k in range(i + 1, n) if k not in puncts),
                      -1)
        pred_dem = (a.lword in ("dat", "die") and nxt_np >= 0
                    and anns[nxt_np].tag == "WW"
                    and _is_finite(anns[nxt_np])
                    and anns[nxt_np].lemma in ("zijn", "doen")
                    and all(k in puncts for k in range(nxt_np + 1, n)))
        if (
            not pred_dem
            and ((a.tag == "VNW" and a.lword in _REL_PRONOUNS)
                 # locative/pronominal-adverb relatives ("het plaats
                 # delict WAAR de jongen ... is aangetroffen", "de
                 # groep WAARTOE de herten behoren")
                 or (a.lword.startswith("waar") and a.tag in ("VNW", "BW")
                     and a.lword not in ("waarom", "waarschijnlijk")))
            and (_is_nounish(anns[prev_idx])
                 # substantivized adjective/quantifier head ("Het
                 # weinige dat ...", reference tests/d6: rel clause
                 # under the het-NP)
                 or (anns[prev_idx].tag in ("ADJ", "VNW") and prev_idx >= 1
                     and anns[prev_idx - 1].tag == "LID")
                 # indefinite-pronoun antecedent ("IEDEREEN die
                 # langskomt", tests/svp s1: betr + np_mod)
                 or (anns[prev_idx].tag == "VNW"
                     and anns[prev_idx].lword in (
                         "iedereen", "iemand", "niemand", "iets",
                         "niets", "alles", "sommigen", "velen")))
        ):
            rel_after_noun.append((prev_idx, i))
        elif (a.tag == "VNW" and a.lword in _REL_PRONOUNS
                # ", DAT is mij niet helemaal duidelijk": comma +
                # pronoun + immediate finite with no verb-final body =
                # a demonstrative V2 clause, not an extraposed rel
                # (tests/flair1 s18: betr 0) — a verb-final body keeps
                # the rel reading (", die natuurlijk voor GING",
                # tests/dlevel4 s1)
                and not (i - 1 in puncts and nxt_np >= 0
                         and _is_finite(anns[nxt_np])
                         and not any(anns[k].tag == "WW"
                                     for k in range(nxt_np + 1, n)
                                     if k not in puncts))
                and prev_idx >= 0 and anns[prev_idx].tag == "WW"
                and anns[prev_idx].prop in ("ISINF", "ISVD")):
            # EXTRAPOSED relative: the rel clause follows the verb
            # cluster, its antecedent noun sits before it ("stenen te
            # vervoeren DIE soms wel 20.000 kilo wegen", reference
            # tests/d6 s4) — only when verbal material follows the
            # pronoun (else "die" is a demonstrative argument)
            noun = next((k for k in range(prev_idx - 1, -1, -1)
                         if k not in puncts and _is_nounish(anns[k])),
                        -1)
            body_end = next((k for k in range(i + 1, n)
                             if anns[k].lword == ","), n)
            has_verb_after = any(
                anns[k].tag == "WW" for k in range(i + 1, body_end)
                if k not in puncts)
            if noun >= 0 and has_verb_after:
                rel_after_noun.append((noun, i))

    clauses, nominal_conjs = _merge_nominal_conj(anns, _split_clauses(anns))
    # particle coordination never reached the clause splitter ("dozen
    # IN OF UIT te pakken"): hand the VG to the small-conj scan
    for i in range(1, n - 1):
        if (anns[i].tag == "VG" and anns[i].conjtype != "onder"
                and anns[i - 1].tag == "VZ" and anns[i + 1].tag == "VZ"
                and i not in nominal_conjs):
            nominal_conjs.append(i)

    # Dutch ssub is verb-final: a subordinate clause ends at its finite
    # verb — material after it (a second finite) resumes the MATRIX
    # clause ("De kans dat hij Piet ziet is vrij klein", reference
    # tests/depdist21: the cp hangs under the np, smain continues)
    expanded: list[Clause] = []
    cont_from: dict[int, int] = {}  # continuation start -> sub conj idx
    for cl in clauses:
        if cl.kind == "sub":
            idxs = [i for i in range(cl.start, cl.end) if i not in puncts]
            fins = [i for i in idxs if _is_finite(anns[i])]
            # finites inside an embedded RELATIVE clause do not close
            # the sub clause ("Dat de republikein , die ... HAD hangen
            # , de verkiezingen WON , was ...", tests/dlevel4 s6: the
            # cp body hd is won, not had)
            for (_nn, pr) in rel_after_noun:
                if cl.start < pr < cl.end:
                    rf = next((k for k in fins if k >= pr), -1)
                    if rf >= 0 and len(fins) >= 2:
                        fins = [k for k in fins if k != rf]
            if len(fins) >= 2:
                split_at = fins[0]
                # the first finite's trailing non-finite cluster stays
                # with it ("... uit het dak waren GESLAGEN , de
                # brandweer had opgebeld", tests/dlevel4 s2: geslagen
                # closes the embedded clause)
                while (split_at + 1 < cl.end
                       and split_at + 1 not in puncts
                       and anns[split_at + 1].tag == "WW"
                       and not _is_finite(anns[split_at + 1])):
                    split_at += 1
                expanded.append(Clause(cl.start, split_at + 1, "sub",
                                       cl.conj_idx))
                expanded.append(Clause(split_at + 1, cl.end, "main", -1))
                cont_from[split_at + 1] = cl.conj_idx
                continue
        expanded.append(cl)
    clauses = expanded

    # embedded relative clauses are their own (verb-final) clause spans:
    # the rel body runs from the pronoun to its finite verb, the matrix
    # resumes after it ("zijn geen skeletten , die ... vergaan zijn ,
    # gevonden", reference tests/d6 s2: ssub + the matrix smain) — only
    # when the matrix keeps a finite verb of its own
    expanded2: list[Clause] = []
    work = list(reversed(clauses))
    while work:
        cl = work.pop()
        pron = next((p for (_nn, p) in rel_after_noun
                     if cl.start < p < cl.end), -1)
        if pron >= 0:
            fin = next((i for i in range(pron, cl.end)
                        if i not in puncts and _is_finite(anns[i])), -1)
            # extraposed rel body headed by a bare infinitive ("die
            # soms wel 20.000 kilo WEGEN , is ..."): the body ends at
            # the comma; its last WW is the clause verb (Alpino wraps
            # it in ssub, reference tests/d6 s4)
            comma = next((k for k in range(pron + 1, cl.end)
                          if anns[k].lword == ","), -1)
            if comma >= 0 and (fin < 0 or fin > comma):
                last_ww = next((k for k in range(comma - 1, pron, -1)
                                if k not in puncts
                                and anns[k].tag == "WW"), -1)
                if last_ww >= 0:
                    fin = last_ww
            elif comma < 0 and fin < 0:
                # bare-infinitive rel body running to the sentence end
                # ("om naar mensen te kijken die helemaal niets
                # KUNNEN .", tests/bug5 s5: ssub, su die -> kunnen)
                tail = next((k for k in range(cl.end - 1, pron, -1)
                             if k not in puncts), -1)
                if tail > pron and anns[tail].tag == "WW":
                    fin = tail
            # a NESTED relative between this pronoun and the finite owns
            # that finite (verb-final order); the outer clause's verb is
            # the next one ("waar de jongen , die ... WAS , ... IS
            # aangetroffen", reference tests/dlevel4)
            for p2 in sorted(p2 for (_n2, p2) in rel_after_noun
                             if pron < p2 < cl.end):
                if fin < 0 or p2 > fin:
                    break
                fin = next((i for i in range(fin + 1, cl.end)
                            if i not in puncts and _is_finite(anns[i])),
                           -1)
            outside_fin = fin >= 0 and any(
                _is_finite(anns[i])
                for i in range(cl.start, cl.end)
                if i < pron or i > fin)
            # rel body closing its clause, matrix verb in a LATER span
            # ("De man die mij sloeg | en die mij bespuugde is
            # opgepakt": the left rel ends at the coordinator, the
            # matrix finite follows the second conjunct)
            if (not outside_fin and fin >= 0 and pron > cl.start
                    and fin == next((k for k in range(cl.end - 1,
                                                      cl.start - 1, -1)
                                     if k not in puncts), -1)
                    and any(_is_finite(anns[k])
                            for k in range(cl.end, n))):
                outside_fin = True
            if outside_fin:
                rel_end = fin + 1
                # trailing verb cluster stays with its finite ("dood IS
                # AANGETROFFEN"): extend over non-finite verbs
                while rel_end < cl.end and rel_end not in puncts \
                        and anns[rel_end].tag == "WW" \
                        and not _is_finite(anns[rel_end]):
                    rel_end += 1
                if pron > cl.start:
                    expanded2.append(Clause(cl.start, pron, cl.kind,
                                            cl.conj_idx))
                if rel_end < cl.end:
                    # a SUB clause resuming after its embedded rel
                    # keeps its complementizer so the continuation
                    # still classifies as the dat/of complement body
                    # ("Dat de republikein , die ... , de verkiezingen
                    # WON", tests/dlevel4 s6: compl + comp_body edges)
                    work.append(Clause(rel_end, cl.end, cl.kind,
                                       cl.conj_idx
                                       if cl.kind == "sub" else -1))
                    cont_from[rel_end] = pron
                # the rel body may hold a NESTED relative: re-examine it
                work.append(Clause(pron, rel_end, "rel", pron))
                continue
        expanded2.append(cl)
    clauses = expanded2

    # fronted wh SUBJECT clause: "HOE het deze mensen gelukt is ... ,
    # IS ook nog steeds niet helemaal duidelijk" (reference tests/d6
    # s4, dlevel6 s8) — a sentence-initial interrogative heading
    # verb-final material whose matrix finite follows a comma with no
    # subject of its own; Alpino: whsub with rel=su, the matrix su
    # edge runs to the whsub's hd verb
    whsub_su: dict[int, int] = {}  # matrix clause start -> embedded hd
    whsub_whd: dict[int, int] = {}  # matrix clause start -> wh pronoun
    wh_obj_clause = False  # a fronted wh clause fills an OBJECT gap
    first_tok = next((i for i in range(n) if i not in puncts), -1)
    if (first_tok >= 0 and clauses
            and clauses[0].start <= first_tok
            and clauses[0].kind == "main"
            and anns[first_tok].tag in ("BW", "VNW")
            and anns[first_tok].lword in ("hoe", "waarom", "wanneer",
                                          "wat", "wie")
            # direct V2 question excluded ("Hoe gaat het?")
            and not _is_finite(anns[next((k for k in
                                          range(first_tok + 1, n)
                                          if k not in puncts), n - 1)])):
        emb_fin = next((i for i in range(first_tok + 1, clauses[0].end)
                        if i not in puncts and _is_finite(anns[i])), -1)
        # the matrix clause: first later clause starting right after a
        # comma with a finite verb as its first token
        for mi in range(1, len(clauses)):
            mcl = clauses[mi]
            if mcl.kind != "main":
                continue
            mfirst = next((k for k in range(mcl.start, mcl.end)
                           if k not in puncts), -1)
            if (mfirst >= 0 and _is_finite(anns[mfirst])
                    and any(anns[k].lword == ","
                            for k in range(max(0, mcl.start - 1),
                                           mfirst))
                    and emb_fin >= 0):
                clauses[0] = Clause(clauses[0].start, clauses[0].end,
                                    "sub", first_tok)
                whsub_su[mcl.start] = emb_fin
            break

    # mid-sentence fronted wh SUBJECT clause ("maar welke dat zijn IS
    # niet meer te achterhalen", tests/d5 s1): the splitter made the
    # wh span its own sub clause; when the directly following clause
    # opens with a finite verb NOT followed by its own subject (no
    # inversion — "WEET ik niet" keeps ik as su, object-wh), the wh
    # body's hd verb carries the matrix su edge (Alpino: whrel rel=su)
    for ci in range(len(clauses) - 1):
        scl, mcl = clauses[ci], clauses[ci + 1]
        if (scl.kind != "sub" or scl.conj_idx < 0
                or anns[scl.conj_idx].tag != "VNW"
                or anns[scl.conj_idx].lword not in ("wat", "wie",
                                                    "welke")
                or mcl.start in whsub_su):
            continue
        mfirst = next((k for k in range(mcl.start, mcl.end)
                       if k not in puncts), -1)
        if mfirst < 0 or not _is_finite(anns[mfirst]):
            continue
        after = next((k for k in range(mfirst + 1, mcl.end)
                      if k not in puncts), -1)
        if after >= 0 and _is_su_candidate(anns[after]):
            wh_obj_clause = True
            continue  # inverted subject of its own: object-wh
        emb2 = next((k for k in range(scl.conj_idx + 1, scl.end)
                     if k not in puncts and _is_finite(anns[k])), -1)
        if emb2 >= 0:
            whsub_su[mcl.start] = emb2
            whsub_whd[mcl.start] = scl.conj_idx

    # remaining wh-initial main/coord clauses whose matrix finite sits
    # in a LATER clause are whsub conjuncts, not main clauses ("WAT HIJ
    # KOMT DOEN en wat hij wil weet ik niet", tests/smallconjuncts s29:
    # ssub 2 + compl 2, smain only the matrix)
    for ci in range(len(clauses) - 1):
        cl3 = clauses[ci]
        if cl3.kind not in ("main", "coord"):
            continue
        h3 = next((k for k in range(cl3.start, cl3.end)
                   if k not in puncts), -1)
        if (h3 < 0 or anns[h3].tag != "VNW"
                or anns[h3].lword not in ("wat", "wie", "welke")):
            continue
        nxt3 = next((k for k in range(h3 + 1, cl3.end)
                     if k not in puncts), -1)
        if nxt3 < 0 or _is_finite(anns[nxt3]):
            continue  # V2 direct question stays a main clause
        if not any(_is_finite(anns[k]) for k in range(h3 + 1, cl3.end)):
            continue  # verbless wh fragment
        # the matrix finite must live in a later clause that is not
        # itself wh-initial (a run of coordinated wh clauses shares
        # ONE later matrix)
        later = False
        for cj in range(ci + 1, len(clauses)):
            hj = next((k for k in range(clauses[cj].start,
                                        clauses[cj].end)
                       if k not in puncts), -1)
            if hj < 0:
                continue
            if (anns[hj].tag == "VNW"
                    and anns[hj].lword in ("wat", "wie", "welke")):
                continue
            if any(_is_finite(anns[k])
                   for k in range(clauses[cj].start, clauses[cj].end)):
                later = True
                if _is_finite(anns[hj]):
                    aft = next((k for k in range(hj + 1,
                                                 clauses[cj].end)
                                if k not in puncts), -1)
                    if aft >= 0 and _is_su_candidate(anns[aft]):
                        wh_obj_clause = True
                break
        if later:
            clauses[ci] = Clause(cl3.start, cl3.end, "sub", h3)

    # object-wh run: fronted wh clauses filling the matrix OBJECT gap
    # are the matrix verb's vc — Alpino hangs the (conj of) whsubs as
    # rel=vc under the smain ("Wat hij komt doen en wat hij wil WEET
    # ik niet", tests/smallconjuncts s29: vc weet->komt).  The edge
    # runs to the FIRST wh clause's body verb.
    wh_obj_vc: dict[int, int] = {}  # matrix clause start -> wh body verb
    for ci in range(1, len(clauses)):
        mcl = clauses[ci]
        if mcl.kind not in ("main", "coord") or mcl.start in whsub_su:
            continue
        pcl = clauses[ci - 1]
        if (pcl.kind != "sub" or pcl.conj_idx < 0
                or anns[pcl.conj_idx].tag != "VNW"
                or anns[pcl.conj_idx].lword not in ("wat", "wie",
                                                    "welke")):
            continue
        mfirst = next((k for k in range(mcl.start, mcl.end)
                       if k not in puncts), -1)
        if mfirst < 0 or not _is_finite(anns[mfirst]):
            continue
        first_wh = ci - 1
        while (first_wh - 1 >= 0
               and clauses[first_wh - 1].kind == "sub"
               and clauses[first_wh - 1].conj_idx >= 0
               and anns[clauses[first_wh - 1].conj_idx].tag == "VNW"):
            first_wh -= 1
        fcl = clauses[first_wh]
        body = next((k for k in range(fcl.start, fcl.end)
                     if k not in puncts and _is_finite(anns[k])), -1)
        if body >= 0 and anns[body].lemma != "betreffen":
            # "wat ons betreft" is a rel=mod idiom, not the matrix
            # object: no vc edge (tests/bug5 s8)
            wh_obj_vc[mcl.start] = body

    # coordinated relative clauses: "die mij sloeg EN DIE mij
    # bespuugde is opgepakt" — a betr pronoun directly after the
    # coordinator opens a second rel conjunct; Alpino hangs both rel
    # bodies under a conj node inside the NP (reference
    # tests/smallconjuncts s27: ssubCnj 2, betrCnt 2, dLevel 2 — the
    # conj node between np and rel blocks the D-level-6 su-rel probe)
    relconj_crd: dict[int, int] = {}   # rel-conjunct start -> VG idx
    conj_rel_prons: set[int] = set()
    rebuilt: list[Clause] = []
    for cl2 in clauses:
        prev_cl = rebuilt[-1] if rebuilt else None
        h2 = next((k for k in range(cl2.start, cl2.end)
                   if k not in puncts), -1)
        if (cl2.kind == "coord" and cl2.conj_idx >= 0 and h2 >= 0
                and anns[h2].tag == "VNW"
                and anns[h2].lword in _REL_PRONOUNS
                and prev_cl is not None and prev_cl.kind == "rel"):
            fin2 = next((k for k in range(h2 + 1, cl2.end)
                         if k not in puncts and _is_finite(anns[k])),
                        -1)
            if fin2 >= 0:
                rebuilt.append(Clause(cl2.start, fin2 + 1, "rel", h2))
                relconj_crd[cl2.start] = cl2.conj_idx
                conj_rel_prons.add(h2)
                conj_rel_prons.add(prev_cl.conj_idx)
                # the left rel's antecedent doubles for the conjunct
                noun2 = next((nn for (nn, pp) in rel_after_noun
                              if pp == prev_cl.conj_idx), -1)
                rel_after_noun.append((noun2, h2))
                rest2 = next((k for k in range(fin2 + 1, cl2.end)
                              if k not in puncts), -1)
                if rest2 >= 0:
                    rebuilt.append(Clause(fin2 + 1, cl2.end,
                                          "main", -1))
                    cont_from[fin2 + 1] = prev_cl.conj_idx
                continue
        rebuilt.append(cl2)
    clauses = rebuilt

    # possessive pronouns acting as determiners ("mijn fiets" -> noun_det,
    # reference tests/depdist22); excluded from subject/object candidates
    poss_det: set[int] = set()
    for i in range(n - 1):
        a = anns[i]
        if a.tag == "VNW" and (a.lword in _POSS_PRONOUNS
                               # demonstrative determiners ("DIE
                               # wenkbrauwen": det edge, np start —
                               # reference tests/bug5 s17)
                               or (a.prop == "ISAANW"
                                   and a.lword in ("die", "deze", "dit",
                                                   "dat"))):
            j = i + 1
            while j < n and anns[j].tag == "ADJ":
                j += 1
            if j < n and _is_nounish(anns[j]):
                # "je" directly after a clause-initial finite is the
                # inverted SUBJECT, the noun the object ("gebruik JE
                # hersens nou eens", tests/bug4 s21: su dist 0)
                if (a.lword == "je" and i >= 1
                        and anns[i - 1].tag == "WW"
                        and anns[i - 1].prop == "ISPVTGW"
                        and (i == 1 or anns[i - 2].prop == "ISLET"
                             or anns[i - 2].tag == "VG")):
                    pass
                else:
                    poss_det.add(i)

    # ---- NP scan over the whole sentence (mod_stats, src/Alpino.cxx:987-996;
    # np counts src/tscan.cxx:2105-2124).  np_start maps each noun to its
    # NP's first token: COINDEXED argument refs carry the np node's
    # ``begin`` in the reference tree, so raised/shared-subject distances
    # run to the NP START, not its head (reference tests/depdist5/8/14,
    # su ref begin = determiner position) -----------------------------------
    np_start: dict[int, int] = {}
    i = 0
    while i < n:
        a = anns[i]
        if i in mwu:
            # function-word MWU tokens ("in plaats daarvan") form one
            # mwu node, never an NP chunk (tests/bug5 s8: npCnt)
            i += 1
            continue
        if a.tag == "LID" or a.tag == "ADJ" or a.tag == "TW" \
                or _is_nounish(a) or i in poss_det \
                or (a.tag == "VNW" and a.lword in _DET_PRONOUNS) \
                or (a.tag == "WW" and a.prop in ("ISVD", "ISOD")
                    and a.position == "PRENOM"):
            j = i
            saw_noun = False
            adj_mods = 0
            tw_mods = 0
            post_mods = 0
            size = 0
            det_idx = -1
            det_was_tw = False
            while j < n:
                b = anns[j]
                if b.word == "(" and not saw_noun and det_idx >= 0:
                    # parenthetical aside inside an NP ("een ( hoe kan
                    # het ook anders ) zwart mutsje", flair1 s20): skip
                    # to the closing bracket, the NP continues
                    close = next((k for k in range(j + 1, n)
                                  if anns[k].word == ")"), -1)
                    if close < 0:
                        break
                    j = close + 1
                    continue
                if (b.tag == "LID" or j in poss_det
                        or (b.tag == "VNW" and b.lword in _DET_PRONOUNS)
                        # "heel wat" quantifier detp ("heel WAT
                        # hunebedden", tests/dlevel4 s7: det wat)
                        or (b.tag == "VNW" and b.lword == "wat"
                            and j >= 1 and anns[j - 1].lword == "heel")
                        or (b.tag == "ADJ" and b.lword == "allerlei")
                        # NP-initial CARDINAL numeral is rel=det in
                        # Alpino ("2 repen", reference tests/bug1 s2);
                        # ordinals stay rel=mod ("Een TWEEDE huis")
                        or (b.tag == "TW"
                            and not b.lword.endswith(("de", "ste")))) \
                        and not saw_noun and det_idx < 0 and size == 0:
                    # "allerlei" is rel=det in Alpino ("ALLERLEI
                    # verhalen", reference tests/relativeclauses s16)
                    det_idx = j
                elif (b.tag == "ADJ" and b.lword == "heel"
                      and j + 1 < n and anns[j + 1].lword == "wat"
                      and not saw_noun):
                    # "heel wat" is detp-internal, not an np mod
                    # (tests/dlevel4 s7)
                    pass
                elif (b.tag == "ADJ" or (
                        b.tag == "WW" and b.prop in ("ISVD", "ISOD")
                        and b.position == "PRENOM")
                      or (b.tag == "VNW" and det_idx >= 0
                          and b.lword in ("meeste", "minste", "weinige",
                                          "vele", "enkele"))) \
                        and not saw_noun:
                    # prenominal participles and post-determiner
                    # quantifiers carry pos=adj in the Alpino tree ("De
                    # geasfalteerde wegen", "De meeste boeken" —
                    # reference tests/npmod: np_mod AND adj_np_mod)
                    adj_mods += 1
                elif b.tag == "TW" and not saw_noun:
                    # numerals are NP modifiers but not adjective mods
                    # ("Een TWEEDE huis": np_modifier 1, adj_np_mod 0 —
                    # reference tests/npmod)
                    tw_mods += 1
                elif (b.tag == "WW" and b.prop == "ISINF"
                      and det_idx >= 0 and not saw_noun):
                    # nominalized infinitive heads the determiner's np
                    # ("HET TESTEN van een game", tests/dlevel6 s9);
                    # no noun_det edge — det edges pair with N heads
                    saw_noun = True
                    np_start[j] = i
                    det_idx = -1
                elif _is_nounish(b):
                    if (saw_noun and det_idx < 0 and size == 1
                            and i >= 1 and anns[i - 1].tag == "VZ"
                            # name appositions/genitives stay one np
                            # ("na OMA ROODKAPJE", "van LEENS gesnik")
                            and anns[i].prop != "ISNAME"
                            and b.prop != "ISNAME"):
                        # bare (determinerless) PP object followed by
                        # another noun: the second noun opens its OWN
                        # np, no apposition ("zonder MACHINES STENEN
                        # te vervoeren", tests/d6 s4: separate obj1)
                        break
                    if saw_noun:
                        # genitive name as determiner ("LEENS gesnik",
                        # tests/bug4 s20: det edge, no app mod)
                        if (j > 0 and anns[j - 1].prop == "ISNAME"
                                and anns[j - 1].word.endswith("s")
                                and b.tag == "N"
                                and b.prop != "ISNAME"):
                            _store(parse, "NOUN_DET", j - 1, j, puncts)
                        # apposition / partitive second head ("De stad
                        # Antwerpen", "Drie liter melk": rel=mod/app
                        # under the NP — reference tests/npmod), but a
                        # multiword proper name ("Willem de Tweede") is
                        # ONE head: in-span name words add no mods
                        elif not (b.prop == "ISNAME" and j > 0
                                  and anns[j - 1].prop == "ISNAME"):
                            post_mods += 1
                    saw_noun = True
                    np_start[j] = i
                    if det_idx >= 0:
                        # det edges pair with NOUN heads only; a name
                        # head ("de VARA", "Willem de Tweede") stores no
                        # NOUN_DET (reference tests/afk, npmod).  In a
                        # split compound ("Het plaats delict") the LAST
                        # common noun is the head (reference tests/
                        # dlevel4: det->delict); an apposition name
                        # ("de stad Antwerpen") keeps the first.
                        if b.tag == "N":
                            # split compound ("Het plaats delict"): the
                            # LAST noun is the head — but a measure/
                            # container first noun keeps it ("een bakje
                            # koffie": partitive, head = bakje)
                            if (j + 1 < n and anns[j + 1].tag == "N"
                                    and not b.lword.endswith("je")
                                    and b.lemma.lower() not in
                                    _MEASURE_NOUNS):
                                size += 1
                                j += 1
                                continue
                            if j not in nom_inf_heads:
                                # det edges pair with true NOUN heads;
                                # a nominalized-infinitive head is a
                                # verb node ("Het TESTEN", dlevel6 s9)
                                _store(parse, "NOUN_DET", det_idx, j,
                                       puncts)
                        if anns[det_idx].tag == "TW":
                            det_was_tw = True
                        det_idx = -1
                elif (b.tag in ("ADJ", "TW") and saw_noun
                      and b.lemma.lower() not in ("dichtbij", "nabij")):
                    # post-head modifier ("arbeidsbureau nieuwe stijl",
                    # "het getal zeven") — locative comparatives are
                    # the verb's ld, not np mods ("met de dag
                    # DICHTERBIJ", tests/bug5 s8)
                    post_mods += 1
                else:
                    break
                size += 1
                j += 1
            if saw_noun:
                parse.np_cnt += 1
                parse.np_size_sum += size
                # a TW determiner counts as an np modifier too:
                # mod_stats counts rel=det with pt=tw|n alongside
                # rel=mod/app/vc (src/Alpino.cxx:993)
                if det_was_tw or (det_idx >= 0
                                  and anns[det_idx].tag == "TW"):
                    tw_mods += 1
                parse.np_mod_cnt += adj_mods + tw_mods + post_mods
                parse.adj_np_mod_cnt += adj_mods
                if anns[i].tag == "LID" and anns[i].lword == "een":
                    parse.indef_np_cnt += 1
                i = j
                continue
            if a.tag == "VNW" and a.lword not in _NON_CHUNK_PRONOUNS:
                # determiner pronoun with no noun to head ("DIE zijn
                # mooi"): Frog's chunker still opens a B-NP chunk
                parse.np_cnt += 1
                parse.np_size_sum += 1
        elif a.tag == "VNW" and (
                a.lword not in _NON_CHUNK_PRONOUNS
                # mid-clause locative R-pronoun is chunked ("besteedt
                # de PvdA DAAR aandacht aan", tests/afk s2: npCnt 4);
                # clause-initial it is not ("DAAR horen ...", bug2 s8)
                or (a.lword in ("daar", "hier") and i >= 1
                    and i - 1 not in puncts
                    and anns[i - 1].tag not in ("VG", "LET"))):
            # bare pronoun NP chunk: np_length counts FROG CHUNKER "NP"
            # chunks (src/tscan.cxx:2105-2124), and the chunker marks
            # standalone pronouns B-NP ("Hij", "iedereen", relative
            # "die" — reference tests/svp s1: npCnt 3 = Hij/iedereen/
            # die; tests/bug1 s2: npCnt 7 incl. Ik/ik)
            parse.np_cnt += 1
            parse.np_size_sum += 1
            if (a.lword in ("niets", "iets", "wat", "veel", "genoeg")
                    and i + 1 < n and anns[i + 1].tag == "ADJ"
                    and anns[i + 1].lword.endswith("s")):
                # partitive-genitive adjective mods the quantifier np
                # ("NIETS LEUKERS dan ...", tests/flair1 s28: np_mod,
                # size 2)
                parse.np_size_sum += 1
                parse.np_mod_cnt += 1
                i += 1
        i += 1

    # ---- NP-attached PPs: a preposition directly after a noun modifies
    # that noun, not the clause verb ("de man met de pet gaat...", reference
    # tests/depdist2/16/17: verb_pp NA, prep_obj only) ----------------------
    np_pp_attached: set[int] = set()
    pp_objects: set[int] = set(complex_pp_objs)
    for i in range(n):
        if anns[i].tag != "VZ" or anns[i].lword in ("als", "dan",
                                                    "te") \
                or i in mwu:
            continue  # als/dan = comparative cmp, handled in the verb
            # scan; te/om = infinitive markers, never prepositions here
        prev = i - 1
        while prev >= 0 and prev in puncts:
            prev -= 1
        # EVERY preposition's object NP joins pp_objects so subject
        # searches skip PP-internal nouns ("BIJ OPGRAVINGEN ... zijn
        # geen skeletten gevonden": su = skeletten, not opgravingen)
        obj = _pp_object(anns, i, n, puncts)
        if obj >= 0:
            pp_objects.add(obj)
            for x in range(i + 1, obj):
                if _is_nounish(anns[x]):
                    # pp-internal nominals BEFORE the head (genitive
                    # name det "van LEENS gesnik", tests/bug4 s20)
                    pp_objects.add(x)
            k = obj + 1
            while k < n and k not in puncts and _is_nounish(anns[k]):
                if (obj == i + 1 and anns[obj].prop != "ISNAME"
                        and anns[k].prop != "ISNAME"):
                    # bare (determinerless) pp object: a following
                    # common noun is a SEPARATE constituent ("zonder
                    # MACHINES STENEN van de grond te krijgen",
                    # tests/dlevel6 s8: stenen = obj1 of krijgen)
                    break
                pp_objects.add(k)  # rest of the object NP run
                k += 1
            if k < n and anns[k].word == ",":
                # comma-APPOSITION inside the pp ("om hunebedden ,
                # grote STEENFORMATIES die ...", tests/d2 s3): the
                # appositive np joins pp_objects (no obj edges)
                k3 = k + 1
                while k3 < n and (k3 in puncts
                                  or anns[k3].tag in ("LID", "ADJ")):
                    k3 += 1
                if (k3 < n and anns[k3].tag == "N"
                        and anns[k3].prop != "ISNAME"
                        and k3 + 1 < n
                        and anns[k3 + 1].tag == "VNW"
                        and anns[k3 + 1].lword in ("die", "dat")):
                    pp_objects.add(k3)
            if (k < n and anns[k].tag == "VG"
                    and anns[k].conjtype != "onder"):
                # coordinated pp object ("in rekenen EN STERRENKUNDE",
                # tests/dlevel5 s4): the right cnj is pp-internal too
                k2 = next((x for x in range(k + 1, n)
                           if x not in puncts), -1)
                while k2 >= 0 and k2 < n and (
                        _is_nounish(anns[k2])
                        or anns[k2].tag in ("LID", "ADJ")):
                    if _is_nounish(anns[k2]):
                        pp_objects.add(k2)
                    k2 += 1
        # coordinated preposition ("in EN ROND hunebedden"): the right
        # conjunct inherits the left one's attachment; the conj counts
        # as ONE np modifier
        if prev >= 1 and anns[prev].tag == "VG" \
                and anns[prev - 1].tag == "VZ":
            if prev - 1 in np_pp_attached:
                np_pp_attached.add(i)
                if obj >= 0 and not _obj_is_conj(anns, obj, n,
                                                 puncts):
                    _store(parse, "PREP_OBJ1", i, obj, puncts)
            continue
        if (prev >= 0
                and (prev in nom_inf_heads
                     or (anns[prev].tag == "WW"
                         and anns[prev].prop == "ISINF"
                         and prev in np_start))
                and _has_np_complement(anns, i, n, puncts)):
            # PP modifying a NOMINALIZED infinitive np head: the head
            # is a verb node, so the reference's dependency scan keeps
            # a verb_pp edge ("Het TESTEN VAN een game",
            # tests/dlevel6 s9: verb_pp 0 + prep_obj1 + np_mod)
            np_pp_attached.add(i)
            parse.np_mod_cnt += 1
            _store(parse, "VERB_PP", prev, i, puncts)
            if obj >= 0 and not _obj_is_conj(anns, obj, n, puncts):
                _store(parse, "PREP_OBJ1", i, obj, puncts)
            continue
        if (prev >= 0
                and (anns[prev].tag == "ADJ"
                     # predc participles host pc PPs the same way
                     # ("was ... BEDREVEN in rekenen", dlevel5 s4)
                     or (anns[prev].tag == "WW"
                         and anns[prev].prop == "ISVD"))
                and anns[prev].position != "PRENOM"
                and obj >= 0
                and all(k in puncts or anns[k].tag in ("N", "ADJ", "BW",
                                                       "WW", "VG")
                        for k in range(
                            i + 1,
                            next((x for x in range(i + 1, n)
                                  if anns[x].word == ","), n)))):
            # PP after a FREE adjective/predicate participle hangs
            # inside the AP/ppart up to the next clause break
            # ("hopeloos OVER DATUM .", tests/bug5 s8: prep_obj1
            # only, no verb edge, no np mod)
            np_pp_attached.add(i)
            if not _obj_is_conj(anns, obj, n, puncts):
                _store(parse, "PREP_OBJ1", i, obj, puncts)
            continue
        if prev < 0 or not _is_nounish(anns[prev]):
            continue
        wh_next = next((x for x in range(i + 1, n)
                        if x not in puncts), -1)
        if (wh_next >= 0 and anns[wh_next].tag in ("BW", "VNW")
                and anns[wh_next].lword in ("hoe", "waarom", "wanneer",
                                            "wie", "wat")
                and any(_is_finite(anns[k])
                        for k in range(wh_next + 1, n))):
            # prepositional WH-clause complement modifying the noun
            # ("verhalen OVER hoe hij won", reference
            # tests/relativeclauses s16: np_mod, no prep_obj1 edge)
            np_pp_attached.add(i)
            parse.np_mod_cnt += 1
            continue
        if _has_np_complement(anns, i, n, puncts):
            # ... unless the PP directly precedes a POSTURE verb
            # cluster: then it is the verb's ld complement ("een
            # andere vrouw AAN ZIJN ARM had hangen", tests/dlevel4
            # s6: verb_pp -> hangen, no np mod)
            ve = obj + 1 if obj >= 0 else i + 1
            while ve < n and ve not in puncts and _is_nounish(anns[ve]):
                ve += 1
            while ve < n and ve in puncts:
                ve += 1
            posture_next = False
            if ve < n and anns[ve].tag == "WW":
                if (anns[ve].lemma == "hebben" and ve + 1 < n
                        and anns[ve + 1].tag == "WW"
                        and anns[ve + 1].lemma in ("hangen", "staan",
                                                   "liggen", "zitten")):
                    posture_next = True
            if posture_next:
                continue
            # a real NP-attached PP is rel=mod under the NP node
            # (Alpino mod_stats): np_modifier counts it ("sypmtomen van
            # Pdd-Nos", tests/afk)
            np_pp_attached.add(i)
            parse.np_mod_cnt += 1
        else:
            # stranded preposition: clause-FINAL = half of a split
            # pronominal adverb, absorbed without an edge ("plaatjes
            # bij ,", tests/depdist20); NON-final = the verb's
            # prepositional complement, verb-edged ("besteedt daar
            # aandacht AAN bij de VARA", tests/afk: verb_pp covers it)
            nxt = next((x for x in range(i + 1, n)
                        if x not in puncts), -1)
            if nxt < 0 or anns[nxt].tag == "VG":
                np_pp_attached.add(i)  # clause-final: absorbed
            else:
                # the R-pronoun earlier in the clause is the stranded
                # preposition's object ("DAAR ... AAN": obj1 daar->aan)
                rp = next((x for x in range(i - 1, -1, -1)
                           if anns[x].lword in ("er", "daar", "hier",
                                                "waar")), -1)
                if rp >= 0:
                    _store(parse, "PREP_OBJ1", i, rp, puncts)
        if obj >= 0 and i in np_pp_attached:
            _store(parse, "PREP_OBJ1", i, obj, puncts)

    # ---- nominal coordination edges (conj -> each conjunct head,
    # reference tests/depdist3: crd_cnj [0, 0] for "Jan en Piet gaan") ------
    nominal_pairs: dict[int, tuple[int, bool]] = {}  # left -> (right, phrasal)
    conj_group: dict[int, list[int]] = {}  # member head -> full head list
    for cj in nominal_conjs:
        if cj in mwu:
            continue
        # same-category phrase coordination ("in EN rond", "gevonden ,
        # maar wel ..."): the crd edges run to the adjacent phrase heads
        # (reference tests/d6 s2: crd_cnj all 0)
        lnb = next((i for i in range(cj - 1, -1, -1)
                    if i not in puncts), -1)
        rnb = next((i for i in range(cj + 1, n)
                    if i not in puncts), -1)
        if (lnb >= 0 and rnb >= 0
                and anns[lnb].tag == "ADJ"
                and (anns[rnb].tag == "ADJ"
                     # Frog may tag the right material adjective N
                     # ("houten en STENEN werktuigen", tests/dlevel2
                     # s2: the tree still coordinates the adjectives)
                     or (anns[rnb].tag == "N" and rnb + 1 < n
                         and rnb + 1 not in puncts
                         and _is_nounish(anns[rnb + 1])))):
            # ADJ coordination, predicative ("goed EN veilig over
            # zijn", tests/bug5 s2) or prenominal ("houten EN stenen
            # werktuigen", tests/dlevel2 s2): crd edges to both ADJs
            _store(parse, "CRD_CNJ", cj, lnb, puncts)
            _store(parse, "CRD_CNJ", cj, rnb, puncts)
            parse.small_cnj_cnt += 2
            parse.small_cnj_extra_cnt += 1
            continue
        if (lnb >= 0 and anns[lnb].tag == "WW"
                and anns[lnb].prop in ("ISVD", "ISINF")):
            rww2 = next((k for k in range(cj + 1, n)
                         if k not in puncts and anns[k].tag == "WW"
                         and anns[k].prop in ("ISVD", "ISINF")), -1)
            if rww2 >= 0 and not any(_is_finite(anns[k])
                                     for k in range(cj + 1, rww2)):
                # coordinated participles under a shared aux: crd
                # edges to the VD heads, skipping the right cnj's own
                # modifiers ("geordend EN op elkaar GESTAPELD zijn",
                # tests/d2 s3: crd [0, 2])
                _store(parse, "CRD_CNJ", cj, lnb, puncts)
                _store(parse, "CRD_CNJ", cj, rww2, puncts)
                parse.small_cnj_cnt += 2
                parse.small_cnj_extra_cnt += 1
                continue
        if lnb >= 0 and rnb >= 0 \
                and anns[lnb].tag in ("VZ", "WW", "BW") \
                and anns[rnb].tag in ("VZ", "WW", "BW"):
            _store(parse, "CRD_CNJ", cj, lnb, puncts)
            _store(parse, "CRD_CNJ", cj, rnb, puncts)
            parse.small_cnj_cnt += 2
            parse.small_cnj_extra_cnt += 1
            continue
        if lnb >= 0 and anns[lnb].tag == "WW" \
                and anns[lnb].prop in ("ISVD", "ISINF"):
            # VP coordination under a shared aux ("... gewandeld EN
            # het stadje verkend", smallconjuncts s16): the crd edges
            # run to the two VP-head participles
            rww = next((k for k in range(cj + 1, n)
                        if k not in puncts and anns[k].tag == "WW"
                        and anns[k].prop in ("ISVD", "ISINF")), -1)
            if rww >= 0 and not any(
                    _is_finite(anns[k]) for k in range(cj + 1, rww)):
                _store(parse, "CRD_CNJ", cj, lnb, puncts)
                _store(parse, "CRD_CNJ", cj, rww, puncts)
                parse.small_cnj_cnt += 2
                parse.small_cnj_extra_cnt += 1
                continue
        def _left_head(pos: int) -> int:
            # walk left skipping PARENTHESIZED asides: a "( ... )"
            # group after a conjunct head is np-internal ("bleachorexia
            # ( voor ... ) , tanorexia ( ... ) en botoxia",
            # tests/bug5 s14: crd edges to the heads)
            k2 = pos
            while k2 >= 0:
                if anns[k2].word == ")":
                    depth = 1
                    k2 -= 1
                    while k2 >= 0 and depth:
                        if anns[k2].word == ")":
                            depth += 1
                        elif anns[k2].word == "(":
                            depth -= 1
                        k2 -= 1
                    continue
                if k2 in puncts and anns[k2].word != ",":
                    k2 -= 1
                    continue
                return k2
            return -1

        lpos = _left_head(cj - 1)
        left = lpos if lpos >= 0 and _is_nounish(anns[lpos]) else \
            next((i for i in range(cj - 1, -1, -1)
                  if i not in puncts and _is_nounish(anns[i])), -1)
        right = next((i for i in range(cj + 1, n)
                      if i not in puncts and _is_nounish(anns[i])), -1)
        # comma-chained earlier conjuncts ("zijn zoon , zijn dochter en
        # zijn schoonzoon": the vg coordinates ALL list members — crd
        # edges run to every cnj head, reference tests/smallconjuncts)
        heads = [left] if left >= 0 else []
        while heads:
            k = np_start.get(heads[0], heads[0])
            if k >= 2 and anns[k - 1].word == ",":
                prev_h = _left_head(k - 2)
                if prev_h >= 0 and _is_nounish(anns[prev_h]) \
                        and anns[k - 2].word != ",":
                    heads.insert(0, prev_h)
                    continue
            break
        for h in heads:
            _store(parse, "CRD_CNJ", cj, h, puncts)
        if right >= 0:
            _store(parse, "CRD_CNJ", cj, right, puncts)
        if left >= 0 and right >= 0:
            # phrasal right conjunct = its head is not adjacent to the
            # conjunction ("Jan en DE MAN met de pet", depdist19) — its
            # hd gets an extra su edge (getDependencyDist geval 6)
            nominal_pairs[left] = (right, right > cj + 1)
            group = heads + [right]
            for h in group:
                conj_group[h] = group
        parse.small_cnj_cnt += max(len(heads), 1) + 1
        parse.small_cnj_extra_cnt += max(len(heads), 1)

    # ---- relative clauses (computed up front; drives betrCnt and
    # D-level 6/3, reduced proxy for Alpino cat="rel") ----------------------
    parse.betr_cnt = len(rel_after_noun)
    # a relative clause modifying a noun is rel=mod directly under the
    # NP node, so mod_stats counts it as an np modifier too ("naar
    # mensen ... DIE helemaal niets kunnen", tests/bug5 s5: npMod;
    # src/Alpino.cxx:994)
    for (nn_i, _pr) in rel_after_noun:
        if nn_i >= 0 and (_is_nounish(anns[nn_i])
                          or anns[nn_i].tag == "VNW"):
            parse.np_mod_cnt += 1

    # ---- free relatives (whrel, resolveRelativeClauses
    # src/sentstats.cxx:551-552): a sentence-initial wie/wat/waar clause
    # delimited by the first comma, both sides finite.  A WAAR-clause is
    # always a modifier (rel_count 1, reference tests/relativeclauses
    # s13); WIE/WAT count only when the matrix is argument-SATURATED
    # (subject + object nominals both present, s9 "Wie het niet
    # begrijpt, zal ik het nog eens uitleggen") — otherwise the clause
    # itself fills the matrix argument gap and classifies as a
    # complement, not a relative (s7 "Wat u doet, is onaanvaardbaar",
    # s8 "Wie te laat komt, laten we niet meer binnen").
    first_tok = next((i for i in range(n) if i not in puncts), -1)
    if first_tok >= 0 and anns[first_tok].lword in ("wie", "wat", "waar"):
        comma = next((i for i in range(first_tok + 1, n)
                      if anns[i].word == ","), -1)
        if comma >= 0:
            pre_fin = any(_is_finite(anns[i])
                          for i in range(first_tok + 1, comma))
            post = [i for i in range(comma + 1, n) if i not in puncts]
            post_fin = any(_is_finite(anns[i]) for i in post)
            if pre_fin and post_fin:
                if anns[first_tok].lword == "waar":
                    parse.betr_cnt += 1
                else:
                    def _is_arg(i: int) -> bool:
                        a = anns[i]
                        if _is_su_candidate(a) and i not in poss_det:
                            return True
                        if a.lword == "het" and a.tag in ("LID", "VNW"):
                            nxt = next((anns[j] for j in range(i + 1, n)
                                        if j not in puncts), None)
                            return nxt is None or not _is_nounish(nxt)
                        return False

                    if sum(1 for i in post if _is_arg(i)) >= 2:
                        parse.betr_cnt += 1

    # ---- per-clause verb frame ---------------------------------------------
    main_verb_idx = -1  # first main-clause finite verb (for d-level 6 vs 3)
    main_su = -1          # first main clause's subject index (d-level 6)
    clause_cls: list[str | None] = []  # per clause: smain|ssub|sv1|None
    clause_verb: list[int] = []        # per clause: its verb index (-1)
    prev_su = -1          # subject of the previous clausal conjunct (VP coord)
    prev_clause_verb = -1  # matrix verb for VERB_COMP / left crd edges
    pending_comp = -1     # fronted-cp cmp awaiting its matrix verb
    for ci, cl in enumerate(clauses):
        idxs = [i for i in range(cl.start, cl.end) if i not in puncts]
        if not idxs:
            clause_cls.append(None)
            clause_verb.append(-1)
            continue
        if cl.kind == "gap":
            # gapped clausal conjunct ("..., en Arie en Truus ook."):
            # a du node in Alpino — its material attaches to no verb;
            # the coordinator's single crd edge runs to the left
            # clause's verb (reference tests/smallconjuncts s2)
            if cl.conj_idx >= 0 and prev_clause_verb >= 0:
                _store(parse, "CRD_CNJ", cl.conj_idx, prev_clause_verb,
                       puncts)
            # the du conjunct itself counts as a small (non-clausal)
            # conjunct (golden smallCnjCnt 5 on s2: 2+2 nominal + 1)
            parse.small_cnj_cnt += 1
            parse.small_cnj_extra_cnt += 1
            clause_cls.append(None)
            clause_verb.append(-1)
            continue
        finites = [i for i in idxs if _is_finite(anns[i])]
        # prenominal participles are NP modifiers (pos=adj in the Alpino
        # tree), never clause verbs ("De geasfalteerde wegen")
        verbs = [i for i in idxs if anns[i].tag == "WW"
                 and not (anns[i].prop in ("ISVD", "ISOD")
                          and anns[i].position == "PRENOM")]
        verb = finites[0] if finites else (verbs[0] if verbs else -1)

        su = -1
        if verb >= 0:
            su = next((i for i in idxs if i < verb and i not in poss_det
                       and i not in pp_objects and i not in mwu
                       and _is_su_candidate(anns[i])), -1)
            if (su >= 0 and not finites
                    and anns[verb].prop == "ISINF"
                    and verb >= 1 and anns[verb - 1].lword == "te"
                    and cl.kind == "sub" and cl.conj_idx >= 0
                    and anns[cl.conj_idx].lword in ("dan", "als")):
                # comparative te-infinitive body has NO overt subject:
                # the pronoun is the object ("dan JE als ouwe lul te
                # kleden", tests/flair1 s28: obj1 je->kleden)
                su = -1
        if (verb >= 0 and idxs and idxs[0] < verb
                and anns[idxs[0]].lword == "het"
                and anns[idxs[0]].tag in ("VNW", "LID")
                and su != idxs[0]
                and anns[verb].lemma in ("zijn", "worden", "blijven")
                and idxs[0] + 1 in idxs
                and anns[idxs[0] + 1].tag == "TW"):
            # "toen HET 18 april was": het is the subject, the
            # temporal NP the predicate (tests/bug2 s5: su dist 2)
            su = idxs[0]
        if (su >= 0 and verb >= 0 and anns[su].prop == "ISNAME"
                and any(anns[x].word == "," for x in range(su, verb))
                and all(_is_nounish(anns[x]) or x in puncts
                        for x in range(su, verb))):
            # comma-detached vocative name is no subject ("' Jezus
            # Leen , GEBRUIK je hersens", tests/bug4 s21): fall back
            # to the post-verb subject
            su = next((i for i in idxs if i > verb
                       and i not in poss_det and i not in pp_objects
                       and _is_su_candidate(anns[i])), -1)
        if (su < 0 and not finites and verb >= 0
                and anns[verb].prop == "ISINF"
                and verb + 1 in idxs
                and anns[verb + 1].tag == "VNW"
                and anns[verb + 1].prop in ("ISPPRON1", "ISPPRON2",
                                            "ISPPRON3")
                and anns[verb + 1].lword not in ("mij", "jou", "hem",
                                                 "hen", "hun", "me",
                                                 "ons")):
            # Frog tags a V2 plural-present homograph INF ("En waar
            # VERHEUGEN we ons", tests/bug5 s3) — the tree still reads
            # inversion: the nominative pronoun after it is the su
            su = verb + 1
        if (su < 0 and verb >= 1 and verb - 1 in idxs
                and anns[verb - 1].tag == "VNW"
                and anns[verb - 1].prop == "ISAANW"
                # not the locative R-pronouns ("DAAR horen dus ...
                # spaarpunten bij", tests/bug2 s8: su = spaarpunten)
                and anns[verb - 1].lword in ("dat", "dit", "die",
                                             "deze")):
            # bare demonstrative subject directly before the finite
            # ("..., DAT is mij niet helemaal duidelijk",
            # tests/flair1 s18: su edge dist 0)
            su = verb - 1
        # matrix continuation after an embedded verb-final sub clause:
        # the subject sits BEFORE the subordinator ("De KANS dat hij Piet
        # ziet IS vrij klein", reference tests/depdist21: su edge
        # is -> kans spans the whole cp)
        if su < 0 and cl.start in whsub_su and verb >= 0:
            # fronted wh subject clause: the matrix su edge targets the
            # embedded clause's hd verb (reference tests/d6 s4:
            # "is" -> the whsub's "is", dist 12)
            su = whsub_su[cl.start]
            # modal-passive matrix ("IS niet meer TE ACHTERHALEN",
            # tests/d5 s1): the wh subject is the underlying OBJECT of
            # the te-infinitive — Alpino coindexes the whrel as obj1
            # of the inf body; the edge runs from the wh pronoun
            if cl.start in whsub_whd and anns[verb].lemma == "zijn":
                te_inf = next(
                    (k for k in range(verb + 1, cl.end)
                     if anns[k].tag == "WW" and anns[k].prop == "ISINF"
                     and k >= 1 and anns[k - 1].lword == "te"), -1)
                if te_inf >= 0:
                    _store(parse, "OBJ1_VERB", te_inf,
                           whsub_whd[cl.start], puncts)
        if cl.start in wh_obj_vc and verb >= 0:
            _store(parse, "VERB_VC", verb, wh_obj_vc[cl.start], puncts)
        if su < 0 and cl.start in cont_from and verb >= 0:
            conj = cont_from[cl.start]
            su = next((i for i in range(conj - 1, -1, -1)
                       if i not in puncts and i not in poss_det
                       and i not in pp_objects
                       and _is_su_candidate(anns[i])), -1)
        # VP coordination: "Jan gaat naar huis en zet koffie" — the right
        # conjunct shares the left subject (su edges to both verbs,
        # reference tests/depdist4/6) — but NOT when the conjunct has
        # its own inverted subject: a nominative pronoun right after
        # the finite ("dus KOCHT IK 2 repen") or an existential-er
        # clause ("maar ER ZIJN geen repen" — su = the post-verbal NP;
        # reference tests/bug1 s2 sub_verb [0,1,0])
        shared_su = False
        if su < 0 and cl.kind == "coord" and finites:
            nxt = next((i for i in idxs if i > verb), -1)
            if (nxt >= 0 and anns[nxt].tag == "VNW"
                    and anns[nxt].prop in ("ISPPRON1", "ISPPRON2",
                                           "ISPPRON3")
                    and anns[nxt].lword not in ("mij", "jou", "hem",
                                                "hen", "hun", "me")):
                su = nxt
            elif (verb >= 1 and verb - 1 in idxs
                    and anns[verb - 1].lword == "er"):
                su = next((i for i in idxs if i > verb
                           and i not in poss_det and i not in pp_objects
                           and _is_su_candidate(anns[i])), -1)
            elif idxs and idxs[0] == verb:
                # verb-initial conjunct whose post-verb NP fronts a
                # dat/of complement clause = inversion; the NP is the
                # SUBJECT, the cp the object ("en betekent DIE
                # WINTERSPORT dat ...", tests/bug4 s19).  A bare
                # post-verb NP stays the shared-subject object
                # ("... en zet koffie")
                cand = next((i for i in idxs if i > verb
                             and i not in poss_det
                             and i not in pp_objects
                             and _is_su_candidate(anns[i])), -1)
                if cand >= 0:
                    after = next((j for j in range(cand + 1,
                                                   min(cl.end + 1, n))
                                  if j not in puncts
                                  and not _is_nounish(anns[j])), -1)
                    if (after >= 0 and anns[after].tag == "VG"
                            and anns[after].lword in ("dat", "of")):
                        su = cand
        if su < 0 and cl.kind == "coord" and prev_su >= 0 and finites:
            su = prev_su
            shared_su = True

        # relative clause: the pronoun fills the gap — subject when no
        # other candidate precedes the verb, else object ("de man die ik
        # zie": ik=su, die=obj1)
        rel_obj_pron = -1
        measure_np = -1  # TW-quantified measure complement: no obj edge
        if cl.kind == "rel" and verb >= 0 and cl.conj_idx >= 0:
            if anns[cl.conj_idx].lword.startswith("waar"):
                pass  # locative relativizer = modifier, not an argument
            elif su < 0 or su == cl.conj_idx:
                su = cl.conj_idx
            elif (anns[su].lword in _MEASURE_NOUNS and su >= 1
                    and anns[su - 1].tag == "TW"):
                # TW-quantified measure NP is the measure complement,
                # not the subject ("die soms wel 20.000 KILO wegen",
                # reference tests/d6 s4: su = die); no obj edge — the
                # tree hangs the measure as a detached np
                measure_np = su
                su = cl.conj_idx
            elif anns[su].lemma.lower() in _TEMPORAL_NOUNS:
                # temporal-NP adjunct is no subject: the rel pronoun
                # fills the su gap ("die ELKE DAG een andere vrouw aan
                # zijn arm had hangen", tests/dlevel4 s6: su = die)
                su = cl.conj_idx
            else:
                rel_obj_pron = cl.conj_idx

        if (cl.kind == "sub" and cl.conj_idx >= 0 and verb >= 0
                and anns[cl.conj_idx].lword == "wat"
                and anns[verb].lemma == "betreffen"):
            # "wat ons betreft": the wh pronoun fills the SU gap, the
            # oblique pronoun is the object — the argument scan stores
            # the obj1 edge itself (tests/bug5 s8: su wat 1, obj1 ons 0)
            su = cl.conj_idx

        # clause-type counters (resolveFiniteVerbs, src/sentstats.cxx:684-691)
        cls = None
        if finites:
            verb_first = idxs[0] == finites[0]
            if cl.kind == "rel":
                # relative clause body = ssub; counted in betrCnt, not
                # the bijw/compl families
                parse.ssub_cnt += 1
                cls = "ssub"
            elif (cl.kind == "sub" and cl.conj_idx >= 0
                    and anns[cl.conj_idx].lword == "al"
                    and idxs and idxs[0] == finites[0]):
                # concessive al + V2: Alpino brackets an sv1, counted
                # among the adverbial clauses (tests/bug4 s11)
                parse.sv1_cnt += 1
                cls = "sv1"
                parse.bijw_cnt += 1
            elif cl.kind == "sub":
                parse.ssub_cnt += 1
                cls = "ssub"
                # clause-family split by the introducing conjunction
                # (resolveRelativeClauses — dat/of head a complement
                # clause, other subordinators an adverbial clause)
                conj_lemma = (anns[cl.conj_idx].lword
                              if cl.conj_idx >= 0 else "")
                if (cl.conj_idx >= 0 and verb >= 0
                        and anns[cl.conj_idx].lword == "wat"
                        and anns[verb].lemma == "betreffen"):
                    # idiomatic "wat ... betreft" = whrel rel=mod:
                    # counted among the RELATIVES, not the complements,
                    # and as a rel=mod under the smain it is an
                    # adverbial too (tests/bug5 s8: betrCnt 1,
                    # complCnt 0, vcMod counts it)
                    parse.betr_cnt += 1
                    parse.vc_mod_cnt += 1
                elif conj_lemma in ("dat", "of") or (
                        # wh-headed clause = whsub: the reference
                        # counts its ssub among the complements
                        cl.conj_idx >= 0
                        and anns[cl.conj_idx].tag != "VG"):
                    parse.compl_cnt += 1
                    if (conj_lemma in ("dat", "of") and ci > 0
                            and clauses[ci - 1].kind == "sub"
                            and clauses[ci - 1].conj_idx >= 0
                            and anns[clauses[ci - 1].conj_idx].tag
                            == "VNW"
                            and anns[clauses[ci - 1].conj_idx].lword
                            in ("wat", "wie", "welke")):
                        # a dat-cp nested INSIDE a fronted whrel: its
                        # ssub is counted under the whrel too ("Wat
                        # ... wil zeggen DAT ...", tests/bug4 s7:
                        # complCnt 3; src/sentstats.cxx complWhrelPath
                        # counts every descendant ssub)
                        parse.compl_cnt += 1
                else:
                    parse.bijw_cnt += 1
                    # an adverbial cp is itself a rel=mod under the
                    # matrix clause node: getAdverbialNodes counts it
                    # ("TOEN ik de actie zag , dacht ik", tests/bug2
                    # s4: vcMod 4 includes both cps) — unless the cp
                    # modifies a NOUN ("een boek ZOALS ik zelf zou
                    # willen schrijven", tests/npmod s45: npMod) or is
                    # a comparative "net als" (obcomp)
                    pn2 = (next((x for x in range(cl.conj_idx - 1, -1,
                                                  -1)
                                 if x not in puncts), -1)
                           if cl.conj_idx >= 0 else -1)
                    if pn2 >= 0 and _is_nounish(anns[pn2]) \
                            and conj_lemma == "zoals":
                        parse.np_mod_cnt += 1
                    elif not (conj_lemma == "als" and pn2 >= 0
                              and anns[pn2].lword == "net"):
                        parse.vc_mod_cnt += 1
            elif (su >= 0 and finites and su > finites[0]
                    and cl.kind == "main" and ci == 0
                    and all(anns[x].prop == "ISNAME"
                            or anns[x].tag == "TSW"
                            for x in idxs if x < finites[0])):
                # sentence-initial verb-first clause (bar vocatives/
                # interjections) with an inverted subject: a direct
                # question/imperative — Alpino cat=sv1, NOT smain
                # ("' Jezus Leen , GEBRUIK je hersens nou eens een
                # keer .", tests/bug4 s21: smain 0, sv1 1)
                parse.sv1_cnt += 1
                cls = "sv1"
            elif (verb_first and su >= 0 and su > finites[0]
                    and ci > 0 and clause_verb[ci - 1] >= 0
                    and _is_finite(anns[clause_verb[ci - 1]])
                    and (any(anns[x].word in ("'", '"', "’", "”")
                             for x in range(
                                 max(0, idxs[0] - 3), idxs[0]))
                         # quote only OPENED at the sentence start +
                         # a verbum-dicendi attribution (", MERK ik
                         # aan ...", tests/bug4 s20)
                         or (anns[0].word in ("'", '"', "‘", "“")
                             and anns[verb].lemma in (
                                 "zeggen", "merken", "denken",
                                 "menen", "vinden", "roepen",
                                 "snikken", "vragen", "antwoorden",
                                 "fluisteren", "schreeuwen")))):
                # verb-first speech-attribution clause after a QUOTED
                # clause with its own verb: Alpino brackets a du whose
                # attribution part is an sv1, not a second smain ("' Ze
                # gaan op wintersport ' , SNIKT ze .", tests/bug4 s10:
                # smain 1, sv1 1)
                parse.sv1_cnt += 1
                cls = "sv1"
            elif verb_first and su < 0:
                prev_conj = (anns[clauses[ci - 1].conj_idx].lword
                             if ci > 0 and clauses[ci - 1].conj_idx >= 0
                             else "")
                # inverted subject right after the fronted-clause verb
                # ("Toen ik de actie zag , dacht IK") -> smain
                nxv = next((k for k in idxs if k > finites[0]), -1)
                # existential er defers the subject one slot
                # ("woonden ER MENSEN in de Lage Landen", tests/d5 s2)
                if nxv >= 0 and anns[nxv].lword == "er":
                    nxv = next((k for k in idxs if k > nxv), -1)
                inv_su = (nxv >= 0 and _is_su_candidate(anns[nxv])
                          and nxv not in poss_det)
                if (ci > 0 and clause_cls and inv_su
                        and (clause_cls[ci - 1] == "ssub"
                             # a verbless fronted adjunct inverts the
                             # matrix the same way ("Na ... gesprongen
                             # , RAAKTE hij ...", tests/dlevel2 s9)
                             or (clause_verb[ci - 1] >= 0
                                 and not _is_finite(
                                     anns[clause_verb[ci - 1]])))):
                    su = nxv
                    parse.smain_cnt += 1
                    cls = "smain"
                    if main_verb_idx < 0:
                        main_verb_idx = finites[0]
                elif (ci > 0 and clause_cls
                        and clause_cls[ci - 1] == "ssub"
                        and prev_conj in ("dat", "of")):
                    # verb-first main clause directly after a fronted
                    # COMPLEMENT clause: that clause IS its subject
                    # ("Dat je ... gaat, is raar" — rel=su cat=cp); an
                    # adverbial subordinate ("Als ..., ga dan ...")
                    # leaves the main clause verb-initial (sv1)
                    parse.smain_cnt += 1
                    cls = "smain"
                    if main_verb_idx < 0:
                        main_verb_idx = finites[0]
                else:
                    # finite verb with no subject sibling -> sv1
                    # (imperative / verb-initial; checkImp
                    # src/Alpino.cxx:956-966)
                    parse.sv1_cnt += 1
                    cls = "sv1"
                    if ci == 0:
                        parse.imperative_idx = finites[0]
            elif (((anns[idxs[0]].tag == "BW"
                    and anns[idxs[0]].lword in ("hoe", "waarom",
                                                "wanneer"))
                   # wh-pronoun questions too ("WAT willen we ab-so-luut
                   # niet meer terugzien ?", tests/bug5 s2)
                   or (anns[idxs[0]].tag == "VNW"
                       and anns[idxs[0]].lword in ("wat", "wie")))
                    and next((k for k in idxs if k > idxs[0]), -1)
                    == finites[0]
                    # an intervening quote/question mark detaches the
                    # wh word ("' Wie ? ' vraag ik", tests/bug4 s11:
                    # smain, the wh is a du fragment)
                    and finites[0] == idxs[0] + 1):
                # wh-V2 direct question ("hoe KAN het ook anders"):
                # Alpino whq brackets an sv1 body (flair1 s20)
                parse.sv1_cnt += 1
                cls = "sv1"
            elif (anns[idxs[0]].tag == "VNW"
                    and anns[idxs[0]].lword in ("wat", "wie")
                    and idxs[0] != finites[0]
                    and next((k for k in idxs if k > idxs[0]), -1)
                    != finites[0]
                    and finites[0] == max(
                        i2 for i2 in idxs if anns[i2].tag == "WW")):
                # verb-final wh-initial clause = whsub complement
                # ("WAT hij komt doen en WAT hij wil weet ik niet",
                # tests/smallconjuncts s29: 2 ssubs + compl)
                parse.ssub_cnt += 1
                cls = "ssub"
                parse.compl_cnt += 1
            elif (cl.kind == "coord" and ci > 0
                    and clause_cls[ci - 1] == "ssub"
                    and clauses[ci - 1].kind == "sub"
                    # verb-FINAL right conjunct after a dat/omdat-ssub
                    # continues the subordinate field ("dat ze ... een
                    # oprit maakten , en ronde stammetjes GEBRUIKTEN
                    # om ...", tests/d3 s4: ssub 2, smain 1)
                    and idxs[0] != finites[0]
                    and sum(1 for k in idxs
                            if k < finites[0]) >= 2
                    and finites[0] == max(
                        (i2 for i2 in idxs if anns[i2].tag == "WW"
                         and i2 <= finites[0]), default=finites[0])):
                parse.ssub_cnt += 1
                cls = "ssub"
                parse.compl_cnt += 1
            else:
                parse.smain_cnt += 1
                cls = "smain"
                if main_verb_idx < 0:
                    main_verb_idx = finites[0]
        elif cl.kind == "rel" and verb >= 0:
            # bare-infinitive rel body ("die soms wel 20.000 kilo
            # WEGEN", reference tests/d6 s4): Alpino still brackets an
            # ssub under the rel node
            parse.ssub_cnt += 1
            cls = "ssub"
        clause_cls.append(cls)
        clause_verb.append(verb)
        if verb < 0:
            # verbless comparative cp ("net ALS HNTM-winnares Tamara",
            # reference tests/bug5 s17): comp edge from the matrix verb,
            # body edge to the nominal head
            if cl.kind == "sub" and cl.conj_idx >= 0 \
                    and anns[cl.conj_idx].lword in ("als", "dan"):
                body = next((k for k in idxs if _is_nounish(anns[k])
                             or anns[k].prop == "ISNAME"), -1)
                pn_cmp = next((k for k in range(cl.conj_idx - 1, -1, -1)
                               if k not in puncts), -1)
                if (body >= 0 and pn_cmp >= 0
                        and anns[pn_cmp].tag == "N"
                        and anns[cl.conj_idx].lword == "als"
                        and anns[cl.conj_idx].tag == "VG"
                        and any(anns[k].tag == "VG"
                                and anns[k].lword == "en"
                                and not any(
                                    _is_finite(anns[x])
                                    for x in range(cl.conj_idx + 1, k))
                                for k in range(cl.conj_idx + 1, n))):
                    # exemplifying cp under the NOUN ("aandoeningen
                    # ALS bleachorexia , tanorexia en botoxia",
                    # tests/bug5 s14): np mod, cmp edges to the conj
                    # body node AND its first cnj (same begin), no
                    # verb_comp
                    parse.np_mod_cnt += 1
                    _store(parse, "COMP_BODY", cl.conj_idx, body,
                           puncts)
                    _store(parse, "COMP_BODY", cl.conj_idx,
                           np_start.get(body, body), puncts)
                    if prev_clause_verb >= 0 \
                            and pn_cmp > prev_clause_verb:
                        # the host noun is the matrix OBJECT: the conj
                        # body is coindexed as obj1 too (tests/bug5
                        # s14: obj1 [6, 8])
                        _store(parse, "OBJ1_VERB", prev_clause_verb,
                               np_start.get(body, body), puncts)
                    continue
                if body >= 0:
                    _store(parse, "COMP_BODY", cl.conj_idx, body, puncts)
                if prev_clause_verb >= 0 \
                        and cl.conj_idx - 1 not in puncts:
                    _store(parse, "VERB_COMP", prev_clause_verb,
                           cl.conj_idx, puncts)
            # stranded separable PARTICLE after an embedded rel clause
            # ("Hij SCHELDT iedereen die langskomt UIT", tests/svp s1:
            # the matrix resumes with only the particle)
            for j in idxs:
                if anns[j].tag in ("VZ", "N", "SPEC") and any(
                        v >= 0 and anns[v].full_lemma
                        and anns[v].full_lemma
                        == anns[j].lword + anns[v].lemma
                        for v in clause_verb):
                    mv = next(v for v in clause_verb
                              if v >= 0 and anns[v].full_lemma
                              == anns[j].lword + anns[v].lemma)
                    _store(parse, "VERB_SVP", mv, j, puncts)
            continue

        # topicalized/inverted main clause ("Erg geloofwaardig OPEREERT
        # hij ...", reference tests/mod_adv s1): the subject follows the
        # finite verb when nothing before it qualifies and the clause is
        # not verb-initial (verb-initial + no su = sv1/imperative above)
        if su < 0 and finites and idxs[0] != finites[0] and cl.kind != "sub":
            su = next((i for i in idxs if i > verb and i not in poss_det
                       and i not in pp_objects and i not in mwu
                       and _is_su_candidate(anns[i])), -1)
        if cls == "smain" and finites and main_verb_idx == finites[0] \
                and main_su < 0:
            main_su = su  # first main clause's subject (D-level 6)

        # aux + participle: su/obj/mod edges attach to the participle
        # (content verb), vc aux -> participle (reference tests/depdist17,
        # 22: "heeft ... gezien", "is ... gegaan")
        content = verb
        vp_conj_bound = -1   # VG joining coordinated VP conjuncts
        vp_conj_verb = -1    # head participle of the right conjunct
        if finites and anns[verb].wwform in _AUX_WWFORMS:
            parts = [w for w in verbs if w > verb and anns[w].prop == "ISVD"]
            if not parts:
                # verb-final subordinate order puts the participle
                # BEFORE the finite aux ("omdat ik hem gevraagd had")
                parts = [w for w in verbs if w < verb
                         and anns[w].prop == "ISVD"]
            if not parts and anns[verb].lemma == "zullen":
                # zullen's complement is an infinitive cluster: the
                # bare infinitive is the content verb ("er een einde
                # aan ZOU KOMEN", reference tests/relativeclauses s15:
                # verb_pp aan->komen, coindexed su at the np start)
                parts = [w for w in verbs if w != verb
                         and anns[w].prop == "ISINF"
                         and anns[w].lemma not in ("worden", "zijn",
                                                   "hebben")]
            if len(parts) >= 2:
                # VP coordination under one aux ("hebben ... GEWANDELD
                # en het stadje VERKEND", reference smallconjuncts
                # s16): the first participle is the shared cluster's
                # content; the right one heads its own VP conjunct
                pvg = next((k for k in range(parts[0] + 1, parts[-1])
                            if anns[k].tag == "VG"), -1)
                if pvg >= 0:
                    content = parts[0]
                    vp_conj_bound, vp_conj_verb = pvg, parts[-1]
                else:
                    content = parts[-1]
            elif parts:
                content = parts[-1]
        elif finites and (anns[verb].wwform == "MODAL_VERB"
                          or anns[verb].lemma in _ASPECTUAL_CLUSTER):
            # modal/aspectual + infinitive cluster: arguments/modifiers
            # hang under the infinitive, whose coindexed su doubles the
            # subject edge ("zodat Ko het beter kon zien", tests/
            # depdist20; "Ze BLIJVEN daar ... GELOVEN in perfectie",
            # tests/bug5 s13: su [0,4], verb_pp in->geloven)
            parts = [w for w in verbs if w > verb and anns[w].prop == "ISINF"]
            if not parts:
                parts = [w for w in verbs if w < verb
                         and anns[w].prop == "ISINF"]
            if parts:
                content = parts[-1]
        # posture-verb cluster "hebben + hangen/staan/liggen/zitten":
        # the object NP is the infinitive's coindexed SUBJECT and the
        # modifiers hang under the inf; the object edge stays with the
        # aux ("een andere vrouw aan zijn arm HAD HANGEN",
        # tests/dlevel4 s6: obj1 vrouw->had, su vrouw-np->hangen,
        # mod/ld edges -> hangen)
        posture_inf = -1
        if finites and content == verb and anns[verb].lemma == "hebben":
            posture_inf = next(
                (w for w in verbs if w > verb
                 and anns[w].prop == "ISINF"
                 and anns[w].lemma in ("hangen", "staan", "liggen",
                                       "zitten")
                 # an IPP chain ("had ZITTEN babbelen") is subject-
                 # raising, not the object-subject posture frame
                 and not any(w2 > w for w2 in verbs)), -1)
        aux_construction = content != verb
        is_copula = anns[verb].wwform == "COPULA" and not aux_construction
        # passive cluster: a free adjective is a depictive PREDICATE
        # ("dood is aangetroffen" -> predc, reference tests/dlevel4)
        is_passive = (aux_construction and anns[content].prop == "ISVD"
                      and anns[verb].lemma in ("zijn", "worden")
                      and anns[content].lemma not in _UNACCUSATIVES)

        # AcI: bare-infinitive complement of a non-aux finite ("Ik zie hem
        # daar staan", reference tests/depdist7) — the object pronoun is
        # also the infinitive's subject
        inf_head = -1
        if finites and not aux_construction \
                and anns[verb].wwform == "HEAD_VERB" \
                and not any(anns[i].lword == "te" for i in idxs):
            infs = [w for w in verbs if w > verb and anns[w].prop == "ISINF"]
            if infs:
                inf_head = infs[-1]

        # subject edges; a SHARED subject reaches the right conjunct as a
        # coindexed ref whose begin = the NP's first token, so that edge
        # measures to the NP START ("De man , met de pet op , gaat ... en
        # zet ...": zet -> De, reference tests/depdist5 max_deplen 9)
        vd_parts = [w for w in verbs if w != verb
                    and anns[w].prop == "ISVD"]
        aux_inf = next((w for w in verbs if w != verb
                        and anns[w].prop == "ISINF"
                        and anns[w].lemma in ("worden", "zijn", "hebben")),
                       -1)
        su_tgt = np_start.get(su, su) if shared_su else su
        group = (conj_group.get(su)
                 if su >= 0 and not shared_su else None)
        if group is not None and group[0] == su:
            # coordinated subject: the reference stores the hd of the
            # first PHRASAL conjunct (node_search "hd" recurses into
            # the first non-leaf cnj) plus the first cnj node's begin
            # (node_search "cnj"); the aux/passive coindexed su ref
            # carries the conj node's begin (tests/smallconjuncts s6:
            # sub_verb [5,6,7]; tests/depdist19: [6,3])
            first_np = np_start.get(su, su)
            phrasal = next((h for h in group
                            if np_start.get(h, h) != h), -1)
            if phrasal >= 0:
                _store(parse, "SUB_VERB", verb, phrasal, puncts)
            _store(parse, "SUB_VERB", verb, first_np, puncts)
            if aux_construction:
                if (anns[content].prop == "ISVD"
                        and anns[verb].lemma in ("zijn", "worden")
                        and anns[content].lemma not in _UNACCUSATIVES):
                    _store(parse, "OBJ1_VERB", content, first_np, puncts)
                else:
                    _store(parse, "SUB_VERB", content, first_np, puncts)
        elif su >= 0:
            _store(parse, "SUB_VERB", verb, su_tgt, puncts)
            if su in nom_inf_heads:
                # nominalized su with an embedded PP-object conj: the
                # reference also reaches the conj node's begin ("Het
                # testen VAN EEN GAME EN ... lijkt", tests/dlevel6 s9:
                # sub_verb [9, 7])
                cg = next((g for g in conj_group.values()
                           if g and su < g[0] < verb), None)
                if cg is not None:
                    _store(parse, "SUB_VERB", verb,
                           np_start.get(cg[0], cg[0]), puncts)
            if (cl.start in cont_from
                    and cont_from[cl.start] in conj_rel_prons):
                # antecedent NP carries a rel-clause conj: the su ref
                # also reaches the conj node, whose begin = the first
                # rel pronoun (reference smallconjuncts s27: [7, 6])
                _store(parse, "SUB_VERB", verb, cont_from[cl.start],
                       puncts)
            if aux_construction:
                # zijn/worden + transitive participle = PASSIVE: the
                # surface subject is the participle's OBJ1, coindexed at
                # the np START ("is ... aangetroffen" -> obj1 to "de",
                # reference tests/dlevel4); unaccusative participles
                # ("is gegaan") keep the su edge
                if (anns[content].prop == "ISVD"
                        and anns[verb].lemma in ("zijn", "worden")
                        and anns[content].lemma not in _UNACCUSATIVES):
                    _store(parse, "OBJ1_VERB", content,
                           np_start.get(su, su), puncts)
                elif not (vd_parts and aux_inf >= 0
                          and (content == aux_inf
                               # passive chain: the vd content verb
                               # gets its obj1 ref from the aux_inf
                               # block, never a second su ("zou ...
                               # WORDEN GEHOUDEN", tests/dlevel1 s2)
                               or (anns[aux_inf].lemma == "worden"
                                   and content in vd_parts))):
                    # coindexed su ref on the participle carries the
                    # np node's BEGIN ("deze MENSEN ... zijn GEWEEST",
                    # tests/dlevel6 s8: su->geweest from the detp)
                    _store(parse, "SUB_VERB", content,
                           np_start.get(su, su), puncts)
            # coordinated subject with a PHRASAL right conjunct: its head
            # gets its own su edge ("Jan en de MAN met de pet LIEPEN",
            # reference tests/depdist19: sub_verb [6, 3] -> mean 4.5;
            # adjacent-head conjuncts (depdist3) share the single edge)
            pair = nominal_pairs.get(su)
            if pair is not None and pair[1]:
                _store(parse, "SUB_VERB", verb, pair[0], puncts)
                if aux_construction:
                    _store(parse, "SUB_VERB", content, pair[0], puncts)
        if su >= 0 and not shared_su and cl.kind != "sub":
            # embedded clauses never donate a shared subject: "... pas
            # toen HET 18 april was , dus KOCHT" shares Ik, not het
            # (tests/bug2 s5: sub_verb [0, 2, 9])
            prev_su = su

        # verb cluster: later verbs in the clause hang under the first.
        # A modal + participle(s) + passive/perfect aux INFINITIVE
        # chains instead ("moet opgenomen en geholpen worden": moet ->
        # worden -> first participle; the aux's coindexed su and the
        # participles' obj1 refs carry the subject NP's begin —
        # reference tests/smallconjuncts s14/s15)
        if aux_inf >= 0 and vd_parts:
            _store(parse, "VERB_VC", verb, aux_inf, puncts)
            _store(parse, "VERB_VC", aux_inf, vd_parts[0], puncts)
            if su >= 0:
                _store(parse, "SUB_VERB", aux_inf,
                       np_start.get(su, su), puncts)
                if anns[aux_inf].lemma == "worden":
                    for w in vd_parts:
                        _store(parse, "OBJ1_VERB", w,
                               np_start.get(su, su), puncts)
                else:
                    # perfect/unaccusative chain ("moeten ... zijn
                    # GEWEEST", tests/dlevel4 s7): the participle
                    # carries its own coindexed su ref
                    for w in vd_parts:
                        _store(parse, "SUB_VERB", w,
                               np_start.get(su, su), puncts)
        else:
            chain_head = verb
            om_complement = False
            for w in verbs:
                if w != verb and _is_finite(anns[w]):
                    # a second finite in the clause heads its own
                    # cluster ("... zou komen , werd niet BEWAARHEID",
                    # tests/relativeclauses s15)
                    chain_head = w
                    continue
                if w != verb and anns[w].prop in _NONFINITE_PROPS:
                    if w == vp_conj_verb:
                        # coordinated VP conjunct: its head hangs under
                        # the conj node, not the aux's vc (the crd edges
                        # come from the conj scan); its coindexed su ref
                        # still fires (reference smallconjuncts s16:
                        # su we->verkend 9, vc hebben->gewandeld only).
                        # In a PASSIVE the surface subject coindexes as
                        # the conjunct participle's OBJ1 ("geordend en
                        # GESTAPELD zijn", tests/d2 s3)
                        if su >= 0:
                            if (anns[w].prop == "ISVD"
                                    and anns[verb].lemma in ("zijn",
                                                             "worden")
                                    and anns[w].lemma not in
                                    _UNACCUSATIVES):
                                _store(parse, "OBJ1_VERB", w,
                                       np_start.get(su, su), puncts)
                            else:
                                _store(parse, "SUB_VERB", w,
                                       np_start.get(su, su), puncts)
                        continue
                    # te-infinitive complement of a light-verb OBJECT
                    # noun ("heb het gevoel nergens bij TE HOREN",
                    # reference tests/npmod s43: noun_vc 3, the clause
                    # verb keeps no vc edge)
                    if (anns[verb].lemma in ("hebben", "krijgen")
                            and w >= 2 and anns[w - 1].lword == "te"
                            and anns[w].prop == "ISINF"
                            # an om..te clause complements the VERB,
                            # not a noun ("gevonden OM naar mensen te
                            # kijken", tests/bug5 s5)
                            and not any(anns[k].lword == "om"
                                        for k in range(verb + 1, w))):
                        onoun = next(
                            (k for k in range(w - 2, verb, -1)
                             if k not in puncts and anns[k].tag == "N"),
                            -1)
                        if onoun >= 0:
                            _store(parse, "NOUN_VC", onoun, w, puncts)
                            continue
                    om_j2 = next((x for x in range(verb + 1, w)
                                  if anns[x].lword == "om"), -1)
                    if om_j2 >= 1 and anns[w - 1].lword == "te":
                        pj4 = next((x for x in range(om_j2 - 1, -1, -1)
                                    if x not in puncts), -1)
                        if pj4 >= 0 and (_is_nounish(anns[pj4])
                                         or anns[pj4].tag == "VZ"
                                         or any(x in mwu for x in
                                                range(cl.start, om_j2))):
                            # noun-/PP-/predicate-mwu-hosted om..te
                            # body hangs under that host, no verb_vc
                            # (tests/dlevel2 s2, bug4 s5; "IN STAAT
                            # ... om ... te krijgen", dlevel6 s8)
                            continue
                    # multi-infinitive clusters CHAIN ("heeft MOETEN
                    # HAASTEN", tests/dlevel6 s10: vc [0, 0], each inf
                    # with its own coindexed su ref), instead of all
                    # hanging flat under the finite
                    _store(parse, "VERB_VC", chain_head, w, puncts)
                    if anns[w].prop == "ISVD" and w > verb:
                        # a content participle governs a later om..te
                        # complement ("GEVONDEN om naar mensen te
                        # kijken", tests/bug5 s5: vc gevonden->kijken)
                        chain_head = w
                    if anns[w].prop == "ISINF" and w > verb:
                        # an om..te complement under a causative/AcI
                        # verb controls its su from the OBJECT ("om de
                        # steen overheen te laten ROLLEN", tests/d3
                        # s4); under other verbs the MATRIX subject is
                        # coindexed in ("houdt er niet van om energie
                        # te VERSPILLEN", tests/bug4 s5: su dist 7)
                        if any(anns[k].lword == "om"
                               for k in range(verb + 1, w)):
                            om_complement = True
                            if (su >= 0 and anns[w].lemma not in
                                    ("laten", "zien", "horen", "doen")
                                    and chain_head == verb):
                                _store(parse, "SUB_VERB", w,
                                       np_start.get(su, su), puncts)
                        if (su >= 0 and not om_complement
                                and w != posture_inf
                                # posture inf coindexes the OBJECT np,
                                # not the clause subject (dlevel4 s6)
                                and not (aux_construction
                                         and w == content)
                                and (chain_head != verb or shared_su
                                     # IPP first inf under a plain aux
                                     # ("had ... ZITTEN babbelen",
                                     # tests/dlevel1 s1) — AcI clauses
                                     # (inf_head set) coindex via the
                                     # object, aux/te chains via the
                                     # content verb
                                     or (inf_head < 0
                                         and not aux_construction
                                         and w >= 1
                                         and (anns[w - 1].lword != "te"
                                              # control verbs coindex
                                              # into their te-inf
                                              # ("VERGAT zijn haar te
                                              # KAMMEN", tests/d1 s2)
                                              or (anns[verb].lemma in
                                                  _CONTROL_VERBS
                                                  and anns[w].wwform
                                                  != "COPULA"))))):
                            _store(parse, "SUB_VERB", w,
                                   np_start.get(su, su), puncts)
                        chain_head = w

        # conjunction edges: comp -> body plus matrix verb -> subordinator
        # (verb_comp, reference tests/depdist18); clausal crd edges run to
        # BOTH conjunct verbs (reference tests/depdist4)
        if cl.conj_idx >= 0 and cl.kind == "rel":
            if rel_obj_pron >= 0:
                _store(parse, "OBJ1_VERB", verb, rel_obj_pron, puncts)
            if cl.start in relconj_crd:
                # coordinated rel conjunct: crd edges from the VG to
                # both rel-body verbs (reference smallconjuncts s27)
                vg = relconj_crd[cl.start]
                if prev_clause_verb >= 0:
                    _store(parse, "CRD_CNJ", vg, prev_clause_verb,
                           puncts)
                _store(parse, "CRD_CNJ", vg, verb, puncts)
        elif cl.conj_idx >= 0:
            if (cl.kind == "sub" and anns[cl.conj_idx].tag != "VG"
                    and anns[cl.conj_idx].lword != "dat"):
                # wh-headed whsub: whd rel, no cmp/body edges — but a
                # PREPOSITIONAL wh complement ("twijfel AAN WAT je
                # zegt", tests/relativeclauses s11) carries prep_obj1
                # prep -> body verb plus the wh pronoun's obj1 gap
                cj = cl.conj_idx
                if (anns[cj].lword in ("wat", "wie", "welke")
                        and (cj == 0 or anns[cj - 1].tag != "VZ")
                        and su < 0 and verb >= 0):
                    # subjectless fronted wh clause: the wh pronoun
                    # fills the SU gap, coindexed into the cluster
                    # infinitives too ("WAT trouwens niet wil zeggen
                    # dat ...", tests/bug4 s7: su wat->wil + ->zeggen)
                    _store(parse, "SUB_VERB", verb, cj, puncts)
                    for w2 in range(verb + 1, cl.end):
                        if (anns[w2].tag == "WW"
                                and anns[w2].prop == "ISINF"):
                            _store(parse, "SUB_VERB", w2, cj, puncts)
                if (anns[cj].lword in ("wat", "wie", "welke")
                        and (cj == 0 or anns[cj - 1].tag != "VZ")
                        and su >= 0 and su != cj):
                    # bare fronted wh clause with its own subject: the
                    # wh pronoun fills the obj1 gap of the clause's
                    # BODY verb — the deepest infinitive if the finite
                    # heads a cluster ("WAT hij komt DOEN",
                    # tests/smallconjuncts s29: obj1 wat->doen)
                    body3 = next(
                        (k for k in range(cl.end - 1, verb, -1)
                         if k not in puncts and anns[k].tag == "WW"
                         and anns[k].prop in _NONFINITE_PROPS), verb)
                    _store(parse, "OBJ1_VERB", body3, cj, puncts)
                if (anns[cj].lword in ("wat", "wie") and cj >= 1
                        and anns[cj - 1].tag == "VZ"):
                    _store(parse, "PREP_OBJ1", cj - 1, verb, puncts)
                    if su >= 0 and su != cj:
                        _store(parse, "OBJ1_VERB", verb, cj, puncts)
                    elif su < 0:
                        # wh-subject free relative ("voor WIE gaat
                        # werken", tests/relativeclauses s10): the wh
                        # pronoun fills the su gap, coindexed into the
                        # cluster infs too
                        _store(parse, "SUB_VERB", verb, cj, puncts)
                        for w2 in range(verb + 1, cl.end):
                            if (anns[w2].tag == "WW"
                                    and anns[w2].prop == "ISINF"):
                                _store(parse, "SUB_VERB", w2, cj,
                                       puncts)
            elif cl.kind == "sub":
                _store(parse, "COMP_BODY", cl.conj_idx, verb, puncts)
                # complement clause under a NOUN ("de kans DAT hij Piet
                # ziet", reference tests/depdist21): vc edge noun -> body
                # verb (noun_vc 3); verb-attached "dat" keeps verb_comp
                pn = next((i for i in range(cl.conj_idx - 1, -1, -1)
                           if i not in puncts), -1)
                if (pn >= 0 and _is_nounish(anns[pn])
                        and pn != prev_su
                        # a predicate noun under a copula hosts no vc:
                        # the cp is the extraposed su ("wordt het TIJD
                        # dat ze een keuze maakt", tests/bug4 s18:
                        # verb_comp 2, no noun_vc)
                        and not (prev_clause_verb >= 0
                                 and anns[prev_clause_verb].wwform
                                 == "COPULA")
                        and anns[cl.conj_idx].lword in ("dat", "of")):
                    # ... but an inverted SUBJECT before the dat is no
                    # host noun ("betekent die wintersport DAT ...",
                    # tests/bug4 s19: verb_comp, not noun_vc)
                    _store(parse, "NOUN_VC", pn, verb, puncts)
                elif prev_clause_verb >= 0 and (
                        cl.conj_idx - 1 not in puncts
                        # a pronoun-tagged dat-complement keeps its
                        # edges across the comma ("vond , DAT Artur wel
                        # erg raar deed", tests/dlevel3 s3: verb_comp 0
                        # + vc vond->deed); concessive (al)hoewel-cps
                        # stay rel=mod with a comp edge even across a
                        # comma (tests/connective3 s1: verb_comp 4)
                        or anns[cl.conj_idx].tag == "VNW"
                        or anns[cl.conj_idx].lword in ("alhoewel",
                                                       "hoewel")):
                    # comma before the subordinator -> Alpino detaches the
                    # cp as a discourse unit (du/dp), no verb_comp edge
                    # ("... bij , zodat Ko ...", reference tests/depdist20).
                    # The edge source is the LAST verb of the governing
                    # cluster, not its finite ("wil ZEGGEN dat ...",
                    # tests/bug4 s7: verb_comp 0 + vc zeggen->is)
                    comp_src = next(
                        (x for x in range(cl.conj_idx - 1, -1, -1)
                         if x not in puncts
                         # connective adverbs sit between the clause
                         # and its cp ("verdwenen , BIJVOORBEELD
                         # omdat ...", tests/dlevel4 s7)
                         and anns[x].tag not in ("BW", "TSW")), -1)
                    if comp_src < 0 or anns[comp_src].tag != "WW":
                        comp_src = prev_clause_verb
                    _store(parse, "VERB_COMP", comp_src, cl.conj_idx,
                           puncts)
                    if anns[cl.conj_idx].tag == "VNW":
                        _store(parse, "VERB_VC", comp_src, verb,
                               puncts)
                    elif (anns[cl.conj_idx].lword == "dat"
                          and cl.conj_idx - 1 not in puncts
                          and verb >= 0):
                        # verb-attached dat-cp is the verb's vc: the
                        # edge runs to the body's finite (bug4 s7:
                        # vc zeggen->is 6)
                        _store(parse, "VERB_VC", comp_src, verb,
                               puncts)
                elif ((prev_clause_verb < 0
                       and cl.conj_idx == next(
                           (x for x in range(n) if x not in puncts),
                           -1)
                       or (cl.conj_idx >= 1
                           and anns[cl.conj_idx - 1].word in (":",
                                                              ";")))
                      and anns[cl.conj_idx].tag == "VG"):
                    # fronted adverbial cp at a sentence/segment start:
                    # the comp edge runs from the LATER matrix verb
                    # ("HOEWEL ... , WAS hij", tests/dlevel5 s4;
                    # ": ALS ik meedoe WIN ik", tests/bug2 s4)
                    pending_comp = cl.conj_idx
            elif any(i not in puncts and i < cl.conj_idx
                     for i in range(0, cl.conj_idx)):
                # a SENTENCE-INITIAL coordinator ("En dat wordt ...")
                # has no left conjunct: no crd edges (tests/bug5 s22)
                wh_between = (ci >= 1 and clauses[ci - 1].kind == "sub"
                              and clauses[ci - 1].conj_idx
                              == cl.conj_idx + 1
                              and anns[clauses[ci - 1].conj_idx].tag
                              == "VNW")
                if (wh_between and ci >= 2
                        and clauses[ci - 2].kind == "sub"
                        and clause_cls[ci - 2] == "ssub"):
                    # the VG coordinates the two wh subs; crd edge to
                    # the LEFT wh body verb, none to the matrix
                    # (tests/smallconjuncts s29: en->komt)
                    if clause_verb[ci - 2] >= 0:
                        _store(parse, "CRD_CNJ", cl.conj_idx,
                               clause_verb[ci - 2], puncts)
                elif wh_between:
                    # wh sub between the VG and its matrix: the left
                    # crd edge skips it, landing on the previous MAIN
                    # verb ("maar welke dat zijn IS ...", tests/d5
                    # s1: maar->hebben + maar->is)
                    _store(parse, "CRD_CNJ", cl.conj_idx, verb, puncts)
                    lv = ci - 1
                    while lv >= 0 and clauses[lv].kind in ("sub",
                                                           "rel"):
                        lv -= 1
                    if lv >= 0 and clause_verb[lv] >= 0:
                        _store(parse, "CRD_CNJ", cl.conj_idx,
                               clause_verb[lv], puncts)
                else:
                    _store(parse, "CRD_CNJ", cl.conj_idx, verb, puncts)
                    # the left crd edge lands on the left MAIN
                    # conjunct's verb, skipping embedded sub/rel
                    # clauses ("Ik WIST het pas toen ... , dus KOCHT",
                    # tests/bug2 s5: crd [7, 0])
                    lv2 = ci - 1
                    while lv2 > 0 and clauses[lv2].kind in ("sub",
                                                            "rel"):
                        lv2 -= 1
                    if (lv2 >= 0 and lv2 < ci - 1
                            and clauses[lv2].kind not in ("sub", "rel")
                            and clause_verb[lv2] >= 0):
                        _store(parse, "CRD_CNJ", cl.conj_idx,
                               clause_verb[lv2], puncts)
                    elif prev_clause_verb >= 0:
                        _store(parse, "CRD_CNJ", cl.conj_idx,
                               prev_clause_verb, puncts)
                # asyndetic run: comma-joined conjuncts before the
                # coordinator share the SAME conj node — crd edges to
                # every earlier verb of the run ("woonden ... ,
                # hanteerden ... en maakten", tests/dlevel2 s2:
                # crd_cnj [8, 4, 0])
                lj = ci - 1
                while (lj > 0 and clauses[lj].kind == "coord"
                       and clauses[lj].conj_idx < 0):
                    if clause_verb[lj - 1] >= 0:
                        _store(parse, "CRD_CNJ", cl.conj_idx,
                               clause_verb[lj - 1], puncts)
                    lj -= 1
        if pending_comp >= 0 and finites and cl.kind != "sub":
            # matrix of a fronted adverbial cp (tests/dlevel5 s4)
            _store(parse, "VERB_COMP", finites[0], pending_comp, puncts)
            pending_comp = -1
        if finites:
            for cp_i in complex_pps:
                if cl.start <= cp_i < cl.end:
                    # complex-prep pp is a rel=mod of the clause: the
                    # verb_pp edge runs from the mwu node's begin
                    # ("MET BEHULP VAN Rogier komt Ko",
                    # tests/connective3 s1: verb_pp 3)
                    _store(parse, "VERB_PP", finites[0], cp_i, puncts)
        matrix_verb = prev_clause_verb  # verb of the PREVIOUS clause
        prev_clause_verb = verb

        # argument/modifier scan: post-verb, or the pre-verb midfield for
        # verb-final subordinate clauses ("omdat ie moe was", depdist18) —
        # verb-final includes a trailing verb CLUSTER ("het beter kon
        # zien", reference tests/depdist20: obj/mod sit before the modal)
        if cl.kind in ("sub", "rel") and all(
                anns[i].tag == "WW" for i in idxs if i > verb):
            span = [i for i in idxs if (su < 0 or i > su) and i < verb]
        else:
            # exclude the subject itself: with inversion it sits
            # post-verb and must not become an object candidate
            span = [i for i in idxs if i > verb and i != su]

        # fronted AP modifier (MAIN clauses only — verb-final sub clauses
        # already reach pre-verb ADJs through the midfield span): an ADJ
        # directly before the verb with the subject elsewhere ("Erg
        # GELOOFWAARDIG opereert hij": verb_adv_mod 0; copulas make it
        # the predicate instead)
        # fronted PPs (main clauses): a pre-verb PP not attached to a
        # noun modifies the clause verb ("BIJ OPGRAVINGEN ... zijn geen
        # skeletten ... gevonden": verb_pp zijn->bij 5, prep_obj1
        # bij->opgravingen 0 — reference tests/d6 s2)
        if cl.kind not in ("sub", "rel"):
            # fronted pure-adverb forefield ("HELAAS heb ik een
            # probleem", tests/bug1 s1: mod_bw 0): every BW before the
            # verb gets its mod edge when nothing else intervenes
            pre = [p for p in idxs if p < verb]
            if (pre and verb >= 0
                    and all(anns[p].tag == "BW" for p in pre)
                    # a comma detaches the run as a du ("Hoe dan ook ,
                    # forceer ...", tests/bug4 s25: no edges); wh
                    # adverbs are whd heads, not mods
                    and not any(x in puncts
                                for x in range(pre[0], verb))
                    and not any(anns[p].lword in ("hoe", "waarom",
                                                  "wanneer", "waar",
                                                  # "en ANDERS is het
                                                  # dag": discourse du
                                                  "anders")
                                for p in pre)):
                for p in pre:
                    # fronted mods keep their edge but sit OUTSIDE the
                    # vc: getAdverbialNodes does not count them
                    _store(parse,
                           "VERB_MOD_A" if anns[p].lword in _AP_ADVERBS
                           else "VERB_MOD_BW", content, p, puncts)
            for p in idxs:
                if p >= verb:
                    break
                if anns[p].tag != "VZ" \
                        or anns[p].lword in ("als", "dan", "te") \
                        or p in np_pp_attached or p in mwu:
                    continue
                pb = next((x for x in range(p - 1, cl.start - 1, -1)
                           if x not in puncts), -1)
                if pb >= 0 and anns[pb].tag == "VG":
                    continue  # right conjunct of a coordinated PP
                obj = _pp_object(anns, p, verb, puncts)
                if obj < 0:
                    continue  # bare particle / stranded preposition
                _store(parse, "VERB_PP", content, p, puncts)
                parse.vc_mod_cnt += 1
                if not _obj_is_conj(anns, obj, cl.end, puncts):
                    _store(parse, "PREP_OBJ1", p, obj, puncts)

        if (cl.kind not in ("sub", "rel") and idxs and verb >= 0
                and idxs[0] != su and anns[idxs[0]].lword in (
                    "er", "daar", "hier")
                and anns[idxs[0]].tag in ("VNW", "BW")
                and next((k for k in idxs if k > idxs[0]), -1) == verb):
            # existential/locative R-pronoun topic ("ER zijn allerlei
            # verhalen", reference tests/relativeclauses s16:
            # verb_bw_mod 0) — attaches like an adverb
            _store(parse, "VERB_MOD_BW", content, idxs[0], puncts)
            parse.vc_mod_cnt += 1
        if cl.kind not in ("sub", "rel"):
            for p in idxs:
                if p >= verb:
                    break
                if p == su or anns[p].tag != "ADJ":
                    continue
                nxt = next((x for x in range(p + 1, verb + 1)
                            if x not in puncts), -1)
                if nxt == verb:
                    _store(parse,
                           "VERB_PREDC_A" if (is_copula or is_passive) else "VERB_MOD_A",
                           content, p, puncts)

        obj_cands: list[int] = []
        in_pp_until = -1
        aci_pron = -1
        # om..te complement (Alpino oti): material between "om" and the
        # body infinitive belongs to the INFINITIVE's field ("gevonden
        # om naar mensen TE KIJKEN", tests/bug5 s5: comp_body om ->
        # kijken, pp naar -> kijken)
        om_idx = om_inf = -1
        # bare te-infinitive complement of the clause verb: its field
        # (object before, PPs after) attaches to the INFINITIVE
        # ("Gelieve een telefoon terug TE STUREN naar het adres",
        # tests/bug1 s3: obj1 sturen->telefoon 2, pp sturen->naar 0)
        te_tgt = -1
        if content == verb and not is_copula \
                and anns[verb].lemma not in ("hebben", "krijgen",
                                             "zijn"):
            te_tgt = next((x for x in span
                           if anns[x].tag == "WW"
                           and anns[x].prop == "ISINF"
                           and x >= 1 and anns[x - 1].lword == "te"),
                          -1)
            if te_tgt >= 0:
                om_j = next((x for x in range(verb + 1, te_tgt)
                             if anns[x].lword == "om"), -1)
                if om_j >= 1:
                    pj3 = next((x for x in range(om_j - 1, -1, -1)
                                if x not in puncts), -1)
                    if pj3 >= 0 and _is_nounish(anns[pj3]):
                        # noun-hosted om..te clause ("potten OM
                        # voorraden in TE BEWAREN", tests/dlevel2 s2):
                        # not the verb's complement field
                        te_tgt = -1
            # "te KUNNEN scoren": follow the chain to the deepest
            # content infinitive (golden pp scoren->met, tests/d1 s1)
            while (te_tgt >= 0 and te_tgt + 1 < cl.end
                   and anns[te_tgt + 1].tag == "WW"
                   and anns[te_tgt + 1].prop == "ISINF"):
                te_tgt += 1
        for j in span:
            if (anns[j].tag == "VZ" and anns[j].lword == "om"
                    and j + 1 < cl.end):
                k = next((x for x in range(j + 1, cl.end)
                          if anns[x].tag == "WW"
                          and anns[x].prop == "ISINF"
                          and x >= 1 and anns[x - 1].lword == "te"), -1)
                if k >= 0:
                    om_idx, om_inf = j, k
                    # the cmp/body edge only when the om-clause
                    # complements a VERB; a noun/adjective host makes
                    # it a modifier without edges ("potten OM voorraden
                    # in te bewaren", tests/d2 s1; "leuk OM te horen",
                    # tests/smallconjuncts s25)
                    pj = next((x for x in range(j - 1, -1, -1)
                               if x not in puncts), -1)
                    if pj >= 0 and anns[pj].tag in ("WW", "VZ", "BW",
                                                    "VNW"):
                        # verb- or PP-governed om-clause keeps the cmp
                        # edge ("houdt er niet VAN om ... te
                        # verspillen", tests/bug4 s5: comp_body 2)
                        _store(parse, "COMP_BODY", j, k, puncts)
                    break
        for j in span:
            b = anns[j]
            if j in mwu:
                continue  # inside a lexicalized MWU ("af en toe")
            if j == om_idx:
                continue  # the om complementizer carries no PP edge
            # VP coordination: material after the coordinator hangs
            # under the right conjunct's participle, not the shared
            # cluster ("en het stadje VERKEND", smallconjuncts s16)
            sc_tgt = (vp_conj_verb
                      if vp_conj_bound >= 0 and j > vp_conj_bound
                      else (posture_inf if posture_inf >= 0
                            else content))
            if om_idx >= 0 and om_idx < j < om_inf:
                sc_tgt = om_inf
            elif te_tgt >= 0 and j > te_tgt:
                sc_tgt = te_tgt
            if b.tag == "VZ":
                if b.lword == "te":
                    continue  # infinitive marker, not a preposition
                if b.lword in ("als", "dan"):
                    # comparative complement (Alpino cmp role): after an
                    # ADJ it's obcomp — NO distance edges at all ("groter
                    # dan Jantje", reference tests/d4 deplen 0); else a
                    # verbless cp modifying the verb: verb_comp only, the
                    # body noun stays edge-free ("at ... op als toetje",
                    # reference tests/depdist15: verb_comp 4, comp_body NA)
                    pj = j - 1
                    while pj in puncts:
                        pj -= 1
                    after_part = pj >= 0 and anns[pj].tag == "VZ"
                    if pj < 0 or anns[pj].tag != "ADJ":
                        _store(parse, "VERB_COMP", sc_tgt, j, puncts)
                    k = j + 1
                    saw_adj_body = False
                    while k < cl.end and anns[k].tag not in ("VZ", "WW"):
                        if anns[k].tag == "ADJ":
                            saw_adj_body = True
                        if _is_nounish(anns[k]) or anns[k].tag == "VNW" \
                                or (anns[k].tag == "TW"
                                    and anns[k].lword.endswith("en")):
                            in_pp_until = k  # body consumed
                            if saw_adj_body and not finites:
                                # predm cp under the infinitive counts
                                # among the adverbials ("als ouwe lul
                                # te kleden", tests/flair1 s28: vcMod)
                                parse.vc_mod_cnt += 1
                            if not after_part and (
                                    anns[k].tag == "TW"
                                    # a MODIFIED body noun is a cat=np
                                    # node with its own hd: the body
                                    # edge exists ("als OUWE LUL",
                                    # tests/flair1 s28: comp_body 1)
                                    or saw_adj_body):
                                # substantivized-numeral body keeps its
                                # edge ("hielden ALS EERSTEN", d5 s3);
                                # BARE nouns don't ("als woordvoerder",
                                # mod_adv; "op als toetje", depdist15)
                                _store(parse, "COMP_BODY", j, k, puncts)
                            break
                        k += 1
                    continue
                if ((anns[verb].full_lemma
                        and anns[verb].full_lemma
                        == b.lword + anns[verb].lemma
                        and not _has_np_complement(anns, j, cl.end,
                                                   puncts))
                        # separable-verb lexicon empty on the raw-text
                        # path: a bare PARTICLE preposition with no NP
                        # of its own right after the finite verb is the
                        # verb's svp ("doe MEE aan ...", tests/bug1 s2)
                        or (b.lword in _SVP_PARTICLES
                            and j == verb + 1 and finites
                            and not _has_np_complement(anns, j, cl.end,
                                                       puncts)
                            # a wh-clause complement keeps the PP
                            # reading ("twijfel AAN wat je zegt",
                            # tests/relativeclauses s11: verb_pp 0)
                            and not (j + 1 < n
                                     and anns[j + 1].lword in
                                     ("wie", "wat", "hoe", "waarom",
                                      "wanneer")))):
                    # separable particle (Alpino rel=svp): the clause
                    # verb's own particle with no complement of its own
                    # ("at ... op", reference tests/depdist15: verb_svp 3)
                    _store(parse, "VERB_SVP", sc_tgt, j, puncts)
                    continue
                if j in np_pp_attached:
                    continue
                _store(parse, "VERB_PP", sc_tgt, j, puncts)
                if _pp_is_adverbial(anns[verb], b.lword, j > verb):
                    parse.vc_mod_cnt += 1  # adverbial PP (getAdverbialNodes)
                # object of the preposition (head NP; skip its run)
                obj = _pp_object(anns, j, cl.end, puncts)
                if obj >= 0:
                    if not _obj_is_conj(anns, obj, cl.end, puncts):
                        _store(parse, "PREP_OBJ1", j, obj, puncts)
                    in_pp_until = obj
                    while in_pp_until + 1 < cl.end \
                            and in_pp_until + 1 not in puncts \
                            and _is_nounish(anns[in_pp_until + 1]):
                        in_pp_until += 1
            elif _is_nounish(b):
                if (anns[verb].full_lemma
                        and anns[verb].full_lemma
                        == b.lword + anns[verb].lemma):
                    # noun-shaped separable particle ("Ik NEEM ... DEEL",
                    # deelnemen — reference tests/svp: verb_svp 3)
                    _store(parse, "VERB_SVP", sc_tgt, j, puncts)
                    continue
                if j <= in_pp_until or j in pp_objects:
                    continue
                if (b.lemma.lower() in _TEMPORAL_NOUNS
                        and (np_start.get(j, j) == j
                             # universally-quantified temporal NP is a
                             # mod too ("ELKE DAG een andere vrouw aan
                             # zijn arm had hangen", tests/dlevel4 s6:
                             # verb_noun, the mod np under the inf)
                             or anns[np_start[j]].lword in (
                                 "elke", "elk", "iedere", "ieder"))):
                    # bare temporal-noun adjunct, not an object ("Hij
                    # LEEST al jaren niet meer": verb_noun 1, obj NA —
                    # reference tests/mod_adv s3 / noun-adv); the np is
                    # rel=mod under the clause node, so it is also an
                    # adverbial for getAdverbialNodes ("Dat zegt ze
                    # ELKE DAG", tests/bug4 s15: vcMod 2)
                    _store(parse, "VERB_NOUN", sc_tgt, j, puncts)
                    parse.vc_mod_cnt += 1
                    continue
                if (j + 1 < cl.end and j + 1 not in puncts
                        and anns[j + 1].lword == "geleden"):
                    # temporal measure NP before "geleden" is an
                    # adjunct, never an object ("zo'n 150.000 jaar
                    # GELEDEN", tests/d3 s1)
                    continue
                # a noun directly continuing an NP run is not a new object
                # head ("een bakje koffie" -> one object, depdist4)
                pj = j - 1
                while pj in puncts:
                    pj -= 1
                if pj >= 0 and _is_nounish(anns[pj]):
                    continue
                # noun-noun run: the LAST noun heads the object like
                # the NP scan's split-compound rule ("hanteerden ...
                # STENEN WERKTUIGEN", tests/dlevel2 s2: obj1 ->
                # werktuigen) — measure/-je first nouns keep the head
                jh = j
                while (jh + 1 < cl.end and jh + 1 not in puncts
                       and anns[jh + 1].tag == "N"
                       and anns[jh].tag == "N"
                       and not anns[jh].lword.endswith("je")
                       and anns[jh].lemma.lower() not in
                       _MEASURE_NOUNS):
                    jh += 1
                if jh != measure_np:
                    obj_cands.append(jh)
            elif (b.tag == "TW" and is_copula
                  and not (j + 1 < cl.end and j + 1 not in puncts
                           and (_is_nounish(anns[j + 1])
                                or anns[j + 1].tag in ("ADJ", "TW")))):
                # bare numeral predicate under a copula ("Toen ik TIEN
                # was", tests/flair1 s6: predc_n 0, koppel counts)
                if j > in_pp_until and j not in pp_objects:
                    obj_cands.append(j)
            elif (b.tag == "VNW" and b.lword in ("meer", "minder")
                    and not (j + 1 < cl.end and j + 1 not in puncts
                             and (_is_nounish(anns[j + 1])
                                  or anns[j + 1].tag == "ADJ"))):
                # bare comparative quantifier is an adverbial modifier,
                # not an argument ("er zijn geen repen met punten MEER"
                # -> mod edge, reference tests/bug1 s2 verb_adv_mod 4);
                # determiner use ("meer mensen") keeps the NP reading,
                # and "niet meer" is ONE advp headed by the negation
                # (no separate edge for meer)
                pj2 = j - 1
                while pj2 in puncts:
                    pj2 -= 1
                if not (pj2 >= cl.start and anns[pj2].tag == "BW"):
                    _store(parse, "VERB_MOD_A", sc_tgt, j, puncts)
                    parse.vc_mod_cnt += 1  # advp node (getAdverbialNodes)
            elif (b.tag == "VNW" and b.lword in ("alles", "iets",
                                                 "niets")
                  and not (j + 1 < cl.end and j + 1 not in puncts
                           and (_is_nounish(anns[j + 1])
                                or anns[j + 1].tag == "ADJ"))):
                # bare quantifier pronoun as object ("Ik heb ALLES
                # gedaan", tests/relativeclauses s6: obj1 dist 0)
                if j > in_pp_until and j not in pp_objects:
                    obj_cands.append(j)
            elif (b.tag == "VNW" and b.prop == "ISAANW"
                  and b.lword in ("die", "dat", "dit", "deze")
                  and j not in poss_det
                  and not (j + 1 < cl.end and j + 1 not in puncts
                           and (_is_nounish(anns[j + 1])
                                or anns[j + 1].tag in ("ADJ", "LID",
                                                       "VNW", "TW")))
                  and not is_copula):
                # standalone demonstrative as object ("heeft ze DIE al
                # gemaakt", tests/bug4 s19: obj1 dist 1) — under a
                # copula it is the predicate instead ("als Piet DAT
                # is", tests/connective5), no edge; a relative
                # pronoun heading its own clause is never an object
                # here ("De man , DIE loopt , ziet de kat")
                if (j > in_pp_until and j not in pp_objects
                        and not (cl.kind == "rel"
                                 and j == cl.conj_idx)):
                    obj_cands.append(j)
            elif b.lword in ("zich", "zichzelf"):
                # reflexive = Alpino rel "se": no distance edge
                # ("of ze ZICH heeft moeten haasten", tests/dlevel6 s10)
                continue
            elif b.tag == "VNW" and j not in poss_det \
                    and b.prop in ("ISPPRON1", "ISPPRON2", "ISPPRON3"):
                if j <= in_pp_until or j in pp_objects:
                    continue
                obj_cands.append(j)
                if inf_head >= 0 and aci_pron < 0 and j < inf_head:
                    aci_pron = j
            elif b.lword == "het" and b.tag in ("LID", "VNW"):
                k = j + 1
                while k < cl.end and (
                        anns[k].tag == "ADJ"
                        # prenominal participles determine too ("het
                        # GEWENSTE antewoord", tests/bug4 s20)
                        or (anns[k].tag == "WW"
                            and anns[k].prop in ("ISVD", "ISOD")
                            and anns[k].position == "PRENOM")):
                    k += 1
                if not (k < cl.end and _is_nounish(anns[k])):
                    # pronominal "het" with no noun to determine ("Ko het
                    # beter kon zien", reference tests/depdist20: obj1)
                    # — except the ANTICIPATORY het of an om..te
                    # complement (Alpino rel=sup: "HET leuk gevonden om
                    # te kijken", tests/bug5 s5, no obj edge)
                    if not (om_idx >= 0 and j < om_idx):
                        obj_cands.append(j)
            elif b.tag == "BW" or (b.tag == "SPEC"
                                   and b.prop != "ISNAME") or (
                    b.tag == "VNW"
                    and b.lword in ("er", "hier", "daar", "waar")):
                # R-pronouns (VNW adv-pron in CGN) attach like adverbs
                # ("maakte er ... bij", reference tests/depdist20:
                # verb_bw_mod 0)
                if (b.tag == "BW" and b.lword in _SVP_PARTICLES
                        and te_tgt >= 0 and j + 1 < cl.end
                        and anns[j + 1].lword == "te"):
                    # separable particle right before its te-infinitive
                    # ("TERUG te sturen", tests/bug1 s3: verb_svp 1)
                    _store(parse, "VERB_SVP", te_tgt, j, puncts)
                    continue
                first_arg = aci_pron if aci_pron >= 0 else (
                    obj_cands[0] if obj_cands else -1)
                if inf_head >= 0 and 0 <= first_arg < j:
                    continue  # inside the AcI complement (depdist7/8/9/14)
                nx = next((x for x in range(j + 1, cl.end)
                           if x not in puncts), -1)
                pv = next((x for x in range(j - 1, cl.start - 1, -1)
                           if x not in puncts), -1)
                if (b.intensify_type == "BVBW" and nx >= 0
                        and anns[nx].tag in ("ADJ", "BW")):
                    continue  # intensifier below the AP ("erg vlug",
                    # reference tests/mod_bw: only vlug gets an edge)
                if (nx >= 0 and anns[nx].tag in ("ADJ", "BW")
                        and b.lword in ("zo", "heel", "te", "zeer",
                                        "erg", "vrij", "nogal",
                                        "bijzonder", "ongelooflijk")):
                    continue  # degree adverb below the AP ("zo snel
                    # groot": only the AP reaches the verb)
                if nx >= 0 and _is_nounish(anns[nx]) and b.tag == "BW":
                    continue  # NP-internal mod ("al jaren", reference
                    # tests/mod_adv s3: al has no verb edge); SPEC
                    # abbreviations attach to the clause ("bijv.",
                    # reference tests/afk: verb_bw_mod 0)
                if (b.lword == "dus" and j == next(
                        (x for x in range(n) if x not in puncts), -1)
                        and nx >= 0 and anns[nx].tag == "BW"):
                    continue  # sentence-initial "DUS nu stuur ik" is
                    # a du dlink, not a clause mod (tests/bug2 s7)
                if (pv >= 0 and pv != verb and anns[pv].tag == "BW"
                        # advp-INTERNAL pairs where the first token is
                        # the head and the second gets no edge ("niet
                        # MEER", "niet THUIS"); most adjacent adverbs
                        # are independent mods ("maar NIET", "soms
                        # WEL", "misschien WEL" — tests/bug2 s3,
                        # dlevel6 s8, bug2 s4)
                        and ((anns[pv].lword == "niet"
                              and b.lword in ("meer", "minder",
                                              "thuis", "vaker",
                                              "langer", "eens"))
                             or ((anns[pv].lword, b.lword) in
                                 (("nog", "steeds"),
                                  ("niet", "helemaal"))
                                 and nx >= 0
                                 and anns[nx].tag == "ADJ"))):
                    continue
                if (b.lword in ("nog", "niet") and nx >= 0
                        and anns[nx].lword in ("steeds", "helemaal")
                        and not any(anns[x].tag == "ADJ"
                                    for x in range(nx + 1,
                                                   min(nx + 2, cl.end))
                                    if x not in puncts)):
                    continue  # the advp mod below its second-token head
                    # ("NOG steeds", "NIET helemaal het antewoord")
                if (b.tag == "VNW" and any(
                        anns[x].tag == "VZ" and x not in np_pp_attached
                        and not _has_np_complement(anns, x, cl.end,
                                                   puncts)
                        for x in range(j + 1, cl.end))):
                    continue  # half of a split pronominal adverb
                    # ("besteedt DAAR aandacht aan": daar+aan = eraan,
                    # no separate adverb edge — reference tests/afk)
                if (b.lword in ("daar", "hier", "thuis", "weg")
                        and anns[content].lemma in ("zijn", "komen",
                                                    "blijven")
                        and all(anns[x].tag == "WW" or x in puncts
                                for x in range(j + 1, cl.end))):
                    # clause-final locative pro-adverb = rel=ld
                    # complement ("als ik THUIS kom", "ben ik om 18:30
                    # DAAR", tests/bug4 s2, connective1 s2): the edge
                    # stands but getAdverbialNodes skips it
                    _store(parse, "VERB_MOD_BW", sc_tgt, j, puncts)
                    continue
                if (b.lword == "zo" and j == verb + 1
                        and anns[verb].lemma in ("zitten", "staan",
                                                 "liggen", "gaan")
                        and all(x in puncts
                                for x in range(j + 1, cl.end))):
                    # clause-final "zo" predicates a posture verb ("de
                    # situatie zit ZO", tests/bug1 s1: predc_a 0) —
                    # getAdverbialNodes still counts the advp
                    _store(parse, "VERB_PREDC_A", sc_tgt, j, puncts)
                    parse.vc_mod_cnt += 1
                    if b.adverb_type == "GENERAL":
                        parse.vc_mod_single_cnt += 1
                    continue
                # Alpino's lcat for a handful of adverbs is "ap", not
                # "advp" (WEL/even/graag/anders, measured over the
                # reference treebanks) — those mods classify as
                # VERB_MOD_A (src/Alpino.cxx:474-476)
                _store(parse,
                       "VERB_MOD_A" if b.lword in _AP_ADVERBS
                       else "VERB_MOD_BW", sc_tgt, j, puncts)
                parse.vc_mod_cnt += 1
                if b.adverb_type == "GENERAL":
                    parse.vc_mod_single_cnt += 1
            elif (b.tag == "ADJ" and b.lword == "terecht"
                  and anns[content].lemma == "komen"):
                # separable particle of terechtkomen ("TERECHT zijn
                # gekomen", tests/d3 s1: verb_svp 1)
                _store(parse, "VERB_SVP", content, j, puncts)
            elif (b.tag == "ADJ" and b.lword in ("inclusief",
                                                 "exclusief",
                                                 "uitgezonderd")):
                # prepositional-adjective connective: cmp with an NP
                # body, the noun a bare adjunct of the verb ("gedaan ,
                # INCLUSIEF het werk voor morgen",
                # tests/relativeclauses s6: verb_comp 0, comp_body 1,
                # verb_noun 2)
                head = next((x for x in range(j + 1, cl.end)
                             if x not in puncts
                             and _is_nounish(anns[x])), -1)
                if head >= 0:
                    _store(parse, "VERB_COMP", sc_tgt, j, puncts)
                    _store(parse, "COMP_BODY", j, head, puncts)
                    _store(parse, "VERB_NOUN", sc_tgt, head, puncts)
                    in_pp_until = head
                else:
                    _store(parse, "VERB_MOD_A", sc_tgt, j, puncts)
            elif b.tag == "ADJ":
                k = j
                while k + 1 < cl.end and anns[k + 1].tag == "ADJ":
                    k += 1
                nxt2 = next((x for x in range(k + 1, cl.end)
                             if x not in puncts), -1)
                if nxt2 >= 0 and _is_nounish(anns[nxt2]):
                    pass  # prenominal ADJ chain before a noun head
                elif k > j:
                    # ADJ directly before another ADJ: an intensifier
                    # stays inside the AP ("erg VLUG", "vrij klein" —
                    # no verb edge), while a real adjective heads its
                    # own mod-AP ("zo SNEL groot": VERB_MOD_A edge,
                    # the chain-final ADJ is the predc)
                    if (b.intensify_type != "BVBW"
                            and b.lword not in ("vrij", "erg", "heel",
                                                "zeer", "nogal")):
                        _store(parse, "VERB_MOD_A", sc_tgt, j, puncts)
                elif (nxt2 == content and anns[content].tag == "WW"
                        and anns[content].prop == "ISVD"
                        and anns[content].lemma in ("vinden", "achten",
                                                    "noemen", "maken")):
                    # resultative predicate before a small-clause verb
                    # ("het lang LEUK gevonden", tests/bug5 s5:
                    # predc_a 0)
                    _store(parse, "VERB_PREDC_A", sc_tgt, j, puncts)
                elif b.lemma.lower() in ("dichtbij", "nabij"):
                    # locative comparative adjective is the verb's ld
                    # COMPLEMENT — no mod/predc edge ("komt ... met de
                    # dag DICHTERBIJ", tests/bug5 s8)
                    pass
                else:
                    _store(parse, "VERB_PREDC_A" if (is_copula or is_passive) else "VERB_MOD_A",
                           sc_tgt, j, puncts)

        # nominal coordination in the object field is ONE argument: the
        # reference resolves the conj node to its first cnj ("Ik zie Jan
        # en Piet daar staan", tests/depdist9: one obj1 edge, to Jan)
        obj_group = None
        for a_i in range(len(obj_cands)):
            g = conj_group.get(obj_cands[a_i])
            if g is not None and g[0] == obj_cands[a_i]:
                obj_group = g
                obj_cands = (obj_cands[: a_i + 1]
                             + [c for c in obj_cands[a_i + 1:]
                                if c not in g])
                break

        # object assignment: single candidate -> obj1; pronoun + NP in a
        # ditransitive frame -> first = obj2 (indirect), last = obj1
        # ("Ik geef hem een boek", depdist10/11)
        # controlled copular infinitive ("probeert ... de beste SKIER
        # ... te ZIJN", reference tests/predc-n): the nominal is the
        # INFINITIVE's predicate and the matrix subject doubles as its
        # (coindexed) subject
        cop_inf = next((w for w in verbs
                        if w != verb and anns[w].prop == "ISINF"
                        and anns[w].wwform == "COPULA"), -1)
        if cop_inf >= 0 and obj_cands and su >= 0 \
                and all(c < cop_inf for c in obj_cands):
            _store(parse, "VERB_PREDC_N", cop_inf, obj_cands[0], puncts)
            if not (aux_construction and content == cop_inf):
                # when the copular infinitive IS the aux-chain content
                # verb its coindexed su ref fired above already
                # ("blijkt ... te ZIJN", tests/flair1 s17)
                _store(parse, "SUB_VERB", cop_inf, su, puncts)
            obj_cands = []

        # inherently-reflexive objects are Alpino rel=se, not obj1
        # ("waar verheugen WE ONS op", tests/bug5 s3: obj NA): zich is
        # always se; a personal pronoun coreferent with the clause
        # subject is se too
        if obj_cands:
            se_forms = {"zich", "zichzelf"}
            if su >= 0:
                se_forms |= {"we": {"ons", "onszelf"},
                             "wij": {"ons", "onszelf"},
                             "ik": {"me", "mezelf"},
                             "je": {"jezelf"}, "jij": {"jezelf"},
                             }.get(anns[su].lword, set())
            obj_cands = [c for c in obj_cands
                         if anns[c].lword not in se_forms]

        obj1_tgt = -1
        if obj_cands:
            if aci_pron >= 0:
                _store(parse, "OBJ1_VERB", verb, aci_pron, puncts)
                _store(parse, "SUB_VERB", inf_head, aci_pron, puncts)
            elif inf_head >= 0:
                # AcI with a full-NP object: obj1 runs to the NP head, the
                # infinitive's coindexed su to the NP START (reference
                # tests/depdist8/14: su staan -> determiner position)
                c0 = obj_cands[0]
                _store(parse, "OBJ1_VERB", verb, c0, puncts)
                _store(parse, "SUB_VERB", inf_head,
                       np_start.get(c0, c0), puncts)
            elif is_copula:
                # an ALL-CAPS emphasis word is an adjectival predicate
                # despite the SPEC tag ("Hij WORDT steeds maar
                # VROLIJKER", tests/predc-a: predc_a)
                c0 = obj_cands[0]
                typ = ("VERB_PREDC_A"
                       if (anns[c0].prop == "ISNAME"
                           and anns[c0].word.isupper()
                           and len(anns[c0].word) > 1)
                       else "VERB_PREDC_N")
                # a TW-led temporal predicate over expletive het has
                # no predc edge ("toen het 18 APRIL was", tests/bug2
                # s5 / connective1: predc None)
                if not (su >= 0 and anns[su].lword == "het"
                        and c0 >= 1 and anns[c0 - 1].tag == "TW"):
                    _store(parse, typ, content, c0, puncts)
            elif len(obj_cands) == 1:
                obj1_tgt = obj_cands[0]
                if vp_conj_bound >= 0 and obj1_tgt > vp_conj_bound:
                    # object inside the right VP conjunct ("het stadje
                    # VERKEND": obj1 verkend->stadje, s16)
                    _store(parse, "OBJ1_VERB", vp_conj_verb, obj1_tgt,
                           puncts)
                elif obj_group is not None and obj_group[0] == obj1_tgt:
                    # coordinated object: hd of the first phrasal cnj
                    # plus the first cnj node's begin (tests/
                    # smallconjuncts s5: obj1_verb [5,6])
                    first_np = np_start.get(obj1_tgt, obj1_tgt)
                    phrasal = next((h for h in obj_group
                                    if np_start.get(h, h) != h), -1)
                    if phrasal >= 0:
                        _store(parse, "OBJ1_VERB", content, phrasal,
                               puncts)
                    _store(parse, "OBJ1_VERB", content, first_np, puncts)
                else:
                    tgt = te_tgt if te_tgt >= 0 else content
                    if om_inf >= 0 and om_idx < obj1_tgt < om_inf:
                        # om-body object belongs to the body inf
                        # ("om ENERGIE te verspillen", tests/bug4 s5)
                        tgt = om_inf
                    _store(parse, "OBJ1_VERB", tgt, obj1_tgt, puncts)
                    if posture_inf >= 0:
                        # the object doubles as the posture inf's su
                        _store(parse, "SUB_VERB", posture_inf,
                               np_start.get(obj1_tgt, obj1_tgt),
                               puncts)
                    ns = np_start.get(obj1_tgt, obj1_tgt)
                    while (ns - 1 >= cl.start and ns - 1 not in puncts
                           and anns[ns - 1].tag in ("ADJ", "N", "TW",
                                                    "VG")):
                        ns -= 1
                    if ns < obj1_tgt and any(
                            anns[x].tag == "VG"
                            for x in range(ns, obj1_tgt)):
                        # object NP with an internal mod-conj: the ref
                        # also reaches the np begin ("hanteerden HOUTEN
                        # en stenen werktuigen", tests/dlevel2 s2:
                        # obj1 [3, 0])
                        _store(parse, "OBJ1_VERB", content, ns, puncts)
            else:
                _store(parse, "OBJ2_VERB", content, obj_cands[0], puncts)
                if is_copula:
                    # copula + indirect object: the second nominal is
                    # the PREDICATE ("LIJKT mij een ideale baan",
                    # tests/dlevel6 s9: obj2 + predc_n, no obj1)
                    _store(parse, "VERB_PREDC_N", content,
                           obj_cands[-1], puncts)
                else:
                    obj1_tgt = obj_cands[-1]
                    _store(parse, "OBJ1_VERB",
                           te_tgt if te_tgt >= 0 else content,
                           obj1_tgt, puncts)
        # bare-verb VP coordination shares the object with the left verb
        # ("Ik waardeer en bewonder hem", reference tests/depdist13: obj1
        # edges from BOTH conjunct verbs)
        if (obj1_tgt >= 0 and cl.kind == "coord" and shared_su
                and matrix_verb >= 0
                # the left conjunct must be a MAIN clause verb, not an
                # embedded sub's ("toen het 18 april WAS , dus kocht",
                # tests/bug2 s5: no was->reep edge)
                and not (ci > 0 and clause_cls[ci - 1] == "ssub")
                and all(i in puncts
                        for i in range(matrix_verb + 1, cl.conj_idx))):
            _store(parse, "OBJ1_VERB", matrix_verb, obj1_tgt, puncts)

    # ---- AL aggregates (sentStats::getMeanAL/getHighestAL,
    #      src/sentstats.cxx:244-264) ---------------------------------------
    dists = parse.all_distances()
    if dists:
        parse.al_gem = sum(dists) / len(dists)
        parse.al_max = float(max(dists))
    # else: al_gem NaN, al_max 0.0 (reference defaults)

    parse.clause_cnt = parse.smain_cnt + parse.ssub_cnt + parse.sv1_cnt
    parse.corrected_clause_cnt = parse.clause_cnt if parse.clause_cnt > 0 else 1

    # ---- clause/conjunction families (reduced proxies; the reference
    # walks the Alpino DOM, src/sentstats.cxx:546-712) ----------------------
    # "te" + infinitive complements (cat ti/oti)
    for i in range(n - 1):
        if anns[i].lword == "te" and anns[i + 1].tag == "WW" \
                and anns[i + 1].prop == "ISINF":
            parse.infin_compl_bep_cnt += 1
    # loose clauses: sentence STARTS with the subordinator/relativizer
    first = next((i for i in range(n) if i not in puncts), -1)
    if first >= 0 and parse.clause_cnt > 0:
        a0 = anns[first]
        if a0.tag == "VNW" and a0.lword in _REL_PRONOUNS:
            parse.los_betr_cnt = 1
        elif (a0.tag == "VG" and a0.conjtype == "onder"
              and parse.smain_cnt + parse.sv1_cnt == 0):
            # LOOSE only without a matrix clause ("Toen ik de actie
            # zag , DACHT ik" is a regular fronted cp — tests/bug2 s4:
            # losBijw 0)
            parse.los_bijw_cnt = 1
    # multiple-embedding proxies: finite sub clauses beyond the first
    n_fin_sub = sum(1 for c in clause_cls if c == "ssub")
    parse.mv_fin_inbed_cnt = max(0, n_fin_sub - 1)
    n_embed = n_fin_sub + parse.infin_compl_bep_cnt
    parse.mv_inbed_cnt = max(0, n_embed - 1)
    # conjunction families: clause conjuncts joined by a coordinating VG
    # count per their own class, INCLUDING the clause left of the first
    # conjunction in a run (Alpino's conj node has every conjunct as cnj);
    # phrase-level (nominal) conjunctions were merged out of the clause
    # list above and counted in small_cnj_cnt there
    for ci, cl in enumerate(clauses):
        # gapped conjunct: the LEFT clause is the (single) smain
        # conjunct in the tree ("Peter en Thea zijn gekomen, en Arie en
        # Truus ook.": smainCnt 1, smainCnjCnt 1)
        if cl.kind == "gap":
            if ci > 0 and clause_cls[ci - 1] == "smain":
                parse.smain_cnj_cnt += 1
            continue
        # coordinated SUBORDINATE clauses: "omdat ... en omdat ..." —
        # the neven VG directly precedes the second subordinator, so
        # the sub clause (and its left peer) are ssub conjuncts
        if (cl.kind == "sub" and cl.conj_idx >= 1
                and clause_cls[ci] == "ssub"
                and anns[cl.conj_idx - 1].tag == "VG"
                and anns[cl.conj_idx - 1].conjtype == "neven"
                # the LEFT peer must itself be a sub clause — a wh sub
                # directly after a clause-coordinating VG belongs to
                # the MATRIX conjunct ("maar WELKE DAT ZIJN is ...",
                # tests/d5 s1: the maar coordinates the smains)
                and ci > 0 and clause_cls[ci - 1] == "ssub"):
            parse.ssub_cnj_cnt += 2
            continue
        if cl.kind != "coord" or cl.conj_idx < 0:
            # a comma-joined (asyndetic) conjunct counts when its run
            # ends in a real coordinator ("woonden ... , HANTEERDEN
            # ... en maakten", tests/dlevel2 s2: smainCnjCnt 3)
            if (cl.kind == "coord" and cl.conj_idx < 0
                    and clause_cls[ci] is not None
                    and any(c.kind == "coord" and c.conj_idx >= 0
                            for c in clauses[ci + 1:])):
                key = {"smain": "smain_cnj_cnt", "ssub": "ssub_cnj_cnt",
                       "sv1": "sv1_cnj_cnt"}[clause_cls[ci]]
                setattr(parse, key, getattr(parse, key) + 1)
            continue
        if not any(i not in puncts for i in range(0, cl.conj_idx)):
            continue  # sentence-initial coordinator: no left conjunct
        if any(c2.kind == "sub" and c2.conj_idx == cl.conj_idx + 1
               and anns[c2.conj_idx].tag == "VNW"
               and ci2 > 0 and clause_cls[ci2 - 1] == "ssub"
               and clauses[ci2 - 1].kind == "sub"
               for ci2, c2 in enumerate(clauses)):
            # the VG coordinates two fronted wh clauses, not the
            # matrix ("Wat hij komt doen EN wat hij wil weet ik
            # niet", tests/smallconjuncts s29: ssubCnj 2, smainCnj 0)
            continue
        if clause_cls[ci] is not None:
            key = {"smain": "smain_cnj_cnt", "ssub": "ssub_cnj_cnt",
                   "sv1": "sv1_cnj_cnt"}[clause_cls[ci]]
            setattr(parse, key, getattr(parse, key) + 1)
            # left conjunct joins the same conj group (once per run
            # start, walking back over asyndetic comma-conjuncts that
            # counted themselves above)
            lj = ci - 1
            while lj > 0 and ((clauses[lj].kind == "coord"
                               and clauses[lj].conj_idx < 0)
                              # an embedded sub clause between the
                              # conjuncts is inside the LEFT conjunct:
                              # its ssub still counts under the conj
                              # node, and the walk continues to the
                              # main peer ("Ik wist het pas TOEN ... ,
                              # dus kocht ...", tests/bug2 s5:
                              # smain_cnj 2 + ssub_cnj 1)
                              or clauses[lj].kind in ("sub", "rel")):
                if (clauses[lj].kind in ("sub", "rel")
                        and clause_cls[lj] == "ssub"):
                    parse.ssub_cnj_cnt += 1
                lj -= 1
            if lj >= 0 and lj == ci - 1 \
                    and clauses[lj].kind == "coord":
                pass  # mid-run VG conjunct: left already counted
            elif lj >= 0 and clauses[lj].kind != "coord" \
                    and clause_cls[lj] is not None:
                lkey = {"smain": "smain_cnj_cnt", "ssub": "ssub_cnj_cnt",
                        "sv1": "sv1_cnj_cnt"}[clause_cls[lj]]
                setattr(parse, lkey, getattr(parse, lkey) + 1)
                # a fronted adverbial cp before the FIRST conjunct is
                # coindexed into every cnj, so its ssub sits under the
                # conj node too ("HOEWEL ... , was hij ... , en sprak
                # hij ...", tests/dlevel5 s4: ssubCnj 1)
                for lk in range(lj):
                    if clauses[lk].kind == "sub" \
                            and clause_cls[lk] == "ssub":
                        parse.ssub_cnj_cnt += 1
                # a trailing sub clause inside the LAST conjunct sits
                # under the conj node too ("..., want ... verdwenen ,
                # bijvoorbeeld OMDAT ...", tests/dlevel4 s7: ssubCnj 1)
                for rk in range(ci + 1, len(clauses)):
                    if clauses[rk].kind == "sub" \
                            and clause_cls[rk] == "ssub":
                        parse.ssub_cnj_cnt += 1

    # coordinated rel conjuncts: both bodies count as ssub conjuncts;
    # the conj node between np and rel blocks the D-level-6 su-rel probe
    parse.ssub_cnj_cnt += 2 * len(relconj_crd)
    ladder_rels = [(nn, pp) for (nn, pp) in rel_after_noun
                   if pp not in conj_rel_prons]
    # the D-level ladder counts Frog pv TAGS (src/Alpino.cxx:736): it
    # sees the original props, not the parse-only cluster demotions
    parse.d_level = _d_level(orig_anns, clauses, ladder_rels,
                             main_verb_idx, puncts, main_su,
                             wh_su=bool(whsub_su),
                             wh_obj=wh_obj_clause)
    parse.d_level_gt4 = 1 if parse.d_level > 4 else 0
    return parse


def _d_level(
    anns: list,
    clauses: list[Clause],
    rel_after_noun: list[tuple[int, int]],
    main_verb_idx: int,
    puncts: set[int],
    main_su: int = -1,
    wh_su: bool = False,
    wh_obj: bool = False,
) -> int:
    """D-level ladder (get_d_level, src/Alpino.cxx:728-954) — the decision
    ORDER and counters are the reference's; the tree probes are replaced by
    the reduced parser's proxies (documented per step)."""
    pv_counter = sum(1 for a in anns if _is_finite(a))
    neven_counter = sum(1 for a in anns if a.tag == "VG" and a.conjtype == "neven")

    # level 7: multiple embedded clauses (coordinated ones don't count)
    if pv_counter - neven_counter > 2:
        return 7

    # level 6: relative clause modifying the SUBJECT (rel-pronoun after a
    # noun that precedes the main verb)
    for noun_idx, _pron in rel_after_noun:
        if main_verb_idx >= 0 and (noun_idx < main_verb_idx
                                   or noun_idx == main_su):
            return 6
    # level 6 (2nd form): a clause as the SUBJECT (Alpino rel=su with
    # cat=cp/whsub/whrel, reference src/Alpino.cxx:781-789): sentence-
    # initial dat/of complementizer or wh word heading a verb-final
    # clause, with the matrix finite verb later in the sentence
    first = next((i for i in range(len(anns)) if i not in puncts), -1)
    if first >= 0:
        a0 = anns[first]
        fins = [i for i, a in enumerate(anns) if _is_finite(a)]
        nxt = next((i for i in range(first + 1, len(anns))
                    if i not in puncts), -1)
        v2 = nxt >= 0 and nxt < len(anns) and _is_finite(anns[nxt])
        if (len(fins) >= 2 and not v2
                and ((a0.tag == "VG" and a0.conjtype == "onder"
                      and a0.lword in ("dat", "of"))
                     or (not wh_obj
                         and a0.tag == "VNW"
                         and a0.lword in ("wie", "wat"))
                     # wh-adverb heading a fronted whsub subject clause
                     # ("HOE het deze mensen gelukt is ... , is ...")
                     or (a0.tag == "BW" and a0.lword in (
                         "hoe", "waarom", "wanneer")))):
            return 6
        # mid-sentence wh SUBJECT clause ("maar WELKE DAT ZIJN is niet
        # meer te achterhalen", tests/d5 s1): Alpino rel=su cat=whrel
        # anywhere in the sentence reads level 6 (src/Alpino.cxx:781)
        if wh_su and len(fins) >= 2:
            return 6
        # nominalized SUBJECT: a det + nominalized-infinitive np before
        # the matrix finite — Alpino's "verb node whose parent is
        # rel=su cat=np" probe ("HET TESTEN van een game ... lijkt mij
        # een ideale baan", tests/dlevel6 s9; src/Alpino.cxx:791-796)
        if a0.tag == "LID" and nxt >= 0 and anns[nxt].tag == "WW" \
                and anns[nxt].prop == "ISINF" \
                and any(_is_finite(anns[k])
                        for k in range(nxt + 1, len(anns))):
            return 6

    # level 5: subordinating conjunction other than "dat"
    for a in anns:
        if a.tag == "VG" and a.conjtype == "onder" and a.lword != "dat":
            return 5

    # level 4: object of comparison (obcomp) — comparative "dan"/"als"
    # within 3 tokens after an adjective
    for i, a in enumerate(anns):
        if a.tag == "ADJ":
            for j in range(i + 1, min(i + 4, len(anns))):
                if anns[j].lword in ("dan", "als") and anns[j].tag in ("BW", "VG", "VNW"):
                    return 4

    # level 3: object-modifying relative clause, complement clause
    # ("dat"-VG), or subject extraposition
    for noun_idx, _pron in rel_after_noun:
        if main_verb_idx >= 0 and noun_idx > main_verb_idx:
            return 3
    for a in anns:
        if a.tag == "VG" and a.conjtype == "onder" and a.lword == "dat":
            return 3
    # embedded WH-clause complement = rel=vc cat=whsub in the tree
    # ("verhalen over HOE hij won", reference src/Alpino.cxx:482)
    for i, a in enumerate(anns):
        if (a.tag == "BW" and a.lword in ("hoe", "waarom", "wanneer")
                and i >= 1 and anns[i - 1].tag == "VZ"
                and any(_is_finite(anns[j])
                        for j in range(i + 1, len(anns)))):
            return 3

    # level 2: coordination
    if neven_counter > 0:
        return 2

    # level 1: "te" + infinitive sharing the main subject
    for i in range(len(anns) - 1):
        if anns[i].lword == "te" and anns[i + 1].tag == "WW" and anns[i + 1].prop == "ISINF":
            return 1

    return 0


# ---------------------------------------------------------------------------
# document-level rollups (mean-of-means semantics, SURVEY.md §7.4)
# ---------------------------------------------------------------------------

def doc_mean_al(per_sent_values: list[float]) -> float:
    """structStats::getMeanAL / getHighestAL (src/structstats.cxx:28-54):
    sum the non-NaN per-sentence values, divide by the TOTAL number of
    sentences; the reference returns NaN when the sum is exactly 0."""
    if not per_sent_values:
        return float("nan")
    total = 0.0
    for v in per_sent_values:
        if not math.isnan(v):
            total += v
    if total == 0:
        return float("nan")
    return total / len(per_sent_values)


def merge_d_level(levels: list[int]) -> int:
    """dLevel merge with the -1 sentinel (src/structstats.cxx:1620-1625):
    -1 means 'no parse'; the merged value sums only non-sentinel levels and
    stays -1 if every child was -1."""
    out = -1
    for lv in levels:
        if lv >= 0:
            out = lv if out < 0 else out + lv
    return out

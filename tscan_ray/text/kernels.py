"""Conformance-critical numeric kernels.

Each function reimplements, from its published formula, a scalar kernel
of the reference engine (CentreForDigitalHumanities/tscan); reference
locations are cited per function so parity can be checked.  These are
pure functions used *inside* batch UDFs — they never touch Ray.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

NA = float("nan")

MTLD_THRESHOLD = 0.72


def proportion(a: float, b: float) -> float:
    """NaN-safe ratio a/b (reference include/tscan/utils.h:79-88: NaN if b==0 or either NaN)."""
    if b == 0 or math.isnan(a) or math.isnan(b):
        return NA
    return a / b


def density(a: float, b: float) -> float:
    """Per-1000 ratio (reference include/tscan/utils.h:90-97)."""
    if b == 0 or math.isnan(a) or math.isnan(b):
        return NA
    return (a / b) * 1000.0


def freq_log(freq: float, total: float) -> float:
    """log10 of Laplace-smoothed frequency per billion words.

    Reference src/utils logic at src/tscan.cxx:1617-1621 (SUBTLEX-UK
    transform): log10(((freq+1)/total)*1e9).
    """
    return math.log10(((freq + 1) / float(total)) * 1e9)


def calculate_mtld(tokens: Sequence[str], threshold: float = MTLD_THRESHOLD) -> float:
    """One-directional MTLD (reference src/tscan.cxx:1806-1855).

    Walks the token list keeping a running TTR; each time TTR drops to
    <= threshold a factor completes and state resets.  A partial factor
    (1-ttr)/(1-threshold) is added only when the *last* token leaves the
    running TTR above the threshold.  Empty list -> 0.0; zero factors ->
    factor forced to 1.0.  Result = len(tokens) / factor.
    """
    n = len(tokens)
    if n == 0:
        return 0.0
    token_count = 0
    uniq: set[str] = set()
    factor = 0.0
    for i, tok in enumerate(tokens):
        token_count += 1
        uniq.add(tok)
        ttr = len(uniq) / token_count
        if ttr <= threshold:
            factor += 1.0
            token_count = 0
            uniq.clear()
        elif i == n - 1:
            factor += (1 - ttr) / (1 - threshold)
    if factor == 0.0:
        factor = 1.0
    return n / factor


def average_mtld(tokens: Sequence[str], threshold: float = MTLD_THRESHOLD) -> float:
    """Bidirectional MTLD: mean of forward and reversed passes
    (reference src/tscan.cxx:1857-1875)."""
    fwd = calculate_mtld(tokens, threshold)
    bwd = calculate_mtld(list(reversed(tokens)), threshold)
    return (fwd + bwd) / 2.0


def ttr(tokens: Sequence[str]) -> float:
    """Type-token ratio; NaN on empty (reference emits proportion(unique, count),
    src/structstats.cxx:462-474)."""
    return proportion(float(len(set(tokens))), float(len(tokens)))


def windowed_diversity(ids: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """TTR and bidirectional MTLD of many token windows at once.

    ``ids`` are integer token ids; window ``i`` is ``ids[starts[i]:ends[i]]``.
    Returns ``(ttr, mtld)`` float64 arrays, bit-identical to
    :func:`ttr` and :func:`average_mtld` of each window.

    A stable argsort of the ids gives each position's previous and next
    occurrence (``prev``/``nxt``).  A token is new in the forward segment
    ``[seg, p]`` iff ``prev[p] < seg``, new in the backward segment
    ``[p, seg)`` iff ``nxt[p] >= seg``, and new in the window iff
    ``prev[p] < start``.  Windows are ordered longest first, so the
    windows still walking at step ``j`` are a prefix; each step advances
    all of them one token in both directions with the float operations of
    :func:`calculate_mtld`, in its order.  Steps = the longest window.
    """
    ids = np.asarray(ids, dtype=np.int64)
    n_tok = len(ids)
    order = np.argsort(ids, kind="stable")
    same = ids[order[1:]] == ids[order[:-1]]
    prev = np.full(n_tok, -1, dtype=np.int64)
    nxt = np.full(n_tok, n_tok, dtype=np.int64)
    prev[order[1:][same]] = order[:-1][same]
    nxt[order[:-1][same]] = order[1:][same]

    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(ends, dtype=np.int64) - starts
    by_len = np.argsort(-lengths, kind="stable")
    length = lengths[by_len]
    start = starts[by_len]
    end = start + length
    n = length.astype(np.float64)
    # active[j] = windows longer than j (a prefix of the length order)
    active = np.searchsorted(-length, -np.arange(length.max(initial=0)),
                             side="left")
    # window distinct count; per direction the open segment's bound,
    # its uniques and tokens, and the completed factors
    distinct, fu, fcnt, ffac, bu, bcnt, bfac = np.zeros((7, len(n)))
    fseg, bseg = start.copy(), end.copy()
    for j, k in enumerate(active):
        p = start[:k] + j
        pp = prev[p]
        distinct[:k] += pp < start[:k]
        fu[:k] += pp < fseg[:k]
        fcnt[:k] += 1.0
        closed = fu[:k] / fcnt[:k] <= MTLD_THRESHOLD
        ffac[:k] += closed
        fu[:k][closed] = 0.0
        fcnt[:k][closed] = 0.0
        fseg[:k][closed] = p[closed] + 1

        q = end[:k] - 1 - j
        bu[:k] += nxt[q] >= bseg[:k]
        bcnt[:k] += 1.0
        closed = bu[:k] / bcnt[:k] <= MTLD_THRESHOLD
        bfac[:k] += closed
        bu[:k][closed] = 0.0
        bcnt[:k][closed] = 0.0
        bseg[:k][closed] = q[closed]

    with np.errstate(invalid="ignore", divide="ignore"):
        # a segment still open after the last token adds its partial factor
        part = 1 - MTLD_THRESHOLD
        ffac = np.where(fcnt > 0, ffac + (1 - fu / fcnt) / part, ffac)
        bfac = np.where(bcnt > 0, bfac + (1 - bu / bcnt) / part, bfac)
        ffac[ffac == 0.0] = 1.0
        bfac[bfac == 0.0] = 1.0
        mtld = (n / ffac + n / bfac) / 2.0
        ratio = np.where(n > 0, distinct / n, NA)
    out_ttr, out_mtld = np.empty((2, len(n)))
    out_ttr[by_len] = ratio
    out_mtld[by_len] = mtld
    return out_ttr, out_mtld


# Dutch pronoun equivalence classes for argument overlap
# (reference src/utils.cxx:24-94)
_PRONOUN_CLASSES: tuple[frozenset[str], ...] = (
    frozenset({"ik", "mij", "me", "mijn"}),
    frozenset({"jij", "je", "jou", "jouw"}),
    frozenset({"hij", "hem", "zijn"}),
    frozenset({"zij", "ze", "haar"}),
    frozenset({"wij", "we", "ons", "onze"}),
    frozenset({"jullie"}),
    frozenset({"zij", "ze", "hen", "hun"}),
)


def argument_overlap_count(w_or_l: str, buffer: Sequence[str]) -> int:
    """1 if the word/lemma overlaps the buffer (identity or shared pronoun
    class), else 0.  At most one hit per candidate — the reference breaks
    after the first match (src/utils.cxx:55-94).
    """
    if not buffer:
        return 0
    member_classes = [c for c in _PRONOUN_CLASSES if w_or_l in c]
    for b in buffer:
        if w_or_l == b:
            return 1
        for c in member_classes:
            if b in c:
                return 1
    return 0


_INFLECTION_SUFFIXES = ("e", "en", "s")


def find_inflected(mapping: dict, val: str):
    """Lookup with suffix-stripping/adding fallback over {e, en, s}
    (reference include/tscan/utils.h:31-55).  Returns the value or None.
    """
    if val in mapping:
        return mapping[val]
    for suffix in _INFLECTION_SUFFIXES:
        if len(val) > len(suffix) and val.endswith(suffix):
            stripped = val[: len(val) - len(suffix)]
            if stripped in mapping:
                return mapping[stripped]
        else:
            added = val + suffix
            if added in mapping:
                return mapping[added]
    return None


def match_tail(word: str, tail: str) -> bool:
    """Suffix match (reference src/wordstats.cxx:39-57)."""
    return len(word) >= len(tail) and word.endswith(tail)


def form_for_head(word: str, head: str) -> str:
    """Recover the word-form for a compound's head lemma: the longest
    suffix of `word` whose length >= len(head), preferring the suffix
    that starts where the head's characters align from the right
    (reference formForHead, src/tscan.cxx:1260-1296 — the reference walks
    back from the end matching the head; we reproduce its fallback: if
    the head occurs as a suffix modulo final inflection, return that
    slice, else return the head itself).
    """
    lw = word.lower()
    lh = head.lower()
    if lw.endswith(lh):
        return word[len(word) - len(head) :]
    # allow final-e/en/s inflection on the word
    for suffix in _INFLECTION_SUFFIXES:
        if lw.endswith(lh + suffix):
            return word[len(word) - len(head) - len(suffix) :]
    return head


def rarity(lemma_doc_counts: dict[str, int], level: int) -> float:
    """Rarity index: fraction of unique lemmas whose count <= level
    (reference src/docstats.cxx:9-18)."""
    if not lemma_doc_counts:
        return NA
    rare = sum(1 for c in lemma_doc_counts.values() if c <= level)
    return proportion(float(rare), float(len(lemma_doc_counts)))


def clamp(v: float, lo: float, hi: float) -> float:
    return max(lo, min(hi, v))


def _cpp_max(a: float, b: float) -> float:
    """std::max semantics: (a < b) ? b : a — NaN comparisons are false, so
    _cpp_max(0.0, NaN) == 0.0 (matters for LiNT NaN propagation)."""
    return b if a < b else a


def _cpp_min(a: float, b: float) -> float:
    """std::min semantics: (b < a) ? b : a."""
    return b if b < a else a


def lint_scores(
    wrd_freq_log_zn_corr: float,
    bijv_bep_dz_zbijzin: float,
    alg_nw_d: float,
    al_max: float,
    inhwrd_dz_zonder_abw: float,
    conc_nw_ruim_p: float,
) -> tuple[float, int, float, int]:
    """LiNT readability scores 1 & 2 plus 4-band levels, exactly as the
    reference computes them (src/structstats.cxx:1005-1040):

      score1 = min(100, max(0, 100 - (-14.857 + 19.487*wrd_freq_log_zn_corr
                                      - 5.965*bijv_bep_dz_zbijzin
                                      - 0.093*alg_nw_d - 0.995*al_max)))
      score2 = min(100, max(0, 100 - (3.204 + 15.845*wrd_freq_log_zn_corr
                                      - 1.331*al_max - 3.829*inhwrd_dz_zonder_abw
                                      + 13.096*conc_nw_ruim_p)))
      levels: <=34 -> 1, <=46 -> 2, <=60 -> 3, else 4

    NaN inputs collapse to score 0.0 / level 1 via C++ min/max comparison
    semantics, reproduced here with _cpp_min/_cpp_max.
    """
    s1 = _cpp_min(
        100.0,
        _cpp_max(
            0.0,
            100.0
            - (
                -14.857
                + 19.487 * wrd_freq_log_zn_corr
                - 5.965 * bijv_bep_dz_zbijzin
                - 0.093 * alg_nw_d
                - 0.995 * al_max
            ),
        ),
    )
    s2 = _cpp_min(
        100.0,
        _cpp_max(
            0.0,
            100.0
            - (
                3.204
                + 15.845 * wrd_freq_log_zn_corr
                - 1.331 * al_max
                - 3.829 * inhwrd_dz_zonder_abw
                + 13.096 * conc_nw_ruim_p
            ),
        ),
    )

    def level(s: float) -> int:
        if s <= 34:
            return 1
        if s <= 46:
            return 2
        if s <= 60:
            return 3
        return 4

    return s1, level(s1), s2, level(s2)


def split_compound(
    lemma: str,
    vocab,
    min_part: int = 3,
    max_parts: int = 4,
) -> tuple[str, str, int] | None:
    """Deterministic Dutch compound split — the engine's stand-in for the
    reference's external compound-splitter service (splitCompound,
    reference src/tscan.cxx:1219-1257: service returns comma-separated
    parts; head = last part, satellite = the rest concatenated).

    Splits ``lemma`` into >= 2 known-noun parts (each a ``vocab`` member,
    >= ``min_part`` chars) optionally joined by the Dutch binding
    elements ""/"s"/"en"/"e".  Preference order is deterministic: fewest
    parts, then longest-first greedy within a part count.  Returns
    (head, satellite_clean, n_parts) like the lexicon compound table, or
    None when no split exists — the caller then keeps UNFOUND_NOUN
    exactly like the reference's found_split=false path
    (src/tscan.cxx:1386-1393).
    """
    n = len(lemma)
    if n < 2 * min_part:
        return None

    def rec(i: int, depth: int):
        if i == n:
            return []
        if depth >= max_parts:
            return None
        res = None
        for j in range(n, i + min_part - 1, -1):
            part = lemma[i:j]
            if part not in vocab:
                continue
            if j == n:
                return [part]  # final part; longest-first wins outright
            for b in ("", "s", "en", "e"):
                k = j + len(b)
                if k < n and lemma[j:k] == b:
                    rest = rec(k, depth + 1)
                    if rest is not None and (res is None
                                             or len(rest) + 1 < len(res)):
                        res = [part] + rest
        return res

    parts = rec(0, 0)
    if parts is None or len(parts) < 2:
        return None
    return parts[-1], "".join(parts[:-1]), len(parts)

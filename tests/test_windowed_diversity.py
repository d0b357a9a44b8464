"""The vectorized windowed TTR/MTLD kernel against the scalar per-window
oracle, bit for bit; the word tokenizer it reads; and the materialized
exchange output the sink iterates."""

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tscan_ray.ops.window import rolling_diversity_frame
from tscan_ray.text.kernels import average_mtld, ttr, windowed_diversity
from tscan_ray.text.tokenize import is_punct, tokenize, words


def _bits(values) -> bytes:
    """float64 bytes of ``values``: equal bytes mean equal bits, and NaN
    equals NaN only with the same payload (both sides use float('nan'))."""
    return np.asarray(values, dtype=np.float64).tobytes()


def _oracle_words(text) -> list[str]:
    if text is None or (isinstance(text, float) and np.isnan(text)):
        return []
    return [t.lower() for t in tokenize(text) if not is_punct(t)]


_TEXT_CHARS = st.sampled_from(
    list("aZé9_'’.-,!? \n\t") + ["ß", "İ", "Σ", "𝔘", "́", "…"])


@given(st.one_of(st.text(), st.text(_TEXT_CHARS),
                 st.lists(st.sampled_from(["U.S.A.", "d'r", "’t", "a_b",
                                           "...", "?!", "--", "x-y", " "]))
                 .map("".join)))
@settings(max_examples=300, deadline=None)
def test_words_is_tokenize_without_punctuation(text):
    assert words(text) == [t for t in tokenize(text) if not is_punct(t)]


def _check_windows(ids, starts, ends):
    got_ttr, got_mtld = windowed_diversity(ids, starts, ends)
    wins = [list(ids[s:e]) for s, e in zip(starts, ends)]
    assert _bits(got_ttr) == _bits([ttr(w) for w in wins])
    assert _bits(got_mtld) == _bits([average_mtld(w) for w in wins])


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_kernel_matches_scalar_windows(data):
    """Arbitrary, overlapping, empty and one-token windows over a small
    vocabulary (many closed segments) or a large one (partial factor
    only)."""
    vocab = data.draw(st.sampled_from([2, 3, 8, 10_000]))
    n_tok = data.draw(st.integers(0, 300))
    ids = np.asarray(data.draw(st.lists(st.integers(0, vocab - 1),
                                        min_size=n_tok, max_size=n_tok)),
                     dtype=np.int64)
    bounds = data.draw(st.lists(
        st.tuples(st.integers(0, n_tok), st.integers(0, 120)), max_size=40))
    starts = np.asarray([s for s, _ in bounds], dtype=np.int64)
    ends = np.asarray([min(n_tok, s + w) for s, w in bounds], dtype=np.int64)
    _check_windows(ids, starts, ends)


@pytest.mark.parametrize("vocab", [3, 10_000])
def test_kernel_long_windows(vocab):
    rng = np.random.default_rng(vocab)
    ids = rng.integers(0, vocab, 2_000)
    starts = np.concatenate([[0, 0, 5, 1_999, 2_000], rng.integers(0, 1_500, 30)])
    ends = np.concatenate([[2_000, 1, 6, 2_000, 2_000], starts[5:] + 500])
    _check_windows(ids, starts, ends)


_CAPTIONS = st.one_of(
    st.none(), st.just(float("nan")), st.just(""), st.just(". , !"),
    st.lists(st.sampled_from(["De", "de", "kat", "Kat", "loopt", "snel",
                              "huis", ",", ".", "d'r", "U.S.A."]),
             max_size=12).map(" ".join),
    st.lists(st.text("abcdefghij", min_size=1, max_size=6),
             min_size=1, max_size=12).map(" ".join),
)


@given(st.lists(st.tuples(st.integers(0, 3), _CAPTIONS), max_size=60),
       st.sampled_from([1, 2, 5, 50]))
@settings(max_examples=200, deadline=None)
def test_rolling_frame_matches_scalar_oracle(rows, window):
    """Each row's window is its entity's last ``window`` captions; entity
    boundaries reset it, and None / NaN captions count as no words."""
    rows = sorted(rows, key=lambda r: r[0])
    df = pd.DataFrame({"e": [e for e, _ in rows],
                       "txt": pd.Series([c for _, c in rows], dtype=object)})
    out = rolling_diversity_frame(df.copy(), "e", "txt", window)
    toks = [_oracle_words(c) for _, c in rows]
    exp_ttr, exp_mtld = [], []
    start = 0
    for i in range(len(rows)):
        if i > 0 and rows[i][0] != rows[i - 1][0]:
            start = i
        buf = [t for j in range(max(start, i - window + 1), i + 1)
               for t in toks[j]]
        exp_ttr.append(ttr(buf))
        exp_mtld.append(average_mtld(buf))
    assert _bits(out[f"ttr_w{window}"]) == _bits(exp_ttr)
    assert _bits(out[f"mtld_w{window}"]) == _bits(exp_mtld)


def test_nan_caption_is_empty_text():
    """A NaN caption (a null in a float-typed or mixed column) is a row
    with no words, not a TypeError that fails the whole bucket."""
    df = pd.DataFrame({"e": [1, 1, 1, 2],
                       "txt": ["de kat loopt", np.nan, "de kat", np.nan]})
    out = rolling_diversity_frame(df.copy(), "e", "txt", 5)
    same = rolling_diversity_frame(df.fillna("").copy(), "e", "txt", 5)
    assert _bits(out["ttr_w5"]) == _bits(same["ttr_w5"])
    assert _bits(out["mtld_w5"]) == _bits(same["mtld_w5"])
    assert np.isnan(out["ttr_w5"].iat[3]) and out["mtld_w5"].iat[3] == 0.0


def test_exchange_output_iterates_without_an_executor(ray_session, monkeypatch):
    """The exchange output is materialized: iterating its ref bundles (as
    the sink does) starts no streaming executor."""
    import ray
    import ray.data as rd
    from ray.data._internal.plan import ExecutionPlan

    from tscan_ray.ops.keyed import task_exchange

    src = rd.from_pandas(pd.DataFrame({"k": np.arange(40) % 7,
                                       "v": np.arange(40.0)}))
    out = task_exchange(src, "k", lambda df: df.assign(w=df["v"] * 2), 4)

    def no_executor(self):
        raise AssertionError("the exchange output started an executor")

    monkeypatch.setattr(ExecutionPlan, "create_executor", no_executor)
    blocks = [ray.get(ref) for bundle in out.iter_internal_ref_bundles()
              for ref in bundle.block_refs]
    got = pd.concat([b.to_pandas() for b in blocks]).sort_values("v")
    assert got["v"].tolist() == list(np.arange(40.0))
    assert (got["w"] == got["v"] * 2).all()

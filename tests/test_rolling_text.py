"""Windowed non-decomposable diversity (rolling TTR/MTLD) over entity
timelines — recompute-from-buffer semantics + zero temporal leakage."""

import numpy as np
import pandas as pd

from tscan_ray.ops.window import rolling_text_diversity
from tscan_ray.text.kernels import average_mtld, ttr
from tscan_ray.text.tokenize import is_punct, tokenize


def _toks(s):
    return [t.lower() for t in tokenize(s) if not is_punct(t)]


def _df():
    rows = []
    texts = ["a b c", "a a d e", "f g", "a b", "x y z w", "x x"]
    for i, txt in enumerate(texts):
        rows.append({"eid": i % 2, "ts": pd.Timestamp("2024-01-01")
                     + pd.Timedelta(hours=i), "rid": i, "text": txt})
    return pd.DataFrame(rows)


class TestRollingTextDiversity:
    def test_matches_direct_recompute(self, ray_session):
        import ray.data as rd

        df = _df()
        out = rolling_text_diversity(
            rd.from_pandas(df), "eid", "ts", "text", window=2,
            order_col="rid", num_buckets=4,
        ).to_pandas().sort_values("rid").reset_index(drop=True)

        # direct oracle: per entity, trailing 2-row token buffer
        for eid in (0, 1):
            sub = df[df.eid == eid].sort_values("ts").reset_index(drop=True)
            buf_prev = None
            for i in range(len(sub)):
                toks = _toks(sub.loc[i, "text"])
                buf = (buf_prev or []) + toks if i > 0 else toks
                # window=2 -> previous row's tokens + current
                window_toks = (_toks(sub.loc[i - 1, "text"]) if i > 0 else []) + toks
                row = out[out.rid == sub.loc[i, "rid"]].iloc[0]
                assert row["ttr_w2"] == ttr(window_toks)
                assert row["mtld_w2"] == average_mtld(window_toks)

    def test_zero_leakage(self, ray_session):
        import ray.data as rd

        df = _df()
        cutoff = df["ts"].iloc[3]
        full = rolling_text_diversity(rd.from_pandas(df), "eid", "ts", "text",
                                      window=3, order_col="rid",
                                      num_buckets=4).to_pandas()
        trunc = rolling_text_diversity(
            rd.from_pandas(df[df.ts <= cutoff]), "eid", "ts", "text",
            window=3, order_col="rid", num_buckets=4,
        ).to_pandas()
        f = full[full.ts <= cutoff].sort_values("rid").reset_index(drop=True)
        t = trunc.sort_values("rid").reset_index(drop=True)
        np.testing.assert_allclose(f["ttr_w3"], t["ttr_w3"], equal_nan=True)
        np.testing.assert_allclose(f["mtld_w3"], t["mtld_w3"], equal_nan=True)

    def test_window_resets_per_entity(self, ray_session):
        import ray.data as rd

        # two entities with identical first texts: their first-row windows
        # must be independent
        df = pd.DataFrame({
            "eid": [1, 2], "ts": [pd.Timestamp("2024-01-01")] * 2,
            "rid": [0, 1], "text": ["a b c", "a b c"],
        })
        out = rolling_text_diversity(rd.from_pandas(df), "eid", "ts", "text",
                                     window=5, order_col="rid",
                                     num_buckets=4).to_pandas()
        assert (out["ttr_w5"] == 1.0).all()


def test_rolling_diversity_window50_incremental_equals_direct():
    """The vectorized windowed kernel must equal, bit for bit, a direct
    per-row recompute at a large window, across entity boundaries."""
    from tscan_ray.ops.window import rolling_diversity_frame
    from tscan_ray.text.kernels import average_mtld, ttr
    from tscan_ray.text.tokenize import is_punct, tokenize

    rng = np.random.default_rng(7)
    vocab = ["de", "kat", "loopt", "snel", "huis", "groot", "mooi",
             "werkt", "boek", "stad"]
    rows = []
    for ent in (1, 2):
        for i in range(120):
            k = int(rng.integers(3, 9))
            rows.append({"e": ent, "ts": i,
                         "txt": " ".join(rng.choice(vocab, k))})
    df = pd.DataFrame(rows)
    out = rolling_diversity_frame(df.copy(), "e", "txt", window=50)

    toks = [[t.lower() for t in tokenize(x) if not is_punct(t)]
            for x in df["txt"]]
    start = 0
    for i in range(len(df)):
        if i > 0 and df["e"].iat[i] != df["e"].iat[i - 1]:
            start = i
        lo = max(start, i - 50 + 1)
        buf = [t for j in range(lo, i + 1) for t in toks[j]]
        assert out["ttr_w50"].iat[i] == ttr(buf)
        assert out["mtld_w50"].iat[i] == average_mtld(buf)

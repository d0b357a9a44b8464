"""End-to-end flagship pipeline tests: schema, invariants, leakage."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def result():
    from tscan_ray.pipelines.flagship import flagship

    return flagship(SF_DIR, n_entities=20, num_buckets=8).to_pandas()


@pytest.fixture(scope="module")
def images_path(tmp_path_factory):
    from tscan_ray.pipelines.flagship import materialize_images

    return materialize_images(
        SF_DIR, str(tmp_path_factory.mktemp("flagship") / "images"),
        n_entities=20)


class TestSynthImages:
    def test_schema_and_determinism(self):
        from tscan_ray.sources.images import IMAGE_SCHEMA, synth_images

        docs = rd.read_parquet(f"{SF_DIR}/documents.parquet").limit(30)
        a = synth_images(docs, n_entities=10).to_pandas()
        b = synth_images(docs, n_entities=10).to_pandas()
        assert list(a.columns) == list(IMAGE_SCHEMA.names)
        a = a.sort_values("image_id").reset_index(drop=True)
        b = b.sort_values("image_id").reset_index(drop=True)
        assert (a["bytes"] == b["bytes"]).all()  # fully deterministic
        assert (a["phash"] == b["phash"]).all()
        assert (a["entity_id"] == (a["phash"].to_numpy() >> 16)).all()

    def test_entity_timelines_increase(self):
        from tscan_ray.sources.images import synth_images

        docs = rd.read_parquet(f"{SF_DIR}/documents.parquet")
        imgs = synth_images(docs, n_entities=10).to_pandas()
        for _, g in imgs.groupby("entity_id"):
            ts = g.sort_values("image_id")["ts"]
            assert ts.is_monotonic_increasing


class TestDecodeValidate:
    def test_psnr_invariant(self):
        from tscan_ray.sources.images import synth_images
        from tscan_ray.stages.decode import decode_validate

        docs = rd.read_parquet(f"{SF_DIR}/documents.parquet").limit(60)
        imgs = synth_images(docs, n_entities=20)
        out = decode_validate(imgs, n_entities=20).to_pandas()
        assert out["decode_ok"].all()
        assert (out["psnr_db"] >= 40.0).all()
        # png rows are lossless -> exact
        png = out[out["fmt"] == "png"]
        assert np.isinf(png["psnr_db"]).all()
        assert "bytes" not in out.columns

    def test_caption_byte_equality(self):
        from tscan_ray.sources.images import synth_images
        from tscan_ray.stages.decode import decode_validate

        docs = rd.read_parquet(f"{SF_DIR}/documents.parquet").limit(40).to_pandas()
        imgs = synth_images(rd.from_pandas(docs), n_entities=20)
        out = decode_validate(imgs, n_entities=20).to_pandas()
        out["doc_id"] = out["image_id"].str.slice(4).astype(int)
        merged = out.merge(docs, on="doc_id")
        assert (merged["caption"] == merged["text"]).all()


class TestFlagship:
    def test_row_count_and_schema(self, result):
        assert len(result) == 500  # one feature row per document
        for col in ("image_id", "entity_id", "ts", "session_id", "MTLD_wrd",
                    "MTLD_wrd_lag1", "MTLD_wrd_rmean5", "MTLD_wrd_snap",
                    "psnr_db", "TTR_wrd"):
            assert col in result.columns, col

    def test_lag_is_strictly_past(self, result):
        df = result.sort_values(["entity_id", "ts", "image_id"])
        for _, g in df.groupby("entity_id"):
            lag = g["MTLD_wrd_lag1"].to_numpy()
            cur = g["MTLD_wrd"].to_numpy()
            assert np.isnan(lag[0])
            assert np.allclose(lag[1:], cur[:-1], equal_nan=True)

    def test_sessions_nonnegative_and_gapped(self, result):
        assert (result["session_id"] >= 0).all()
        # the generator forces a session break every 7th event
        assert result["session_id"].max() >= 1

    def test_asof_snapshot_no_leakage(self, result):
        m = result[result["ts_snap"].notna()]
        assert (m["ts_snap"] <= m["ts"]).all()

    def test_psnr_carried(self, result):
        assert (result["psnr_db"] >= 40.0).all()

    def test_images_path_source_matches_synth(self, result, images_path):
        """A materialized images table and the inline synthesized one
        feed the same stages and give value-identical rows."""
        from tscan_ray.pipelines.flagship import flagship
        from tscan_ray.state.manifest import value_checksum

        read = flagship(None, images_path=images_path, n_entities=20,
                        num_buckets=8).to_pandas()
        assert len(read) == len(result)
        # value_checksum ignores row and column order
        assert value_checksum(read) == value_checksum(result)


# every library map stage
STAGES = ["featurize", "explode_paragraphs", "explode_sentences",
          "explode_words", "write_folia", "score_surprisal",
          "decode_validate", "resize_images", "extract_image_features",
          "broadcast_join"]


def _plan_ops(ds) -> dict:
    """Operator name -> operator class of ``ds``'s physical plan."""
    from ray.data._internal.logical.optimizers import get_execution_plan

    ops, todo = [], [get_execution_plan(ds._logical_plan).dag]
    while todo:
        ops.append(todo.pop())
        todo.extend(ops[-1].input_dependencies)
    return {op.name: type(op).__name__ for op in ops}


def _stage_dataset(stage, tmp_path):
    """The Dataset ``stage`` gives, built lazily over a one-row input."""
    from tscan_ray.ops.join import broadcast_join
    from tscan_ray.stages.decode import decode_validate
    from tscan_ray.stages.featurizer import featurize
    from tscan_ray.stages.folia_writer import write_folia
    from tscan_ray.stages.image_ops import extract_image_features, resize_images
    from tscan_ray.stages.paragraphs import explode_paragraphs
    from tscan_ray.stages.sentences import explode_sentences
    from tscan_ray.stages.words import explode_words
    from tscan_ray.text.surprisal import score_surprisal

    ds = rd.from_items([{"doc_id": 1, "text": "De kat slaapt ."}])
    return {
        "featurize": lambda: featurize(ds, "text"),
        "explode_paragraphs": lambda: explode_paragraphs(ds, "text",
                                                         ["doc_id"]),
        "explode_sentences": lambda: explode_sentences(ds, "text",
                                                       ["doc_id"]),
        "explode_words": lambda: explode_words(ds, "text", ["doc_id"]),
        "write_folia": lambda: write_folia(ds, str(tmp_path)),
        "score_surprisal": lambda: score_surprisal(ds, "text"),
        "decode_validate": lambda: decode_validate(ds),
        "resize_images": lambda: resize_images(ds, 8, 8),
        "extract_image_features": lambda: extract_image_features(ds),
        "broadcast_join": lambda: broadcast_join(
            ds, pd.DataFrame({"doc_id": [1], "x": [2]}), "doc_id"),
    }[stage]()


class TestDecodeFeaturizeTasks:
    """The flagship runs decode+featurize inside its exchange's split
    tasks, in ``featurizer_batch_size`` slices that each build a
    ``DecodeFeaturize``; every other library map stage runs as Ray Data
    map tasks."""

    def test_tasks_match_one_in_process_stage(self, images_path):
        """The task path gives the values of the stage run in this process
        over the whole table at once, also when ``featurizer_batch_size``
        cuts every images block into several slices."""
        import dataclasses

        import pyarrow.parquet as pq

        from tscan_ray.config import DEFAULT_CONFIG
        from tscan_ray.pipelines.flagship import (
            KEEP_COLS, DecodeFeaturize, add_timeline_features, flagship)
        from tscan_ray.state.manifest import value_checksum

        table = pq.read_table(images_path)
        feats = DecodeFeaturize(n_entities=20, keep_columns=KEEP_COLS)(table)
        want = add_timeline_features(
            rd.from_arrow(feats), num_buckets=8, snapshot_every=5,
            n_entities=20).to_pandas()
        sliced = dataclasses.replace(DEFAULT_CONFIG, featurizer_batch_size=16)
        files = pq.ParquetDataset(images_path).fragments
        assert min(f.metadata.num_rows for f in files) > 16
        for cfg in (DEFAULT_CONFIG, sliced):
            got = flagship(None, images_path=images_path, n_entities=20,
                           num_buckets=8, cfg=cfg).to_pandas()
            assert len(got) == len(want) == table.num_rows
            assert value_checksum(got) == value_checksum(want)

    @pytest.mark.parametrize("stage", STAGES)
    def test_featurize_plans_as_task_pool(self, stage, tmp_path):
        kinds = _plan_ops(_stage_dataset(stage, tmp_path))
        mapped = [n for n in kinds if "MapBatches(_run_stage)" in n]
        assert len(mapped) == 1, kinds
        assert kinds[mapped[0]] == "TaskPoolMapOperator"
        assert "ActorPoolMapOperator" not in kinds.values()

    def test_flagship_featurizes_in_split_tasks(self, images_path,
                                                monkeypatch, tmp_path):
        """The flagship hands ``task_exchange`` the images read with no map
        stage and decode+featurize as ``map_block``, so every images
        block gets its own split task: 8 files, 8 blocks, 8 splits."""
        import pyarrow.parquet as pq

        import tscan_ray.ops.window as window
        import tscan_ray.pipelines.flagship as fl

        table = pq.read_table(images_path)
        eight = tmp_path / "images8"
        eight.mkdir()
        step = -(-table.num_rows // 8)
        for i in range(8):
            pq.write_table(table.slice(i * step, step),
                           eight / f"part-{i}.parquet")
        out = fl.flagship(None, images_path=str(eight), n_entities=20,
                          num_buckets=8)
        assert out.count() == table.num_rows

        seen = []
        monkeypatch.setattr(window, "task_exchange",
                            lambda ds, *a, **k: seen.append((ds, k)))
        fl.flagship(None, images_path=str(eight), n_entities=20,
                    num_buckets=8)
        ds, kwargs = seen[0]
        assert ds.materialize().num_blocks() == 8
        kinds = _plan_ops(ds)
        assert not [n for n in kinds if "MapBatches(_run_stage)" in n], kinds
        assert kwargs["map_block"] is not None

    def test_zero_row_images_give_the_empty_schema(self, tmp_path):
        """A zero-row images table reads as one schema-less block, which
        the split task maps as the empty images table: the job returns
        no rows under the flagship's columns, and the sink commits
        nothing."""
        import pyarrow.parquet as pq

        from tscan_ray.config import DEFAULT_CONFIG
        from tscan_ray.pipelines.flagship import KEEP_COLS, flagship
        from tscan_ray.sources.images import IMAGE_SCHEMA
        from tscan_ray.state.manifest import resumable_write
        from tscan_ray.text.features import feature_names

        src = tmp_path / "images"
        src.mkdir()
        pq.write_table(IMAGE_SCHEMA.empty_table(), src / "part-0.parquet")
        out = flagship(None, images_path=str(src), num_buckets=8)
        assert out.count() == 0
        names = out.schema().names
        assert len(names) == len(set(names)) == 762
        assert set(KEEP_COLS + feature_names(DEFAULT_CONFIG)
                   + ["session_id", "MTLD_wrd_lag1", "ts_snap"]) <= set(names)
        summary = resumable_write(out, str(tmp_path / "out"),
                                  key="entity_id", num_buckets=8)
        assert summary.empty


class TestRunStage:
    """``stages._run_stage`` builds the flagship's stage for one batch,
    in-process here (no Ray), under the custom groups it is given."""

    @pytest.fixture(autouse=True)
    def _clean_registry(self):
        from tscan_ray.text import features as F

        yield
        F.set_custom_groups({})

    @staticmethod
    def _call(groups):
        import pyarrow as pa

        from tscan_ray.config import DEFAULT_CONFIG
        from tscan_ray.pipelines.flagship import KEEP_COLS, DecodeFeaturize
        from tscan_ray.sources.images import synth_images_batch
        from tscan_ray.stages import _run_stage

        docs = pa.table({"doc_id": [1, 2],
                         "text": ["De kat slaapt .", "de hond loopt snel ."]})
        return _run_stage(
            synth_images_batch(docs, n_entities=20), stage=DecodeFeaturize,
            kwargs={"cfg": DEFAULT_CONFIG, "n_entities": 20,
                    "keep_columns": KEEP_COLS, "custom_groups": groups})

    def test_shipped_group_emits_its_column(self):
        import pickle

        import cloudpickle

        def nwords(doc, out, cfg):
            return {"nwords_cnt": float(len(doc.words))}

        # a task unpickles fresh function objects
        shipped = pickle.loads(cloudpickle.dumps({"nwords": nwords}))
        assert shipped["nwords"] is not nwords
        out = self._call(shipped)
        # tokens, the full stop included
        assert out.column("nwords_cnt").to_pylist() == [4.0, 5.0]

    def test_group_registered_again_changes_columns(self):
        def nwords(doc, out, cfg):
            return {"nwords_cnt": float(len(doc.words))}

        def nchars(doc, out, cfg):
            return {"nchars_cnt": float(sum(len(w.word) for w in doc.words))}

        assert "nwords_cnt" in self._call({"nwords": nwords}).column_names
        # the same name registered again with other columns: the next
        # call emits the new schema, not a stale column lookup
        out = self._call({"nwords": nchars})
        assert "nwords_cnt" not in out.column_names
        assert out.column("nchars_cnt").to_pylist() == [12.0, 16.0]


class TestWindowedDiversity:
    def test_flagship_emits_windowed_ttr_mtld(self, result):
        # the north-star windowed features: trailing-caption TTR/MTLD
        assert "ttr_w5" in result.columns and "mtld_w5" in result.columns
        ok = result["ttr_w5"].dropna()
        assert ((ok > 0) & (ok <= 1.0)).all()

    def test_first_row_window_is_single_caption(self, result):
        import numpy as np

        from tscan_ray.text.kernels import ttr
        from tscan_ray.text.tokenize import is_punct, tokenize

        first = result.sort_values(["entity_id", "ts", "image_id"]).groupby(
            "entity_id").first().reset_index()
        for _, row in first.head(5).iterrows():
            toks = [t.lower() for t in tokenize(row["caption"]) if not is_punct(t)]
            expected = ttr(toks)
            if np.isnan(expected):
                assert np.isnan(row["ttr_w5"])
            else:
                assert abs(row["ttr_w5"] - expected) < 1e-12


class TestTimelineExactness:
    """The timeline kernel against a plain per-entity reference on a hot,
    gapped entity (7: a dense run, a lone row between two 3 h gaps,
    another run) plus sparse cold entities (1..5), fed in shuffled
    order."""

    WINDOW = 5

    def _fixture(self) -> pd.DataFrame:
        rng = np.random.default_rng(11)
        vocab = ["de", "kat", "hond", "loopt", "snel", "huis", "groot",
                 "boek", "stad", "werkt", "mooi", "klein"]
        minute = 60_000_000
        hot = ([minute] * 300 + [180 * minute]  # run, gap, lone row
               + [180 * minute] + [minute] * 299)  # gap, run
        # cold steps straddle the 30 min session gap (30 min is NOT a break)
        cold = [10 * minute, 30 * minute, 31 * minute, 120 * minute] * 3
        rows = []
        img = 1  # the hot entity's first rows precede its first snapshot
        for ent, steps in [(7, hot)] + [(e, cold) for e in range(1, 6)]:
            t = 0
            for i, step in enumerate(steps):
                # one tie per entity: row 2 repeats row 1's ts
                t += 0 if i == 2 else step
                rows.append({
                    "image_id": f"img_{img:07d}",
                    "entity_id": ent,
                    "ts": pd.Timestamp(2024, 1, 1).value // 1000 + t,
                    "caption": " ".join(
                        rng.choice(vocab, int(rng.integers(3, 8)))),
                    "MTLD_wrd": float(rng.integers(1, 50)),
                    "TTR_wrd": float(rng.random()),
                    "Wrd_freq_log": float(rng.random() * 5),
                    "wordCnt": int(rng.integers(3, 9)),
                })
                img += 1
        df = pd.DataFrame(rows)
        df["ts"] = pd.to_datetime(df["ts"], unit="us")
        return df

    def _reference(self, df: pd.DataFrame, snapshot_every: int,
                   gap_us: int) -> pd.DataFrame:
        from tscan_ray.pipelines.flagship import TIMELINE_FEATURES
        from tscan_ray.text.kernels import average_mtld, ttr
        from tscan_ray.text.tokenize import is_punct, tokenize

        w = self.WINDOW
        out = []
        for _, g in df.sort_values(["entity_id", "ts", "image_id"]).groupby(
                "entity_id", sort=True):
            g = g.reset_index(drop=True)
            ts_us = g["ts"].astype("datetime64[us]").astype("int64").tolist()
            toks = [[t.lower() for t in tokenize(c) if not is_punct(t)]
                    for c in g["caption"]]
            is_snap = [int(i[4:]) % snapshot_every == 0 for i in g["image_id"]]
            for c in TIMELINE_FEATURES:
                x = g[c].astype("float64").tolist()
                g[c + "_lag1"] = [np.nan] + x[:-1]
                g[c + f"_rmean{w}"] = [np.mean(x[max(0, i - w + 1):i + 1])
                                       for i in range(len(x))]
            sid, session = [], -1
            for i, t in enumerate(ts_us):
                if i == 0 or t - ts_us[i - 1] > gap_us:
                    session += 1
                sid.append(session)
            g["session_id"] = sid
            win = [sum(toks[max(0, i - w + 1):i + 1], [])
                   for i in range(len(g))]
            g[f"ttr_w{w}"] = [ttr(t) for t in win]
            g[f"mtld_w{w}"] = [average_mtld(t) for t in win]
            last = None
            snap_rows = []
            for i in range(len(g)):
                if is_snap[i]:
                    last = i
                snap_rows.append(last)
            g["ts_snap"] = [g["ts"][j] if j is not None else pd.NaT
                            for j in snap_rows]
            for c in TIMELINE_FEATURES:
                g[c + "_snap"] = [float(g[c][j]) if j is not None else np.nan
                                  for j in snap_rows]
            out.append(g)
        return pd.concat(out, ignore_index=True)

    def test_matches_per_entity_reference(self, ray_session):
        from tscan_ray.config import DEFAULT_CONFIG
        from tscan_ray.pipelines.flagship import (
            TIMELINE_FEATURES, add_timeline_features)

        df = self._fixture()
        hot = df[df["entity_id"] == 7]
        assert len(hot) == 601
        assert (hot["ts"].diff() > pd.Timedelta(hours=1)).sum() == 2
        shuffled = df.sample(frac=1.0, random_state=3).reset_index(drop=True)
        out = add_timeline_features(
            rd.from_pandas(shuffled).repartition(8), rolling_window=self.WINDOW,
            snapshot_every=5, n_entities=1, diversity_window=self.WINDOW,
            num_buckets=8).to_pandas()
        ref = self._reference(df, 5, DEFAULT_CONFIG.session_gap_us)
        assert len(out) == len(ref) == len(df)
        out = out.set_index("image_id").loc[ref["image_id"]].reset_index()

        w = self.WINDOW
        checked = [f"ttr_w{w}", f"mtld_w{w}"] + [
            c + sfx for c in TIMELINE_FEATURES
            for sfx in ("_lag1", f"_rmean{w}", "_snap")]
        for col in checked:
            np.testing.assert_allclose(
                out[col].to_numpy(dtype="float64"),
                ref[col].to_numpy(dtype="float64"),
                rtol=1e-12, atol=0, equal_nan=True, err_msg=col)
        assert out["session_id"].tolist() == ref["session_id"].tolist()
        assert ref["session_id"][ref["entity_id"] == 7].max() == 2
        pd.testing.assert_series_equal(
            pd.to_datetime(out["ts_snap"]).astype("datetime64[us]"),
            pd.to_datetime(ref["ts_snap"]).astype("datetime64[us]"))

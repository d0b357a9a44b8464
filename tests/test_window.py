"""Point-in-time window operators vs a DuckDB oracle on the events table
(mirrors the driver's correctness gate)."""

import duckdb
import numpy as np
import pandas as pd
import pytest
import ray.data as rd

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def events_ds():
    return rd.read_parquet(f"{SF_DIR}/events.parquet")


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(f"create view events as select * from '{SF_DIR}/events.parquet'")
    return c


def _sorted(df, cols):
    return df.sort_values(cols).reset_index(drop=True)


class TestLagLead:
    def test_lag_matches_sql(self, events_ds, con):
        from tscan_ray.ops.window import lag_lead

        out = lag_lead(events_ds, "user_id", "ts", ["value"], [1, -1],
                       order_col="event_id", num_buckets=4).to_pandas()
        oracle = con.execute(
            """
            select event_id,
                   lag(value)  over (partition by user_id order by ts, event_id) as value_lag1,
                   lead(value) over (partition by user_id order by ts, event_id) as value_lead1
            from events
            """
        ).df()
        m = _sorted(out[["event_id", "value_lag1", "value_lead1"]], ["event_id"])
        o = _sorted(oracle, ["event_id"])
        assert np.allclose(m["value_lag1"], o["value_lag1"], equal_nan=True)
        assert np.allclose(m["value_lead1"], o["value_lead1"], equal_nan=True)

    def test_lag_is_strictly_past(self, events_ds):
        """Zero temporal leakage: recomputing with all rows after a cutoff
        removed must not change lag features at/before the cutoff."""
        from tscan_ray.ops.window import lag_lead

        full = lag_lead(events_ds, "user_id", "ts", ["value"], [1],
                        order_col="event_id", num_buckets=4).to_pandas()
        import pyarrow as pa
        import pyarrow.compute as pc

        cutoff = pd.Timestamp("2024-01-03")
        trimmed_ds = events_ds.map_batches(
            lambda t: t.filter(pc.less_equal(t["ts"], pa.scalar(cutoff))),
            batch_format="pyarrow",
        )
        trimmed = lag_lead(trimmed_ds, "user_id", "ts", ["value"], [1],
                           order_col="event_id", num_buckets=4).to_pandas()
        f = _sorted(full[full["ts"] <= cutoff][["event_id", "value_lag1"]], ["event_id"])
        t = _sorted(trimmed[["event_id", "value_lag1"]], ["event_id"])
        assert len(f) == len(t)
        assert np.allclose(f["value_lag1"], t["value_lag1"], equal_nan=True)


class TestFill:
    def test_ffill_matches_sql(self, events_ds, con):
        from tscan_ray.ops.window import fill

        # mask: value only on purchases, ffill the rest from the past
        masked = events_ds.map_batches(
            lambda df: df.assign(
                pv=df["value"].where(df["event_type"] == "purchase")
            ),
            batch_format="pandas",
        )
        out = fill(masked, "user_id", "ts", ["pv"], method="ffill",
                   order_col="event_id", num_buckets=4).to_pandas()
        oracle = con.execute(
            """
            select event_id,
                   last_value(case when event_type = 'purchase' then value end ignore nulls)
                     over (partition by user_id order by ts, event_id
                           rows between unbounded preceding and current row) as pv_filled
            from events
            """
        ).df()
        m = _sorted(out[["event_id", "pv_filled"]], ["event_id"])
        o = _sorted(oracle, ["event_id"])
        assert np.allclose(m["pv_filled"], o["pv_filled"], equal_nan=True)


class TestSessionize:
    GAP_US = 30 * 60 * 1_000_000

    def test_sessionize_matches_sql(self, events_ds, con):
        from tscan_ray.ops.window import sessionize

        out = sessionize(events_ds, "user_id", "ts", gap_us=self.GAP_US,
                         order_col="event_id", num_buckets=4).to_pandas()
        oracle = con.execute(
            """
            with gaps as (
              select event_id, user_id, ts,
                     lag(ts) over (partition by user_id order by ts, event_id) as prev_ts
              from events
            )
            select event_id,
                   sum(case when prev_ts is null or ts - prev_ts > interval 30 minute
                            then 1 else 0 end)
                     over (partition by user_id order by ts, event_id
                           rows between unbounded preceding and current row) - 1 as session_id
            from gaps
            """
        ).df()
        m = _sorted(out[["event_id", "session_id"]], ["event_id"])
        o = _sorted(oracle, ["event_id"])
        assert (m["session_id"].to_numpy() == o["session_id"].to_numpy()).all()

    def test_session_stats(self, events_ds):
        from tscan_ray.ops.window import session_stats, sessionize

        sess = sessionize(events_ds, "user_id", "ts", gap_us=self.GAP_US,
                          order_col="event_id", num_buckets=4).to_pandas()
        stats = session_stats(events_ds, "user_id", "ts", value_col="value",
                              gap_us=self.GAP_US, order_col="event_id",
                              num_buckets=4).to_pandas()
        # session count per user must agree
        per_user = sess.groupby("user_id")["session_id"].max() + 1
        per_user2 = stats.groupby("user_id")["session_id"].nunique()
        assert per_user.sort_index().equals(per_user2.sort_index())
        assert (stats["n_events"] >= 1).all()
        assert (stats["duration_sec"] >= 0).all()


class TestTumblingWindow:
    def test_matches_sql(self, events_ds, con):
        from tscan_ray.ops.window import tumbling_window

        hour_us = 3_600_000_000
        out = tumbling_window(events_ds, "user_id", "ts", "value",
                              width_us=hour_us, num_buckets=4).to_pandas()
        oracle = con.execute(
            """
            select user_id, date_trunc('hour', ts) as w, count(*) as n, sum(value) as sum_value
            from events group by 1, 2
            """
        ).df()
        m = out.assign(w=pd.to_datetime(out["window_start"], unit="us"))
        m = _sorted(m[["user_id", "w", "n", "sum_value"]], ["user_id", "w"])
        o = _sorted(oracle, ["user_id", "w"])
        assert len(m) == len(o)
        assert (m["n"].to_numpy() == o["n"].to_numpy()).all()
        assert np.allclose(m["sum_value"], o["sum_value"])


class TestRollingMean:
    def test_rolling(self, events_ds):
        from tscan_ray.ops.window import rolling_mean

        out = rolling_mean(events_ds, "user_id", "ts", ["value"], window=3,
                           order_col="event_id", num_buckets=4).to_pandas()
        # naive pandas oracle
        pdf = pd.read_parquet(f"{SF_DIR}/events.parquet").sort_values(
            ["user_id", "ts", "event_id"]
        )
        pdf["exp"] = pdf.groupby("user_id")["value"].transform(
            lambda s: s.rolling(3, min_periods=1).mean()
        )
        m = _sorted(out[["event_id", "value_rmean3"]], ["event_id"])
        o = _sorted(pdf[["event_id", "exp"]], ["event_id"])
        assert np.allclose(m["value_rmean3"], o["exp"])


class TestTimelineRunner:
    """The one timeline runner (``ops/window.timeline``): one Arrow sort
    on (key, ts, order_col), a pandas frame of only the columns the
    operator reads, and every other column passed through in Arrow."""

    def test_lag_lead_keeps_pass_through_columns_exact(self, ray_session):
        """Shuffled rows, ts ties broken by ``order_col``, a tz-aware ts
        and an int64 column with a null and values above 2^53: every
        output block keeps that column int64 with its exact values, and
        its rows in (key, ts, order_col) order with the right lag."""
        import pyarrow as pa
        import ray

        from tscan_ray.ops.window import lag_lead

        n = 60
        i = np.random.default_rng(5).permutation(n)
        big = pa.array([None if j == 17 else (1 << 60) + j for j in i],
                       pa.int64())
        ts_type = pa.timestamp("us", tz="Europe/Amsterdam")
        table = pa.table({
            "k": i % 5,
            # rows j and j + 5 of one key share a ts: the tie goes to eid
            "ts": pa.array((i // 10) * 60_000_000, ts_type),
            "eid": i,
            "v": i * 0.5,
            "big": big,
        })
        ds = rd.from_arrow([table.slice(0, 25), table.slice(25)])
        out = lag_lead(ds, "k", "ts", ["v"], [1], order_col="eid",
                       num_buckets=4)
        blocks = [ray.get(ref) for bundle in out.iter_internal_ref_bundles()
                  for ref in bundle.block_refs]
        assert sum(b.num_rows for b in blocks) == n
        big_of = dict(zip(table["eid"].to_pylist(), big.to_pylist()))
        for b in blocks:
            assert b.schema.field("big").type == pa.int64()
            assert b.schema.field("ts").type == ts_type
            eids = b.column("eid").to_pylist()
            assert b.column("big").to_pylist() == [big_of[e] for e in eids]
            rows = list(zip(b.column("k").to_pylist(), b.column("ts").to_pylist(),
                            eids))
            assert rows == sorted(rows)
            # ts ticks by one minute every 10 input rows, eid by 5 within a
            # key: the previous row of eid e is e - 5
            want = [None if e < 5 else (e - 5) * 0.5 for e in eids]
            assert b.column("v_lag1").to_pylist() == want

    def test_flagship_kernel_reads_only_its_columns(self, monkeypatch):
        """The flagship's bucket kernel, run in this process on a
        746-column bucket, builds its pandas frame from the key, ts,
        order column, caption and ``TIMELINE_FEATURES`` only, keeps every
        input column in Arrow with its type, and appends its columns in
        the flagship's order."""
        import pyarrow as pa

        import tscan_ray.ops.window as window
        from tscan_ray.pipelines.flagship import (
            KEEP_COLS, TIMELINE_FEATURES, DecodeFeaturize,
            add_timeline_features)
        from tscan_ray.sources.images import synth_images_batch

        docs = pa.Table.from_pandas(
            pd.read_parquet(f"{SF_DIR}/documents.parquet",
                            columns=["doc_id", "text"]).head(40),
            preserve_index=False)
        bucket = DecodeFeaturize(n_entities=4, keep_columns=KEEP_COLS)(
            synth_images_batch(docs, n_entities=4))
        assert bucket.num_columns == 746

        kernels, frames = [], []
        monkeypatch.setattr(window, "task_exchange",
                            lambda ds, key, fn, *a, **k: kernels.append(fn))
        real = window.timeline_frame

        def spy(*args):
            tbl, df = real(*args)
            frames.append(list(df.columns))
            return tbl, df

        monkeypatch.setattr(window, "timeline_frame", spy)
        add_timeline_features(None, snapshot_every=5, n_entities=4)
        shuffled = bucket.take(pa.array(
            np.random.default_rng(3).permutation(bucket.num_rows)))
        out = kernels[0](shuffled)

        assert sorted(frames[0]) == sorted(
            ["entity_id", "ts", "image_id", "caption"] + TIMELINE_FEATURES)
        assert out.column_names == bucket.column_names + [
            c + sfx for c in TIMELINE_FEATURES for sfx in ("_lag1", "_rmean5")
        ] + ["session_id", "ttr_w5", "mtld_w5", "ts_snap"] + [
            c + "_snap" for c in TIMELINE_FEATURES]
        for name in bucket.column_names:
            assert out.schema.field(name).type == bucket.schema.field(name).type
        assert out.num_rows == bucket.num_rows


class TestTopnPerKey:
    def test_preprune_correct_across_batches(self):
        """The batch-local pre-prune must not lose any global top-n row
        even when one key's rows are spread over many input blocks."""
        import ray.data as rd

        from tscan_ray.ops.window import topn_per_key

        rng = np.random.default_rng(7)
        df = pd.DataFrame({
            "k": rng.integers(0, 5, 200),
            "v": rng.random(200),
            "i": np.arange(200),
        })
        ds = rd.from_pandas(df).repartition(16)
        out = topn_per_key(ds, "k", 3, by=["v", "i"],
                           ascending=[False, True], num_buckets=4).to_pandas()
        expect = (df.sort_values(["k", "v", "i"], ascending=[True, False, True])
                  .groupby("k").head(3))
        assert len(out) == len(expect)
        assert set(out["i"]) == set(expect["i"])
        assert out["rn"].max() == 3


class TestSlidingWindow:
    def test_each_row_in_k_windows(self):
        import ray.data as rd

        from tscan_ray.ops.window import sliding_window

        df = pd.DataFrame({"k": [1] * 4, "ts": [0, 50, 150, 250],
                           "v": [1.0, 2.0, 4.0, 8.0]})
        out = sliding_window(rd.from_pandas(df), "k", "ts", "v",
                             width_us=200, hop_us=100,
                             num_buckets=2).to_pandas()
        # window [0,200) holds ts 0,50,150 ; [-100,100) holds 0,50 ; etc.
        assert out["n"].sum() == 4 * 2  # every row lands in exactly k=2 windows
        w0 = out[(out["window_start"] == 0)]
        assert w0["sum_value"].iloc[0] == 7.0 and w0["n"].iloc[0] == 3


class TestRollingTimeAgg:
    def _skewed(self):
        """One hot key holds ~90% of rows — the case the sliced plan exists for."""
        rng = np.random.default_rng(11)
        n_hot, n_cold = 900, 100
        ts = np.concatenate([
            np.sort(rng.integers(0, 50_000_000, n_hot)),       # hot key 7
            np.sort(rng.integers(0, 50_000_000, n_cold)),      # cold keys
        ])
        k = np.concatenate([np.full(n_hot, 7), rng.integers(100, 110, n_cold)])
        return pd.DataFrame({"k": k, "ts": ts, "v": rng.random(len(k)),
                             "i": np.arange(len(k))})

    def test_sliced_equals_unsliced(self):
        import ray.data as rd

        from tscan_ray.ops.window import rolling_time_agg

        df = self._skewed()
        win, slc = 2_000_000, 5_000_000
        plain = rolling_time_agg(rd.from_pandas(df).repartition(8), "k", "ts",
                                 "v", window_us=win,
                                 num_buckets=4).to_pandas()
        sliced = rolling_time_agg(rd.from_pandas(df).repartition(8), "k", "ts",
                                  "v", window_us=win, slice_us=slc,
                                  num_buckets=16).to_pandas()
        p = plain.sort_values("i").reset_index(drop=True)
        s = sliced.sort_values("i").reset_index(drop=True)
        assert len(s) == len(df)
        assert (p["rt_n"].to_numpy() == s["rt_n"].to_numpy()).all()
        assert np.allclose(p["rt_sum"], s["rt_sum"])
        assert np.allclose(p["rt_mean"], s["rt_mean"])

    def test_peer_inclusive_semantics(self):
        """Equal timestamps are frame peers: result independent of
        intra-ts order (SQL RANGE frame semantics)."""
        import ray.data as rd

        from tscan_ray.ops.window import rolling_time_agg

        df = pd.DataFrame({"k": [1, 1, 1], "ts": [100, 100, 100],
                           "v": [1.0, 2.0, 4.0]})
        out = rolling_time_agg(rd.from_pandas(df), "k", "ts", "v",
                               window_us=10, num_buckets=2).to_pandas()
        assert (out["rt_n"] == 3).all()
        assert np.allclose(out["rt_sum"], 7.0)

    def test_slice_too_small_raises(self):
        import ray.data as rd

        from tscan_ray.ops.window import rolling_time_agg

        with np.testing.assert_raises(ValueError):
            rolling_time_agg(rd.range(1), "id", "id", "id",
                             window_us=10, slice_us=5)


class TestNullAndTzSemantics:
    def test_rolling_time_agg_null_does_not_poison(self):
        """A null value must not NaN-poison later windows of the entity
        (SQL rules: nulls count in rt_n but not rt_sum/rt_mean)."""
        import ray.data as rd

        from tscan_ray.ops.window import rolling_time_agg

        df = pd.DataFrame({"k": [1] * 4, "ts": [0, 10, 100, 110],
                           "v": [1.0, np.nan, 2.0, 3.0]})
        out = rolling_time_agg(rd.from_pandas(df), "k", "ts", "v",
                               window_us=20, num_buckets=2).to_pandas()
        out = out.sort_values("ts").reset_index(drop=True)
        # window at ts=110 covers [90,110] -> rows 2.0 and 3.0 only
        assert out.loc[3, "rt_sum"] == 5.0
        assert out.loc[3, "rt_mean"] == 2.5
        # window at ts=10 covers rows [1.0, NaN]: sum skips the null
        assert out.loc[1, "rt_sum"] == 1.0
        assert out.loc[1, "rt_n"] == 2

    def test_expanding_agg_null_count_semantics(self):
        """Running mean divides by the NON-null count (SQL avg)."""
        import ray.data as rd

        from tscan_ray.ops.window import expanding_agg

        df = pd.DataFrame({"k": [1] * 3, "ts": [0, 1, 2],
                           "v": [1.0, np.nan, 2.0]})
        out = expanding_agg(rd.from_pandas(df), "k", "ts", "v").to_pandas()
        out = out.sort_values("ts").reset_index(drop=True)
        assert out["v_cnt"].tolist() == [1, 1, 2]
        assert out.loc[2, "v_cmean"] == 1.5  # mean(1, 2), not 3/3

    def test_sessionize_tz_aware_timestamps(self):
        """tz-aware timestamp columns must not crash _ts_us."""
        import ray.data as rd

        from tscan_ray.ops.window import sessionize

        ts = pd.to_datetime(["2024-01-01 00:00", "2024-01-01 00:10",
                             "2024-01-01 09:00"], utc=True)
        df = pd.DataFrame({"k": [1, 1, 1], "ts": ts, "i": [0, 1, 2]})
        out = sessionize(rd.from_pandas(df), "k", "ts",
                         gap_us=30 * 60 * 1_000_000, order_col="i",
                         num_buckets=2).to_pandas()
        out = out.sort_values("i")
        assert out["session_id"].tolist() == [0, 0, 1]


class TestTwoLevelExchange:
    """The exchange's two levels: one split task per input block, then
    B reduces that each fan in over every split."""

    @staticmethod
    def _kernel():
        # a local function: Ray workers pickle it by value (this test
        # module is not importable on the workers)
        def kernel(b):
            return (b.groupby("k", sort=False)["v"].sum().reset_index()
                    .rename(columns={"v": "s"}))

        return kernel

    def test_block_count_does_not_change_results(self, ray_session):
        """The same frame exchanged as one block (one split) and as 40
        blocks (40 splits, each reduce fanning in over all 40) gives the
        same rows."""
        import pandas as pd
        import ray.data as rd

        from tscan_ray.ops.keyed import task_exchange

        df = pd.DataFrame({"k": [i % 7 for i in range(500)],
                           "v": range(500)})
        one = rd.from_pandas(df)
        assert one.num_blocks() == 1
        forty = one.repartition(40)
        outs = [task_exchange(ds, "k", self._kernel(), num_buckets=8)
                .to_pandas().sort_values("k").reset_index(drop=True)
                for ds in (one, forty)]
        pd.testing.assert_frame_equal(*outs)

    def test_default_bucket_count_is_one_per_cpu(self, ray_session):
        """With no count, the exchange makes ``cluster_cpus()`` buckets
        (4 in this session), and block K holds only bucket K's rows; an
        explicit count still wins."""
        import ray

        from tscan_ray.ops.keyed import bucket_of, cluster_cpus, task_exchange

        assert cluster_cpus() == 4
        ds = rd.from_pandas(pd.DataFrame({"k": np.arange(300) % 23,
                                          "v": np.arange(300)}))
        out = task_exchange(ds, "k", lambda df: df)
        blocks = [ray.get(ref) for bundle in out.iter_internal_ref_bundles()
                  for ref in bundle.block_refs]
        assert len(blocks) == 4
        for b, block in enumerate(blocks):
            keys = block.column("k").to_numpy()
            assert len(keys) and (bucket_of(keys, 4) == b).all()
        assert sum(block.num_rows for block in blocks) == 300
        assert task_exchange(ds, "k", lambda df: df, 7).num_blocks() == 7

    def test_cluster_cpus_is_at_least_one(self, ray_session, monkeypatch):
        import ray

        from tscan_ray.ops.keyed import cluster_cpus

        assert cluster_cpus() >= 1
        monkeypatch.setattr(ray, "cluster_resources", lambda: {"CPU": 0.0})
        assert cluster_cpus() == 1

    def test_split_offsets_slice_out_each_bucket(self, ray_session):
        """A split returns ONE object: its rows sorted by bucket, as an
        Arrow IPC buffer, and the B+1 offsets; rows offsets[b]:offsets[b+1]
        are exactly the rows ``bucket_of`` assigns to b, in input order."""
        import numpy as np
        import pyarrow as pa
        import ray

        from tscan_ray.ops.keyed import _from_ipc, _split_task, bucket_of

        keys = [(i * 37) % 101 for i in range(300)]
        t = pa.table({"k": keys, "v": list(range(300))})
        buf, offsets = ray.get(_split_task.remote("k", 8, None, t))
        tbl = _from_ipc(buf)
        assert len(offsets) == 9 and offsets[0] == 0 and offsets[-1] == 300
        want = bucket_of(np.array(keys), 8)
        for b in range(8):
            got = tbl.slice(offsets[b], offsets[b + 1] - offsets[b])
            assert got.column("v").to_pylist() == np.flatnonzero(
                want == b).tolist()
        for empty in (t.slice(0, 0), pa.table({})):
            buf, offsets = ray.get(_split_task.remote("k", 8, None, empty))
            assert _from_ipc(buf).num_rows == 0
            assert offsets.tolist() == [0] * 9

    def test_arrow_types_cross_the_exchange(self, ray_session):
        """Split objects are Arrow IPC buffers: a Ray tensor
        column, a nullable Int64 column with b'pandas' schema metadata, a
        dictionary column, a tz-aware timestamp column and a multi-chunk
        column come out of the exchange with the types and values of the
        same kernel applied in this process."""
        import pyarrow as pa
        import ray
        from ray.data.extensions import (
            ArrowTensorArray, get_arrow_extension_tensor_types)

        from tscan_ray.ops.keyed import task_exchange

        n = 240
        table = pa.Table.from_pandas(pd.DataFrame({
            "row": np.arange(n),
            "k": np.arange(n) % 13,
            "nullable": pd.array([None if i % 7 == 0 else i * 1_000_003
                                  for i in range(n)], dtype="Int64"),
        }), preserve_index=False)
        assert b"pandas" in table.schema.metadata
        cols = {
            "tensor": ArrowTensorArray.from_numpy(
                np.arange(n * 6, dtype=np.float32).reshape(n, 2, 3)),
            # two chunks with different dictionaries
            "dict": pa.chunked_array([
                pa.array([f"w{i % 5}" for i in range(n // 2)])
                .dictionary_encode(),
                pa.array([f"v{i % 3}" for i in range(n // 2)])
                .dictionary_encode()]),
            "ts": pa.array(np.arange(n) * 3_600_000_000,
                           pa.timestamp("us", tz="Europe/Amsterdam")),
            "chunks": pa.chunked_array([pa.array(np.arange(n // 2) * 0.5),
                                        pa.array(np.arange(n // 2) * -0.5)]),
        }
        for name, col in cols.items():
            table = table.append_column(name, col)
        assert isinstance(table.schema.field("tensor").type,
                          get_arrow_extension_tensor_types())
        assert table.column("chunks").num_chunks == 2

        def kernel(t):
            return t.append_column("row2", pa.compute.multiply(t["row"], 2))

        blocks = [table.slice(i, 40) for i in range(0, n, 40)]
        out = task_exchange(rd.from_arrow(blocks), "k", kernel,
                            num_buckets=4, batch_format="pyarrow")
        got = pa.concat_tables(ray.get(out.to_arrow_refs()))
        want = kernel(table)
        assert got.schema.metadata == want.schema.metadata
        order = np.argsort(got.column("row").to_numpy())
        got = got.take(pa.array(order))
        for name in want.column_names:
            assert got.schema.field(name).type == want.schema.field(name).type
            assert got.column(name).combine_chunks().equals(
                want.column(name).combine_chunks()), name

    def test_empty_input_is_mapped(self, ray_session):
        """With no input block, the kernel still gets the mapped schema."""
        import pyarrow as pa
        import pyarrow.compute as pc

        from tscan_ray.ops.keyed import task_exchange

        def double(t):
            return t.append_column("w", pc.multiply(t["v"], 2))

        ds = rd.from_arrow(pa.table({"k": [1], "v": [2]})).limit(0)
        out = task_exchange(ds, "k", lambda t: t, num_buckets=4,
                            batch_format="pyarrow", map_block=double)
        assert out.schema().names == ["k", "v", "w"]
        assert out.count() == 0

    def test_two_inputs_reach_the_kernel_in_their_own_schemas(
            self, ray_session):
        """A tuple of inputs gives the kernel one table per input: only
        that input's columns, in its own types (a same-named column may
        differ), and only bucket K's rows; int64 values above 2^53 come
        through exactly.  An input with no rows arrives as a zero-row
        table: with its schema when its blocks have one, with no columns
        when it has no block at all."""
        import pyarrow as pa
        import ray

        from tscan_ray.ops.keyed import bucket_of, task_exchange

        big = 1 << 60
        a = pa.table({"k": pa.array(np.arange(60) % 17, pa.int64()),
                      "tag": pa.array([f"t{i}" for i in range(60)]),
                      "pay": pa.array(big + np.arange(60) * 2 + 1, pa.int64()),
                      "only_a": pa.array(np.arange(60) * 0.5)})
        b = pa.table({"k": pa.array(np.arange(25) % 11, pa.int64()),
                      "tag": pa.array(np.arange(25), pa.int32()),
                      "pay": pa.array(-big - np.arange(25) * 3, pa.int64()),
                      "only_b": pa.array([f"b{i}" for i in range(25)])})
        left = rd.from_arrow([a.slice(0, 20), a.slice(20, 20), a.slice(40)])
        right = rd.from_arrow([b.slice(0, 10), b.slice(10)])

        def kernel(*tables):
            # one row per call: each input's fields, keys and payloads
            row = {"n_inputs": [len(tables)]}
            for i, t in enumerate(tables):
                row[f"fields{i}"] = [[f"{f.name}:{f.type}" for f in t.schema]]
                row[f"rows{i}"] = [t.num_rows]
                if t.num_rows:
                    row[f"keys{i}"] = [t.column("k").to_pylist()]
                    row[f"pay{i}"] = [t.column("pay").to_pylist()]
                else:
                    row[f"keys{i}"] = pa.array([[]], pa.list_(pa.int64()))
                    row[f"pay{i}"] = pa.array([[]], pa.list_(pa.int64()))
            return pa.table(row)

        def calls(ds):
            out = task_exchange(ds, "k", kernel, num_buckets=4,
                                batch_format="pyarrow")
            refs = [ref for bundle in out.iter_internal_ref_bundles()
                    for ref in bundle.block_refs]
            return [ray.get(ref).to_pylist()[0] for ref in refs]

        def fields(t):
            return [f"{f.name}:{f.type}" for f in t.schema]

        got = calls((left, right))
        assert len(got) == 4
        for i, t in enumerate((a, b)):
            pay_of = dict(zip(t.column("pay").to_pylist(),
                              t.column("k").to_pylist()))
            seen = []
            for bucket, call in enumerate(got):
                assert call["n_inputs"] == 2
                assert call[f"fields{i}"] == fields(t)
                keys = np.array(call[f"keys{i}"], dtype=np.int64)
                assert (bucket_of(keys, 4) == bucket).all()
                assert [pay_of[p] for p in call[f"pay{i}"]] == \
                    call[f"keys{i}"]
                seen += call[f"pay{i}"]
            assert sorted(seen) == sorted(t.column("pay").to_pylist())

        filtered = right.filter(expr="k < 0")  # empty blocks, with schema
        for call in calls((left, filtered)):
            assert call["fields1"] == fields(b) and call["rows1"] == 0
        for call in calls((left, right.limit(0))):  # no block at all
            assert call["fields1"] == [] and call["rows1"] == 0
        assert sum(call["rows0"] for call in calls((left, filtered))) == 60

    def test_fresh_process_decodes_the_tensor_type(self, tmp_path):
        """A worker that has imported nothing of Ray Data still decodes a
        split's tensor column as Ray's tensor type, not as its storage
        type: importing the exchange module registers the extension."""
        import os
        import subprocess
        import sys

        import pyarrow as pa
        from ray.data.extensions import ArrowTensorArray

        from tscan_ray.ops.keyed import _to_ipc

        col = ArrowTensorArray.from_numpy(np.zeros((3, 2), dtype=np.float32))
        path = tmp_path / "split.arrow"
        path.write_bytes(_to_ipc(pa.table({"t": col})).to_pybytes())
        code = ("import sys, pyarrow as pa\n"
                "from tscan_ray.ops.keyed import _from_ipc\n"
                "buf = pa.py_buffer(open(sys.argv[1], 'rb').read())\n"
                "print(repr(_from_ipc(buf).schema.field('t').type))\n")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out = subprocess.run(
            [sys.executable, "-c", code, str(path)], capture_output=True,
            text=True, timeout=120, check=True,
            env={**os.environ, "PYTHONPATH": root}).stdout.strip()
        assert out == repr(col.type)

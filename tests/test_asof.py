"""As-of join vs DuckDB ASOF JOIN oracle + leakage property test."""

import duckdb
import numpy as np
import pandas as pd
import pytest
import ray.data as rd

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    c.execute(f"create view events as select * from '{SF_DIR}/events.parquet'")
    return c


def _sides():
    ev = rd.read_parquet(f"{SF_DIR}/events.parquet")
    left = ev.filter(expr="event_type == 'view'")
    right = ev.filter(expr="event_type == 'purchase'")
    return left, right


ORACLE_SQL = """
with l as (select * from events where event_type = 'view'),
     rdedup as (
       select user_id, ts, value,
              row_number() over (partition by user_id, ts order by event_id desc) as rn
       from events where event_type = 'purchase')
, r as (select user_id, ts, value from rdedup where rn = 1)
select l.event_id, l.user_id, l.ts, r.ts as ts_r, r.value as value_r
from l asof join r on l.user_id = r.user_id and l.ts >= r.ts
"""


class TestAsofJoin:
    def test_matches_duckdb_asof(self, con):
        from tscan_ray.ops.asof import asof_join

        left, right = _sides()
        out = asof_join(left, right, key="user_id", ts="ts",
                        right_value_cols=["value"], order_col="event_id",
                        how="inner", num_buckets=4).to_pandas()
        oracle = con.execute(ORACLE_SQL).df()
        m = out[["event_id", "ts_r", "value_r"]].sort_values("event_id").reset_index(drop=True)
        o = oracle[["event_id", "ts_r", "value_r"]].sort_values("event_id").reset_index(drop=True)
        assert len(m) == len(o)
        assert (m["ts_r"].to_numpy() == o["ts_r"].to_numpy()).all()
        assert np.allclose(m["value_r"], o["value_r"])

    def test_left_join_keeps_unmatched(self):
        from tscan_ray.ops.asof import asof_join

        left, right = _sides()
        out = asof_join(left, right, key="user_id", ts="ts",
                        right_value_cols=["value"], order_col="event_id",
                        how="left", num_buckets=4).to_pandas()
        assert len(out) == left.count()

    def test_tolerance(self):
        from tscan_ray.ops.asof import asof_join

        left, right = _sides()
        hour_us = 3_600_000_000
        out = asof_join(left, right, key="user_id", ts="ts",
                        right_value_cols=["value"], order_col="event_id",
                        how="inner", tolerance_us=hour_us, num_buckets=4).to_pandas()
        gap = (out["ts"] - out["ts_r"]).dt.total_seconds()
        assert (gap <= 3600).all()
        assert (gap >= 0).all()

    def test_zero_leakage(self):
        """Matched right ts never exceeds left ts; and removing future rows
        does not change past matches."""
        from tscan_ray.ops.asof import asof_join

        left, right = _sides()
        full = asof_join(left, right, key="user_id", ts="ts",
                         right_value_cols=["value"], order_col="event_id",
                         how="left", num_buckets=4).to_pandas()
        assert (full["ts_r"].dropna() <= full.loc[full["ts_r"].notna(), "ts"]).all()

        import pyarrow as pa
        import pyarrow.compute as pc

        cutoff = pd.Timestamp("2024-01-03")

        def cut(ds):
            return ds.map_batches(
                lambda t: t.filter(pc.less_equal(t["ts"], pa.scalar(cutoff))),
                batch_format="pyarrow",
            )

        lcut, rcut = cut(left), cut(right)
        trimmed = asof_join(lcut, rcut, key="user_id", ts="ts",
                            right_value_cols=["value"], order_col="event_id",
                            how="left", num_buckets=4).to_pandas()
        f = full[full["ts"] <= cutoff].sort_values("event_id").reset_index(drop=True)
        t = trimmed.sort_values("event_id").reset_index(drop=True)
        assert len(f) == len(t)
        assert np.allclose(f["value_r"], t["value_r"], equal_nan=True)

    def test_bucket_count_invariance(self):
        """Results must not depend on the shuffle partitioning."""
        from tscan_ray.ops.asof import asof_join

        left, right = _sides()
        a = asof_join(left, right, key="user_id", ts="ts",
                      right_value_cols=["value"], order_col="event_id",
                      how="inner", num_buckets=2).to_pandas()
        b = asof_join(left, right, key="user_id", ts="ts",
                      right_value_cols=["value"], order_col="event_id",
                      how="inner", num_buckets=16).to_pandas()
        a = a.sort_values("event_id").reset_index(drop=True)
        b = b.sort_values("event_id").reset_index(drop=True)
        assert len(a) == len(b)
        assert np.allclose(a["value_r"], b["value_r"])


class TestAsofDirections:
    def test_forward_is_next_at_or_after(self):
        from tscan_ray.ops.asof import asof_join

        left, right = _sides()
        out = asof_join(left, right, key="user_id", ts="ts",
                        right_value_cols=["value"], order_col="event_id",
                        how="inner", direction="forward",
                        num_buckets=4).to_pandas()
        assert len(out) > 0
        assert (out["ts_r"] >= out["ts"]).all()

    def test_nearest_tie_prefers_backward(self):
        import ray.data as rd

        from tscan_ray.ops.asof import asof_join

        l = rd.from_pandas(pd.DataFrame({"k": [1], "ts": [10], "eid": [0]}))
        r = rd.from_pandas(pd.DataFrame(
            {"k": [1, 1], "ts": [5, 15], "eid": [1, 2], "v": [1.0, 2.0]}))
        out = asof_join(l, r, key="k", ts="ts", right_value_cols=["v"],
                        order_col="eid", direction="nearest",
                        num_buckets=2).to_pandas()
        assert out["ts_r"].tolist() == [5]

    def test_nearest_picks_min_abs_distance(self):
        from tscan_ray.ops.asof import asof_join

        left, right = _sides()
        near = asof_join(left, right, key="user_id", ts="ts",
                         right_value_cols=["value"], order_col="event_id",
                         how="inner", direction="nearest",
                         num_buckets=4).to_pandas()
        back = asof_join(left, right, key="user_id", ts="ts",
                         right_value_cols=["value"], order_col="event_id",
                         how="inner", direction="backward",
                         num_buckets=4).to_pandas()
        # nearest match is at most as far as the backward match
        m = near.merge(back, on="event_id", suffixes=("_n", "_b"))
        dn = (m["ts_n"] - m["ts_r_n"]).abs()
        db = (m["ts_b"] - m["ts_r_b"]).abs()
        assert (dn <= db).all()


class TestIntervalJoin:
    def test_containment_and_dtypes(self):
        import ray.data as rd

        from tscan_ray.ops.asof import interval_join

        pts = rd.from_pandas(pd.DataFrame(
            {"k": [1, 1, 1, 2], "ts": [5, 15, 40, 10], "pid": [0, 1, 2, 3]}))
        iv = rd.from_pandas(pd.DataFrame(
            {"k": [1, 1, 2], "lo": [0, 20, 8], "hi": [10, 30, 12],
             "ivid": [100, 101, 102]}))
        out = interval_join(pts, iv, key="k", ts="ts", start_col="lo",
                            end_col="hi", right_value_cols=["ivid"],
                            num_buckets=2).to_pandas()
        got = dict(zip(out["pid"], out["ivid"]))
        assert got == {0: 100, 3: 102}  # ts=15 between intervals; ts=40 after
        assert out["ivid"].dtype == np.int64  # dtype restored post-union


class TestReviewRegressions:
    def test_dedup_uses_right_order_col_despite_collision(self):
        """When order_col exists on BOTH sides, latest-writer-wins must
        consult the RIGHT side's values, not the left side's column of
        the same name — and the result must not depend on input row
        order."""
        import ray.data as rd

        from tscan_ray.ops.asof import asof_join

        l = pd.DataFrame({"k": [1], "ts": [100], "seq": [0]})
        # two right rows at the same (k, ts): seq=2 must win
        r_fwd = pd.DataFrame({"k": [1, 1], "ts": [50, 50],
                              "seq": [1, 2], "v": [10.0, 20.0]})
        r_rev = r_fwd.iloc[::-1].reset_index(drop=True)
        for rdf in (r_fwd, r_rev):
            out = asof_join(rd.from_pandas(l), rd.from_pandas(rdf),
                            key="k", ts="ts", right_value_cols=["v"],
                            order_col="seq", num_buckets=2).to_pandas()
            assert out["v_r"].tolist() == [20.0], rdf

    def test_large_int64_payload_survives_exactly(self):
        """int64 values above 2^53 (e.g. phash ids) must survive the
        exchange without a float64 round trip."""
        import ray.data as rd

        from tscan_ray.ops.asof import asof_join

        big = (1 << 60) + 12345
        big2 = (1 << 61) + 977
        l = pd.DataFrame({"k": [1, 1], "ts": [10, 20],
                          "rid": [big, big + 1]})
        r = pd.DataFrame({"k": [1], "ts": [5], "pay": [big2]})
        out = asof_join(rd.from_pandas(l), rd.from_pandas(r), key="k",
                        ts="ts", right_value_cols=["pay"], how="inner",
                        num_buckets=2).to_pandas()
        assert sorted(out["rid"]) == [big, big + 1]
        assert (out["pay_r"] == big2).all()

    def test_order_col_in_right_value_cols_is_kept(self):
        """order_col listed in right_value_cols must appear in the output
        as {col}_r, not be silently dropped."""
        import ray.data as rd

        from tscan_ray.ops.asof import asof_join

        l = pd.DataFrame({"k": [1], "ts": [100]})
        r = pd.DataFrame({"k": [1], "ts": [50], "seq": [7], "v": [1.0]})
        out = asof_join(rd.from_pandas(l), rd.from_pandas(r), key="k",
                        ts="ts", right_value_cols=["v", "seq"],
                        order_col="seq", how="inner",
                        num_buckets=2).to_pandas()
        assert "seq_r" in out.columns and out["seq_r"].tolist() == [7]

    def test_empty_input_returns_kernel_schema(self):
        """Two empty sides give the kernel's output columns: the left
        side's own plus the matched right ts and values, nothing else."""
        import ray.data as rd

        from tscan_ray.ops.asof import asof_join

        empty = pd.DataFrame({"k": pd.Series([], dtype="int64"),
                              "ts": pd.Series([], dtype="int64"),
                              "v": pd.Series([], dtype="float64")})
        out = asof_join(rd.from_pandas(empty), rd.from_pandas(empty),
                        key="k", ts="ts", right_value_cols=["v"],
                        num_buckets=2)
        # assert on the block schema (Dataset.to_pandas() on a 0-row
        # dataset drops columns — a Ray quirk independent of the join)
        cols = set(out.schema().names)
        assert out.count() == 0
        assert "__side__" not in cols
        assert {"k", "ts", "v", "ts_r", "v_r"} <= cols

    def test_exchange_join_left_large_ints(self):
        """exchange_join how='left': unmatched rows must not degrade the
        int payload column's matched values (>2^53-safe via Int64)."""
        import ray.data as rd

        from tscan_ray.ops.join import exchange_join

        big = (1 << 59) + 7
        l = pd.DataFrame({"k": [1, 2], "x": [10, 20]})
        r = pd.DataFrame({"k": [1], "pay": [big]})
        out = exchange_join(rd.from_pandas(l), rd.from_pandas(r), on="k",
                            right_cols=["pay"], how="left",
                            num_buckets=2).to_pandas()
        got = dict(zip(out["k"], out["pay"]))
        assert got[1] == big
        assert pd.isna(got[2])


class TestEmptySide:
    """A join side whose row filter matches nothing has no schema at all
    (Ray's ``schema()`` is None when every block is empty): it reaches
    the kernel as a zero-column table, and the join still answers."""

    @staticmethod
    def _sides():
        l = rd.from_pandas(pd.DataFrame({"k": [1, 2, 3], "ts": [10, 20, 30],
                                         "x": ["a", "b", "c"]}))
        r = rd.from_pandas(pd.DataFrame({"k": [1, 2], "ts": [5, 25],
                                         "v": [1.5, 2.5]}))
        return l, r

    @staticmethod
    def _nothing(ds):
        return ds.filter(fn=lambda row: row["k"] > 99)

    def test_asof_left_keeps_every_left_row(self):
        from tscan_ray.ops.asof import asof_join

        l, r = self._sides()
        out = asof_join(l, self._nothing(r), key="k", ts="ts",
                        right_value_cols=["v"], how="left",
                        num_buckets=4).to_pandas().sort_values("k")
        assert out["k"].tolist() == [1, 2, 3]
        assert out["x"].tolist() == ["a", "b", "c"]
        assert out["ts_r"].isna().all() and out["v_r"].isna().all()

    def test_asof_inner_gives_no_rows(self):
        from tscan_ray.ops.asof import asof_join

        l, r = self._sides()
        out = asof_join(l, self._nothing(r), key="k", ts="ts",
                        right_value_cols=["v"], how="inner", num_buckets=4)
        assert out.count() == 0

    def test_exchange_join_left_keeps_every_left_row(self):
        from tscan_ray.ops.join import exchange_join

        l, r = self._sides()
        out = exchange_join(l, self._nothing(r), on="k", right_cols=["v"],
                            how="left", num_buckets=4).to_pandas()
        assert sorted(out["k"]) == [1, 2, 3]
        assert out["v"].isna().all()

    def test_partly_empty_join_blocks_share_one_schema(self):
        """String columns of both sides keep their type in every output
        block: in buckets with no output rows, and in left-join buckets
        where no row matched."""
        import pyarrow as pa
        import ray

        from tscan_ray.ops.asof import asof_join

        l = rd.from_arrow(pa.table({"k": [1, 2, 3, 4, 5, 6],
                                    "ts": [10, 20, 30, 40, 50, 60],
                                    "x": ["a", "b", "c", "d", "e", "f"]}))
        r = rd.from_arrow(pa.table({"k": [1], "ts": [5], "y": ["m"]}))

        def blocks(how):
            out = asof_join(l, r, key="k", ts="ts", right_value_cols=["y"],
                            how=how, num_buckets=4)
            return [ray.get(ref) for bundle in out.iter_internal_ref_bundles()
                    for ref in bundle.block_refs]

        inner, left = blocks("inner"), blocks("left")
        assert sum(b.num_rows for b in inner) == 1
        assert any(b.num_rows == 0 for b in inner)
        assert any(b.num_rows and b.column("y_r").null_count == b.num_rows
                   for b in left)
        for b in inner + left:
            assert b.schema.field("x").type == pa.string()
            assert b.schema.field("y_r").type == pa.string()
            assert b.schema.equals(inner[0].schema)

    def test_empty_left_gives_no_rows(self):
        from tscan_ray.ops.asof import asof_join

        l, r = self._sides()
        out = asof_join(self._nothing(l), r, key="k", ts="ts",
                        right_value_cols=["v"], how="left", num_buckets=4)
        assert out.count() == 0

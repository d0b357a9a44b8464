"""Checkpoint-resumable partitioned output (state/manifest.py)."""

import os

import pandas as pd
import pyarrow.parquet as pq
import pytest

from tscan_ray.state.manifest import (
    completed_partitions,
    read_manifests,
    resumable_write,
    value_checksum,
)


def _exchanged(df, nb=8):
    """``df`` through an identity ``task_exchange``: one block per bucket,
    the input ``resumable_write`` takes."""
    import ray.data as rd

    from tscan_ray.ops.keyed import task_exchange

    def identity(t):
        return t

    return task_exchange(rd.from_pandas(df), "entity_id", identity, nb,
                         batch_format="pyarrow")


def _input_ds(n=200):
    return _exchanged(pd.DataFrame({
        "entity_id": [i % 17 for i in range(n)],
        "v": [float(i) for i in range(n)],
    }))


def _read_all(out_dir):
    parts = [f for f in os.listdir(out_dir) if f.endswith(".parquet")]
    return pd.concat(
        [pq.read_table(os.path.join(out_dir, f)).to_pandas() for f in parts],
        ignore_index=True,
    )


class TestResumableWrite:
    def test_full_write_and_manifests(self, ray_session, tmp_path):
        out = str(tmp_path / "out")
        summary = resumable_write(_input_ds(), out, key="entity_id", num_buckets=8)
        assert summary["rows"].sum() == 200
        manifests = read_manifests(out)
        assert len(manifests) == len(summary)
        assert sum(m["rows"] for m in manifests) == 200
        for m in manifests:
            assert m["lineage"]["key"] == "entity_id"
            assert m["checksum"] != 0
        got = _read_all(out)
        assert len(got) == 200
        assert sorted(got["v"]) == [float(i) for i in range(200)]

    def test_resume_skips_completed(self, ray_session, tmp_path):
        out = str(tmp_path / "out")
        resumable_write(_input_ds(), out, key="entity_id", num_buckets=8)
        done = completed_partitions(out)
        # simulate a crashed run: drop two partitions (data + manifest)
        victims = sorted(done)[:2]
        for k in victims:
            os.remove(os.path.join(out, f"part-{k:05d}.parquet"))
            os.remove(os.path.join(out, "_manifest", f"part-{k:05d}.json"))
        survivors = {
            k: os.path.getmtime(os.path.join(out, f"part-{k:05d}.parquet"))
            for k in sorted(done)[2:]
        }
        summary2 = resumable_write(_input_ds(), out, key="entity_id", num_buckets=8)
        # only the victims were rewritten
        assert sorted(summary2["partition"]) == victims
        for k, mtime in survivors.items():
            assert os.path.getmtime(os.path.join(out, f"part-{k:05d}.parquet")) == mtime
        assert len(_read_all(out)) == 200

    def test_second_run_is_noop(self, ray_session, tmp_path):
        out = str(tmp_path / "out")
        resumable_write(_input_ds(), out, key="entity_id", num_buckets=8)
        summary2 = resumable_write(_input_ds(), out, key="entity_id", num_buckets=8)
        assert len(summary2) == 0

    def test_checksum_order_independent(self):
        df1 = pd.DataFrame({"a": [1, 2, 3], "b": ["x", "y", "z"]})
        df2 = df1.iloc[::-1].reset_index(drop=True)
        assert value_checksum(df1) == value_checksum(df2)
        assert value_checksum(df1) != value_checksum(
            pd.DataFrame({"a": [1, 2, 4], "b": ["x", "y", "z"]})
        )


def _wide_rows(n=300):
    """Rows with a string, a timestamp and a nullable column, so the
    sink meets more than plain floats."""
    return pd.DataFrame({
        "entity_id": [(i * 7) % 23 for i in range(n)],
        "v": [float(i) for i in range(n)],
        "s": [f"w{i % 5}" for i in range(n)],
        "ts": pd.to_datetime(1_700_000_000 + pd.Series(range(n)), unit="s"),
        "maybe": [None if i % 3 else float(i) for i in range(n)],
    })


def _leftovers(out_dir):
    """Every file under ``out_dir``: parts, manifests and temp files."""
    return sorted(os.path.relpath(os.path.join(dp, f), out_dir)
                  for dp, _dn, fns in os.walk(out_dir) for f in fns)


def _tmp_files(out_dir):
    return [f for f in _leftovers(out_dir) if ".tmp" in f]


class TestOnePassCommit:
    """Block K of the exchange output is committed as partition K by its
    own write task; a block holding a row of another bucket is refused
    before anything is written."""

    def test_one_block_per_bucket_commits_every_partition(self, ray_session,
                                                          tmp_path):
        df = _wide_rows()
        out = str(tmp_path / "one")
        summary = resumable_write(_exchanged(df), out, key="entity_id",
                                  num_buckets=8)
        assert summary["rows"].sum() == 300
        assert summary["partition"].is_monotonic_increasing
        assert summary["partition"].is_unique
        assert len([f for f in os.listdir(out)
                    if f.endswith(".parquet")]) == 8
        assert len(read_manifests(out)) == 8
        got = _read_all(out)
        assert sorted(got["v"]) == sorted(df["v"])
        assert not os.path.exists(os.path.join(out, "_shards"))
        assert _tmp_files(out) == []

    def test_block_with_several_buckets_raises(self, ray_session, tmp_path):
        import ray.data as rd

        out = str(tmp_path / "mixed")
        with pytest.raises(ValueError, match="task_exchange"):
            resumable_write(rd.from_pandas(_wide_rows()), out,
                            key="entity_id", num_buckets=8)
        assert _leftovers(out) == []
        assert completed_partitions(out) == set()

    def test_block_of_another_bucket_raises(self, ray_session, tmp_path):
        import pyarrow as pa
        import ray.data as rd

        from tscan_ray.ops.keyed import bucket_of

        df = _wide_rows()
        b = bucket_of(df["entity_id"].to_numpy(), 8)
        assert (b == 3).any()
        ds = rd.from_arrow(pa.Table.from_pandas(df[b == 3],
                                                preserve_index=False))
        out = str(tmp_path / "out")
        with pytest.raises(ValueError, match="task_exchange"):
            resumable_write(ds, out, key="entity_id", num_buckets=8)
        assert _leftovers(out) == []
        assert completed_partitions(out) == set()

    def test_empty_buckets_write_nothing(self, ray_session, tmp_path):
        import numpy as np

        from tscan_ray.ops.keyed import bucket_of

        df = _wide_rows()
        present = set(np.unique(bucket_of(df["entity_id"].to_numpy(), 64))
                      .tolist())
        assert len(present) < 64  # 23 entities over 64 buckets
        out = str(tmp_path / "out")
        summary = resumable_write(_exchanged(df, nb=64), out,
                                  key="entity_id", num_buckets=64)
        assert set(summary["partition"]) == present
        assert completed_partitions(out) == present
        assert {int(f[5:10]) for f in os.listdir(out)
                if f.endswith(".parquet")} == present
        assert len(_read_all(out)) == len(df)
        assert _tmp_files(out) == []

    def test_resume_one_block_per_bucket(self, ray_session, tmp_path):
        import pyarrow as pa

        from tscan_ray.ops.keyed import bucket_of

        df = _wide_rows()
        exch = _exchanged(df)
        out = str(tmp_path / "out")
        resumable_write(exch, out, key="entity_id", num_buckets=8)
        done = sorted(completed_partitions(out))
        victims = done[:2]
        # a killed run's leftovers: bucket victims[0] has a stale part
        # file but no manifest, bucket victims[1] only a stale temp file
        b = bucket_of(df["entity_id"].to_numpy(), 8)
        stale = pa.Table.from_pandas(df[b == victims[0]].assign(v=-1.0),
                                     preserve_index=False)
        pq.write_table(stale, os.path.join(out,
                                           f"part-{victims[0]:05d}.parquet"))
        os.remove(os.path.join(out, "_manifest",
                               f"part-{victims[0]:05d}.json"))
        os.replace(os.path.join(out, f"part-{victims[1]:05d}.parquet"),
                   os.path.join(out, f"part-{victims[1]:05d}.parquet.tmp.123"))
        os.remove(os.path.join(out, "_manifest",
                               f"part-{victims[1]:05d}.json"))
        survivors = {
            k: os.path.getmtime(os.path.join(out, f"part-{k:05d}.parquet"))
            for k in done[2:]
        }
        summary = resumable_write(exch, out, key="entity_id", num_buckets=8)
        assert sorted(summary["partition"]) == victims
        assert completed_partitions(out) == set(done)
        for k, mtime in survivors.items():
            assert os.path.getmtime(
                os.path.join(out, f"part-{k:05d}.parquet")) == mtime
        got = _read_all(out)
        assert len(got) == len(df)
        assert sorted(got["v"]) == sorted(df["v"])
        assert _tmp_files(out) == []
        assert not os.path.exists(os.path.join(out, "_shards"))


class TestBucketPin:
    """Resume checks only (key, num_buckets), not the hash: bucket_of
    must never move, or a resumed job would skip the wrong partitions."""

    INTS = [0, 1, 7, 42, 123456789, -5, 2**62 + 3]
    STRS = ["a", "entity-7", "", "ZZ top", "\u00fc"]
    EXPECTED = {
        8: ([0, 4, 1, 7, 2, 0, 6], [0, 2, 6, 6, 3]),
        64: ([0, 28, 9, 55, 2, 48, 22], [16, 2, 6, 62, 11]),
    }

    @pytest.mark.parametrize("nb", [8, 64])
    def test_bucket_of_values(self, nb):
        import numpy as np

        from tscan_ray.ops.keyed import bucket_of

        ints, strs = self.EXPECTED[nb]
        assert bucket_of(np.array(self.INTS, dtype=np.int64),
                         nb).tolist() == ints
        assert bucket_of(np.array(self.STRS, dtype=object),
                         nb).tolist() == strs


class TestCliEntry:
    def test_run_module(self, ray_session, tmp_path):
        # in-process CLI call (Ray already initialized by the fixture)
        from tscan_ray.run import main

        out = str(tmp_path / "job")
        rc = main(["--sf-dir", "/root/testdata/sf0.001", "--out", out,
                   "--num-buckets", "8"])
        assert rc == 0
        manifests = read_manifests(out)
        assert manifests and sum(m["rows"] for m in manifests) > 0


class TestKillResume:
    def test_kill_mid_write_then_resume(self, tmp_path):
        """North-rule checkpoint proof: a real writer PROCESS is
        SIGKILLed mid-write; a rerun completes the output with no
        duplicate and no missing partitions, and does not rewrite the
        partitions the killed run already committed (mtime-stable)."""
        import signal
        import subprocess
        import sys
        import time

        out = str(tmp_path / "out")
        script = tmp_path / "job.py"
        script.write_text(f"""
import sys
sys.path.insert(0, "/root/repo")
import ray
import ray.data as rd
import numpy as np
import pyarrow as pa

ray.init(address="local", num_cpus=2, include_dashboard=False,
         logging_level="ERROR")
docs = rd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                       columns=["doc_id", "text"], override_num_blocks=8)

def amplify(t: pa.Table) -> pa.Table:
    parts = []
    for r in range(20):
        ids = pa.compute.add(t.column("doc_id"), r * 1_000_000)
        parts.append(pa.table({{"doc_id": ids, "text": t.column("text")}}))
    return pa.concat_tables(parts)

from tscan_ray.ops.keyed import task_exchange
big = task_exchange(docs.map_batches(amplify, batch_format="pyarrow"),
                    "doc_id", lambda t: t, 32, batch_format="pyarrow")
from tscan_ray.state.manifest import resumable_write
s = resumable_write(big, {out!r}, "doc_id", num_buckets=32)
print("JOB_DONE", int(s["rows"].sum()))
ray.shutdown()
""")
        from tscan_ray.state.manifest import completed_partitions

        env = dict(os.environ, RAY_ADDRESS="local")
        p1 = subprocess.Popen([sys.executable, str(script)],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, env=env)
        # kill the instant the first partition commits (mid write burst)
        deadline = time.time() + 300
        while time.time() < deadline:
            if len(completed_partitions(out)) >= 1:
                break
            if p1.poll() is not None:
                break
            time.sleep(0.02)
        if p1.poll() is None:
            os.kill(p1.pid, signal.SIGKILL)
            p1.wait()
        # killing the DRIVER does not instantly stop in-flight Ray
        # worker tasks — let the write burst quiesce (manifest count
        # stable for 3 s) before snapshotting the partial state
        stable_since, last_n = time.time(), -1
        while time.time() - stable_since < 3.0:
            n = len(completed_partitions(out))
            if n != last_n:
                last_n, stable_since = n, time.time()
            time.sleep(0.2)
        done1 = completed_partitions(out)
        rows1 = sum(m["rows"] for m in read_manifests(out))
        mtimes1 = {k: os.path.getmtime(
            os.path.join(out, f"part-{k:05d}.parquet")) for k in done1}
        assert len(done1) < 32, "kill landed after the full write burst"

        p2 = subprocess.run([sys.executable, str(script)],
                            capture_output=True, text=True, env=env,
                            timeout=600)
        assert "JOB_DONE" in p2.stdout, p2.stdout[-2000:]
        rows2 = int(p2.stdout.split("JOB_DONE")[1].split()[0])

        # complete: every bucket present, content exact, no dup/missing
        done2 = completed_partitions(out)
        assert done2 == set(range(32))
        df = _read_all(out)
        assert len(df) == 500 * 20
        assert df["doc_id"].is_unique
        # resumed run wrote exactly the complement ...
        assert rows1 + rows2 == 500 * 20
        # ... and did not touch the partitions committed before the kill
        for k, m in mtimes1.items():
            assert os.path.getmtime(
                os.path.join(out, f"part-{k:05d}.parquet")) == m


class TestStdinMode:
    def test_stdin_incremental(self, ray_session, tmp_path, monkeypatch,
                               capsys):
        """Reference -S mode (src/tscan.cxx:3414-3491): filenames on
        stdin, analysed incrementally, echoed when done, '.' exits."""
        import io
        import os

        from tscan_ray.run import main

        f1 = tmp_path / "a.txt"
        f1.write_text("De kat loopt snel naar huis .\n\n"
                      "De hond slaapt .\n")
        f2 = tmp_path / "b.txt"
        f2.write_text("Een mooi boek over de stad .\n")
        out = tmp_path / "out"
        out.mkdir()
        feed = f"{f1}\n\n{f2}\nmissing_file.txt\n.\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(feed))
        rc = main(["--stdin", "--stdin-out", str(out)])
        assert rc == 0
        got = capsys.readouterr()
        lines = [ln for ln in got.out.splitlines() if ln.strip()]
        assert lines[0].startswith("$ WAITING ON STDIN")
        assert lines[1] == str(f1) and lines[2] == str(f2)
        assert "failed to open file 'missing_file.txt'" in got.err
        xmls = sorted(p.name for p in out.iterdir())
        assert any(x.startswith("a.txt") and x.endswith(".xml")
                   for x in xmls)
        assert any(x.startswith("b.txt") and x.endswith(".xml")
                   for x in xmls)

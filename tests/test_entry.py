"""Pre-flight replica of the driver's correctness gate: run every
queries() entry at sf0.001 and compare with oracle_sql() via DuckDB
(row count + sorted-column values)."""

import math

import duckdb
import numpy as np
import pandas as pd
import pytest

import __ray_entry__ as entrymod

SF_DIR = "/root/testdata/sf0.001"
TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"create view {t} as select * from '{SF_DIR}/{t}.parquet'")
    return c


def _to_pandas(res):
    if hasattr(res, "to_pandas"):
        return res.to_pandas()
    return pd.DataFrame(res)


def _compare(engine: pd.DataFrame, oracle: pd.DataFrame, name: str):
    assert len(engine) == len(oracle), (
        f"{name}: row count {len(engine)} != {len(oracle)}"
    )
    assert sorted(engine.columns) == sorted(oracle.columns), (
        f"{name}: columns {sorted(engine.columns)} != {sorted(oracle.columns)}"
    )
    cols = sorted(engine.columns)
    e = engine[cols].sort_values(cols).reset_index(drop=True)
    o = oracle[cols].sort_values(cols).reset_index(drop=True)
    for c in cols:
        ev, ov = e[c], o[c]
        if np.issubdtype(ev.dtype, np.floating) or np.issubdtype(ov.dtype, np.floating):
            assert np.allclose(ev.astype(float), ov.astype(float),
                               equal_nan=True, atol=1e-9), f"{name}.{c}"
        elif np.issubdtype(ev.dtype, np.datetime64):
            assert (pd.to_datetime(ev).values == pd.to_datetime(ov).values).all(), f"{name}.{c}"
        else:
            assert (ev.astype(str).values == ov.astype(str).values).all(), f"{name}.{c}"


ORACLE_KEYS = sorted(entrymod.oracle_sql().keys())


@pytest.mark.parametrize("name", ORACLE_KEYS)
def test_query_matches_oracle(name, con):
    q = entrymod.queries()[name]
    sql = entrymod.oracle_sql()[name]
    engine = _to_pandas(q(SF_DIR))
    oracle = con.execute(sql).df()
    _compare(engine, oracle, name)


def test_driver_checked_slots_are_oracle_backed():
    """The driver oracle-checks the first 50 registry entries: each must
    have an oracle, and the only oracle left past them is pit_bfill (the
    twin of the checked pit_ffill)."""
    names = list(entrymod.queries())
    oracles = set(entrymod.oracle_sql())
    assert all(n in oracles for n in names[:50])
    assert "text_word_table_core" in names[:50]
    assert [n for n in names[50:] if n in oracles] == ["pit_bfill"]


ROWS_ONLY = sorted(set(entrymod.queries()) - set(entrymod.oracle_sql())
                   - {"tscan_features", "flagship_images"})


@pytest.mark.parametrize("name", ROWS_ONLY)
def test_rows_only_queries_run(name):
    out = _to_pandas(entrymod.queries()[name](SF_DIR))
    assert out is not None


def test_tscan_features_rows():
    out = _to_pandas(entrymod.queries()["tscan_features"](SF_DIR))
    assert len(out) == 500
    assert "MTLD_wrd" in out.columns
    # feature values must be finite or NaN, never inf
    mt = out["MTLD_wrd"].to_numpy()
    assert np.isfinite(mt).all()


def test_entry_smoke():
    res = entrymod.entry()
    df = _to_pandas(res)
    assert len(df) >= 1
    assert "session_id" in df.columns

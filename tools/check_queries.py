"""Driver-style oracle checker: run engine queries + DuckDB oracles
side-by-side and compare rows/schema/values, mimicking the grading
driver (sort columns by name, sort rows, compare values).

Usage: python tools/check_queries.py [query ...]   (default: all with oracles)
Env:   SF_DIR (default /root/testdata/sf0.01)

Each query also prints its output's row count, column dtypes and a
sha256 of its rows (columns sorted by name, rows sorted), and on a line
of its own the wall seconds it took.  Two checkouts' outputs are then
compared by diffing their runs without the ``wall_s`` lines::

    python tools/check_queries.py $(python -c "import __ray_entry__ as e;
        print(*e.queries())") | grep -v wall_s > run.txt
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

SF_DIR = os.environ.get("SF_DIR", "/root/testdata/sf0.01")
TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    for c in df.columns:
        if df[c].dtype == object:
            pass
        elif pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        elif pd.api.types.is_bool_dtype(df[c]):
            df[c] = df[c].astype("boolean")
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("Int64")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64")
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def _cell(v) -> str:
    if isinstance(v, np.ndarray):
        v = v.tolist()
    return repr(v)


def digest(df: pd.DataFrame) -> str:
    """Row count, ``col:dtype`` list and sha256 of the rows (columns by
    name, each row as the reprs of its values, rows sorted)."""
    cols = sorted(df.columns)
    rows = sorted("\x1f".join(map(_cell, r))
                  for r in df[cols].itertuples(index=False, name=None))
    sha = hashlib.sha256("\x1e".join(rows).encode()).hexdigest()
    dtypes = ",".join(f"{c}:{df[c].dtype}" for c in cols)
    return f"rows={len(df)} sha256={sha} dtypes={dtypes}"


def compare(name, eng: pd.DataFrame, ora: pd.DataFrame) -> str:
    if len(eng) != len(ora):
        return f"ROWS {len(eng)} vs {len(ora)}"
    e, o = norm(eng), norm(ora)
    if list(e.columns) != list(o.columns):
        return f"SCHEMA {list(e.columns)} vs {list(o.columns)}"
    bad = []
    for c in e.columns:
        a, b = e[c], o[c]
        if pd.api.types.is_float_dtype(a) and pd.api.types.is_float_dtype(b):
            av, bv = a.to_numpy(), b.to_numpy()
            ok = (np.isnan(av) & np.isnan(bv)) | (av == bv)
            if not ok.all():
                i = int(np.flatnonzero(~ok)[0])
                bad.append(f"{c}[{i}]: {av[i]!r} vs {bv[i]!r}")
        else:
            eq = (a.isna() & b.isna()) | (a == b)
            if not eq.fillna(False).all():
                i = int(np.flatnonzero(~eq.fillna(False).to_numpy())[0])
                bad.append(f"{c}[{i}]: {a.iloc[i]!r} vs {b.iloc[i]!r}")
        # dtype audit (driver hash is dtype-sensitive)
        if str(a.dtype) != str(b.dtype):
            bad.append(f"{c} DTYPE {a.dtype} vs {b.dtype}")
    return "; ".join(bad) if bad else "OK"


def main():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    import __ray_entry__ as entry

    qs = entry.queries()
    oracles = entry.oracle_sql()
    names = sys.argv[1:] or [n for n in qs if n in oracles]

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"create view {t} as select * from parquet_scan('{SF_DIR}/{t}.parquet')")

    fails = 0
    for name in names:
        try:
            t0 = time.perf_counter()
            eng = to_pandas(qs[name](SF_DIR))
            wall = time.perf_counter() - t0
            print(f"{name:34s} {digest(eng)}")
            print(f"{name:34s} wall_s={wall:.2f}")
            if name not in oracles:
                continue
            ora = con.execute(oracles[name]).df()
            verdict = compare(name, eng, ora)
        except Exception as exc:  # noqa: BLE001
            import traceback
            traceback.print_exc()
            verdict = f"ERR {type(exc).__name__}: {exc}"
        status = "PASS" if verdict == "OK" else "FAIL"
        if status == "FAIL":
            fails += 1
        print(f"{name:34s} {status}  {verdict if verdict != 'OK' else ''}")
    print(f"\n{'ALL GREEN' if fails == 0 else f'{fails} FAILURES'}")
    sys.exit(1 if fails else 0)


if __name__ == "__main__":
    main()

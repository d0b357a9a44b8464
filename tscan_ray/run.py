"""Job entrypoint: ``python -m tscan_ray.run`` (the ``ray job submit``
target; reference CLI = src/tscan.cxx:3300-3495).

Runs the flagship image+caption pipeline with checkpoint-resumable
partitioned output and prints a one-line JSON job report (per-partition
lineage manifests land in ``<out>/_manifest/``).

Re-running with the same ``--out`` resumes: completed partitions are
skipped by manifest scan (state/manifest.py).

``--stdin`` reproduces the reference's ``-S`` incremental mode
(src/tscan.cxx:3414-3491, the webservice driver): file NAMES arrive one
per line on stdin; each text file is analysed immediately (annotated
FoLiA saved to ``<name>.tscan.xml`` — or ``--stdin-out DIR`` — plus the
four CSV levels when ``--csv``), the finished name is echoed on stdout,
a lone ``.`` exits, an empty line polls again after 0.1 s.  The Ray
session and its worker processes persist across files, so per-file
latency is the pipeline cost, not session startup.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _run_stdin(args) -> int:
    """Incremental stdin driver (reference -S mode)."""
    import os

    from tscan_ray.stages.folia_writer import write_folia

    import ray.data as rd

    def analyse(path: str) -> dict:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        doc_id = os.path.basename(path)
        ds = rd.from_items([{"doc_id": doc_id, "text": text}])
        out_dir = args.stdin_out or os.path.dirname(os.path.abspath(path))
        manifest = write_folia(ds, out_dir, text_column="text",
                               id_column="doc_id")
        rows = manifest.take_all()
        if args.csv:
            from tscan_ray.stages.featurizer import featurize
            from tscan_ray.stages.paragraphs import explode_paragraphs
            from tscan_ray.stages.sentences import explode_sentences
            from tscan_ray.stages.words import explode_words

            base = os.path.join(out_dir, doc_id)
            src = rd.from_items([{"doc_id": doc_id, "text": text}])
            featurize(src, "text") \
                .drop_columns(["text"]).write_csv(base + ".doc.csv")
            explode_paragraphs(src, "text", ["doc_id"]) \
                .write_csv(base + ".par.csv")
            explode_sentences(src, "text", ["doc_id"]) \
                .write_csv(base + ".sent.csv")
            explode_words(src, "text", ["doc_id"]) \
                .write_csv(base + ".word.csv")
        return rows[0] if rows else {}

    print("$ WAITING ON STDIN. USE . TO EXIT", flush=True)
    while True:
        line = sys.stdin.readline()
        if not line:  # EOF behaves like '.'
            break
        name = line.strip()
        if name == ".":
            break
        if not name:
            time.sleep(0.1)
            continue
        if not os.path.exists(name):
            print(f"failed to open file '{name}'", file=sys.stderr,
                  flush=True)
            continue
        analyse(name)
        print(name, flush=True)  # processed marker, like the reference
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="tscan_ray.run")
    p.add_argument("--sf-dir", default="/root/testdata/sf0.001",
                   help="input table directory ({sf}/documents.parquet)")
    p.add_argument("--out", default=None,
                   help="output directory (resumable); required unless "
                        "--stdin")
    p.add_argument("--num-cpus", type=int, default=None,
                   help="ray.init num_cpus (default: let Ray detect)")
    p.add_argument("--num-buckets", type=int, default=64)
    p.add_argument("--n-entities", type=int, default=50)
    p.add_argument("--stdin", action="store_true",
                   help="incremental mode: read input file names from "
                        "stdin (reference -S)")
    p.add_argument("--stdin-out", default=None,
                   help="output directory for --stdin results "
                        "(default: next to each input)")
    p.add_argument("--csv", action="store_true",
                   help="with --stdin: also write the four CSV levels")
    args = p.parse_args(argv)

    import ray

    owns_session = not ray.is_initialized()
    if owns_session:  # the driver may own the session already
        kwargs = {"include_dashboard": False, "logging_level": "ERROR"}
        if args.num_cpus:
            kwargs["num_cpus"] = args.num_cpus
        ray.init(address="local", **kwargs)

    if args.stdin:
        rc = _run_stdin(args)
        if owns_session:
            ray.shutdown()
        return rc
    if not args.out:
        p.error("--out is required unless --stdin")

    from tscan_ray.pipelines.flagship import flagship
    from tscan_ray.state.manifest import read_manifests, resumable_write

    t0 = time.perf_counter()
    enriched = flagship(
        args.sf_dir,
        n_entities=args.n_entities,
        num_buckets=args.num_buckets,
    )
    summary = resumable_write(
        enriched, args.out, key="entity_id", num_buckets=args.num_buckets,
        lineage={
            "pipeline": "flagship",
            "sf_dir": args.sf_dir,
            "n_entities": args.n_entities,
        },
    )
    wall = time.perf_counter() - t0
    manifests = read_manifests(args.out)
    report = {
        "pipeline": "flagship",
        "out": args.out,
        "partitions_total": len(manifests),
        "partitions_written": int(len(summary)),
        "rows_written": int(summary["rows"].sum()) if len(summary) else 0,
        "rows_total": int(sum(m["rows"] for m in manifests)),
        "wall_s": round(wall, 3),
    }
    print(json.dumps(report))
    if owns_session:  # never tear down a driver-owned session
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())

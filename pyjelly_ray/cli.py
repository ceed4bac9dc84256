"""CLI entry points (``ray job submit -- python -m pyjelly_ray.cli ...``).

Commands:
  build-kg   --corpus PATH --out DIR [--shards N] [--prune]
  validate   --out DIR [--decode]
  roundtrip  --jelly PATH            (decode + re-encode + compare count)
  gen-corpus --out PATH --files N [--seed S]
  to-jelly   --nt PATH_OR_DIR --out DIR [--quads]   (.nt/.nq → .jelly shards)
  from-jelly --jelly PATH_OR_DIR --out DIR          (.jelly → .nt/.nq shards)
  export     --query NAME --sf-dir DIR --out DIR [--partition-cols C,..]
             [--partitions N] [--hive]  (named query → resumable parquet;
             --hive: col=value/ dir per distinct combo)

The CLI owns its Ray session (guarded init); library code never does.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="pyjelly_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build-kg", help="run the KG construction pipeline")
    b.add_argument("--corpus", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--shards", type=int, default=16)
    b.add_argument("--prune", action="store_true",
                   help="after a rebuild (full or --incremental), delete shards the new corpus no longer populates")
    b.add_argument("--incremental", action="store_true",
                   help="symbol-delta narrowed rebuild: skip shards an "
                        "add-only corpus delta provably cannot touch "
                        "(falls back to a full build otherwise)")

    v = sub.add_parser("validate", help="validate output manifests")
    v.add_argument("--out", required=True)
    v.add_argument("--decode", action="store_true")

    r = sub.add_parser("roundtrip", help="decode/re-encode a .jelly file")
    r.add_argument("--jelly", required=True)

    g = sub.add_parser("gen-corpus", help="write a deterministic test corpus")
    g.add_argument("--out", required=True)
    g.add_argument("--files", type=int, default=1000)
    g.add_argument("--seed", type=int, default=7)

    tj = sub.add_parser("to-jelly", help="convert N-Triples/N-Quads to Jelly")
    tj.add_argument("--nt", required=True)
    tj.add_argument("--out", required=True)
    tj.add_argument("--quads", action="store_true")

    fj = sub.add_parser("from-jelly", help="convert Jelly to N-Triples/N-Quads")
    fj.add_argument("--jelly", required=True)
    fj.add_argument("--out", required=True)

    ex = sub.add_parser("export", help="run a named query, write resumable parquet")
    ex.add_argument("--query", required=True)
    ex.add_argument("--sf-dir", required=True)
    ex.add_argument("--out", required=True)
    ex.add_argument("--partition-cols", default=None,
                    help="comma-separated; defaults to the first output column")
    ex.add_argument("--partitions", type=int, default=16)
    ex.add_argument("--hive", action="store_true",
                    help="col=value/ directory per distinct combo (low-"
                         "cardinality keys) instead of hash partitions")

    qa = sub.add_parser("quality", help="run data-quality expectation rules")
    qa.add_argument("--sf-dir", required=True)
    qa.add_argument("--table", required=True, help="parquet table name in --sf-dir")
    qa.add_argument("--rules", required=True,
                    help='JSON list of rules, e.g. \'[{"rule":"k_uniq",'
                         '"column":"o_orderkey","kind":"unique"}]\'')

    mo = sub.add_parser("monitor",
                        help="feature-drift (PSI) + CUSUM alarm report")
    mo.add_argument("--sf-dir", required=True)
    mo.add_argument("--table", default="events")
    mo.add_argument("--value-col", default="value")
    mo.add_argument("--ts-col", default="ts")
    mo.add_argument("--key-col", default="user_id",
                    help="CUSUM series key")
    mo.add_argument("--cutoff", required=True,
                    help="ISO timestamp splitting reference vs current")
    mo.add_argument("--psi-threshold", type=float, default=0.2)
    mo.add_argument("--cusum-drift", type=float, default=None,
                    help="CUSUM drift (target+allowance); off when unset")
    mo.add_argument("--cusum-h", type=float, default=300.0)

    pr = sub.add_parser("pagerank", help="PageRank over the KG dependency graph")
    pr.add_argument("--corpus", required=True)
    pr.add_argument("--out", default=None, help="parquet output dir (else print top)")
    pr.add_argument("--predicates", default="imports,calls")
    pr.add_argument("--iters", type=int, default=8)
    pr.add_argument("--top", type=int, default=20)

    args = p.parse_args(argv)

    if args.cmd == "build-kg":
        import ray

        own = not ray.is_initialized()
        if own:
            ray.init(address="local", include_dashboard=False)
        if args.incremental:
            from .pipelines.kg import incremental_build_kg

            out = incremental_build_kg(args.corpus, args.out, n_shards=args.shards)
            live = set(out.pop("live_shards"))
        else:
            from .pipelines.kg import build_kg

            manifests = build_kg(args.corpus, args.out, n_shards=args.shards).take_all()
            live = {m["shard"] for m in manifests}
            out = {"shards": len(manifests),
                   "n_statements": sum(m["n_statements"] for m in manifests)}
        if args.prune:
            from .state.manifest import prune_orphans

            out["pruned"] = prune_orphans(args.out, live)
        print(json.dumps(out))
        if own:
            ray.shutdown()
        return 0

    if args.cmd == "quality":
        import ray

        own = not ray.is_initialized()
        if own:
            ray.init(address="local", include_dashboard=False)
        from .stages.validate import validate_table

        rules = json.loads(args.rules)
        ds = ray.data.read_parquet(f"{args.sf_dir}/{args.table}.parquet")
        rows = validate_table(ds, rules).take_all()
        rows.sort(key=lambda r: r["rule"])
        print(json.dumps({"table": args.table, "rules": rows,
                          "all_passed": all(r["passed"] for r in rows)}))
        if own:
            ray.shutdown()
        return 0 if all(r["passed"] for r in rows) else 2

    if args.cmd == "monitor":
        import datetime as _dt

        import pyarrow as _pa
        import pyarrow.compute as _pc
        import ray

        own = not ray.is_initialized()
        if own:
            ray.init(address="local", include_dashboard=False)
        from .stages.validate import drift_psi_report

        cutoff_dt = _dt.datetime.fromisoformat(args.cutoff)
        if cutoff_dt.tzinfo is None:  # naive == corpus time == UTC
            cutoff_dt = cutoff_dt.replace(tzinfo=_dt.timezone.utc)
        cutoff_us = int(cutoff_dt.timestamp() * 1_000_000)
        ds = ray.data.read_parquet(
            f"{args.sf_dir}/{args.table}.parquet",
            columns=[c for c in {args.value_col, args.ts_col, args.key_col}],
        )
        vcol, tcol = args.value_col, args.ts_col

        def side(b: "_pa.Table") -> "_pa.Table":
            s = _pc.cast(
                _pc.greater_equal(
                    _pc.cast(b.column(tcol), _pa.int64()),
                    _pa.scalar(cutoff_us, _pa.int64()),
                ),
                _pa.int8(),
            )
            return _pa.table({vcol: b.column(vcol), "side": s})

        bins = drift_psi_report(
            ds.map_batches(side, batch_format="pyarrow"), vcol, "side"
        ).take_all()
        bins.sort(key=lambda r: r["bin"])
        psi_total = sum(r["psi_term"] or 0.0 for r in bins)
        report = {"table": args.table, "value_col": vcol,
                  "cutoff": args.cutoff, "psi_total": round(psi_total, 6),
                  "bins": bins}
        breached = psi_total > args.psi_threshold
        if args.cusum_drift is not None:
            from .stages.window import grouped_running

            ev = ray.data.read_parquet(
                f"{args.sf_dir}/{args.table}.parquet",
                columns=[args.key_col, tcol, vcol],
            )
            stat = grouped_running(
                ev, key=args.key_col, order_col=tcol, value_col=vcol,
                kinds=[("cusum", ("cusum", args.cusum_drift))], round_to=6,
            )
            alarms = stat.map_batches(
                lambda b: b.filter(
                    _pc.greater(b.column("cusum"),
                                _pa.scalar(args.cusum_h))),
                batch_format="pyarrow",
            ).count()
            report["cusum"] = {"drift": args.cusum_drift, "h": args.cusum_h,
                               "n_alarms": int(alarms)}
            breached = breached or alarms > 0
        print(json.dumps(report))
        if own:
            ray.shutdown()
        return 2 if breached else 0

    if args.cmd == "pagerank":
        import ray

        own = not ray.is_initialized()
        if own:
            ray.init(address="local", include_dashboard=False)
        from .pipelines.kg import kg_symbol_pagerank

        ranks = kg_symbol_pagerank(
            args.corpus,
            predicates=tuple(args.predicates.split(",")),
            iters=args.iters,
            top_k=None if args.out else args.top,
        )
        if args.out:
            ranks.write_parquet(args.out)
            print(json.dumps({"out": args.out, "nodes": ranks.count()}))
        else:
            rows = ranks.take_all()
            print(json.dumps({"top": [
                {"node": r["node"], "rank": round(r["rank"], 8)} for r in rows
            ]}))
        if own:
            ray.shutdown()
        return 0

    if args.cmd == "validate":
        from .state.manifest import validate_invariants

        result = validate_invariants(args.out, decode=args.decode)
        print(json.dumps(result))
        return 0 if result["ok"] else 1

    if args.cmd == "roundtrip":
        from .jelly import StreamOptions, decode_flat, encode_flat, parse_options

        data = open(args.jelly, "rb").read()
        options, _ = parse_options(data)
        stmts = list(decode_flat(data))
        re_encoded = b"".join(encode_flat(iter(stmts), options))
        back = list(decode_flat(re_encoded))
        print(json.dumps({"statements": len(stmts), "stable": back == stmts,
                          "bytes_in": len(data), "bytes_out": len(re_encoded)}))
        return 0 if back == stmts else 1

    if args.cmd == "to-jelly":
        import ray

        own = not ray.is_initialized()
        if own:
            ray.init(address="local", include_dashboard=False)
        from .sinks.jelly_sink import JellyDatasink, flat_quads_options
        from .sources.ntriples import read_ntriples

        ds = read_ntriples(args.nt)
        options = flat_quads_options() if args.quads else None
        # single streaming pass: write is the consumer (no count re-execution)
        ds.write_datasink(JellyDatasink(args.out, options))
        import glob as _glob

        parts = _glob.glob(f"{args.out}/part-*.jelly")
        print(json.dumps({"out": args.out, "files": len(parts)}))
        if own:
            ray.shutdown()
        return 0

    if args.cmd == "from-jelly":
        import ray

        own = not ray.is_initialized()
        if own:
            ray.init(address="local", include_dashboard=False)
        from .sources.jelly_source import read_jelly
        from .sources.ntriples import write_ntriples

        ds = read_jelly(args.jelly)
        write_ntriples(ds, args.out)  # streaming consumer
        print(json.dumps({"out": args.out}))
        if own:
            ray.shutdown()
        return 0

    if args.cmd == "export":
        import ray

        own = not ray.is_initialized()
        if own:
            ray.init(address="local", include_dashboard=False)
        import pandas as pd
        import pyarrow as pa

        from .pipelines.relational import QUERIES
        from .sinks.parquet_sink import write_hive_parquet, write_partitioned_parquet

        if args.query not in QUERIES:
            print(json.dumps({"error": f"unknown query {args.query}",
                              "known": sorted(QUERIES)}))
            return 2
        result = QUERIES[args.query](args.sf_dir)
        if isinstance(result, pd.DataFrame):
            result = ray.data.from_pandas(result)
        elif isinstance(result, pa.Table):
            result = ray.data.from_arrow(result)
        cols = (
            args.partition_cols.split(",")
            if args.partition_cols
            else [result.schema().names[0]]
        )
        sink = write_hive_parquet if args.hive else write_partitioned_parquet
        man = sink(
            result, args.out, partition_cols=cols, num_partitions=args.partitions
        ).take_all()
        print(json.dumps({
            "out": args.out,
            "rows": int(sum(m["rows"] for m in man)),
            "written": sum(1 for m in man if m["status"] == "written"),
            "skipped": sum(1 for m in man if m["status"] == "skipped"),
        }))
        if own:
            ray.shutdown()
        return 0

    if args.cmd == "gen-corpus":
        from .pipelines.corpus import write_corpus_parquet

        write_corpus_parquet(args.out, seed=args.seed, n_files=args.files)
        print(json.dumps({"path": args.out, "files": args.files}))
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())

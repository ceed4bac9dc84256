"""Turns measured jobs into the printed metrics.

End-to-end metrics come from untraced jobs.  Per-layer metrics come from
the traced jobs' spans plus one single-process replay of the last traced
job (see ``trace.py``); a layer that does not run in a workload reports 0,
which is the prediction for it there.
"""

from __future__ import annotations

import os
import statistics

from .trace import Tracer, median, operator_remote_wall_s, replay_build, replay_codec, replay_read_jelly
from .workloads import N_SHARDS, Job

# How far the driver spans' share of a traced job's wall may fall from 1;
# tighter than the bound on ``wall_s`` in BENCHMARK.json.
SPAN_COVER_TOLERANCE = 0.10

# name -> unit, in print order; the keys are the names in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "stmts_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "out_bytes_per_stmt": "B",
    "success_rate": "ratio",
}

PER_LAYER = {
    "extract.files_in": "count",
    "extract.triples_out": "count",
    "extract.busy_s": "s",
    "extract.files_per_s": "1/s",
    "stats.busy_s": "s",
    "stats.symbols": "count",
    "stats.repos": "count",
    "link.index_build_s": "s",
    "link.busy_s": "s",
    "link.rows": "count",
    "link.unresolved_ratio": "ratio",
    "dedup.rows_in": "count",
    "dedup.rows_out": "count",
    "dedup.keep_ratio": "ratio",
    "dedup.busy_s": "s",
    "exchange.wall_s": "s",
    "exchange.self_s": "s",
    "exchange.bytes_in": "B",
    "exchange.blocks_in": "count",
    "exchange.shard_skew": "ratio",
    "sink.shards_total": "count",
    "sink.shards_written": "count",
    "sink.shards_skipped": "count",
    "sink.busy_s": "s",
    "sink.shard_s_p50": "s",
    "sink.shard_s_max": "s",
    "sink.bytes_out": "B",
    "codec.encode_stmts_per_s": "1/s",
    "codec.decode_fast_stmts_per_s": "1/s",
    "codec.decode_flat_stmts_per_s": "1/s",
    "codec.bytes_per_stmt": "B",
    "codec.c_fold_active": "bool",
    "codec.c_fold_dec_active": "bool",
    "read_jelly.files": "count",
    "read_jelly.stmts": "count",
    "read_jelly.busy_s": "s",
    "read_jelly.max_block_rows": "count",
    "incremental.applied": "bool",
    "incremental.changed_names": "count",
    "incremental.delta_keys": "count",
    "incremental.shards_affected": "count",
    "incremental.skip_ratio": "ratio",
    "incremental.proof_s": "s",
    "manifest.validate_s": "s",
    "ray.overhead_s": "s",
    "ray.spilled_mb": "MB",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.span_cover": "ratio",
    "trace.replay_identical": "bool",
}


def end_to_end(jobs: list[Job], setup_s: float) -> dict:
    walls = [j.wall_s for j in jobs]
    ok = sum(1 for j in jobs if not j.problems)
    return {
        "setup_s": setup_s,
        "wall_s": median(walls),
        "stmts_per_s": median([j.stmts / j.wall_s for j in jobs]),
        "cpu_s": median([j.cpu_s for j in jobs]),
        "peak_rss_mb": median([j.peak_rss_mb for j in jobs]),
        "out_bytes_per_stmt": median([j.out_bytes / j.stmts if j.stmts else 0.0 for j in jobs]),
        "success_rate": ok / len(jobs),
    }


def _read(path: str) -> bytes:
    with open(path, "rb") as f:
        return f.read()


def span_cover(tr: Tracer, run: str) -> float:
    """Share of a traced job's root span its direct children account for."""
    root = next(s for s in tr.spans if s["run"] == run and s["parent"] is None)
    kids = tr.children(root["id"])
    return sum(c["end"] - c["start"] for c in kids) / (root["end"] - root["start"])


def _fold_flags() -> dict:
    from pyjelly_ray.jelly import cfold, cfold_dec

    return {
        "codec.c_fold_active": int(cfold.LIB is not None),
        "codec.c_fold_dec_active": int(cfold_dec.LIB is not None),
    }


def _codec(tr: Tracer, paths: list[str]) -> tuple[dict, bool]:
    c = replay_codec(tr, paths)

    def rate(span: str) -> float:
        busy = tr.total(span, "replay")
        return c["stmts"] / busy if busy else 0.0

    return {
        "codec.encode_stmts_per_s": rate("codec.encode"),
        "codec.decode_fast_stmts_per_s": rate("codec.decode_fast"),
        "codec.decode_flat_stmts_per_s": rate("codec.decode_flat"),
        "codec.bytes_per_stmt": c["bytes"] / c["stmts"] if c["stmts"] else 0.0,
    }, c["stable"]


def per_layer(wl, jobs: list[Job], tr: Tracer) -> dict:
    traced = [j for j in jobs if j.traced and not j.problems]
    plain = [j for j in jobs if not j.traced]
    runs = sorted({s["run"] for s in tr.spans if s["run"].startswith("job")})
    m = {k: 0.0 for k in PER_LAYER}
    m.update(_fold_flags())
    if not traced:  # the run already counts as failed; nothing to replay
        return m
    traced_wall = median([j.wall_s for j in traced])
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - median([j.wall_s for j in plain])
    m["trace.span_cover"] = median([span_cover(tr, r) for r in runs])
    m["manifest.validate_s"] = median(wl.manifest_validate_s)
    m["ray.spilled_mb"] = max(j.peak_spill_mb for j in traced)
    last = traced[-1]
    tr.run_id = "replay"
    replay_dir = wl.path("replay")
    os.makedirs(replay_dir, exist_ok=True)

    if wl.name == "jelly_scan":
        paths = wl.shard_paths()
        replay_read_jelly(tr, paths)
        codec, stable = _codec(tr, paths)
        m.update(codec)
        m["read_jelly.files"] = len(paths)
        m["read_jelly.stmts"] = last.stmts
        m["read_jelly.busy_s"] = tr.total("replay.read_jelly", "replay")
        m["read_jelly.max_block_rows"] = max(j.info["max_block_rows"] for j in traced)
        m["trace.replay_identical"] = int(stable)
        m["ray.overhead_s"] = traced_wall - m["read_jelly.busy_s"]
        return m

    info = last.info
    triples = info["triples"]
    rows = info["rows"] or []
    written = {r["shard"] for r in rows if r["status"] == "written"}
    incremental = wl.name == "kg_local_delta"
    rep = replay_build(tr, info, N_SHARDS, replay_dir, written if incremental else None)
    codec, stable = _codec(tr, rep["written"])
    m.update(codec)

    busy = operator_remote_wall_s(triples.stats(), "extract_batch")
    m["extract.files_in"] = wl.n_files
    m["extract.triples_out"] = triples.count()
    m["extract.busy_s"] = busy if busy is not None else median(tr.durations("extract_materialize"))
    m["extract.files_per_s"] = wl.n_files / m["extract.busy_s"]
    m["stats.busy_s"] = median(tr.durations("collect_stats"))
    m["stats.symbols"] = info["sym_table"].num_rows
    m["stats.repos"] = len(info["repo_counts"])
    m["link.index_build_s"] = median(tr.durations("prepare_link_index"))
    m["link.busy_s"] = tr.total("replay.link", "replay")
    m["link.rows"] = rep["link_rows"]
    m["link.unresolved_ratio"] = rep["unresolved_ratio"]
    m["dedup.rows_in"] = rep["dedup_rows_in"]
    m["dedup.rows_out"] = rep["dedup_rows_out"]
    m["dedup.keep_ratio"] = rep["dedup_rows_out"] / rep["dedup_rows_in"]
    m["dedup.busy_s"] = tr.total("replay.dedup", "replay")

    shard_s = tr.durations("replay.shard", "replay")
    m["sink.shards_total"] = len(rows)
    m["sink.shards_written"] = len(written)
    m["sink.shards_skipped"] = sum(1 for r in rows if r["status"] == "skipped")
    m["sink.busy_s"] = sum(shard_s)
    m["sink.shard_s_p50"] = median(shard_s)
    m["sink.shard_s_max"] = max(shard_s, default=0.0)
    m["sink.bytes_out"] = sum(r["n_bytes"] for r in rows if r["status"] == "written")

    exchange_wall = median(tr.durations("dedup_and_write_kg_shards"))
    counts = [r["n_statements"] for r in rows]
    m["exchange.wall_s"] = exchange_wall
    m["exchange.self_s"] = exchange_wall - m["link.busy_s"] - m["dedup.busy_s"] - m["sink.busy_s"]
    m["exchange.bytes_in"] = triples.size_bytes()
    m["exchange.blocks_in"] = triples.num_blocks()
    m["exchange.shard_skew"] = max(counts) / statistics.median(counts) if counts else 0.0

    layers = (m["extract.busy_s"] + m["stats.busy_s"] + m["link.index_build_s"]
              + m["link.busy_s"] + m["dedup.busy_s"] + m["sink.busy_s"])
    if incremental:
        proof = [
            sum(tr.total(n, r) for n in ("registry_delta", "symbol_delta", "collect_delta_keys"))
            for r in runs
        ]
        m["incremental.applied"] = info["applied"]
        m["incremental.changed_names"] = info["changed_names"]
        m["incremental.delta_keys"] = info["delta_keys"]
        m["incremental.shards_affected"] = len(written)
        m["incremental.skip_ratio"] = m["sink.shards_skipped"] / len(rows) if rows else 0.0
        m["incremental.proof_s"] = median(proof)
        layers += m["incremental.proof_s"]
    m["ray.overhead_s"] = traced_wall - layers

    same = all(_read(p) == _read(os.path.join(wl.out, os.path.basename(p))) for p in rep["written"])
    m["trace.replay_identical"] = int(same and stable)
    return m

"""Spans around the engine's public calls, and the single-process layer replay.

A traced job rebuilds ``build_kg`` (or ``incremental_build_kg``) from the
same public calls, in the same order and with the same arguments, and puts
one driver-side span around each.  Layers that run inside exchange tasks
(link, dedup, sink, codec) cannot be timed from the driver, so after the
traced job the benchmark replays them in this process on the job's
materialized intermediates, timing the same public functions one by one.

Spans carry a name, start, end, parent and run id; they stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import time
from contextlib import contextmanager

import pyarrow as pa
import pyarrow.compute as pc


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.run_id = "setup"

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def children(self, span_id: int) -> list[dict]:
        return [s for s in self.spans if s["parent"] == span_id]

    def self_s(self, span_id: int) -> float:
        """Duration minus the time its children cover (they never overlap)."""
        s = self.spans[span_id]
        return (s["end"] - s["start"]) - sum(c["end"] - c["start"] for c in self.children(span_id))

    def total(self, name: str, run: str | None = None) -> float:
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and (run is None or s["run"] == run)
        )

    def durations(self, name: str, run: str | None = None) -> list[float]:
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and (run is None or s["run"] == run)
        ]

    def dump(self, path: str) -> None:
        for s in self.spans:
            s["self_s"] = self.self_s(s["id"])
        with open(path, "w") as f:
            json.dump(self.spans, f)


# ------------------------------------------------------------ traced jobs


def traced_build_kg(tr: Tracer, corpus_path: str, out_dir: str, n_shards: int) -> tuple[list, dict]:
    """``build_kg`` rebuilt from its public calls, one span per call."""
    import ray

    from pyjelly_ray.pipelines.kg import collect_stats, extract_triples, read_corpus
    from pyjelly_ray.sinks.jelly_sink import dedup_and_write_kg_shards
    from pyjelly_ray.stages.link import make_linker_task, prepare_link_index

    with tr.span("build_kg"):
        with tr.span("read_corpus"):
            corpus = read_corpus(corpus_path)
        with tr.span("extract_materialize"):
            triples = extract_triples(corpus).materialize()
        with tr.span("collect_stats"):
            sym_table, repo_counts = collect_stats(triples)
        with tr.span("prepare_link_index"):
            ref = ray.put(prepare_link_index(sym_table))
        with tr.span("dedup_and_write_kg_shards"):
            rows = dedup_and_write_kg_shards(
                triples, out_dir, n_shards=n_shards, repo_counts=repo_counts,
                pre_map=make_linker_task(ref),
            ).take_all()
    return rows, {"triples": triples, "sym_table": sym_table, "repo_counts": repo_counts}


def traced_incremental_build_kg(tr: Tracer, corpus_path: str, out_dir: str,
                                n_shards: int) -> tuple[list | None, dict]:
    """``incremental_build_kg`` (tag mode) rebuilt from its public calls.

    Returns ``(None, info)`` when the add-only proof does not hold, where
    the engine would fall back to a full build.
    """
    import ray

    from pyjelly_ray.jelly.options import StreamOptions
    from pyjelly_ray.pipelines.kg import collect_stats, extract_triples, read_corpus
    from pyjelly_ray.sinks.jelly_sink import compute_shard_plan, dedup_and_write_kg_shards
    from pyjelly_ray.stages.link import make_linker_task, prepare_link_index
    from pyjelly_ray.state import incremental as inc

    options = StreamOptions()
    with tr.span("incremental_build_kg"):
        with tr.span("load_state"):
            state = inc.load_state(out_dir)
        with tr.span("read_corpus"):
            corpus = read_corpus(corpus_path)
        with tr.span("extract_materialize"):
            triples = extract_triples(corpus).materialize()
        with tr.span("collect_stats"):
            sym_table, repo_counts, registry = collect_stats(triples, with_registry=True)
        with tr.span("compute_shard_plan"):
            nb, ns, hp, n_total = compute_shard_plan(repo_counts, n_shards)
        plan = {
            "n_shards_arg": n_shards, "n_shards": ns, "n_buckets": nb,
            "hot_plan": {k: list(v) for k, v in (hp or {}).items()},
            "n_total": n_total, "options": repr(options),
        }
        info = {"triples": triples, "sym_table": sym_table, "repo_counts": repo_counts,
                "applied": 0, "changed_names": 0, "delta_keys": 0}
        if state is None:
            return None, info
        old_sym, old_registry, old_plan = state
        with tr.span("registry_delta"):
            added, add_only = inc.registry_delta(old_registry, registry)
        if not add_only or plan != old_plan:
            return None, info
        with tr.span("symbol_delta"):
            changed = inc.symbol_delta(old_sym, sym_table)
        with tr.span("prepare_link_index"):
            new_ref = ray.put(prepare_link_index(sym_table))
            old_ref = ray.put(prepare_link_index(old_sym))
        with tr.span("collect_delta_keys"):
            keys = inc.collect_delta_keys(triples, added, changed, new_ref, old_ref, nb)
        with tr.span("dedup_and_write_kg_shards"):
            rows = dedup_and_write_kg_shards(
                triples, out_dir, n_shards=n_shards, repo_counts=repo_counts,
                pre_map=make_linker_task(new_ref), inc_keys=ray.put(keys),
            ).take_all()
        with tr.span("persist_state"):
            inc.persist_state(out_dir, sym_table, registry, plan)
    info.update(applied=1, changed_names=len(changed), delta_keys=int(len(keys)))
    return rows, info


def traced_scan(tr: Tracer, graph_dirs: list[str]) -> tuple[int, dict, int, list]:
    """``read_jelly`` consumed to Arrow: count, predicate histogram, largest block."""
    from pyjelly_ray.sources.jelly_source import read_jelly

    with tr.span("read_jelly_scan"):
        with tr.span("read_jelly"):
            ds = read_jelly(graph_dirs)
        with tr.span("consume"):
            n, hist, max_rows, batches = consume_scan(ds)
    return n, hist, max_rows, batches


def consume_scan(ds) -> tuple[int, dict, int, list]:
    n, max_rows, hist, batches = 0, 0, {}, []
    for b in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        n += b.num_rows
        max_rows = max(max_rows, b.num_rows)
        if b.num_rows:
            vc = pc.value_counts(b.column("p_value"))
            for v, c in zip(vc.field("values").to_pylist(), vc.field("counts").to_pylist()):
                hist[v] = hist.get(v, 0) + c
        batches.append(b)
    return n, hist, max_rows, batches


# ------------------------------------------------------------ Ray Data stats

_UNITS = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def operator_remote_wall_s(stats_text: str, marker: str) -> float | None:
    """Total remote wall time of the operator whose header names ``marker``,
    parsed from ``Dataset.stats()``."""
    blocks = re.split(r"\n(?=Operator \d+ )", stats_text)
    for block in blocks:
        header = block.split("\n", 1)[0]
        if marker not in header:
            continue
        m = re.search(r"Remote wall time:.*?,\s*([\d.]+)(us|ms|s) total", block)
        if m:
            return float(m.group(1)) * _UNITS[m.group(2)]
    return None


# ------------------------------------------------------------ replay


def replay_build(tr: Tracer, inter: dict, n_shards: int, scratch_dir: str,
                 only_shards: set[str] | None) -> dict:
    """Replay link, dedup and the shard writer in this process.

    ``only_shards`` limits the writer to the shards the job wrote (an
    incremental job skips the rest).  Returns the layer counts; the times
    are spans on ``tr``.
    """
    import ray

    from pyjelly_ray.sinks.jelly_sink import (
        ShardJellyWriter,
        add_shard_column,
        compute_shard_plan,
    )
    from pyjelly_ray.stages.dedup import add_tkey, dedup_block
    from pyjelly_ray.stages.extract import ONT
    from pyjelly_ray.stages.link import EXTERN_PREFIX, make_linker_task, prepare_link_index

    blocks = [b for b in ray.get(inter["triples"].to_arrow_refs()) if b.num_rows]
    linker = make_linker_task(prepare_link_index(inter["sym_table"]))
    with tr.span("replay.link"):
        linked = [linker(b) for b in blocks]
    link_rows = sum(b.num_rows for b in linked)
    mentions = unresolved = 0
    for b in linked:
        is_mention = pc.is_in(b.column("p_value"), value_set=pa.array([ONT + "imports", ONT + "calls"]))
        mentions += pc.sum(is_mention).as_py() or 0
        ext = pc.and_(is_mention, pc.starts_with(b.column("o_value"), EXTERN_PREFIX))
        unresolved += pc.sum(ext).as_py() or 0

    nb, ns, hp, n_total = compute_shard_plan(inter["repo_counts"], n_shards)
    with tr.span("replay.dedup"):
        local = [dedup_block(add_tkey(b, nb)) for b in linked]
        merged = dedup_block(pa.concat_tables(local, promote_options="default"))

    assigned = add_shard_column(ns, hp)(merged)
    assigned = assigned.drop_columns([c for c in ("h1", "h2", "bucket") if c in assigned.column_names])
    writer = ShardJellyWriter(scratch_dir)
    shard_col = assigned.column("shard")
    written = []
    with tr.span("replay.sink"):
        for q in sorted(pc.unique(shard_col).to_pylist()):
            if only_shards is not None and f"{q:05d}" not in only_shards:
                continue
            group = assigned.filter(pc.equal(shard_col, q))
            with tr.span("replay.shard"):
                writer(group)
            written.append(os.path.join(scratch_dir, f"part-{q:05d}.jelly"))
    return {
        "link_rows": link_rows,
        "unresolved_ratio": unresolved / mentions if mentions else 0.0,
        "dedup_rows_in": link_rows,
        "dedup_rows_out": merged.num_rows,
        "n_total": n_total,
        "written": written,
    }


def replay_codec(tr: Tracer, paths: list[str]) -> dict:
    """Per shard: fast decode, pure decode, and re-encode of the decoded table
    (the CLI ``roundtrip``), checking the re-encoded bytes decode back equal."""
    from pyjelly_ray.jelly import decode_flat
    from pyjelly_ray.jelly.decode_fast import decode_table
    from pyjelly_ray.jelly.encode_fast import encode_table

    stmts = nbytes = 0
    stable = True
    for path in paths:
        with open(path, "rb") as f:
            data = f.read()
        nbytes += len(data)
        with tr.span("codec.decode_fast"):
            table = decode_table(data)
        with tr.span("codec.decode_flat"):
            n_flat = sum(1 for _ in decode_flat(data))
        with tr.span("codec.encode"):
            enc = b"".join(encode_table(table))
        stmts += table.num_rows
        stable = stable and n_flat == table.num_rows and decode_table(enc).equals(table)
    return {"stmts": stmts, "bytes": nbytes, "stable": stable}


def replay_read_jelly(tr: Tracer, paths: list[str]) -> None:
    """The ``read_jelly`` task body, one file per call, in this process."""
    from pyjelly_ray.sources.jelly_source import decode_files_batch

    for path in paths:
        with open(path, "rb") as f:
            data = f.read()
        with tr.span("replay.read_jelly"):
            decode_files_batch({"bytes": [data]})


def median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0

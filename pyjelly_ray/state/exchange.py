"""Explicit hash exchange built on raw Ray tasks (SURVEY.md §2 escape hatch).

Ray Data's ``groupby`` runs a sample+sort shuffle whose wall time proved
bimodal under load (observed 13–170 s for the same 6 GB exchange).  When
the partition count is known and the key is already an int bucket column,
an all-to-all needs neither sampling nor sorting:

    map side:   split each input block into P sub-tables by ``bucket``
                (one vectorized take per partition), returning P object refs
    reduce side: per partition, concat its P_i parts and apply ``reduce_fn``

Everything stays zero-copy Arrow in plasma; the result re-enters the
Dataset API via ``from_arrow_refs``.  Deterministic by construction (the
reduce sees all rows of its buckets; ``reduce_fn`` must itself be
order-insensitive or sort internally, which our dedup/writer kernels do).

This is the documented partitioning assumption: ``bucket ∈ [0, P)``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable

import pyarrow as pa


def _prof(stage: str, t0: float, rows: int, cpu0: float | None = None) -> None:
    """Opt-in per-task profile line (set GRAFT_TASKPROF=/path/file.jsonl).

    Single-node diagnostic aid (O_APPEND keeps short lines atomic); the
    per-partition manifests are the multi-node lineage/metrics surface.
    """
    path = os.environ.get("GRAFT_TASKPROF")
    if not path:
        return
    try:  # node identity (multi-node runs prove placement with this)
        import ray

        node = ray.get_runtime_context().get_node_id()[:12]
    except Exception:
        node = None
    line = json.dumps(
        {
            "stage": stage,
            "pid": os.getpid(),
            "node": node,
            "start": t0,
            "dur": time.time() - t0,
            "cpu": (time.process_time() - cpu0) if cpu0 is not None else None,
            "rows": rows,
        }
    )
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, (line + "\n").encode())
    finally:
        os.close(fd)


def _split_block_timed(table: pa.Table, n_partitions: int, bucket_col: str) -> list[pa.Table]:
    t0 = time.time()
    out = _split_block(table, n_partitions, bucket_col)
    _prof("split", t0, table.num_rows)
    return out


def _as_table(p):
    """num_returns=1 makes a split task's single output the 1-element list
    itself — unwrap it so reducers always see tables."""
    return p[0] if isinstance(p, list) else p


def _split_block(table: pa.Table, n_partitions: int, bucket_col: str) -> list[pa.Table]:
    """One stable argsort + boundary search → P *compact* gathered tables.

    Each partition is materialized with ``take`` — NOT ``slice``: pyarrow
    pickles a slice with its parent's FULL buffers (measured: a 1/64 slice
    of an 18.5 MB block pickles at 18.5 MB), so returning slices from a Ray
    task amplifies the exchange 64× and drives plasma into spilling.  The
    takes cost one full gather per block (~40 ms at 300k rows) and pickle
    at true partition size."""
    import numpy as np

    if table.num_rows == 0:
        # Ray Data skips map UDFs on empty input blocks, so an empty block
        # may arrive without the bucket column (even schema-less) — fan it
        # out as-is; reducers ignore 0-row parts.
        return [table] * n_partitions
    if table.column(0).num_chunks > 1:
        # a reduce-side table arrives as ~P concatenated chunks; take() on a
        # many-chunk table does a per-index chunk search (measured 10× the
        # hop-1 reduce when a pass-through kernel stopped compacting) — one
        # combine pass up front keeps every take O(rows)
        table = table.combine_chunks()
    b = table.column(bucket_col).to_numpy(zero_copy_only=False)
    order = np.argsort(b, kind="stable")
    sorted_b = b[order]
    bounds = np.searchsorted(sorted_b, np.arange(n_partitions + 1))
    return [
        table.take(order[bounds[p] : bounds[p + 1]]) for p in range(n_partitions)
    ]


def fused_two_hop_exchange(
    ds,
    *,
    key1_col: str,
    n1: int,
    reduce1: Callable[[pa.Table], pa.Table],
    key2_col: str,
    n2: int,
    reduce2: Callable[[pa.Table], pa.Table],
    map_fn: Callable[[pa.Table], pa.Table] | None = None,
):
    """TWO all-to-alls fused into one raw-task DAG (dedup hop → writer hop).

    Motivation (measured): chaining two Ray Data sort shuffles in one
    streaming plan is pathological — the same link→dedup(groupby)→
    shard(groupby) chain ran 89 s fused-by-Ray vs 32 s executed stage by
    stage at 307k rows, and showed 65–145 s bimodal walls at 19.6M rows
    (ROADMAP #1).  With int bucket keys known up front, neither hop needs
    sampling or sorting:

        map:     split each input block by ``key1_col`` → n1 parts
        hop 1:   per bucket p — concat parts, ``reduce1`` (dedup +
                 shard-assign), split by ``key2_col`` → n2 parts
        hop 2:   per shard q — concat parts, ``reduce2`` (sorted
                 sequential Jelly encode + manifest)

    No barrier beyond the data dependencies themselves: a hop-1 task starts
    as soon as *its* parts exist; a hop-2 task as soon as all hop-1 outputs
    for its shard exist.  Everything stays zero-copy Arrow in plasma.

    ``reduce1`` must be total (applied to empty tables too — it defines the
    hop-2 schema) and must leave ``key2_col`` ∈ [0, n2) on its output;
    ``reduce2`` must accept an empty table.  Determinism: both reduces see
    the full contents of their partition; ours sort internally.

    ``map_fn`` (optional) runs inside each map-side task BEFORE the split —
    fusing the last narrow transform (e.g. link + key + local pre-dedup)
    into the exchange avoids materializing that transform's output as a
    second full copy of the dataset in the object store.
    """
    import ray

    def _split1(table: pa.Table, n_: int, key: str):
        if map_fn is not None:
            t0, c0 = time.time(), time.process_time()
            table = map_fn(table)
            _prof("map_fused", t0, table.num_rows, c0)
        return _split_block_timed(table, n_, key)

    split1 = ray.remote(num_returns=n1)(_split1)

    def _mid(n2_: int, key2: str, *parts: pa.Table):
        t0 = time.time()
        parts = [_as_table(p) for p in parts]
        tables = [p for p in parts if p.num_rows]
        t = pa.concat_tables(tables, promote_options="default") if tables else parts[0]
        out = _split_block(reduce1(t), n2_, key2)
        _prof("mid", t0, t.num_rows)
        return out

    def _final(*parts: pa.Table):
        t0, c0 = time.time(), time.process_time()
        parts = [_as_table(p) for p in parts]
        tables = [p for p in parts if p.num_rows]
        t = pa.concat_tables(tables, promote_options="default") if tables else parts[0]
        out = reduce2(t)
        _prof("final", t0, t.num_rows, c0)
        return out

    mid = ray.remote(num_returns=n2)(_mid)
    final = ray.remote(_final)

    # materialize() BEFORE taking refs: to_arrow_refs() on a lazy dataset
    # drives execution through the driver's ref-bundle iterator (measured
    # 171 s vs 7 s for the same 19.6M-row map stage) and then calls
    # .schema(fetch_if_missing=True), which re-executes the whole upstream
    # under a limit-1 plan (another 52 s).  On a materialized dataset both
    # are metadata lookups.
    t0 = time.time()
    block_refs = ds.materialize().to_arrow_refs()
    if not block_refs:
        return ds
    _prof("drv_materialize", t0, len(block_refs))
    t0 = time.time()
    per_bucket: list[list] = [[] for _ in range(n1)]
    for ref in block_refs:
        outs = split1.remote(ref, n1, key1_col)
        if n1 == 1:
            outs = [outs]
        for p, r in enumerate(outs):
            per_bucket[p].append(r)
    per_shard: list[list] = [[] for _ in range(n2)]
    for parts in per_bucket:
        outs = mid.remote(n2, key2_col, *parts)
        if n2 == 1:
            outs = [outs]
        for q, r in enumerate(outs):
            per_shard[q].append(r)
    out_refs = [final.remote(*parts) for parts in per_shard]
    _prof("drv_submit", t0, len(out_refs))
    t0 = time.time()
    out = ray.data.from_arrow_refs(out_refs)
    _prof("drv_from_refs", t0, len(out_refs))
    return out


def hash_exchange_pair(
    left,
    right,
    *,
    left_bucket_col: str,
    right_bucket_col: str,
    n_partitions: int,
    reduce_fn: Callable[[pa.Table, pa.Table], pa.Table],
):
    """Two-sided all-to-all: co-partition two Datasets by their int bucket
    columns and apply ``reduce_fn(left_part, right_part)`` per partition
    (the primitive under :func:`pyjelly_ray.stages.joins.hash_join`).

    Both bucket columns MUST use the same hash of the join key so equal
    keys land in the same partition.  Empty-side parts arrive as 0-row
    tables with the side's schema; ``reduce_fn`` must accept them.
    """
    import ray

    split = ray.remote(num_returns=n_partitions)(_split_block)

    def _reduce(n_left: int, *parts: pa.Table):
        parts = [_as_table(p) for p in parts]

        def _concat(ps):
            live = [p for p in ps if p.num_rows]
            if not live:
                return max(ps, key=lambda p: p.num_columns)
            return pa.concat_tables(live, promote_options="default")

        return reduce_fn(_concat(parts[:n_left]), _concat(parts[n_left:]))

    reduce_remote = ray.remote(_reduce)

    left_refs = left.materialize().to_arrow_refs()
    right_refs = right.materialize().to_arrow_refs()
    if not left_refs or not right_refs:
        # degenerate: a side has no blocks; both are tiny — reduce on driver
        import ray as _ray

        lt = _collect_empty_safe(left)
        rt = _collect_empty_safe(right)
        return _ray.data.from_arrow(reduce_fn(lt, rt))

    part_refs: list[list] = [[] for _ in range(n_partitions)]
    n_left_parts = len(left_refs)
    for refs, col in ((left_refs, left_bucket_col), (right_refs, right_bucket_col)):
        for ref in refs:
            outs = split.remote(ref, n_partitions, col)
            if n_partitions == 1:
                outs = [outs]
            for p, r in enumerate(outs):
                part_refs[p].append(r)
    reduced = [reduce_remote.remote(n_left_parts, *parts) for parts in part_refs]
    return ray.data.from_arrow_refs(reduced)


def _collect_empty_safe(ds) -> pa.Table:
    batches = list(ds.iter_batches(batch_format="pyarrow"))
    if batches:
        return pa.concat_tables(batches, promote_options="default")
    schema = ds.schema()
    schema = getattr(schema, "base_schema", schema)  # Ray wraps pyarrow.Schema
    return schema.empty_table()


def hash_exchange(
    ds,
    *,
    bucket_col: str,
    n_partitions: int,
    reduce_fn: Callable[[pa.Table], pa.Table],
    reduce_empty: bool = False,
    empty_base: pa.Table | None = None,
):
    """All-to-all by an int bucket column with a per-partition reduce.

    Returns a new Dataset of ``reduce_fn`` outputs (one block per
    partition).  ``bucket_col`` values MUST lie in [0, n_partitions).

    ``reduce_empty``: when True, ``reduce_fn`` is applied to empty
    partitions too (on an empty concat of the parts) so every output block
    carries the reduced schema — required when downstream unions blocks.
    When False (default), an all-empty partition passes ``parts[0]``
    through unreduced (for reducers that can't handle zero rows).

    ``empty_base``: 0-row table standing in for an all-empty partition's
    input.  Ray Data skips map UDFs on empty blocks, so when EVERY upstream
    block of a partition was empty, the parts can be schema-less 0-column
    tables; with ``empty_base`` the reduce runs on (or passes through) a
    table with the operator's real input schema instead.
    """
    import ray

    split = ray.remote(num_returns=n_partitions)(_split_block)

    def _reduce(*parts: pa.Table):
        parts = [_as_table(p) for p in parts]
        live = [p for p in parts if p.num_rows]
        if not live:
            # pick a part that still carries the schema (0-row blocks that
            # skipped upstream UDFs can be schema-less)
            base = max(parts, key=lambda p: p.num_columns)
            if empty_base is not None and base.num_columns < empty_base.num_columns:
                base = empty_base
            return reduce_fn(base) if reduce_empty else base
        return reduce_fn(pa.concat_tables(live, promote_options="default"))

    reduce_remote = ray.remote(_reduce)

    # materialize first: to_arrow_refs() on a lazy dataset drives execution
    # through the driver's ref-bundle iterator and re-executes upstream for
    # schema resolution (see fused_two_hop_exchange's measured note).
    block_refs = ds.materialize().to_arrow_refs()
    if not block_refs:
        return ds
    part_refs: list[list] = [[] for _ in range(n_partitions)]
    for ref in block_refs:
        outs = split.remote(ref, n_partitions, bucket_col)
        if n_partitions == 1:
            outs = [outs]
        for p, r in enumerate(outs):
            part_refs[p].append(r)
    reduced = [reduce_remote.remote(*parts) for parts in part_refs]
    return ray.data.from_arrow_refs(reduced)


def default_partitions(small: bool = False) -> int:
    """Exchange fan-out default, env-tunable for bigger clusters.

    ``GRAFT_NUM_PARTITIONS`` overrides the single-node default (16; the
    ordered/quantile operators use half).  On a multi-node deployment set it
    so one partition of the largest keyed exchange fits a worker's heap —
    the operators are all O(|partition|) in memory, never O(|dataset|).
    """
    import os

    base = int(os.environ.get("GRAFT_NUM_PARTITIONS", "16"))
    return max(1, base // 2) if small else base

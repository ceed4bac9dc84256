"""Exact statement dedup (SURVEY.md §2.5) — the pipeline's big shuffle.

Scale-aware design (measured, see BASELINE.md):

1. **Vectorized keys**: the statement key is a 128-bit hash (two seeded
   64-bit xxhashes via polars — no per-row Python; 64-bit alone would
   collide ~n²/2⁶⁵ times at 10¹²-row scale, 128-bit is safe).  The int
   shuffle ``bucket`` comes from the same hash.
2. **No payload duplication**: rows travel as their original columns plus
   20 bytes of key — an earlier design packed every row into one sortable
   string, doubling shuffle bytes and driving the object store into
   spilling at tens of millions of rows.
3. **Local pre-dedup** inside ``map_batches`` (no shuffle): sort by
   ``(h1, h2, repo, path, seq)`` + consecutive-equality mask — the combiner
   that shrinks the exchange to distinct-per-block.
4. **Global dedup sharded by the int bucket**: one sort shuffle on a
   small-int column; each bucket group deduped with the same vectorized
   sort+mask kernel.
5. The representative row is the minimum ``(repo, path, seq)`` per key —
   deterministic under any execution order.

Skew: bucket keys are uniform hash values — no salting needed here (hot
*repos* skew the writer partitioning; handled in sinks/jelly_sink.py).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

STMT_COLS = ("s_kind", "s_value", "p_kind", "p_value", "o_kind", "o_value", "o_lex", "o_lang", "o_dt")
_SEP = "\x1f"
_NULL = "\x00"

#: target rows per dedup bucket — keeps a bucket's reduce working set
#: roughly LLC-sized (measured in sinks/jelly_sink.py: capping fan-out made
#: per-bucket rows grow with the corpus and the reduce superlinear).
ROWS_PER_BUCKET = 200_000

#: fan-out ceiling; 65k buckets × 200k rows ≈ 1.3e10 statements/job —
#: beyond that raise GRAFT_MAX_BUCKETS (buckets are hash-disjoint, so jobs
#: over key ranges also compose).  Read at call time (not import time) so
#: tests and deployments can retune without re-importing.
DEFAULT_MAX_BUCKETS = 65536


def _max_buckets() -> int:
    import os

    return int(os.environ.get("GRAFT_MAX_BUCKETS", str(DEFAULT_MAX_BUCKETS)))


def auto_buckets(est_rows: int | None = None, ds=None) -> int:
    """Data-driven dedup fan-out: ~ROWS_PER_BUCKET rows per bucket.

    ``est_rows`` is the caller's pre-dedup row estimate (exact when the
    pipeline already counted, e.g. repo_counts in the KG sink).  Without
    it we ask the Dataset for a metadata-backed count (cheap for parquet
    reads; never forces execution — unknown ⇒ fall back to the exchange
    default fan-out scaled 4×, which a 100-TB caller overrides via
    GRAFT_NUM_PARTITIONS).
    """
    from ..state.exchange import default_partitions

    if est_rows is None and ds is not None:
        try:  # metadata-only; returns None rather than executing the plan
            est_rows = ds._meta_count()
        except Exception:
            est_rows = None
    base = default_partitions()
    if not est_rows:
        return base * 4
    return min(_max_buckets(), max(base, int(est_rows // ROWS_PER_BUCKET) + 1))


def _col_hash64(col, seed: int):
    """Seeded 64-bit polars hash of one column → numpy uint64."""
    import polars as pl

    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    return pl.Series("d", col).hash(seed=seed).to_numpy()


def add_tkey(batch: pa.Table, n_buckets: int) -> pa.Table:
    """Vectorized 128-bit statement key (h1, h2) + int shuffle bucket.

    Per-column seeded hashes combined with two independent polynomial
    accumulators — no joined-string materialization (the old
    ``binary_join_element_wise`` over 9 columns was ~60% of this stage's
    wall, and string concatenation was also ambiguous if a value ever
    contained the separator).  Key equality across batches is preserved:
    the combine depends only on (column order, values), both
    schema-stable."""
    import numpy as np

    n = batch.num_rows
    a1 = np.zeros(n, np.uint64)
    a2 = np.zeros(n, np.uint64)
    P1 = np.uint64(0x100000001B3)
    P2 = np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):
        for c in STMT_COLS:
            if c not in batch.column_names:
                continue
            col = batch.column(c)
            a1 = a1 * P1 + _col_hash64(col, 1)
            a2 = a2 * P2 + _col_hash64(col, 2)
    bucket = ((a1 & np.uint64(0x7FFFFFFF)).astype(np.int64) % n_buckets).astype(
        np.int32
    )
    for c in ("h1", "h2", "bucket"):
        if c in batch.column_names:
            batch = batch.drop_columns([c])
    batch = batch.append_column("h1", pa.array(a1))
    batch = batch.append_column("h2", pa.array(a2))
    return batch.append_column("bucket", pa.array(bucket))


def dedup_block(batch: pa.Table) -> pa.Table:
    """Vectorized within-table dedup keeping min-(repo, path, seq) per key.

    The old kernel sorted the WHOLE table by the 5-key
    (h1, h2, rank(repo), rank(path), seq) order; but only duplicate runs
    ever need the tie-break, and most rows are unique.  New shape
    (VERDICT r2 #2 "move the local dedup cost down"):

    1. ``np.lexsort`` the two uint64 key columns only (no payload moves);
    2. all-unique ⇒ return the batch UNMODIFIED (zero copies — the common
       map-side case after the first local combine);
    3. otherwise rank/tie-break ONLY the duplicate-run rows (dense ranks
       are order-isomorphic per column, so the subset min equals the
       batch-wide min) and filter the originals in place.

    Row order: unique rows keep their input order (the old kernel returned
    key-sorted order; no caller depends on it — the writer re-sorts by
    (repo, path, seq) and Dataset block order is unordered anyway).
    """
    if batch.num_rows <= 1:
        return batch
    import numpy as np

    names = batch.column_names
    h1 = batch.column("h1").combine_chunks().to_numpy(zero_copy_only=False)
    h2 = batch.column("h2").combine_chunks().to_numpy(zero_copy_only=False)
    # phase 1: single-key argsort on h1 (≈10× cheaper than a 2-key
    # lexsort); equal-h1 runs are the only possible (h1, h2) duplicates
    si = np.argsort(h1)
    h1s = h1[si]
    starts = np.concatenate([[True], h1s[1:] != h1s[:-1]])
    run_sizes = np.bincount(np.cumsum(starts) - 1)
    if len(run_sizes) == batch.num_rows:
        return batch  # all h1 unique ⇒ all keys unique — nothing to do
    cand = si[np.repeat(run_sizes > 1, run_sizes)]  # candidate original rows
    # phase 2: exact (h1, h2) grouping on the (small) candidate set
    ch1, ch2 = h1[cand], h2[cand]
    o = np.lexsort((ch2, ch1))
    cand = cand[o]
    c1, c2 = ch1[o], ch2[o]
    starts2 = np.concatenate([[True], (c1[1:] != c1[:-1]) | (c2[1:] != c2[:-1])])
    run_id2 = np.cumsum(starts2) - 1
    run_sizes2 = np.bincount(run_id2)
    if len(run_sizes2) == len(cand):
        return batch  # h1 collisions only — no true duplicates
    dup_sorted = np.repeat(run_sizes2 > 1, run_sizes2)
    dup_rows = cand[dup_sorted]  # original indices, grouped by run
    keep = np.ones(batch.num_rows, bool)
    keep[dup_rows] = False
    sub = batch.take(pa.array(dup_rows))
    rid = run_id2[dup_sorted]
    tie: list[np.ndarray] = []
    str_keys = [c for c in ("repo", "path") if c in names]
    if str_keys:
        from ..arrowutil import rank_keys

        tie = [
            r.to_numpy(zero_copy_only=False).astype(np.int64)
            for r in rank_keys(sub, str_keys)
        ]
    if "seq" in names:
        tie.append(sub.column("seq").combine_chunks().to_numpy(zero_copy_only=False))
    if tie:
        order = np.lexsort(tuple(reversed(tie)) + (rid,))
        rid_o = rid[order]
        first = np.concatenate([[True], rid_o[1:] != rid_o[:-1]])
        winners = dup_rows[order[first]]
    else:
        # no tie-break columns: deterministic winner = smallest original
        # row index per run (dup_rows is grouped by run, so a min-reduce
        # at run starts suffices)
        rstarts = np.concatenate([[True], rid[1:] != rid[:-1]])
        winners = np.minimum.reduceat(dup_rows, np.flatnonzero(rstarts))
    keep[winners] = True
    return batch.filter(pa.array(keep))


def strip_key_columns(batch: pa.Table) -> pa.Table:
    drop = [c for c in ("h1", "h2", "bucket") if c in batch.column_names]
    return batch.drop_columns(drop) if drop else batch


def dedup_exact(ds, n_buckets: int | None = None, *, est_rows: int | None = None,
                strategy: str = "sort"):
    """Dataset-level exact dedup; deterministic representative per key.

    add_tkey (map_batches) → local sort+mask combine → bucket exchange →
    per-bucket sort+mask → strip key columns.

    ``n_buckets`` defaults to :func:`auto_buckets` — sized from
    ``est_rows`` (or the Dataset's metadata count when available) at
    ~ROWS_PER_BUCKET rows/bucket, so a 10× input gets ~10× buckets instead
    of 10× rows per bucket.

    ``strategy``: "sort" (Ray's groupby sort shuffle; fastest measured
    here) or "exchange" (explicit raw-task hash exchange — more objects
    through plasma, kept for clusters where the sort path degrades).
    """
    if n_buckets is None:
        n_buckets = auto_buckets(est_rows, ds)
    keyed = ds.map_batches(lambda b: add_tkey(b, n_buckets), batch_format="pyarrow")
    combined = keyed.map_batches(dedup_block, batch_format="pyarrow")
    if strategy == "exchange":
        from ..state.exchange import hash_exchange

        deduped = hash_exchange(
            combined, bucket_col="bucket", n_partitions=n_buckets, reduce_fn=dedup_block
        )
    else:
        deduped = combined.groupby("bucket").map_groups(
            dedup_block, batch_format="pyarrow"
        )
    return deduped.map_batches(strip_key_columns, batch_format="pyarrow")


def dedup_keep_latest(ds, keys: list[str] | str, order_col: str,
                      tiebreak: list[str] | None = None):
    """Keep the most recent row per key (``row_number() OVER (PARTITION BY
    keys ORDER BY order_col DESC, tiebreak) = 1``).

    The recency dedup every changelog/CDC-style training corpus needs
    (latest crawl per URL, latest revision per doc).  Rides
    :func:`~pyjelly_ray.stages.agg.grouped_topk` k=1: each batch is cut to
    one candidate per key map-side, so the exchange carries |keys| rows,
    not |rows| — the skew-safe shape at 100 TB.  ``tiebreak`` columns make
    the winner deterministic under equal timestamps.
    """
    from .agg import grouped_topk

    return grouped_topk(ds, keys, order_col, 1, descending=True,
                        tiebreak=tiebreak)


def merge_upsert(base, changes, *, key: str, op_col: str = "op",
                 seq_col: str | None = None, num_partitions: int | None = None):
    """Apply a CDC change set onto a base table (SQL ``MERGE`` semantics).

    ``changes`` carries the base's columns plus ``op_col`` ∈
    {"insert", "update", "delete"} (insert/update are treated alike:
    last write wins) and optionally ``seq_col`` ordering multiple changes
    per key.  One keyed exchange: both sides union-tagged, each partition
    sorted once by ``(key, side, seq)`` and cut at run ends — the winner
    per key is the LAST row (changes sort after base; latest change last),
    dropped when it is a delete.  Exchange volume = |base| + |changes|
    rows, exactly once each — the resumable-lakehouse upsert shape.
    """
    import numpy as np

    from .agg import _key_run_bounds, grouped_map  # type: ignore

    from ..state.exchange import default_partitions

    num_partitions = num_partitions or default_partitions()

    def tag(side: int):
        def f(b: pa.Table) -> pa.Table:
            cols = {c: b.column(c) for c in b.column_names}
            if op_col not in cols:
                cols[op_col] = pa.array(["base"] * b.num_rows, pa.string())
            if seq_col is None:
                if "__seq" not in cols:
                    cols["__seq"] = pa.array(np.zeros(b.num_rows, np.int64))
            elif seq_col not in cols:
                # base rows carry a NULL seq so every partition can sort,
                # even one that received no change rows (side already
                # orders base before changes)
                cols[seq_col] = pa.nulls(b.num_rows, pa.int64())
            cols["__side"] = pa.array(np.full(b.num_rows, side, np.int64))
            return pa.table(cols)

        return f

    tagged = base.map_batches(tag(0), batch_format="pyarrow").union(
        changes.map_batches(tag(1), batch_format="pyarrow")
    )
    order = [key, "__side", seq_col or "__seq"]

    def part(t: pa.Table) -> pa.Table:
        drop = [
            c for c in ("__side", "__seq", seq_col) if c and c in t.column_names
        ]
        if t.num_rows == 0:
            return t.drop_columns(drop + [op_col]) if op_col in t.column_names else t
        t = t.sort_by([(c, "ascending") for c in order])
        bounds = _key_run_bounds(t, [key])
        last = np.asarray(bounds[1:]) - 1
        winners = t.take(pa.array(last))
        keep = pc.invert(pc.equal(winners.column(op_col), "delete"))
        return winners.filter(keep).drop_columns(drop + [op_col])

    return grouped_map(tagged, key, part, per_group=False,
                       num_partitions=num_partitions)


def survivorship_merge(ds, *, group_col: str, order_col: str,
                       cols: list[str], tiebreak: str | None = None,
                       n_name: str = "n_merged"):
    """Golden-record survivorship: collapse each duplicate group to ONE
    row where every field independently takes its LATEST NON-NULL value
    (by ``order_col``) — the MDM merge rule that outlives keep-latest
    (which drops older rows' still-valid fields).  NULL only when a field
    was never observed.  Also emits ``n_merged`` (rows absorbed).

    One keyed hash exchange; the partition kernel is one sort plus, per
    column, a segmented ``maximum.accumulate`` over observed positions
    (exactly the LOCF machinery) read off at each run's end — no
    per-group Python.
    """
    def part(t: pa.Table) -> pa.Table:
        import numpy as np
        import pyarrow as pa

        from ..stages.agg import _key_run_bounds

        key_t = t.schema.field(group_col).type
        if t.num_rows == 0:
            return pa.table(
                {group_col: pa.array([], key_t),
                 **{c: pa.array([], t.schema.field(c).type) for c in cols},
                 n_name: pa.array([], pa.int64())}
            )
        sort_keys = [(group_col, "ascending"), (order_col, "ascending")] + (
            [(tiebreak, "ascending")] if tiebreak else []
        )
        t = t.sort_by(sort_keys)
        bounds = _key_run_bounds(t, [group_col])
        ends = bounds[1:] - 1
        idx = np.arange(t.num_rows)
        out = {group_col: t.column(group_col).take(pa.array(bounds[:-1], pa.int64()))}
        for c in cols:
            arr = t.column(c)
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            valid = ~np.asarray(arr.is_null())
            pos = np.where(valid, idx, -1)
            for s, e in zip(bounds[:-1], bounds[1:]):
                np.maximum.accumulate(pos[s:e], out=pos[s:e])
            last = pos[ends]
            take = pa.array(np.where(last >= 0, last, 0), pa.int64())
            vals = arr.take(take)
            mask = pa.array(last < 0)
            out[c] = pa.compute.if_else(mask, pa.scalar(None, arr.type), vals)
        out[n_name] = pa.array(np.diff(bounds), pa.int64())
        return pa.table(out)

    from .agg import grouped_map

    return grouped_map(ds, group_col, part, per_group=False)

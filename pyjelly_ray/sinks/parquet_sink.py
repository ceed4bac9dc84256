"""Resumable partitioned-Parquet sink.

The brief's output contract at 100 TB: write one file per deterministic
key-range/partition — never one giant file — so a failed run skips
finished partitions on retry.  Ray's own ``Dataset.write_parquet`` names
files per block nondeterministically, so a rerun cannot tell what is
already done.  This sink instead:

1. buckets rows by ``hash(partition_cols) % num_partitions``
   (:func:`pyjelly_ray.stages.agg.bucket_codes` — deterministic across
   runs and cluster sizes);
2. one exchange reduce per partition sorts its rows by the partition
   columns (byte-deterministic files) and writes
   ``part-{p:05d}.parquet`` via tmp-file + atomic rename;
3. a partition whose file already exists is SKIPPED (``skip_existing``),
   so a rerun after failure only writes the missing partitions;
4. every reduce emits a manifest row (partition, path, rows, bytes,
   written|skipped) — the lineage surface a driver checks.

Reference parity: mirrors the sharded Jelly writer's resume contract
(`sinks/jelly_sink.py::ShardJellyWriter`, reference
pyjelly/integrations/generic/generic_sink.py serialize-to-file surface),
re-expressed for Parquet tables.
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq


def _write_atomic(table: pa.Table, path: str) -> None:
    """tmp-write + atomic rename; sweeps stale ``.tmp.<pid>`` orphans first.

    tmp names carry the writer's pid (two tasks retrying the same partition
    must not clobber each other's tmp), so a crashed run's orphans would
    otherwise persist forever — a fresh writer owns the partition and may
    clear them.
    """
    for stale in glob.glob(path + ".tmp.*"):
        try:
            os.remove(stale)
        except OSError:
            pass  # another live writer may have just renamed it
    tmp = path + f".tmp.{os.getpid()}"
    pq.write_table(table, tmp)
    os.replace(tmp, path)  # atomic publish: readers never see partials


def write_partitioned_parquet(
    ds,
    out_dir: str,
    *,
    partition_cols: list[str] | str,
    num_partitions: int = 64,
    skip_existing: bool = True,
):
    """Write ``ds`` as ``num_partitions`` deterministic Parquet files.

    Returns a Dataset of manifest rows ``(partition, path, rows, bytes,
    status)``.  Rows with equal ``partition_cols`` values land in the same
    file; within a file rows are sorted by ``partition_cols`` so reruns
    are byte-deterministic.
    """
    from ..stages.agg import bucket_codes
    from ..state.exchange import hash_exchange

    partition_cols = (
        [partition_cols] if isinstance(partition_cols, str) else list(partition_cols)
    )
    os.makedirs(out_dir, exist_ok=True)

    def add_bucket(b: pa.Table) -> pa.Table:
        return b.append_column(
            "__bucket", pa.array(bucket_codes(b, partition_cols, num_partitions))
        )

    tagged = ds.map_batches(add_bucket, batch_format="pyarrow", batch_size=None)

    def write_partition(t: pa.Table) -> pa.Table:
        if "__bucket" in t.column_names:
            buckets = t.column("__bucket")
            p = int(buckets[0].as_py()) if t.num_rows else -1
            t = t.drop_columns(["__bucket"])
        else:
            p = -1
        manifest = {
            "partition": pa.array([p], pa.int64()),
            "rows": pa.array([t.num_rows], pa.int64()),
        }
        if p < 0 or t.num_rows == 0:
            # empty partition: nothing on disk, manifest records zero rows
            manifest["path"] = pa.array([""], pa.string())
            manifest["bytes"] = pa.array([0], pa.int64())
            manifest["status"] = pa.array(["empty"], pa.string())
            return pa.table(manifest)
        path = os.path.join(out_dir, f"part-{p:05d}.parquet")
        manifest["path"] = pa.array([path], pa.string())
        if skip_existing and os.path.exists(path):
            manifest["bytes"] = pa.array([os.path.getsize(path)], pa.int64())
            manifest["status"] = pa.array(["skipped"], pa.string())
            return pa.table(manifest)
        t = t.sort_by([(c, "ascending") for c in partition_cols])
        _write_atomic(t, path)
        manifest["bytes"] = pa.array([os.path.getsize(path)], pa.int64())
        manifest["status"] = pa.array(["written"], pa.string())
        return pa.table(manifest)

    return hash_exchange(
        tagged,
        bucket_col="__bucket",
        n_partitions=num_partitions,
        reduce_fn=write_partition,
        reduce_empty=True,
    )


_HIVE_NULL = "__HIVE_DEFAULT_PARTITION__"


def _hive_component(col: str, value) -> str:
    from urllib.parse import quote

    if value is None:
        return f"{col}={_HIVE_NULL}"
    return f"{col}={quote(str(value), safe='')}"


def write_hive_parquet(
    ds,
    out_dir: str,
    *,
    partition_cols: list[str] | str,
    num_partitions: int = 64,
    skip_existing: bool = True,
):
    """Write one ``col=value/.../part.parquet`` directory per DISTINCT
    partition-column combination (standard hive layout — readable by
    pyarrow ``partitioning="hive"``, DuckDB, Spark).

    Same resume contract as :func:`write_partitioned_parquet` (atomic
    rename, existing files skipped, manifest rows returned), but the
    file-per-value layout suits LOW-cardinality keys (split, lang, date):
    the file count is the number of distinct combos, not a fixed hash
    width.  High-cardinality keys want the hash-partitioned variant.
    Partition columns are dropped from the file (they're in the path).
    ``num_partitions`` sizes the underlying exchange; each reduce writes
    every combo it holds.
    """
    from ..stages.agg import _key_run_bounds, grouped_map

    partition_cols = (
        [partition_cols] if isinstance(partition_cols, str) else list(partition_cols)
    )
    os.makedirs(out_dir, exist_ok=True)
    manifest_empty = pa.table(
        {
            "path": pa.array([], pa.string()),
            "rows": pa.array([], pa.int64()),
            "bytes": pa.array([], pa.int64()),
            "status": pa.array([], pa.string()),
        }
    )

    def write_groups(t: pa.Table) -> pa.Table:
        """One key-sorted exchange partition → one file per combo in it."""
        if t.num_rows == 0:
            return manifest_empty
        t = t.sort_by([(c, "ascending") for c in partition_cols])
        bounds = _key_run_bounds(t, partition_cols)
        paths, rows, sizes, statuses = [], [], [], []
        for i in range(len(bounds) - 1):
            g = t.slice(bounds[i], bounds[i + 1] - bounds[i])
            comps = [_hive_component(c, g.column(c)[0].as_py()) for c in partition_cols]
            d = os.path.join(out_dir, *comps)
            path = os.path.join(d, "part-0.parquet")
            paths.append(path)
            rows.append(g.num_rows)
            if skip_existing and os.path.exists(path):
                sizes.append(os.path.getsize(path))
                statuses.append("skipped")
                continue
            os.makedirs(d, exist_ok=True)
            body = g.drop_columns(partition_cols)
            # byte-deterministic files: canonical order by the sortable
            # (non-nested) columns; nested payloads ride along
            sortable = [
                f.name for f in body.schema if not pa.types.is_nested(f.type)
            ]
            if sortable:
                body = body.sort_by([(c, "ascending") for c in sortable])
            _write_atomic(body, path)
            sizes.append(os.path.getsize(path))
            statuses.append("written")
        return pa.table(
            {
                "path": pa.array(paths, pa.string()),
                "rows": pa.array(rows, pa.int64()),
                "bytes": pa.array(sizes, pa.int64()),
                "status": pa.array(statuses, pa.string()),
            }
        )

    return grouped_map(
        ds,
        partition_cols,
        write_groups,
        per_group=False,
        num_partitions=num_partitions,
        empty_schema=manifest_empty,
    )

"""Jelly output: sharded delimited streams + lineage manifests + resume.

Two writers (SURVEY.md §2.1 "grouped/flat_stream_to_file" → Ray mapping):

- :func:`dedup_and_write_kg_shards` — the KG pipeline sink.  Statements
  are globally deduped, then bucketed by ``hash(repo) % n_shards`` (graph
  locality; the hot repo is split further by path hash — salting), each
  bucket is written by ONE :class:`ShardJellyWriter` call with a fresh
  encoder after an in-group sort by ``(repo, path, seq)`` so shard bytes
  are deterministic regardless of execution order (SURVEY.md §4.2
  'ordering').  Each shard writes ``.tmp`` → fsync → atomic rename, then a
  manifest JSON (input fingerprint, counts, sha256 roll-up).  On resume,
  shards whose manifest matches are skipped without re-encoding.

- :class:`JellyDatasink` — generic ``ds.write_datasink(...)`` sink for any
  flattened-statement Dataset: one independent delimited stream per write
  task (the format's unit of parallelism).
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.compute as pc

from ..jelly.encode import StreamEncoder
from ..jelly.options import (
    LOGICAL_FLAT_QUADS,
    PHYSICAL_GRAPHS,
    PHYSICAL_QUADS,
    StreamOptions,
)
from ..terms import KIND_BNODE, KIND_DEFAULT, KIND_IRI, KIND_LITERAL


def rows_to_terms(batch: pa.Table):
    """Yield statement term-tuples from a flattened statement table.

    Tables with generalized-statement columns (``s_lex``/``p_lex``/…, see
    :func:`pyjelly_ray.sources.jelly_source.statements_to_table`) rebuild
    literal terms in any slot; the common shape takes the lean path below.
    """
    names = batch.column_names
    has_g = "g_kind" in names
    n = batch.num_rows
    none_col = [None] * n

    def col(name):
        return batch.column(name).to_pylist() if name in names else none_col

    if "s_lex" in names or "p_lex" in names or "g_lex" in names:

        def term(kind, value, lex, lang, dt):
            if kind == KIND_LITERAL:
                return (KIND_LITERAL, lex or "", lang, dt)
            if kind == KIND_DEFAULT:
                return (KIND_DEFAULT, None, None, None)
            return (kind, value, None, None)

        slots = [
            ("s_kind", "s_value", "s_lex", "s_lang", "s_dt"),
            ("p_kind", "p_value", "p_lex", "p_lang", "p_dt"),
            ("o_kind", "o_value", "o_lex", "o_lang", "o_dt"),
        ]
        if has_g:
            slots.append(("g_kind", "g_value", "g_lex", "g_lang", "g_dt"))
        cols = [tuple(col(c) for c in slot) for slot in slots]
        for i in range(n):
            yield tuple(
                term(k[i], v[i], lx[i], lg[i], dt[i]) for k, v, lx, lg, dt in cols
            )
        return

    if has_g:
        rows = zip(
            col("s_kind"), col("s_value"), col("p_kind"), col("p_value"),
            col("o_kind"), col("o_value"), col("o_lex"), col("o_lang"), col("o_dt"),
            col("g_kind"), col("g_value"),
        )
        for sk, sv, pk, pv, ok, ov, olex, olang, odt, gk, gv in rows:
            o = (
                (KIND_LITERAL, olex or "", olang, odt)
                if ok == KIND_LITERAL
                else (ok, ov, None, None)
            )
            g = (KIND_DEFAULT, None, None, None) if gk == KIND_DEFAULT else (gk, gv, None, None)
            yield ((sk, sv, None, None), (pk, pv, None, None), o, g)
    else:
        rows = zip(
            col("s_kind"), col("s_value"), col("p_kind"), col("p_value"),
            col("o_kind"), col("o_value"), col("o_lex"), col("o_lang"), col("o_dt"),
        )
        for sk, sv, pk, pv, ok, ov, olex, olang, odt in rows:
            o = (
                (KIND_LITERAL, olex or "", olang, odt)
                if ok == KIND_LITERAL
                else (ok, ov, None, None)
            )
            yield ((sk, sv, None, None), (pk, pv, None, None), o)


def _maybe_fsync(f) -> None:
    """fsync before the atomic rename — ON by default (a crash can never
    surface a torn shard).  GRAFT_FSYNC=0 opts out for bulk loads: measured
    at 2× bench corpus, per-shard fsync stalls cost 189 core-s once the
    write volume trips the host's dirty-page threshold; without it a
    POWER-LOSS (not process-crash) window exists where a renamed shard has
    unflushed data — acceptable when the run is resumable anyway (a bad
    shard fails validation and rewrites on the next run)."""
    if os.environ.get("GRAFT_FSYNC", "1") != "0":
        os.fsync(f.fileno())


def _write_stream_table(
    path: str, table: pa.Table, options: StreamOptions
) -> tuple[int, int]:
    """Encode a statement table into one delimited stream at ``path``.

    Uses the columnar fast-path encoder (byte-identical, ~4× faster — see
    jelly/encode_fast.py) when the table shape allows, else falls back to the
    general per-statement encoder.
    """
    import time as _time

    from ..jelly.encode_fast import encode_table
    from ..state.exchange import _prof

    chunks = encode_table(table, options)
    if chunks is None:
        return _write_stream(path, rows_to_terms(table), options)
    tmp = path + ".tmp"
    total = 0
    t_io = 0.0
    t0 = _time.time()
    with open(tmp, "wb") as f:
        for chunk in chunks:
            ti = _time.time()
            total += f.write(chunk)
            t_io += _time.time() - ti
        ti = _time.time()
        f.flush()
        _maybe_fsync(f)
        t_io += _time.time() - ti
    os.replace(tmp, path)
    _prof("w_enc_cpu", t0 + t_io, table.num_rows)  # start shifted: dur = total - io
    _prof("w_enc_io", _time.time() - t_io, table.num_rows)
    return table.num_rows, total


def _write_stream(path: str, statements, options: StreamOptions) -> tuple[int, int]:
    """Encode statements into one delimited stream at ``path`` (tmp+rename).

    PHYSICAL_GRAPHS emits graph_start/triple…/graph_end marker rows at
    graph-term changes (a bare triple row outside graph bounds — or a quad
    row — is nonconformant in that physical type; mirrors encode_grouped).
    """
    tmp = path + ".tmp"
    n = 0
    total = 0
    enc = StreamEncoder(options)
    quads = options.physical_type in (PHYSICAL_QUADS,)
    graphs = options.physical_type == PHYSICAL_GRAPHS
    _unset = object()
    cur_g: object = _unset
    with open(tmp, "wb") as f:
        for stmt in statements:
            if graphs:
                g = (
                    stmt[3]
                    if len(stmt) == 4
                    else (KIND_DEFAULT, None, None, None)
                )
                if cur_g is _unset or g != cur_g:
                    if cur_g is not _unset:
                        out = enc.graph_end()
                        if out:
                            total += f.write(out)
                    enc.graph_start(g)
                    cur_g = g
                out = enc.triple(stmt[0], stmt[1], stmt[2])
            elif quads:
                out = enc.quad(stmt[0], stmt[1], stmt[2], stmt[3])
            else:
                out = enc.triple(stmt[0], stmt[1], stmt[2])
            n += 1
            if out:
                total += f.write(out)
        if graphs and cur_g is not _unset:
            out = enc.graph_end()
            if out:
                total += f.write(out)
        tail = enc.flush()
        if tail:
            total += f.write(tail)
        f.flush()
        _maybe_fsync(f)
    os.replace(tmp, path)
    return n, total


def _sha_xor(shas) -> str:
    """Order-insensitive roll-up of per-row sha256 hex digests."""
    acc = 0
    for s in set(shas):
        if s:
            acc ^= int(s, 16)
    return f"{acc:064x}"


def _row_fingerprint(group: pa.Table) -> str:
    """Order-insensitive fingerprint of the shard's EXACT deduped rows
    (statement terms AND provenance sort keys), xor of combined per-column
    hashes.  This is the incremental-rebuild skip key: the shard's bytes
    are a pure function of its row multiset (the writer sorts by
    (repo, path, seq), which the hash covers), so equal fingerprint +
    row count ⇒ byte-identical output — even when a corpus delta changed
    symbol resolution or dedup winners elsewhere.  The content-sha roll-up
    (``sha256_xor``) can NOT serve here: a shard whose own files are
    unchanged still changes bytes when a new file elsewhere wins a dedup
    tie or adds a symbol that re-links this shard's objects."""
    import numpy as np

    from ..stages.dedup import STMT_COLS, _col_hash64

    acc = np.zeros(group.num_rows, np.uint64)
    with np.errstate(over="ignore"):
        for c in (*STMT_COLS, "repo", "path", "seq"):
            if c in group.column_names:
                acc = acc * np.uint64(0x100000001B3) + _col_hash64(group.column(c), 5)
    x = int(np.bitwise_xor.reduce(acc)) if len(acc) else 0
    return f"{x:016x}-{group.num_rows}"


def _sort_by_ranks(group: pa.Table, order: list[str]) -> pa.Table:
    """Deterministic multi-key sort via integer ranks (bandwidth-lean).

    Equivalent to ``group.sort_by`` on string keys, but the comparator only
    touches two int32 columns: string keys are dictionary-encoded once, the
    (small) dictionary is sorted, and each row gets its key's rank.  On a
    430k-row shard with ~40k distinct (repo, path) pairs this cuts the sort
    from ~1 s (10+ s under full-node memory contention) to ~0.1 s — the
    string comparisons were the traffic, not the gather.
    """
    from ..arrowutil import sort_by_ranked

    str_keys = [c for c in order if c != "seq"]
    return sort_by_ranked(group, str_keys, ["seq"] if "seq" in order else [])


MANIFEST_SCHEMA = pa.schema(
    [
        ("shard", pa.string()),
        ("path", pa.string()),
        ("n_statements", pa.int64()),
        ("n_bytes", pa.int64()),
        ("n_files", pa.int64()),
        ("sha256_xor", pa.string()),
        ("row_xor", pa.string()),
        ("status", pa.string()),
    ]
)


class ShardJellyWriter:
    """``map_groups`` callable: one shard group → one .jelly file + manifest row."""

    def __init__(self, out_dir: str, options: StreamOptions | None = None) -> None:
        self.out_dir = out_dir
        self.options = options or StreamOptions()
        os.makedirs(out_dir, exist_ok=True)
        os.makedirs(os.path.join(out_dir, "manifests"), exist_ok=True)

    @staticmethod
    def _skip(manifest_path: str, prev: dict, fingerprint: str) -> pa.Table:
        """Report an unchanged shard as skipped.  Equal rows guarantee
        identical BYTES, but the contributing source-file set (sha256_xor)
        can still differ (e.g. comment-only edits that extract to the same
        statements), so it is refreshed on disk: a stale one would make
        pending_shards() report this shard pending forever.  The on-disk
        status stays as it was; the returned row says "skipped"."""
        if prev.get("sha256_xor") != fingerprint:
            tmp = manifest_path + ".tmp"
            with open(tmp, "w") as f:
                json.dump({**prev, "sha256_xor": fingerprint}, f)
            os.replace(tmp, manifest_path)
        row = {**prev, "sha256_xor": fingerprint, "status": "skipped"}
        return pa.Table.from_pylist([row], schema=MANIFEST_SCHEMA)

    def __call__(self, group: pa.Table) -> pa.Table:
        import time as _time

        from ..state.exchange import _prof

        if group.num_rows == 0:  # an unpopulated shard slot (fused exchange)
            return MANIFEST_SCHEMA.empty_table()
        # multi-node posture: __init__ ran on the driver; (re)create on this node
        os.makedirs(os.path.join(self.out_dir, "manifests"), exist_ok=True)
        shard = f"{group.column('shard')[0].as_py():05d}"
        kin_any = None
        if "kin" in group.column_names:
            kin_any = pc.any(group.column("kin")).as_py()
            group = group.drop_columns(["kin"])
        out_path = os.path.join(self.out_dir, f"part-{shard}.jelly")
        manifest_path = os.path.join(self.out_dir, "manifests", f"part-{shard}.json")
        prev = None  # the shard's previous manifest, if it still counts this group
        if os.path.exists(manifest_path) and os.path.exists(out_path):
            with open(manifest_path) as f:
                prev = json.load(f)
            if prev.get("n_statements") != group.num_rows:
                prev = None

        t0 = _time.time()
        shas = (
            pc.unique(group.column("content_sha256")).to_pylist()
            if "content_sha256" in group.column_names
            else []
        )
        fingerprint = _sha_xor(shas)  # lineage: which source files fed this shard
        if (
            kin_any is False
            and prev is not None
            and prev.get("status") in ("written", "skipped")
        ):
            # incremental-rebuild proof: no row's statement key is in the
            # delta set K ⇒ this shard's row multiset (and so its bytes) is
            # unchanged — skip the sort AND the row fingerprint, not just
            # the encode.  Guarded by the row-count invariant; any mismatch
            # falls through to the normal path (where row_xor still rules).
            return self._skip(manifest_path, prev, fingerprint)
        row_xor = _row_fingerprint(group)  # exact skip key (see docstring)
        _prof("w_fingerprint", t0, group.num_rows)
        # resume/incremental: skip shards whose exact row multiset is
        # unchanged (⇒ byte-identical output) — crash resume AND
        # appended-corpus incremental rebuilds both ride this check
        if prev is not None and prev.get("row_xor") == row_xor:
            return self._skip(manifest_path, prev, fingerprint)

        t0 = _time.time()
        order = [c for c in ("repo", "path", "seq") if c in group.column_names]
        if order:
            group = _sort_by_ranks(group, order)
        _prof("w_sort", t0, group.num_rows)

        t0 = _time.time()
        n, total = _write_stream_table(out_path, group, self.options)
        _prof("w_encode", t0, group.num_rows)
        t0 = _time.time()
        manifest = {
            "shard": shard,
            "path": out_path,
            "n_statements": n,
            "n_bytes": total,
            "n_files": group.select(["repo", "path"]).group_by(["repo", "path"]).aggregate([]).num_rows
            if "repo" in group.column_names
            else 0,
            "sha256_xor": fingerprint,
            "row_xor": row_xor,
            "status": "written",
        }
        _prof("w_manifest", t0, group.num_rows)
        tmp = manifest_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(manifest, f)
        os.replace(tmp, manifest_path)
        return pa.Table.from_pylist([manifest], schema=MANIFEST_SCHEMA)


def hot_repo_splits(
    repo_counts: dict[str, int], n_shards: int
) -> dict[str, tuple[int, int]]:
    """Salting plan: repos above a fair shard share get split by path.

    Returns repo → ``(start_shard, n_sub_shards)`` with sub-shard ids
    allocated *densely* after the ``n_shards`` base shards (deterministic:
    repos in sorted order), so the full shard domain is the contiguous range
    ``[0, total_shard_count())`` — required by the fused bucket exchange.
    """
    total = sum(repo_counts.values()) or 1
    fair = max(total / max(n_shards, 1), 1.0)
    # cap sub-shard size: the per-shard encode is sequential by format
    # design, so the largest shard bounds the write wall — keep it small
    # enough (~300k stmts ≈ 7 s) that parallelism, not one hot repo, wins
    target = max(min(fair / 2, 300_000.0), 1.0)
    # don't salt repos whose whole encode is sub-second anyway — splitting
    # them only multiplies per-shard fixed costs (file + manifest + task)
    min_hot = 100_000
    plan: dict[str, tuple[int, int]] = {}
    start = n_shards
    for repo in sorted(repo_counts):
        cnt = repo_counts[repo]
        if cnt > fair and cnt > min_hot:
            k = min(max(int(cnt / target), 2), 16 * n_shards)
            plan[repo] = (start, k)
            start += k
    return plan


def total_shard_count(n_shards: int, hot_plan: dict[str, tuple[int, int]] | None) -> int:
    return n_shards + sum(k for _, k in (hot_plan or {}).values())


def _mod(arr, n: int):
    import pyarrow.compute as pc

    i = pc.cast(pc.bit_wise_and(arr, pa.scalar(0x7FFFFFFF, pa.uint64())), pa.int64())
    return pc.subtract(i, pc.multiply(pc.divide(i, n), n))


def _str_hash(col, seed: int):
    """Per-row polars hash of a string column."""
    import polars as pl

    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    return pl.Series("d", col).hash(seed=seed).to_arrow()


def add_shard_column(n_shards: int, hot_plan: dict[str, tuple[int, int]] | None = None):
    """map_batches fn assigning ``shard = hash(repo) % n_shards``; hot repos
    are salted by path hash into their dense ``(start, splits)`` range from
    :func:`hot_repo_splits` (deterministic: same plan → same bytes).  Fully
    vectorized (polars hash + Arrow arithmetic) — no per-row Python."""
    import pyarrow.compute as pc

    hot_plan = dict(hot_plan or {})

    def _assign(batch: pa.Table) -> pa.Table:
        repos = batch.column("repo").combine_chunks()
        rhash = _str_hash(repos, 7)
        base = pc.cast(_mod(rhash, n_shards), pa.int32())
        if hot_plan:
            paths = batch.column("path").combine_chunks()
            phash = _str_hash(paths, 11)
            keys = sorted(hot_plan)
            hot_keys = pa.array(keys, pa.string())
            hot_starts = pa.array([hot_plan[k][0] for k in keys], pa.int64())
            hot_splits = pa.array([hot_plan[k][1] for k in keys], pa.int64())
            pos = pc.index_in(repos, value_set=hot_keys)
            starts = pc.take(hot_starts, pos)  # null where not hot
            splits = pc.take(hot_splits, pos)
            ph = pc.cast(pc.bit_wise_and(phash, pa.scalar(0x7FFFFFFF, pa.uint64())), pa.int64())
            salted = pc.add(
                starts, pc.subtract(ph, pc.multiply(pc.divide(ph, splits), splits))
            )
            shard = pc.cast(
                pc.if_else(pc.is_valid(pos), salted, pc.cast(base, pa.int64())), pa.int32()
            )
        else:
            shard = base
        if "shard" in batch.column_names:
            batch = batch.drop_columns(["shard"])
        return batch.append_column("shard", shard)

    return _assign


def compute_shard_plan(repo_counts, n_shards: int):
    """The fused sink's sizing decisions, extracted so the incremental
    narrowing (state/incremental.py) can compute and compare plans without
    running the exchange.  ``repo_counts`` is the per-repo pre-dedup
    statement count from ``collect_stats``.  Returns (n_buckets, n_shards,
    hot_plan, n_total).
    """
    repo_counts = repo_counts or {}
    total = sum(repo_counts.values())
    # adaptive fan-out: ~200k statements per dedup bucket, else per-object
    # overhead dominates small inputs (measured: 64 buckets cost ~9 s of
    # pure scheduling at 307k rows).  The cap must be LARGE: capping at 64
    # made per-bucket rows grow with the corpus, turning the dedup reduce
    # superlinear under concurrency (measured 13.6× task time at 2× corpus
    # — working sets blow past the shared LLC).  1024 buckets × ~200k rows
    # ≈ 200M statements per job; beyond that, raise the cap or split the
    # input (buckets are hash-disjoint, so jobs over key ranges compose).
    n_buckets = min(1024, max(8, int(total // 200_000) + 1))
    if total:
        # size-aware fan-out: the per-shard encode is a sequential fold (format
        # design), so the LARGEST shard bounds the write wall; target ~250k
        # statements per shard (≈0.4 s compiled encode uncontended) and let the
        # caller's n_shards act as a minimum.  Also bounds per-task working
        # sets, which is what saturates single-node memory bandwidth at high
        # concurrency.  GRAFT_SHARD_TARGET tunes statements/shard per
        # deployment (more+smaller shards pack better at high parallelism,
        # fewer+larger amortize per-file overhead).
        target = int(os.environ.get("GRAFT_SHARD_TARGET", "250000"))
        # cap bounds exchange fan-out on one box; a 100-TB deployment wants
        # ~|statements|/target shards (resume granularity + parallelism) —
        # raise GRAFT_MAX_SHARDS there (shards are independent files, so
        # the only cost is per-file overhead)
        max_shards = int(os.environ.get("GRAFT_MAX_SHARDS", "2048"))
        n_shards = max(n_shards, min(int(total // target) + 1, max_shards))
    hot_plan = hot_repo_splits(repo_counts, n_shards)
    return n_buckets, n_shards, hot_plan, total_shard_count(n_shards, hot_plan)


def dedup_and_write_kg_shards(
    ds,
    out_dir: str,
    n_shards: int = 16,
    options: StreamOptions | None = None,
    repo_counts: dict[str, int] | None = None,
    pre_map=None,
    inc_keys=None,
    write_cache: bool = False,
):
    """Fused sink: exact dedup + repo-sharded Jelly write as ONE two-hop
    raw-task exchange (state/exchange.py) instead of two chained Ray sort
    shuffles (measured 2.8× faster and non-bimodal — ROADMAP #1).

    map:   [pre_map (e.g. the linker) →] add 128-bit statement key + int
           bucket, local pre-dedup combine — all fused into the exchange's
           map-side tasks so the keyed stream is never materialized as a
           second full dataset copy in the object store
    hop 1: per-bucket global dedup → assign (salted, dense) shard ids
    hop 2: per-shard sorted sequential Jelly encode + manifest/resume

    With ``write_cache`` each map task also writes its block's pre-dedup
    rows to the triple cache (``state.incremental.write_block_cache``).
    """
    from ..stages.dedup import add_tkey, dedup_block
    from ..state.exchange import fused_two_hop_exchange
    from ..state.incremental import write_block_cache

    n_buckets, n_shards, hot_plan, n_total = compute_shard_plan(repo_counts, n_shards)
    assign = add_shard_column(n_shards, hot_plan)
    writer = ShardJellyWriter(out_dir, options)

    def key_map(b: pa.Table, i: int) -> pa.Table:
        import time as _time

        from ..state.exchange import _prof

        if b.num_rows == 0:  # empty blocks can arrive schema-less
            return b

        unlinked = b
        t0, c0 = _time.time(), _time.process_time()
        if pre_map is not None:
            b = pre_map(b)
        _prof("km_link", t0, b.num_rows, c0)
        t0, c0 = _time.time(), _time.process_time()
        b = add_tkey(b, n_buckets)
        _prof("km_tkey", t0, b.num_rows, c0)
        if write_cache:  # before the local dedup: the cache holds every row
            write_block_cache(out_dir, unlinked, b, assign, n_total, i)
        if inc_keys is not None:
            # incremental rebuild (state/incremental.py): mark rows whose
            # statement key is in the delta set K — a pure function of the
            # key, so dedup keeps it consistent across duplicate rows and
            # the writer can prove per shard "no row changed" without any
            # extra corpus scan
            import ray as _ray

            from ..state.incremental import kin_mask

            k = _ray.get(inc_keys) if isinstance(inc_keys, _ray.ObjectRef) else inc_keys
            if "kin" in b.column_names:
                b = b.drop_columns(["kin"])
            b = b.append_column("kin", pa.array(kin_mask(b, k)))
        t0, c0 = _time.time(), _time.process_time()
        b = dedup_block(b)
        _prof("km_dedup", t0, b.num_rows, c0)
        return b

    def dedup_assign(t: pa.Table) -> pa.Table:
        t = assign(dedup_block(t))
        drop = [c for c in ("h1", "h2", "bucket") if c in t.column_names]
        return t.drop_columns(drop) if drop else t

    return fused_two_hop_exchange(
        ds,
        key1_col="bucket",
        n1=n_buckets,
        reduce1=dedup_assign,
        key2_col="shard",
        n2=n_total,
        reduce2=writer,
        map_fn=key_map,
    )


try:  # Datasink requires ray at import; keep module importable without it
    from ray.data import Datasink
    from ray.data.block import Block, BlockAccessor

    class JellyDatasink(Datasink):
        """Generic sink: each write task emits one independent .jelly stream."""

        def __init__(self, path: str, options: StreamOptions | None = None) -> None:
            self.path = path
            self.options = options or StreamOptions()
            self._quads = self.options.physical_type == PHYSICAL_QUADS

        def on_write_start(self) -> None:
            os.makedirs(self.path, exist_ok=True)

        def write(self, blocks, ctx):
            # ctx is Ray's TaskContext (duck-typed here: only .task_idx is
            # used, so no import from ray.data._internal — a private module
            # whose path moves across Ray releases).
            idx = ctx.task_idx
            out = os.path.join(self.path, f"part-{idx:06d}.jelly")
            tables = [
                t
                for t in (BlockAccessor.for_block(b).to_arrow() for b in blocks)
                if t.num_rows and "s_kind" in t.column_names  # empty splits arrive schema-less
            ]
            if not tables:
                return "ok"  # don't leave options-only streams behind
            _write_stream_table(
                out, pa.concat_tables(tables, promote_options="default"), self.options
            )
            return "ok"

    HAVE_RAY = True
except ImportError:  # pragma: no cover
    HAVE_RAY = False


def flat_quads_options(**kw) -> StreamOptions:
    return StreamOptions(
        physical_type=PHYSICAL_QUADS, logical_type=LOGICAL_FLAT_QUADS, **kw
    )

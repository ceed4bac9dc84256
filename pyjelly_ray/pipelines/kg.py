"""End-to-end KG construction pipeline (the flagship, BASELINE.json north_star).

    read_parquet(corpus)                      # column-pruned, streaming
      → map_batches(ingest_sha256)            # per-row invariant column
      → map_batches(TripleExtractor)          # stateless fan-out, Arrow
      → collect_stats                         # symbol dict + repo counts
      → dedup_and_write_kg_shards             # one fused two-hop exchange:
                                              # link + key (map side),
                                              # global dedup (hop 1),
                                              # repo-bucketed, sorted,
                                              # deterministic Jelly bytes,
                                              # manifests + resume (hop 2)

Every stage is a Dataset transform; nothing materializes the corpus.  The
driver (or bench.py) owns the Ray session.
"""

from __future__ import annotations

from ..jelly.options import StreamOptions
from ..stages.extract import extract_batch, ingest_sha256
from ..stages.link import SymbolLinker, collect_symbol_dict, prepare_link_index


def read_corpus(path, columns=None, override_num_blocks: int | None = None):
    import ray

    if override_num_blocks is None:
        # block count must scale with INPUT BYTES, not stay fixed at a
        # cluster-shaped constant: a fixed count makes per-task working
        # sets grow linearly with the corpus, which turns the map stage
        # superlinear under concurrency (measured 4× task time at 2×
        # corpus) and would OOM at 100 TB.  Target ~48 MB of parquet per
        # block; the cpu×2 floor still spreads small inputs.
        import os

        import pyarrow.parquet as pq

        # row count from parquet FOOTERS (no data read) — disk bytes
        # under-estimate working sets by the compression ratio.  Footers
        # are read in a thread pool: serially this was ~1.3 s of driver
        # wall for a 64-file corpus (~8% of the whole build).
        nrows = 0
        files = None
        try:
            files = (
                sorted(
                    os.path.join(path, f)
                    for f in os.listdir(path)
                    if f.endswith(".parquet")
                )
                if os.path.isdir(path)
                else [path]
            )
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=min(16, max(1, len(files)))) as ex:
                nrows = sum(
                    m.num_rows for m in ex.map(pq.read_metadata, files)
                )
        except OSError:
            files = None
        by_rows = nrows // 30_000 + 1  # ~30k source files per block
        override_num_blocks = max(
            int(ray.cluster_resources().get("CPU", 8)) * 2, 16, int(by_rows)
        )
        # pass the EXPLICIT file list: a directory path makes the
        # read_parquet constructor walk/expand it serially (~1.1 s of
        # driver wall on a 64-file corpus, measured r5); the sorted
        # listing we already made for the footer scan skips that entirely
        # (0.06 s) and keeps fragment order deterministic
        if files:
            path = files
    return ray.data.read_parquet(
        path,
        columns=columns or ["repo", "path", "commit", "lang", "content"],
        override_num_blocks=override_num_blocks,
    )


def extract_triples(corpus_ds, *, batch_size: int | None = None):
    """corpus → linked KG triples (no dedup yet)."""
    hashed = corpus_ds.map_batches(ingest_sha256, batch_format="pyarrow", batch_size=batch_size)
    return hashed.map_batches(extract_batch, batch_format="pyarrow", batch_size=batch_size)


def link_triples(triples_ds, *, use_actors: bool = False, concurrency=(2, 8)):
    """Two passes over the triple stream: small-side dict build + broadcast link.

    The dict pass combines down to ≤|symbols| rows; the link pass reads the
    ``ray.put`` dict from the object store (task path by default — zero
    warm-up; set ``use_actors=True`` for the actor-pool variant when the
    setup cost amortizes, e.g. a model-backed linker).

    Broadcast overflow (symbol cardinality past GRAFT_LINK_BROADCAST_MAX —
    hundreds of millions of names, where a per-node copy of the index no
    longer fits): the dictionary stays a hash-partitioned Dataset and
    linking runs through co-partitioned joins instead
    (:func:`~pyjelly_ray.stages.link.link_triples_partitioned`).
    """
    import ray

    from ..stages.link import (
        collect_symbol_dict_ds,
        link_broadcast_max,
        link_triples_partitioned,
        make_linker_task,
        prepare_link_index,
    )

    limit = link_broadcast_max()
    if limit <= 0:  # forced partitioned path (tests / extreme deployments)
        return link_triples_partitioned(
            triples_ds, collect_symbol_dict_ds(triples_ds)
        )
    sym_table = collect_symbol_dict(triples_ds)  # Arrow (name, iri), sorted
    if sym_table.num_rows > limit:
        return link_triples_partitioned(
            triples_ds, ray.data.from_arrow(sym_table)
        )

    sym_ref = ray.put(prepare_link_index(sym_table))  # hash-sorted, built once
    if use_actors:
        return triples_ds.map_batches(
            SymbolLinker,
            fn_constructor_args=(sym_ref,),
            batch_format="pyarrow",
            concurrency=concurrency,
        )
    return triples_ds.map_batches(make_linker_task(sym_ref), batch_format="pyarrow")


def _stats_batch(batch):
    """One combined small-side pass: symbol candidates + per-repo counts.

    Emitted as a union table (kind 's'/'r') so ONE scan of the triple
    stream feeds both driver folds.
    """
    import pyarrow as pa

    from ..stages.link import _batch_min_by_name, build_symbol_dict_batch

    if batch.num_rows == 0 or "p_value" not in batch.column_names:
        # empty blocks skip upstream UDFs and can arrive schema-less
        return pa.table(
            {
                "kind": pa.array([], pa.string()),
                "name": pa.array([], pa.string()),
                "iri": pa.array([], pa.string()),
                "cnt": pa.array([], pa.int64()),
            }
        )
    # local combine BEFORE shipping to the driver: candidates shrink to
    # distinct-per-block (without this the driver folds the raw stream)
    sym = _batch_min_by_name(build_symbol_dict_batch(batch))
    reps = batch.group_by(["repo"]).aggregate([("repo", "count")])
    n_s, n_r = sym.num_rows, reps.num_rows
    return pa.table(
        {
            "kind": pa.array(["s"] * n_s + ["r"] * n_r, pa.string()),
            "name": pa.concat_arrays(
                [sym.column("name").combine_chunks(), reps.column("repo").combine_chunks()]
            ),
            "iri": pa.concat_arrays(
                [sym.column("iri").combine_chunks(), pa.nulls(n_r, pa.string())]
            ),
            "cnt": pa.concat_arrays(
                [
                    pa.nulls(n_s, pa.int64()),
                    reps.column("repo_count").combine_chunks(),
                ]
            ),
        }
    )


def _stats_batch_reg(batch):
    """_stats_batch plus kind-'f' file-registry rows (name = repo␟path,
    iri = content_sha256) so the incremental rebuild's registry rides the
    SAME single stats scan (min-merge is idempotent on the unique shas)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    base = _stats_batch(batch)
    if batch.num_rows == 0 or "content_sha256" not in batch.column_names:
        return base
    f = (
        pa.table(
            {
                "name": pc.binary_join_element_wise(
                    batch.column("repo").cast(pa.string()),
                    batch.column("path").cast(pa.string()),
                    "\x1f",
                ),
                "iri": batch.column("content_sha256").cast(pa.string()),
            }
        )
        .group_by(["name"])
        .aggregate([("iri", "min")])
    )
    n = f.num_rows
    if n == 0:
        return base
    ftab = pa.table(
        {
            "kind": pa.array(["f"] * n, pa.string()),
            "name": f.column("name"),
            "iri": f.column("iri_min"),
            "cnt": pa.nulls(n, pa.int64()),
        }
    )
    return pa.concat_tables([base, ftab], promote_options="default")


def _merge_stats(*tables):
    """Combine union stats tables: min(iri) per symbol name, sum(cnt) per
    repo — associative, so it serves as both the tree-merge kernel and the
    final driver combine.  Polars does the group_by when available (4×
    faster than Arrow's on the 2.6M-row string-keyed driver merge — 1.45 s
    → 0.35 s at sf0.1, r4 profile); output schema is pinned back to the
    Arrow input schema so both paths are interchangeable (values agree:
    lexicographic string min, int sum over the non-null kind)."""
    import pyarrow as pa

    live = [t for t in tables if t.num_rows]
    if not live:
        return tables[0]
    t = pa.concat_tables(live, promote_options="default")
    try:
        import polars as pl

        g = (
            pl.from_arrow(t)
            .group_by(["kind", "name"])
            .agg(pl.col("iri").min(), pl.col("cnt").sum())
            .to_arrow()
            .select(["kind", "name", "iri", "cnt"])
        )
        return g.cast(t.schema)
    except ImportError:
        g = t.group_by(["kind", "name"]).aggregate([("iri", "min"), ("cnt", "sum")])
        return g.select(["kind", "name", "iri_min", "cnt_sum"]).rename_columns(
            ["kind", "name", "iri", "cnt"]
        )


def collect_stats(triples_ds, *, use_refs: bool | None = None,
                  with_registry: bool = False):
    """Single scan → (symbol Arrow table, repo_counts dict[, registry]).

    On a MATERIALIZED dataset the scan runs as one raw task per block over
    ``to_arrow_refs()`` (zero-copy plasma reads, no second streaming-executor
    pass — saves ~2 s of fixed per-run cost that would otherwise dilute
    scaling efficiency).  Falls back to a ``map_batches`` pass for lazy
    datasets.

    The symbol table is NOT name-sorted: resolution is a pure per-name
    function (names are unique after the min-merge), so downstream link
    output is byte-identical regardless of table order, and the sort was
    ~0.6 s of serial driver wall (r4 profile).  A pre-merge task level was
    likewise re-measured SLOWER than one flat multithreaded driver
    group_by over the per-block combined tables (2.7 s → 1.9 s end-to-end
    stats at sf0.1) — per-block combine already shrinks the stream.
    """
    import pyarrow as pa

    fn = _stats_batch_reg if with_registry else _stats_batch
    if use_refs is None:
        use_refs = triples_ds.__class__.__name__ == "MaterializedDataset"
    if use_refs:
        import ray

        stat = ray.remote(fn)
        refs = [stat.remote(r) for r in triples_ds.to_arrow_refs()]
        tables = [t for t in ray.get(refs) if t.num_rows]
    else:
        tables = [
            b
            for b in triples_ds.map_batches(
                fn, batch_format="pyarrow"
            ).iter_batches(batch_format="pyarrow")
            if b.num_rows
        ]
    if not tables:
        empty = pa.table({"name": pa.array([], pa.string()), "iri": pa.array([], pa.string())})
        return (empty, {}, None) if with_registry else (empty, {})
    merged = _merge_stats(*tables)
    import pyarrow.compute as pc

    syms = merged.filter(pc.equal(merged.column("kind"), "s"))
    reps = merged.filter(pc.equal(merged.column("kind"), "r"))
    sym_table = syms.select(["name", "iri"])
    repo_counts = dict(
        zip(reps.column("name").to_pylist(), reps.column("cnt").to_pylist())
    )
    if not with_registry:
        return sym_table, repo_counts
    files = merged.filter(pc.equal(merged.column("kind"), "f"))
    parts = pc.split_pattern(files.column("name").combine_chunks(), "\x1f")
    registry = pa.table(
        {
            "repo": pc.list_element(parts, 0),
            "path": pc.list_element(parts, 1),
            "content_sha256": files.column("iri").cast(pa.string()),
        }
    ).sort_by([("repo", "ascending"), ("path", "ascending"), ("content_sha256", "ascending")])
    return sym_table, repo_counts, registry


def build_kg(
    corpus_path,
    out_dir: str,
    *,
    n_shards: int = 16,
    jelly_options: StreamOptions | None = None,
    materialize_triples: bool = True,
):
    """Full pipeline; returns the manifest Dataset (consuming it runs the job).

    Two memory strategies, both with ONE combined stats scan (symbol
    dictionary + hot-repo counts):

    - ``materialize_triples=True`` (default): the triple stream (content
      column already dropped — ~10× smaller than the corpus) is pinned in
      the object store and feeds the stats scan and the link→dedup→write
      chain.  Fastest when aggregate plasma across the cluster holds the
      triples (measured ~3× faster than streaming at 20M triples: shuffles
      with fat fused upstreams schedule poorly).
    - ``materialize_triples=False``: fully streaming; the corpus is scanned
      twice (stats, then main chain) and nothing is pinned — use when the
      triple stream would spill (plasma-constrained single node).
    """
    import ray

    from ..sinks.jelly_sink import dedup_and_write_kg_shards
    from ..stages.link import make_linker_task

    corpus = read_corpus(corpus_path)
    triples = extract_triples(corpus)
    if materialize_triples:
        triples = triples.materialize()
    from ..stages.link import link_broadcast_max

    limit = link_broadcast_max()
    sym_table = repo_counts = None
    if limit > 0:
        sym_table, repo_counts = collect_stats(triples)
    if limit <= 0 or sym_table.num_rows > limit:
        # broadcast-overflow posture: symbol dictionary stays distributed,
        # linking runs through co-partitioned joins; byte-identical shards
        # (writer sort is deterministic) — pinned in tests
        from ..sinks.jelly_sink import collect_repo_counts
        from ..stages.link import collect_symbol_dict_ds, link_triples_partitioned

        if repo_counts is None:
            repo_counts = collect_repo_counts(triples)
        sym_ds = (
            ray.data.from_arrow(sym_table)
            if sym_table is not None
            else collect_symbol_dict_ds(triples)
        )
        linked = link_triples_partitioned(triples, sym_ds)
        return dedup_and_write_kg_shards(
            linked, out_dir, n_shards=n_shards, options=jelly_options,
            repo_counts=repo_counts,
        )
    # hash-sorted index built ONCE — as a Ray task, so the ~0.6 s build
    # overlaps the exchange launch instead of blocking the driver (the
    # linker tasks ray.get the ref either way; task-output refs and
    # ray.put refs read identically from plasma)
    sym_ref = ray.remote(prepare_link_index).remote(sym_table)
    # dedup + shard-write as one two-hop raw-task exchange (no Ray sort
    # shuffles; measured 2.8× faster and non-bimodal — ROADMAP #1).  The
    # linker runs INSIDE the exchange's map tasks (pre_map): the linked+
    # keyed stream is never materialized as a second full plasma copy.
    return dedup_and_write_kg_shards(
        triples, out_dir, n_shards=n_shards, options=jelly_options,
        repo_counts=repo_counts, pre_map=make_linker_task(sym_ref),
    )


def incremental_build_kg(
    corpus_path,
    out_dir: str,
    *,
    n_shards: int = 16,
    jelly_options: StreamOptions | None = None,
):
    """Symbol-delta narrowed rebuild (state/incremental.py).

    For an ADD-ONLY corpus delta with an unchanged shard plan, proves
    which shards cannot have changed (no new-file rows, no re-linked
    names, no statement-key collisions with changed rows) inside the
    fused exchange: rows are tagged on the map side, and a shard with no
    tagged row after global dedup never sorts, never re-encodes, and its
    files/manifests are left untouched on disk.  Anything the
    proof can't cover (first build, modified/removed files, plan or
    options drift) falls back to a full build (where the per-shard
    row_xor skip still applies).

    CONSUMES the pipeline (unlike :func:`build_kg`, which returns lazily)
    and persists the new state; returns a summary dict.
    """
    import ray

    from ..sinks.jelly_sink import compute_shard_plan, dedup_and_write_kg_shards
    from ..stages.link import link_broadcast_max, make_linker_task
    from ..state import incremental as inc

    options = jelly_options or StreamOptions()
    state = inc.load_state(out_dir)

    corpus = read_corpus(corpus_path)
    triples = extract_triples(corpus).materialize()
    limit = link_broadcast_max()
    sym_table = repo_counts = new_registry = None
    if limit > 0:
        # ONE scan: symbol dict + repo counts + file registry together
        sym_table, repo_counts, new_registry = collect_stats(
            triples, with_registry=True
        )
    nb = ns = hp = n_total = None
    if sym_table is not None and sym_table.num_rows <= limit:
        nb, ns, hp, n_total = compute_shard_plan(repo_counts, n_shards)
    plan_dict = (
        {
            "n_shards_arg": n_shards, "n_shards": ns, "n_buckets": nb,
            "hot_plan": {k: list(v) for k, v in (hp or {}).items()},
            "n_total": n_total, "options": repr(options),
        }
        if n_total is not None
        else None
    )

    def full(reason: str) -> dict:
        new_sym_ref = None
        if n_total is not None:
            new_sym_ref = ray.put(prepare_link_index(sym_table))
            manifests = dedup_and_write_kg_shards(
                triples, out_dir, n_shards=n_shards, options=jelly_options,
                repo_counts=repo_counts, pre_map=make_linker_task(new_sym_ref),
            )
        else:  # non-broadcast posture: delegate to build_kg's fallback paths
            manifests = build_kg(
                corpus_path, out_dir, n_shards=n_shards, jelly_options=jelly_options
            )
        n = sum(b.num_rows for b in manifests.iter_batches(batch_format="pyarrow"))
        if plan_dict is not None:  # state only valid for the broadcast path
            inc.persist_state(out_dir, sym_table, new_registry, plan_dict)
        return {"mode": "full", "reason": reason, "shards_written": n,
                "n_total": n_total if n_total is not None else n}

    if n_total is None:
        return full("non-broadcast posture (no narrowing)")
    if state is None:
        return full("no previous state")
    old_sym, old_registry, old_plan = state
    if old_plan.get("options") != repr(options) or old_plan.get("n_shards_arg") != n_shards:
        return full("options or shard argument changed")
    added_shas, add_only = inc.registry_delta(old_registry, new_registry)
    if not add_only:
        return full("modified or removed files (delta not add-only)")
    if plan_dict != old_plan:
        return full("shard plan changed")

    changed_names = inc.symbol_delta(old_sym, sym_table)
    new_sym_ref = ray.put(prepare_link_index(sym_table))
    old_sym_ref = ray.put(prepare_link_index(old_sym))
    delta_keys = inc.collect_delta_keys(
        triples, added_shas, changed_names, new_sym_ref, old_sym_ref, nb
    )

    # the exchange's map pass tags each row kin = (key ∈ K); the writer
    # proves "no changed row" per shard and skips the sort AND fingerprint
    # AND encode — zero extra scans.
    keys_ref = ray.put(delta_keys)
    manifests = dedup_and_write_kg_shards(
        triples, out_dir, n_shards=n_shards, options=jelly_options,
        repo_counts=repo_counts, pre_map=make_linker_task(new_sym_ref),
        inc_keys=keys_ref,
    )
    rows = manifests.take_all()
    written = sum(1 for r in rows if r["status"] == "written")
    skipped = sum(1 for r in rows if r["status"] == "skipped")

    inc.persist_state(out_dir, sym_table, new_registry, plan_dict)
    return {
        "mode": "incremental",
        "n_total": n_total,
        "affected": written,
        "skipped": skipped,
        "changed_names": len(changed_names),
        "delta_keys": int(len(delta_keys)),
        "shards_written": written,
    }


def kg_symbol_pagerank(
    corpus_path,
    *,
    predicates: tuple[str, ...] = ("imports", "calls"),
    damping: float = 0.85,
    iters: int = 8,
    num_partitions: int = 16,
    top_k: int | None = None,
):
    """KG analytics pass: PageRank over the extracted dependency graph.

    corpus → extract → link (canonical symbol IRIs) → distinct
    ``(subject, object)`` edges for the chosen predicates →
    :func:`pyjelly_ray.stages.graph.pagerank`.  Ranks answer "which
    modules/symbols does the corpus lean on" — the standard importance
    signal for curriculum ordering or dedup-priority decisions at corpus
    scale.  Returns ``(node, rank)``; ``top_k`` trims via the distributed
    top-k merge instead of a full sort.
    """
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from ..stages.agg import global_topk, grouped_agg
    from ..stages.extract import ONT
    from ..stages.graph import pagerank
    from ..stages.link import make_linker_task

    corpus = read_corpus(corpus_path)
    triples = extract_triples(corpus).materialize()
    sym_table, _ = collect_stats(triples)
    sym_ref = ray.put(prepare_link_index(sym_table))
    linked = triples.map_batches(make_linker_task(sym_ref), batch_format="pyarrow")

    wanted = pa.array([ONT + p for p in predicates])

    def to_edges(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_in(b.column("p_value"), value_set=wanted))
        return pa.table({"src": b.column("s_value"), "dst": b.column("o_value")})

    edges = linked.map_batches(to_edges, batch_format="pyarrow")
    distinct = grouped_agg(
        edges, ["src", "dst"], [("n", "src", "count")],
        num_partitions=num_partitions,
    ).map_batches(lambda b: b.drop_columns(["n"]), batch_format="pyarrow")
    ranks = pagerank(
        distinct, damping=damping, iters=iters,
        num_partitions=num_partitions, round_to=None,
    )
    if top_k:
        return global_topk(ranks, ["rank", "node"], top_k, descending=[True, False])
    return ranks

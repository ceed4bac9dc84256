"""End-to-end KG construction pipeline (the flagship, BASELINE.json north_star).

One cold build serves :func:`build_kg` and the full builds of
:func:`incremental_build_kg`, whose stats scan also collects the file
registry and whose exchange map tasks also write the triple cache:

    read_parquet(corpus)                      # column-pruned, streaming
      → map_batches(ingest_sha256)            # per-row invariant column
      → map_batches(extract_batch)            # stateless fan-out, Arrow
      → collect_stats                         # symbol dict + repo counts
      → dedup_and_write_kg_shards             # one fused two-hop exchange:
                                              # link + key (map side),
                                              # global dedup (hop 1),
                                              # repo-bucketed, sorted,
                                              # deterministic Jelly bytes,
                                              # manifests + resume (hop 2)

Every stage is a Dataset transform; nothing materializes the corpus.  The
driver (or bench.py) owns the Ray session.

:func:`incremental_build_kg` rebuilds a grown corpus against the state and
triple cache a previous run left under ``<out>/state/``
(state/incremental.py):

    load_state + load_cache                   # or a full build, which
                                              # writes them afresh
      → map_batches(_scan_batch)              # ONE corpus pass: sha256,
                                              # registry rows, extract only
                                              # the files not registered
      → registry_delta                        # add-only, or a full build
      → _merged_stats                         # old symbols + cached repo
                                              # counts + the delta's stats
      → narrow                                # K, affected shards and each
                                              # one's deduped, kin-tagged rows
      → one task per affected shard           # link + ShardJellyWriter; an
                                              # emptied shard's files deleted
      → cache: rewrite re-keyed shards,       # the others only gain a
        persist_state, cache.json             # file of delta rows
"""

from __future__ import annotations

from ..jelly.options import StreamOptions
from ..stages.extract import extract_batch, ingest_sha256
from ..stages.link import make_linker_task, prepare_link_index


def _corpus_files(path) -> list[str]:
    """The Parquet files ``ray.data.read_parquet(path)`` reads, in its order.

    ``path`` is a file, a directory or a list of either.  A directory is
    walked recursively, as Ray walks it: a file or directory whose name
    starts with ``.`` or ``_`` is skipped, and so is a file that does not
    end in ``.parquet``.  Raises ``OSError`` for a path that is not on the
    local filesystem.
    """
    import os

    out = []
    for p in [path] if isinstance(path, (str, os.PathLike)) else path:
        p = os.fspath(p)
        if not os.path.isdir(p):
            if not os.path.isfile(p):
                raise FileNotFoundError(p)
            out.append(p)
            continue
        found = []
        for d, dirs, names in os.walk(p):
            dirs[:] = [n for n in dirs if not n.startswith((".", "_"))]
            found += [
                os.path.join(d, n)
                for n in names
                if n.endswith(".parquet") and not n.startswith((".", "_"))
            ]
        out += sorted(found)
    return out


def read_corpus(path, columns=None, override_num_blocks: int | None = None):
    """Read a source-file corpus (a Parquet file, directory or list of them).

    Without ``override_num_blocks`` the read makes ``max(2 × CPUs, rows /
    30k + 1)`` blocks, and every later fan-out follows that count: extract,
    the stats wave, the exchange map side and the incremental delta-key
    pass.
    """
    import ray

    try:
        # pass the EXPLICIT file list: a directory path makes the
        # read_parquet constructor walk/expand it serially (~1.1 s of
        # driver wall on a 64-file corpus, measured r5); the sorted
        # listing skips that (0.06 s) and keeps fragment order deterministic
        files = _corpus_files(path)
    except OSError:
        files = None  # not a local path: Ray resolves it
    if override_num_blocks is None:
        # Block count scales with the input: a fixed count makes per-task
        # working sets grow linearly with the corpus, which turns the map
        # stage superlinear under concurrency (measured 4× task time at 2×
        # corpus) and would OOM at 100 TB.  ~30k source files per block;
        # the cpu×2 floor spreads small inputs over the session.  There is
        # no constant floor: every block costs a read, an extract, a stats
        # and an exchange map task whatever its size (a floor of 16 was a
        # third of a 15k-file rebuild's wall on one CPU, BASELINE.md).
        #
        # Rows come from parquet FOOTERS (no data read) — disk bytes
        # under-estimate working sets by the compression ratio.  Footers
        # are read in a thread pool: serially this was ~1.3 s of driver
        # wall for a 64-file corpus (~8% of the whole build).
        nrows = 0
        if files:
            from concurrent.futures import ThreadPoolExecutor

            import pyarrow.parquet as pq

            with ThreadPoolExecutor(max_workers=min(16, len(files))) as ex:
                nrows = sum(m.num_rows for m in ex.map(pq.read_metadata, files))
        override_num_blocks = max(
            int(ray.cluster_resources().get("CPU", 8)) * 2, nrows // 30_000 + 1
        )
    return ray.data.read_parquet(
        files or path,
        columns=columns or ["repo", "path", "commit", "lang", "content"],
        override_num_blocks=override_num_blocks,
    )


def extract_triples(corpus_ds, *, batch_size: int | None = None):
    """corpus → linked KG triples (no dedup yet)."""
    hashed = corpus_ds.map_batches(ingest_sha256, batch_format="pyarrow", batch_size=batch_size)
    return hashed.map_batches(extract_batch, batch_format="pyarrow", batch_size=batch_size)


def link_triples(triples_ds):
    """Link a triple stream on its own (outside the fused exchange).

    The same path :func:`build_kg` runs inside its exchange: one stats
    scan folds the symbol table on the Ray driver, the hash-sorted index is
    ``ray.put`` once, and every linker task reads it zero-copy from plasma.
    """
    import ray

    sym_table, _ = collect_stats(triples_ds)
    sym_ref = ray.put(prepare_link_index(sym_table))
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
    final driver combine.  Polars does the group_by (4× faster than
    Arrow's on the 2.6M-row string-keyed driver merge — 1.45 s → 0.35 s at
    sf0.1, r4 profile); the output schema is pinned back to the input's."""
    import polars as pl
    import pyarrow as pa

    live = [t for t in tables if t.num_rows]
    if not live:
        return tables[0]
    t = pa.concat_tables(live, promote_options="default")
    g = (
        pl.from_arrow(t)
        .group_by(["kind", "name"])
        .agg(pl.col("iri").min(), pl.col("cnt").sum())
        .to_arrow()
        .select(["kind", "name", "iri", "cnt"])
    )
    return g.cast(t.schema)


def collect_stats(triples_ds, *, with_registry: bool = False):
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
    if triples_ds.__class__.__name__ == "MaterializedDataset":
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
    sym_table, repo_counts = _split_stats(merged)
    if not with_registry:
        return sym_table, repo_counts
    import pyarrow.compute as pc

    files = merged.filter(pc.equal(merged.column("kind"), "f"))
    parts = pc.split_pattern(files.column("name").combine_chunks(), "\x1f")
    registry = pa.table(
        {
            "repo": pc.list_element(parts, 0),
            "path": pc.list_element(parts, 1),
            "content_sha256": files.column("iri").cast(pa.string()),
        }
    )
    return sym_table, repo_counts, _sort_registry(registry)


def _split_stats(merged):
    """Merged union stats → (symbol table, repo_counts dict)."""
    import pyarrow.compute as pc

    syms = merged.filter(pc.equal(merged.column("kind"), "s"))
    reps = merged.filter(pc.equal(merged.column("kind"), "r"))
    repo_counts = dict(
        zip(reps.column("name").to_pylist(), reps.column("cnt").to_pylist())
    )
    return syms.select(["name", "iri"]), repo_counts


def _sort_registry(registry):
    return registry.sort_by(
        [("repo", "ascending"), ("path", "ascending"), ("content_sha256", "ascending")]
    )


def build_kg(
    corpus_path,
    out_dir: str,
    *,
    n_shards: int = 16,
    jelly_options: StreamOptions | None = None,
    materialize_triples: bool = True,
):
    """Full pipeline; returns the manifest Dataset (consuming it runs the job).

    Linking has one path, shared with :func:`link_triples` and
    :func:`incremental_build_kg`: ``collect_stats`` folds the symbol table
    on the Ray driver, :func:`~pyjelly_ray.stages.link.prepare_link_index`
    builds the hash-sorted index once, and the linker runs inside the
    exchange's map tasks, reading that index zero-copy from plasma (one
    copy per node).  The symbol table must therefore fit on the Ray driver and
    in each node's object store.

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
    return _cold_build(corpus_path, out_dir, n_shards, jelly_options,
                       materialize_triples=materialize_triples)[0]


def _cold_build(corpus_path, out_dir, n_shards, jelly_options, *,
                materialize_triples=True, with_state=False):
    """:func:`build_kg`'s body, also the full build of :func:`incremental_build_kg`.

    Returns ``(manifest Dataset, state)``.  With ``with_state`` the stats
    scan also collects the file registry and the exchange's map tasks write
    a fresh triple cache; ``state`` is then ``(symbol table, repo counts,
    registry, cached row count)``, else None.
    """
    import shutil

    import ray

    from ..sinks.jelly_sink import dedup_and_write_kg_shards
    from ..state import incremental as inc

    triples = extract_triples(read_corpus(corpus_path))
    if materialize_triples:
        triples = triples.materialize()
    stats = collect_stats(triples, with_registry=with_state)
    # hash-sorted index built ONCE — as a Ray task, so the ~0.6 s build
    # overlaps the exchange launch instead of blocking the driver (the
    # linker tasks ray.get the ref either way; task-output refs and
    # ray.put refs read identically from plasma)
    sym_ref = ray.remote(prepare_link_index).remote(stats[0])
    state = None
    if with_state:
        inc.drop_cache_manifest(out_dir)
        shutil.rmtree(inc.state_paths(out_dir)["triples"], ignore_errors=True)
        state = (*stats, triples.count())  # every extracted row is cached
    # dedup + shard-write as one two-hop raw-task exchange (no Ray sort
    # shuffles; measured 2.8× faster and non-bimodal — ROADMAP #1).  The
    # linker runs INSIDE the exchange's map tasks (pre_map): the linked+
    # keyed stream is never materialized as a second full plasma copy.
    return dedup_and_write_kg_shards(
        triples, out_dir, n_shards=n_shards, options=jelly_options,
        repo_counts=stats[1], pre_map=make_linker_task(sym_ref),
        write_cache=with_state,
    ), state


def _registry_key(files):
    """``repo␟path␟content_sha256`` per row: a file's identity in the registry."""
    import pyarrow.compute as pc

    return pc.binary_join_element_wise(
        files.column("repo"), files.column("path"), files.column("content_sha256"), "\x1f"
    )


def _scan_batch(old_keys_ref):
    """map_batches fn of the add-only rebuild's one corpus pass.

    Per corpus block: hash every file's content, emit a registry row for
    each non-empty file (the files that extract to at least one row, as
    the kind-``f`` stats rows do), and extract only the files whose
    ``(repo, path, content_sha256)`` the previous registry does not hold.
    Registry rows ride in the triple schema with a null ``seq`` and null
    statement columns.
    """

    def scan(batch):
        import pyarrow as pa
        import pyarrow.compute as pc
        import ray

        from ..schema import KG_TRIPLE_SCHEMA

        if batch.num_rows == 0 or "content" not in batch.column_names:
            return KG_TRIPLE_SCHEMA.empty_table()
        hashed = ingest_sha256(batch)
        files = hashed.filter(pc.fill_null(pc.not_equal(hashed.column("content"), ""), False))
        old = ray.get(old_keys_ref)
        fresh = files.filter(pc.invert(pc.is_in(_registry_key(files), value_set=old)))
        n = files.num_rows
        registry = pa.table(
            [
                files.column(f.name) if f.name in ("repo", "path", "content_sha256")
                else pa.nulls(n, f.type)
                for f in KG_TRIPLE_SCHEMA
            ],
            schema=KG_TRIPLE_SCHEMA,
        )
        return pa.concat_tables([extract_batch(fresh), registry])

    return scan


def _scan_corpus(corpus_ds, old_registry):
    """One pass over the corpus → (registry rows, extracted delta rows):
    ``content_sha256`` for every file, and extraction for only the files
    ``old_registry`` does not hold."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    from ..schema import KG_TRIPLE_SCHEMA

    old_ref = ray.put(_registry_key(old_registry).combine_chunks())
    blocks = [
        b
        for b in corpus_ds.map_batches(_scan_batch(old_ref), batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow", batch_size=None)
        if b.num_rows
    ]
    out = pa.concat_tables(blocks) if blocks else KG_TRIPLE_SCHEMA.empty_table()
    is_reg = pc.is_null(out.column("seq"))
    registry = out.filter(is_reg).select(["repo", "path", "content_sha256"])
    return registry, out.filter(pc.invert(is_reg))


def _merged_stats(old_sym, cached, delta):
    """The new symbol table and repo counts as exact merges: the old
    symbols, the repo counts of every cached (pre-dedup) row, and the
    delta's own stats, under ``_merge_stats``'s min/sum."""
    import pyarrow as pa

    n = old_sym.num_rows
    syms = pa.table({
        "kind": pa.array(["s"] * n, pa.string()),
        "name": old_sym.column("name").cast(pa.string()),
        "iri": old_sym.column("iri").cast(pa.string()),
        "cnt": pa.nulls(n, pa.int64()),
    })
    reps = cached.group_by(["repo"]).aggregate([("repo", "count")])
    m = reps.num_rows
    counts = pa.table({
        "kind": pa.array(["r"] * m, pa.string()),
        "name": reps.column("repo"),
        "iri": pa.nulls(m, pa.string()),
        "cnt": reps.column("repo_count"),
    })
    return _split_stats(_merge_stats(syms, counts, _stats_batch(delta)))


def _plan_dict(n_shards_arg, plan, options) -> dict:
    nb, ns, hp, n_total = plan
    return {
        "n_shards_arg": n_shards_arg, "n_shards": ns, "n_buckets": nb,
        "hot_plan": {k: list(v) for k, v in hp.items()},
        "n_total": n_total, "options": repr(options),
    }


def incremental_build_kg(
    corpus_path,
    out_dir: str,
    *,
    n_shards: int = 16,
    jelly_options: StreamOptions | None = None,
):
    """Delta-proportional rebuild (state/incremental.py).

    For an ADD-ONLY corpus delta with an unchanged shard plan, one pass
    over the corpus hashes every file and extracts only the added ones;
    the symbol table and repo counts are merged with the saved state, and
    :func:`~pyjelly_ray.state.incremental.narrow` picks the shards that can
    change and dedups their new rows on the driver.  One task per affected
    shard links and writes its rows (no exchange); every other shard's
    files, manifest and cache are left untouched on disk.  Anything the proof
    can't cover (first build, modified/removed files, plan or options
    drift, a missing or stale triple cache) falls back to a full build,
    which also writes a fresh triple cache.

    CONSUMES the pipeline (unlike :func:`build_kg`, which returns lazily)
    and persists the new state; returns a summary dict whose
    ``live_shards`` lists the shard ids the new corpus populates (what
    ``state.manifest.prune_orphans`` keeps) and whose ``files_extracted``
    counts the files this run extracted.
    """
    import os

    import ray

    from ..sinks.jelly_sink import ShardJellyWriter, add_shard_column, compute_shard_plan
    from ..state import incremental as inc

    options = jelly_options or StreamOptions()

    def full(reason: str) -> dict:
        manifests, (sym_table, repo_counts, registry, n_cached) = _cold_build(
            corpus_path, out_dir, n_shards, jelly_options, with_state=True)
        rows = manifests.take_all()
        plan_dict = _plan_dict(n_shards, compute_shard_plan(repo_counts, n_shards), options)
        inc.persist_state(out_dir, sym_table, registry, plan_dict)
        inc.write_cache_manifest(out_dir, plan_dict, n_cached)
        return {"mode": "full", "reason": reason, "shards_written": len(rows),
                "n_total": plan_dict["n_total"], "files_extracted": registry.num_rows,
                "live_shards": sorted(r["shard"] for r in rows)}

    state = inc.load_state(out_dir)
    if state is None:
        return full("no previous state")
    old_sym, old_registry, old_plan = state
    if old_plan.get("options") != repr(options) or old_plan.get("n_shards_arg") != n_shards:
        return full("options or shard argument changed")
    cached, stale = inc.load_cache(out_dir, old_plan)
    if cached is None:
        return full(stale)

    registry, delta = _scan_corpus(read_corpus(corpus_path), old_registry)
    files = registry.group_by(["repo", "path"]).aggregate([]).num_rows
    if files != registry.num_rows:
        return full("duplicate (repo, path) rows in the corpus")
    registry = _sort_registry(registry)
    _, add_only = inc.registry_delta(old_registry, registry)
    if not add_only:
        return full("modified or removed files (delta not add-only)")
    sym_table, repo_counts = _merged_stats(old_sym, cached, delta)
    nb, ns, hp, n_total = plan = compute_shard_plan(repo_counts, n_shards)
    plan_dict = _plan_dict(n_shards, plan, options)
    if plan_dict != old_plan:
        return full("shard plan changed")

    def shard_files(shard: int) -> tuple[str, str]:
        name = f"part-{shard:05d}"
        return (os.path.join(out_dir, name + ".jelly"),
                os.path.join(out_dir, "manifests", name + ".json"))

    def missing(shard: int) -> bool:
        return not all(map(os.path.exists, shard_files(shard)))

    changed_names = inc.symbol_delta(old_sym, sym_table)
    new_index = prepare_link_index(sym_table)
    nar = inc.narrow(
        cached, delta, prepare_link_index(old_sym), new_index, changed_names,
        nb, add_shard_column(ns, hp), missing,
    )
    # one task per affected shard writes its finished group; the writer
    # skips a group with no kin row and the row count its manifest records
    link = make_linker_task(ray.put(new_index))
    writer = ShardJellyWriter(out_dir, jelly_options)

    def write(group):
        return writer(link(group).drop_columns(["h1", "h2"]))

    task = ray.remote(write)
    refs = [task.remote(g) for g in nar.groups.values() if g.num_rows]
    rows = [r for t in ray.get(refs) for r in t.to_pylist()]
    for shard, group in nar.groups.items():
        if not group.num_rows:  # every row lost its key to another shard
            for path in shard_files(shard):
                if os.path.exists(path):
                    os.remove(path)
    written = sum(1 for r in rows if r["status"] == "written")
    live = {f"{s:05d}" for s in set(nar.live) - set(nar.affected)}
    live |= {r["shard"] for r in rows}

    inc.drop_cache_manifest(out_dir)
    for shard, table in nar.cache.items():
        inc.replace_cache_shard(out_dir, shard, table)
    for shard, table in nar.appended.items():
        inc.append_cache_shard(out_dir, shard, table)
    inc.persist_state(out_dir, sym_table, registry, plan_dict)
    inc.write_cache_manifest(out_dir, plan_dict, cached.num_rows + delta.num_rows)
    return {
        "mode": "incremental",
        "n_total": n_total,
        "affected": written,
        "skipped": len(live) - written,
        "changed_names": len(changed_names),
        "delta_keys": int(len(nar.keys)),
        "shards_written": written,
        "files_extracted": delta.group_by(["repo", "path"]).aggregate([]).num_rows,
        "live_shards": sorted(live),
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

    from ..stages.agg import global_topk, grouped_agg
    from ..stages.extract import ONT
    from ..stages.graph import pagerank

    corpus = read_corpus(corpus_path)
    linked = link_triples(extract_triples(corpus).materialize())

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

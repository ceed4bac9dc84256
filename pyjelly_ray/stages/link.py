"""Entity linking / IRI canonicalization (SURVEY.md §2.3 broadcast stage).

Maps ``unlinked:NAME`` mention objects (imports → module names, calls →
function names) to canonical symbol IRIs via a shared symbol table.

Ray mapping: the table is the SMALL side — built with per-batch combine +
driver fold, broadcast once via ``ray.put`` as an **Arrow table** (plasma,
zero-copy, OFF the Python heap — a multi-hundred-thousand-entry Python dict
per worker poisons the GC for every later task; measured 10× slowdown of
unrelated stages), and resolved per batch with vectorized ``pc.index_in`` +
``pc.take`` — never re-shipped per batch, never a shuffle join.

Canonical resolution is deterministic (lexicographically smallest defining
IRI), so tasks agree without coordination (SURVEY.md §2.3 requirement).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .extract import BASE, ONT, RDF_TYPE

EXTERN_PREFIX = f"{BASE}/extern/"


def build_symbol_dict_batch(batch: pa.Table) -> pa.Table:
    """map_batches stage: emit (name, iri) candidate pairs from type triples.

    Modules contribute their dotted name; functions/classes their bare name.
    Fully vectorized (regex field extraction, no per-row Python).
    """
    is_type = pc.equal(batch.column("p_value"), RDF_TYPE)
    o_value = batch.column("o_value")
    is_mod = pc.and_(is_type, pc.equal(o_value, ONT + "Module"))
    is_sym = pc.and_(
        is_type,
        pc.or_(pc.equal(o_value, ONT + "Function"), pc.equal(o_value, ONT + "Class")),
    )
    sub = batch.filter(pc.or_(is_mod, is_sym))
    if sub.num_rows == 0:
        return pa.table({"name": pa.array([], pa.string()), "iri": pa.array([], pa.string())})
    s = sub.column("s_value").combine_chunks()
    # s looks like https://codekg.dev/sym/<org>/<repo>/<dotted[.name]>
    tail = pc.struct_field(pc.extract_regex(s, r"(?P<t>[^/]+)$"), "t")
    bare = pc.struct_field(pc.extract_regex(tail, r"(?P<l>[^.]*)$"), "l")
    mod_mask = pc.equal(sub.column("o_value"), ONT + "Module")
    name = pc.if_else(mod_mask, tail, bare)
    return pa.table({"name": name, "iri": s})


def _batch_min_by_name(batch: pa.Table) -> pa.Table:
    """Local combine: min(iri) per name within one batch (pre-fold shrink)."""
    if batch.num_rows == 0:
        return batch
    g = batch.group_by(["name"]).aggregate([("iri", "min")])
    return g.select(["name", "iri_min"]).rename_columns(["name", "iri"])


def collect_symbol_dict(triples_ds) -> pa.Table:
    """Build the canonical symbol mapping (the broadcast small side).

    Candidates are combined per batch (min per name), then the ≤|symbols|
    rows stream to the driver where the global min-merge happens with ONE
    vectorized Arrow group_by (multi-threaded; a Python dict fold here was
    the serial bottleneck at millions of symbols).  Returns a sorted Arrow
    table (name, iri) — off-heap, broadcast-ready.  The mapping must fit in
    memory regardless (it is broadcast to every worker), so this adds no
    new scale limit.
    """
    small = triples_ds.map_batches(build_symbol_dict_batch, batch_format="pyarrow").map_batches(
        _batch_min_by_name, batch_format="pyarrow"
    )
    tables = [b for b in small.iter_batches(batch_format="pyarrow") if b.num_rows]
    if not tables:
        return pa.table({"name": pa.array([], pa.string()), "iri": pa.array([], pa.string())})
    merged = pa.concat_tables(tables, promote_options="default")
    g = merged.group_by(["name"]).aggregate([("iri", "min")])
    g = g.select(["name", "iri_min"]).rename_columns(["name", "iri"])
    return g.sort_by([("name", "ascending")])


def symbols_to_table(symbols: dict[str, str]) -> pa.Table:
    """Mapping → Arrow table, sorted by key (deterministic broadcast bytes)."""
    keys = sorted(symbols)
    return pa.table(
        {
            "name": pa.array(keys, pa.string()),
            "iri": pa.array([symbols[k] for k in keys], pa.string()),
        }
    )


#: broadcast ceiling (symbol-table rows).  Below it the hash-sorted index is
#: ``ray.put`` once and read zero-copy by every task (the fast path); above
#: it broadcast itself breaks (every worker would hold the full table), so
#: linking falls back to co-partitioned joins.  Env-tunable:
#: GRAFT_LINK_BROADCAST_MAX (=0 forces the partitioned path, for tests).
DEFAULT_LINK_BROADCAST_MAX = 50_000_000


def link_broadcast_max() -> int:
    import os

    return int(
        os.environ.get("GRAFT_LINK_BROADCAST_MAX", str(DEFAULT_LINK_BROADCAST_MAX))
    )


def collect_symbol_dict_ds(triples_ds, *, num_partitions: int | None = None):
    """Distributed variant of :func:`collect_symbol_dict`: the canonical
    (name, iri) mapping as a hash-partitioned Dataset — nothing funnels
    through the driver, so symbol cardinality is unbounded.  Used by the
    broadcast-overflow linking fallback."""
    from .agg import grouped_agg

    cand = triples_ds.map_batches(
        build_symbol_dict_batch, batch_format="pyarrow"
    ).map_batches(_batch_min_by_name, batch_format="pyarrow")
    return grouped_agg(
        cand, ["name"], [("iri", "iri", "min")], num_partitions=num_partitions
    )


def link_triples_partitioned(triples_ds, sym_ds, *, num_partitions: int | None = None):
    """Broadcast-overflow linking (SURVEY §2.3 at extreme symbol cardinality).

    Same resolution function as the broadcast path (exact name hit, else
    bare last-dotted-segment hit, else extern IRI) computed with
    co-partitioned hash joins instead of a per-task broadcast index:

      1. distinct ``unlinked:`` names (hash-partitioned distinct — the name
         set is never collected anywhere)
      2. name → iri: two left joins against ``sym_ds`` (exact, then bare),
         finished per partition with the extern coalesce
      3. triples left-join that ≤|names| resolution table on the stripped
         name; ``o_value`` is replaced inside the join reduce (``post=``),
         so the joined rows never re-exchange

    Output is multiset-identical to the broadcast path; row ORDER differs
    (join partitioning), which the KG writer's deterministic per-shard sort
    erases — end-to-end shard bytes are identical (pinned in tests).
    """
    from ..state.exchange import default_partitions
    from .agg import grouped_agg
    from .joins import hash_join

    num_partitions = num_partitions or default_partitions()

    def names_batch(b: pa.Table) -> pa.Table:
        o = _one_chunk(b.column("o_value"))
        u = pc.unique(o.filter(pc.starts_with(o, "unlinked:")))
        return pa.table({"name": pc.utf8_slice_codeunits(u, 9)})

    names = grouped_agg(
        triples_ds.map_batches(names_batch, batch_format="pyarrow"),
        ["name"],
        [],
        num_partitions=num_partitions,
    )

    def add_bare(b: pa.Table) -> pa.Table:
        bare = pc.struct_field(
            pc.extract_regex(b.column("name"), r"(?P<last>[^.]*)$"), "last"
        )
        return b.append_column("__bare", bare)

    names = names.map_batches(add_bare, batch_format="pyarrow")
    r1 = hash_join(
        names, sym_ds, left_key="name", how="left outer",
        num_partitions=num_partitions,
    )

    def rename_sym(b: pa.Table) -> pa.Table:
        return b.rename_columns(["__bname", "__biri"])

    sym2 = sym_ds.map_batches(rename_sym, batch_format="pyarrow")

    def finish_resolution(b: pa.Table) -> pa.Table:
        extern = pc.binary_join_element_wise(
            pa.array([EXTERN_PREFIX] * b.num_rows, pa.string()),
            b.column("name"),
            "",
        )
        iri = pc.coalesce(b.column("iri"), b.column("__biri"), extern)
        return pa.table({"name": b.column("name"), "__res_iri": iri})

    resolution = hash_join(
        r1, sym2, left_key="__bare", right_key="__bname", how="left outer",
        num_partitions=num_partitions, post=finish_resolution,
    )

    def add_key(b: pa.Table) -> pa.Table:
        o = b.column("o_value")
        if isinstance(o, pa.ChunkedArray):
            o = o.combine_chunks()
        mask = pc.starts_with(o, "unlinked:")
        key = pc.if_else(
            mask, pc.utf8_slice_codeunits(o, 9), pa.scalar(None, pa.string())
        )
        return b.append_column("__link_name", key)

    tk = triples_ds.map_batches(add_key, batch_format="pyarrow")

    def fix(b: pa.Table) -> pa.Table:
        o = pc.coalesce(b.column("__res_iri"), pc.cast(b.column("o_value"), pa.string()))
        idx = b.schema.get_field_index("o_value")
        b = b.set_column(idx, "o_value", o)
        return b.drop_columns(["__link_name", "__res_iri"])

    return hash_join(
        tk, resolution, left_key="__link_name", right_key="name",
        how="left outer", num_partitions=num_partitions, post=fix,
    )


_LINK_SEED = 17


def prepare_link_index(sym_table: pa.Table) -> pa.Table:
    """(name, iri) table → hash-sorted broadcast index (hname, name, iri).

    ``pc.index_in`` rebuilds a hash table over the FULL symbol array on
    every call — at millions of symbols × 2 lookups × every map task that
    was ~90% of the fused map stage's CPU (measured 95 of 109 core-s at
    sf0.1).  Hashing + sorting ONCE on the driver turns each task lookup
    into ``np.searchsorted`` over the plasma-backed uint64 column:
    O(q·log n) per batch with zero per-task build cost.  Hash collisions
    are handled exactly (string verify + run scan in :func:`_lookup`).
    """
    import numpy as np
    import polars as pl

    names = sym_table.column("name").combine_chunks()
    if len(names) == 0:
        return pa.table(
            {
                "hname": pa.array([], pa.uint64()),
                "name": pa.array([], pa.string()),
                "iri": pa.array([], pa.string()),
            }
        )
    h = pl.Series("n", names).hash(seed=_LINK_SEED).to_numpy()
    order = np.argsort(h, kind="stable")
    take = pa.array(order)
    return pa.table(
        {
            "hname": pa.array(h[order]),
            "name": names.take(take),
            "iri": sym_table.column("iri").combine_chunks().take(take),
        }
    )


def _one_chunk(col) -> pa.Array:
    """ChunkedArray → Array without the copy ``combine_chunks`` makes even
    for a single chunk (55 ms per call on a 1.8M-row broadcast column —
    was most of the link stage's CPU when paid per batch)."""
    if isinstance(col, pa.ChunkedArray):
        return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    return col


def _lookup(index: pa.Table, queries) -> pa.Array:
    """Exact name → iri lookup against a :func:`prepare_link_index` table;
    misses are null.  Binary search on the sorted hash column + string
    verification; equal-hash runs (true 64-bit collisions) are scanned to
    exhaustion, so the result is exact, not probabilistic."""
    import numpy as np
    import polars as pl

    queries = _one_chunk(queries)
    nq = len(queries)
    hh = _one_chunk(index.column("hname")).to_numpy(zero_copy_only=False)
    result = np.full(nq, -1, np.int64)
    if nq and len(hh):
        names_col = _one_chunk(index.column("name"))
        qh = pl.Series("q", queries).hash(seed=_LINK_SEED).to_numpy()
        pos = np.searchsorted(hh, qh)
        unresolved = np.arange(nq)
        k = 0
        while len(unresolved):
            p = pos[unresolved] + k
            ok = p < len(hh)
            p, u = p[ok], unresolved[ok]
            ok = hh[p] == qh[u]
            p, u = p[ok], u[ok]
            if not len(u):
                break
            eq = pc.equal(names_col.take(pa.array(p)), queries.take(pa.array(u)))
            eq = eq.to_numpy(zero_copy_only=False).astype(bool)
            result[u[eq]] = p[eq]
            unresolved = u[~eq]  # hash matched, string didn't: scan the run
            k += 1
    idx = pa.array(result, pa.int64(), mask=result < 0)
    return pc.take(_one_chunk(index.column("iri")), idx)


def _resolve_names(sym_index: pa.Table, names: pa.Array) -> pa.Array:
    """name → canonical IRI, vectorized over a (small) unique-name array:
    1) exact name hit  2) bare-name (last dotted segment) hit  3) extern IRI."""
    hit_full = _lookup(sym_index, names)
    bare = pc.extract_regex(names, r"(?P<last>[^.]*)$")
    bare = pc.struct_field(bare, "last")
    hit_bare = _lookup(sym_index, bare)
    extern = pc.binary_join_element_wise(
        pa.array([EXTERN_PREFIX] * len(names), pa.string()), names, ""
    )
    return pc.coalesce(hit_full, hit_bare, extern)


def _link_batch(sym_table: pa.Table, batch: pa.Table) -> pa.Table:
    """Vectorized canonicalization in the DICTIONARY domain.

    Objects repeat heavily (types, call targets, module IRIs), so the
    batch's o_value column is dictionary-encoded once and the whole
    resolve chain — starts_with / slice / regex / two index_in /
    coalesce — runs per UNIQUE value, not per row (VERDICT r2 #2); one
    ``take`` rebuilds the row-aligned column.  Value-identical to the
    per-row formulation (resolution is a pure function of the value).
    """
    import time as _time

    from ..state.exchange import _prof

    t0, c0 = _time.time(), _time.process_time()
    d = batch.column("o_value").combine_chunks().dictionary_encode()
    uniq = d.dictionary
    mask = pc.starts_with(uniq, "unlinked:")
    _prof("lk_dict", t0, len(uniq), c0)
    if pc.sum(mask).as_py() in (0, None):
        return batch
    if "hname" not in sym_table.column_names:  # plain (name, iri) input
        sym_table = prepare_link_index(sym_table)
    t0, c0 = _time.time(), _time.process_time()
    names = pc.utf8_slice_codeunits(uniq.filter(mask), 9)  # strip 'unlinked:'
    resolved = _resolve_names(sym_table, names)
    _prof("lk_resolve", t0, len(names), c0)
    t0, c0 = _time.time(), _time.process_time()
    new_uniq = pc.replace_with_mask(uniq, mask, resolved)
    new_values = pc.take(new_uniq, d.indices)
    idx = batch.schema.get_field_index("o_value")
    out = batch.set_column(idx, "o_value", new_values)
    _prof("lk_take", t0, batch.num_rows, c0)
    return out


class SymbolLinker:
    """Actor-pool stage variant: Arrow symbol table resolved once per actor."""

    def __init__(self, sym) -> None:
        try:
            import ray

            if isinstance(sym, ray.ObjectRef):
                sym = ray.get(sym)
        except ImportError:
            pass
        if isinstance(sym, dict):
            sym = symbols_to_table(sym)
        if "hname" not in sym.column_names:
            sym = prepare_link_index(sym)  # once per actor
        self.sym_table: pa.Table = sym

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _link_batch(self.sym_table, batch)


def make_linker_task(sym_ref):
    """Task-based linker: the broadcast Arrow table is read zero-copy from
    plasma per task (no Python-heap copy, no GC impact, no actor warm-up)."""

    def link(batch: pa.Table) -> pa.Table:
        import time as _time

        import ray

        from ..state.exchange import _prof

        t0, c0 = _time.time(), _time.process_time()
        sym_table = ray.get(sym_ref) if isinstance(sym_ref, ray.ObjectRef) else sym_ref
        _prof("lk_get", t0, sym_table.num_rows, c0)
        return _link_batch(sym_table, batch)

    return link

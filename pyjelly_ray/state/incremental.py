"""Delta-proportional incremental rebuild: state, triple cache, narrowing.

A full build (``pipelines.kg.incremental_build_kg`` with no usable state)
leaves three things next to its shards, under ``<out>/state/``:

- ``symbols.parquet``, ``files.parquet`` and ``plan.json``
  (:func:`persist_state`): the symbol table, the file registry
  ``(repo, path, content_sha256)`` and the shard plan;
- ``triples/shard-NNNNN/*.parquet`` (:func:`write_block_cache`, from the
  exchange's map tasks): every PRE-dedup extracted row, grouped by its
  provenance shard (``add_shard_column`` of the row's own repo and path),
  unlinked, without ``content``, and with its ``h1``/``h2`` statement key
  under that build's symbol index;
- ``cache.json`` (:func:`write_cache_manifest`), written last: it binds the
  cache to the code that produces those columns (:func:`code_fingerprint`),
  to the plan, and to the bytes of the ``symbols.parquet``/``files.parquet``
  it matches.  Anything that rewrites the state without the cache (an older
  caller of :func:`persist_state`, a deleted directory) makes
  :func:`load_cache` refuse it, and the rebuild is a full one.

An add-only rebuild then extracts only the files the registry does not
hold, merges the symbol table and repo counts exactly (min / sum), and
rebuilds only the shards :func:`narrow` proves may change, from the delta
rows and the cached rows that can still matter.

Soundness argument (add-only deltas, stable shard plan):
a shard's bytes are a pure function of its deduped row multiset (writer
sorts deterministically).  A row multiset can change only via
  (1) rows from NEW files (new provenance / statements),
  (2) rows whose object resolution changed (the symbol dictionary maps
      name → min(iri); only names whose mapping changed — added names or
      new min winners — can re-link anything, through either the exact
      or the bare-name lookup step),
  (3) dedup winner movement, which requires two rows sharing a 128-bit
      statement key where at least one of them is in class (1) or (2)
      (under its old OR new key).
So with K = { old and new statement keys of class-(1)/(2) rows }:

- A key outside K has the same row set before and after the delta (a row
  can only enter or leave a key by being in class (1) or (2), which puts
  that key in K), so it keeps its dedup winner.
- The output shard of a row is a pure function of its ``(repo, path)``
  under a fixed plan, so it is the row's provenance shard, and it is the
  same before and after.  A shard is *affected* if it holds a delta row, a
  cached row whose cached key is in K (:func:`kin_mask`), or it is live
  and its part file or manifest is missing.  Every row whose key is in K,
  old or new, sits in an affected shard, so an unaffected shard holds only
  keys outside K: its winners, and so its bytes, do not change.
- An affected shard's new rows are the winners of keys in K plus the
  unchanged winners of keys outside K.  Every row with a key in K, old or
  new, is at hand on the driver (the delta rows and the kin cached rows,
  re-keyed), so their winners are recomputed there with ``dedup_block``'s
  min-``(repo, path, seq)`` rule (:func:`winner_mask`); the winners of
  keys outside K are the cached rows that won before (*standing*).  The
  two together are exactly a full dedup restricted to the affected
  shards.  A loser of today can be the winner of tomorrow (its key's
  winner re-links away), which is why the cache stores the pre-dedup
  rows, not the output.

:func:`narrow` therefore returns each affected shard's finished group,
and the rebuild writes it with one task per shard (link, then
``ShardJellyWriter``): no row crosses an exchange.  A group's rows are
tagged ``kin = key ∈ K``; the writer skips the sort, fingerprint and
encode of a group with no kin row and the row count its manifest records.
A group can be empty: every statement of a live shard can lose its key to
a delta row elsewhere.  Its part file and manifest are then deleted, as a
cold build writes no such shard.

Modified/removed files, two corpus rows for one ``(repo, path)`` (the
second copy of a registered file would go unextracted and uncounted), a
changed shard plan, changed stream options, or a missing or stale cache
make the proof inapplicable → the caller falls back to a full rebuild,
which writes a fresh cache.
"""

from __future__ import annotations

import functools
import glob
import hashlib
import json
import os
import shutil
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..schema import KG_TRIPLE_SCHEMA

STATE_DIR = "state"
_REG_COLS = ["repo", "path", "content_sha256"]
#: the sources whose code decides the cached columns (extracted rows,
#: link resolution, statement key, shard assignment)
_CACHE_SOURCES = ("stages/extract.py", "stages/link.py", "stages/dedup.py",
                  "sinks/jelly_sink.py")
_CACHE_SCHEMA = KG_TRIPLE_SCHEMA.append(pa.field("h1", pa.uint64())).append(
    pa.field("h2", pa.uint64())).append(pa.field("shard", pa.int32()))


# ------------------------------------------------------------------ state


def state_paths(out_dir: str) -> dict[str, str]:
    d = os.path.join(out_dir, STATE_DIR)
    return {
        "dir": d,
        "symbols": os.path.join(d, "symbols.parquet"),
        "files": os.path.join(d, "files.parquet"),
        "plan": os.path.join(d, "plan.json"),
        "triples": os.path.join(d, "triples"),
        "cache": os.path.join(d, "cache.json"),
    }


def persist_state(out_dir: str, sym_table: pa.Table, registry: pa.Table,
                  plan: dict) -> None:
    """Write the build state a later incremental rebuild diffs against.
    Atomic per file (tmp + rename); written only after a successful build."""
    p = state_paths(out_dir)
    os.makedirs(p["dir"], exist_ok=True)
    for path, write in (
        (p["symbols"], lambda t: pq.write_table(sym_table, t)),
        (p["files"], lambda t: pq.write_table(registry, t)),
    ):
        tmp = path + ".tmp"
        write(tmp)
        os.replace(tmp, path)
    tmp = p["plan"] + ".tmp"
    with open(tmp, "w") as f:
        json.dump(plan, f, sort_keys=True)
    os.replace(tmp, p["plan"])


def load_state(out_dir: str):
    p = state_paths(out_dir)
    try:
        sym = pq.read_table(p["symbols"])
        reg = pq.read_table(p["files"])
        with open(p["plan"]) as f:
            plan = json.load(f)
        return sym, reg, plan
    except (OSError, json.JSONDecodeError):
        return None


# ------------------------------------------------------------ triple cache


@functools.cache
def code_fingerprint() -> str:
    """sha256 over the sources that produce the cached columns."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    h = hashlib.sha256()
    for rel in _CACHE_SOURCES:
        with open(os.path.join(root, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _cache_shard_dir(out_dir: str, shard: int) -> str:
    return os.path.join(state_paths(out_dir)["triples"], f"shard-{shard:05d}")


def drop_cache_manifest(out_dir: str) -> None:
    """Invalidate the triple cache; done before any part of it changes."""
    try:
        os.remove(state_paths(out_dir)["cache"])
    except FileNotFoundError:
        pass


def write_cache_manifest(out_dir: str, plan: dict, n_rows: int) -> None:
    """Bind the triple cache to the code, the plan and the saved state.
    Written last, after :func:`persist_state`."""
    p = state_paths(out_dir)
    doc = {
        "fingerprint": code_fingerprint(),
        "plan": plan,
        "symbols": _file_sha256(p["symbols"]),
        "files": _file_sha256(p["files"]),
        "rows": int(n_rows),
    }
    tmp = p["cache"] + ".tmp"
    with open(tmp, "w") as f:
        json.dump(doc, f, sort_keys=True)
    os.replace(tmp, p["cache"])


def load_cache(out_dir: str, plan: dict):
    """Return ``(cached rows, None)``, or ``(None, reason)`` when the cache
    cannot stand for the saved state: missing, written by other code or
    under another plan, older or newer than ``symbols``/``files``, or with
    files gone.  Every reason names the cache."""
    p = state_paths(out_dir)
    try:
        with open(p["cache"]) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError):
        return None, "no triple cache"
    if doc.get("fingerprint") != code_fingerprint():
        return None, "triple cache fingerprint differs from the code"
    if doc.get("plan") != plan:
        return None, "triple cache was built under another shard plan"
    try:
        same = (doc.get("symbols") == _file_sha256(p["symbols"])
                and doc.get("files") == _file_sha256(p["files"]))
    except OSError:
        same = False
    if not same:
        return None, "triple cache does not match the saved symbols and registry"
    import pyarrow.dataset as ds

    files = sorted(glob.glob(os.path.join(p["triples"], "shard-*", "*.parquet")))
    cached = ds.dataset(files, schema=_CACHE_SCHEMA, format="parquet").to_table()
    if cached.num_rows != doc.get("rows"):
        return None, "triple cache files are missing or extra"
    return cached, None


def write_cache_shard(out_dir: str, shard: int, rows: pa.Table, name: str) -> None:
    d = _cache_shard_dir(out_dir, shard)
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, name + ".parquet")
    pq.write_table(rows, path + ".tmp")
    os.replace(path + ".tmp", path)


def replace_cache_shard(out_dir: str, shard: int, rows: pa.Table) -> None:
    shutil.rmtree(_cache_shard_dir(out_dir, shard), ignore_errors=True)
    write_cache_shard(out_dir, shard, rows, "b00000")


def append_cache_shard(out_dir: str, shard: int, rows: pa.Table) -> None:
    """Add ``rows`` to a cache shard as one more file next to its others."""
    d = _cache_shard_dir(out_dir, shard)
    k = len(glob.glob(os.path.join(d, "*.parquet")))
    while os.path.exists(os.path.join(d, f"d{k:05d}.parquet")):
        k += 1
    write_cache_shard(out_dir, shard, rows, f"d{k:05d}")


# ------------------------------------------------------------------ deltas


def _anti(left: pa.Table, right: pa.Table, on: list[str]) -> pa.Table:
    """Rows of ``left`` with no match in ``right`` on ``on`` — polars anti
    join (multithreaded hash join; ~5× the Arrow index_in chain on the
    1.9M-row registries)."""
    import polars as pl

    out = (
        pl.from_arrow(left.select(on).cast(pa.schema([(c, pa.string()) for c in on])))
        .with_row_index("_i")
        .join(
            pl.from_arrow(
                right.select(on).cast(pa.schema([(c, pa.string()) for c in on]))
            ),
            on=on,
            how="anti",
        )
    )
    idx = out.get_column("_i").to_numpy()
    return left.take(pa.array(idx))


def registry_delta(old: pa.Table, new: pa.Table):
    """Return (added_shas, is_add_only).  Add-only ⇔ every old
    (repo, path, sha) row still exists and no path changed content."""
    if _anti(old, new, _REG_COLS).num_rows:
        return None, False  # removed or modified file
    added = _anti(new, old, _REG_COLS)
    if added.num_rows:
        # a modified file appears as same (repo, path) with a new sha
        dup = _anti(added, old, ["repo", "path"])
        if dup.num_rows != added.num_rows:
            return None, False  # same path, different sha ⇒ modified
    added_shas = pc.unique(added.column("content_sha256").cast(pa.string()))
    return added_shas, True


def symbol_delta(old_sym: pa.Table, new_sym: pa.Table) -> pa.Array:
    """Names whose name→iri mapping differs (added names, changed min
    winners, or — impossible under add-only, but handled — removals)."""
    cols = ["name", "iri"]
    names = pa.concat_arrays(
        [
            _anti(new_sym, old_sym, cols).column("name").cast(pa.string()).combine_chunks(),
            _anti(old_sym, new_sym, cols).column("name").cast(pa.string()).combine_chunks(),
        ]
    )
    return pc.unique(names)


# ------------------------------------------------------- affected shards


def _pack_keys(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    a = np.empty((len(h1), 2), np.uint64)
    a[:, 0] = h1
    a[:, 1] = h2
    return a.reshape(-1).view([("a", "<u8"), ("b", "<u8")])


def _direct_mask(batch: pa.Table, new_shas: pa.Array, changed_names: pa.Array):
    """Rows directly changed by the delta: from a new file, or carrying an
    ``unlinked:`` object whose (exact or bare) name resolution changed.
    The name chain (slice + regex + two index_in) runs in the DICTIONARY
    domain — objects repeat heavily, so per-unique beats per-row ~50×."""
    mask = pc.is_valid(
        pc.index_in(batch.column("content_sha256").cast(pa.string()), value_set=new_shas)
    )
    if len(changed_names):
        d = batch.column("o_value").combine_chunks().dictionary_encode()
        uniq = d.dictionary
        unl = pc.starts_with(uniq, "unlinked:")
        name = pc.utf8_slice_codeunits(uniq, 9)
        bare = pc.struct_field(pc.extract_regex(name, r"(?P<l>[^.]*)$"), "l")
        hit_u = pc.and_(
            unl,
            pc.or_(
                pc.is_valid(pc.index_in(name, value_set=changed_names)),
                pc.is_valid(pc.index_in(bare, value_set=changed_names)),
            ),
        )
        mask = pc.or_(mask, pc.take(hit_u, d.indices))
    return mask


def collect_delta_keys(triples_ds, new_shas, changed_names, new_sym_ref,
                       old_sym_ref, n_buckets: int) -> np.ndarray:
    """Pass A1: 128-bit statement keys of directly-changed rows under BOTH
    the old and the new symbol dictionary (packed structured uint64×2,
    sorted, deduped) — the collision set K."""
    from ..stages.dedup import add_tkey
    from ..stages.link import make_linker_task

    link_new = make_linker_task(new_sym_ref)
    link_old = make_linker_task(old_sym_ref)

    def keys_of(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"h1": pa.array([], pa.uint64()), "h2": pa.array([], pa.uint64())})
        sub = batch.filter(_direct_mask(batch, new_shas, changed_names))
        if sub.num_rows == 0:
            return pa.table({"h1": pa.array([], pa.uint64()), "h2": pa.array([], pa.uint64())})
        parts = []
        for link in (link_new, link_old):
            k = add_tkey(link(sub), n_buckets)
            parts.append(k.select(["h1", "h2"]))
        return pa.concat_tables(parts)

    out = []
    for b in triples_ds.map_batches(keys_of, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        if b.num_rows:
            out.append(
                _pack_keys(
                    b.column("h1").combine_chunks().to_numpy(zero_copy_only=False),
                    b.column("h2").combine_chunks().to_numpy(zero_copy_only=False),
                )
            )
    if not out:
        return np.empty(0, [("a", "<u8"), ("b", "<u8")])
    return np.unique(np.concatenate(out))


def kin_mask(keyed: pa.Table, delta_keys: np.ndarray) -> np.ndarray:
    """bool[n]: row's (h1, h2) statement key ∈ K.  np.isin prefilter on the
    first key word, exact pair check on the survivors."""
    n = keyed.num_rows
    if n == 0 or len(delta_keys) == 0:
        return np.zeros(n, bool)
    h1 = keyed.column("h1").combine_chunks().to_numpy(zero_copy_only=False)
    pre = np.isin(h1, np.ascontiguousarray(delta_keys["a"]))
    if not pre.any():
        return pre
    idx = np.nonzero(pre)[0]
    h2 = keyed.column("h2").combine_chunks().to_numpy(zero_copy_only=False)
    packed = _pack_keys(h1[idx], h2[idx])
    out = np.zeros(n, bool)
    out[idx] = np.isin(packed, delta_keys)
    return out


# -------------------------------------------------------------- narrowing

_NO_SHAS = pa.array([], pa.string())


def _np(col) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return col.to_numpy(zero_copy_only=False)


def _packed(keyed: pa.Table) -> np.ndarray:
    return _pack_keys(_np(keyed.column("h1")), _np(keyed.column("h2")))


def cache_rows(rows: pa.Table, keyed: pa.Table, assign) -> pa.Table:
    """Extracted rows as the cache holds them: unlinked, plus the ``h1``/
    ``h2`` statement key of ``keyed`` (the same rows, linked and keyed by
    ``add_tkey``) and their provenance ``shard`` (``assign``, an
    ``add_shard_column`` function)."""
    rows = rows.select(KG_TRIPLE_SCHEMA.names)
    rows = rows.append_column("h1", keyed.column("h1")).append_column("h2", keyed.column("h2"))
    return assign(rows)


def write_block_cache(out_dir: str, block: pa.Table, keyed: pa.Table, assign,
                      n_total: int, index: int) -> None:
    """Write :func:`cache_rows` of exchange input block ``index`` to each
    provenance shard's ``b<index>.parquet``: a retried task rewrites its
    own files."""
    from .exchange import _split_block

    rows = cache_rows(block, keyed, assign)
    for s, part in enumerate(_split_block(rows, n_total, "shard")):
        if part.num_rows:
            write_cache_shard(out_dir, s, part, f"b{index:05d}")


def winner_mask(keyed: pa.Table) -> np.ndarray:
    """bool[n]: the row is its statement key's dedup winner, by
    ``dedup_block``'s own min-``(repo, path, seq)`` rule."""
    from ..stages.dedup import dedup_block

    n = keyed.num_rows
    t = keyed.select(["h1", "h2", "repo", "path", "seq"]).append_column(
        "_i", pa.array(np.arange(n, dtype=np.int64)))
    won = np.zeros(n, bool)
    won[_np(dedup_block(t).column("_i"))] = True
    return won


@dataclass
class Narrowing:
    """What an add-only rebuild recomputes (see the module docstring)."""

    keys: np.ndarray  #: K, packed (h1, h2) statement keys, sorted
    affected: list[int]  #: shards to rebuild
    live: list[int]  #: shards that held a winning row before the delta
    #: affected shard → its new rows (cache schema, unlinked) plus ``kin``
    groups: dict[int, pa.Table]
    cache: dict[int, pa.Table]  #: new content of the cache shards a row of was re-keyed in
    appended: dict[int, pa.Table]  #: delta rows to add to the other cache shards


def narrow(cached: pa.Table, delta: pa.Table, old_index: pa.Table,
           new_index: pa.Table, changed_names: pa.Array, n_buckets: int,
           assign, missing=lambda shard: False) -> Narrowing:
    """Plan the rebuild of an add-only delta on the driver.

    ``cached`` holds the previous build's cache rows (:func:`cache_rows`
    keyed under ``old_index``); ``delta`` the extracted rows of the added files;
    ``old_index``/``new_index`` are ``prepare_link_index`` tables of the
    old and new symbol table; ``changed_names`` comes from
    :func:`symbol_delta`; ``assign`` is the plan's ``add_shard_column``
    function; ``missing(shard)`` says whether a live shard's part file or
    manifest is gone.
    """
    from ..stages.dedup import add_tkey
    from ..stages.link import _link_batch

    cols = KG_TRIPLE_SCHEMA.names
    link_new = functools.partial(_link_batch, new_index)
    delta = delta.select(cols)
    fresh = cache_rows(delta, add_tkey(link_new(delta), n_buckets), assign)
    parts = [_packed(fresh)]
    if delta.num_rows:
        parts.append(_packed(add_tkey(_link_batch(old_index, delta), n_buckets)))
    # cached rows whose resolution changed: old keys cached, new keys here
    hit = np.zeros(cached.num_rows, bool)
    if cached.num_rows and len(changed_names):
        hit = _np(pc.fill_null(_direct_mask(cached, _NO_SHAS, changed_names), False))
    hit_rows = cached.filter(pa.array(hit))
    relinked = None
    if hit_rows.num_rows:
        relinked = add_tkey(link_new(hit_rows.select(cols)), n_buckets)
        parts += [_packed(relinked), _packed(hit_rows)]
    keys = np.unique(np.concatenate(parts))

    shard = _np(cached.column("shard"))
    fresh_shard = _np(fresh.column("shard"))
    kin = kin_mask(cached, keys)
    won = winner_mask(cached)
    live = np.unique(shard[won]).tolist()
    affected = sorted(
        set(fresh_shard.tolist()) | set(shard[kin].tolist())
        | {s for s in live if missing(s)}
    )

    if relinked is not None:
        idx = np.flatnonzero(hit)
        for c in ("h1", "h2"):
            v = _np(cached.column(c)).copy()
            v[idx] = _np(relinked.column(c))
            cached = cached.set_column(cached.schema.get_field_index(c), c, pa.array(v))
    # every row with a key in K (all in affected shards) contests it; the
    # other winners of the affected shards stand
    contested = pa.concat_tables([fresh, cached.filter(pa.array(kin))])
    contested = contested.filter(pa.array(winner_mask(contested)))
    standing = cached.filter(pa.array(np.isin(shard, affected) & won & ~kin))
    tagged = pa.concat_tables([
        t.append_column("kin", pa.array(np.full(t.num_rows, flag)))
        for t, flag in ((contested, True), (standing, False))
    ])
    tagged_shard = _np(tagged.column("shard"))
    groups = {s: tagged.filter(pa.array(tagged_shard == s)) for s in affected}
    # a cache shard is rewritten only where a cached row was re-keyed; the
    # others keep their files and gain one file of delta rows, so the cache
    # write costs the delta, not the size of the shards it lands in
    rekeyed = set(shard[hit].tolist())
    cache = {
        s: pa.concat_tables([cached.filter(pa.array(shard == s)),
                             fresh.filter(pa.array(fresh_shard == s))])
        for s in sorted(rekeyed)
    }
    appended = {
        s: fresh.filter(pa.array(fresh_shard == s))
        for s in sorted(set(fresh_shard.tolist()) - rekeyed)
    }
    return Narrowing(keys, affected, live, groups, cache, appended)

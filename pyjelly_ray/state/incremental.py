"""Symbol-delta incremental-rebuild narrowing.

The per-shard ``row_xor`` skip (sinks/jelly_sink.py) already avoids
re-ENCODING byte-identical shards, but every rebuild still pays the full
exchange (dedup shuffle + shard shuffle + writer sort) for all shards.
This module proves which shards an add-only corpus delta cannot possibly
touch: the exchange's map pass tags each row ``kin = key ∈ K``
(:func:`kin_mask`), and the writer skips the sort, fingerprint and encode
of every shard group with no tagged row — no extra scan.

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
So with K = { old and new statement keys of class-(1)/(2) rows }, every
shard whose rows' keys are all ∉ K keeps an identical row multiset.
Rows are flagged by their OWN provenance shard, which over-approximates
(the statement's true shard is its dedup winner's, and the winner is
among the flagged key-sharers) — over-approximation only reduces
skipping, never correctness.

Modified/removed files, a changed shard plan, or changed stream options
make the proof inapplicable → the caller falls back to a full rebuild
(where the row_xor skip still applies).  Verdict r4 item 3 / r3 stretch #8.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

STATE_DIR = "state"
_REG_COLS = ["repo", "path", "content_sha256"]


# ------------------------------------------------------------------ state


def state_paths(out_dir: str) -> dict[str, str]:
    d = os.path.join(out_dir, STATE_DIR)
    return {
        "dir": d,
        "symbols": os.path.join(d, "symbols.parquet"),
        "files": os.path.join(d, "files.parquet"),
        "plan": os.path.join(d, "plan.json"),
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


# ------------------------------------------------------------------ deltas


def _anti(left: pa.Table, right: pa.Table, on: list[str]) -> pa.Table:
    """Rows of ``left`` with no match in ``right`` on ``on`` — polars anti
    join (multithreaded hash join; ~5× the Arrow index_in chain on the
    1.9M-row registries), Arrow fallback pinned value-identical."""
    try:
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
    except ImportError:
        lk = pc.binary_join_element_wise(
            *[left.column(c).cast(pa.string()) for c in on], "\x1f"
        )
        rk = pc.binary_join_element_wise(
            *[right.column(c).cast(pa.string()) for c in on], "\x1f"
        )
        return left.filter(pc.is_null(pc.index_in(lk, value_set=rk)))


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

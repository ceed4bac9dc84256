"""Seeded inputs and the reference answers the benchmark checks against.

Every input comes from ``pyjelly_ray.pipelines.corpus``, whose rows are a
pure function of ``(seed, i)`` and prefix-stable.  Because that generator
lives in the package under test, a fingerprint of its output for the
default seed is pinned in ``pins.json`` and checked on every run.
"""

from __future__ import annotations

import glob
import hashlib
import os

import pyarrow as pa
import pyarrow.parquet as pq

from pyjelly_ray.pipelines.corpus import corpus_table, expected_triples  # corpus_table: re-exported

HOT_REPO_PREFIX = "org0000/"  # the generator's hot repo and its org
DELTA_FILES = 4
DELTA_WINDOW = 64  # the delta files are taken from the corpus's last rows


def fingerprint(table: pa.Table) -> str:
    """Row-content fingerprint: sha256 over every column's values in order."""
    h = hashlib.sha256()
    for name in table.column_names:
        h.update(name.encode())
        for v in table.column(name).to_pylist():
            h.update(b"\x00" if v is None else str(v).encode() + b"\x1f")
    return h.hexdigest()[:16]


def write_corpus(path: str, table: pa.Table) -> str:
    # the same row-group size as the package's own corpus writer
    pq.write_table(table, path, row_group_size=8192)
    return path


def local_delta(table: pa.Table) -> tuple[pa.Table, list[int]]:
    """Split a corpus into a base and an add-only, repo-local delta.

    The delta is the last ``DELTA_FILES`` rows outside the hot org, so it
    touches a few small repos.  Later rows could only import a delta module
    if they followed it, which the window at the end of the corpus makes
    rare.  Returns the base (the corpus without the delta rows) and the
    delta row indices; the final corpus is the whole table.
    """
    n = table.num_rows
    repos = table.column("repo").to_pylist()
    held = [
        i for i in range(n - 1, max(n - DELTA_WINDOW, 0) - 1, -1)
        if not repos[i].startswith(HOT_REPO_PREFIX)
    ][:DELTA_FILES]
    keep = set(range(n)) - set(held)
    return table.take(sorted(keep)), sorted(held)


def expected_linked(seed: int, n_files: int) -> set[tuple]:
    """Closed-form statement set of ``build_kg`` over ``corpus_table(seed, n)``.

    The extractor's expected triples, with each mention resolved the way
    the linker does: a name resolves to the smallest IRI that defines it
    (module names by their full dotted name, symbols by their bare name),
    falling back to the bare last segment, else to an extern IRI.
    """
    from pyjelly_ray.stages.extract import ONT, RDF_TYPE
    from pyjelly_ray.stages.link import EXTERN_PREFIX

    exp = expected_triples(seed, n_files)
    symbols: dict[str, str] = {}
    for s, p, o in exp:
        if p == RDF_TYPE:
            tail = s.rsplit("/", 1)[-1]
            name = tail if o == ONT + "Module" else tail.rsplit(".", 1)[-1]
            if name not in symbols or s < symbols[name]:
                symbols[name] = s
    out = set()
    for s, p, o in exp:
        if o.startswith("unlinked:"):
            name = o[len("unlinked:"):]
            hit = symbols.get(name) or symbols.get(name.rsplit(".", 1)[-1])
            o = hit if hit is not None else EXTERN_PREFIX + name
        out.add((s, p, o))
    return out


def shard_files(out_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(out_dir, "part-*.jelly")))


def shard_digest(out_dir: str) -> str:
    """One digest over every shard's name and bytes."""
    h = hashlib.sha256()
    for path in shard_files(out_dir):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


def multiset_hash(tables: list[pa.Table]) -> int:
    """Order-free hash of the (s, p, o) rows of statement tables: the sum,
    modulo 2**64, of a hash per row, so it does not depend on how the rows
    are split into tables."""
    import numpy as np
    import polars as pl

    total = np.uint64(0)
    with np.errstate(over="ignore"):
        for t in tables:
            spo = pl.from_arrow(t.select(["s_value", "p_value", "o_value"]))
            total += spo.hash_rows(seed=1).to_numpy().sum(dtype=np.uint64)
    return int(total)


def flat_statement_table(paths: list[str]) -> pa.Table:
    """Every statement of the shard files through the pure ``decode_flat`` path."""
    from pyjelly_ray.jelly import decode_flat

    s, p, o = [], [], []
    for path in paths:
        with open(path, "rb") as f:
            for stmt in decode_flat(f.read()):
                s.append(stmt[0][1])
                p.append(stmt[1][1])
                o.append(stmt[2][1])
    return pa.table({"s_value": s, "p_value": p, "o_value": o},
                    schema=pa.schema([(c, pa.string()) for c in ("s_value", "p_value", "o_value")]))


def expected_digest(seeds: list[int], n_files: int) -> tuple[int, int]:
    """Row count and :func:`multiset_hash` of the closed-form statement sets
    of ``corpus_table(seed, n_files)`` for each seed, one graph per seed."""
    tables = []
    for seed in seeds:
        s, p, o = zip(*expected_linked(seed, n_files))
        tables.append(pa.table({"s_value": s, "p_value": p, "o_value": o}))
    return sum(t.num_rows for t in tables), multiset_hash(tables)


"""Lineage manifests: load, summarize, validate, resume planning.

Writer-side manifest emission lives in ``sinks/jelly_sink.py`` (atomic
``.tmp`` → rename, one JSON per shard).  This module is the read side:

- :func:`load_manifests` — all shard manifests of an output directory
- :func:`summarize` — roll-up (statements, bytes, files, status counts)
- :func:`pending_shards` — resume planning: which shards need (re)writing
  for a given input fingerprint set
- :func:`validate_invariants` — cross-checks manifests against the actual
  ``.jelly`` files on disk (existence, byte size) and, optionally, decodes
  them to verify statement counts (sha256 invariant roll-ups are carried in
  the manifests themselves).
"""

from __future__ import annotations

import glob
import json
import os


def load_manifests(out_dir: str) -> list[dict]:
    out = []
    for path in sorted(glob.glob(os.path.join(out_dir, "manifests", "*.json"))):
        with open(path) as f:
            out.append(json.load(f))
    return out


def summarize(out_dir: str) -> dict:
    manifests = load_manifests(out_dir)
    return {
        "n_shards": len(manifests),
        "n_statements": sum(m.get("n_statements", 0) for m in manifests),
        "n_bytes": sum(m.get("n_bytes", 0) for m in manifests),
        "n_files": sum(m.get("n_files", 0) for m in manifests),
        "statuses": {
            s: sum(1 for m in manifests if m.get("status") == s)
            for s in {m.get("status") for m in manifests}
        },
    }


def _part_path(out_dir: str, shard: str) -> str:
    """Part file of ``shard`` inside ``out_dir``.  Derived rather than read
    from the manifest's absolute ``path``: that path is recorded at write
    time, so after the output directory is moved or copied it points at
    the old location (or at nothing)."""
    return os.path.join(out_dir, f"part-{shard}.jelly")


def pending_shards(out_dir: str, expected: dict[str, str]) -> list[str]:
    """Shards whose manifest is missing or whose fingerprint differs.

    ``expected`` maps shard id → sha256_xor fingerprint of its input rows.
    """
    have = {m["shard"]: m for m in load_manifests(out_dir)}
    todo = []
    for shard, fp in expected.items():
        m = have.get(shard)
        if (
            m is None
            or m.get("sha256_xor") != fp
            or not os.path.exists(_part_path(out_dir, shard))
        ):
            todo.append(shard)
    return sorted(todo)


def prune_orphans(out_dir: str, live_shards: set[str]) -> list[str]:
    """Delete shard files + manifests NOT in ``live_shards`` (shard id
    strings as in the manifests, e.g. '00017').

    Incremental rebuilds skip-or-rewrite every shard the NEW corpus
    populates, but a shard whose repos all disappeared from the corpus
    would linger with stale bytes; pruning against the run's manifest
    Dataset restores full-rebuild equivalence.  Returns removed shard ids.
    """
    removed = []
    for path in sorted(glob.glob(os.path.join(out_dir, "manifests", "*.json"))):
        with open(path) as f:
            m = json.load(f)
        if m.get("shard") in live_shards:
            continue
        part = _part_path(out_dir, m.get("shard"))
        if os.path.exists(part):
            os.unlink(part)
        os.unlink(path)
        removed.append(m.get("shard"))
    return removed


def validate_invariants(out_dir: str, *, decode: bool = False) -> dict:
    """Check manifests against on-disk files; optionally decode-count."""
    manifests = load_manifests(out_dir)
    problems = []
    for m in manifests:
        path = _part_path(out_dir, m["shard"])
        if not os.path.exists(path):
            problems.append({"shard": m["shard"], "error": "missing file"})
            continue
        size = os.path.getsize(path)
        if size != m.get("n_bytes"):
            problems.append(
                {"shard": m["shard"], "error": f"size {size} != manifest {m['n_bytes']}"}
            )
            continue
        if decode:
            from ..jelly import decode_flat

            with open(path, "rb") as f:
                n = sum(1 for _ in decode_flat(f.read()))
            if n != m.get("n_statements"):
                problems.append(
                    {
                        "shard": m["shard"],
                        "error": f"decoded {n} != manifest {m['n_statements']}",
                    }
                )
    return {"ok": not problems, "checked": len(manifests), "problems": problems}

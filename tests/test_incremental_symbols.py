"""Symbol-delta incremental-rebuild narrowing (state/incremental.py +
kg.incremental_build_kg) — r3 stretch #8 / r4 verdict item 3.

The proof obligation: an incremental rebuild over an add-only corpus delta
must (a) leave provably-unaffected shards' files untouched on disk (their
mtimes don't change — they never cross the exchange's second hop), and
(b) produce a directory byte-identical to a full fresh rebuild of the new
corpus.  Non-add-only deltas must fall back to a full rebuild."""

from __future__ import annotations

import glob
import hashlib
import os

import pyarrow.parquet as pq
import pytest

from pyjelly_ray.pipelines.corpus import corpus_slice_table
from pyjelly_ray.pipelines.kg import build_kg, incremental_build_kg
from pyjelly_ray.state import incremental as inc

SEED = 31
N_V1 = 260
N_V2 = 262  # add-only: files [260, 262) appended — a LOCAL delta
N_SHARDS = 24


def _write_corpus(path, start, end):
    pq.write_table(corpus_slice_table(SEED, start, end), path)


def _dir_digests(out_dir):
    return {
        os.path.basename(p): hashlib.sha256(open(p, "rb").read()).hexdigest()
        for p in glob.glob(os.path.join(out_dir, "part-*.jelly"))
    }


def _consume(ds):
    return sum(b.num_rows for b in ds.iter_batches(batch_format="pyarrow"))


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    d = tmp_path_factory.mktemp("inc_corpora")
    v1 = str(d / "v1.parquet")
    v2 = str(d / "v2.parquet")
    _write_corpus(v1, 0, N_V1)
    _write_corpus(v2, 0, N_V2)
    return v1, v2


def test_incremental_add_only_narrowing(ray_session, corpora, tmp_path):
    v1, v2 = corpora
    out = str(tmp_path / "kg")
    ref = str(tmp_path / "kg_ref")

    r1 = incremental_build_kg(v1, out, n_shards=N_SHARDS)
    assert r1["mode"] == "full" and r1["reason"] == "no previous state"
    assert os.path.exists(inc.state_paths(out)["symbols"])
    mtimes_before = {
        p: os.path.getmtime(p) for p in glob.glob(os.path.join(out, "part-*.jelly"))
    }

    r2 = incremental_build_kg(v2, out, n_shards=N_SHARDS)
    assert r2["mode"] == "incremental", r2
    assert r2["affected"] + r2["skipped"] <= r2["n_total"]  # empty slots allowed
    # the delta must be narrower than a full rebuild AND must touch something
    assert 0 < r2["affected"] < r2["n_total"], r2
    assert r2["skipped"] > 0

    # (a) untouched shards were never rewritten (mtime identical)
    untouched = 0
    for p, t in mtimes_before.items():
        if os.path.exists(p) and os.path.getmtime(p) == t:
            untouched += 1
    assert untouched >= r2["skipped"] > 0

    # (b) byte-identical to a fresh full build of v2
    _consume(build_kg(v2, ref, n_shards=N_SHARDS))
    got, want = _dir_digests(out), _dir_digests(ref)
    assert got == want

    # idempotence: a second incremental run of the same corpus skips all
    r3 = incremental_build_kg(v2, out, n_shards=N_SHARDS)
    assert r3["mode"] == "incremental"
    assert r3["affected"] == 0 and r3["skipped"] == r3["n_total"], r3


def test_incremental_rewrites_missing_shard(ray_session, corpora, tmp_path):
    """A shard the delta does not touch is still rewritten when its part
    file or its manifest is gone from disk; the directory ends up
    byte-identical to a fresh full build."""
    v1, v2 = corpora
    # probe run: which shards does the v1 → v2 delta leave untouched?
    probe = str(tmp_path / "probe")
    incremental_build_kg(v1, probe, n_shards=N_SHARDS)
    before = {
        os.path.basename(p): os.path.getmtime(p)
        for p in glob.glob(os.path.join(probe, "part-*.jelly"))
    }
    incremental_build_kg(v2, probe, n_shards=N_SHARDS)
    untouched = sorted(
        name for name, t in before.items()
        if os.path.getmtime(os.path.join(probe, name)) == t
    )
    assert len(untouched) >= 2, untouched

    out = str(tmp_path / "kg")
    ref = str(tmp_path / "kg_ref")
    incremental_build_kg(v1, out, n_shards=N_SHARDS)
    lost_part, lost_manifest = untouched[0], untouched[1]
    os.remove(os.path.join(out, lost_part))
    os.remove(os.path.join(out, "manifests", lost_manifest[:-len(".jelly")] + ".json"))

    r = incremental_build_kg(v2, out, n_shards=N_SHARDS)
    assert r["mode"] == "incremental", r
    assert 0 < r["affected"] < r["n_total"], r
    assert os.path.exists(os.path.join(out, lost_part))
    assert os.path.exists(
        os.path.join(out, "manifests", lost_manifest[:-len(".jelly")] + ".json")
    )
    _consume(build_kg(v2, ref, n_shards=N_SHARDS))
    assert _dir_digests(out) == _dir_digests(ref)


def test_incremental_fallback_on_modification(ray_session, corpora, tmp_path):
    v1, _ = corpora
    out = str(tmp_path / "kg")
    incremental_build_kg(v1, out, n_shards=N_SHARDS)

    # modified delta: drop a file (NOT add-only) → full rebuild
    t = corpus_slice_table(SEED, 0, N_V1)
    smaller = str(tmp_path / "v1_minus.parquet")
    pq.write_table(t.slice(0, t.num_rows - 1), smaller)
    r = incremental_build_kg(smaller, out, n_shards=N_SHARDS)
    assert r["mode"] == "full"
    assert "add-only" in r["reason"]


def test_incremental_fallback_on_option_change(ray_session, corpora, tmp_path):
    from pyjelly_ray.jelly.options import StreamOptions

    v1, v2 = corpora
    out = str(tmp_path / "kg")
    incremental_build_kg(v1, out, n_shards=N_SHARDS)
    r = incremental_build_kg(
        v2, out, n_shards=N_SHARDS,
        jelly_options=StreamOptions(frame_size=128),
    )
    assert r["mode"] == "full"
    assert "options" in r["reason"]


def test_registry_and_symbol_delta_units():
    import pyarrow as pa

    reg_v1 = pa.table({
        "repo": ["r1", "r1"], "path": ["a.py", "b.py"],
        "content_sha256": ["s1", "s2"],
    })
    reg_v2 = pa.table({
        "repo": ["r1", "r1", "r2"], "path": ["a.py", "b.py", "c.py"],
        "content_sha256": ["s1", "s2", "s3"],
    })
    added, ok = inc.registry_delta(reg_v1, reg_v2)
    assert ok and added.to_pylist() == ["s3"]
    # modified: same path, new sha
    reg_mod = pa.table({
        "repo": ["r1", "r1"], "path": ["a.py", "b.py"],
        "content_sha256": ["s1", "sX"],
    })
    _, ok = inc.registry_delta(reg_v1, reg_mod)
    assert not ok
    # removed
    _, ok = inc.registry_delta(reg_v1, reg_v1.slice(0, 1))
    assert not ok

    old_sym = pa.table({"name": ["a", "b", "c"], "iri": ["i1", "i2", "i3"]})
    new_sym = pa.table({"name": ["a", "b", "c", "d"], "iri": ["i1", "i0", "i3", "i9"]})
    changed = set(inc.symbol_delta(old_sym, new_sym).to_pylist())
    assert changed == {"b", "d"}

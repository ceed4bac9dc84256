"""Symbol-delta incremental-rebuild narrowing (state/incremental.py +
kg.incremental_build_kg) — r3 stretch #8 / r4 verdict item 3.

The proof obligation: an incremental rebuild over an add-only corpus delta
must (a) leave provably-unaffected shards' files untouched on disk (their
mtimes don't change — their writer never runs), and
(b) produce a directory byte-identical to a full fresh rebuild of the new
corpus.  Non-add-only deltas, and a missing or stale triple cache, must
fall back to a full rebuild.

The rebuild extracts only the added files and writes only the affected
shards, from the groups :func:`inc.narrow` dedups on the driver; the
driver-only oracle tests at the end check those groups against a full
dedup on handmade rows."""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
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


def test_incremental_fallback_on_duplicate_path(ray_session, corpora, tmp_path):
    """A second row with a known file's (repo, path) is not extracted by
    the delta pass, so the proof cannot count its rows: full rebuild."""
    v1, _ = corpora
    base = pq.read_table(v1)
    doubled = str(tmp_path / "doubled.parquet")
    pq.write_table(pa.concat_tables([base, base.slice(0, 1)]), doubled)
    out = str(tmp_path / "kg")
    ref = str(tmp_path / "kg_ref")
    incremental_build_kg(v1, out, n_shards=N_SHARDS)
    r = incremental_build_kg(doubled, out, n_shards=N_SHARDS)
    assert r["mode"] == "full" and "duplicate" in r["reason"], r
    _consume(build_kg(doubled, ref, n_shards=N_SHARDS))
    assert _dir_digests(out) == _dir_digests(ref)


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


# ------------------------------------------------- triple cache, end to end


@pytest.fixture(scope="module")
def cold_v2(ray_session, corpora, tmp_path_factory):
    """Part-file digests and live shards of a cold ``build_kg`` of v2."""
    ref = str(tmp_path_factory.mktemp("cold_v2") / "kg")
    rows = build_kg(corpora[1], ref, n_shards=N_SHARDS).take_all()
    return _dir_digests(ref), sorted(r["shard"] for r in rows)


def test_incremental_extracts_only_added_files(ray_session, corpora, cold_v2, tmp_path):
    v1, v2 = corpora
    out = str(tmp_path / "kg")
    r1 = incremental_build_kg(v1, out, n_shards=N_SHARDS)
    assert r1["mode"] == "full"
    r2 = incremental_build_kg(v2, out, n_shards=N_SHARDS)
    assert r2["mode"] == "incremental", r2
    # only the added files are extracted; an empty file has nothing to
    # extract (no rows, no registry entry), so it is not counted
    added = corpus_slice_table(SEED, N_V1, N_V2).column("content").to_pylist()
    assert r2["files_extracted"] == sum(1 for c in added if c) > 0
    assert _dir_digests(out) == cold_v2[0]
    assert r2["live_shards"] == cold_v2[1]
    r3 = incremental_build_kg(v2, out, n_shards=N_SHARDS)
    assert r3["mode"] == "incremental", r3
    assert r3["files_extracted"] == 0 and r3["shards_written"] == 0, r3
    assert r3["skipped"] == r3["n_total"] == len(r3["live_shards"])
    assert r3["live_shards"] == cold_v2[1]


def test_incremental_relinks_names_called_elsewhere(ray_session, corpora, tmp_path):
    """A delta that defines a name other shards already call re-links rows
    far from its own shard; the result is still a cold build's bytes."""
    v1, _ = corpora
    base = pq.read_table(v1)
    definer = pa.table({
        "repo": ["org0003/repo0007"], "path": ["src/zz/helpers.py"],
        "commit": [base.column("commit")[0].as_py()], "lang": ["python"],
        "content": ["def helper(x):\n    return x\n"],
    }).cast(base.schema)
    grown = str(tmp_path / "grown.parquet")
    pq.write_table(pa.concat_tables([base, definer]), grown)

    out = str(tmp_path / "kg")
    ref = str(tmp_path / "kg_ref")
    incremental_build_kg(v1, out, n_shards=N_SHARDS)
    r = incremental_build_kg(grown, out, n_shards=N_SHARDS)
    assert r["mode"] == "incremental", r
    assert r["changed_names"] > 0 and r["files_extracted"] == 1
    assert r["shards_written"] > 1, r  # rows calling helper() live elsewhere
    _consume(build_kg(grown, ref, n_shards=N_SHARDS))
    assert _dir_digests(out) == _dir_digests(ref)


def _drop_cache_dir(out):
    shutil.rmtree(inc.state_paths(out)["triples"])


def _edit_fingerprint(out):
    path = inc.state_paths(out)["cache"]
    with open(path) as f:
        doc = json.load(f)
    doc["fingerprint"] = "0" * 64
    with open(path, "w") as f:
        json.dump(doc, f)


def _persist_newer_registry(out, corpus):
    """Rewrite the saved state from ``corpus`` the way a caller of the
    4-argument ``persist_state`` does, without touching the cache."""
    from pyjelly_ray.pipelines.kg import collect_stats, extract_triples, read_corpus

    triples = extract_triples(read_corpus(corpus)).materialize()
    sym, _, registry = collect_stats(triples, with_registry=True)
    _, _, plan = inc.load_state(out)
    inc.persist_state(out, sym, registry, plan)


@pytest.mark.parametrize("spoil", ["drop_dir", "edit_fingerprint", "newer_state"])
def test_incremental_stale_cache_falls_back(ray_session, corpora, cold_v2, tmp_path, spoil):
    v1, v2 = corpora
    out = str(tmp_path / "kg")
    incremental_build_kg(v1, out, n_shards=N_SHARDS)
    if spoil == "drop_dir":
        _drop_cache_dir(out)
    elif spoil == "edit_fingerprint":
        _edit_fingerprint(out)
    else:
        _persist_newer_registry(out, v2)
    r = incremental_build_kg(v2, out, n_shards=N_SHARDS)
    assert r["mode"] == "full", r
    assert "cache" in r["reason"], r
    assert _dir_digests(out) == cold_v2[0]
    again = incremental_build_kg(v2, out, n_shards=N_SHARDS)
    assert again["mode"] == "incremental", again


def _corpus_file(path, specs):
    """Write a corpus of handmade python files ``(repo, path, content)``."""
    pq.write_table(pa.table({
        "repo": [s[0] for s in specs], "path": [s[1] for s in specs],
        "commit": ["c0"] * len(specs), "lang": ["python"] * len(specs),
        "content": [s[2] for s in specs],
    }), path)
    return path


def _cached_files(out):
    return sorted(glob.glob(os.path.join(inc.state_paths(out)["triples"], "shard-*", "*.parquet")))


def test_full_build_caches_every_pre_dedup_row(ray_session, tmp_path):
    """The cache a fallback full build writes from its exchange's map tasks
    holds, per provenance shard, exactly :func:`inc.cache_rows` of every
    extracted row under that build's index and plan, duplicates included:
    ``a/mK.py`` and ``src/a/mK.py`` (both the module ``a.mK``) share every
    statement, and as adjacent corpus rows most pairs share a block, where
    the map task's local dedup drops one copy."""
    from collections import Counter

    from pyjelly_ray.sinks.jelly_sink import add_shard_column
    from pyjelly_ray.stages.dedup import add_tkey
    from pyjelly_ray.stages.extract import extract_batch, ingest_sha256
    from pyjelly_ray.stages.link import _link_batch, prepare_link_index

    specs = []
    for k in range(12):
        content = f"import lib{k}\ndef f{k}(x):\n    return helper(x)\n"
        specs += [(f"org/r{k % 3}", f"a/m{k}.py", content),
                  (f"org/r{k % 3}", f"src/a/m{k}.py", content)]
    specs.append(("lib/r", "lib/h.py", "def helper(x):\n    return x\n"))
    corpus = _corpus_file(str(tmp_path / "dup.parquet"), specs)
    out = str(tmp_path / "kg")
    r = incremental_build_kg(corpus, out, n_shards=4)
    assert r["mode"] == "full", r

    sym, _, plan = inc.load_state(out)
    assign = add_shard_column(plan["n_shards"], plan["hot_plan"])
    extracted = extract_batch(ingest_sha256(pq.read_table(corpus)))
    keyed = add_tkey(_link_batch(prepare_link_index(sym), extracted), plan["n_buckets"])
    want = inc.cache_rows(extracted, keyed, assign)
    want_shard = want.column("shard").to_numpy()
    cols = inc._CACHE_SCHEMA.names

    def rows(t):
        return Counter(zip(*(t.column(c).to_pylist() for c in cols)))

    dirs = sorted(glob.glob(os.path.join(inc.state_paths(out)["triples"], "shard-*")))
    assert [int(d[-5:]) for d in dirs] == sorted(set(want_shard.tolist()))
    for d in dirs:
        got = pq.ParquetDataset(d).read().cast(inc._CACHE_SCHEMA)
        assert rows(got) == rows(want.filter(pa.array(want_shard == int(d[-5:])))), d
    cached, reason = inc.load_cache(out, plan)
    assert reason is None and cached.num_rows == extracted.num_rows


def test_cache_survives_retried_map_tasks_and_an_empty_first_block(ray_session, tmp_path):
    """A one-file corpus is read into more blocks than it has rows, and the
    empty ones are schema-less.  Its fallback full build writes one cache
    file, for the one block with rows, and a cold build's bytes.  Then the
    exchange runs again over those blocks, empty ones first, and once more,
    as a retry of every map task would: the block with rows writes the
    same file under its own index both times, and ``load_cache`` still
    accepts the cache."""
    import ray

    from pyjelly_ray.pipelines.kg import collect_stats, extract_triples, read_corpus
    from pyjelly_ray.sinks.jelly_sink import dedup_and_write_kg_shards
    from pyjelly_ray.stages.link import make_linker_task, prepare_link_index

    corpus = _corpus_file(str(tmp_path / "one.parquet"),
                          [("org/r", "a/m.py", "def f(x):\n    return g(x)\n")])
    out, ref = str(tmp_path / "kg"), str(tmp_path / "kg_ref")
    r = incremental_build_kg(corpus, out, n_shards=N_SHARDS)
    assert r["mode"] == "full", r
    assert len(_cached_files(out)) == 1
    _consume(build_kg(corpus, ref, n_shards=N_SHARDS))
    assert _dir_digests(out) == _dir_digests(ref)

    refs = extract_triples(read_corpus(corpus)).materialize().to_arrow_refs()
    refs.sort(key=lambda b: ray.get(b).num_rows)
    assert ray.get(refs[0]).num_columns == 0 and ray.get(refs[-2]).num_rows == 0
    triples = ray.data.from_arrow_refs(refs)
    sym, _, plan = inc.load_state(out)
    _, repo_counts = collect_stats(triples)
    link = make_linker_task(ray.put(prepare_link_index(sym)))
    shutil.rmtree(inc.state_paths(out)["triples"])
    runs = []
    for _ in range(2):
        dedup_and_write_kg_shards(
            triples, out, n_shards=N_SHARDS, repo_counts=repo_counts,
            pre_map=link, write_cache=True,
        ).take_all()
        runs.append(_cached_files(out))
    assert [os.path.basename(f) for f in runs[0]] == [f"b{len(refs) - 1:05d}.parquet"]
    assert runs[1] == runs[0]
    cached, reason = inc.load_cache(out, plan)
    assert reason is None and cached.num_rows == ray.get(refs[-1]).num_rows


# ------------------------------------------- narrowing oracle (no Ray)

HOT = "hot/r"
N_BUCKETS = 4


def _files(*specs):
    """Extracted rows of handmade python files ``(repo, path, content)``."""
    from pyjelly_ray.stages.extract import extract_batch, ingest_sha256

    t = pa.table({
        "repo": [s[0] for s in specs], "path": [s[1] for s in specs],
        "commit": ["c0"] * len(specs), "lang": ["python"] * len(specs),
        "content": [s[2] for s in specs],
    })
    return extract_batch(ingest_sha256(t))


def _hot_plan():
    """A salting plan for ``n_shards=2`` that puts ``src/a/m.py`` and
    ``a/m.py`` (both the module ``a.m``) in different shards of the hot
    repo."""
    from pyjelly_ray.sinks.jelly_sink import add_shard_column

    probe = pa.table({"repo": [HOT, HOT], "path": ["src/a/m.py", "a/m.py"]})
    for k in range(2, 9):
        a, b = add_shard_column(2, {HOT: (2, k)})(probe).column("shard").to_pylist()
        if a != b:
            return {HOT: (2, k)}
    raise AssertionError("no split count separates the two paths")


def _salted_plan():
    from pyjelly_ray.sinks.jelly_sink import add_shard_column

    return add_shard_column(2, _hot_plan())


def _shard_of(assign, repo, path):
    return assign(pa.table({"repo": [repo], "path": [path]})).column("shard")[0].as_py()


def _rows_by_shard(t, shards):
    cols = ["shard", "repo", "path", "seq", "s_value", "p_value", "o_value"]
    cols += [c for c in ("h1", "h2") if c in t.column_names]
    t = t.filter(pc.is_in(t.column("shard"), value_set=pa.array(sorted(shards), pa.int32())))
    return sorted(zip(*(t.column(c).to_pylist() for c in cols)))


def _oracle(assign, old_files, delta_files):
    """Narrow, and compare every affected shard's group with a full dedup
    of all rows restricted to that shard; returns the narrowing and the
    full result."""
    from pyjelly_ray.stages.dedup import add_tkey, dedup_block
    from pyjelly_ray.stages.link import (
        _batch_min_by_name,
        _link_batch,
        build_symbol_dict_batch,
        prepare_link_index,
    )

    old, delta = _files(*old_files), _files(*delta_files)
    every = pa.concat_tables([old, delta])
    old_sym = _batch_min_by_name(build_symbol_dict_batch(old))
    new_sym = _batch_min_by_name(build_symbol_dict_batch(every))
    old_index, new_index = prepare_link_index(old_sym), prepare_link_index(new_sym)
    cached = inc.cache_rows(old, add_tkey(_link_batch(old_index, old), N_BUCKETS), assign)
    nar = inc.narrow(cached, delta, old_index, new_index,
                     inc.symbol_delta(old_sym, new_sym), N_BUCKETS, assign)

    full = assign(dedup_block(add_tkey(_link_batch(new_index, every), N_BUCKETS)))
    assert sorted(nar.groups) == nar.affected
    for shard, group in nar.groups.items():
        assert set(group.column("shard").to_pylist()) <= {shard}
        # kin marks exactly the rows whose (new) statement key is in K
        assert group.column("kin").to_pylist() == inc.kin_mask(group, nar.keys).tolist()
        linked = _link_batch(new_index, group)
        assert _rows_by_shard(linked, [shard]) == _rows_by_shard(full, [shard])
    unaffected = full.filter(pa.array(~np.isin(full.column("shard").to_numpy(), nar.affected)))
    assert not inc.kin_mask(unaffected, nar.keys).any()
    # the rewritten cache shards hold every row of theirs, keyed anew; an
    # appended one holds its cached rows plus the appended delta rows
    recached = inc.cache_rows(every, add_tkey(_link_batch(new_index, every), N_BUCKETS), assign)
    for shard, table in nar.cache.items():
        assert _rows_by_shard(table, [shard]) == _rows_by_shard(recached, [shard])
    for shard, table in nar.appended.items():
        grown = pa.concat_tables([cached, table])
        assert _rows_by_shard(grown, [shard]) == _rows_by_shard(recached, [shard])
    return nar, full


def test_narrow_oracle_statement_in_two_shards():
    """``src/a/m.py`` and ``a/m.py`` share the module statements of ``a.m``;
    the delta lands in the loser's shard, and the winner's shard stays
    unaffected, so the loser's copy must not be resurrected."""
    assign = _salted_plan()
    loser_shard = _shard_of(assign, HOT, "src/a/m.py")
    path = next(f"x{i}.py" for i in range(1000)
                if _shard_of(assign, HOT, f"x{i}.py") == loser_shard)
    nar, full = _oracle(
        assign,
        [(HOT, "a/m.py", "def f(x):\n    return x\n"),
         (HOT, "src/a/m.py", "def f(x):\n    return x\n")],
        [(HOT, path, "def g(x):\n    return x\n")],
    )
    assert loser_shard in nar.affected
    assert _shard_of(assign, HOT, "a/m.py") not in nar.affected


def test_narrow_oracle_loser_promoted_when_winner_relinks():
    """``a/m.py`` wins ``a.m imports <helper>`` through the bare name of
    ``x.helper``; the delta defines the module ``x.helper``, the winner
    re-links to it, and ``src/a/m.py``'s copy (``import helper``) wins."""
    assign = _salted_plan()
    nar, full = _oracle(
        assign,
        [(HOT, "a/m.py", "import x.helper\n"),
         (HOT, "src/a/m.py", "import helper\n"),
         ("lib/r", "lib/h.py", "def helper(x):\n    return x\n")],
        [("lib/r", "x/helper.py", "# a module\n")],
    )
    promoted_shard = _shard_of(assign, HOT, "src/a/m.py")
    assert promoted_shard in nar.affected
    assert any(r[2] == "src/a/m.py" and r[6].endswith("lib.h.helper")
               for r in _rows_by_shard(full, [promoted_shard]))


def test_narrow_oracle_delta_beats_cached_winner():
    """The delta adds ``a/m.py`` next to ``src/a/m.py``: its copy of the
    ``a.m`` module statements wins, and the old winner's shard loses them."""
    assign = _salted_plan()
    nar, full = _oracle(
        assign,
        [(HOT, "src/a/m.py", "def f(x):\n    return x\n")],
        [(HOT, "a/m.py", "# a module\n")],
    )
    old_shard = _shard_of(assign, HOT, "src/a/m.py")
    assert old_shard in nar.affected
    assert not any(r[2] == "src/a/m.py" and r[5].endswith("#definedIn")
                   for r in _rows_by_shard(full, [old_shard]))


def test_narrow_oracle_delta_loses_every_statement():
    """The delta adds ``src/a/m.py`` with the content of the cached
    ``a/m.py``, which keeps every statement; the delta's shard is affected,
    but its group holds only its old winners, none of them kin, so the
    writer may skip it."""
    assign = _salted_plan()
    loser_shard = _shard_of(assign, HOT, "src/a/m.py")
    path = next(f"x{i}.py" for i in range(1000)
                if _shard_of(assign, HOT, f"x{i}.py") == loser_shard)
    nar, full = _oracle(
        assign,
        [(HOT, "a/m.py", "def f(x):\n    return x\n"),
         (HOT, path, "def g(x):\n    return x\n")],
        [(HOT, "src/a/m.py", "def f(x):\n    return x\n")],
    )
    group = nar.groups[loser_shard]
    assert group.num_rows > 0
    assert set(group.column("path").to_pylist()) == {path}
    assert not any(group.column("kin").to_pylist())


def test_narrow_oracle_emptied_shard():
    """``src/a/m.py`` is alone in its shard; the delta adds an identical
    ``a/m.py`` in another shard, which wins every statement, so the old
    shard's group is empty."""
    assign = _salted_plan()
    content = "def f(x):\n    return x\n"
    nar, full = _oracle(assign, [(HOT, "src/a/m.py", content)], [(HOT, "a/m.py", content)])
    old_shard = _shard_of(assign, HOT, "src/a/m.py")
    assert old_shard in nar.live
    assert nar.groups[old_shard].num_rows == 0
    assert nar.groups[_shard_of(assign, HOT, "a/m.py")].num_rows > 0


def test_incremental_deletes_emptied_shard(ray_session, tmp_path, monkeypatch):
    """End to end under a fixed salting plan: an added ``a/m.py`` takes
    every statement of the live shard that held only ``src/a/m.py``.  The
    rebuild deletes that shard's part file and manifest, and the directory
    is byte-identical to a cold build, which writes no such shard."""
    from pyjelly_ray.sinks import jelly_sink
    from pyjelly_ray.state.manifest import validate_invariants

    plan = _hot_plan()
    monkeypatch.setattr(jelly_sink, "hot_repo_splits", lambda repo_counts, n_shards: plan)
    content = "def f(x):\n    return x\n"
    old = [(HOT, "src/a/m.py", content), ("lib/r", "lib/h.py", "def helper(x):\n    return x\n")]
    v1 = _corpus_file(str(tmp_path / "v1.parquet"), old)
    v2 = _corpus_file(str(tmp_path / "v2.parquet"), old + [(HOT, "a/m.py", content)])
    emptied = f"part-{_shard_of(_salted_plan(), HOT, 'src/a/m.py'):05d}"
    out = str(tmp_path / "kg")
    ref = str(tmp_path / "kg_ref")

    incremental_build_kg(v1, out, n_shards=2)
    assert os.path.exists(os.path.join(out, emptied + ".jelly"))
    r = incremental_build_kg(v2, out, n_shards=2)
    assert r["mode"] == "incremental", r
    cold = build_kg(v2, ref, n_shards=2).take_all()
    assert not os.path.exists(os.path.join(ref, emptied + ".jelly"))
    assert not os.path.exists(os.path.join(out, emptied + ".jelly"))
    assert not os.path.exists(os.path.join(out, "manifests", emptied + ".json"))
    assert _dir_digests(out) == _dir_digests(ref)
    assert sorted(os.listdir(os.path.join(out, "manifests"))) == sorted(
        os.listdir(os.path.join(ref, "manifests")))
    assert r["live_shards"] == sorted(row["shard"] for row in cold)
    assert validate_invariants(out, decode=True)["ok"]

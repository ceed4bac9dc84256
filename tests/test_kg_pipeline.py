"""End-to-end KG pipeline tests: extract → link → dedup → Jelly shards.

The written shards are parsed back with BOTH our decoder and reference
pyjelly; the statement set must equal the closed-form expected set (after
linking), and the per-row content_sha256 invariant must hold at every stage.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os

import pyarrow as pa
import pytest

from pyjelly_ray.pipelines import corpus as corpus_mod
from pyjelly_ray.pipelines.corpus import corpus_table, expected_triples, generate_rows
from pyjelly_ray.pipelines.kg import build_kg, extract_triples, link_triples
from pyjelly_ray.stages.dedup import dedup_exact
from pyjelly_ray.stages.extract import ONT, reference_extract
from pyjelly_ray.stages.link import EXTERN_PREFIX

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 7
N_FILES = 300


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    p = str(d / "corpus.parquet")
    corpus_mod.write_corpus_parquet(p, seed=SEED, n_files=N_FILES)
    return p


def _link_expected(exp: set[tuple], symbols: dict[str, str]) -> set[tuple]:
    out = set()
    for s, p, o in exp:
        if o.startswith("unlinked:"):
            name = o[9:]
            hit = symbols.get(name) or symbols.get(name.rsplit(".", 1)[-1])
            o = hit if hit is not None else EXTERN_PREFIX + name
        out.add((s, p, o))
    return out


def _expected_linked() -> set[tuple]:
    """Closed-form expected triples after deterministic linking + dedup."""
    from pyjelly_ray.stages.extract import RDF_TYPE

    exp = expected_triples(SEED, N_FILES)
    symbols: dict[str, str] = {}
    for s, p, o in exp:
        if p == RDF_TYPE:
            tail = s.rsplit("/", 1)[-1]
            if o == ONT + "Module":
                name = tail
            else:
                name = tail.rsplit(".", 1)[-1]
            if name not in symbols or s < symbols[name]:
                symbols[name] = s
    return _link_expected(exp, symbols)


def test_extract_link_dedup(ray_session, corpus_path):
    import ray

    corpus = ray.data.read_parquet(corpus_path)
    triples = extract_triples(corpus)
    linked = link_triples(triples)
    deduped = dedup_exact(linked).materialize()

    got = set()
    shas = {}
    for b in deduped.iter_batches(batch_format="pyarrow"):
        for s, p, o, repo, path, sha in zip(
            b.column("s_value").to_pylist(),
            b.column("p_value").to_pylist(),
            b.column("o_value").to_pylist(),
            b.column("repo").to_pylist(),
            b.column("path").to_pylist(),
            b.column("content_sha256").to_pylist(),
        ):
            got.add((s, p, o))
            shas[(repo, path)] = sha

    assert got == _expected_linked()
    # dedup: no duplicate statements at all
    assert deduped.count() == len(got)
    # sha invariant: the carried hash equals sha256 of the source content
    by_key = {(r["repo"], r["path"]): r["content"] for r in generate_rows(SEED, N_FILES)}
    for (repo, path), sha in shas.items():
        assert hashlib.sha256(by_key[(repo, path)].encode()).hexdigest() == sha


def test_full_pipeline_jelly_roundtrip(ray_session, corpus_path, tmp_path, pyjelly_reference):
    out_dir = str(tmp_path / "kg")
    manifests = build_kg(corpus_path, out_dir, n_shards=4).materialize()
    rows = manifests.take_all()
    assert all(r["status"] == "written" for r in rows)
    files = sorted(glob.glob(os.path.join(out_dir, "part-*.jelly")))
    assert files

    # parse back with our decoder
    from pyjelly_ray.jelly import decode_flat

    got = set()
    n_total = 0
    for fp in files:
        data = open(fp, "rb").read()
        for stmt in decode_flat(data):
            got.add((stmt[0][1], stmt[1][1], stmt[2][1]))
            n_total += 1
    assert got == _expected_linked()
    assert n_total == len(got)  # global dedup held across shards
    assert n_total == sum(r["n_statements"] for r in rows)

    # parse back with reference pyjelly (cross-implementation check)
    import io
    import sys

    sys.path.insert(0, "/root/reference")
    from pyjelly.integrations.generic.generic_sink import GenericStatementSink

    ref_got = set()
    for fp in files:
        sink = GenericStatementSink()
        sink.parse(io.BytesIO(open(fp, "rb").read()))
        for st in sink.store:
            ref_got.add((st.s._iri, st.p._iri, st.o._iri))
    assert ref_got == _expected_linked()


def test_resume_skips_unchanged_shards(ray_session, corpus_path, tmp_path):
    out_dir = str(tmp_path / "kg2")
    first = build_kg(corpus_path, out_dir, n_shards=4).materialize()
    assert all(r["status"] == "written" for r in first.take_all())
    mtimes = {f: os.path.getmtime(f) for f in glob.glob(os.path.join(out_dir, "part-*.jelly"))}
    second = build_kg(corpus_path, out_dir, n_shards=4).materialize()
    assert all(r["status"] == "skipped" for r in second.take_all())
    for f, m in mtimes.items():
        assert os.path.getmtime(f) == m  # files untouched on resume


def test_pipeline_pr_vs_reference_extractor(ray_session, corpus_path):
    """P/R ≥ 0.95 gate vs the independent single-process extractor."""
    import ray

    corpus = ray.data.read_parquet(corpus_path)
    triples = extract_triples(corpus)
    got = set()
    for b in triples.iter_batches(batch_format="pyarrow"):
        got.update(
            zip(
                b.column("s_value").to_pylist(),
                b.column("p_value").to_pylist(),
                b.column("o_value").to_pylist(),
            )
        )
    ref = reference_extract(list(generate_rows(SEED, N_FILES)))
    tp = len(got & ref)
    precision = tp / len(got)
    recall = tp / len(ref)
    assert precision >= 0.95 and recall >= 0.95


def test_extractor_go_rust_rules():
    """Extensibility rows of the per-lang rule registry (no corpus planting)."""
    import pyarrow as pa

    from pyjelly_ray.stages.extract import TripleExtractor, ingest_sha256

    go_src = (
        'package main\n\nimport "fmt"\nimport (\n\t"strings"\n)\n\n'
        "type Point struct {\n\tX int\n}\n\n"
        "func Dist(p Point) int {\n\treturn p.X\n}\n"
        "func (p Point) Norm() int {\n\treturn p.X\n}\n"
    )
    rust_src = (
        "use std::collections::HashMap;\n\n"
        "pub struct Graph {}\n"
        "trait Walkable {}\n"
        "pub async fn traverse(g: Graph) {}\n"
        "fn helper() {}\n"
    )
    batch = pa.table(
        {
            "repo": ["o/r", "o/r"],
            "path": ["src/p.go", "src/lib.rs"],
            "commit": ["c", "c"],
            "lang": ["go", "rust"],
            "content": [go_src, rust_src],
        }
    )
    out = TripleExtractor()(ingest_sha256(batch))
    by_pred: dict[str, set] = {}
    for i in range(out.num_rows):
        p = out.column("p_value")[i].as_py().rsplit("#", 1)[-1]
        o = out.column("o_value")[i].as_py()
        by_pred.setdefault(p, set()).add(o)
    # entities found across both files
    syms = {v.rsplit(".", 1)[-1] for v in
            {r["s_value"] for r in out.to_pylist() if r["p_value"].endswith("memberOf")}}
    assert {"Point", "Dist", "Norm", "Graph", "Walkable", "traverse", "helper"} <= syms
    imports = {v.split(":", 1)[-1] for v in by_pred.get("imports", set())}
    assert {"fmt", "strings", "std::collections::HashMap"} <= imports


def test_kg_symbol_pagerank_matches_numpy(ray_session, corpus_path):
    """The KG analytics pass (extract → link → edges → PageRank) agrees
    with a numpy power iteration over the independently-extracted edges."""
    import numpy as np

    from pyjelly_ray.pipelines.kg import kg_symbol_pagerank
    from pyjelly_ray.stages.extract import ONT

    got = (
        kg_symbol_pagerank(corpus_path, iters=6, num_partitions=4)
        .to_pandas()
        .set_index("node")["rank"]
    )

    # independent edge set from the single-process reference extractor +
    # the deterministic linker semantics (canonical = the symbol table maps
    # unlinked names to defined symbols; unresolvable names stay unlinked:)
    import pyarrow as pa
    import ray

    from pyjelly_ray.pipelines.kg import collect_stats, extract_triples, read_corpus
    from pyjelly_ray.stages.link import make_linker_task

    triples = extract_triples(read_corpus(corpus_path)).materialize()
    sym_table, _ = collect_stats(triples)
    sym_ref = ray.put(sym_table)
    linked = triples.map_batches(make_linker_task(sym_ref), batch_format="pyarrow")
    lt = pa.concat_tables(linked.iter_batches(batch_format="pyarrow"))
    import pyarrow.compute as pc

    lt = lt.filter(
        pc.is_in(lt.column("p_value"), value_set=pa.array([ONT + "imports", ONT + "calls"]))
    )
    pairs = sorted(
        {(a, b) for a, b in zip(lt.column("s_value").to_pylist(), lt.column("o_value").to_pylist())}
    )
    nodes = sorted({a for a, _ in pairs} | {b for _, b in pairs})
    idx = {v: i for i, v in enumerate(nodes)}
    N = len(nodes)
    assert N > 10 and len(pairs) > 10
    outdeg = np.zeros(N)
    for a, _ in pairs:
        outdeg[idx[a]] += 1
    r = np.full(N, 1.0 / N)
    for _ in range(6):
        contrib = np.zeros(N)
        for a, b in pairs:
            contrib[idx[b]] += r[idx[a]] / outdeg[idx[a]]
        r = (1 - 0.85) / N + 0.85 * contrib
    assert len(got) == N
    for v, i in idx.items():
        assert abs(got[v] - r[i]) < 1e-9, v


# --------------------------------------------------------------------------
# Chaos / crash-consistency (VERDICT r1 #7)
# --------------------------------------------------------------------------


def _shard_digests(out_dir: str) -> dict[str, str]:
    return {
        os.path.basename(f): hashlib.sha256(open(f, "rb").read()).hexdigest()
        for f in glob.glob(os.path.join(out_dir, "part-*.jelly"))
    }


def test_chaos_damage_resume_byte_identical(ray_session, corpus_path, tmp_path):
    """Every crash-interrupted on-disk state the tmp→fsync→rename protocol
    can leave behind must resume to a byte-identical build:

    - orphan ``part-*.jelly.tmp`` (killed mid-write, before rename)
    - shard file present but manifest missing (killed between rename and
      manifest write) → rewritten, bytes unchanged
    - manifest present but shard file missing (operator deleted output)
      → rewritten
    - healthy shard → skipped, mtime untouched
    """
    clean = str(tmp_path / "clean")
    build_kg(corpus_path, clean, n_shards=4).materialize()
    want = _shard_digests(clean)
    assert len(want) >= 4

    out = str(tmp_path / "chaos")
    build_kg(corpus_path, out, n_shards=4).materialize()
    parts = sorted(glob.glob(os.path.join(out, "part-*.jelly")))

    def mani(p: str) -> str:
        stem = os.path.splitext(os.path.basename(p))[0]
        return os.path.join(out, "manifests", stem + ".json")

    # inject the three damage states + keep parts[3] healthy
    with open(parts[0] + ".tmp", "wb") as f:
        f.write(b"\x00partial garbage from a killed writer")
    os.remove(mani(parts[1]))
    os.remove(parts[2])
    healthy_mtime = os.path.getmtime(parts[3])

    res = build_kg(corpus_path, out, n_shards=4).materialize()
    status = {
        os.path.basename(r["path"]): r["status"] for r in res.take_all()
    }
    assert _shard_digests(out) == want  # byte-identical after resume
    assert status[os.path.basename(parts[1])] == "written"  # manifest lost
    assert status[os.path.basename(parts[2])] == "written"  # file lost
    assert status[os.path.basename(parts[3])] == "skipped"  # untouched
    assert os.path.getmtime(parts[3]) == healthy_mtime
    # orphan tmp never became a visible shard
    assert not any(p.endswith(".tmp") for p in _shard_digests(out))


def test_chaos_sigkill_resume_byte_identical(corpus_path, tmp_path):
    """SIGKILL a real build subprocess mid-flight, then resume in a fresh
    process: the final shards must be byte-identical to a clean build,
    whatever intermediate state the kill left behind."""
    import signal
    import subprocess
    import sys
    import time

    clean = str(tmp_path / "clean_kill")
    subprocess.run(
        [sys.executable, "-m", "pyjelly_ray.cli", "build-kg",
         "--corpus", corpus_path, "--out", clean, "--shards", "4"],
        check=True, capture_output=True, cwd=ROOT,
    )
    want = _shard_digests(clean)

    out = str(tmp_path / "killed")
    proc = subprocess.Popen(
        [sys.executable, "-m", "pyjelly_ray.cli", "build-kg",
         "--corpus", corpus_path, "--out", out, "--shards", "4"],
        cwd=ROOT, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    time.sleep(6.0)  # mid-flight for a ~10 s build; any state is fair game
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # finished early — resume below must then skip everything
    proc.wait()

    subprocess.run(
        [sys.executable, "-m", "pyjelly_ray.cli", "build-kg",
         "--corpus", corpus_path, "--out", out, "--shards", "4"],
        check=True, capture_output=True, cwd=ROOT,
    )
    assert _shard_digests(out) == want


def test_sort_oracle_byte_identical(ray_session, corpus_path, tmp_path):
    """build_kg's fused two-hop exchange must write the same bytes as the
    plain Ray composition of the same kernels: ``dedup_exact`` (groupby
    sort shuffle) → ``add_shard_column`` → ``groupby("shard")`` →
    ``ShardJellyWriter``."""
    from pyjelly_ray.pipelines.kg import collect_stats, read_corpus
    from pyjelly_ray.sinks.jelly_sink import (
        ShardJellyWriter,
        add_shard_column,
        compute_shard_plan,
    )

    fused = str(tmp_path / "fused")
    build_kg(corpus_path, fused, n_shards=4).materialize()

    oracle = str(tmp_path / "oracle")
    triples = extract_triples(read_corpus(corpus_path)).materialize()
    _, repo_counts = collect_stats(triples)
    _, ns, hot_plan, _ = compute_shard_plan(repo_counts, 4)
    sharded = dedup_exact(link_triples(triples)).map_batches(
        add_shard_column(ns, hot_plan), batch_format="pyarrow"
    )
    writer = ShardJellyWriter(oracle)

    def write_shard(group: pa.Table) -> pa.Table:  # map_groups wants a __name__
        return writer(group)

    sharded.groupby("shard").map_groups(write_shard, batch_format="pyarrow").materialize()
    want = _shard_digests(oracle)
    assert len(want) >= 4
    assert _shard_digests(fused) == want


@pytest.fixture(scope="module")
def built_digests(ray_session, corpus_path, tmp_path_factory):
    """Shard digests of ``build_kg`` over the flat 300-file corpus, 4 shards."""
    out = str(tmp_path_factory.mktemp("kg_flat"))
    build_kg(corpus_path, out, n_shards=4).materialize()
    return _shard_digests(out)


@pytest.mark.parametrize("n_blocks", [None, 1, 2, 16])
def test_shard_bytes_independent_of_block_count(ray_session, corpus_path, tmp_path,
                                                built_digests, n_blocks):
    """The corpus block count sets every fan-out before the writer (extract,
    stats, exchange map side), never the bytes: dedup is exact and each
    shard is sorted by (repo, path, seq).  The default read of the small
    test corpus makes 2 × CPUs blocks (no constant floor)."""
    import ray

    from pyjelly_ray.pipelines.kg import collect_stats, read_corpus
    from pyjelly_ray.sinks.jelly_sink import dedup_and_write_kg_shards
    from pyjelly_ray.stages.link import make_linker_task, prepare_link_index

    want_blocks = n_blocks or 2 * int(ray.cluster_resources()["CPU"])
    triples = extract_triples(
        read_corpus(corpus_path, override_num_blocks=n_blocks)
    ).materialize()
    assert triples.num_blocks() == want_blocks
    sym_table, repo_counts = collect_stats(triples)
    out = str(tmp_path / "kg")
    dedup_and_write_kg_shards(
        triples, out, n_shards=4, repo_counts=repo_counts,
        pre_map=make_linker_task(ray.put(prepare_link_index(sym_table))),
    ).materialize()
    assert _shard_digests(out) == built_digests


def test_read_corpus_nested_dir_and_list(ray_session, tmp_path, built_digests):
    """A corpus split over nested directories, or given as a list of files,
    reads the same rows and builds the same shards as the flat file.
    ``read_corpus`` reads the file set ``ray.data.read_parquet`` reads: the
    whole tree, less names starting with ``.`` or ``_``."""
    import pyarrow.parquet as pq
    import ray

    from pyjelly_ray.pipelines.kg import read_corpus

    table = corpus_table(SEED, N_FILES)
    root = tmp_path / "nested"
    parts = [root / "part-0.parquet", root / "sub" / "part-1.parquet",
             root / "sub" / "deep" / "part-2.parquet"]
    cut = [0, 100, 200, N_FILES]
    for i, p in enumerate(parts):
        p.parent.mkdir(parents=True, exist_ok=True)
        pq.write_table(table.slice(cut[i], cut[i + 1] - cut[i]), str(p))
    # names Ray's directory walk skips: a whole second copy must not be read
    (root / ".staging").mkdir()
    pq.write_table(table, str(root / ".staging" / "copy.parquet"))
    pq.write_table(table, str(root / "sub" / "_copy.parquet"))

    listed = [str(p) for p in parts]
    assert ray.data.read_parquet(str(root)).count() == N_FILES
    for src in (str(root), listed):
        assert read_corpus(src).count() == N_FILES
        out = str(tmp_path / f"kg_{type(src).__name__}")
        build_kg(src, out, n_shards=4).materialize()
        assert _shard_digests(out) == built_digests


def test_incremental_rebuild_appended_corpus(ray_session, tmp_path):
    """Incremental KG rebuild (VERDICT r2 stretch #8): append files to the
    corpus, rerun build_kg into the SAME out_dir — only shards whose exact
    row multiset changed are re-encoded (row_xor skip key), untouched
    shards keep their mtimes, and the result is byte-identical to a fresh
    full rebuild of the appended corpus.  The row-level fingerprint is
    what makes this sound: a delta can change dedup winners or symbol
    resolution in shards whose OWN files never changed, and those shards
    must (and do) re-encode."""
    import pyarrow.parquet as pq

    from pyjelly_ray.pipelines import corpus as corpus_mod

    base_dir = tmp_path / "corpusA"
    base_dir.mkdir()
    corpus_mod.write_corpus_parquet(str(base_dir / "a.parquet"), seed=SEED, n_files=300)

    out_inc = str(tmp_path / "kg_inc")
    first = build_kg(str(base_dir), out_inc, n_shards=16).materialize()
    assert all(r["status"] == "written" for r in first.take_all())
    mtimes = {
        os.path.basename(f): os.path.getmtime(f)
        for f in glob.glob(os.path.join(out_inc, "part-*.jelly"))
    }
    xors1 = {r["shard"]: r["row_xor"] for r in first.take_all()}

    # appended delta: the NEXT files of the same deterministic generator
    # (rows are pure functions of (seed, i)) — a narrow, realistic append
    delta = corpus_mod.corpus_slice_table(SEED, 300, 312)
    pq.write_table(delta, str(base_dir / "b.parquet"), row_group_size=8192)

    second = build_kg(str(base_dir), out_inc, n_shards=16).materialize()
    rows2 = second.take_all()
    by_status = {r["shard"]: r["status"] for r in rows2}
    xors2 = {r["shard"]: r["row_xor"] for r in rows2}
    changed = {s for s in xors2 if xors1.get(s) != xors2[s]}
    written = {s for s, st in by_status.items() if st == "written"}
    skipped = {s for s, st in by_status.items() if st == "skipped"}
    # minimal touching: re-encoded exactly the changed-row shards
    assert written == changed, (written, changed)
    assert skipped, "append should leave some shards untouched"
    for s in skipped:
        f = os.path.join(out_inc, f"part-{s}.jelly")
        assert os.path.getmtime(f) == mtimes[f"part-{s}.jelly"]

    # byte identity vs a fresh full rebuild of the appended corpus
    out_full = str(tmp_path / "kg_full")
    build_kg(str(base_dir), out_full, n_shards=16).materialize().take_all()

    def digests(d):
        return {
            os.path.basename(f): hashlib.sha256(open(f, "rb").read()).hexdigest()
            for f in glob.glob(os.path.join(d, "part-*.jelly"))
        }

    assert digests(out_inc) == digests(out_full)


def test_prune_orphans_on_shrunk_corpus(ray_session, tmp_path):
    """A shard whose repos vanish from the corpus lingers with stale bytes;
    prune_orphans against the new run's manifest set restores full-rebuild
    equivalence (file set AND bytes)."""
    from pyjelly_ray.pipelines import corpus as corpus_mod
    from pyjelly_ray.state.manifest import load_manifests, prune_orphans

    big = tmp_path / "corpus_big.parquet"
    small = tmp_path / "corpus_small.parquet"
    corpus_mod.write_corpus_parquet(str(big), seed=SEED, n_files=300)
    corpus_mod.write_corpus_parquet(str(small), seed=SEED, n_files=8)

    out = str(tmp_path / "kg_shrink")
    build_kg(str(big), out, n_shards=16).materialize().take_all()
    rows = build_kg(str(small), out, n_shards=16).materialize().take_all()
    live = {r["shard"] for r in rows}
    on_disk = {m["shard"] for m in load_manifests(out)}
    assert on_disk - live, "shrink should orphan at least one shard"
    removed = prune_orphans(out, live)
    assert set(removed) == on_disk - live
    out_full = str(tmp_path / "kg_small_full")
    build_kg(str(small), out_full, n_shards=16).materialize().take_all()

    def names_digests(d):
        return {
            os.path.basename(f): hashlib.sha256(open(f, "rb").read()).hexdigest()
            for f in glob.glob(os.path.join(d, "part-*.jelly"))
        }

    assert names_digests(out) == names_digests(out_full)


def test_skip_refreshes_sha_lineage(ray_session, tmp_path):
    """Round-3 ADVICE: a content-only delta that extracts to the SAME
    statements (e.g. a trailing comment) must still SKIP the shard
    (row_xor equal ⇒ bytes identical) while REFRESHING the manifest's
    sha256_xor lineage — otherwise pending_shards() keyed on the new
    corpus fingerprints would report the shard pending forever."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from pyjelly_ray.pipelines.corpus import corpus_table
    from pyjelly_ray.state.manifest import load_manifests

    t = corpus_table(seed=11, n_files=120)
    p1 = str(tmp_path / "c1.parquet")
    pq.write_table(t, p1)
    out = str(tmp_path / "kg")
    build_kg(p1, out, n_shards=4).materialize()
    before = {m["shard"]: m for m in load_manifests(out)}
    mtimes = {f: os.path.getmtime(f) for f in glob.glob(os.path.join(out, "part-*.jelly"))}

    # comment-only edit to one file: content sha changes, statements don't
    contents = t.column("content").to_pylist()
    contents[0] = contents[0] + "\n# trailing comment, no code\n"
    t2 = t.set_column(
        t.schema.get_field_index("content"), "content",
        pa.array(contents, pa.string()),
    )
    p2 = str(tmp_path / "c2.parquet")
    pq.write_table(t2, p2)

    res = build_kg(p2, out, n_shards=4).materialize()
    assert all(r["status"] == "skipped" for r in res.take_all())
    for f, m in mtimes.items():
        assert os.path.getmtime(f) == m  # bytes genuinely untouched

    after = {m["shard"]: m for m in load_manifests(out)}
    changed = [s for s in after if after[s]["sha256_xor"] != before[s]["sha256_xor"]]
    # exactly the edited file's shard refreshed its lineage...
    assert len(changed) == 1
    s = changed[0]
    # ...with rows/bytes provably unchanged
    assert after[s]["row_xor"] == before[s]["row_xor"]
    assert after[s]["n_bytes"] == before[s]["n_bytes"]
    # and a THIRD run over the same corpus now skips with stable lineage
    res3 = build_kg(p2, out, n_shards=4).materialize()
    assert all(r["status"] == "skipped" for r in res3.take_all())
    assert {m["shard"]: m["sha256_xor"] for m in load_manifests(out)} == {
        s_: m["sha256_xor"] for s_, m in after.items()
    }

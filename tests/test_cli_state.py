"""Tests for the CLI entry points and lineage/state utilities."""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil

import pytest

from pyjelly_ray.cli import main as cli_main
from pyjelly_ray.pipelines.corpus import write_corpus_parquet
from pyjelly_ray.state.manifest import (
    load_manifests,
    pending_shards,
    summarize,
    validate_invariants,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def kg_out(ray_session, tmp_path_factory):
    from pyjelly_ray.pipelines.kg import build_kg

    d = tmp_path_factory.mktemp("clistate")
    corpus = str(d / "corpus.parquet")
    write_corpus_parquet(corpus, seed=11, n_files=120)
    out = str(d / "kg")
    build_kg(corpus, out, n_shards=4).materialize()
    return out


def test_manifest_load_and_summary(kg_out):
    manifests = load_manifests(kg_out)
    assert manifests and all(m["status"] == "written" for m in manifests)
    s = summarize(kg_out)
    assert s["n_shards"] == len(manifests)
    assert s["n_statements"] == sum(m["n_statements"] for m in manifests)


def test_validate_invariants_decode(kg_out):
    result = validate_invariants(kg_out, decode=True)
    assert result["ok"], result["problems"]


def test_pending_shards(kg_out):
    manifests = load_manifests(kg_out)
    expected = {m["shard"]: m["sha256_xor"] for m in manifests}
    assert pending_shards(kg_out, expected) == []
    # corrupt one fingerprint → that shard becomes pending
    victim = manifests[0]["shard"]
    expected[victim] = "0" * 64
    assert pending_shards(kg_out, expected) == [victim]


def test_manifest_checks_follow_a_copied_out_dir(ray_session, tmp_path):
    """Manifests record the absolute part path at write time; validation
    and resume planning must check the files of the directory they are
    given, so a copied or moved output directory is judged on its own."""
    from pyjelly_ray.pipelines.kg import build_kg

    corpus = str(tmp_path / "corpus.parquet")
    write_corpus_parquet(corpus, seed=11, n_files=60)
    orig = str(tmp_path / "orig")
    build_kg(corpus, orig, n_shards=4).materialize()

    damaged = str(tmp_path / "damaged")
    shutil.copytree(orig, damaged)
    victim = load_manifests(damaged)[0]["shard"]
    with open(os.path.join(damaged, f"part-{victim}.jelly"), "r+b") as f:
        f.truncate(10)
    result = validate_invariants(damaged)
    assert not result["ok"]
    assert [p["shard"] for p in result["problems"]] == [victim]

    moved = str(tmp_path / "moved")
    shutil.copytree(orig, moved)
    shutil.rmtree(orig)
    result = validate_invariants(moved, decode=True)
    assert result["ok"], result["problems"]
    expected = {m["shard"]: m["sha256_xor"] for m in load_manifests(moved)}
    assert pending_shards(moved, expected) == []


def test_cli_incremental_prune_matches_fresh_build(ray_session, tmp_path, capsys):
    """``build-kg --incremental --prune`` after the corpus shrinks leaves
    the same part files, with the same bytes, as a fresh build."""
    big = str(tmp_path / "big.parquet")
    small = str(tmp_path / "small.parquet")
    write_corpus_parquet(big, seed=7, n_files=300)
    write_corpus_parquet(small, seed=7, n_files=8)

    def build(corpus, out, *flags):
        args = ["build-kg", "--corpus", corpus, "--out", out, "--shards", "16"]
        assert cli_main(args + list(flags)) == 0
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    def digests(d):
        return {
            os.path.basename(f): hashlib.sha256(open(f, "rb").read()).hexdigest()
            for f in glob.glob(os.path.join(d, "part-*.jelly"))
        }

    out = str(tmp_path / "kg")
    build(big, out, "--incremental")
    before = digests(out)
    res = build(small, out, "--incremental", "--prune")
    fresh = str(tmp_path / "fresh")
    build(small, fresh)
    assert res["pruned"], "the shrink should orphan at least one shard"
    assert len(before) > len(digests(fresh))
    assert digests(out) == digests(fresh)


def test_cli_validate_and_roundtrip(kg_out, capsys):
    assert cli_main(["validate", "--out", kg_out, "--decode"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["ok"]

    manifests = load_manifests(kg_out)
    assert cli_main(["roundtrip", "--jelly", manifests[0]["path"]]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["stable"] and out["statements"] == manifests[0]["n_statements"]


def test_cli_gen_corpus(tmp_path, capsys):
    p = str(tmp_path / "c.parquet")
    assert cli_main(["gen-corpus", "--out", p, "--files", "50"]) == 0
    import pyarrow.parquet as pq

    t = pq.read_table(p)
    assert t.num_rows == 50
    assert t.schema.names == ["repo", "path", "commit", "lang", "content"]


def test_cli_pagerank(tmp_path, capsys, ray_session):
    import json

    p = str(tmp_path / "prc.parquet")
    assert cli_main(["gen-corpus", "--out", p, "--files", "120"]) == 0
    capsys.readouterr()
    assert cli_main(["pagerank", "--corpus", p, "--iters", "3", "--top", "5"]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert len(out["top"]) == 5
    ranks = [r["rank"] for r in out["top"]]
    assert ranks == sorted(ranks, reverse=True) and ranks[0] > 0


def test_cli_quality(ray_session):
    """`quality` subcommand: JSON report, exit 0 on all-pass, 2 on fail."""
    import json
    import subprocess
    import sys

    def run(rules):
        return subprocess.run(
            [sys.executable, "-m", "pyjelly_ray.cli", "quality",
             "--sf-dir", "/root/testdata/sf0.001", "--table", "orders",
             "--rules", json.dumps(rules)],
            capture_output=True, text=True, cwd=ROOT,
        )

    ok = run([{"rule": "k", "column": "o_orderkey", "kind": "unique"}])
    assert ok.returncode == 0
    rep = json.loads(ok.stdout.strip().splitlines()[-1])
    assert rep["all_passed"] and rep["rules"][0]["n_violations"] == 0

    bad = run([{"rule": "r", "column": "o_totalprice", "kind": "in_range",
                "lo": 0, "hi": 100}])
    assert bad.returncode == 2
    rep = json.loads(bad.stdout.strip().splitlines()[-1])
    assert not rep["all_passed"] and rep["rules"][0]["n_violations"] > 0

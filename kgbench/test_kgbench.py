"""The benchmark's own tests, at a tiny corpus size.

    python -m pytest -q kgbench/test_kgbench.py

They check that every metric BENCHMARK.json names is printed with its unit
on every workload, that a corrupted shard makes its job count as failed,
and that the engine only ever receives inputs made from the seed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pyarrow.parquet as pq
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = 300


def _bench_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _run(args, cwd=ROOT, env=None, timeout=300):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "kgbench", "run.py"), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
    )


@pytest.fixture(scope="module")
def ray_session():
    import ray

    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    ray.init(address="local", num_cpus=1, include_dashboard=False, log_to_driver=False)
    yield
    ray.shutdown()


def test_metric_tables_match_benchmark_json():
    from kgbench.layers import END_TO_END, PER_LAYER

    spec = _bench_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["kg_cold_build", "kg_local_delta", "jelly_scan"]


@pytest.mark.parametrize("workload", ["kg_cold_build", "kg_local_delta", "jelly_scan"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    spec = _bench_json()
    out = _run(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                "--trace", str(trace), "--files", str(TINY)])
    assert out.returncode == 0, out.stderr[-2000:]
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in want}
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
    if trace and workload == "kg_local_delta":
        m = {k: v["value"] for k, v in res["metrics"].items()}
        assert m["incremental.applied"] == 1 and m["incremental.skip_ratio"] > 0


def _flip_one_byte(path: str) -> None:
    with open(path, "r+b") as f:
        data = bytearray(f.read())
        data[len(data) // 2] ^= 0x5A
        f.seek(0)
        f.write(data)


def test_flipped_byte_fails_build_job(ray_session, tmp_path):
    from kgbench import inputs
    from kgbench.workloads import ColdBuild

    class Corrupting(ColdBuild):
        corrupt = False

        def _run(self, job, tr):
            super()._run(job, tr)
            if self.corrupt:
                _flip_one_byte(inputs.shard_files(self.out)[0])

    wl = Corrupting(str(tmp_path / "w"), 3, TINY, None)
    wl.setup()
    assert wl.run_job(None).problems == []
    wl.corrupt = True
    assert wl.run_job(None).problems


def test_flipped_byte_fails_scan_job(ray_session, tmp_path):
    from kgbench.workloads import JellyScan

    wl = JellyScan(str(tmp_path / "w"), 3, TINY, None)
    wl.setup()
    wl.reference()
    assert wl.run_job(None).problems == []
    _flip_one_byte(wl.shard_paths()[0])
    assert wl.run_job(None).problems


def test_engine_receives_only_seeded_inputs(ray_session, tmp_path, monkeypatch):
    import pyjelly_ray.pipelines.kg as kg

    from kgbench import inputs
    from kgbench.workloads import LocalDelta

    seen = []
    real = kg.incremental_build_kg

    def recording(corpus_path, out_dir, **kw):
        seen.append(corpus_path)
        return real(corpus_path, out_dir, **kw)

    monkeypatch.setattr(kg, "incremental_build_kg", recording)
    wl = LocalDelta(str(tmp_path / "w"), 5, TINY, None)
    wl.setup()
    assert wl.run_job(None).problems == []
    final = inputs.corpus_table(5, TINY)
    base, held = inputs.local_delta(final)
    assert seen and set(seen) <= set(wl.program_inputs)
    got = {inputs.fingerprint(pq.read_table(p)) for p in seen}
    assert got == {inputs.fingerprint(base), inputs.fingerprint(final)}
    # the delta is add-only, a few files, outside the hot org
    assert len(held) == inputs.DELTA_FILES
    assert not any(final.column("repo")[i].as_py().startswith(inputs.HOT_REPO_PREFIX) for i in held)
    assert base.num_rows + len(held) == final.num_rows


def test_seed_changes_inputs():
    from kgbench import inputs

    a, b = inputs.corpus_table(3, TINY), inputs.corpus_table(4, TINY)
    assert inputs.fingerprint(a) != inputs.fingerprint(b)
    assert inputs.fingerprint(a) == inputs.fingerprint(inputs.corpus_table(3, TINY))


def test_pinned_generator_fingerprint():
    from kgbench.run import check_pins

    assert check_pins() is None


def test_refuses_program_variant_knobs():
    env = dict(os.environ, GRAFT_NO_CFOLD="1")
    out = _run(["--workload", "jelly_scan", "--seed", "1", "--seconds", "1"], env=env)
    assert out.returncode != 0 and out.stdout.strip() == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "kgbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(["--workload", "kg_cold_build", "--seed", "1", "--seconds", "1"], cwd=str(tmp_path))
    assert out.returncode != 0 and out.stdout.strip() == ""

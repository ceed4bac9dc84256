"""KG flagship across a REAL multi-node Ray cluster (head + worker processes).

Setup (two real Ray nodes on one box — separate raylets and object stores,
inter-node transfer over loopback gRPC):

    ray stop --force
    RAY_ADDRESS= ray start --head --num-cpus=16 --port=6379 --include-dashboard=false
    RAY_ADDRESS= ray start --address=<head_ip>:6379 --num-cpus=16

Usage: RAY_ADDRESS= python tools/two_node_bench.py <label>
       EXPECT_NODES=1 to run the single-node control on a head-only cluster.

Connects to the cluster, asserts the node count, runs build_kg at sf0.1 and
prints one JSON line: wall, statement count, whole-output digest, per-node
per-stage task counts (from GRAFT_TASKPROF lines, which now carry node ids).
The digest must be IDENTICAL across node counts.
"""
import collections
import glob
import hashlib
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
label = sys.argv[1]
import ray
prof_pre = f"/tmp/prof_2node_{label}.jsonl"
open(prof_pre, "w").close()
ray.init(address="127.0.0.1:6379", ignore_reinit_error=True,
         runtime_env={"env_vars": {"GRAFT_TASKPROF": f"/tmp/prof_2node_{label}.jsonl"}})
nodes = [n for n in ray.nodes() if n["Alive"]]
import os as _os
exp = int(_os.environ.get("EXPECT_NODES", "2"))
assert len(nodes) == exp, f"expected {exp} nodes, got {len(nodes)}"
cpus = sum(n["Resources"].get("CPU", 0) for n in nodes)
prof = f"/tmp/prof_2node_{label}.jsonl"
os.environ["GRAFT_TASKPROF"] = prof
from pyjelly_ray.pipelines.kg import build_kg
corpus = "/tmp/pyjelly_ray_corpus_sf0.1_1920000"
out = f"/tmp/kg_2node_{label}"
shutil.rmtree(out, ignore_errors=True)
t0 = time.perf_counter()
rows = build_kg(corpus, out, n_shards=32).take_all()
wall = time.perf_counter() - t0
n_stmts = sum(r["n_statements"] for r in rows)
parts = sorted(glob.glob(os.path.join(out, "part-*.jelly")))
digest = hashlib.sha256(b"".join(open(f, "rb").read() for f in parts)).hexdigest()
per_node = collections.defaultdict(lambda: collections.Counter())
for line in open(prof):
    d = json.loads(line)
    if d.get("node"): per_node[d["node"]][d["stage"]] += 1
print(json.dumps({
    "label": label, "nodes": len(nodes), "total_cpus": cpus,
    "wall_sec": round(wall, 2), "n_statements": n_stmts,
    "triples_per_sec": round(n_stmts / wall, 1),
    "digest": digest[:16],
    "tasks_per_node": {k: sum(v.values()) for k, v in per_node.items()},
    "stage_split": {k: dict(v) for k, v in per_node.items()},
}))
ray.shutdown()

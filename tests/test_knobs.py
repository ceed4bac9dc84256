"""Env-knob inventory.

Every ``GRAFT_*`` variable the engine reads is a deployment surface that
must be documented, tested and kept working, so the set is pinned here: a
new knob has to be added on purpose, and a deleted one must also leave the
README.
"""

from __future__ import annotations

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KNOB = re.compile(r"GRAFT_[A-Z_]+")

ENGINE_KNOBS = {
    "GRAFT_CC",
    "GRAFT_CC_LOCAL_MAX",
    "GRAFT_CFOLD_CACHE",
    "GRAFT_CFOLD_SO_DIR",
    "GRAFT_CORR_LOCAL_MAX",
    "GRAFT_FSYNC",
    "GRAFT_GROUPED_LOCAL_MAX",
    "GRAFT_MAX_BUCKETS",
    "GRAFT_MAX_SHARDS",
    "GRAFT_NO_CFOLD",
    "GRAFT_NUM_PARTITIONS",
    "GRAFT_PR_LOCAL_MAX",
    "GRAFT_READ_CACHE",
    "GRAFT_READ_CACHE_MAX_ROWS",
    "GRAFT_SHARD_TARGET",
    "GRAFT_TASKPROF",
}


def _knobs_in(path: str) -> set[str]:
    with open(path, encoding="utf-8") as f:
        return set(KNOB.findall(f.read()))


def _engine_knobs() -> set[str]:
    found: set[str] = set()
    for d, dirs, files in os.walk(os.path.join(ROOT, "pyjelly_ray")):
        dirs[:] = [x for x in dirs if x != "__pycache__"]
        for name in files:
            if name.endswith((".py", ".c")):
                found |= _knobs_in(os.path.join(d, name))
    return found


def test_engine_knobs_are_pinned():
    assert _engine_knobs() == ENGINE_KNOBS


def test_readme_knobs_are_all_read():
    read = _engine_knobs() | _knobs_in(os.path.join(ROOT, "bench.py"))
    documented = _knobs_in(os.path.join(ROOT, "README.md"))
    assert documented - read == set()

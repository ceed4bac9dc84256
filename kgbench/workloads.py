"""The three workloads: what each sets up, runs as one job, and checks.

Each workload is a single closed-loop client: one job at a time, the next
job only after the previous one and its checks are done.  A job drives the
engine only through its public API (``build_kg``, ``incremental_build_kg``,
``read_jelly``); a traced job rebuilds the same job from the public calls
one layer down (see ``trace.py``).

Why these three (see DESIGN.md for the metric -> layer map):

- ``kg_cold_build``: the paper's flagship job; every layer does its full
  share, encode included.
- ``kg_local_delta``: an add-only delta confined to a few non-hot repos on
  a graph the code under test built.  Extract, stats, link and exchange do
  a cold build's work, but the incremental proof leaves most shards alone,
  so the sink is nearly idle: an encode gain should not move it, a
  narrowing gain should move only it.
- ``jelly_scan``: the consumer side.  Only the Jelly source and decoder
  run; extract, exchange and encode do nothing.
"""

from __future__ import annotations

import os
import shutil
import time
import traceback
from dataclasses import dataclass, field

import pyarrow as pa

from . import inputs
from .procstat import TreeSampler
from .trace import (
    Tracer,
    consume_scan,
    traced_build_kg,
    traced_incremental_build_kg,
    traced_scan,
)

N_SHARDS = 12
# Corpus sizes (files).  The delta corpus stays far below 200k pre-dedup
# statements so that four added files cannot move the shard plan's bucket
# count (one bucket per 200k statements), which would turn the rebuild
# into a full one for a reason that is not the delta's locality.
SIZES = {"kg_cold_build": 15_000, "kg_local_delta": 12_000, "jelly_scan": 10_000}
# A cold-build set-up warms the session with a build of this many files:
# the first build of a session pays one-time costs whatever its size.
WARMUP_FILES = 1_500


@dataclass
class Job:
    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    peak_spill_mb: float = 0.0
    stmts: int = 0
    out_bytes: int = 0
    problems: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)  # what a traced job hands the replay


def _decoded_count(out_dir: str) -> int:
    from pyjelly_ray.jelly.decode_fast import decode_table

    n = 0
    for path in inputs.shard_files(out_dir):
        with open(path, "rb") as f:
            n += decode_table(f.read()).num_rows
    return n


def _decoded_tables(out_dir: str) -> list[pa.Table]:
    from pyjelly_ray.jelly.decode_fast import decode_table

    tables = []
    for path in inputs.shard_files(out_dir):
        with open(path, "rb") as f:
            tables.append(decode_table(f.read()))
    return tables


class Workload:
    name = ""

    def __init__(self, work_dir: str, seed: int, n_files: int | None, spill_dir: str | None):
        self.work = work_dir
        self.seed = seed
        self.n_files = n_files or SIZES[self.name]
        self.spill_dir = spill_dir
        self.digest: str | None = None
        self.manifest_validate_s: list[float] = []
        self.program_inputs: list[str] = []  # every path handed to the engine
        os.makedirs(work_dir, exist_ok=True)

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def corpus(self, name: str, table: pa.Table) -> str:
        p = inputs.write_corpus(self.path(name), table)
        self.program_inputs.append(p)
        return p

    # Each workload defines setup(), _run(job, tracer) and final_check().

    def _prepare(self) -> None:
        """Untimed per-job preparation."""

    def run_job(self, tr: Tracer | None) -> Job:
        job = Job(traced=tr is not None)
        self._prepare()
        with TreeSampler(self.spill_dir) as s:
            t0 = time.perf_counter()
            try:
                self._run(job, tr)
            except Exception as e:  # an engine error fails this job, not the run
                traceback.print_exc()
                job.problems.append(f"{type(e).__name__}: {str(e)[:300]}")
            job.wall_s = time.perf_counter() - t0
        job.cpu_s, job.peak_rss_mb, job.peak_spill_mb = s.cpu_s, s.peak_rss_mb, s.peak_spill_mb
        if not job.problems:
            self.check(job)
        return job

    def check_graph(self, job: Job, out_dir: str) -> None:
        """The per-job gate every build output passes."""
        from pyjelly_ray.state.manifest import summarize, validate_invariants

        t0 = time.perf_counter()
        v = validate_invariants(out_dir)
        self.manifest_validate_s.append(time.perf_counter() - t0)
        if not v["ok"]:
            job.problems.append(f"validate_invariants: {v['problems'][:3]}")
        summary = summarize(out_dir)
        job.stmts, job.out_bytes = summary["n_statements"], summary["n_bytes"]
        try:
            decoded = _decoded_count(out_dir)
        except Exception as e:  # a corrupt shard must fail the job, not the run
            job.problems.append(f"decode: {type(e).__name__}: {e}")
            return
        if decoded != job.stmts:
            job.problems.append(f"decoded {decoded} != manifest total {job.stmts}")
        digest = inputs.shard_digest(out_dir)
        self.digest = self.digest or digest
        if digest != self.digest:
            job.problems.append(f"shard digest {digest} != first job's {self.digest}")

    def check(self, job: Job) -> None:
        self.check_graph(job, self.out)

    def closed_form_problems(self, decoded: list[pa.Table], seeds: list[int] | None = None) -> list[str]:
        """The decoded statements against the closed form of each built corpus.

        Each graph is deduplicated on its own, so the decoded rows, as a
        multiset, must be the expected sets of all graphs together.
        """
        want_n, want_hash = inputs.expected_digest(seeds or [self.seed], self.n_files)
        got_n = sum(t.num_rows for t in decoded)
        if got_n != want_n or inputs.multiset_hash(decoded) != want_hash:
            return [f"decoded statements differ from the closed-form set "
                    f"({got_n} rows, {want_n} expected)"]
        return []

    def prepare_checks(self) -> None:
        """Untimed work after set-up that the checks need."""


class ColdBuild(Workload):
    name = "kg_cold_build"

    def setup(self) -> None:
        from pyjelly_ray.pipelines.kg import build_kg

        table = inputs.corpus_table(self.seed, self.n_files)
        self.corpus_path = self.corpus("corpus.parquet", table)
        warm = self.corpus("warm.parquet", table.slice(0, min(WARMUP_FILES, self.n_files)))
        self.out = self.path("out")
        shutil.rmtree(self.out, ignore_errors=True)
        build_kg(warm, self.out, n_shards=N_SHARDS).take_all()

    def _prepare(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def _run(self, job: Job, tr: Tracer | None) -> None:
        from pyjelly_ray.pipelines.kg import build_kg

        if tr is None:
            job.info["rows"] = build_kg(self.corpus_path, self.out, n_shards=N_SHARDS).take_all()
        else:
            job.info["rows"], inter = traced_build_kg(tr, self.corpus_path, self.out, N_SHARDS)
            job.info.update(inter)

    def final_check(self) -> list[str]:
        return self.closed_form_problems(_decoded_tables(self.out))


class LocalDelta(Workload):
    name = "kg_local_delta"

    def setup(self) -> None:
        from pyjelly_ray.pipelines.kg import incremental_build_kg

        final = inputs.corpus_table(self.seed, self.n_files)
        base, _ = inputs.local_delta(final)
        self.base_path = self.corpus("base.parquet", base)
        self.final_path = self.corpus("final.parquet", final)
        self.out, self.snapshot = self.path("out"), self.path("base_graph")
        for d in (self.out, self.snapshot):
            shutil.rmtree(d, ignore_errors=True)
        # the base graph, built by the code under test and kept aside; each
        # job restores it at the same path, so manifest paths stay valid
        incremental_build_kg(self.base_path, self.out, n_shards=N_SHARDS)
        shutil.copytree(self.out, self.snapshot)

    def _prepare(self) -> None:
        shutil.rmtree(self.out)
        shutil.copytree(self.snapshot, self.out)

    def _run(self, job: Job, tr: Tracer | None) -> None:
        from pyjelly_ray.pipelines.kg import incremental_build_kg

        if tr is None:
            res = incremental_build_kg(self.final_path, self.out, n_shards=N_SHARDS)
            job.info["applied"] = int(res.get("mode") == "incremental")
        else:
            rows, info = traced_incremental_build_kg(tr, self.final_path, self.out, N_SHARDS)
            job.info.update(info, rows=rows)
        if not job.info["applied"]:
            job.problems.append("incremental rebuild fell back to a full build")

    def final_check(self) -> list[str]:
        """Byte-identical to a cold build of the final corpus, and the closed form."""
        from pyjelly_ray.pipelines.kg import build_kg

        ref = self.path("cold_reference")
        shutil.rmtree(ref, ignore_errors=True)
        build_kg(self.final_path, ref, n_shards=N_SHARDS).take_all()
        problems = []
        if inputs.shard_digest(ref) != self.digest:
            problems.append("incremental output differs from a cold build of the final corpus")
        return problems + self.closed_form_problems(_decoded_tables(self.out))


class JellyScan(Workload):
    """Each set-up builds one more graph, from its own seed derived from
    the run's; a job scans all of them, so the repeated set-up that
    ``setup_s`` needs also grows the scanned input."""

    name = "jelly_scan"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.graphs: list[str] = []
        self.part_seeds: list[int] = []
        self._flat = None

    def setup(self) -> None:
        from pyjelly_ray.pipelines.kg import build_kg

        part = len(self.graphs)
        seed = self.seed * 1000 + part
        corpus = self.corpus(f"corpus-{part}.parquet", inputs.corpus_table(seed, self.n_files))
        graph = self.path(f"graph-{part}")
        build_kg(corpus, graph, n_shards=N_SHARDS).take_all()
        self.graphs.append(graph)
        self.part_seeds.append(seed)
        self.program_inputs.append(graph)
        self._flat = None

    def shard_paths(self) -> list[str]:
        return [p for g in self.graphs for p in inputs.shard_files(g)]

    def prepare_checks(self) -> None:
        self.reference()

    def reference(self) -> dict:
        """The pure ``decode_flat`` reading of the graphs, made once per run."""
        if self._flat is None:
            flat = inputs.flat_statement_table(self.shard_paths())
            hist: dict = {}
            for p in flat.column("p_value").to_pylist():
                hist[p] = hist.get(p, 0) + 1
            self._flat = {
                "table": flat,
                "hash": inputs.multiset_hash([flat]),
                "hist": hist,
                "bytes": sum(os.path.getsize(p) for p in self.shard_paths()),
            }
        return self._flat

    def _run(self, job: Job, tr: Tracer | None) -> None:
        from pyjelly_ray.sources.jelly_source import read_jelly

        if tr is None:
            n, hist, max_rows, batches = consume_scan(read_jelly(self.graphs))
        else:
            n, hist, max_rows, batches = traced_scan(tr, self.graphs)
        job.stmts = n
        job.info.update(hist=hist, max_block_rows=max_rows, batches=batches)

    def check(self, job: Job) -> None:
        ref = self.reference()
        job.out_bytes = ref["bytes"]
        batches = [b for b in job.info.pop("batches") if b.num_rows]
        if job.stmts != ref["table"].num_rows:
            job.problems.append(f"scanned {job.stmts} statements, decode_flat gives {ref['table'].num_rows}")
        elif inputs.multiset_hash(batches) != ref["hash"]:
            job.problems.append("decode_fast statements differ from decode_flat's")
        if job.info["hist"] != ref["hist"]:
            job.problems.append("predicate histogram differs from decode_flat's")

    def final_check(self) -> list[str]:
        return self.closed_form_problems([self.reference()["table"]], self.part_seeds)


WORKLOADS = {w.name: w for w in (ColdBuild, LocalDelta, JellyScan)}

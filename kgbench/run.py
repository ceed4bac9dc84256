#!/usr/bin/env python3
"""KG benchmark: cold build, local-delta rebuild and Jelly scan.

Run from the repository root:

    python3 kgbench/run.py --workload kg_cold_build --seed 1 --seconds 20 --trace 0

One run starts a Ray session with as many CPUs as ``nproc`` reports, sets
the workload up several times (the median is ``setup_s``), then runs one
job at a time for ``--seconds`` seconds, checking every job's output.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Everything the
run writes stays under ``.kgbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE_DIR = os.path.join(ROOT, ".kgbench")
PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")
SETUP_REPS = 3


def nproc() -> int:
    """What coreutils ``nproc`` prints: OMP_NUM_THREADS, else the CPU affinity."""
    try:
        return max(int(os.environ["OMP_NUM_THREADS"]), 1)
    except (KeyError, ValueError):
        return len(os.sched_getaffinity(0))


def parse_args(argv):
    from kgbench.workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--files", type=int, default=None,
                   help="corpus size override, for the benchmark's own tests")
    return p.parse_args(argv)


def check_pins() -> str | None:
    from kgbench import inputs

    with open(PINS) as f:
        pin = json.load(f)["corpus"]
    got = inputs.fingerprint(inputs.corpus_table(pin["seed"], pin["n_files"]))
    if got != pin["fingerprint"]:
        return (f"corpus generator changed: seed {pin['seed']} x {pin['n_files']} files "
                f"fingerprints {got}, pinned {pin['fingerprint']}")
    return None


def ray_temp_dir(run_dir: str) -> str:
    """Ray's session directory: ``run_dir``, or a short link to it.

    Ray puts unix sockets under its session directory, and a socket path may
    hold at most 107 bytes; Ray's own part of it is about 70.  When the
    checkout's path leaves too little room, Ray is pointed at a short link
    in ``/tmp`` whose target is still ``run_dir``.
    """
    if len(run_dir.encode()) <= 36:
        return run_dir
    link = f"/tmp/kgb{os.getpid()}"
    os.symlink(run_dir, link)
    return link


def start_ray(run_dir: str, temp_dir: str) -> str:
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    spill = os.path.join(run_dir, "spill")
    ray.init(
        address="local",
        num_cpus=nproc(),
        include_dashboard=False,
        log_to_driver=False,
        object_store_memory=512 * 2**20,
        _temp_dir=temp_dir,
        _system_config={"object_spilling_config": json.dumps(
            {"type": "filesystem", "params": {"directory_path": spill}})},
    )
    ray.data.DataContext.get_current().enable_progress_bars = False
    # the first ray.data read of a session pays one-time framework set-up
    warm = os.path.join(run_dir, "warm.parquet")
    pq.write_table(pa.table({"x": [1]}), warm)
    ray.data.read_parquet(warm).materialize()
    return spill


def measure(wl, seconds: float, trace: bool, tr) -> list:
    from kgbench.layers import SPAN_COVER_TOLERANCE, span_cover

    jobs = []
    t0 = time.perf_counter()
    # traced runs alternate untraced and traced jobs, so trace.overhead_s
    # compares jobs made under the same conditions
    while len(jobs) < (2 if trace else 1) or time.perf_counter() - t0 < seconds:
        traced = trace and len(jobs) % 2 == 1
        if traced:
            tr.run_id = f"job{len(jobs):03d}"
        job = wl.run_job(tr if traced else None)
        if traced and not job.problems:
            cover = span_cover(tr, tr.run_id)
            if abs(1.0 - cover) > SPAN_COVER_TOLERANCE:
                job.problems.append(f"driver spans cover {cover:.3f} of the traced wall")
        jobs.append(job)
        print(f"job {len(jobs)}{' traced' if traced else ''}: wall {job.wall_s:.3f} s, "
              f"cpu {job.cpu_s:.2f} s{', FAILED' if job.problems else ''}", file=sys.stderr)
    return jobs


def main(argv=None) -> int:
    knobs = sorted(k for k in os.environ if k.startswith("GRAFT_"))
    if knobs:
        print(f"refusing to run: {', '.join(knobs)} select a different program variant",
              file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "pyjelly_ray")):
        print(f"no pyjelly_ray package in {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    args = parse_args(argv)
    tmp = os.path.join(STATE_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # children (Ray's workers, the C fold's compiler cache) inherit these
    os.environ["TMPDIR"] = tmp
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

    import pyjelly_ray

    if not os.path.abspath(pyjelly_ray.__file__).startswith(ROOT + os.sep):
        print(f"pyjelly_ray imported from {pyjelly_ray.__file__}, not {ROOT}", file=sys.stderr)
        return 2
    problem = check_pins()
    if problem:
        print(problem, file=sys.stderr)
        return 3

    import ray

    from kgbench.layers import END_TO_END, PER_LAYER, end_to_end, per_layer
    from kgbench.trace import Tracer
    from kgbench.workloads import WORKLOADS

    run_dir = os.path.join(STATE_DIR, f"r{os.getpid()}")
    os.makedirs(run_dir)
    temp_dir = ray_temp_dir(run_dir)
    tr = Tracer()
    try:
        t0 = time.perf_counter()
        spill = start_ray(run_dir, temp_dir)
        session_s = time.perf_counter() - t0
        wl = WORKLOADS[args.workload](os.path.join(run_dir, "work"), args.seed, args.files, spill)
        setups = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
        print(f"session {session_s:.2f} s, set-ups {', '.join(f'{x:.2f}' for x in setups)} s",
              file=sys.stderr)
        wl.prepare_checks()
        jobs = measure(wl, args.seconds, bool(args.trace), tr)
        t0 = time.perf_counter()
        try:
            problems = wl.final_check()
        except Exception as e:  # a broken output fails the run's last job
            traceback.print_exc()
            problems = [f"once-per-run check: {type(e).__name__}: {str(e)[:300]}"]
        print(f"once-per-run checks {time.perf_counter() - t0:.2f} s", file=sys.stderr)
        jobs[-1].problems.extend(problems)
        if args.trace:
            metrics, units = per_layer(wl, jobs, tr), PER_LAYER
            tr.dump(os.path.join(STATE_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
        else:
            metrics, units = end_to_end(jobs, session_s + statistics.median(setups)), END_TO_END
    finally:
        if ray.is_initialized():
            ray.shutdown()
        if temp_dir != run_dir:
            os.unlink(temp_dir)
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = [j for j in jobs if j.problems]
    for j in failed:
        print(f"failed job: {'; '.join(j.problems)}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

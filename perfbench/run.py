"""Outside-in benchmark for diracpd.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ``src/``.
Workloads (see workloads.py): ``spectrum``, ``exact_sc``, ``scan`` and
``wavefunctions``.
Every job is one in-process ``diracpd.cli.main`` call in
a closed loop: one caller, BLAS/OpenMP pools pinned to one
thread. Each job's outputs are checked against closed-form references and
every CSV it writes is hashed.

``--trace 0`` prints the end-to-end metrics. Job times are the CPU time
(user + system) of the measuring process over the ``cli.main`` call. With
every pool pinned to one thread that is the job's wall time less the time
the host ran something else: on a shared 2-core host, wall time per job
swings by up to 2.5x when a neighbour takes the core, so that a run's p90
in wall time reads the neighbours, not the program. Wall times stay in
the record, and the conditions line gives the wall median.

* setup_s          median over the run's PROCESSES fresh interpreters of
                   the process CPU time from its start to the end of one
                   untimed warm-up job (imports, LAPACK load, first solve)
* job_cpu_p50_ms   median CPU time of a job
* job_cpu_tail_ms  the workload's TAIL_PERCENTILE of job CPU time, fixed per
                   workload (the highest percentile with ten jobs beyond
                   it at the seed commit); every run has ten jobs beyond it
* solves_per_cpu_s parameter points solved per CPU second (a solve is one
                   point, a scan one point per scan value it computes) for
                   one block, each stratum of the block taking the median
                   time of its jobs: a rare job that takes seconds (the
                   per-point inverse fallback on linear_singular) would
                   otherwise swing a plain sum by a quarter between seeds;
                   such jobs stay in the record
* max_rel_err      worst relative deviation of a level from its reference,
                   over the levels expected within compare.tol
* peak_rss_mb      peak resident memory of the measuring processes (the largest)

A run times a fixed number of job blocks (workloads.measured_blocks): about
``--seconds`` of work at the seed commit, or more where ten jobs beyond the
tail percentile or nine draws per stratum need it. So a seed always runs,
checks and fails the same jobs, however fast the host is. The blocks are split over PROCESSES measuring
processes, started one after the other: each imports the package afresh and
lays out its memory anew, so the run's medians do not hang on one layout.
The last process runs the first block again; its digests must equal the
first run's.

``--trace 1`` runs a fixed job set twice, untraced and then traced, each in
a fresh process, and prints the per-layer metrics (totals over the set)
and ``trace.overhead_frac``; the two runs' digests must agree.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
holds the run conditions and failure counts by kind; the full record (every
job's parameters, times, digests and failures) goes to
``.perfbench/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

DEADLINE = time.monotonic() + 170.0  # every worker of a run ends within this
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import (TAIL_PERCENTILE, WORKLOADS, blocks, measured_blocks,  # noqa: E402
                       warmup_job)

PROCESSES = 5  # measuring processes of one run, each a set-up time sample
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
FAILURE_KINDS = ("exit_code", "tolerance", "artifact", "digest", "exception")

PER_LAYER_SPANS = (
    ("eigensolver.tridiag", True), ("eigensolver.solve_fixed", True),
    ("transform.build_transform", True), ("profiles.builtin_model", True),
    ("potential.on_grid", True), ("potential.build", True),
    ("transform.inverse", True), ("spinor.reconstruct", True),
    ("spinor.normalize", True), ("spinor.observables", True),
    ("spinor.bic_family", True), ("analytic.spectrum", True), ("cli", False),
)
PER_LAYER_COUNTS = ("eigensolver.tridiag.rows", "eigensolver.sc.iterations",
                    "eigensolver.expand.doublings", "transform.inverse_grid.cold_nodes")


def _worker(role: str, args, extra=(), traced: bool = False) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    out_path = os.path.join(ROOT, ".perfbench", f"worker-{os.getpid()}.json")
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--src", src,
           "--work", os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}"),
           "--out", out_path]
    if traced:
        cmd.append("--traced")
    cmd += list(extra)
    t0 = time.monotonic_ns()
    proc = subprocess.run(cmd + ["--t0", str(t0)], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=max(1.0, DEADLINE - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(out_path, "r", encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(out_path)
    return result


def _percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def _block_rate(jobs) -> float:
    """Points of one block per second, each stratum taking its median job time."""
    strata = {}
    for job in jobs:
        strata.setdefault(job["slot"], []).append(job)
    points = sum(group[0]["points"] for group in strata.values())
    ns = sum(statistics.median(job["cpu_ns"] for job in group) for group in strata.values())
    return points / (ns / 1e9)


def _tally(jobs) -> dict:
    kinds = {kind: 0 for kind in FAILURE_KINDS}
    failed = expected = 0
    for job in jobs:
        for kind in job["failures"]:
            kinds[kind] += 1
        if job["failures"]:
            failed += 1
            expected += not job["unexpected"]
    return {"attempted": len(jobs), "failed": failed, "failed_expected": expected,
            "failed_fraction": failed / len(jobs) if jobs else 0.0, "by_kind": kinds}


def _mark_digest_mismatch(jobs, repeats, what: str) -> None:
    """Fail every job whose artifact digests differ from its repeat."""
    again = {job["id"]: job for job in repeats}
    for job in jobs:
        other = again.get(job["id"])
        if other is not None and other["digests"] != job["digests"]:
            job["failures"].setdefault("digest", f"CSV digests differ from the {what}")
            job["unexpected"] = True


def _end_to_end(args, record: dict):
    total = measured_blocks(args.workload, args.seconds)
    runs = []
    for i in range(PROCESSES):
        first, stop = total * i // PROCESSES, total * (i + 1) // PROCESSES
        repeat = ["--repeat-first"] if i == PROCESSES - 1 else []
        runs.append(_worker("measure", args, ["--first", str(first),
                                              "--count", str(stop - first)] + repeat))
    samples = [run["setup_cpu_ns"] for run in runs]
    jobs = [job for run in runs for job in run["jobs"]]
    _mark_digest_mismatch(jobs, runs[-1]["repeats"], "same job run again")
    times_ms = [job["cpu_ns"] / 1e6 for job in jobs]
    pct = TAIL_PERCENTILE[args.workload]
    tail = _percentile(times_ms, pct)
    run = dict(runs[0], jobs=jobs, repeats=runs[-1]["repeats"],
               maxrss_kb=[r["maxrss_kb"] for r in runs])
    record.update(setup_s_samples=[ns / 1e9 for ns in samples], blocks=total, run=run,
                  wall={"setup_s": statistics.median(r["setup_ns"] for r in runs) / 1e9,
                        "job_p50_ms": statistics.median(job["ns"] for job in jobs) / 1e6},
                  tail_percentile=pct, jobs_beyond_tail=sum(t > tail for t in times_ms))
    metrics = {
        "setup_s": (statistics.median(samples) / 1e9, "s"),
        "job_cpu_p50_ms": (statistics.median(times_ms), "ms"),
        "job_cpu_tail_ms": (tail, "ms"),
        "solves_per_cpu_s": (_block_rate(jobs), "1/s"),
        "max_rel_err": (max(job["max_err"] for job in jobs), "ratio"),
        "peak_rss_mb": (max(run["maxrss_kb"]) / 1024.0, "MB"),
    }
    record["known_defect_max_rel_err"] = max(job["max_err_defect"] for job in jobs)
    return metrics, jobs, run


def _per_layer(args, record: dict):
    base = _worker("fixed", args)
    traced = _worker("fixed", args, traced=True)
    jobs = traced["jobs"]
    _mark_digest_mismatch(jobs, base["jobs"], "untraced run")
    record.update(base=base, run=traced)

    spans, counts = {}, {}
    for job in jobs:
        for name, (calls, self_ns, total_ns) in job["layers"]["spans"].items():
            acc = spans.setdefault(name, [0, 0, 0])
            acc[0] += calls
            acc[1] += self_ns
            acc[2] += total_ns
        for name, value in job["layers"]["counts"].items():
            counts[name] = counts.get(name, 0) + value
    metrics = {}
    for name, with_calls in PER_LAYER_SPANS:
        calls, self_ns, _ = spans.get(name, (0, 0, 0))
        if with_calls:
            metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_ms"] = (self_ns / 1e6, "ms")
    for name in PER_LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    for kind in ("cold", "warm"):
        calls, _, total_ns = spans.get(f"transform.inverse_grid.{kind}", (0, 0, 0))
        metrics[f"transform.inverse_grid.{kind}_calls"] = (calls, "count")
        metrics[f"transform.inverse_grid.{kind}_ms"] = (total_ns / 1e6, "ms")
    metrics["cli.bytes_written"] = (sum(job["bytes"] for job in jobs), "bytes")
    metrics["cli.files_written"] = (sum(job["files"] for job in jobs), "count")
    base_cpu = sum(job["cpu_ns"] for job in base["jobs"])
    metrics["trace.overhead_frac"] = (sum(job["cpu_ns"] for job in jobs) / base_cpu - 1.0, "ratio")
    traced_ns = sum(job["ns"] for job in jobs)
    # layer shares of the traced job time, by self time
    record["self_share"] = {name: round(acc[1] / traced_ns, 4)
                            for name, acc in sorted(spans.items(), key=lambda kv: -kv[1][1])}
    return metrics, jobs, traced


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # a terminated run raises SystemExit, so subprocess.run kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "diracpd", "cli.py")):
        print(f"diracpd sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    try:
        if args.trace:
            metrics, jobs, run = _per_layer(args, record)
        else:
            metrics, jobs, run = _end_to_end(args, record)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    tally = _tally(jobs)
    checked = ([run["warmup"]] + jobs + run.get("repeats", [])
               + record.get("base", {}).get("jobs", []))
    correct = not any(job["unexpected"] for job in checked)
    conditions = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "threads": {v: "1" for v in THREAD_VARS},
        "loop": "closed, 1 caller, measuring processes one after another", **run["versions"],
        "blocks": record.get("blocks"), "jobs": len(jobs),
        "tail_percentile": record.get("tail_percentile"), "wall": record.get("wall"),
        "failures": tally, "record": os.path.relpath(os.path.join(out_dir, name + ".json"), ROOT),
    }
    record.update(conditions=conditions,
                  job_specs=[warmup_job(args.workload, args.seed)] + _specs(args, len(jobs)))
    with open(os.path.join(out_dir, name + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"conditions": conditions}))
    print(json.dumps({
        "correct": correct, "attempted": tally["attempted"], "failed": tally["failed"],
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


def _specs(args, count: int):
    """The generated parameters of the first ``count`` jobs of the stream."""
    out = []
    for block in blocks(args.workload, args.seed):
        if len(out) >= count:
            break
        out += block
    return out[:count]


if __name__ == "__main__":
    sys.exit(main())

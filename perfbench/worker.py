"""One benchmark process: imports diracpd, runs a warm-up job, then jobs.

Started by run.py in a fresh interpreter with the BLAS/OpenMP pools pinned
to one thread. Roles:

* ``measure`` run the blocks ``--first`` to ``--first + --count - 1`` of
              the seed's stream, then, with ``--repeat-first``, block 0
              again (run.py compares its digests with the first run's);
* ``fixed``   run the first TRACE_BLOCKS blocks, optionally ``--traced``.

Every role first runs one untimed warm-up job; the process CPU time from
start to its end is the process's set-up time sample (the wall time from
spawn is recorded beside it).

Each job is one in-process ``diracpd.cli.main`` call with a generated
config and a fresh output directory; only that call is timed. The result
is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time

from checks import Verdict, check_job, digests
from workloads import TRACE_BLOCKS, blocks, warmup_job


def _truncate_scan(path: str, keep: int) -> None:
    """Keep the header and the rows of the first ``keep`` scan points."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    out, keys = [], []
    for line in lines:
        if not (line.startswith("#") or line.startswith("param")):
            key = line.split(",", 1)[0]
            if key not in keys:
                keys.append(key)
            if len(keys) > keep:
                break
        out.append(line)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(out))


class Runner:
    def __init__(self, cli, work_dir: str, tracer=None):
        self.cli = cli
        self.work_dir = work_dir
        self.tracer = tracer
        self.prev = None  # (job, out_dir, digests) of the last job run

    def run(self, job: dict) -> dict:
        resume_of = None
        if job.get("resume_keep"):
            prev_job, out_dir, resume_of = self.prev
            if prev_job["config"] != job["config"]:
                raise RuntimeError(f"{job['id']} does not follow the scan it resumes")
            _truncate_scan(os.path.join(out_dir, "scan.csv"), job["resume_keep"])
        else:
            if self.prev is not None:
                shutil.rmtree(self.prev[1], ignore_errors=True)
            out_dir = os.path.join(self.work_dir, job["id"])
            shutil.rmtree(out_dir, ignore_errors=True)
        cfg_path = out_dir + ".cfg"
        with open(cfg_path, "w", encoding="utf-8") as fh:
            for key, value in list(job["config"].items()) + [("out.dir", out_dir)]:
                fh.write(f"{key} = {value}\n")

        verdict = Verdict()
        stdout, stderr = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.reset()
        code = None
        t0 = time.perf_counter_ns()
        c0 = time.process_time_ns()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main([job["command"], "--config", cfg_path])
        except (Exception, SystemExit) as exc:  # a crash is a failed job, not a crashed run
            verdict.fail("exception", f"{type(exc).__name__}: {exc}")
        ns = time.perf_counter_ns() - t0
        cpu_ns = time.process_time_ns() - c0

        record = {"id": job["id"], "slot": job["slot"], "ns": ns, "cpu_ns": cpu_ns, "points": job["points"],
                  "exit": code}
        if self.tracer is not None:
            record["layers"] = self.tracer.snapshot()
        sums, size = digests(out_dir)
        record.update(digests=sums, bytes=size, files=len(os.listdir(out_dir))
                      if os.path.isdir(out_dir) else 0)
        if code is not None:
            check_job(job, code, stderr.getvalue(), out_dir, verdict)
        if resume_of is not None and sums != resume_of:
            verdict.fail("digest", "resumed scan.csv differs from the uninterrupted scan")
        record.update(failures=verdict.failures, unexpected=verdict.unexpected,
                      max_err=verdict.max_err, max_err_defect=verdict.max_err_defect)
        self.prev = (job, out_dir, sums)
        os.remove(cfg_path)
        return record


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("measure", "fixed"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--first", type=int, default=0)
    ap.add_argument("--count", type=int, default=0)
    ap.add_argument("--repeat-first", action="store_true")
    ap.add_argument("--t0", type=int, required=True, help="monotonic ns at spawn")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--src", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    import numpy
    import scipy

    import diracpd.cli as cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(args.src) + os.sep):
        raise SystemExit(f"diracpd imported from {cli.__file__}, not {args.src}")

    tracer = None
    if args.traced:
        import tracer as tracing
        tracer = tracing.install()

    os.makedirs(args.work, exist_ok=True)
    runner = Runner(cli, args.work, tracer)
    warm = runner.run(warmup_job(args.workload, args.seed))
    setup_ns = time.monotonic_ns() - args.t0
    setup_cpu_ns = time.process_time_ns()

    jobs = []
    repeats = []
    if args.role == "measure":
        wanted = range(args.first, args.first + args.count)
        for b, block in enumerate(blocks(args.workload, args.seed)):
            if b in wanted:
                jobs += [runner.run(job) for job in block]
            if b == 0 and args.repeat_first:
                repeats = block
            if b >= wanted.stop - 1:
                break
        # same inputs must give the same bytes
        repeats = [runner.run(job) for job in repeats]
    elif args.role == "fixed":
        stream = blocks(args.workload, args.seed)
        for _ in range(TRACE_BLOCKS[args.workload]):
            jobs += [runner.run(job) for job in next(stream)]
    shutil.rmtree(args.work, ignore_errors=True)

    result = {
        "setup_ns": setup_ns,
        "setup_cpu_ns": setup_cpu_ns,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "warmup": warm,
        "jobs": jobs,
        "repeats": repeats,
        "diracpd": os.path.dirname(cli.__file__),
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

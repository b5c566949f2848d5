"""The omsal benchmark: fixed job mixes, each job in a fresh interpreter.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One client runs the workload's job list in a closed loop, one job at a
time, pass after pass, for about --seconds (at least one whole pass).
Every job reads input files made from --seed and is checked against
pinned labelling-free outputs.  Every time is divided by the slowness
of the CPU measured next to its job (calibrate.py): the benchmark
reports reference seconds.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes and prints the per-layer metrics plus the tracing
overhead.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  Without `src/omsal` next to
this directory the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
JOB_TIMEOUT_S = 150
# Calibration chunks (calibrate.py) timed after every job.
CHUNKS = 2

# The end-to-end metrics of the JSON line, as listed in BENCHMARK.json.
END_TO_END = (("wall_s", "s"), ("job_s_max", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))
# Printed in the report only.  job_s_p50 rests on the few samples of a
# single short job per run, and its run-to-run spread comes near any
# bound a gate could use; fail_ratio is 0 whenever the program is right.
REPORT_ONLY = (("job_s_p50", "s"), ("fail_ratio", "ratio"))


@dataclass
class JobResult:
    wall_s: float
    cpu_s: float
    rss_mb: float
    setup_s: float | None
    ok: bool
    totals: dict
    slow: float = 1.0  # the CPU's slowness around the job, see run_pass
    setup_slow: float = 1.0  # and just before it


def job_env(work: Path) -> dict:
    """Fixed hash seed, the tree under test, a bytecode cache of our own."""
    env = dict(os.environ)
    for var in ("OM_SALVETTI_MAX_N", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP"):
        env.pop(var, None)
    env.update(PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"),
               PYTHONPYCACHEPREFIX=str(work / "pycache"))
    return env


def spawn(argv, env, out: Path, err: Path):
    """Run argv to completion; (wall seconds, exit code, rusage)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    watchdog = threading.Timer(JOB_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        watchdog.cancel()
    return time.perf_counter() - t0, os.waitstatus_to_exitcode(status), usage


def make_inputs(name: str, seed: int, work: Path, env: dict):
    """Base texts via `omsal gen` (this also warms the bytecode cache),
    then the seeded relabelling of each into the files the jobs read."""
    need = workloads.subjects_of(name)
    base = work / "base"
    base.mkdir()
    argv = [sys.executable, str(CHILD), "base", str(base)]
    for subject, fmts in sorted(need.items()):
        for fmt in sorted(fmts):
            argv += [workloads.SUBJECTS[subject], fmt]
    _, code, _ = spawn(argv, env, work / "base.out", work / "base.err")
    if code != 0:
        sys.exit("perfbench: generating the base inputs failed:\n"
                 + (work / "base.err").read_text())
    for subject, fmts in need.items():
        stem = workloads.SUBJECTS[subject].replace(":", "_")
        for fmt in fmts:
            text = (base / f"{stem}.{fmt}").read_text()
            rl = workloads.Relabel.draw(seed, subject,
                                        workloads.ground_size(fmt, text))
            (work / f"{subject}.{fmt}").write_text(
                workloads.TRANSFORMS[fmt](text, rl))


def run_job(job, work: Path, env: dict, traced: bool) -> JobResult:
    src = str(work / f"{job.subject}.{job.fmt}")
    trace_file = work / "trace.json"
    dump_dir = work / "dump"
    argv = [sys.executable, str(CHILD), "run",
            str(trace_file) if traced else "-", job.kind]
    if job.kind == "cli":
        argv += list(job.args)
        if job.files:
            argv.append(str(dump_dir))
        argv += ["--in", src]
    else:
        argv.append(src)
    out, err = work / "job.out", work / "job.err"
    wall, code, usage = spawn(argv, env, out, err)

    stdout = out.read_bytes()
    text = stdout.decode(errors="replace")
    ok = code == 0 and workloads.digest(job, text) == job.expect
    for fname, rows, cols in job.files:
        try:
            with open(dump_dir / fname, "rb") as fh:
                width = len(fh.readline().split())
                ok = ok and width == cols and 1 + sum(1 for _ in fh) == rows
        except OSError:
            ok = False
    shutil.rmtree(dump_dir, ignore_errors=True)

    setup_s = None
    tail = err.read_text().splitlines()[-1:]
    if tail and tail[0].startswith("perfbench setup_s="):
        setup_s = float(tail[0].split("=", 1)[1])
    ok = ok and setup_s is not None

    totals = {}
    if traced:
        try:
            totals = tracer.job_totals(json.loads(trace_file.read_text()))
        except (OSError, ValueError):
            ok = False
        trace_file.unlink(missing_ok=True)
        totals["cli.output_bytes"] = len(stdout) if job.kind == "cli" else 0
    return JobResult(wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024, setup_s, ok, totals)


def run_pass(jobs, work: Path, env: dict, traced: bool, speeds: list):
    """The job results of one pass of the job list.  CHUNKS calibration
    chunks follow every job; a job's slowness is the mean of the chunks
    just before it and just after it, and its times are divided by it."""
    results = []
    for job in jobs:
        before = speeds[-CHUNKS:]
        r = run_job(job, work, env, traced)
        after = [calibrate.speed() for _ in range(CHUNKS)]
        r.slow = statistics.fmean(before + after)
        # the import is the job's first 0.05 s, next to the chunks before it
        r.setup_slow = statistics.fmean(before)
        speeds += after
        results.append(r)
    return results


def pass_wall(rs) -> float:
    """Wall seconds of one pass's jobs, spawn to reap, at reference speed."""
    return sum(r.wall_s / r.slow for r in rs)


def end_to_end(passes, failed) -> dict:
    jobs = [r for rs in passes for r in rs]
    setups = [r.setup_s / r.setup_slow for r in jobs if r.setup_s is not None]
    return {
        "wall_s": statistics.median(map(pass_wall, passes)),
        # the job with the largest median over passes: always the same job
        "job_s_max": max(statistics.median(rs[i].wall_s / rs[i].slow
                                           for rs in passes)
                         for i in range(len(passes[0]))),
        "cpu_s": statistics.median(sum(r.cpu_s / r.slow for r in rs)
                                   for rs in passes),
        "peak_rss_mb": max(r.rss_mb for r in jobs),
        "setup_s": statistics.median(setups or [0.0]),
        "job_s_p50": statistics.median(r.wall_s / r.slow for r in jobs),
        "fail_ratio": failed / len(jobs),
    }


def per_layer(traced_passes, plain_passes) -> dict:
    per_pass = []
    for rs in traced_passes:
        totals: dict = {}
        for r in rs:
            for key, value in r.totals.items():
                if key.endswith(".self_s"):
                    value /= r.slow
                totals[key] = totals.get(key, 0) + value
        per_pass.append(tracer.layer_metrics(totals))
    out = {name: statistics.median(p[name] for p in per_pass)
           for name in per_pass[0]}
    out["trace.overhead_ratio"] = (
        statistics.median(map(pass_wall, traced_passes))
        / statistics.median(map(pass_wall, plain_passes)) - 1)
    return out


def report(name, passes, speeds, metrics, units, attempted, failed):
    print(f"workload {name}: {len(passes)} passes, {attempted} jobs, "
          f"{failed} failed")
    q1, q2, q3 = statistics.quantiles(speeds, n=4)
    print(f"  machine slowness over {len(speeds)} chunks: median {q2:.3f},"
          f" quartiles {q1:.3f} and {q3:.3f}")
    print("  pass walls, reference s: "
          + " ".join(f"{pass_wall(rs):.3f}" for rs in passes))
    for i, job in enumerate(workloads.WORKLOADS[name]):
        raw = statistics.median(rs[i].wall_s for rs in passes)
        ref = statistics.median(rs[i].wall_s / rs[i].slow for rs in passes)
        print(f"  job {job.name:<28} median {raw:7.3f} s raw,"
              f" {ref:7.3f} s reference, over {len(passes)}")
    for key, value in metrics.items():
        note = "  (report only)" if key in dict(REPORT_ONLY) else ""
        print(f"  {key:<44} {value:14.6f} {units[key]}{note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "omsal" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'omsal'}", file=sys.stderr)
        return 2

    # The jobs inherit this: this process, its chunks and its jobs share
    # one CPU, so the chunks next to a job see the speed it gave the job.
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError as e:
        print(f"perfbench: cannot pin to one CPU ({e}); the speed gauge"
              " is less exact", file=sys.stderr)
    # a stop request unwinds through spawn(), which kills and reaps the job
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        env = job_env(work)
        make_inputs(args.workload, args.seed, work, env)
        jobs = workloads.WORKLOADS[args.workload]
        plain, traced = [], []
        calibrate.speed()  # warm-up, not kept
        speeds = [calibrate.speed() for _ in range(CHUNKS)]
        # Passes run back to back while the next one is expected to end
        # nearer the deadline than the last one did, so the measured time
        # comes out close to --seconds on average.
        deadline = time.perf_counter() + args.seconds
        while True:
            t0 = time.perf_counter()
            plain.append(run_pass(jobs, work, env, False, speeds))
            if args.trace:
                traced.append(run_pass(jobs, work, env, True, speeds))
            now = time.perf_counter()
            if now + (now - t0) / 2 >= deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    every = [r for rs in plain + traced for r in rs]
    attempted, failed = len(every), sum(not r.ok for r in every)
    if args.trace:
        metrics = per_layer(traced, plain)
        units = dict(tracer.PER_LAYER)
    else:
        metrics = end_to_end(plain, failed)
        units = dict(END_TO_END + REPORT_ONLY)
    report(args.workload, traced or plain, speeds, metrics, units, attempted,
           failed)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()
                    if k not in dict(REPORT_ONLY)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

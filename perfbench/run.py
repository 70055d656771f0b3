#!/usr/bin/env python3
"""Benchmark for the ncpoly command line.

    python3 perfbench/run.py --workload parse-trees --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: the program is imported from
`src/`.  The workload's job list runs in-process through `ncpoly.cli.main`
as a closed loop with one client: each command starts when the previous
one has returned, in one thread.  Whole passes over the job list repeat
while the next pass is expected to end within `--seconds`; there is always
at least one.  Inputs are generated from `--seed` into a work directory
under `perfbench/out/` during set-up, and after the last pass every job's
output is checked against an independent oracle.

`--trace 0` reports the end-to-end metrics; `--trace 1` runs one pass in
which each job runs untraced and then traced, reports the per-layer
metrics and the tracing overhead, and writes spans and counters to
`perfbench/out/`.  `--smoke` shrinks every size for a quick self-test.
The last line of stdout is a JSON object with `correct`, `attempted`,
`failed` and `metrics`.  The work directory is kept when a job fails, so
each logged command line can be replayed by hand from it.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shlex
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
EMIT = ("family", "expand", "hadamard", "compose")
GATED = ("setup_s", "wall_s", "job_s.p50", "peak_rss_mb")  # BENCHMARK.json's end_to_end


@dataclass
class JobRecord:
    index: str
    kind: str
    argv: list
    seconds: float
    result: workloads.Result
    digest: str | None  # of the `--out` file right after the job
    size: object = None
    problem: str | None = None


def import_program():
    """A fresh import of the program from this checkout's `src/`, so that
    set-up pays for it each time."""
    for name in [m for m in sys.modules if m == "ncpoly" or m.startswith("ncpoly.")]:
        del sys.modules[name]
    cli = importlib.import_module("ncpoly.cli")
    if SRC not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"ncpoly was imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(args):
    """Import the program afresh, generate the inputs and write them to a
    new work directory under `out/`; returns the import, the plan, the
    directory and the seconds it took."""
    OUT.mkdir(exist_ok=True)
    t0 = time.perf_counter()
    cli = import_program()
    plan = workloads.build(args.workload, args.seed, args.smoke)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    for name, text in plan.files.items():
        (work / name).write_text(text)
    return cli, plan, work, time.perf_counter() - t0


def repeat_setup(args, times):
    """Set up SETUP_REPEATS more times, keeping only the last import: a
    fresh import replaces the program's modules, and one pass must not mix
    two generations of them.  This runs before every pass, because the
    machine's speed drifts during a run."""
    for _ in range(SETUP_REPEATS):
        cli, _plan, work, seconds = setup(args)
        shutil.rmtree(work)
        times.append(seconds)
    return cli


def run_job(cli, argv, tracer):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("cli.self_s", cli.main, (argv,), {})
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code
        except Exception:  # recorded as a failed job; the run goes on
            code = "exception"
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
    return seconds, workloads.Result(code, out.getvalue(), err.getvalue())


def output_digest(argv):
    if "--out" not in argv:
        return None
    out = Path(argv[argv.index("--out") + 1])
    return hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None


def timed_job(cli, job, index, tracer=None):
    gc.collect()
    if tracer is not None:
        tracer.job = index
    seconds, result = run_job(cli, job.argv, tracer)
    return JobRecord(index, job.kind, job.argv, seconds, result, output_digest(job.argv))


def run_pass(cli, plan, label):
    records = []
    for i, job in enumerate(plan.jobs):
        if job.before is not None:
            job.before()
        records.append(timed_job(cli, job, f"{label}.{i}"))
    return records


def run_paired_pass(cli, plan, tracer):
    """Each job runs untraced and then traced, back to back, so that both
    runs see the same machine speed and their difference is the tracing
    overhead."""
    untraced, traced = [], []
    for i, job in enumerate(plan.jobs):
        if job.before is not None:
            job.before()
        untraced.append(timed_job(cli, job, f"untraced.{i}"))
        with tracer.installed():
            traced.append(timed_job(cli, job, f"traced.{i}", tracer))
    return untraced, traced


def check_pass(plan, records, verdicts):
    """Check each job of a pass and log it.  Later passes overwrite the
    output files, so a job whose `--out` file differs from the one on disk
    now fails (the command line promises byte-identical outputs), and an
    output already checked in this run keeps its verdict (`verdicts`)."""
    for i, (job, rec) in enumerate(zip(plan.jobs, records)):
        key = i, rec.result.exit_code, rec.result.stdout, rec.digest
        if key in verdicts:
            rec.problem, rec.size = verdicts[key]
        elif rec.result.exit_code != job.expect_exit:
            last = rec.result.stderr.strip().splitlines()[-1:]
            rec.problem = f"exit {rec.result.exit_code}, expected {job.expect_exit} {last}"
        elif rec.digest != output_digest(rec.argv):
            rec.problem = "output differs from another pass of the same job"
        else:
            try:
                rec.problem, rec.size = job.check(rec.result)
            except Exception as exc:  # an unreadable output is a failed job
                rec.problem = f"check raised {exc!r}"
            verdicts[key] = rec.problem, rec.size
        print(
            f"job {rec.index} {rec.kind} exit={rec.result.exit_code} wall={rec.seconds:.4f}s "
            f"out={rec.size} {'FAIL ' + rec.problem if rec.problem else 'ok'} "
            f"argv: ncpoly {shlex.join(rec.argv)}"
        )


def kind_sum(records, kinds):
    return sum(r.seconds for r in records if r.kind in kinds)


def end_to_end(passes, setup_s, rss_mb, attempted, failed):
    """Every end-to-end metric; a per-command sum only where the workload
    runs that command.  A job's time is its mean over the passes, and
    `wall_s` is the loop's job time per pass.  The machine runs in fast and
    slow phases; a mean follows the share of the run spent in each, where a
    median of a few passes jumps from one phase to the other."""
    job_times = [[r.seconds for r in p] for p in passes]
    kinds = {r.kind for r in passes[0]}
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(map(sum, job_times)) / len(passes), "s"),
        "job_s.p50": (statistics.median(map(statistics.fmean, zip(*job_times))), "s"),
    }
    for name, group in (("verify_s", ("verify",)), ("rank_s", ("rank",)), ("emit_s", EMIT)):
        if kinds & set(group):
            metrics[name] = (sum(kind_sum(p, group) for p in passes) / len(passes), "s")
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    metrics["fail_ratio"] = (failed / attempted, "ratio")
    return metrics


def traced_metrics(tracer, untraced, traced, workload, seed):
    metrics = tracing.layer_metrics(tracer)
    walls = {r.index: r.seconds for r in traced}
    sums = tracing.job_self_sums(tracer)
    gaps = {job: abs(sum(sums[job].values()) - walls[job]) for job in walls}
    untraced_s = sum(r.seconds for r in untraced)
    traced_s = sum(r.seconds for r in traced)
    metrics.update(
        {
            "tracing.untraced_wall_s": (untraced_s, "s"),
            "tracing.traced_wall_s": (traced_s, "s"),
            "tracing.overhead_s": (traced_s - untraced_s, "s"),
            "tracing.overhead_est_s": (len(tracer.spans) * tracing.span_cost(), "s"),
            "tracing.self_sum_gap_s": (max(gaps.values()), "s"),
            "tracing.spans": (len(tracer.spans), "count"),
            "tracing.hooks_missing": (len(tracer.missing), "count"),
        }
    )
    report = {
        "workload": workload,
        "seed": seed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "missing_hooks": tracer.missing,
        "jobs": [
            {
                "job": r.index,
                "argv": r.argv,
                "exit": r.result.exit_code,
                "wall_s": r.seconds,
                "untraced_wall_s": u.seconds,
                "self_s": dict(sums[r.index]),
                "self_sum_gap_s": gaps[r.index],
            }
            for u, r in zip(untraced, traced)
        ],
        "spans": [
            {"id": i, "name": m, "start": s, "end": e, "parent": p, "job": j}
            for i, (m, s, e, p, j) in enumerate(tracer.spans)
        ],
    }
    path = OUT / f"trace-{workload}-{seed}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"trace written to {path}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small sizes, for self-tests")
    args = parser.parse_args(argv)
    try:
        cli, plan, work, seconds = setup(args)
    except ImportError as exc:
        print(f"error: cannot import the program from src/: {exc}", file=sys.stderr)
        return 2
    home = Path.cwd()
    passes = []
    setup_times = [seconds]
    try:
        os.chdir(work)
        if args.trace:
            tracer = tracing.Tracer()
            passes = list(run_paired_pass(cli, plan, tracer))
        else:
            start = time.perf_counter()
            while True:
                t0 = time.perf_counter()
                cli = repeat_setup(args, setup_times)
                passes.append(run_pass(cli, plan, str(len(passes))))
                now = time.perf_counter()
                if now - start + (now - t0) > args.seconds:
                    break
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        verdicts: dict = {}
        for records in passes:
            check_pass(plan, records, verdicts)
    finally:
        os.chdir(home)
    records = [r for p in passes for r in p]
    attempted = len(records)
    failed = sum(1 for r in records if r.problem)
    if args.trace:
        metrics = traced_metrics(tracer, *passes, args.workload, args.seed)
    else:
        metrics = end_to_end(passes, statistics.median(setup_times), rss_mb, attempted, failed)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} pass(es), "
          f"{len(plan.jobs)} jobs each, closed loop, one client")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    if failed:
        print(f"{failed} of {attempted} jobs failed; inputs and outputs kept in {work}")
    else:
        shutil.rmtree(work)
    if not args.trace:
        metrics = {k: metrics[k] for k in GATED}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the ggtkit benchmark: one workload by name, or both.

From the repository root:

    python3 perfbench/run.py --workload batch --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one after another

Each workload is a closed loop on one thread: a task starts when the
previous one has finished and been checked.  The tasks of a round run in
turn, round after round, until ``--seconds`` have passed and every task has
run once.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
whole rounds, untraced and traced in turn, and prints the per-layer
metrics.  The last line of standard output
is one JSON object; the full record, with the environment and (when traced)
the spans, goes to perfbench/out/.  The exit code is 1 when any output
check failed and 2 when ggtkit's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("batch", "queries")
SETUP_SAMPLES = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0, help="seed of the generated inputs")
    p.add_argument("--seconds", type=float, default=55.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load(name: str, seed: int):
    """Import ggtkit and build the seeded inputs; returns (workload, seconds)."""
    start = perf_counter()
    from perfbench import workloads

    workload = workloads.make(name, seed)
    return workload, perf_counter() - start


def setup_probe(args) -> float:
    """Set-up time of a fresh interpreter, which imports everything anew."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_task(task, tracer=None, label="") -> tuple:
    """Time one task, then check its output; returns (seconds, problems)."""
    if tracer is not None:
        tracer.begin_task(label)
    t0 = perf_counter()
    try:
        result = task.call()
    except Exception as exc:  # a task that raises counts as failed
        result, found = None, [f"{task.name}: raised {type(exc).__name__}: {exc}"]
    else:
        found = None
    dt = perf_counter() - t0
    if tracer is not None:
        tracer.end_task()
    if found is None:
        try:
            summary = task.summarize(result)
            result = None  # free the program's objects before references are built
            found = task.check(summary)
        except Exception as exc:  # a malformed result is a failed check
            found = [f"{task.name}: check raised {type(exc).__name__}: {exc}"]
    return dt, found


def measure(workload, seconds: float) -> dict:
    """Run the tasks in turn, round after round, until the time is up and
    every task has run; returns the times of each task of the round."""
    tasks = workload.tasks
    times: list = [[] for _ in tasks]
    problems: list = []
    attempted = failed = 0
    start = perf_counter()
    while attempted < len(tasks) or perf_counter() - start < seconds:
        i = attempted % len(tasks)
        dt, found = run_task(tasks[i])
        times[i].append(dt)
        attempted += 1
        if found:
            failed += 1
            problems += found
    return {"times": times, "attempted": attempted, "failed": failed, "problems": problems}


def measure_traced(workload, seconds: float, tracer) -> dict:
    """Whole rounds, untraced and traced in turn, until the time is up and
    each kind has run once; returns both kinds' round times."""
    walls: dict = {False: [], True: []}
    problems, layer_rounds, spans = [], [], None
    attempted = failed = 0
    start = perf_counter()
    while not walls[True] or perf_counter() - start < seconds:
        traced = len(walls[False]) > len(walls[True])
        if traced:
            tracer.install()
            tracer.reset()
        wall = 0.0
        try:
            for i, task in enumerate(workload.tasks):
                label = f"{len(walls[traced])}.{i}.{task.name}"
                dt, found = run_task(task, tracer if traced else None, label)
                wall += dt
                attempted += 1
                if found:
                    failed += 1
                    problems += found
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(wall)
        if traced:
            layer_rounds.append(tracer.round_metrics())
            spans = spans or tracer.spans
    return {
        "untraced": walls[False], "traced": walls[True], "attempted": attempted,
        "failed": failed, "problems": problems, "layer_rounds": layer_rounds, "spans": spans,
    }


def environment() -> dict:
    revision = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        if done.returncode == 0:
            revision = done.stdout.strip()
    return {
        "revision": revision,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_workload(args) -> int:
    env = environment()
    workload, own_setup = load(args.workload, args.seed)
    ggtkit_file = Path(sys.modules["ggtkit"].__file__).resolve()
    if SRC not in ggtkit_file.parents:
        print(f"perfbench: ggtkit imported from {ggtkit_file}, not from {SRC}", file=sys.stderr)
        return 2
    record: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "environment": env}
    if args.trace == 0:
        setups = [own_setup] + [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
        run = measure(workload, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": (sum(statistics.fmean(t) for t in run["times"]), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        lat_ms = [t * 1000 for ts in run["times"] for t in ts]
        notes = [f"rounds = {len(run['times'][-1])} to {len(run['times'][0])}",
                 f"task latency p50 = {statistics.median(lat_ms):.6g} ms, "
                 f"p99 = {percentile(lat_ms, 0.99):.6g} ms over {len(lat_ms)} tasks"]
        record.update(setup_samples=setups, times=run["times"])
    else:
        from perfbench import tracing

        tracer = tracing.Tracer()
        run = measure_traced(workload, args.seconds, tracer)
        layer = tracing.combine_rounds(run["layer_rounds"])
        layer[tracing.OVERHEAD[0]] = (
            statistics.median(run["traced"]) - statistics.median(run["untraced"])
        )
        units = {name: unit for name, unit, *_ in tracing.PER_LAYER + [tracing.OVERHEAD]}
        metrics = {name: (value, units[name]) for name, value in layer.items()}
        notes = [f"rounds = {len(run['untraced'])} untraced, {len(run['traced'])} traced"]
        if tracer.absent:
            notes.append(f"absent (metrics read 0): {', '.join(tracer.absent)}")
        record.update(absent=tracer.absent, hook_errors=sorted(tracer.hook_errors),
                      walls={"untraced": run["untraced"], "traced": run["traced"]},
                      layer_rounds=run["layer_rounds"], spans=run["spans"])
    problems, attempted, failed = run["problems"], run["attempted"], run["failed"]
    try:
        final = workload.final_check()
    except Exception as exc:  # reported like any other failed check
        final = [f"final check raised {type(exc).__name__}: {exc}"]
    if final:
        problems += final
        failed = min(attempted, failed + 1)  # the task whose row was recomputed
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(problems=problems, result=result)
    OUT.mkdir(parents=True, exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, default=repr) + "\n")

    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"tasks={attempted} revision={env['revision']} "
          f"python={env['python']} nproc={env['nproc']} record={out_file.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"perfbench: {name} = {value:.6g} {unit}")
    for note in notes:
        print(f"perfbench: {note}")
    print(f"perfbench: fail_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    for p in problems[:20]:
        print(f"perfbench: FAILED {p}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ggtkit" / "__init__.py").is_file():
        print(f"perfbench: no ggtkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    os.environ.pop("GGTKIT_CACHE_DIR", None)  # no ball cache: users pay for every ball
    if args.setup_only:
        print(load(args.workload, args.seed)[1])
        return 0
    if args.workload != "all":
        return run_workload(args)
    codes = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes.append(subprocess.run(cmd, cwd=ROOT).returncode)
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())

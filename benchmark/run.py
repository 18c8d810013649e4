"""snapgrip benchmark: one seeded workload, one run, one JSON result line.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload {sweep,chain,cli} --seed N \\
        --seconds S --trace {0,1}

The program is imported from the checkout's ``src``; nothing is
installed.  With ``--trace 0`` a single client runs the workload's tasks
back to back for S seconds and the end-to-end metrics are reported;
times are scaled to a reference speed measured by probes between tasks
(see ``scale``).
With ``--trace 1`` one fixed cycle of tasks runs untraced and then
traced, and the per-layer metrics are reported; the run's spans are
written to ``.benchmark_out/``.  Outputs are checked in both modes.  The
last line of stdout is the result; the line before it stamps the run.
See README.md in this directory for the metric definitions.
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import NamedTuple, Optional

import workloads
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".benchmark_work"
OUT = ROOT / ".benchmark_out"
REFERENCE = BENCH / "reference.json"
DEFAULT_SEED = 0
SETUP_SAMPLES = 3          # scaled set-ups per run, in fresh interpreters
TAIL_BEYOND = 10           # samples wanted beyond the tail percentile
PROBE_REPEATS = 40         # kernel runs per kernel probe

# Per-layer metrics: (name, unit, better).  README.md maps each one to the
# end-to-end metric and workload it should move.
PER_LAYER = (
    ("model.gradient_1dof.calls", "count", "lower"),
    ("model.gradient_1dof.self_s", "s", "lower"),
    ("model.total_energy_1dof.calls", "count", "lower"),
    ("model.total_energy_1dof.self_s", "s", "lower"),
    ("model.moment_curvature.calls", "count", "lower"),
    ("model.moment_curvature.self_s", "s", "lower"),
    ("model.chain_gradient.calls", "count", "lower"),
    ("model.chain_gradient.self_s", "s", "lower"),
    ("model.chain_energy.calls", "count", "lower"),
    ("model.chain_energy.self_s", "s", "lower"),
    ("model.chain_hessian.calls", "count", "lower"),
    ("model.chain_hessian.self_s", "s", "lower"),
    ("statics.find_equilibria_1dof.calls", "count", "lower"),
    ("statics.find_equilibria_1dof.self_s", "s", "lower"),
    ("statics.find_equilibria_1dof.per_task", "count", "lower"),
    ("statics.trigger_moment.self_s", "s", "lower"),
    ("statics.find_equilibria_chain.self_s", "s", "lower"),
    ("statics.find_equilibria_chain.converged_frac", "ratio", "higher"),
    ("statics.saddle_search_chain.self_s", "s", "lower"),
    ("dynamics.closing_time.calls", "count", "lower"),
    ("dynamics.closing_time.self_s", "s", "lower"),
    ("dynamics.closing_time.gradient_calls", "count", "lower"),
    ("dynamics.closing_time.triggered_frac", "ratio", "higher"),
    ("dynamics.simulate_1dof.self_s", "s", "lower"),
    ("explore.run_sweep.self_s", "s", "lower"),
    ("explore.design_metrics.calls", "count", "lower"),
    ("explore.design_metrics.self_s", "s", "lower"),
    ("explore.grip_force_estimate.self_s", "s", "lower"),
    ("config.load_config.self_s", "s", "lower"),
    ("config.build_design.self_s", "s", "lower"),
    ("report.write_csv.self_s", "s", "lower"),
    ("report.write_manifest.self_s", "s", "lower"),
    ("report.svg_line_plot.self_s", "s", "lower"),
    ("report.bytes_written", "B", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed_setup(name, seed, workdir):
    """Build the workload (importing snapgrip) and time it."""
    start = time.perf_counter()
    workload = workloads.WORKLOADS[name](seed, workdir)
    return workload, time.perf_counter() - start


class Done(NamedTuple):
    task: object
    output: object
    error: Optional[str]
    seconds: float
    cpu_s: float
    scale: Optional[float] = None     # reference over probe time around it


def cpu_seconds(workload):
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload.in_children
                               else resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _probe_kernel():
    """Fixed work in the program's mix: small numpy arrays and float math."""
    import numpy as np
    x = np.linspace(0.0, 1.0, 16)
    acc = 0.0
    for i in range(40):
        y = np.sin(x * i) + x * x
        acc += float(y.sum()) + math.sqrt(i + 1.0)
    return acc


def kernel_probe():
    """Seconds that PROBE_REPEATS runs of the probe kernel take now."""
    start = time.perf_counter()
    for _ in range(PROBE_REPEATS):
        _probe_kernel()
    return time.perf_counter() - start


def start_probe():
    """Seconds to start a fresh interpreter that imports numpy."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   timeout=120)
    return time.perf_counter() - start


# Speed probes, each with its time at the reference speed: its fastest
# spells on a 2-vCPU Intel Xeon virtual machine (Python 3.11, numpy 2.4).
# Scaled times read as times on that machine with nothing else on its
# host.  The kernel probe follows work done in this process; the start
# probe follows work done in fresh interpreters (CLI calls, set-ups),
# which is mostly start-up and imports and slows differently.
KERNEL_PROBE = (kernel_probe, 7e-3)
START_PROBE = (start_probe, 0.13)


def run_one(workload, task):
    cpu = cpu_seconds(workload)
    start = time.perf_counter()
    try:
        output, error = workload.run(task), None
    except Exception:  # a failed task is counted, the run goes on
        output, error = None, traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    return Done(task, output, error, seconds, cpu_seconds(workload) - cpu)


def run_tasks(workload, tasks):
    """Run tasks one at a time, timing each one."""
    return [run_one(workload, task) for task in tasks]


def run_for(workload, seconds):
    """Closed loop over the workload's cycles: at least one whole cycle,
    then on until ``seconds`` have passed.  A speed probe runs between
    tasks, and each task is scaled by the mean of the probes before and
    after it (see ``scale``)."""
    probe, reference_s = START_PROBE if workload.in_children else KERNEL_PROBE
    done = []
    deadline = time.perf_counter() + seconds
    before = probe()
    for k in itertools.count():
        for task in workload.cycle(k):
            if k > 0 and time.perf_counter() >= deadline:
                return done
            d = run_one(workload, task)
            after = probe()
            done.append(d._replace(scale=scale(reference_s, before, after)))
            before = after


def scale(reference_s, before, after):
    """Factor that takes a time to the reference speed.

    The shared host alternates, every few milliseconds, between fast and
    slow spells up to 2x apart, and the share of slow time drifts over
    minutes, so raw times of the same work in two runs can differ by a
    third.  A probe's time, over its time at the reference speed, is how
    much the host slows work right now; the mean of the probes right
    before and right after a piece of work stands for the speed it ran
    at.  The probes are the benchmark's own code, so no change to the
    program moves them.
    """
    return reference_s / ((before + after) / 2)


def check(workload, done):
    """(attempted units, failed units, problems) over finished tasks."""
    attempted = failed = 0
    problems = []
    for task, output, error, *_ in done:
        attempted += task.units
        if error is not None:
            failed += task.units
            problems.append(f"{task.describe()}: {error}")
            continue
        n_bad, bad = workload.check(task, output)
        failed += n_bad
        problems += [f"{task.describe()}: {b}" for b in bad]
    return attempted, failed, problems


def reference_problems(workload, seed, done):
    """Compare the first cycle of the default seed with reference.json."""
    if seed != DEFAULT_SEED:
        return []
    want = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload.name]
    problems = []
    for i, ((task, output, error, *_), ref) in enumerate(zip(done, want)):
        if error is None and not workloads.matches_reference(
                workload.summary(task, output), ref):
            problems.append(f"task {i} ({task.describe()}) differs from "
                            f"reference.json")
    return problems


def tail(samples, percentile):
    """(value, samples beyond it) of ``percentile``, linearly interpolated.

    Each workload fixes the percentile so that about TAIL_BEYOND or more
    of a 30 s run's samples lie beyond it (the stamp gives the count) and
    it falls inside one cost class of its cycle; a percentile that moved
    with the sample count would jump between classes from run to run.
    """
    xs = sorted(samples)
    if len(xs) == 1:
        return xs[0], 0
    value = statistics.quantiles(xs, n=100, method="inclusive")[
        percentile - 1]
    return value, sum(x > value for x in xs)


def setup_probes(name, seed, workdir, n):
    """Raw and scaled set-up times of ``n`` fresh interpreters.

    Each set-up is scaled by the start probes run just before and after
    it (see ``scale``).
    """
    probe, reference_s = START_PROBE
    times, at_reference = [], []
    before = probe()
    for i in range(n):
        probe_dir = Path(workdir) / f"probe{i}"
        probe_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), name, str(seed),
             str(probe_dir)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
        after = probe()
        at_reference.append(times[-1] * scale(reference_s, before, after))
        before = after
    return times, at_reference


def timed_run(args, workdir):
    """End-to-end metrics with tracing off."""
    workload, setup_s = timed_setup(args.workload, args.seed, workdir)
    start = time.perf_counter()
    done = run_for(workload, args.seconds)
    elapsed = time.perf_counter() - start
    who = (resource.RUSAGE_CHILDREN if workload.in_children
           else resource.RUSAGE_SELF)
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    attempted, failed, problems = check(workload, done)
    problems += reference_problems(workload, args.seed, done)
    setups, setups_scaled = setup_probes(args.workload, args.seed, workdir,
                                         SETUP_SAMPLES)
    # A run stops part way through a cycle, so throughput and CPU are
    # taken per slot (mean over its repetitions) and summed over one
    # cycle: every run then weighs the cycle's task mix alike.
    width = len(workload.cycle(0))
    slots = [done[j::width] for j in range(width)]
    cycle_units = sum(reps[0].task.units for reps in slots)

    def per_cycle(value):
        return sum(statistics.fmean(value(d) for d in reps) for reps in slots)

    latencies = [d.seconds * d.scale / d.task.units for d in done]
    tail_s, beyond = tail(latencies, workload.tail_percentile)
    raw = [d.seconds / d.task.units for d in done]
    metrics = {
        "setup_s": (statistics.median(setups_scaled), "s"),
        "throughput": (cycle_units / per_cycle(lambda d: d.seconds * d.scale),
                       "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "cpu_per_task_ms": (per_cycle(lambda d: d.cpu_s * d.scale)
                            / cycle_units * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    stamp = {"tasks": len(done), "timed_s": elapsed,
             "throughput_unit": workload.throughput_unit,
             "latency_samples": len(latencies),
             "latency_tail_percentile": workload.tail_percentile,
             "latency_samples_beyond_tail": beyond,
             "raw_throughput": attempted / sum(d.seconds for d in done),
             "raw_latency_p50_ms": statistics.median(raw) * 1e3,
             "scale_median": statistics.median(d.scale for d in done),
             "failed_frac": failed / attempted,
             "own_setup_s": setup_s,
             "setup_samples_s": setups,
             "setup_samples_scaled_s": setups_scaled}
    return workload, attempted, failed, problems, metrics, stamp


def traced_run(args, workdir):
    """Per-layer metrics: one cycle untraced, then the same cycle traced."""
    # Loaded before wrapping, so that config and design set-up are traced.
    import snapgrip  # noqa: F401
    tracer = Tracer()
    tracer.install()
    try:
        workload, _ = timed_setup(args.workload, args.seed, workdir)
    finally:
        tracer.uninstall()
    tasks = workload.cycle(0)

    # Each task runs untraced and then traced, back to back, so that the
    # machine's drifting speed cancels from the overhead ratio.
    # The CLI workload merges the spans of its traced children into
    # ``workload.tracer``.
    untraced, traced = [], []
    for i, task in enumerate(tasks):
        untraced += run_tasks(workload, [task])
        tracer.task = str(i)
        workload.tracer = tracer
        tracer.install()
        try:
            traced += run_tasks(workload, [task])
        finally:
            tracer.uninstall()
            workload.tracer = None
    untraced_s = sum(d.seconds for d in untraced)
    traced_s = sum(d.seconds for d in traced)

    attempted, failed, problems = check(workload, untraced + traced)
    problems += reference_problems(workload, args.seed, untraced)
    problems += tracing_changed_results(workload, untraced, traced)
    metrics = per_layer_metrics(tracer, traced_s / untraced_s - 1.0)
    trace_file = write_trace(args, tracer, tasks, untraced_s, traced_s,
                             metrics)
    stamp = {"tasks": len(tasks), "untraced_s": untraced_s,
             "traced_s": traced_s, "trace_file": str(trace_file)}
    return workload, attempted, failed, problems, metrics, stamp


def tracing_changed_results(workload, untraced, traced):
    problems = []
    for (task, out_a, err_a, *_), (_, out_b, err_b, *_) in zip(untraced,
                                                               traced):
        if err_a is None and err_b is None and not workloads.matches_reference(
                workload.summary(task, out_b), workload.summary(task, out_a)):
            problems.append(f"{task.describe()}: traced result differs")
    return problems


def ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer, overhead_frac):
    notes = tracer.notes
    values = {
        "statics.find_equilibria_1dof.per_task": ratio(
            notes["solves_in_bistable_points"], notes["bistable_points"]),
        "statics.find_equilibria_chain.converged_frac": ratio(
            notes["chain_equilibria"], notes["chain_seeds"]),
        "dynamics.closing_time.gradient_calls": tracer.calls_from(
            "dynamics.closing_time", "model.gradient_1dof"),
        "dynamics.closing_time.triggered_frac": ratio(
            notes["closing_triggered"], notes["closing_attempts"]),
        "report.bytes_written": notes["bytes_written"],
        "cli.import_s": (statistics.median(tracer.import_s)
                         if tracer.import_s else 0.0),
        "trace.overhead_frac": overhead_frac,
    }
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name in values:
            value = values[name]
        elif name.endswith(".calls"):
            value = tracer.calls[name[:-len(".calls")]]
        else:
            value = tracer.self_s(name[:-len(".self_s")])
        metrics[name] = (value, unit)
    return metrics


def write_trace(args, tracer, tasks, untraced_s, traced_s, metrics):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "tasks": [task.describe() for task in tasks],
        "untraced_s": untraced_s, "traced_s": traced_s,
        "notes": dict(tracer.notes), "cli_import_s": tracer.import_s,
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "spans": tracer.span_records(),
    }, indent=1) + "\n", encoding="utf-8")
    return path


def source_stamp():
    """Commit when the checkout is a git repository, and a digest of src."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:  # no git program
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def versions():
    def version(name):
        module = sys.modules.get(name)
        return getattr(module, "__version__", None)
    return {"python": sys.version.split()[0], "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count()}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "snapgrip" / "__init__.py").is_file():
        print(f"benchmark: no snapgrip sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        workload, attempted, failed, problems, metrics, stamp = (
            traced_run if args.trace else timed_run)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for problem in problems:
        print(f"benchmark: {problem}", file=sys.stderr)
    stamp.update(workload=args.workload, seed=args.seed,
                 seconds=args.seconds, trace=args.trace,
                 attempted=attempted, failed=failed, problems=len(problems),
                 **versions(), **source_stamp())
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

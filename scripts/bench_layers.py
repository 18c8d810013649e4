"""Time the model layers of one snapgrip checkout on the baseline design.

Usage, from the root of a checkout:

    python3 scripts/bench_layers.py [--src PATH] [--repeats N]

``--src`` is the ``src`` directory to import (default: this checkout's), so
the same script can time two checkouts on the same machine.  The layers
come in six groups (1-DOF, chain, saddle, chain task, continuation,
Yeoh), and each group runs in its own fresh child interpreter
(``--group NAME`` runs one group in the calling process).  So a layer's
time does not depend on what earlier layers left behind, such as the
allocator's state after the Yeoh set-up's large temporaries.  Each
layer is run ``--repeats`` times after one warm-up run; the JSON printed
on stdout gives every run's time, their median, and how often the layer
called ``gradient_1dof`` (array form), ``find_equilibria_1dof``,
``chain_gradient`` and ``moment_curvature``.  The counts include calls
made inside the model: each ``chain_gradient_hessian`` call adds its one
stacked ``chain_gradient`` call (rows phi and phi +- h e_k), and each
array-form Yeoh ``gradient_1dof`` or ``chain_gradient`` call its
``moment_curvature`` call.  The Yeoh float closures (``scalar_model``)
and the Yeoh bend energy evaluate the closed form themselves and make
no ``moment_curvature`` call.  Counts do not change from run to run.  The ``chain_hessian`` layers time the Hessian of
``chain_gradient_hessian``, under the name of the function it replaced,
so older records still compare.  The ``closing_time`` layers kick the baseline with 5 times its minimal trigger
impulse, without gravity and at g = 9.81; their equilibrium reports are
solved outside the timer, as is the report of
``grip_force_estimate_g9.81``, which presses on an object of the baseline
configuration's ``solver.object_halfwidth``, and of the
``trigger_moment`` layers (without gravity and at g = 9.81).  The
``find_equilibria_1dof`` layers time a warm scan, whose window grid and
gravity arc terms come from the model's
window cache, and the ``_cold`` ones a scan after the cache is cleared,
as in every cold CLI call.  The ``design_metrics`` layers use the same
factor, since the default 1.5 never closes the baseline and would time a
run that stops below the barrier.  ``set_design_value_x1000`` sets
``ring.stiffness`` on the baseline 1,000 times, and
``parse_config_build_design_x100`` parses the baseline configuration's
text and builds its design 100 times.  The chain layers evaluate the uniform
chain at the open-state tip angle with n = 8, 32 and 128 segments, without
gravity and at g = 9.81.  The ``yeoh_`` layers repeat
the main 1-DOF and n = 32 chain layers on the baseline design with a Yeoh
finger (c10 = 1e5 Pa), and ``yeoh_construct_x100`` builds that law, whose
monotonic-stress check runs on 601 stretches, 100 times.  Each group
loads numpy before its set-up, as a study does, so every equilibrium
scan times the array form.  The ``saddle_`` layers time ``saddle_search_chain``
alone, at n = 2, g = 0.3 and at g = 9.81 with n = 4, 8 and 32; their two
minima are solved outside the timer.  The ``find_equilibria_chain_`` layers
solve those minima from the designs' ``default_chain_seeds``, built outside
the timer.  The ``chain_task_`` layers each run one task of a class of
the ``chain`` benchmark workload, on the baseline design with ring
stiffness 0.1225 N*m/rad and natural curvature 20/m: the warm 1-DOF
scan, the ``default_chain_seeds``, the chain minima and, for n <= 8, the
transition state, at n = 2, g = 0.3; n = 8, g = 0.05; and n = 32,
g = 7.  The ``continuation_`` layers ramp the baseline's closing moment
to 1.5 times its trigger moment in 50 and 200 steps, without gravity and at
g = 9.81, and ``continuation_g0_1000_steps_grid1e5`` in 1,000 steps on a
``solver.grid_n`` = 10^5 scan grid, where the cost of each load step's walk
shows.  The fourteen cold layers each start a fresh interpreter that
imports ``--src``, so they include start-up and imports:
``python_pass_cold`` runs ``python -c pass``, ``import_numpy_cold``
imports numpy with one OpenBLAS thread, ``import_snapgrip_cold`` runs
``python -c "import snapgrip"``, ``import_snapgrip_cli_cold`` runs
``python -c "import snapgrip.cli"``, and the ten ``cli_*_cold`` layers
are CLI calls, each ``python -m snapgrip.cli COMMAND --config
configs/baseline.cfg``: ``cli_snapthrough_cold`` runs ``snapthrough``,
``cli_trigger_cold`` ``trigger``, ``cli_gravitycheck_cold``
``gravitycheck``, ``cli_unknown_key_cold`` a ``snapthrough`` that a
misspelt key in its configuration (``ring.stifness``) ends with exit 2,
``cli_closingtime_cold`` ``closingtime``, ``cli_gripforce_cold``
``gripforce``, ``cli_feacases_cold`` ``feacases``, and
``cli_sweep_5x5_cold`` a ``sweep`` over ``--param
ring.stiffness=0.1:0.14:5 --param finger.natural_curvature=18:22:5``;
``cli_equilibria_yeoh_cold`` and ``cli_closingtime_yeoh_cold`` run
``equilibria`` and ``closingtime`` on a copy of the configuration with
``material.model = yeoh`` (c10 = 1e5 Pa).  Besides its wall time, each records
the child's CPU time (user + system, from the ``os.wait4`` rusage) as
``cpu_median_s`` and ``cpu_runs_s``, its peak RSS (``ru_maxrss`` of
the same rusage) as ``maxrss_median_mib`` and ``maxrss_runs_mib``, and
whether it imports numpy as ``loads_numpy`` (from ``-X importtime`` in
one more run), and none has call counts.  Each CLI call also records
``cpu_split_s``, its CPU time split into the interpreter (``python -c
pass``), numpy (``import_numpy_cold`` less the interpreter, 0 for a call
that does not load it), the import of ``snapgrip.cli`` (less the
interpreter and, if that import loads numpy, numpy) and the work, the
rest.  The cold layers run in rounds, one run of each a round, so that
a slow spell of the host falls on all of them alike.  A child's
``ru_maxrss`` starts at the high-water mark of the process that spawned
it, with fork or vfork alike, so it
reads at least the spawner's own peak: a ``true`` child of a 100 MiB
process reads 110-114 MiB, one of a 14 MiB process 13.8 MiB.  This
script's own process imports neither snapgrip nor numpy and stays near
14 MiB, below the about 33 MiB a cold CLI child peaks at, so the number
is the child's own peak.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BASELINE_CFG = ROOT / "configs" / "baseline.cfg"


def repeated(times, f, *args):
    """Zero-argument callable that calls ``f(*args)`` ``times`` times."""
    def run():
        for _ in range(times):
            f(*args)
    return run


def one_dof_layers(design):
    from snapgrip.dynamics import (closing_time, minimal_trigger_impulse,
                                   simulate_1dof)
    from snapgrip.config import (build_design, build_solver_settings,
                                 load_config, parse_config)
    from snapgrip.explore import (design_metrics, grip_force_estimate,
                                  reproduce_fea_cases, tune_ring_width)
    from snapgrip import model
    from snapgrip.model import gradient_1dof, set_design_value
    from snapgrip.statics import find_equilibria_1dof, trigger_moment

    clear = model._window_arcs.cache_clear
    gravity = set_design_value(design, "gripper.gravity", 9.81)
    report = find_equilibria_1dof(design)
    impulse = 5.0 * minimal_trigger_impulse(design, report)
    gravity_report = find_equilibria_1dof(gravity)
    gravity_impulse = 5.0 * minimal_trigger_impulse(gravity, gravity_report)
    halfwidth = build_solver_settings(
        load_config(BASELINE_CFG)).object_halfwidth
    text = BASELINE_CFG.read_text()
    return [
        ("set_design_value_x1000",
         repeated(1000, set_design_value, design, "ring.stiffness", 0.12)),
        ("parse_config_build_design_x100",
         repeated(100, lambda: build_design(parse_config(text)))),
        ("gradient_1dof_scalar_g9.81_x1000",
         repeated(1000, gradient_1dof, 0.3, gravity)),
        ("find_equilibria_1dof", lambda: find_equilibria_1dof(design)),
        ("find_equilibria_1dof_g9.81", lambda: find_equilibria_1dof(gravity)),
        ("find_equilibria_1dof_cold", lambda: (
            clear(), find_equilibria_1dof(design))),
        ("find_equilibria_1dof_g9.81_cold", lambda: (
            clear(), find_equilibria_1dof(gravity))),
        ("trigger_moment", lambda: trigger_moment(design, report)),
        ("trigger_moment_g9.81", lambda: trigger_moment(gravity,
                                                        gravity_report)),
        ("closing_time", lambda: closing_time(design, impulse,
                                              report=report)),
        ("closing_time_g9.81", lambda: closing_time(
            gravity, gravity_impulse, report=gravity_report)),
        ("simulate_1dof_5000_steps", lambda: simulate_1dof(
            design, report.open_state.theta, 60.0, dt=2e-5, t_end=0.1)),
        ("design_metrics_g9.81", lambda: design_metrics(
            gravity, impulse_factor=5.0)),
        ("grip_force_estimate_g9.81", lambda: grip_force_estimate(
            gravity, halfwidth, report=gravity_report)),
        ("tune_ring_width_g9.81", lambda: tune_ring_width(gravity, 1e-9)),
        ("reproduce_fea_cases", lambda: reproduce_fea_cases(design)),
    ]


def chain_layers(design):
    from snapgrip.model import (chain_energy, chain_gradient,
                                chain_gradient_hessian, set_design_value,
                                uniform_chain)
    from snapgrip.statics import find_equilibria_1dof

    open_theta = find_equilibria_1dof(design).open_state.theta
    chain = []
    for n in (8, 32, 128):
        for g in (0.0, 9.81):
            d = set_design_value(set_design_value(
                design, "finger.n_segments", n), "gripper.gravity", g)
            phi = uniform_chain(d, open_theta)
            tag = f"n{n}_g{g:g}"
            chain += [
                (f"chain_energy_{tag}_x100",
                 repeated(100, chain_energy, phi, d)),
                (f"chain_gradient_{tag}_x100",
                 repeated(100, chain_gradient, phi, d)),
                (f"chain_hessian_{tag}",
                 lambda phi=phi, d=d: chain_gradient_hessian(phi, d)[1]),
                (f"chain_gradient_hessian_{tag}",
                 repeated(1, chain_gradient_hessian, phi, d)),
            ]
    return chain


def saddle_layers(design):
    from snapgrip.model import set_design_value
    from snapgrip.statics import (default_chain_seeds, find_equilibria_chain,
                                  saddle_search_chain)

    minima, saddles = [], []
    for n, g in ((2, 0.3), (4, 9.81), (8, 9.81), (32, 9.81)):
        d = set_design_value(set_design_value(
            design, "finger.n_segments", n), "gripper.gravity", g)
        seeds = default_chain_seeds(d)
        ends = [e.configuration for e in find_equilibria_chain(d, seeds)
                if e.stable]
        minima.append((f"find_equilibria_chain_n{n}_g{g:g}",
                       lambda d=d, seeds=seeds: find_equilibria_chain(d,
                                                                      seeds)))
        saddles.append((f"saddle_n{n}_g{g:g}",
                        lambda d=d, ends=ends: saddle_search_chain(d, *ends)))
    return minima + saddles


def chain_task_layers(design):
    from snapgrip.model import set_design_value
    from snapgrip.statics import (default_chain_seeds, find_equilibria_1dof,
                                  find_equilibria_chain, saddle_search_chain)

    def task(d, saddle):
        report = find_equilibria_1dof(d)
        minima = [e for e in find_equilibria_chain(
            d, default_chain_seeds(d, report)) if e.stable]
        if saddle:
            saddle_search_chain(d, minima[0].configuration,
                                minima[-1].configuration)

    tasks = []
    for n, g in ((2, 0.3), (8, 0.05), (32, 7.0)):
        d = design
        for path, value in (("finger.n_segments", n), ("gripper.gravity", g),
                            ("ring.stiffness", 0.1225),
                            ("finger.natural_curvature", 20.0)):
            d = set_design_value(d, path, value)
        tasks.append((f"chain_task_n{n}",
                      lambda d=d, saddle=n <= 8: task(d, saddle)))
    return tasks


def continuation_layers(design):
    from snapgrip.model import MAX_GRID_POINTS, set_design_value
    from snapgrip.statics import continuation_ramped_load, trigger_moment

    continuation = []
    for g in (0.0, 9.81):
        d = set_design_value(design, "gripper.gravity", g)
        tau_max = 1.5 * trigger_moment(d)
        for steps in (50, 200):
            continuation.append((
                f"continuation_g{g:g}_{steps}_steps",
                lambda d=d, tau_max=tau_max, steps=steps:
                    continuation_ramped_load(d, tau_max, steps)))
    fine = set_design_value(design, "solver.grid_n", MAX_GRID_POINTS)
    tau_max = 1.5 * trigger_moment(fine)
    continuation.append((
        "continuation_g0_1000_steps_grid1e5",
        lambda: continuation_ramped_load(fine, tau_max, 1000)))
    return continuation


def yeoh_layers(design):
    from snapgrip.dynamics import closing_time, minimal_trigger_impulse
    from snapgrip.explore import design_metrics
    from snapgrip.model import (Yeoh, chain_energy, chain_gradient,
                                gradient_1dof, set_design_value,
                                total_energy_1dof, uniform_chain)
    from snapgrip.statics import find_equilibria_1dof

    yeoh = replace(design, finger=replace(design.finger,
                                          material=Yeoh(1.0e5)))
    yeoh_gravity = set_design_value(yeoh, "gripper.gravity", 9.81)
    yeoh_report = find_equilibria_1dof(yeoh)
    yeoh_impulse = 5.0 * minimal_trigger_impulse(yeoh, yeoh_report)
    yeoh_chain = set_design_value(yeoh_gravity, "finger.n_segments", 32)
    yeoh_phi = uniform_chain(yeoh_chain, yeoh_report.open_state.theta)
    return [
        ("yeoh_construct_x100", repeated(100, Yeoh, 1.0e5)),
        ("yeoh_gradient_1dof_scalar_g9.81_x1000",
         repeated(1000, gradient_1dof, 0.3, yeoh_gravity)),
        ("yeoh_total_energy_1dof_g9.81_x10",
         repeated(10, total_energy_1dof, 0.3, yeoh_gravity)),
        ("yeoh_find_equilibria_1dof", lambda: find_equilibria_1dof(yeoh)),
        ("yeoh_closing_time", lambda: closing_time(yeoh, yeoh_impulse,
                                                   report=yeoh_report)),
        ("yeoh_design_metrics_g9.81", lambda: design_metrics(
            yeoh_gravity, impulse_factor=5.0)),
        ("yeoh_chain_energy_n32_g9.81_x10",
         repeated(10, chain_energy, yeoh_phi, yeoh_chain)),
        ("yeoh_chain_gradient_n32_g9.81_x10",
         repeated(10, chain_gradient, yeoh_phi, yeoh_chain)),
    ]


# Layer groups, in output order: name -> function of the baseline design
# that does the group's set-up and returns its (name, zero-argument
# callable) layers.
GROUPS = {"1dof": one_dof_layers, "chain": chain_layers,
          "saddle": saddle_layers, "chain_task": chain_task_layers,
          "continuation": continuation_layers, "yeoh": yeoh_layers}


def cold_layers(workdir):
    """Cold layers: name -> (the arguments of ``python`` for one run, its
    exit code)."""
    unknown_key = Path(workdir) / "unknown_key.cfg"
    unknown_key.write_text(BASELINE_CFG.read_text()
                           + "ring.stifness = 0.12\n")
    yeoh = Path(workdir) / "yeoh.cfg"
    yeoh.write_text(BASELINE_CFG.read_text().replace(
        "material.model = linear", "material.model = yeoh"))

    def cli(*argv, config=BASELINE_CFG, code=0):
        return (["-m", "snapgrip.cli", *argv, "--config", str(config),
                 "--out", workdir], code)

    return {
        "python_pass_cold": (["-c", "pass"], 0),
        "import_numpy_cold": (["-c", "import os\n"
                               "os.environ['OPENBLAS_NUM_THREADS'] = '1'\n"
                               "import numpy"], 0),
        "import_snapgrip_cold": (["-c", "import snapgrip"], 0),
        "import_snapgrip_cli_cold": (["-c", "import snapgrip.cli"], 0),
        "cli_snapthrough_cold": cli("snapthrough"),
        "cli_trigger_cold": cli("trigger"),
        "cli_gravitycheck_cold": cli("gravitycheck"),
        "cli_unknown_key_cold": cli("snapthrough", config=unknown_key,
                                    code=2),
        "cli_closingtime_cold": cli("closingtime"),
        "cli_gripforce_cold": cli("gripforce"),
        "cli_equilibria_yeoh_cold": cli("equilibria", config=yeoh),
        "cli_closingtime_yeoh_cold": cli("closingtime", config=yeoh),
        "cli_feacases_cold": cli("feacases"),
        "cli_sweep_5x5_cold": cli("sweep",
                                  "--param", "ring.stiffness=0.1:0.14:5",
                                  "--param",
                                  "finger.natural_curvature=18:22:5"),
    }


def cold_run(src, workdir, args, code):
    """Wall and child CPU seconds and the child's peak RSS in MiB of
    ``python args`` in a fresh interpreter that imports the checkout whose
    ``src`` directory is ``src``; the run must exit with ``code``."""
    argv = [sys.executable, *args]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=workdir, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL,
                            env=dict(os.environ, PYTHONPATH=src))
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != code:
        sys.exit(f"{' '.join(argv)} exited with {proc.returncode}")
    return (wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024)     # ru_maxrss is in KiB


def loads_numpy(src, workdir, args):
    """Whether ``python args`` imports numpy, read from ``-X importtime``
    in one more, untimed, run."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          cwd=workdir, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    return any(line.rpartition("|")[2].strip() == "numpy"
               for line in proc.stderr.splitlines())


def cold_split(result):
    """CPU seconds of each cold CLI call split into the interpreter
    (``python -c pass``), numpy (``import numpy`` with one OpenBLAS thread,
    less the interpreter) if the call loads it, the import of
    ``snapgrip.cli`` less those two, and the work, which is the rest."""
    cpu = {name: layer["cpu_median_s"] for name, layer in result.items()
           if "cpu_median_s" in layer}
    interpreter = cpu["python_pass_cold"]
    numpy = cpu["import_numpy_cold"] - interpreter
    package = cpu["import_snapgrip_cli_cold"] - interpreter - (
        numpy if result["import_snapgrip_cli_cold"]["loads_numpy"] else 0.0)
    for name, layer in result.items():
        if name.startswith("cli_") and name in cpu:
            own_numpy = numpy if layer["loads_numpy"] else 0.0
            layer["cpu_split_s"] = {
                "interpreter": interpreter, "numpy": own_numpy,
                "snapgrip_import": package,
                "work": cpu[name] - interpreter - own_numpy - package}


def counted(names):
    """Wrap each named model/statics function in every snapgrip module that
    binds it; returns the call counter."""
    counts = dict.fromkeys(names, 0)
    modules = [m for n, m in sys.modules.items() if n.startswith("snapgrip")]
    for name in names:
        original = next(getattr(m, name) for m in modules if hasattr(m, name))

        def wrapper(*args, _name=name, _f=original, **kwargs):
            counts[_name] += 1
            return _f(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                setattr(module, name, wrapper)
    return counts


def time_group(group, repeats):
    """Time and count the layers of one group in this process."""
    from snapgrip import model
    from snapgrip.config import build_design, load_config
    model.np.asarray(0.0)   # numpy loads, as in a study
    design = build_design(load_config(BASELINE_CFG))
    result = {}
    for name, run in GROUPS[group](design):
        run()
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
        result[name] = {"median_s": statistics.median(times), "runs_s": times}
    counts = counted(("gradient_1dof", "find_equilibria_1dof",
                      "chain_gradient", "moment_curvature"))
    for name, run in GROUPS[group](design):
        before = dict(counts)
        run()
        result[name]["calls"] = {k: counts[k] - before[k] for k in counts}
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--group", choices=GROUPS,
                        help="time this layer group in this process and "
                             "print its JSON (default: every group, each "
                             "in a fresh child interpreter)")
    args = parser.parse_args(argv)
    if args.group:
        sys.path.insert(0, args.src)
        print(json.dumps(time_group(args.group, args.repeats)))
        return

    result = {}
    for group in GROUPS:
        child = subprocess.run(
            [sys.executable, __file__, "--src", args.src,
             "--repeats", str(args.repeats), "--group", group],
            stdout=subprocess.PIPE, text=True, check=True)
        result.update(json.loads(child.stdout))
    with tempfile.TemporaryDirectory() as workdir:
        # One run of each cold layer per round, so that the host's slow
        # spells, which last minutes, fall on every layer alike.
        layers = cold_layers(workdir)
        runs = {name: [] for name in layers}
        for round_ in range(args.repeats + 1):    # round 0 warms up
            for name, (cold_args, code) in layers.items():
                run = cold_run(args.src, workdir, cold_args, code)
                if round_:
                    runs[name].append(run)
        for name, (cold_args, _) in layers.items():
            walls, cpus, rss = map(list, zip(*runs[name]))
            result[name] = {
                "median_s": statistics.median(walls), "runs_s": walls,
                "cpu_median_s": statistics.median(cpus), "cpu_runs_s": cpus,
                "maxrss_median_mib": statistics.median(rss),
                "maxrss_runs_mib": rss,
                "loads_numpy": loads_numpy(args.src, workdir, cold_args)}
    cold_split(result)
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()

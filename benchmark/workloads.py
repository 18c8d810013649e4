"""Seeded inputs, task runners and output checks of the three workloads.

Each workload repeats a fixed cycle of task slots.  The seed draws every
input value from narrow per-slot bands, so two seeds give different
designs with the same mix of cost classes, and a run that stops after
the same number of tasks has done comparable work whatever the seed.

Only the standard library is imported at module level: importing
snapgrip (and with it numpy and scipy) is part of the set-up that
run.py times.
"""

import csv
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BASELINE_CFG = ROOT / "configs" / "baseline.cfg"
CLI_CHILD = BENCH / "cli_child.py"
CHILD_TIMEOUT_S = 170

# Tolerances of the comparison with reference.json.
REFERENCE_REL_TOL = 1e-8
REFERENCE_ABS_TOL = 1e-12


def child_env():
    """Environment for CLI children: the checkout's src first on the path."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


# ---------------------------------------------------------------------------
# sweep: explore.run_sweep over 2 keys (2 x 1 values), closing time and grip on
# ---------------------------------------------------------------------------

# Value bands of the swept keys.  A sweep sweeps its first key over two
# values, one drawn from each band, and its second key over one value, so
# each sweep is 2 design points: short, so a run holds many samples.
RING_MONO = ((0.0, 0.002), (0.115, 0.135))    # the first value is monostable
RING = ((0.115, 0.125), (0.125, 0.135))
CURVATURE = ((17.0, 19.0), (21.0, 23.0))
GRAVITY = ((3.0, 5.0), (7.0, 9.81))
PAYLOAD = ((0.0, 0.004), (0.006, 0.01))
ONE_RING = ((0.12, 0.13),)
ONE_CURVATURE = ((19.0, 21.0),)
ONE_GRAVITY = ((5.0, 7.0),)
ONE_PAYLOAD = ((0.004, 0.006),)
BASE_GRAVITY = (3.0, 9.81)

# (gravity band of the base design, or None for none; two (key, bands)).
# Every point feels gravity except the monostable point of the first
# sweep, which stops after one equilibrium analysis.
SWEEP_SLOTS = (
    (BASE_GRAVITY, ("ring.stiffness", RING_MONO),
     ("finger.natural_curvature", ONE_CURVATURE)),
    (None, ("ring.stiffness", RING), ("gripper.gravity", ONE_GRAVITY)),
    (BASE_GRAVITY, ("gripper.payload_mass", PAYLOAD),
     ("ring.stiffness", ONE_RING)),
    (None, ("finger.natural_curvature", CURVATURE),
     ("gripper.gravity", ONE_GRAVITY)),
    (None, ("gripper.gravity", GRAVITY), ("gripper.payload_mass", ONE_PAYLOAD)),
)


class SweepTask:
    def __init__(self, base, spec, gravity):
        self.base, self.spec, self.gravity = base, spec, gravity
        self.units = spec.n_points

    def describe(self):
        keys = "x".join(path for path, _ in self.spec.parameters)
        return f"run_sweep {keys} gravity={self.gravity:.4g}"


class Sweep:
    name = "sweep"
    throughput_unit = "points/s"
    in_children = False
    tail_percentile = 75    # a 30 s run holds about 45 samples

    def __init__(self, seed, workdir):
        import snapgrip  # noqa: F401  (timed: imports every layer)
        from snapgrip.config import (build_design, build_solver_settings,
                                     load_config)
        doc = load_config(BASELINE_CFG)
        self.base = build_design(doc)
        self.settings = build_solver_settings(doc)
        self.seed = seed
        self.first_cycle = self._make_cycle(0)

    def cycle(self, k):
        return self.first_cycle if k == 0 else self._make_cycle(k)

    def _make_cycle(self, k):
        from snapgrip.explore import SweepSpec
        from snapgrip.model import set_design_value
        rng = random.Random(f"sweep:{self.seed}:{k}")
        tasks = []
        for gravity_band, *keys in SWEEP_SLOTS:
            gravity = rng.uniform(*gravity_band) if gravity_band else 0.0
            base = set_design_value(self.base, "gripper.gravity", gravity)
            params = tuple((key, tuple(rng.uniform(*band) for band in bands))
                           for key, bands in keys)
            spec = SweepSpec(parameters=params,
                             include_closing_time=True,
                             include_grip_force=True,
                             object_halfwidth=self.settings.object_halfwidth,
                             impulse_factor=self.settings.impulse_factor)
            tasks.append(SweepTask(base, spec, gravity))
        return tasks

    def run(self, task):
        from snapgrip.explore import run_sweep
        return run_sweep(task.base, task.spec)

    def check(self, task, table):
        """Failed design points and their problems.

        Every row is checked against a fresh equilibrium analysis of its
        design: the bistable flag must agree and the gradient must vanish
        to 1e-10 at the equilibria the row's energies come from.
        """
        from snapgrip.model import set_design_value
        if len(table.rows) != task.units:
            return task.units, [f"{len(table.rows)} rows for "
                                f"{task.units} points"]
        failed, problems = 0, []
        for row in table.rows:
            design = task.base
            for (path, _), value in zip(task.spec.parameters, row.values):
                design = set_design_value(design, path, value)
            bad = _sweep_row_problems(row, design)
            if bad:
                failed += 1
                problems.append(f"{row.values}: {'; '.join(bad)}")
        return failed, problems

    def summary(self, task, table):
        return [[*row.values, row.bistable, row.open_energy,
                 row.saddle_energy, row.closed_energy, row.snap_through,
                 row.trigger_moment, row.grip_force, row.closing_time]
                for row in table.rows]


def _sweep_row_problems(row, design):
    from snapgrip.model import gradient_1dof
    from snapgrip.statics import GRADIENT_TOL, find_equilibria_1dof
    report = find_equilibria_1dof(design)
    if report.bistable != row.bistable:
        return [f"bistable={row.bistable} but a fresh analysis says "
                f"{report.bistable}"]
    if not row.bistable:
        return []
    bad = []
    if not row.open_energy < row.saddle_energy:
        bad.append("open energy not below saddle energy")
    if row.closed_energy != 0.0:
        bad.append(f"closed energy {row.closed_energy!r} is not 0")
    expected = row.saddle_energy - row.open_energy
    if not math.isclose(row.snap_through, expected, rel_tol=1e-9,
                        abs_tol=1e-15):
        bad.append(f"snap_through {row.snap_through!r} != saddle - open "
                   f"{expected!r}")
    for eq in (report.open_state, report.saddle, report.closed_state):
        g = abs(float(gradient_1dof(eq.theta, design)))
        if not g < GRADIENT_TOL:
            bad.append(f"|gradient| = {g:.3g} at theta = {eq.theta!r}")
    closed = report.closed_state.energy
    if not math.isclose(row.open_energy, report.open_state.energy - closed,
                        rel_tol=1e-12, abs_tol=1e-18):
        bad.append("open energy does not match the equilibrium analysis")
    if not math.isnan(row.closing_time) and not (
            math.isfinite(row.closing_time) and row.closing_time > 0):
        bad.append(f"closing time {row.closing_time!r}")
    return bad


# ---------------------------------------------------------------------------
# chain: chain minima and transition state, gravity on
# ---------------------------------------------------------------------------

STIFFNESS_BAND = (0.12, 0.125)
CURVATURE_BAND = (19.5, 20.5)
EQUILIBRIA_GRAVITY = (6.0, 8.0)

# (segments, gravity band, transition state wanted).  The string method's
# iteration count grows steeply with gravity (at n = 8 it doubles from
# g = 0.1 to 0.14) and its cost with n.  The bands keep the
# transition-state tasks short (0.2-0.8 s on a 2-vCPU machine), so a run
# holds many samples, and narrow, so that the seed moves the iteration
# counts by a few percent only.  Sorted by cost the slots run n = 2, 4,
# 16 (3/8 of the tasks), 8, 8 (the next 2/8) and 32, 32, 32 (the last
# 3/8), so the median falls in the middle of the n = 8 class and the
# p75 tail inside the n = 32 class, whatever the seed and wherever the
# run stops.  At n = 32 (equilibria only) the O(n^3) finite-difference
# Hessian carries the weight.
CHAIN_SLOTS = (
    (16, EQUILIBRIA_GRAVITY, False),
    (2, (0.29, 0.31), True),
    (32, EQUILIBRIA_GRAVITY, False),
    (8, (0.045, 0.055), True),
    (32, EQUILIBRIA_GRAVITY, False),
    (4, (0.095, 0.105), True),
    (32, EQUILIBRIA_GRAVITY, False),
    (8, (0.045, 0.055), True),
)


class ChainTask:
    units = 1

    def __init__(self, design, n, gravity, transition):
        self.design, self.n, self.gravity = design, n, gravity
        self.transition = transition

    def describe(self):
        kind = "minima+saddle" if self.transition else "minima"
        return f"chain n={self.n} {kind} gravity={self.gravity:.4g}"


class Chain:
    name = "chain"
    throughput_unit = "tasks/s"
    in_children = False
    tail_percentile = 75    # a 30 s run holds about 45 samples

    def __init__(self, seed, workdir):
        import snapgrip  # noqa: F401
        from snapgrip.config import build_design, load_config
        self.base = build_design(load_config(BASELINE_CFG))
        self.seed = seed
        self.first_cycle = self._make_cycle(0)

    def cycle(self, k):
        return self.first_cycle if k == 0 else self._make_cycle(k)

    def _make_cycle(self, k):
        from snapgrip.model import set_design_value
        rng = random.Random(f"chain:{self.seed}:{k}")
        tasks = []
        for n, gravity_band, transition in CHAIN_SLOTS:
            gravity = rng.uniform(*gravity_band)
            design = self.base
            values = {"finger.n_segments": n, "gripper.gravity": gravity,
                      "ring.stiffness": rng.uniform(*STIFFNESS_BAND),
                      "finger.natural_curvature": rng.uniform(*CURVATURE_BAND)}
            for path, value in values.items():
                design = set_design_value(design, path, value)
            tasks.append(ChainTask(design, n, gravity, transition))
        return tasks

    def run(self, task):
        from snapgrip.statics import (default_chain_seeds,
                                      find_equilibria_1dof,
                                      find_equilibria_chain,
                                      saddle_search_chain)
        design = task.design
        report = find_equilibria_1dof(design)
        seeds = default_chain_seeds(design, report)
        eqs = find_equilibria_chain(design, seeds)
        minima = [e for e in eqs if e.stable]
        saddle = None
        if task.transition and len(minima) >= 2:
            saddle = saddle_search_chain(design, minima[0].configuration,
                                         minima[-1].configuration)
        return minima, saddle

    def check(self, task, output):
        from snapgrip.model import chain_gradient
        from snapgrip.statics import CHAIN_GRAD_TOL
        minima, saddle = output
        bad = []
        if len(minima) != 2:
            bad.append(f"{len(minima)} chain minima, expected 2")
        for eq in minima:
            g = float(max(abs(chain_gradient(eq.configuration, task.design))))
            if not g < CHAIN_GRAD_TOL:
                bad.append(f"max |gradient| = {g:.3g} at a minimum")
        if task.transition:
            if saddle is None:
                bad.append("no transition state")
            elif not all(saddle.energy > eq.energy for eq in minima):
                bad.append("saddle energy not above both minima")
        return (1 if bad else 0), bad

    def summary(self, task, output):
        minima, saddle = output
        return [[e.energy for e in minima],
                None if saddle is None else saddle.energy]


# ---------------------------------------------------------------------------
# cli: cold `python -m snapgrip.cli` calls, one at a time
# ---------------------------------------------------------------------------

YEOH = {"material.model": "yeoh", "material.c10": (0.95e5, 1.05e5)}
GRAVITY_ON = {"gripper.gravity": (5.0, 9.81)}
MONOSTABLE = {"ring.stiffness": (0.0, 0.002)}

# (subcommand and flags, config overrides, expected exit code).  Flag
# values given as bands are drawn from the seed.  Each half of the cycle
# has one Yeoh call and one user mistake, so stopping between the halves
# keeps the mix.
CLI_SLOTS = (
    (("snapthrough",), {}, 0),
    (("trigger",), {}, 0),
    (("closingtime",), YEOH, 0),
    (("landscape", "--plot"), {}, 0),
    (("simulate", "--theta0", (-0.9, -0.8), "--omega0", (2.0, 6.0),
      "--t-end", "0.01"), {}, 0),
    (("equilibria",), {"ring.stifness": (0.115, 0.135)}, 2),
    (("equilibria",), YEOH, 0),
    (("gripforce",), {}, 0),
    (("gravitycheck", "--orientation", "-1"), GRAVITY_ON, 0),
    (("continuation", "--tau-max", (0.03, 0.05), "--steps", "50"), {}, 0),
    (("sweep", "--param", "ring.stiffness={:.6g}:{:.6g}:3"), {}, 0),
    (("snapthrough",), MONOSTABLE, 2),
)
SWEEP_PARAM_BANDS = ((0.11, 0.12), (0.13, 0.14))

CSV_HEADERS = {
    "snapthrough": {"snapthrough.csv": [
        "open_theta", "saddle_theta", "closed_theta", "open_energy",
        "saddle_energy", "closed_energy", "snap_through_energy"]},
    "trigger": {"trigger.csv": ["trigger_moment"]},
    "closingtime": {"closingtime.csv": ["triggered", "closing_time",
                                        "peak_velocity"]},
    "landscape": {"landscape.csv": ["theta", "total", "finger", "ring",
                                    "gravity"]},
    "simulate": {"trajectory.csv": ["t", "theta", "omega", "U", "kinetic",
                                    "dissipated"]},
    "equilibria": {"equilibria.csv": ["theta", "energy", "classification",
                                      "curvature"]},
    "gripforce": {"gripforce.csv": ["object_halfwidth", "grip_force"]},
    "gravitycheck": {"gravitycheck.csv": ["triggered", "margin"]},
    "continuation": {"continuation.csv": ["tau", "theta", "energy"],
                     "continuation_folds.csv": ["tau", "theta"]},
    "sweep": {"sweep.csv": [
        "ring.stiffness", "bistable", "open_energy", "saddle_energy",
        "closed_energy", "snap_through", "trigger_moment", "grip_force",
        "closing_time"]},
}
MANIFEST = "run_manifest.txt"


def config_text(base_text, overrides):
    """Baseline config text with ``overrides`` replacing or adding keys."""
    todo = dict(overrides)
    lines = []
    for raw in base_text.splitlines():
        key = raw.split("#", 1)[0].partition("=")[0].strip()
        if key in todo:
            raw = f"{key} = {_cfg_value(todo.pop(key))}"
        lines.append(raw)
    lines += [f"{key} = {_cfg_value(value)}" for key, value in todo.items()]
    return "\n".join(lines) + "\n"


def _cfg_value(value):
    return repr(value) if isinstance(value, float) else str(value)


class CliTask:
    units = 1

    def __init__(self, index, argv, config, expected_exit):
        self.index, self.argv, self.config = index, argv, config
        self.expected_exit = expected_exit
        self.command = argv[0]

    def describe(self):
        return " ".join(self.argv) + f" (exit {self.expected_exit})"


class CliCall(NamedTuple):
    returncode: int
    stdout: str
    stderr: str
    files: dict             # output file name -> text


class Cli:
    name = "cli"
    throughput_unit = "calls/s"
    in_children = True      # the work, its CPU time and memory are children's
    tail_percentile = 50    # a 30 s run holds about 20 samples

    def __init__(self, seed, workdir):
        import snapgrip  # noqa: F401
        from snapgrip.config import load_config
        load_config(BASELINE_CFG)
        self.base_text = BASELINE_CFG.read_text(encoding="utf-8")
        self.seed = seed
        self.workdir = Path(workdir)
        self.env = child_env()
        self.tracer = None  # set while tracing: children's spans merge here
        self.first_cycle = self._make_cycle(0)

    def cycle(self, k):
        return self.first_cycle if k == 0 else self._make_cycle(k)

    def _make_cycle(self, k):
        from snapgrip.config import build_design, parse_config
        from snapgrip.errors import ConfigError
        rng = random.Random(f"cli:{self.seed}:{k}")
        tasks = []
        for slot, (argv, extra, expected_exit) in enumerate(CLI_SLOTS):
            index = k * len(CLI_SLOTS) + slot
            overrides = {"ring.stiffness": rng.uniform(0.115, 0.135),
                         "finger.natural_curvature": rng.uniform(18.0, 22.0)}
            for key, value in extra.items():
                overrides[key] = (rng.uniform(*value)
                                  if isinstance(value, tuple) else value)
            args = []
            for arg in argv:
                if isinstance(arg, tuple):
                    arg = f"{rng.uniform(*arg):.6g}"
                elif "{" in arg:
                    arg = arg.format(*(rng.uniform(*band)
                                       for band in SWEEP_PARAM_BANDS))
                args.append(arg)
            text = config_text(self.base_text, overrides)
            try:
                build_design(parse_config(text))
            except ConfigError:
                if expected_exit == 0:
                    raise
            config = self.workdir / f"call{index}.cfg"
            config.write_text(text, encoding="utf-8")
            tasks.append(CliTask(index, args, config, expected_exit))
        return tasks

    def run(self, task):
        out = self.workdir / f"out{task.index}"
        argv = [*task.argv, "--config", str(task.config), "--out", str(out)]
        trace_path = self.workdir / f"trace{task.index}.json"
        if self.tracer is None:
            cmd = [sys.executable, "-m", "snapgrip.cli", *argv]
        else:
            cmd = [sys.executable, str(CLI_CHILD), str(trace_path), *argv]
        proc = subprocess.run(cmd, cwd=self.workdir, env=self.env,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        files = {}
        if out.is_dir():
            for path in sorted(out.iterdir()):
                files[path.name] = path.read_text(encoding="utf-8")
                path.unlink()
            out.rmdir()
        if self.tracer is not None and trace_path.exists():
            self.tracer.merge(json.loads(trace_path.read_text("utf-8")),
                              self.tracer.task)
            trace_path.unlink()
        return CliCall(proc.returncode, proc.stdout, proc.stderr, files)

    def check(self, task, call):
        bad = _cli_problems(task, call)
        return (1 if bad else 0), bad

    def summary(self, task, call):
        """Exit code, numbers printed on stdout, last row of each CSV."""
        numbers = [float(x) for x in _NUMBER.findall(call.stdout)]
        last = []
        for name in CSV_HEADERS.get(task.command, {}):
            rows = _csv_rows(call.files.get(name, ""))
            if len(rows) > 1:
                last.append([_cell(v) for v in rows[-1]])
        return [call.returncode, numbers, last]


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def _csv_rows(text):
    return list(csv.reader(text.splitlines()))


def _cli_problems(task, call):
    if call.returncode != task.expected_exit:
        return [f"exit {call.returncode}, expected {task.expected_exit}: "
                f"{call.stderr.strip()[-300:]}"]
    if "Traceback" in call.stderr:
        return ["traceback on stderr"]
    if task.expected_exit != 0:
        lines = call.stderr.strip().splitlines()
        if len(lines) != 1 or not lines[0].startswith("snapgrip: error: "):
            return [f"expected a one-line error, got {call.stderr!r}"]
        return []
    bad = []
    tables = {}
    for name, header in CSV_HEADERS[task.command].items():
        rows = _csv_rows(call.files.get(name, ""))
        if not rows or rows[0] != header:
            bad.append(f"{name}: header {rows[:1]} != {header}")
        tables[name] = rows[1:]
    if MANIFEST not in call.files:
        bad.append("no run manifest")
    if bad:
        return bad
    return _stdout_problems(task, call, tables)


def _stdout_problems(task, call, tables):
    """The value printed on stdout must equal the value in the CSV."""
    out = call.stdout.strip()
    command = task.command

    def single(name, column):
        rows = tables[name]
        return rows[0][column] if len(rows) == 1 else None

    if command in ("snapthrough", "trigger", "gripforce"):
        name = f"{command}.csv"
        value = single(name, -1)
        return [] if value is not None and out == value else [
            f"stdout {out!r} != {name} value {value!r}"]
    if command == "closingtime":
        triggered, time_s = (single("closingtime.csv", 0),
                             single("closingtime.csv", 1))
        expected = time_s if triggered == "true" else "not triggered"
        return [] if out == expected else [
            f"stdout {out!r} != closingtime.csv {expected!r}"]
    if command == "gravitycheck":
        triggered, margin = (single("gravitycheck.csv", 0),
                             single("gravitycheck.csv", 1))
        expected = ("triggered" if triggered == "true"
                    else f"not triggered, margin = {margin} J")
        return [] if out == expected else [
            f"stdout {out!r} != gravitycheck.csv {expected!r}"]
    if command == "equilibria":
        lines = out.splitlines()
        rows = tables["equilibria.csv"]
        if len(lines) != len(rows) or not rows:
            return [f"{len(lines)} stdout lines for {len(rows)} CSV rows"]
        for line, row in zip(lines, rows):
            theta, energy = (float(x) for x in _NUMBER.findall(line)[:2])
            if not (line.split()[0] == row[2]
                    and math.isclose(theta, float(row[0]), rel_tol=1e-11)
                    and math.isclose(energy, float(row[1]), rel_tol=1e-11)):
                return [f"stdout {line!r} != CSV row {row}"]
        return []
    if command == "continuation":
        expected = f"{len(tables['continuation_folds.csv'])} fold(s)"
        ok = out == expected and len(tables["continuation.csv"]) == 50
        return [] if ok else [f"stdout {out!r}, expected {expected!r}"]
    if command == "sweep":
        ok = out == "3 design points" and len(tables["sweep.csv"]) == 3
        return [] if ok else [f"stdout {out!r} for "
                              f"{len(tables['sweep.csv'])} rows"]
    if command == "landscape":
        ok = (out == "" and len(tables["landscape.csv"]) == 1001
              and call.files.get("landscape.svg", "").startswith("<?xml"))
        return [] if ok else ["landscape: stdout, row count or SVG wrong"]
    if command == "simulate":
        ok = out == "" and len(tables["trajectory.csv"]) == 501
        return [] if ok else ["simulate: stdout or row count wrong"]
    return [f"no check for {command}"]


WORKLOADS = {cls.name: cls for cls in (Sweep, Chain, Cli)}


def matches_reference(got, want):
    """Element-wise comparison with the tolerances stated above."""
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(matches_reference(g, w) for g, w in zip(got, want)))
    if isinstance(want, float) and isinstance(got, (int, float)):
        if math.isnan(want) or math.isnan(got):
            return math.isnan(want) and math.isnan(got)
        return math.isclose(got, want, rel_tol=REFERENCE_REL_TOL,
                            abs_tol=REFERENCE_ABS_TOL)
    return got == want

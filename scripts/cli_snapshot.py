"""Run a fixed set of snapgrip CLI commands and keep everything they leave.

Usage, from the root of a checkout:

    python3 scripts/cli_snapshot.py --src PATH --out DIR

``--src`` is the ``src`` directory to import, so the same script can
snapshot two checkouts.  Twenty invocations, which reach all twelve
subcommands and set every option of each (``--config`` and ``--out``
aside), with a continuation under a rising and a falling load, run on
each of four configurations: ``configs/baseline.cfg``, a copy with a Yeoh
finger (c10 = 1e5 Pa), a copy with gravity on (g = 9.81 m/s^2) and a copy
with gravity on in a solve window other than the default (theta from -2.5
to 3.0 rad on 3,001 grid points), 80 commands in all.  Each one runs as
``python -m snapgrip.cli`` in its own directory
``DIR/<config>/<command>/``, which then holds ``exit_code``, ``stdout``,
``stderr`` and, under ``files/``, every output the command wrote except
``run_manifest.txt`` (it carries a timestamp).  Four refusals run the
same way in ``DIR/refusals/<name>/``: a config value that is not a
number, an unknown config key, a sweep with a fractional segment count,
and a sweep of a Yeoh coefficient on the linear baseline finger.  The
script exits 1 if any command exits non-zero or any refusal exits other
than 2.

Outputs are byte-deterministic, so ``diff -r`` of two snapshots shows
every byte that a change moved.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BASELINE_CFG = ROOT / "configs" / "baseline.cfg"

# Configuration name -> keys set on top of the baseline configuration.
CONFIGS = {
    "baseline": {},
    "yeoh": {"material.model": "yeoh", "material.c10": "1e5"},
    "gravity": {"gripper.gravity": "9.81"},
    "window": {"gripper.gravity": "9.81", "solver.theta_min": "-2.5",
               "solver.theta_max": "3.0", "solver.grid_n": "3001"},
}

# Command name -> CLI arguments, without --config and --out.
COMMANDS = {
    "landscape": ["landscape", "--plot"],
    "landscape_201": ["landscape", "--n", "201"],
    "snapthrough": ["snapthrough"],
    "gripforce": ["gripforce"],
    # Between the closed-state and the open-state chord of every config.
    "gripforce_halfwidth": ["gripforce", "--object-halfwidth", "0.074"],
    "closingtime": ["closingtime"],
    "closingtime_hard_kick": ["closingtime", "--impulse", "1e-3"],
    "closingtime_untriggered": ["closingtime", "--impulse", "1e-4"],
    "simulate_open": ["simulate", "--theta0", "-0.85", "--omega0", "60",
                      "--t-end", "0.02", "--plot"],
    "simulate_closed": ["simulate", "--theta0", "1.5", "--dt", "1e-5",
                        "--t-end", "0.01"],
    "feacases": ["feacases", "--plot"],
    "sweep": ["sweep", "--param", "ring.stiffness=0.1:0.14:5",
              "--param", "finger.natural_curvature=18,20,22"],
    "sweep_statics_only": ["sweep", "--param", "ring.stiffness=0.1:0.14:3",
                           "--no-closing-time", "--no-grip-force"],
    "equilibria": ["equilibria"],
    "trigger": ["trigger"],
    "tunering": ["tunering", "--target-barrier", "0.01"],
    "gravitycheck": ["gravitycheck"],
    "gravitycheck_flipped": ["gravitycheck", "--orientation", "-1"],
    "continuation": ["continuation", "--tau-max", "0.03", "--steps", "50"],
    "continuation_falling": ["continuation", "--tau-max", "-0.05",
                             "--steps", "50"],
}

# Refusal name -> (keys set on top of the baseline configuration, CLI
# arguments without --config and --out).  Each must exit 2.
REFUSALS = {
    "non_numeric_value": ({"finger.length": "abc"}, ["equilibria"]),
    "unknown_key": ({"finger.colour": "3"}, ["equilibria"]),
    "fractional_sweep": ({}, ["sweep", "--param",
                              "finger.n_segments=2,3,2.5"]),
    "material_key_of_another_law": ({}, ["sweep", "--param",
                                         "material.c10=1e5"]),
}


def write_config(path: Path, overrides: dict) -> None:
    """The baseline configuration with the keys of ``overrides`` replaced."""
    lines = [line for line in BASELINE_CFG.read_text().splitlines()
             if line.partition("=")[0].strip() not in overrides]
    lines += [f"{key} = {value}" for key, value in overrides.items()]
    path.write_text("\n".join(lines) + "\n")


def run(src: Path, cfg: Path, argv, where: Path) -> int:
    """Run one CLI command in ``where`` and store what it leaves there."""
    where.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    res = subprocess.run(
        [sys.executable, "-m", "snapgrip.cli", *argv, "--config", str(cfg),
         "--out", "files"],
        capture_output=True, cwd=where, env=env)
    (where / "exit_code").write_text(f"{res.returncode}\n")
    (where / "stdout").write_bytes(res.stdout)
    (where / "stderr").write_bytes(res.stderr)
    (where / "files" / "run_manifest.txt").unlink(missing_ok=True)
    return res.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True,
                        help="the src directory of the checkout to run")
    parser.add_argument("--out", required=True,
                        help="new directory for the snapshot")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    out = Path(args.out).resolve()
    out.mkdir(parents=True)

    failed = []
    for config, overrides in CONFIGS.items():
        cfg = out / f"{config}.cfg"
        write_config(cfg, overrides)
        for name, command in COMMANDS.items():
            code = run(src, cfg, command, out / config / name)
            if code != 0:
                failed.append(f"{config}/{name} exited {code}")
    (out / "refusals").mkdir()
    for name, (overrides, command) in REFUSALS.items():
        cfg = out / "refusals" / f"{name}.cfg"
        write_config(cfg, overrides)
        code = run(src, cfg, command, out / "refusals" / name)
        if code != 2:
            failed.append(f"refusals/{name} exited {code}, not 2")
    for line in failed:
        print(line, file=sys.stderr)
    print(f"{len(CONFIGS) * len(COMMANDS)} commands and {len(REFUSALS)} "
          f"refusals, {len(failed)} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry points for batch design studies.

Exit codes: 0 success, 1 usage error, 2 domain error (bad config values,
monostable designs, unreachable targets, ...).  Domain errors print a
message on stderr, never a traceback.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .config import (build_design, build_solver_settings, load_config,
                     serialize_config)
from .errors import BudgetExceededError, DomainError, InvalidArgumentError
from .model import MAX_GRID_POINTS, np, sample_landscape, set_design_value
from .report import (fmt, svg_grouped_bars, svg_line_plot, write_csv,
                     write_key_value, write_manifest)

# Each subcommand imports the solver layers it uses, so a refused config
# loads none, and a call that builds no array (snapthrough, trigger,
# gravitycheck, a linear equilibria or closingtime) does not load numpy.

USAGE_EXIT = 1
DOMAIN_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _build_parser() -> _Parser:
    parser = _Parser(prog="snapgrip",
                     description="Bistable soft-gripper design studies")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def common(p, plot=False):
        p.add_argument("--config", required=True, help="configuration file")
        p.add_argument("--out", default=".", help="output directory")
        if plot:
            p.add_argument("--plot", action="store_true",
                           help="also emit an SVG plot")

    p = sub.add_parser("landscape", help="sample the energy landscape")
    common(p, plot=True)
    p.add_argument("--n", type=int, default=1001)

    for name, text in (("equilibria", "locate and classify equilibria"),
                       ("snapthrough", "snap-through energy barrier"),
                       ("trigger", "minimum quasi-static trigger moment"),
                       ("gravitycheck", "does gravity alone trigger closing"),
                       ("feacases", "four morphology cases and trend checks")):
        p = sub.add_parser(name, help=text)
        common(p, plot=name == "feacases")
        if name == "gravitycheck":
            p.add_argument("--orientation", type=int, default=1,
                           choices=(-1, 1))

    p = sub.add_parser("continuation", help="ramped-load equilibrium path")
    common(p)
    p.add_argument("--tau-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=200)

    p = sub.add_parser("simulate", help="integrate the passive dynamics")
    common(p, plot=True)
    p.add_argument("--theta0", type=float, required=True)
    p.add_argument("--omega0", type=float, default=0.0)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--t-end", type=float, default=None)

    p = sub.add_parser("closingtime", help="triggered closing time")
    common(p)
    p.add_argument("--impulse", type=float, default=None,
                   help="angular impulse in N*m*s (default: "
                        "solver.impulse_factor times the minimal impulse)")

    p = sub.add_parser("sweep", help="batch parameter sweep")
    common(p)
    p.add_argument("--param", action="append", required=True,
                   metavar="PATH=V1,V2,... | PATH=LO:HI:N",
                   help="sweep parameter (repeatable)")
    p.add_argument("--no-closing-time", action="store_true")
    p.add_argument("--no-grip-force", action="store_true")

    p = sub.add_parser("tunering", help="trim ring width to a target barrier")
    common(p)
    p.add_argument("--target-barrier", type=float, required=True)

    p = sub.add_parser("gripforce", help="static grip force on an object")
    common(p)
    p.add_argument("--object-halfwidth", type=float, default=None)

    return parser


def _parse_param(spec: str, budget: int):
    if "=" not in spec:
        raise DomainError(f"bad --param {spec!r}: expected PATH=VALUES")
    path, _, values = spec.partition("=")
    path = path.strip()
    values = values.strip()
    try:
        if ":" in values:
            pieces = values.split(":")
            if len(pieces) != 3:
                raise DomainError(f"bad --param range {values!r}: "
                                  "expected LO:HI:N")
            lo, hi, n = float(pieces[0]), float(pieces[1]), int(pieces[2])
            if n < 1:
                raise DomainError(f"bad --param range {values!r}: "
                                  "N must be at least 1")
            # Refused before np.linspace allocates N values.
            if n > budget:
                raise BudgetExceededError(
                    f"sweep would evaluate at least {n} design points, "
                    f"budget is {budget}")
            # An infinite end, or a range wider than the float range,
            # gives non-finite points; ``SweepSpec`` refuses them by the
            # key's rule, so numpy's warnings would only add lines.
            with np.errstate(over="ignore", invalid="ignore"):
                points = tuple(np.linspace(lo, hi, n))
        else:
            points = tuple(float(v) for v in values.split(","))
    except ValueError as exc:
        raise DomainError(f"bad --param {spec!r}: {exc}") from None
    return path, points


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return _dispatch(args)
    except (DomainError, OSError) as exc:
        print(f"snapgrip: error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT


def _dispatch(args) -> int:
    out = Path(args.out)
    values = load_config(args.config)
    design = build_design(values)
    settings = build_solver_settings(values)
    outputs = []
    failure = None      # raised once the outputs and the manifest are written

    def output(name):
        """Path of output ``name``; ``out`` is created on first use."""
        out.mkdir(parents=True, exist_ok=True)
        outputs.append(name)
        return out / name

    def csv(name, header, rows):
        write_csv(output(name), header, rows)

    def text(name, content):
        with open(output(name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(content)

    if args.command == "landscape":
        if not 2 <= args.n <= MAX_GRID_POINTS:
            raise InvalidArgumentError(f"--n must be in [2, "
                                       f"{MAX_GRID_POINTS}], got {args.n}")
        grid = np.linspace(design.window.theta_min, design.window.theta_max,
                           args.n)
        land = sample_landscape(design, grid)
        csv("landscape.csv", ["theta", "total", "finger", "ring", "gravity"],
            zip(land.theta_grid, land.total, land.finger, land.ring,
                land.gravity))
        if args.plot:
            from .statics import find_equilibria_1dof
            report = find_equilibria_1dof(design)
            markers = [(e.theta, e.energy, e.classification[0].upper())
                       for e in report.equilibria]
            text("landscape.svg", svg_line_plot(
                land.theta_grid,
                {"total": land.total, "finger": land.finger,
                 "ring": land.ring, "gravity": land.gravity},
                "bend angle (rad)", "energy (J)", markers))

    elif args.command == "equilibria":
        from .statics import find_equilibria_1dof
        report = find_equilibria_1dof(design)
        csv("equilibria.csv",
            ["theta", "energy", "classification", "curvature"],
            [(e.theta, e.energy, e.classification, e.curvature)
             for e in report.equilibria])
        for e in report.equilibria:
            print(f"{e.classification:8s} theta = {e.theta:.12g} rad, "
                  f"energy = {e.energy:.12g} J")

    elif args.command == "snapthrough":
        from .statics import require_bistable
        report = require_bistable(design)
        csv("snapthrough.csv",
            ["open_theta", "saddle_theta", "closed_theta", "open_energy",
             "saddle_energy", "closed_energy", "snap_through_energy"],
            [(report.open_state.theta, report.saddle.theta,
              report.closed_state.theta, report.open_state.energy,
              report.saddle.energy, report.closed_state.energy,
              report.snap_through_energy)])
        print(fmt(float(report.snap_through_energy)))

    elif args.command == "trigger":
        from .statics import trigger_moment
        tau = trigger_moment(design)
        csv("trigger.csv", ["trigger_moment"], [(tau,)])
        print(fmt(tau))

    elif args.command == "continuation":
        from .statics import continuation_ramped_load
        path = continuation_ramped_load(design, args.tau_max, args.steps)
        csv("continuation.csv", ["tau", "theta", "energy"],
            zip(path.taus, path.thetas, path.energies))
        csv("continuation_folds.csv", ["tau", "theta"], path.fold_points)
        print(f"{len(path.fold_points)} fold(s)")

    elif args.command == "simulate":
        from .dynamics import simulate_1dof
        dt = args.dt if args.dt is not None else settings.dt
        t_end = args.t_end if args.t_end is not None else settings.t_end
        traj = simulate_1dof(design, args.theta0, args.omega0,
                             dt=dt, t_end=t_end)
        kinetic = traj.kinetic(design)
        potential = traj.total_mechanical_energy - kinetic
        csv("trajectory.csv", ["t", "theta", "omega", "U", "kinetic",
                               "dissipated"],
            zip(traj.times, traj.thetas, traj.velocities, potential,
                kinetic, traj.dissipated))
        if args.plot:
            text("trajectory.svg", svg_line_plot(
                traj.times, {"theta": traj.thetas},
                "time (s)", "bend angle (rad)"))

    elif args.command == "closingtime":
        from .dynamics import closing_time, minimal_trigger_impulse
        from .statics import find_equilibria_1dof
        impulse = args.impulse
        if impulse is not None and not 0.0 < impulse < math.inf:
            raise DomainError(f"--impulse must be a positive finite number, "
                              f"got {impulse!r}")
        report = find_equilibria_1dof(design)
        if impulse is None:
            impulse = (settings.impulse_factor
                       * minimal_trigger_impulse(design, report))
        event = closing_time(design, impulse, report=report)
        csv("closingtime.csv", ["triggered", "closing_time", "peak_velocity"],
            [(event.triggered, event.closing_time, event.peak_velocity)])
        print(fmt(event.closing_time) if event.triggered else "not triggered")

    elif args.command == "gravitycheck":
        from .dynamics import gravity_trigger_check
        triggered, margin = gravity_trigger_check(design, args.orientation)
        csv("gravitycheck.csv", ["triggered", "margin"],
            [(triggered, margin if math.isfinite(margin) else math.nan)])
        print("triggered" if triggered else f"not triggered, "
              f"margin = {fmt(margin)} J")

    elif args.command == "sweep":
        from .explore import SweepRow, SweepSpec, run_sweep
        params = tuple(_parse_param(s, settings.sweep_budget)
                       for s in args.param)
        spec = SweepSpec(parameters=params, budget=settings.sweep_budget,
                         include_closing_time=not args.no_closing_time,
                         include_grip_force=not args.no_grip_force,
                         object_halfwidth=settings.object_halfwidth,
                         impulse_factor=settings.impulse_factor)
        table = run_sweep(design, spec)
        metrics = [f.name for f in fields(SweepRow) if f.name != "values"]
        csv("sweep.csv", list(table.parameter_names) + metrics,
            [tuple(r.values) + tuple(getattr(r, m) for m in metrics)
             for r in table.rows])
        print(f"{len(table.rows)} design points")

    elif args.command == "feacases":
        from .explore import reproduce_fea_cases
        rep = reproduce_fea_cases(design, settings.object_halfwidth,
                                  settings.impulse_factor)
        by_case = {"baseline": rep.baseline, **rep.cases}
        states = ["skip" if a.skipped else "pass" if a.passed else "fail"
                  for a in rep.assertions]
        pairs = [(f"{case}.{metric}", value)
                 for case in ["baseline", *sorted(rep.cases)]
                 for metric, value in sorted(by_case[case].items())]
        pairs += [(f"assert.{a.name}", state)
                  for a, state in zip(rep.assertions, states)]
        write_key_value(output("feacases.txt"), pairs)
        columns = ("open_energy", "saddle_energy", "snap_through",
                   "trigger_moment", "grip_force", "closing_time")
        csv("feacases.csv", ["case", "bistable", *columns],
            [(case, m.get("bistable", False),
              *(m.get(k, math.nan) for k in columns))
             for case, m in by_case.items()])
        if args.plot:
            text("feacases.svg", svg_grouped_bars(
                list(by_case), {k: [m.get(k, math.nan)
                                    for m in by_case.values()]
                                for k in columns[:3]}, "energy (J)"))
        for a, state in zip(rep.assertions, states):
            print(f"{state.upper()} {a.name}: {a.detail}")
        if not rep.all_passed:
            failure = DomainError("one or more trend assertions failed")

    elif args.command == "tunering":
        from .explore import tune_ring_width
        from .statics import snap_through_energy
        width = tune_ring_width(design, args.target_barrier)
        achieved = snap_through_energy(
            set_design_value(design, "ring.width_scale", width))
        csv("tunering.csv", ["width_scale", "achieved_barrier"],
            [(width, achieved)])
        print(fmt(width))

    elif args.command == "gripforce":
        from .explore import grip_force_estimate
        halfwidth = args.object_halfwidth
        if halfwidth is None:
            halfwidth = settings.object_halfwidth
        force = grip_force_estimate(design, halfwidth)
        csv("gripforce.csv", ["object_halfwidth", "grip_force"],
            [(halfwidth, force)])
        print(fmt(force))

    command = "snapgrip " + args.command
    write_manifest(out / "run_manifest.txt", serialize_config(values),
                   __version__, command, outputs)
    if failure is not None:
        raise failure
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Design-space exploration: sweeps, morphology cases, tuning, grip force."""

from __future__ import annotations

import itertools
import math
from typing import Optional

from .errors import (BudgetExceededError, InvalidArgumentError,
                     NotBistableError, ObjectTooLargeError,
                     TargetUnreachableError)
from .dynamics import (BARRIER_TOLERANCE, closing_time,
                       minimal_trigger_impulse, natural_frequency)
from . import model  # functions looked up at each call, as in statics
from .model import (DEFAULT_IMPULSE_FACTOR, DEFAULT_OBJECT_HALFWIDTH,
                    KEY_SPECS, GripperDesign, _record, _Record, np)
from .statics import (EquilibriumReport, _bracketed_root,
                      find_equilibria_1dof, require_bistable, trigger_moment)

# A study (a sweep, the morphology cases, a ring trim) solves many
# designs, so it loads numpy when it starts and scans each on arrays, 10
# to 25 times faster than on floats on the default 4,096-point grid.

# The ring wraps the splayed fingers, so its radius (and with it the
# opposing stiffness it can provide) grows linearly from base to tip.
# Shifting the attachment station therefore rescales the effective ring
# stiffness, and because a lower ring holds the fingers splayed further
# back, the double-well center shifts down with it.  The two slopes below
# encode that geometric coupling for the morphology study.
RING_RADIUS_STIFFNESS_SLOPE = 4.0
RING_SPLAY_WELL_SLOPE = 0.4


def ring_placement_variant(design: GripperDesign,
                           delta_fraction: float) -> GripperDesign:
    """Move the ring along the finger, rescaling stiffness and well center."""
    a_new = design.ring.attach_fraction + delta_fraction
    scale = 1.0 + RING_RADIUS_STIFFNESS_SLOPE * delta_fraction
    if not (0.0 < a_new <= 1.0) or scale <= 0.0:
        raise NotBistableError(
            f"ring placement shift {delta_fraction:+g} leaves the finger")
    d = model.set_design_value(design, "ring.attach_fraction", a_new)
    d = model.set_design_value(d, "ring.stiffness",
                               design.ring.stiffness * scale)
    return model.set_design_value(
        d, "ring.well_center",
        design.ring.well_center - RING_SPLAY_WELL_SLOPE * delta_fraction)


@_record
class SweepSpec(_Record):
    """Cartesian sweep over dotted design-parameter paths."""

    parameters: tuple          # ((path, (values...)), ...)
    budget: int = KEY_SPECS["solver.sweep_budget"].default
    include_closing_time: bool = True
    include_grip_force: bool = True
    object_halfwidth: float = DEFAULT_OBJECT_HALFWIDTH
    impulse_factor: float = DEFAULT_IMPULSE_FACTOR

    def __post_init__(self):
        # A bad value is refused here, before any point is solved.
        for key, value in (("solver.sweep_budget", self.budget),
                           ("solver.object_halfwidth", self.object_halfwidth),
                           ("solver.impulse_factor", self.impulse_factor)):
            model._check_value(key, value)
        if not self.parameters:
            raise InvalidArgumentError("a sweep needs at least one parameter")
        paths = [path for path, _ in self.parameters]
        for path, values in self.parameters:
            if len(values) == 0:
                raise InvalidArgumentError(f"sweep parameter {path!r} has "
                                           "no values")
            if paths.count(path) > 1:
                raise InvalidArgumentError(f"sweep parameter {path!r} is "
                                           "given more than once")
        if self.n_points > self.budget:
            raise BudgetExceededError(
                f"sweep would evaluate {self.n_points} design points, "
                f"budget is {self.budget}")
        for path, values in self.parameters:
            for value in values:
                model._read_design_value(path, value)

    @property
    def n_points(self) -> int:
        return math.prod(len(values) for _, values in self.parameters)


@_record
class SweepRow(_Record):
    """The metrics of one sweep point, NaN where they do not apply."""

    values: tuple
    bistable: bool
    open_energy: float = math.nan
    saddle_energy: float = math.nan
    closed_energy: float = math.nan
    snap_through: float = math.nan
    trigger_moment: float = math.nan
    grip_force: float = math.nan
    closing_time: float = math.nan


@_record
class SweepTable(_Record):
    """A sweep's rows, in the order of its points."""

    parameter_names: tuple
    rows: tuple


def design_metrics(design: GripperDesign,
                   object_halfwidth: float = DEFAULT_OBJECT_HALFWIDTH,
                   impulse_factor: float = DEFAULT_IMPULSE_FACTOR,
                   include_closing_time: bool = True,
                   include_grip_force: bool = True,
                   impulse: Optional[float] = None,
                   report: Optional[EquilibriumReport] = None) -> dict:
    """Scalar design metrics; energies are relative to the closed state.

    ``impulse`` fixes the trigger impulse in absolute terms; when omitted
    the design is kicked with ``impulse_factor`` times its own minimal
    trigger impulse.  Cross-design closing-time comparisons should pass a
    shared absolute impulse so the trigger, not the design, is held fixed.
    The design is solved once (or not at all if ``report`` is given), and
    that report is passed to every metric.
    """
    if report is None:
        report = find_equilibria_1dof(design)
    if not report.bistable:
        return {"bistable": False}
    closed = report.closed_state.energy
    out = {
        "bistable": True,
        "open_energy": report.open_state.energy - closed,
        "saddle_energy": report.saddle.energy - closed,
        "closed_energy": 0.0,
        "snap_through": report.snap_through_energy,
        "trigger_moment": trigger_moment(design, report),
        "natural_frequency_closed": natural_frequency(design,
                                                      report.closed_state),
    }
    if include_grip_force:
        try:
            out["grip_force"] = grip_force_estimate(design, object_halfwidth,
                                                    report)
        except ObjectTooLargeError:
            out["grip_force"] = math.nan
    if include_closing_time:
        if impulse is None:
            impulse = impulse_factor * minimal_trigger_impulse(design, report)
        event = closing_time(design, impulse, report=report)
        out["closing_time"] = event.closing_time
    return out


def run_sweep(base: GripperDesign, spec: SweepSpec) -> SweepTable:
    """Evaluate the Cartesian product of the sweep, in lexicographic order."""
    model._load_numpy()     # a study
    names = tuple(path for path, _ in spec.parameters)
    value_lists = [tuple(float(v) for v in values)
                   for _, values in spec.parameters]
    rows = []
    for combo in itertools.product(*value_lists):
        d = base
        for path, value in zip(names, combo):
            d = model.set_design_value(d, path, value)
        m = design_metrics(d, spec.object_halfwidth, spec.impulse_factor,
                           spec.include_closing_time, spec.include_grip_force)
        m.pop("natural_frequency_closed", None)
        rows.append(SweepRow(values=combo, **m))
    return SweepTable(parameter_names=names, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Morphology cases
# ---------------------------------------------------------------------------

PLACEMENT_DELTA = 0.15
THINNER_WIDTH_FACTOR = 0.5
HIGHER_CURVATURE = 25.0   # 1/m, up from the reference 20 1/m
EQUAL_BARRIER_TOL = 0.05  # relative, "equal barrier" of the combined move
# (case, metric, sign of its change from the baseline) of each trend claim.
TRENDS = (
    ("ring_higher", "open_energy", -1), ("ring_higher", "snap_through", -1),
    ("ring_lower", "open_energy", +1), ("ring_lower", "snap_through", +1),
    ("thinner_ring", "open_energy", -1), ("thinner_ring", "snap_through", -1),
    ("higher_curvature", "open_energy", +1),
    ("higher_curvature", "snap_through", -1))


@_record
class CaseAssertion(_Record):
    """One trend claim of the morphology cases and whether it holds."""

    name: str
    passed: bool
    detail: str
    skipped: bool = False


@_record
class MorphologyCaseReport(_Record):
    """Baseline vs four morphology variants, with trend assertions."""

    baseline: dict
    cases: dict                 # name -> metrics dict (or bistable=False)
    assertions: tuple

    @property
    def all_passed(self) -> bool:
        return all(a.passed for a in self.assertions if not a.skipped)


def _case_designs(base: GripperDesign) -> dict:
    return {
        "ring_higher": ring_placement_variant(base, -PLACEMENT_DELTA),
        "ring_lower": ring_placement_variant(base, +PLACEMENT_DELTA),
        "thinner_ring": model.set_design_value(
            base, "ring.width_scale",
            base.ring.width_scale * THINNER_WIDTH_FACTOR),
        "higher_curvature": model.set_design_value(
            base, "finger.natural_curvature", HIGHER_CURVATURE),
    }


def reproduce_fea_cases(base: GripperDesign,
                        object_halfwidth: float = DEFAULT_OBJECT_HALFWIDTH,
                        impulse_factor: float = DEFAULT_IMPULSE_FACTOR
                        ) -> MorphologyCaseReport:
    """Evaluate the four canonical morphology changes and their trends.

    Variants that come out monostable are reported as such and their trend
    assertions are skipped (never silently passed or failed).  Every design
    is kicked with the same absolute impulse, ``impulse_factor`` times the
    baseline's minimal trigger impulse, so closing times compare the
    mechanisms rather than the kicks.
    """
    model._load_numpy()     # a study
    report = find_equilibria_1dof(base)
    if not report.bistable:
        raise NotBistableError("baseline design is not bistable")
    shared_impulse = impulse_factor * minimal_trigger_impulse(base, report)
    base_m = design_metrics(base, object_halfwidth,
                            impulse=shared_impulse, report=report)
    cases = {}
    for name, d in _case_designs(base).items():
        cases[name] = design_metrics(d, object_halfwidth,
                                     impulse=shared_impulse)

    assertions = []
    for case, metric, sign in TRENDS:
        # ring_higher_open_down, ..., higher_curvature_snap_down
        name = (f"{case}_{metric.partition('_')[0]}_"
                f"{'down' if sign < 0 else 'up'}")
        if not cases[case]["bistable"]:
            assertions.append(CaseAssertion(name, False,
                                            f"{case} is monostable", True))
            continue
        delta = cases[case][metric] - base_m[metric]
        arrow = "decrease" if sign < 0 else "increase"
        assertions.append(CaseAssertion(
            name, delta * sign > 0,
            f"{case}: {metric} {arrow} expected, delta = {delta:.6g}"))

    # Thinner-ring deltas smaller in magnitude than both placement deltas.
    def magnitudes(metric):
        if not all(cases[c]["bistable"]
                   for c in ("thinner_ring", "ring_higher", "ring_lower")):
            return None
        thin = abs(cases["thinner_ring"][metric] - base_m[metric])
        high = abs(cases["ring_higher"][metric] - base_m[metric])
        low = abs(cases["ring_lower"][metric] - base_m[metric])
        return thin, high, low

    for metric in ("open_energy", "snap_through"):
        mags = magnitudes(metric)
        if mags is None:
            assertions.append(CaseAssertion(
                f"thinner_ring_{metric}_smaller_magnitude", False,
                "a required case is monostable", True))
        else:
            thin, high, low = mags
            assertions.append(CaseAssertion(
                f"thinner_ring_{metric}_smaller_magnitude",
                thin < high and thin < low,
                f"|thin|={thin:.6g} vs |higher|={high:.6g}, |lower|={low:.6g}"))

    # Lower ring placement closes fastest among the three placements.
    times = {"base": base_m.get("closing_time", math.nan),
             "ring_higher": cases["ring_higher"].get("closing_time", math.nan),
             "ring_lower": cases["ring_lower"].get("closing_time", math.nan)}
    if all(math.isfinite(t) for t in times.values()):
        ok = (times["ring_lower"] < times["base"]
              and times["ring_lower"] < times["ring_higher"])
        assertions.append(CaseAssertion(
            "ring_lower_closes_fastest", ok,
            "closing times: " + ", ".join(f"{k}={v:.6g}"
                                          for k, v in sorted(times.items()))))
    else:
        assertions.append(CaseAssertion(
            "ring_lower_closes_fastest", False,
            "a placement case failed to close", True))

    # Combined move: curvature up + ring lower can raise grip force while
    # keeping the barrier within 5% of baseline.
    found = equal_barrier_force_gain(base, base_m, object_halfwidth)
    assertions.append(CaseAssertion(
        "force_up_at_equal_barrier", found is not None,
        "no sweep point matched" if found is None else
        f"attach_delta={found[0]:.4g}: grip={found[1]:.6g} "
        f"(baseline {base_m['grip_force']:.6g}), "
        f"barrier={found[2]:.6g} (baseline {base_m['snap_through']:.6g})"))

    return MorphologyCaseReport(baseline=base_m, cases=cases,
                                assertions=tuple(assertions))


def equal_barrier_force_gain(base: GripperDesign, base_metrics: dict,
                             object_halfwidth: float):
    """Search curvature-up + ring-lower moves for a force gain at equal barrier.

    Equal means within EQUAL_BARRIER_TOL of the base barrier, relative.
    Returns (attach_delta, grip_force, snap_through) for the first matching
    point, or None.
    """
    curved = model.set_design_value(base, "finger.natural_curvature",
                                    HIGHER_CURVATURE)
    target = base_metrics["snap_through"]
    for delta in np.linspace(0.0, 0.25, 51):
        max_delta = 1.0 - base.ring.attach_fraction
        if delta > max_delta:
            break
        d = ring_placement_variant(curved, float(delta))
        m = design_metrics(d, object_halfwidth, include_closing_time=False)
        if not m["bistable"]:
            continue
        if (abs(m["snap_through"] - target) < EQUAL_BARRIER_TOL * target
                and m["grip_force"] > base_metrics["grip_force"]):
            return float(delta), m["grip_force"], m["snap_through"]
    return None


# ---------------------------------------------------------------------------
# Ring trimming and grip force
# ---------------------------------------------------------------------------

def tune_ring_width(design: GripperDesign, target_barrier: float) -> float:
    """Trim the ring (bisection on width_scale) to a target barrier.

    The bisection stops within BARRIER_TOLERANCE of the target, or after
    60 steps.  The barrier is verified to be monotone in the width over
    the bracket before bisecting.  Raises TargetUnreachable for a target
    below BARRIER_TOLERANCE, which a monostable width (barrier 0) meets,
    and when even a vanishing ring keeps the barrier above the target.
    Each trial width is solved once.
    """
    model._load_numpy()     # a study
    barriers = {}    # width_scale -> barrier, 0 where monostable

    def barrier(width_scale):
        if width_scale not in barriers:
            report = find_equilibria_1dof(model.set_design_value(
                design, "ring.width_scale", width_scale))
            barriers[width_scale] = (float(report.snap_through_energy)
                                     if report.bistable else 0.0)
        return barriers[width_scale]

    current = barrier(design.ring.width_scale)
    if current <= 0.0:
        raise NotBistableError("design is not bistable at its current width")
    if not (0.0 < target_barrier <= current):
        if target_barrier > current:
            raise TargetUnreachableError(
                f"target barrier {target_barrier:.6g} J exceeds the current "
                f"barrier {current:.6g} J; widening is out of scope")
        raise InvalidArgumentError("target_barrier must be positive")
    if target_barrier < BARRIER_TOLERANCE:
        raise TargetUnreachableError(
            f"target barrier {target_barrier:.6g} J is below the trim "
            f"tolerance {BARRIER_TOLERANCE:g} J, which a monostable ring "
            "meets")
    if target_barrier == current:
        return design.ring.width_scale

    hi = design.ring.width_scale
    lo = hi
    for _ in range(60):
        lo *= 0.5
        if barrier(lo) < target_barrier:
            break
    else:
        raise TargetUnreachableError(
            f"barrier stays above {target_barrier:.6g} J even as the ring "
            "width vanishes")

    samples = [barrier(w) for w in np.linspace(lo, hi, 7)]
    if any(b2 < b1 for b1, b2 in zip(samples, samples[1:])):
        raise TargetUnreachableError(
            "barrier is not monotone in width_scale on the bracket")

    return _bracketed_root(
        lambda w: barrier(w) - target_barrier, lo, hi,
        samples[0] - target_barrier, ftol=BARRIER_TOLERANCE, max_iter=60)


def grip_force_estimate(design: GripperDesign, object_halfwidth: float,
                        report: Optional[EquilibriumReport] = None) -> float:
    """Static pinch force on an object that blocks the closing sweep.

    The finger stays a constant-curvature arc; contact happens at the bend
    angle where the base-to-tip chord equals the object half-width, on the
    closing side of straight.  The blocked finger presses with the
    restoring moment there divided by the chord (the contact moment arm).
    Objects smaller than the free closed-state chord are never squeezed
    and get zero force.  ``report`` is the design's equilibrium report, if
    already solved.
    """
    if not 0.0 < object_halfwidth < math.inf:
        raise InvalidArgumentError(f"object half-width must be a positive "
                                   f"finite number, got {object_halfwidth!r}")
    report = require_bistable(design, report)
    length = design.finger.length
    open_span = model.tip_chord(report.open_state.theta, length)
    if object_halfwidth >= open_span:
        raise ObjectTooLargeError(
            f"object half-width {object_halfwidth:.6g} m is not smaller than "
            f"the open-state span {open_span:.6g} m")
    theta_closed = report.closed_state.theta
    if object_halfwidth <= model.tip_chord(theta_closed, length):
        return 0.0

    def gap(theta):
        return model.tip_chord(theta, length) - object_halfwidth

    # Chord decreases monotonically with bend angle on (0, closed].
    theta_obj = _bracketed_root(gap, 1e-9, theta_closed, gap(1e-9),
                                xtol=1e-12)
    moment = -model.scalar_model(design)[1](theta_obj)
    return max(moment, 0.0) / model.tip_chord(theta_obj, length)

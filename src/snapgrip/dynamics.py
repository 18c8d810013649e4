"""Passive snap-through dynamics of the reduced model.

The equation of motion is J*theta'' = -dU/dtheta - c*theta', with no
actuator or sensor in the loop, integrated with a fixed-step classical
Runge-Kutta scheme so acceptance runs are bit-reproducible.  A recorded
simulation carries an energy audit (mechanical + cumulative dissipation)
along as an extra state.  A closing run starts at the open state of the
design's equilibrium report and reads the saddle and closed state from
it; it tracks no dissipation.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .errors import (InvalidArgumentError, NonFiniteStateError, StepSizeError,
                     TargetUnreachableError)
from . import model  # functions looked up at each call, as in statics
from .model import DEFAULT_IMPULSE_FACTOR, KEY_SPECS, GripperDesign, np
from .statics import (Equilibrium, EquilibriumReport, _bracketed_root,
                      find_equilibria_1dof, require_bistable)

# Closure criterion: within this angle of the closed state, sustained this long.
CLOSURE_BAND = 0.05       # rad
CLOSURE_HOLD = 5e-3       # s
MAX_STEP_FRACTION = 0.05  # dt <= this / natural frequency
CLOSING_STEP_FRACTION = 0.02  # closing-run dt = this / closed-state frequency,
                              # at most 2e-5 s and MAX_STEP_FRACTION /
                              # open-state frequency
CLOSING_T_MAX = 1.0       # s, a closing run gives up after this long
# Safety margin of the energy certificate of a closing run, as a fraction of
# the band's energy depth u_edge - U_closed.  Over the 364 closing runs of
# the certificate tests (undamped to critically damped), the RK4 mechanical
# energy inside the band rose at most 2.7e-14 of that depth above an
# earlier in-band value below u_edge.
CERTIFICATE_MARGIN = 1e-6
# Most steps a recorded simulation or a closing run may take; at five
# float64 columns a recorded step, a trajectory holds at most about 40 MB.
MAX_STEPS = 10 ** 6
# A barrier below this protects nothing: gravity alone triggers such an
# open state.  A ring trim stops this close to its target barrier, so a
# trim to it gives a design that gravity triggers.
BARRIER_TOLERANCE = 1e-9  # J


@dataclass(frozen=True, slots=True)
class Trajectory:
    """Time series from one simulation, with its energy audit."""

    times: np.ndarray
    thetas: np.ndarray
    velocities: np.ndarray
    total_mechanical_energy: np.ndarray
    dissipated: np.ndarray

    def kinetic(self, design: GripperDesign) -> np.ndarray:
        return 0.5 * design.inertia * self.velocities ** 2


@dataclass(frozen=True, slots=True)
class ClosingEvent:
    """Outcome of a triggered closing attempt."""

    triggered: bool
    closing_time: float
    peak_velocity: float


def natural_frequency(design: GripperDesign,
                      equilibrium: Equilibrium) -> float:
    """Small-oscillation angular frequency sqrt(U''/J) at a stable
    equilibrium of the reduced model, from its recorded curvature."""
    if not equilibrium.stable:
        raise InvalidArgumentError("natural frequency is undefined at an "
                                   "unstable equilibrium")
    return math.sqrt(equilibrium.curvature / design.inertia)


def _check_step(design: GripperDesign, theta_init: float, dt: float,
                report: EquilibriumReport) -> None:
    """Refuse a step above MAX_STEP_FRACTION / omega, with omega the
    natural frequency at the stable equilibrium nearest ``theta_init`` or,
    in a window that holds none, sqrt(max |U''| / J) on ``report.grid``.
    A grid on which U'' reads 0 everywhere bounds no step."""
    stables = [e for e in report.equilibria if e.stable]
    if stables:
        nearest = min(stables, key=lambda e: abs(e.theta - theta_init))
        omega = natural_frequency(design, nearest)
        where = "at the nearest equilibrium"
    else:
        grid, g = np.asarray(report.grid), np.asarray(report.gradient)
        stiffest = float(np.abs(np.diff(g) / np.diff(grid)).max())
        omega = math.sqrt(stiffest / design.inertia)
        where = "on the solve window"
    if omega > 0.0 and dt > MAX_STEP_FRACTION / omega:
        raise StepSizeError(
            f"dt = {dt:.3g} s exceeds the stability bound "
            f"{MAX_STEP_FRACTION / omega:.3g} s {where}")


def _require_finite(**values) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise InvalidArgumentError(f"{name} must be finite, got {value!r}")


def simulate_1dof(design: GripperDesign, theta_init: float, omega_init: float,
                  dt: float = KEY_SPECS["solver.dt"].default,
                  t_end: float = KEY_SPECS["solver.t_end"].default
                  ) -> Trajectory:
    """Integrate the passive dynamics and record every step.

    A run of more than MAX_STEPS steps is refused.  The step size is
    checked against the small-oscillation period at the nearest stable
    equilibrium, or at the largest curvature of the solve window grid if
    the window holds no stable equilibrium, before integration starts.
    """
    if not (dt > 0 and t_end > dt):
        raise InvalidArgumentError("need dt > 0 and t_end > dt")
    _require_finite(theta_init=theta_init, omega_init=omega_init, t_end=t_end)
    if t_end / dt > MAX_STEPS:
        raise InvalidArgumentError(
            f"t_end / dt = {t_end / dt:.3g} steps exceeds the limit of "
            f"{MAX_STEPS} steps")
    model._load_numpy()     # the trajectory is arrays, so the scan may be too
    _check_step(design, theta_init, dt, find_equilibria_1dof(design))
    gradient = model.scalar_model(design)[1]
    inv_j = 1.0 / design.inertia
    c = design.damping
    half, sixth = dt / 2, dt / 6
    isfinite = math.isfinite

    n = int(round(t_end / dt))
    theta, omega, diss = float(theta_init), float(omega_init), 0.0
    thetas, omegas, dissipated = (array("d", bytes(8 * (n + 1)))
                                  for _ in range(3))
    for i in range(n + 1):
        thetas[i], omegas[i], dissipated[i] = theta, omega, diss
        if i == n:
            break
        # The four RK4 stages on floats; the dissipated energy integrates
        # c*omega^2 along them.
        k1w = (-gradient(theta) - c * omega) * inv_j
        k2t = omega + half * k1w
        k2w = (-gradient(theta + half * omega) - c * k2t) * inv_j
        k3t = omega + half * k2w
        k3w = (-gradient(theta + half * k2t) - c * k3t) * inv_j
        k4t = omega + dt * k3w
        k4w = (-gradient(theta + dt * k3t) - c * k4t) * inv_j
        theta += sixth * (omega + 2.0 * k2t + 2.0 * k3t + k4t)
        diss += sixth * (c * omega * omega + 2.0 * (c * k2t * k2t)
                         + 2.0 * (c * k3t * k3t) + c * k4t * k4t)
        omega += sixth * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        if not (isfinite(theta) and isfinite(omega) and isfinite(diss)):
            raise NonFiniteStateError(
                f"the state left the finite range by t = {i * dt + dt:.6g} s")
    # The energy column in one array pass, with the bits of the float
    # energy of ``scalar_model`` at each step; a finite angle may still
    # overflow the energy.
    thetas, omegas = np.frombuffer(thetas), np.frombuffer(omegas)
    with np.errstate(over="ignore", invalid="ignore"):
        energy = (model.total_energy_1dof(thetas, design)
                  + 0.5 * design.inertia * omegas * omegas)
    return Trajectory(np.arange(n + 1) * dt, thetas, omegas, energy,
                      np.frombuffer(dissipated))


def closing_time(design: GripperDesign, perturbation_impulse: float,
                 report: Optional[EquilibriumReport] = None) -> ClosingEvent:
    """Kick the open state with an angular impulse and time the closure.

    Closure means staying within CLOSURE_BAND of the closed state for
    CLOSURE_HOLD seconds; the reported time is the moment the band is
    entered.  A run ends without closure once the remaining mechanical
    energy can no longer cross the barrier, or after CLOSING_T_MAX
    seconds.  The design must be bistable: the run starts at the open
    state of its equilibrium report (``report``, solved unless given) and
    reads the saddle and closed state from the same report.  A run that
    would take more than MAX_STEPS steps is refused before it starts, and
    so is a negative ``perturbation_impulse``; a zero one is a run with no
    kick.

    A run inside the band may end before the hold is over, with the
    event the full hold would give.  With damping >= 0 the mechanical
    energy E = U + J*omega^2/2 never rises.  So once E, plus
    CERTIFICATE_MARGIN of the band's depth, is below the energy
    u_edge = min U(theta_closed -+ CLOSURE_BAND) of both band edges, the
    motion cannot reach an edge; once 2(E - U_closed)/J is also below the
    squared peak speed so far, the speed cannot pass that peak.  This
    applies only where the closed state is the report's only equilibrium
    in the band and the band lies inside the design's window, so that
    U_closed is the least energy in the band, and only where the hold
    ends before CLOSING_T_MAX.
    """
    _require_finite(perturbation_impulse=perturbation_impulse)
    if perturbation_impulse < 0.0:
        raise InvalidArgumentError(f"perturbation_impulse must be >= 0, "
                                   f"got {perturbation_impulse!r}")
    report = require_bistable(design, report)
    theta_open = report.open_state.theta
    theta_saddle, u_saddle = report.saddle.theta, report.saddle.energy
    theta_closed = report.closed_state.theta

    dt = min(2e-5, CLOSING_STEP_FRACTION
             / natural_frequency(design, report.closed_state),
             MAX_STEP_FRACTION / natural_frequency(design, report.open_state))
    n = int(round(CLOSING_T_MAX / dt))
    if n > MAX_STEPS:
        raise InvalidArgumentError(
            f"a closing run of {CLOSING_T_MAX:g} s takes {n} steps of "
            f"{dt:.3g} s, over the limit of {MAX_STEPS} steps")
    energy_at, gradient = model.scalar_model(design)
    inv_j = 1.0 / design.inertia
    c = design.damping
    half, sixth = dt / 2, dt / 6
    isfinite = math.isfinite

    band, hold = CLOSURE_BAND, CLOSURE_HOLD
    window = design.window
    u_closed = report.closed_state.energy
    certify = (window.theta_min <= theta_closed - band
               and theta_closed + band <= window.theta_max
               and all(e is report.closed_state
                       or abs(e.theta - theta_closed) > band
                       for e in report.equilibria))
    if certify:
        u_edge = min(energy_at(theta_closed - band),
                     energy_at(theta_closed + band))
        margin = CERTIFICATE_MARGIN * (u_edge - u_closed)
        e_cap = u_edge - margin
        certify = margin > 0.0      # a band too flat to resolve proves nothing
    t_end = n * dt      # the time of the last step, as the loop computes it

    theta = theta_open
    omega = perturbation_impulse / design.inertia
    half_j = 0.5 * design.inertia
    peak = abs(omega)
    entered_at = None
    for i in range(n):
        # The RK4 step of ``simulate_1dof``, less its dissipation sum.
        k1w = (-gradient(theta) - c * omega) * inv_j
        k2t = omega + half * k1w
        k2w = (-gradient(theta + half * omega) - c * k2t) * inv_j
        k3t = omega + half * k2w
        k3w = (-gradient(theta + half * k2t) - c * k3t) * inv_j
        k4t = omega + dt * k3w
        k4w = (-gradient(theta + dt * k3t) - c * k4t) * inv_j
        theta += sixth * (omega + 2.0 * k2t + 2.0 * k3t + k4t)
        omega += sixth * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        if not (isfinite(theta) and isfinite(omega)):
            raise NonFiniteStateError(
                f"the state left the finite range by t = {i * dt + dt:.6g} s")
        speed = abs(omega)
        if speed > peak:
            peak = speed
        if abs(theta - theta_closed) <= band:
            t = (i + 1) * dt
            if entered_at is None:
                entered_at = t
                proving = certify and t_end - entered_at >= hold
            elif t - entered_at >= hold:
                return ClosingEvent(triggered=True, closing_time=entered_at,
                                    peak_velocity=peak)
            if proving:
                mech = energy_at(theta) + half_j * omega * omega
                if (mech < e_cap
                        and mech + margin - u_closed < half_j * peak * peak):
                    return ClosingEvent(triggered=True,
                                        closing_time=entered_at,
                                        peak_velocity=peak)
        else:
            entered_at = None
        if theta < theta_saddle:
            mech = energy_at(theta) + half_j * omega * omega
            if mech < u_saddle:
                break
    return ClosingEvent(triggered=False, closing_time=math.nan,
                        peak_velocity=peak)


def minimal_trigger_impulse(design: GripperDesign,
                            report: Optional[EquilibriumReport] = None
                            ) -> float:
    """Impulse that just supplies the barrier energy from the open state."""
    report = require_bistable(design, report)
    return math.sqrt(2.0 * design.inertia * report.snap_through_energy)


def gravity_trigger_check(design: GripperDesign,
                          orientation_sign: int = 1):
    """Does gravity alone destabilize the open state?

    Re-evaluates the landscape with gravity oriented by
    ``orientation_sign`` and reports (triggered, margin) where the margin
    is the barrier still protecting the open state (zero once triggered).
    """
    g = orientation_sign * abs(design.gravity)
    oriented = replace(design, gravity=g)
    report = find_equilibria_1dof(oriented)
    if not report.bistable:
        open_minima = [e for e in report.equilibria
                       if e.stable and e.theta < design.ring.well_center]
        if open_minima:
            # Open state survives but there is nothing to snap into.
            return False, math.inf
        return True, 0.0
    barrier = float(report.snap_through_energy)
    return barrier < BARRIER_TOLERANCE, barrier


@dataclass(frozen=True, slots=True)
class FrequencyStudyRow:
    stiffness_scale: float
    stiffness: float
    bistable: bool
    natural_frequency_closed: float
    closing_time: float


def closing_time_vs_frequency_study(
        design: GripperDesign, scales: Sequence[float],
        impulse_factor: float = DEFAULT_IMPULSE_FACTOR) -> list:
    """Sweep the ring stiffness and record closed-state frequency vs closure.

    Each design is kicked with ``impulse_factor`` times its own minimal
    trigger impulse.  Non-bistable points are kept in the table but
    flagged, with NaN metrics.
    """
    rows = []
    for s in scales:
        d = model.set_design_value(design, "ring.stiffness",
                                   design.ring.stiffness * float(s))
        report = find_equilibria_1dof(d)
        if not report.bistable:
            rows.append(FrequencyStudyRow(float(s), d.ring.stiffness, False,
                                          math.nan, math.nan))
            continue
        omega = natural_frequency(d, report.closed_state)
        impulse = impulse_factor * minimal_trigger_impulse(d, report)
        event = closing_time(d, impulse, report=report)
        rows.append(FrequencyStudyRow(float(s), d.ring.stiffness, True,
                                      omega, event.closing_time))
    return rows


def frequency_study_spearman(rows) -> float:
    """Spearman correlation between inverse frequency and closing time."""
    ok = [(1.0 / r.natural_frequency_closed, r.closing_time)
          for r in rows if r.bistable and math.isfinite(r.closing_time)]
    if len(ok) < 2:
        return math.nan
    rx, ry = (_average_ranks(col) for col in zip(*ok))
    if np.ptp(rx) == 0.0 or np.ptp(ry) == 0.0:
        return math.nan
    return float(np.corrcoef(rx, ry)[0, 1])


def _average_ranks(values) -> np.ndarray:
    """1-based ranks of ``values``; tied values share their mean rank."""
    _, where, counts = np.unique(values, return_inverse=True,
                                 return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[where]


def calibrate_inertia(design: GripperDesign, target_time: float):
    """Fit the effective inertia so the triggered closing time hits a target.

    For each trial inertia the damping is re-derived as critical at the
    closed state, then the closing time of a kick with 5 times the minimal
    trigger impulse is measured by simulation.  Bisection on log-inertia
    over [1e-8, 1e-2] kg m^2 to within 1e-4 s of the target, in at most 60
    steps; the low end rises where a closing run would take more than
    MAX_STEPS steps.  A target that no inertia in the bracket meets raises
    TargetUnreachableError; no closing run ends after CLOSING_T_MAX, so a
    target 1e-4 s past it or later is refused without a run.  Returns
    (inertia, damping).  The procedure is the documented calibration step:
    the reference experiments report outcomes, not inertia or damping.
    A target that is not a positive finite time raises
    InvalidArgumentError before any solve.
    """
    _require_finite(target_time=target_time)
    if target_time <= 0.0:
        raise InvalidArgumentError(
            f"target_time must be positive, got {target_time!r}")
    report = require_bistable(design)
    curv = report.closed_state.curvature

    def miss(log_j):
        # Inertia and damping leave the equilibria unchanged.
        j = math.exp(log_j)
        c = 2.0 * math.sqrt(curv * j)
        d = replace(design, inertia=j, damping=c)
        impulse = 5.0 * minimal_trigger_impulse(d, report)
        event = closing_time(d, impulse, report=report)
        t = event.closing_time if event.triggered else math.inf
        return t - target_time

    # A lighter finger closes faster, so the miss is negative at the low end.
    # That end is 1e-8 kg m^2, or the lightest finger whose closing run
    # stays within MAX_STEPS steps of each bound on its step.
    t_step = CLOSING_T_MAX / MAX_STEPS
    j_lo = max(1e-8, curv * (t_step / CLOSING_STEP_FRACTION) ** 2,
               report.open_state.curvature * (t_step / MAX_STEP_FRACTION) ** 2)
    j_hi, tol = 1e-2, 1e-4
    reachable = target_time < CLOSING_T_MAX + tol
    if reachable:
        log_j = _bracketed_root(miss, math.log(j_lo), math.log(j_hi), -1.0,
                                ftol=tol, max_iter=60)
        reachable = abs(miss(log_j)) < tol
    if not reachable:
        raise TargetUnreachableError(
            f"no inertia in [{j_lo:.6g}, {j_hi:g}] kg m^2 closes the design "
            f"in {target_time:.6g} s to within {tol:g} s")
    j = math.exp(log_j)
    c = 2.0 * math.sqrt(curv * j)
    return j, c

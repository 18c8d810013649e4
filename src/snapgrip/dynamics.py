"""Passive snap-through dynamics of the reduced model.

The equation of motion is J*theta'' = -dU/dtheta - c*theta' + tau_ext,
integrated with a fixed-step classical Runge-Kutta scheme so acceptance
runs are bit-reproducible.  An energy audit (mechanical + cumulative
dissipation) is carried along as an extra state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (InvalidArgumentError, NonFiniteStateError,
                     NotBistableError, StepSizeError)
from .model import (DEFAULT_IMPULSE_FACTOR, GripperDesign, scalar_energy,
                    scalar_gradient, second_derivative_1dof,
                    set_design_value)
from .statics import (Equilibrium, EquilibriumReport, _bracketed_root,
                      find_equilibria_1dof, require_bistable)

# Closure criterion: within this angle of the closed state, sustained this long.
CLOSURE_BAND = 0.05       # rad
CLOSURE_HOLD = 5e-3       # s
MAX_STEP_FRACTION = 0.05  # dt <= this / natural frequency


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


def natural_frequency(design: GripperDesign, at) -> float:
    """Small-oscillation angular frequency sqrt(U''/J) at a stable point."""
    if isinstance(at, Equilibrium):
        if not at.stable:
            raise ValueError("natural frequency is undefined at an "
                             "unstable equilibrium")
        theta = at.theta
    else:
        theta = float(at)
    curv = float(second_derivative_1dof(theta, design))
    if curv <= 0.0:
        raise ValueError("natural frequency is undefined where the energy "
                         "curvature is not positive")
    return math.sqrt(curv / design.inertia)


def _check_step(design: GripperDesign, theta_init: float, dt: float,
                report: EquilibriumReport) -> None:
    stables = [e for e in report.equilibria if e.stable]
    if not stables:
        return
    nearest = min(stables, key=lambda e: abs(e.theta - theta_init))
    omega = natural_frequency(design, nearest)
    if dt > MAX_STEP_FRACTION / omega:
        raise StepSizeError(
            f"dt = {dt:.3g} s exceeds the stability bound "
            f"{MAX_STEP_FRACTION / omega:.3g} s at the nearest equilibrium")


def _make_rhs(design: GripperDesign,
              external_moment: Optional[Callable]):
    inv_j = 1.0 / design.inertia
    c = design.damping
    gradient = scalar_gradient(design)

    def rhs(t, theta, omega):
        tau = external_moment(t, theta) if external_moment is not None else 0.0
        acc = (-gradient(theta) - c * omega + tau) * inv_j
        return omega, acc, c * omega * omega

    return rhs


def _rk4_step(rhs, t, theta, omega, diss, dt):
    k1t, k1w, k1d = rhs(t, theta, omega)
    k2t, k2w, k2d = rhs(t + dt / 2, theta + dt / 2 * k1t, omega + dt / 2 * k1w)
    k3t, k3w, k3d = rhs(t + dt / 2, theta + dt / 2 * k2t, omega + dt / 2 * k2w)
    k4t, k4w, k4d = rhs(t + dt, theta + dt * k3t, omega + dt * k3w)
    theta += dt / 6 * (k1t + 2 * k2t + 2 * k3t + k4t)
    omega += dt / 6 * (k1w + 2 * k2w + 2 * k3w + k4w)
    diss += dt / 6 * (k1d + 2 * k2d + 2 * k3d + k4d)
    if not (math.isfinite(theta) and math.isfinite(omega)
            and math.isfinite(diss)):
        raise NonFiniteStateError(
            f"the state left the finite range by t = {t + dt:.6g} s")
    return theta, omega, diss


def _require_finite(**values) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise InvalidArgumentError(f"{name} must be finite, got {value!r}")


def simulate_1dof(design: GripperDesign, theta_init: float, omega_init: float,
                  external_moment: Optional[Callable] = None,
                  dt: float = 2e-5, t_end: float = 0.1) -> Trajectory:
    """Integrate the passive dynamics and record every step.

    ``external_moment`` is an optional callable (t, theta) -> N*m.  The
    step size is checked against the small-oscillation period at the
    nearest stable equilibrium before integration starts.
    """
    if not (dt > 0 and t_end > dt):
        raise InvalidArgumentError("need dt > 0 and t_end > dt")
    _require_finite(theta_init=theta_init, omega_init=omega_init, t_end=t_end)
    _check_step(design, theta_init, dt, find_equilibria_1dof(design))
    rhs = _make_rhs(design, external_moment)
    energy_at = scalar_energy(design)

    n = int(round(t_end / dt))
    theta, omega, diss = float(theta_init), float(omega_init), 0.0
    half_j = 0.5 * design.inertia
    rows = []
    for i in range(n + 1):
        rows.append((i * dt, theta, omega,
                     energy_at(theta) + half_j * omega * omega, diss))
        if i < n:
            theta, omega, diss = _rk4_step(rhs, i * dt, theta, omega, diss, dt)
    return Trajectory(*np.array(rows).T.copy())


def closing_time(design: GripperDesign, perturbation_impulse: float,
                 dt: Optional[float] = None, t_max: float = 1.0,
                 theta_init: Optional[float] = None,
                 report: Optional[EquilibriumReport] = None) -> ClosingEvent:
    """Kick the open state with an angular impulse and time the closure.

    Closure means staying within CLOSURE_BAND of the closed state for
    CLOSURE_HOLD seconds; the reported time is the moment the band is
    entered.  Runs stop early once the remaining mechanical energy can no
    longer cross the barrier.  By default the run starts at the open
    equilibrium, which requires a bistable design; pass ``theta_init`` to
    start elsewhere (for example at the pre-trim open angle of a design
    whose open state has been trimmed away), in which case only a closed
    stable state is required.  ``report`` is the design's equilibrium
    report, if already solved.
    """
    _require_finite(perturbation_impulse=perturbation_impulse)
    if theta_init is not None:
        _require_finite(theta_init=theta_init)
    if report is None:
        report = find_equilibria_1dof(design)
    if theta_init is None:
        theta_init = require_bistable(design, report).open_state.theta
    theta_open = float(theta_init)
    closed_minima = [e for e in report.equilibria
                     if e.stable and e.theta > theta_open]
    if not closed_minima:
        raise NotBistableError("no closed stable state to snap into")
    theta_closed = min(closed_minima, key=lambda e: e.energy).theta
    saddles = [e for e in report.equilibria
               if not e.stable and theta_open < e.theta < theta_closed]
    if saddles:
        theta_saddle = saddles[0].theta
        u_saddle = saddles[0].energy
    else:
        theta_saddle = -math.inf
        u_saddle = -math.inf

    omega_closed = natural_frequency(design, theta_closed)
    if dt is None:
        dt = min(2e-5, 0.02 / omega_closed)
    _check_step(design, theta_open, dt, report)
    rhs = _make_rhs(design, None)
    energy_at = scalar_energy(design)

    theta = theta_open
    omega = perturbation_impulse / design.inertia
    diss = 0.0
    half_j = 0.5 * design.inertia
    peak = abs(omega)
    entered_at = None
    t = 0.0
    n = int(round(t_max / dt))
    for i in range(n):
        theta, omega, diss = _rk4_step(rhs, t, theta, omega, diss, dt)
        t = (i + 1) * dt
        peak = max(peak, abs(omega))
        if abs(theta - theta_closed) <= CLOSURE_BAND:
            if entered_at is None:
                entered_at = t
            elif t - entered_at >= CLOSURE_HOLD:
                return ClosingEvent(triggered=True, closing_time=entered_at,
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
    return barrier < 1e-9, barrier


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
        d = set_design_value(design, "ring.stiffness",
                             design.ring.stiffness * float(s))
        report = find_equilibria_1dof(d)
        if not report.bistable:
            rows.append(FrequencyStudyRow(float(s), d.ring.stiffness, False,
                                          math.nan, math.nan))
            continue
        omega = natural_frequency(d, report.closed_state)
        impulse = impulse_factor * minimal_trigger_impulse(d, report)
        event = closing_time(d, impulse, report=report)
        rows.append(FrequencyStudyRow(
            float(s), d.ring.stiffness, True, omega,
            event.closing_time if event.triggered else math.nan))
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


def calibrate_inertia(design: GripperDesign, target_time: float,
                      impulse_factor: float = 5.0,
                      damping_ratio: float = 1.0,
                      max_iter: int = 60):
    """Fit the effective inertia so the triggered closing time hits a target.

    For each trial inertia the damping is re-derived as ``damping_ratio``
    of critical at the closed state, then the closing time is measured by
    simulation.  Bisection on log-inertia; returns (inertia, damping).
    The procedure is the documented calibration step: the reference
    experiments report outcomes, not inertia or damping.
    """
    report = require_bistable(design)
    curv = report.closed_state.curvature

    def miss(log_j):
        # Inertia and damping leave the equilibria unchanged.
        j = math.exp(log_j)
        c = 2.0 * damping_ratio * math.sqrt(curv * j)
        d = replace(design, inertia=j, damping=c)
        impulse = impulse_factor * minimal_trigger_impulse(d, report)
        event = closing_time(d, impulse, report=report)
        t = event.closing_time if event.triggered else math.inf
        return t - target_time

    # A lighter finger closes faster, so the miss is negative at the low end.
    j = math.exp(_bracketed_root(miss, math.log(1e-8), math.log(1e-2), -1.0,
                                 ftol=1e-4, max_iter=max_iter))
    c = 2.0 * damping_ratio * math.sqrt(curv * j)
    return j, c

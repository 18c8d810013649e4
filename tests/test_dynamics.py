"""Passive snap dynamics: integration fidelity, closure timing, calibration."""

import hashlib
import math
import random
import re
import struct
from dataclasses import fields, replace

import numpy as np
import pytest

from snapgrip import dynamics
from snapgrip.errors import (DomainError, InvalidArgumentError,
                             NonFiniteStateError, NotBistableError,
                             StepSizeError, TargetUnreachableError)
from snapgrip.explore import design_metrics
from snapgrip.model import SolveWindow, Yeoh, set_design_value
from snapgrip.statics import find_equilibria_1dof
from snapgrip.dynamics import (CLOSING_STEP_FRACTION, CLOSING_T_MAX,
                               CLOSURE_BAND, MAX_STEP_FRACTION, MAX_STEPS,
                               calibrate_inertia, closing_time,
                               closing_time_vs_frequency_study,
                               FrequencyStudyRow, frequency_study_spearman,
                               gravity_trigger_check, minimal_trigger_impulse,
                               natural_frequency, simulate_1dof)


@pytest.fixture(scope="module")
def report(baseline):
    return find_equilibria_1dof(baseline)


class TestSimulate:

    def test_stable_equilibrium_is_a_fixed_point(self, baseline, report):
        traj = simulate_1dof(baseline, report.closed_state.theta, 0.0,
                             dt=2e-5, t_end=0.01)
        assert np.max(np.abs(traj.thetas - report.closed_state.theta)) < 1e-12
        # The located equilibrium carries a ~1e-10 N*m residual gradient,
        # so the velocity floor is correspondingly above machine epsilon.
        assert np.max(np.abs(traj.velocities)) < 1e-9

    def test_small_oscillation_period_matches_linearization(self, baseline,
                                                            report):
        d = replace(baseline, damping=0.0)
        omega = natural_frequency(d, report.closed_state)
        period = 2.0 * math.pi / omega
        traj = simulate_1dof(d, report.closed_state.theta + 1e-4, 0.0,
                             dt=period / 2000, t_end=5 * period)
        x = traj.thetas - report.closed_state.theta
        crossings = traj.times[1:][(x[:-1] > 0) & (x[1:] <= 0)]
        measured = np.mean(np.diff(crossings))
        assert measured == pytest.approx(period, rel=5e-3)

    def test_undamped_energy_conservation(self, baseline, report):
        d = replace(baseline, damping=0.0)
        traj = simulate_1dof(d, report.open_state.theta, 12.0,
                             dt=2e-6, t_end=0.2)
        e = traj.total_mechanical_energy
        assert len(e) == 100_001
        assert np.max(np.abs(e - e[0])) / abs(e[0]) < 1e-6

    def test_damped_energy_audit_conserved(self, baseline, report):
        traj = simulate_1dof(baseline, report.open_state.theta, 12.0,
                             dt=2e-6, t_end=0.2)
        total = traj.total_mechanical_energy + traj.dissipated
        assert np.max(np.abs(total - total[0])) / abs(total[0]) < 1e-6
        assert np.all(np.diff(traj.dissipated) >= 0.0)

    def test_time_reversal_returns_to_start(self, baseline, report):
        d = replace(baseline, damping=0.0)
        theta0, omega0 = report.open_state.theta, 10.0
        fwd = simulate_1dof(d, theta0, omega0, dt=1e-6, t_end=0.02)
        back = simulate_1dof(d, float(fwd.thetas[-1]),
                             -float(fwd.velocities[-1]),
                             dt=1e-6, t_end=0.02)
        assert float(back.thetas[-1]) == pytest.approx(theta0, abs=1e-6)
        assert float(back.velocities[-1]) == pytest.approx(-omega0, abs=1e-3)

    def test_oversized_step_rejected(self, baseline, report):
        with pytest.raises(StepSizeError):
            simulate_1dof(baseline, report.open_state.theta, 0.0,
                          dt=0.01, t_end=0.1)

    def test_window_without_a_stable_equilibrium_gives_the_same_motion(
            self, baseline):
        # The window holds only the saddle (0.306 rad), so its grid's
        # curvature bounds the step; the window decides nothing else.
        saddle_only = replace(baseline, window=SolveWindow(0.0, 0.6, 601))
        traj = simulate_1dof(saddle_only, 0.3, 0.0, dt=2e-5, t_end=0.01)
        reference = simulate_1dof(baseline, 0.3, 0.0, dt=2e-5, t_end=0.01)
        for field in fields(traj):
            assert np.array_equal(getattr(traj, field.name),
                                  getattr(reference, field.name))

    def test_window_without_a_stable_equilibrium_bounds_the_step(
            self, baseline):
        # The largest |U''| on the saddle-only grid bounds dt at 1.0e-4 s.
        saddle_only = replace(baseline, window=SolveWindow(0.0, 0.6, 601))
        for dt in (1.1e-4, 2e-3):
            with pytest.raises(StepSizeError, match="on the solve window"):
                simulate_1dof(saddle_only, 0.3, 0.0, dt=dt, t_end=0.1)
        simulate_1dof(saddle_only, 0.3, 0.0, dt=9e-5, t_end=1e-3)

    def test_grid_without_curvature_bounds_no_step(self, baseline):
        # At this curvature the finger term swamps the grid gradient, which
        # reads one constant: U'' is 0 on the grid, so no dt is refused and
        # the run stops in the integrator instead.
        flat = set_design_value(baseline, "finger.natural_curvature", 1e300)
        with pytest.raises(NonFiniteStateError, match="t = 2e-05 s"):
            simulate_1dof(flat, -0.85, 60.0, dt=2e-5, t_end=2e-3)

    def test_run_shorter_than_one_step_is_a_domain_error(self, baseline,
                                                          report):
        for error in (DomainError, ValueError):
            with pytest.raises(error, match="t_end"):
                simulate_1dof(baseline, report.open_state.theta, 0.0,
                              dt=2e-5, t_end=1e-6)

    def test_trajectory_columns_have_equal_lengths(self, baseline, report):
        traj = simulate_1dof(baseline, report.open_state.theta, 1.0,
                             dt=2e-5, t_end=0.01)
        n = len(traj.times)
        assert (len(traj.thetas) == len(traj.velocities)
                == len(traj.total_mechanical_energy)
                == len(traj.dissipated) == n)

    def test_run_past_the_step_limit_is_refused(self, baseline, report):
        # One step past the limit; the refusal comes before any step.
        dt = 2e-5
        with pytest.raises(InvalidArgumentError, match="steps"):
            simulate_1dof(baseline, report.open_state.theta, 0.0,
                          dt=dt, t_end=(MAX_STEPS + 1) * dt)

    @pytest.mark.parametrize("theta0, omega0", [
        (math.nan, 0.0), (-0.85, math.nan), (-0.85, math.inf),
        (math.inf, 0.0)])
    def test_non_finite_initial_state_rejected(self, baseline, theta0,
                                               omega0):
        with pytest.raises(InvalidArgumentError, match="finite"):
            simulate_1dof(baseline, theta0, omega0, dt=2e-5, t_end=1e-3)

    @pytest.mark.parametrize("gravity", [0.0, 9.81])
    def test_state_leaving_the_finite_range_is_a_domain_error(
            self, baseline, gravity):
        d = set_design_value(baseline, "gripper.gravity", gravity)
        with pytest.raises(NonFiniteStateError):
            simulate_1dof(d, -0.85, 1e200, dt=2e-5, t_end=1e-3)

    @pytest.mark.parametrize("gravity, end_state", [
        (0.0, (-0.8562737069723413, -0.004807136432454244,
               0.006219437949169467, 0.0004341533063554172)),
        (9.81, (-0.84763399905123, -0.005628286203310725,
                0.007079150409648409, 0.00043229704513453765)),
    ])
    def test_frozen_end_state(self, baseline, gravity, end_state):
        # Recorded when every RK4 stage evaluated the array-form gradient.
        d = set_design_value(baseline, "gripper.gravity", gravity)
        traj = simulate_1dof(d, -0.85, 60.0, t_end=0.02)
        assert (traj.thetas[-1], traj.velocities[-1],
                traj.total_mechanical_energy[-1],
                traj.dissipated[-1]) == end_state

    # The linear cases keep the ids they had before the Yeoh case.
    @pytest.mark.parametrize("gravity, material, digest", [
        pytest.param(g, m, h, id=("yeoh-" if m else "") + f"{g}-{h}")
        for g, m, h in [
            (0.0, None, "21af7c06cb9b0c934a7b85c72031e863"
                        "a5e9e9ccdb6c57354523f1a6c5465a66"),
            (9.81, None, "7c75b6bb689b1e26eed7a64048072e75"
                         "8599e1983969cbf72c5a86877cdb0abc"),
            (9.81, Yeoh(1.0e5), "af3c0466b65bf45f0511b5532e455321"
                                "ddbd15c3765ca485912ca7e97a66b7ba"),
        ]])
    def test_frozen_trajectory_bits(self, baseline, gravity, material,
                                    digest):
        # SHA-256 of all five columns of the 1,001 rows above, for the
        # baseline finger and a Yeoh one.  A reordered RK4 operation can
        # move rows in the middle and leave the end state.
        d = set_design_value(baseline, "gripper.gravity", gravity)
        if material is not None:
            d = replace(d, finger=replace(d.finger, material=material))
        traj = simulate_1dof(d, -0.85, 60.0, t_end=0.02)
        columns = (traj.times, traj.thetas, traj.velocities,
                   traj.total_mechanical_energy, traj.dissipated)
        data = b"".join(c.astype("<f8").tobytes() for c in columns)
        assert hashlib.sha256(data).hexdigest() == digest


class TestClosingTime:

    def test_below_threshold_impulse_does_not_trigger(self, baseline):
        imp = 0.9 * minimal_trigger_impulse(baseline)
        event = closing_time(baseline, imp)
        assert not event.triggered
        assert math.isnan(event.closing_time)

    def test_baseline_closes_near_reference_time(self, baseline, settings):
        imp = settings.impulse_factor * minimal_trigger_impulse(baseline)
        event = closing_time(baseline, imp)
        assert event.triggered
        assert 0.015 <= event.closing_time <= 0.030
        assert event.closing_time == pytest.approx(0.021, abs=0.002)
        assert event.peak_velocity > 0.0

    def test_larger_impulses_never_slow_closure(self, baseline, settings):
        base_imp = settings.impulse_factor * minimal_trigger_impulse(baseline)
        times = []
        for factor in (1.0, 1.2, 1.5, 2.0, 3.0):
            event = closing_time(baseline, factor * base_imp)
            assert event.triggered
            times.append(event.closing_time)
        dt = 2e-5
        for earlier, later in zip(times, times[1:]):
            assert later <= earlier + 2 * dt

    def test_monostable_design_raises(self, baseline):
        d = set_design_value(baseline, "ring.stiffness", 0.0)
        with pytest.raises(NotBistableError):
            closing_time(d, 1e-4)

    @pytest.mark.parametrize("overrides, factor, expected", [
        ({}, 5.0, (0.020880000000000003, 1981.9701274475933)),
        ({"gripper.gravity": 9.81}, 5.0,
         (0.021560000000000003, 1919.522515789995)),
        # A design inside the value bands of the sweep benchmark.
        ({"ring.stiffness": 0.13, "gripper.gravity": 7.0}, 5.0,
         (0.01768, 2038.8404353052842)),
        ({"gripper.payload_mass": 0.005, "gripper.gravity": 9.81}, 5.0,
         (0.023180000000000003, 1802.9585117667277)),
        # Too weak a kick: the run ends without closure.
        ({}, 0.9, (math.nan, 356.75462294056683)),
    ], ids=["0.0-expected0", "9.81-expected1", "sweep_band", "payload",
            "weak_kick"])
    def test_frozen_closing_times(self, baseline, overrides, factor,
                                  expected):
        # The first two rows were recorded when every RK4 stage evaluated
        # the array-form gradient, the others when each stage called the
        # float closure through a separate right-hand-side function.
        d = baseline
        for key, value in overrides.items():
            d = set_design_value(d, key, value)
        event = closing_time(d, factor * minimal_trigger_impulse(d))
        time, peak = expected
        assert event.triggered is not math.isnan(time)
        assert event.peak_velocity == peak
        if event.triggered:
            assert event.closing_time == time
        else:
            assert math.isnan(event.closing_time)

    @pytest.mark.parametrize("run", [
        lambda d: simulate_1dof(d, -0.85, 1e8, dt=2e-5, t_end=1e-3),
        lambda d: closing_time(d, 1e8 * d.inertia),
    ], ids=["simulate_1dof", "closing_time"])
    def test_non_finite_state_names_the_time(self, baseline, run):
        # The third step overflows; the message names the end of that step.
        with pytest.raises(NonFiniteStateError,
                           match=r"by t = 6e-05 s$"):
            run(baseline)

    @pytest.mark.parametrize("impulse", [math.nan, math.inf])
    def test_non_finite_start_rejected(self, baseline, impulse):
        with pytest.raises(InvalidArgumentError, match="finite"):
            closing_time(baseline, impulse)

    def test_step_stays_within_the_open_state_bound(self, baseline):
        # The closed state admits a longer step than the stability bound at
        # the open state, where the run starts; the run takes the shorter.
        d = baseline
        for key, value in (("ring.stiffness", 1.804),
                           ("finger.natural_curvature", 6.071),
                           ("gripper.gravity", -28.473),
                           ("ring.well_halfwidth", 1.22),
                           ("gripper.payload_mass", 0.47),
                           ("material.youngs_modulus", 1912209.146)):
            d = set_design_value(d, key, value)
        r = find_equilibria_1dof(d)
        assert (CLOSING_STEP_FRACTION / natural_frequency(d, r.closed_state)
                > MAX_STEP_FRACTION / natural_frequency(d, r.open_state))
        event = closing_time(d, 5.0 * minimal_trigger_impulse(d, r),
                             report=r)
        assert event.peak_velocity > 0.0

    @pytest.mark.parametrize("run", [
        lambda d, impulse: closing_time(d, impulse),
        lambda d, impulse: design_metrics(d, impulse=impulse),
    ], ids=["closing_time", "design_metrics"])
    def test_negative_impulse_rejected(self, baseline, run):
        impulse = minimal_trigger_impulse(baseline)
        with pytest.raises(InvalidArgumentError, match=r"^perturbation_"
                           r"impulse must be >= 0, got -"):
            run(baseline, -5.0 * impulse)
        # No kick is a valid run: the open state stays put.
        assert not closing_time(baseline, 0.0).triggered

    @pytest.mark.parametrize("inertia, steps", [
        (1e-11, 5523246),
        # Just lighter than the lightest finger the limit admits, 3.0506e-10.
        (3.05e-10, 1000102),
    ])
    def test_run_past_the_step_limit_is_refused(self, baseline, report,
                                                inertia, steps):
        # The refusal comes before any step.
        d = replace(baseline, inertia=inertia)
        with pytest.raises(InvalidArgumentError,
                           match=f" {steps} steps .* limit of {MAX_STEPS} "):
            closing_time(d, 5.0 * minimal_trigger_impulse(d, report),
                         report=report)


def _sweep_band_runs(baseline):
    """(design, report, impulse) for 60 bistable designs drawn inside the
    value bands of the sweep benchmark, each kicked with 4.4, 4.6, 5, 8 and
    20 times its minimal trigger impulse."""
    rng = random.Random("closing-certificate")
    runs = []
    designs = 0
    while designs < 60:
        d = baseline
        for key, lo, hi in (("ring.stiffness", 0.115, 0.135),
                            ("finger.natural_curvature", 17.0, 23.0),
                            ("gripper.gravity", 3.0, 9.81),
                            ("gripper.payload_mass", 0.0, 0.01)):
            d = set_design_value(d, key, rng.uniform(lo, hi))
        r = find_equilibria_1dof(d)
        if not r.bistable:
            continue
        designs += 1
        impulse = minimal_trigger_impulse(d, r)
        runs += [(d, r, f * impulse) for f in (4.4, 4.6, 5.0, 8.0, 20.0)]
    return runs


def _weakly_damped_runs(baseline):
    """(design, report, impulse) for the baseline with its damping scaled
    by 0 to 1, each kicked with 1.05 to 20 times the minimal impulse: the
    swings that end near a band edge."""
    r = find_equilibria_1dof(baseline)
    impulse = minimal_trigger_impulse(baseline, r)
    return [(replace(baseline, damping=scale * baseline.damping), r,
             f * impulse)
            for scale in (0.0, 0.01, 0.03, 0.1, 0.2, 0.4, 0.7, 1.0)
            for f in (1.05, 1.5, 2.0, 3.0, 4.5, 6.0, 10.0, 20.0)]


class TestClosingCertificate:
    """A closing run that ends early on its energy certificate gives the
    event of the full hold."""

    @pytest.mark.parametrize("runs, triggered, digest", [
        (_sweep_band_runs, 253, "2eee8ba7d709bb6d71aef1dd419e41dd"
                                "5bb8052f30bb706050e0718a57bfec8a"),
        (_weakly_damped_runs, 30, "b31bff82451b545c5f9a86ce8d41b404"
                                  "f9866d4c9efc4a8ce7cc51d497b5b8ec"),
    ], ids=["sweep_band", "weakly_damped"])
    def test_events_keep_their_bits(self, baseline, runs, triggered, digest):
        # SHA-256 of (triggered, closing_time, peak_velocity) of every run,
        # recorded when each triggered run stepped through the whole hold.
        events = [closing_time(d, impulse, report=r)
                  for d, r, impulse in runs(baseline)]
        assert sum(e.triggered for e in events) == triggered
        data = b"".join(struct.pack("<?dd", e.triggered, e.closing_time,
                                    e.peak_velocity) for e in events)
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize("t_max, closes", [
        (0.0235, False), (0.02585, False), (0.02595, True)])
    def test_no_early_end_when_the_hold_would_pass_the_limit(
            self, baseline, monkeypatch, t_max, closes):
        # The baseline enters the band at 0.02088 s, so its hold ends with
        # the step at 0.02588 s.
        monkeypatch.setattr(dynamics, "CLOSING_T_MAX", t_max)
        event = closing_time(baseline,
                             5.0 * minimal_trigger_impulse(baseline))
        assert event.triggered is closes
        assert event.peak_velocity == 1981.9701274475933
        if closes:
            assert event.closing_time == 0.020880000000000003

    @pytest.mark.parametrize("gravity, steps, full_hold_steps", [
        (0.0, 1064, 1294), (9.81, 1099, 1328)])
    def test_baseline_run_ends_before_the_hold(self, baseline, monkeypatch,
                                               gravity, steps,
                                               full_hold_steps):
        # The closing run's gradient closure is called 4 times a step.  The
        # equilibria are solved before the count starts.
        d = set_design_value(baseline, "gripper.gravity", gravity)
        report = find_equilibria_1dof(d)
        impulse = 5.0 * minimal_trigger_impulse(d, report)
        made = dynamics.model.scalar_model
        count = 0

        def counting_model(design):
            energy, gradient = made(design)

            def counted(theta):
                nonlocal count
                count += 1
                return gradient(theta)
            return energy, counted

        monkeypatch.setattr(dynamics.model, "scalar_model", counting_model)
        assert closing_time(d, impulse, report).triggered
        assert count % 4 == 0
        assert count // 4 == steps < full_hold_steps


    @pytest.mark.parametrize("edge, side", [("theta_min", -1.0),
                                            ("theta_max", 1.0)])
    def test_no_early_end_when_the_band_leaves_the_window(
            self, baseline, monkeypatch, edge, side):
        # With one band edge beyond the window, the report cannot show that
        # the closed state is the least energy in the band: the run steps
        # through the whole hold, to the event the early end gives.  Both
        # runs read the report of the full window.
        report = find_equilibria_1dof(baseline)
        inside = report.closed_state.theta + side * 0.5 * CLOSURE_BAND
        narrow = replace(baseline,
                         window=replace(baseline.window, **{edge: inside}))
        impulse = 5.0 * minimal_trigger_impulse(baseline, report)
        made = dynamics.model.scalar_model
        calls = []

        def counting_model(design):
            energy, gradient = made(design)

            def counted(theta):
                calls[-1] += 1
                return gradient(theta)
            return energy, counted

        monkeypatch.setattr(dynamics.model, "scalar_model", counting_model)
        events = []
        for d in (baseline, narrow):
            calls.append(0)
            events.append(closing_time(d, impulse, report))
        assert events[0].triggered and events[0] == events[1]
        assert calls == [4 * 1064, 4 * 1294]


class TestNaturalFrequency:

    def test_matches_curvature_formula(self, baseline, report):
        omega = natural_frequency(baseline, report.closed_state)
        expected = math.sqrt(report.closed_state.curvature / baseline.inertia)
        assert omega == expected

    def test_quadrupled_inertia_halves_frequency(self, baseline, report):
        heavy = replace(baseline, inertia=4.0 * baseline.inertia)
        assert natural_frequency(heavy, report.closed_state) \
            == pytest.approx(0.5 * natural_frequency(
                baseline, report.closed_state), rel=1e-12)

    def test_unstable_point_rejected(self, baseline, report):
        # A domain error (exit code 2 in the CLI) that is still a ValueError.
        assert issubclass(InvalidArgumentError, ValueError)
        with pytest.raises(InvalidArgumentError,
                           match="undefined at an unstable equilibrium"):
            natural_frequency(baseline, report.saddle)


class TestMinimalImpulse:

    def test_supplies_exactly_the_barrier_energy(self, baseline, report):
        imp = minimal_trigger_impulse(baseline)
        kinetic = imp ** 2 / (2.0 * baseline.inertia)
        assert kinetic == pytest.approx(report.snap_through_energy,
                                        rel=1e-12)


class TestGravityTrigger:

    def test_no_gravity_reports_full_barrier(self, baseline, report):
        triggered, margin = gravity_trigger_check(baseline, 1)
        assert not triggered
        assert margin == pytest.approx(report.snap_through_energy, rel=1e-9)

    def test_flipped_orientation_increases_margin(self, baseline):
        d = set_design_value(baseline, "gripper.gravity", 9.81)
        _, margin_down = gravity_trigger_check(d, 1)
        triggered_up, margin_up = gravity_trigger_check(d, -1)
        assert not triggered_up
        assert margin_up > margin_down

    def test_heavily_trimmed_ring_triggers(self, baseline):
        d = set_design_value(baseline, "gripper.gravity", 9.81)
        d = set_design_value(d, "ring.width_scale", 0.05)
        triggered, margin = gravity_trigger_check(d, 1)
        assert triggered
        assert margin == pytest.approx(0.0, abs=1e-9)


class TestFrequencyStudy:

    def test_stiffness_scale_doubles_frequency_at_quadruple(self, baseline):
        rows = closing_time_vs_frequency_study(baseline, [1.0, 4.0],
                                               impulse_factor=5.0)
        assert rows[1].natural_frequency_closed == pytest.approx(
            2.0 * rows[0].natural_frequency_closed, rel=0.02)

    def test_eight_point_ladder_spearman_above_095(self, baseline):
        scales = np.linspace(0.6, 1.8, 8)
        rows = closing_time_vs_frequency_study(baseline, scales,
                                               impulse_factor=5.0)
        assert all(r.bistable for r in rows)
        rho = frequency_study_spearman(rows)
        assert rho > 0.95
        assert rho == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def _rows(inverse_frequencies, times, bistable=True):
        return [FrequencyStudyRow(1.0, 1.0, bistable, 1.0 / x, t)
                for x, t in zip(inverse_frequencies, times)]

    def test_spearman_ties_share_their_mean_rank(self):
        # Ranks [1, 2.5, 2.5, 4] against [1, 3, 2, 4]: rho = 3 / sqrt(10).
        rows = self._rows([1.0, 2.0, 2.0, 3.0], [1.0, 3.0, 2.0, 4.0])
        assert frequency_study_spearman(rows) == pytest.approx(
            3.0 / math.sqrt(10.0), rel=1e-12)

    def test_spearman_needs_two_finite_rows(self):
        assert math.isnan(frequency_study_spearman([]))
        one = self._rows([1.0, 2.0], [0.02, math.inf])
        assert math.isnan(frequency_study_spearman(one))
        mono = self._rows([1.0, 2.0], [0.02, 0.03], bistable=False)
        assert math.isnan(frequency_study_spearman(mono))

    def test_spearman_of_constant_column_is_nan(self):
        rows = self._rows([2.0, 2.0, 2.0], [0.02, 0.03, 0.01])
        assert math.isnan(frequency_study_spearman(rows))

    def test_single_point_study(self, baseline):
        rows = closing_time_vs_frequency_study(baseline, [1.0],
                                               impulse_factor=5.0)
        assert len(rows) == 1

    def test_non_bistable_points_flagged_not_fatal(self, baseline):
        rows = closing_time_vs_frequency_study(baseline, [0.0001, 1.0],
                                               impulse_factor=5.0)
        assert not rows[0].bistable
        assert math.isnan(rows[0].closing_time)
        assert rows[1].bistable


class TestCalibration:

    def test_calibrated_inertia_hits_target_time(self, baseline):
        target = 0.021
        j, c = calibrate_inertia(baseline, target)
        # configs/baseline.cfg ships this inertia to two figures.
        assert float(f"{j:.2g}") == baseline.inertia
        d = replace(baseline, inertia=j, damping=c)
        imp = 5.0 * minimal_trigger_impulse(d)
        event = closing_time(d, imp)
        assert event.triggered
        assert event.closing_time == pytest.approx(target, abs=5e-4)

    @staticmethod
    def _lightest_admitted_inertia(report):
        t_step = CLOSING_T_MAX / MAX_STEPS
        return max(1e-8, report.closed_state.curvature
                   * (t_step / CLOSING_STEP_FRACTION) ** 2,
                   report.open_state.curvature
                   * (t_step / MAX_STEP_FRACTION) ** 2)

    def test_target_below_the_lightest_admitted_finger_is_refused(
            self, baseline):
        # At a closed-state curvature of 20 N m/rad, 1e-8 kg m^2 would take
        # 2.2 million closing steps, so the bracket starts above it.  No
        # inertia in the bracket closes the design in 0.1 ms.
        d = set_design_value(baseline, "ring.stiffness", 20.0)
        j_lo = self._lightest_admitted_inertia(find_equilibria_1dof(d))
        assert j_lo > 1e-8
        with pytest.raises(TargetUnreachableError,
                           match=re.escape(f"[{j_lo:.6g}, 0.01] kg m^2")):
            calibrate_inertia(d, 1e-4)

    @pytest.mark.parametrize("target", [1e-3, 5.0])
    def test_target_beyond_either_end_is_refused(self, baseline, target):
        # 1e-8 kg m^2 closes in 4.3 ms, and no run closes after
        # CLOSING_T_MAX.
        with pytest.raises(TargetUnreachableError,
                           match=re.escape("[1e-08, 0.01] kg m^2")):
            calibrate_inertia(baseline, target)

    @pytest.mark.parametrize("target, rule", [
        (math.nan, "must be finite, got nan"),
        (-1.0, "must be positive, got -1.0"),
        (0.0, "must be positive, got 0.0")])
    def test_target_that_is_no_time_is_refused_before_a_solve(
            self, baseline, monkeypatch, target, rule):
        solved = []
        monkeypatch.setattr(dynamics, "require_bistable",
                            lambda *args: solved.append(args))
        with pytest.raises(InvalidArgumentError,
                           match=re.escape(f"target_time {rule}")):
            calibrate_inertia(baseline, target)
        assert solved == []

    def test_open_state_bound_raises_the_low_end(self, baseline):
        # A stiff open state: at the low end of the closed-state bound
        # alone, a closing run would take 1,084,585 steps.  No inertia
        # closes this design with 5 times the minimal kick.
        d = baseline
        for key, value in (("ring.stiffness", 82.6598576460535),
                           ("finger.natural_curvature", 15.544006837427986),
                           ("ring.well_center", -0.0033537109698869028),
                           ("ring.well_halfwidth", 0.4936596043731517),
                           ("material.youngs_modulus", 4824528.838104951),
                           ("gripper.gravity", -142.1974042505723),
                           ("gripper.payload_mass", 1.3731249489693067)):
            d = set_design_value(d, key, value)
        report = find_equilibria_1dof(d)
        j_lo = self._lightest_admitted_inertia(report)
        assert j_lo > 1e-8 and j_lo > report.closed_state.curvature * (
            CLOSING_T_MAX / (CLOSING_STEP_FRACTION * MAX_STEPS)) ** 2
        with pytest.raises(TargetUnreachableError,
                           match=re.escape(f"[{j_lo:.6g}, 0.01] kg m^2")):
            calibrate_inertia(d, 0.021)

    def test_shipped_calibration_is_a_fixed_point(self, baseline):
        # The config ships critical damping at the closed state.
        report = find_equilibria_1dof(baseline)
        c_crit = 2.0 * math.sqrt(report.closed_state.curvature
                                 * baseline.inertia)
        assert baseline.damping == pytest.approx(c_crit, rel=1e-9)

"""Design exploration: sweeps, morphology trends, tuning, grip force."""

import hashlib
import math
import struct

import numpy as np
import pytest

from snapgrip.errors import (BudgetExceededError, DomainError,
                             InvalidArgumentError, InvalidDesignError,
                             NotBistableError, ObjectTooLargeError,
                             TargetUnreachableError)
from snapgrip import dynamics, explore, statics
from snapgrip.model import (DEFAULT_OBJECT_HALFWIDTH, SMALL_ANGLE,
                            set_design_value, tip_chord)
from snapgrip.statics import find_equilibria_1dof, snap_through_energy
from snapgrip.dynamics import (closing_time, gravity_trigger_check,
                               minimal_trigger_impulse)
from snapgrip.explore import (SweepSpec, design_metrics, grip_force_estimate,
                              reproduce_fea_cases, ring_placement_variant,
                              run_sweep, tune_ring_width)


class TestSweep:

    def test_single_point_matches_direct_metrics(self, baseline, settings):
        spec = SweepSpec(parameters=(("ring.stiffness", (0.12,)),),
                         impulse_factor=settings.impulse_factor)
        table = run_sweep(baseline, spec)
        assert len(table.rows) == 1
        row = table.rows[0]
        direct = design_metrics(baseline,
                                impulse_factor=settings.impulse_factor)
        assert row.bistable
        assert row.snap_through == pytest.approx(direct["snap_through"],
                                                 abs=1e-15)
        assert row.closing_time == pytest.approx(direct["closing_time"],
                                                 abs=1e-12)

    def test_barrier_monotone_in_stiffness(self, baseline):
        spec = SweepSpec(parameters=(("ring.stiffness", (0.08, 0.16)),),
                         include_closing_time=False,
                         include_grip_force=False)
        table = run_sweep(baseline, spec)
        assert table.rows[0].snap_through < table.rows[1].snap_through

    def test_zero_stiffness_row_flagged_monostable(self, baseline):
        spec = SweepSpec(parameters=(("ring.stiffness", (0.0, 0.12)),),
                         include_closing_time=False,
                         include_grip_force=False)
        table = run_sweep(baseline, spec)
        assert not table.rows[0].bistable
        assert math.isnan(table.rows[0].snap_through)
        assert table.rows[1].bistable

    def test_rows_in_lexicographic_order(self, baseline):
        spec = SweepSpec(parameters=(("ring.stiffness", (0.1, 0.14)),
                                     ("ring.well_halfwidth", (1.2, 1.3))),
                         include_closing_time=False,
                         include_grip_force=False)
        table = run_sweep(baseline, spec)
        assert [r.values for r in table.rows] == [
            (0.1, 1.2), (0.1, 1.3), (0.14, 1.2), (0.14, 1.3)]

    def test_budget_enforced_before_evaluation(self):
        with pytest.raises(BudgetExceededError):
            SweepSpec(parameters=(("ring.stiffness", tuple(range(100))),
                                  ("ring.well_center", tuple(range(100)))),
                      budget=100)

    @pytest.mark.parametrize("parameters", [
        (),
        (("ring.stiffness", ()),),
        (("gripper.gravity", (1.0, 2.0)), ("gripper.gravity", (3.0,))),
    ], ids=["no_parameter", "no_values", "repeated_path"])
    def test_malformed_sweep_is_rejected(self, parameters):
        with pytest.raises(InvalidArgumentError):
            SweepSpec(parameters=parameters)
        with pytest.raises(ValueError):
            SweepSpec(parameters=parameters)

    @pytest.mark.parametrize("setting, value, text", [
        ("object_halfwidth", -1.0,
         "solver.object_halfwidth must be finite and > 0, got -1.0"),
        ("object_halfwidth", math.inf,
         "solver.object_halfwidth must be finite, got inf"),
        ("impulse_factor", -1.0,
         "solver.impulse_factor must be finite and > 0, got -1.0"),
        ("impulse_factor", math.nan,
         "solver.impulse_factor must be finite, got nan"),
        ("budget", 0, "solver.sweep_budget must be finite and > 0, got 0"),
    ])
    def test_bad_setting_is_refused_before_any_point_is_solved(
            self, baseline, solves, setting, value, text):
        with pytest.raises(InvalidDesignError) as info:
            SweepSpec(parameters=(("ring.stiffness", (0.12, 0.0, 0.13)),),
                      **{setting: value})
        assert str(info.value) == text
        assert solves == []

    def test_barrier_identity_on_bistable_rows(self, baseline):
        spec = SweepSpec(parameters=(("ring.stiffness", (0.1, 0.12, 0.14)),),
                         include_closing_time=False,
                         include_grip_force=False)
        for row in run_sweep(baseline, spec).rows:
            assert row.snap_through == pytest.approx(
                row.saddle_energy - row.open_energy, abs=1e-12)


@pytest.fixture
def solves(monkeypatch):
    """Count every equilibrium solve, whichever module makes it."""
    calls = []
    solve = statics.find_equilibria_1dof

    def counted(*args, **kwargs):
        calls.append(args[0])
        return solve(*args, **kwargs)

    for module in (statics, dynamics, explore):
        monkeypatch.setattr(module, "find_equilibria_1dof", counted)
    return calls


class TestOneSolvePerDesign:

    def test_design_metrics_solves_a_bistable_design_once(self, baseline,
                                                          settings, solves):
        m = design_metrics(baseline, settings.object_halfwidth,
                           settings.impulse_factor)
        assert m["bistable"]
        assert math.isfinite(m["closing_time"])
        assert math.isfinite(m["grip_force"])
        assert len(solves) == 1

    def test_given_report_skips_the_solve(self, baseline, solves):
        report = find_equilibria_1dof(baseline)
        design_metrics(baseline, report=report)
        assert solves == []

    def test_sweep_solves_each_point_once(self, baseline, solves):
        spec = SweepSpec(parameters=(("ring.stiffness", (0.0, 0.12)),))
        run_sweep(baseline, spec)
        assert len(solves) == 2

    @pytest.mark.parametrize("gravity", [0.0, 9.81])
    def test_passing_the_report_changes_no_result(self, baseline, settings,
                                                  gravity):
        d = set_design_value(baseline, "gripper.gravity", gravity)
        report = find_equilibria_1dof(d)
        hw = settings.object_halfwidth
        assert design_metrics(d, hw, 5.0, report=report) == \
            design_metrics(d, hw, 5.0)
        assert grip_force_estimate(d, hw, report) == \
            grip_force_estimate(d, hw)
        impulse = 5.0 * minimal_trigger_impulse(d)
        assert minimal_trigger_impulse(d, report) == \
            minimal_trigger_impulse(d)
        assert closing_time(d, impulse, report=report) == \
            closing_time(d, impulse)


@pytest.fixture(scope="module")
def case_report(baseline, settings):
    return reproduce_fea_cases(baseline, settings.object_halfwidth,
                               settings.impulse_factor)


class TestMorphologyCases:

    def test_all_trend_assertions_pass(self, case_report):
        failed = [a for a in case_report.assertions
                  if not a.skipped and not a.passed]
        assert failed == [], [f"{a.name}: {a.detail}" for a in failed]
        assert case_report.all_passed

    def test_no_assertion_skipped_on_baseline(self, case_report):
        assert all(not a.skipped for a in case_report.assertions)

    def test_all_variants_bistable(self, case_report):
        assert all(m["bistable"] for m in case_report.cases.values())

    def test_zero_delta_reproduces_baseline(self, baseline):
        unchanged = ring_placement_variant(baseline, 0.0)
        assert unchanged.ring == baseline.ring

    def test_placement_shift_off_the_finger_rejected(self, baseline):
        with pytest.raises(NotBistableError):
            ring_placement_variant(baseline, 0.6)

    def test_monostable_baseline_rejected(self, baseline):
        d = set_design_value(baseline, "ring.stiffness", 0.0)
        with pytest.raises(NotBistableError):
            reproduce_fea_cases(d)

    def test_default_kick_leaves_the_closing_order_unchecked(self, baseline):
        # 1.5 times the minimal impulse closes none of the placements.
        rep = reproduce_fea_cases(baseline)
        skipped = {a.name: a.detail for a in rep.assertions if a.skipped}
        assert skipped == {"ring_lower_closes_fastest":
                           "a placement case failed to close"}

    def test_monostable_variants_skip_their_trends(self, baseline):
        # A high, trimmed ring: three variants lose a well, and the
        # equal-barrier search stops where the ring would leave the finger.
        d = set_design_value(baseline, "ring.attach_fraction", 0.8)
        d = set_design_value(d, "ring.width_scale", 0.15)
        rep = reproduce_fea_cases(d, impulse_factor=5.0)
        monostable = sorted(k for k, m in rep.cases.items()
                            if not m["bistable"])
        assert monostable == ["higher_curvature", "ring_higher",
                              "thinner_ring"]
        states = {a.name: (a.skipped, a.passed, a.detail)
                  for a in rep.assertions}
        for name in ("ring_higher_open_down", "ring_higher_snap_down",
                     "thinner_ring_open_down", "thinner_ring_snap_down",
                     "higher_curvature_open_up", "higher_curvature_snap_down"):
            case = name.rsplit("_", 2)[0]
            assert states[name] == (True, False, f"{case} is monostable")
        for metric in ("open_energy", "snap_through"):
            assert states[f"thinner_ring_{metric}_smaller_magnitude"] == (
                True, False, "a required case is monostable")
        assert states["ring_lower_closes_fastest"] == (
            True, False, "a placement case failed to close")
        assert states["force_up_at_equal_barrier"] == (
            False, False, "no sweep point matched")
        assert not rep.all_passed
        assert explore.equal_barrier_force_gain(
            d, rep.baseline, DEFAULT_OBJECT_HALFWIDTH) is None


class TestTuneRingWidth:

    def test_target_equal_to_current_returns_current_width(self, baseline):
        current = snap_through_energy(baseline)
        assert tune_ring_width(baseline, current) == \
            baseline.ring.width_scale

    def test_half_barrier_target_met_within_tolerance(self, baseline):
        target = 0.5 * snap_through_energy(baseline)
        width = tune_ring_width(baseline, target)
        d = set_design_value(baseline, "ring.width_scale", width)
        assert snap_through_energy(d) == pytest.approx(target, abs=1e-9)

    def test_non_positive_target_is_a_domain_error(self, baseline):
        with pytest.raises(DomainError, match="positive"):
            tune_ring_width(baseline, -1.0)
        with pytest.raises(ValueError):
            tune_ring_width(baseline, 0.0)

    @pytest.mark.parametrize("target", [1e-300, 1e-12, 5e-10])
    def test_target_below_the_tolerance_unreachable(self, baseline, target):
        # A monostable width, barrier 0, is within 1e-9 J of each target.
        with pytest.raises(TargetUnreachableError, match="tolerance"):
            tune_ring_width(baseline, target)

    def test_target_above_current_barrier_unreachable(self, baseline):
        current = snap_through_energy(baseline)
        with pytest.raises(TargetUnreachableError):
            tune_ring_width(baseline, 2.0 * current)

    def test_barrier_shrinks_monotonically_toward_critical_trim(self,
                                                                baseline):
        widths = np.linspace(0.2, 1.0, 9)
        barriers = []
        for w in widths:
            d = set_design_value(baseline, "ring.width_scale", float(w))
            report = find_equilibria_1dof(d)
            barriers.append(report.snap_through_energy
                            if report.bistable else 0.0)
        assert all(b2 >= b1 for b1, b2 in zip(barriers, barriers[1:]))

    @staticmethod
    def _gravity_well_design(baseline, stiffness):
        # A heavy payload gives two wells of its own on [-6, pi]
        # (-5.30 and 2.29 rad, saddle -2.74 rad); this soft ring sits at
        # the saddle and the closed state, so it lowers the barrier.
        d = baseline
        for key, value in (("gripper.gravity", 9.81),
                           ("gripper.payload_mass", 0.1),
                           ("solver.theta_min", -6.0),
                           ("ring.well_center", -0.25),
                           ("ring.well_halfwidth", 2.5),
                           ("ring.stiffness", stiffness)):
            d = set_design_value(d, key, value)
        return d

    def test_barrier_above_the_target_as_the_ring_vanishes(self, baseline):
        d = self._gravity_well_design(baseline, 0.001)
        assert 0.01 < snap_through_energy(d) < snap_through_energy(
            set_design_value(d, "ring.width_scale", 2.0 ** -60))
        with pytest.raises(TargetUnreachableError, match="width vanishes"):
            tune_ring_width(d, 0.01)

    def test_barrier_not_monotone_in_width_is_refused(self, baseline):
        # The barrier dips from 6.5e-4 J at full width to 5e-5 J at half
        # width and rises again to 1.7e-3 J at a quarter.
        d = self._gravity_well_design(baseline, 0.03)
        with pytest.raises(TargetUnreachableError, match="not monotone"):
            tune_ring_width(d, 5e-4)

    def test_each_trial_width_is_solved_once(self, baseline, solves):
        d = set_design_value(baseline, "gripper.gravity", 9.81)
        # Frozen from the version that solved 3 of its 27 widths twice.
        assert tune_ring_width(d, 1e-9) == 0.17150306701660156
        assert len(solves) == 24

    def test_gravity_marginal_width_flips_trigger_check(self, baseline):
        d = set_design_value(baseline, "gripper.gravity", 9.81)
        width = tune_ring_width(d, 1e-9)
        just_below = set_design_value(d, "ring.width_scale", width * 0.999)
        just_above = set_design_value(d, "ring.width_scale",
                                      min(width * 1.001, 1.0))
        assert gravity_trigger_check(just_below, 1)[0]
        assert not gravity_trigger_check(just_above, 1)[0]


class TestGripForce:

    def test_object_at_free_closed_span_feels_no_force(self, baseline):
        report = find_equilibria_1dof(baseline)
        span = float(tip_chord(report.closed_state.theta,
                               baseline.finger.length))
        assert grip_force_estimate(baseline, span) == 0.0

    def test_object_wider_than_open_span_rejected(self, baseline):
        with pytest.raises(ObjectTooLargeError):
            grip_force_estimate(baseline, 2.0 * baseline.finger.length)

    def test_squeezed_object_feels_positive_force(self, baseline, settings):
        force = grip_force_estimate(baseline, settings.object_halfwidth)
        assert force > 0.0

    def test_higher_curvature_grips_harder(self, baseline, settings):
        base_force = grip_force_estimate(baseline, settings.object_halfwidth)
        stronger = set_design_value(baseline, "finger.natural_curvature",
                                    25.0)
        assert grip_force_estimate(stronger, settings.object_halfwidth) \
            > base_force

    def test_ring_lower_grips_harder(self, baseline, settings):
        base_force = grip_force_estimate(baseline, settings.object_halfwidth)
        lower = ring_placement_variant(baseline, 0.15)
        assert grip_force_estimate(lower, settings.object_halfwidth) \
            > base_force

    def test_monostable_design_rejected(self, baseline):
        d = set_design_value(baseline, "ring.stiffness", 0.0)
        with pytest.raises(NotBistableError):
            grip_force_estimate(d, 0.05)

    def test_object_wider_than_open_span_reads_nan_in_metrics(self,
                                                              baseline):
        metrics = design_metrics(baseline, 2.0 * baseline.finger.length,
                                 include_closing_time=False)
        assert metrics["bistable"] and math.isnan(metrics["grip_force"])

    @pytest.mark.parametrize("halfwidth", [math.nan, math.inf, -1.0, 0.0])
    def test_non_positive_or_non_finite_halfwidth_rejected(self, baseline,
                                                           halfwidth):
        with pytest.raises(InvalidArgumentError, match="half-width"):
            grip_force_estimate(baseline, halfwidth)


class TestGripForceBits:

    # sha256 of ``grip_force_estimate`` over the designs and half-widths
    # below, each value packed "<d" or, where one is raised, the error's
    # type name; recorded when the chord was a numpy function and the
    # contact moment came from ``gradient_1dof`` on a 0-d array.
    GRIP_DIGEST = ("48a37a52b1ddae33ac0db4bd6f6cffc9"
                   "258e2faa0b5d0b512ff96e2baec4010f")

    def test_grip_forces_match_frozen_digest(self, baseline):
        digest, errors = hashlib.sha256(), 0
        for g in (0.0, 4.0, 9.81):
            for k in np.linspace(0.115, 0.135, 5):
                for kappa in (18.0, 20.0, 22.0):
                    d = set_design_value(baseline, "gripper.gravity", g)
                    d = set_design_value(d, "ring.stiffness", float(k))
                    d = set_design_value(d, "finger.natural_curvature",
                                         kappa)
                    for w in np.geomspace(1e-6, 0.5, 11):
                        try:
                            force = grip_force_estimate(d, float(w))
                        except DomainError as exc:
                            digest.update(type(exc).__name__.encode())
                            errors += 1
                            continue
                        digest.update(struct.pack("<d", force))
        assert errors == 90
        assert digest.hexdigest() == self.GRIP_DIGEST

    def test_tip_chord_is_the_array_expression(self):
        length = 0.08
        below = math.nextafter(SMALL_ANGLE, 0.0)
        thetas = [0.0, -0.0, 1e-300, below, SMALL_ANGLE, 1.5e-4, 0.3,
                  1.6, math.pi, -0.9, -SMALL_ANGLE, -below, 7.0]
        for theta in thetas:
            th = np.asarray(theta, dtype=float)
            small = np.abs(th) < SMALL_ANGLE
            safe = np.where(small, 1.0, th)
            exact = 2.0 * length * np.sin(safe / 2.0) / safe
            series = length * (1.0 - th * th / 24.0)
            expected = np.where(small, series, exact)[()]
            chord = tip_chord(theta, length)
            assert type(chord) is float
            assert chord.hex() == float(expected).hex(), theta


class TestSolveWindow:
    """Every study solves its designs on the window the design carries."""

    @pytest.fixture
    def narrow(self, baseline):
        # The closed state (1.6 rad) lies outside [-pi, 1]: only the open
        # state and the saddle are in the window.
        return set_design_value(baseline, "solver.theta_max", 1.0)

    def test_studies_see_no_closed_state(self, narrow):
        assert design_metrics(narrow) == {"bistable": False}
        row, = run_sweep(narrow, SweepSpec(
            parameters=(("ring.stiffness", (0.12,)),))).rows
        assert not row.bistable
        assert gravity_trigger_check(
            set_design_value(narrow, "gripper.gravity", 9.81)) \
            == (False, math.inf)
        for study in (lambda: tune_ring_width(narrow, 0.005),
                      lambda: reproduce_fea_cases(narrow),
                      lambda: grip_force_estimate(narrow, 0.05),
                      lambda: closing_time(narrow, 1e-4)):
            with pytest.raises(NotBistableError):
                study()

    def test_a_window_holding_all_three_states_changes_nothing(self,
                                                               baseline):
        # Another grid moves the roots only within the bisection tolerance.
        wide = set_design_value(baseline, "solver.theta_max", 2.0)
        assert design_metrics(wide, impulse_factor=5.0) == pytest.approx(
            design_metrics(baseline, impulse_factor=5.0), rel=1e-9)

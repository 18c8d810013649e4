"""Equilibrium, barrier, trigger, continuation and chain statics tests."""

import hashlib
import math
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

import snapgrip.statics as statics
from snapgrip import model
from snapgrip.dynamics import simulate_1dof
from snapgrip.errors import (DomainError, InvalidArgumentError,
                             NonConvergenceError, NonFiniteStateError,
                             NotBistableError, SaddleOrderError,
                             StepSizeError)
from snapgrip.model import (DIFFERENCE_STEP, MAX_GRID_POINTS,
                            ChainConfiguration, LinearElastic,
                            SolveWindow, Yeoh,
                            set_design_value, total_energy_1dof,
                            gradient_1dof, chain_energy, chain_gradient,
                            chain_gradient_hessian, scalar_model,
                            uniform_chain, window_gradient)
from snapgrip.statics import (_bracketed_root, continuation_ramped_load,
                              default_chain_seeds, find_equilibria_1dof,
                              find_equilibria_chain, require_bistable,
                              saddle_search_chain, snap_through_energy,
                              trigger_moment)

# Grid-scan oracle values for the shipped baseline, frozen from an
# independent 10^6-point scan of the energy landscape.
BASELINE_OPEN_THETA = -0.8562836011793207
BASELINE_SADDLE_THETA = 0.30628360117897013
BASELINE_CLOSED_THETA = 1.600000000000079
BASELINE_BARRIER = 0.018855386813254223

# Trigger moments frozen from scipy's bounded Brent search, before the
# golden-section search replaced it: the baseline, the baseline under
# gravity 9.81, and the first 25 bistable designs drawn as in acceptance 03.
BASELINE_TRIGGER_MOMENT = 0.02488724655707841
GRAVITY_TRIGGER_MOMENT = 0.023861055909908314
RANDOM_TRIGGER_MOMENTS = (
    0.008127934711380892,
    0.07312603723107128,
    0.059459185010302056,
    0.03722030682674211,
    0.05252666830002204,
    0.028623409194666605,
    0.05322602518742213,
    0.04148837266732759,
    0.013598633469359528,
    0.010592917023555182,
    0.05966069710608301,
    0.022568513684376026,
    0.05909073915844124,
    0.05580494112245336,
    0.06645418119625968,
    0.048938443118685074,
    0.04866956297513021,
    0.018927757868695147,
    0.006886673509328343,
    0.02046594530593701,
    0.02168278137333589,
    0.03677652237982066,
    0.06870569452393036,
    0.02401361356069224,
    0.07292850507533086,
)


def grid_oracle(design, n=1_000_001, window=(-math.pi, math.pi)):
    """Independent oracle: locate interior extrema by dense grid scan."""
    th = np.linspace(window[0], window[1], n)
    u = np.asarray(total_energy_1dof(th, design), dtype=float)
    du = np.diff(u)
    sign = np.sign(du)
    idx = np.where(np.diff(sign) != 0)[0] + 1
    return th[idx], u[idx]


class TestFindEquilibria1Dof:

    def test_baseline_is_bistable_with_three_equilibria(self, baseline):
        report = find_equilibria_1dof(baseline)
        assert report.bistable
        assert len(report.equilibria) == 3
        assert [e.stable for e in report.equilibria] == [True, False, True]

    def test_baseline_matches_frozen_oracle_values(self, baseline):
        report = find_equilibria_1dof(baseline)
        assert report.open_state.theta == pytest.approx(
            BASELINE_OPEN_THETA, abs=1e-9)
        assert report.saddle.theta == pytest.approx(
            BASELINE_SADDLE_THETA, abs=1e-9)
        assert report.closed_state.theta == pytest.approx(
            BASELINE_CLOSED_THETA, abs=1e-9)
        assert report.snap_through_energy == pytest.approx(
            BASELINE_BARRIER, abs=1e-12)

    def test_matches_grid_oracle_on_randomized_designs(self, baseline):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 5:
            d = set_design_value(baseline, "ring.stiffness",
                                 float(rng.uniform(0.05, 0.3)))
            d = set_design_value(d, "ring.well_center",
                                 float(rng.uniform(0.1, 0.6)))
            report = find_equilibria_1dof(d)
            if not report.bistable:
                continue
            checked += 1
            th_o, u_o = grid_oracle(d)
            assert len(th_o) == len(report.equilibria)
            for t_oracle, eq in zip(th_o, report.equilibria):
                assert abs(t_oracle - eq.theta) < 1e-5

    @pytest.mark.parametrize("gravity", [0.0, 9.81])
    def test_report_keeps_the_window_gradient(self, baseline, gravity):
        d = replace(baseline, gravity=gravity)
        report = find_equilibria_1dof(d)
        grid, g = window_gradient(d)
        for kept, expected in ((report.grid, grid), (report.gradient, g)):
            np.testing.assert_array_equal(kept.view(np.int64),
                                          expected.view(np.int64))
            assert not kept.flags.writeable
        # The arrays take no part in equality, hashing or repr.
        again = replace(report, grid=grid[:2], gradient=g[:2])
        assert again == report and hash(again) == hash(report)
        assert repr(again) == repr(report)
        assert "grid" not in repr(report)

    def test_gradient_vanishes_at_reported_equilibria(self, baseline):
        for eq in find_equilibria_1dof(baseline).equilibria:
            assert abs(float(gradient_1dof(eq.theta, baseline))) < 1e-9

    def test_zero_ring_stiffness_is_monostable(self, baseline):
        d = set_design_value(baseline, "ring.stiffness", 0.0)
        report = find_equilibria_1dof(d)
        assert not report.bistable
        assert len(report.equilibria) == 1
        assert report.equilibria[0].theta == pytest.approx(
            baseline.finger.rest_angle, abs=1e-9)

    def test_exact_zero_on_the_grid_is_a_root(self, baseline):
        # No ring, no gravity, straight rest shape: U' = EI/L * theta, which
        # is exactly zero at the middle grid point of [-1, 1].
        d = set_design_value(baseline, "ring.stiffness", 0.0)
        d = set_design_value(d, "finger.natural_curvature", 0.0)
        assert np.linspace(-1.0, 1.0, 101)[50] == 0.0
        d = replace(d, window=SolveWindow(-1.0, 1.0, 101))
        report = find_equilibria_1dof(d)
        assert [e.theta for e in report.equilibria] == [0.0]
        assert report.equilibria[0].stable

    def test_roots_match_a_cell_by_cell_scan(self, baseline):
        rng = np.random.default_rng(11)
        for _ in range(8):
            d = set_design_value(baseline, "ring.stiffness",
                                 float(rng.uniform(0.0, 0.3)))
            d = set_design_value(d, "gripper.gravity",
                                 float(rng.uniform(-10.0, 10.0)))
            grid = np.linspace(-math.pi, math.pi, 4096)
            g = gradient_1dof(grid, d)
            roots = []
            for i in range(grid.size - 1):
                if g[i] == 0.0:
                    roots.append(grid[i])
                elif (g[i] > 0) != (g[i + 1] > 0) and g[i + 1] != 0.0:
                    roots.append(_bracketed_root(
                        lambda t: float(gradient_1dof(t, d)), grid[i],
                        grid[i + 1], g[i], xtol=1e-12))
            if g[-1] == 0.0:
                roots.append(grid[-1])
            assert [e.theta for e in find_equilibria_1dof(d).equilibria] \
                == [float(t) for t in roots]

    def test_invalid_window_rejected(self, baseline):
        with pytest.raises(ValueError):
            SolveWindow(1.0, -1.0)

    @pytest.mark.parametrize("bounds", [
        (-math.inf, math.inf), (-math.inf, 1.0), (-1.0, math.inf),
        (math.nan, 1.0), (-1.0, math.nan)])
    def test_non_finite_window_rejected(self, bounds):
        with pytest.raises(InvalidArgumentError, match="must be finite"):
            SolveWindow(*bounds)

    @pytest.mark.parametrize("grid_n", [150.5, 150.0, True, math.nan])
    def test_window_grid_must_be_an_integer(self, grid_n):
        rule = "must be an integer" if math.isfinite(grid_n) \
            else "must be finite"
        with pytest.raises(InvalidArgumentError, match=re.escape(
                f"solver.grid_n {rule}, got {grid_n!r}") + "$"):
            SolveWindow(-1.0, 1.0, grid_n)

    @pytest.mark.parametrize("grid_n", [99, MAX_GRID_POINTS + 1])
    def test_window_grid_outside_its_range_rejected(self, grid_n):
        with pytest.raises(InvalidArgumentError, match="must be in"):
            SolveWindow(-1.0, 1.0, grid_n)
        largest = SolveWindow(-1.0, 1.0, MAX_GRID_POINTS)
        assert largest.grid_n == MAX_GRID_POINTS

    def test_derived_designs_keep_the_window(self, baseline):
        narrow = set_design_value(baseline, "solver.theta_max", 1.0)
        assert narrow.window == SolveWindow(-math.pi, 1.0, 4096)
        assert baseline.window == SolveWindow(-math.pi, math.pi, 4096)
        for d in (set_design_value(narrow, "ring.stiffness", 0.1),
                  set_design_value(narrow, "material.youngs_modulus", 5e5),
                  replace(narrow, gravity=9.81, inertia=1e-6)):
            assert d.window is narrow.window
            report = find_equilibria_1dof(d)
            assert max(e.theta for e in report.equilibria) < 1.0
            assert not report.bistable

    def test_snap_through_on_monostable_raises(self, baseline):
        d = set_design_value(baseline, "ring.stiffness", 0.0)
        with pytest.raises(NotBistableError):
            snap_through_energy(d)

    def test_zero_after_a_positive_point_is_one_root(self, baseline,
                                                     monkeypatch):
        # g falls through an exact zero at a grid point: the cell that
        # ends there is not bisected, so the root is not reported twice.
        grid = np.linspace(-math.pi, math.pi, 4096)
        root = float(grid[2500])
        monkeypatch.setattr(statics.model, "window_gradient",
                            lambda design: (grid, -(grid - root)))
        made = statics.model.scalar_model
        monkeypatch.setattr(statics.model, "scalar_model",
                            lambda design: (made(design)[0],
                                            lambda t: -(t - root)))
        report = find_equilibria_1dof(baseline)
        assert [e.theta for e in report.equilibria] == [root]
        assert not report.equilibria[0].stable

    def test_barrier_is_saddle_minus_open(self, baseline):
        report = find_equilibria_1dof(baseline)
        assert report.snap_through_energy == pytest.approx(
            report.saddle.energy - report.open_state.energy, abs=1e-15)


    def test_saddle_below_the_open_state_is_refused(self, baseline):
        # A rest angle of 8e15 rad puts every energy near 6.5e28 J, where
        # the float spacing, 8.8e12 J, swamps the barrier.
        d = set_design_value(baseline, "finger.natural_curvature", 1e17)
        d = set_design_value(d, "ring.stiffness", 8e13)
        with pytest.raises(NonFiniteStateError,
                           match=r"barrier of -8.79609e\+12 J is below 64"):
            find_equilibria_1dof(d)

    def test_barrier_below_the_float_spacing_is_refused(self, baseline):
        # At stiffness 9e13 the snap-through barrier rounds to 0 and the
        # closed-to-saddle barrier to 7 float spacings of 6.48e28 J.
        d = set_design_value(baseline, "finger.natural_curvature", 1e17)
        d = set_design_value(d, "ring.stiffness", 9e13)
        with pytest.raises(NonFiniteStateError,
                           match=r"barrier of 0 J is below 64 float "
                                 r"spacings \(5.6295e\+14 J\)"):
            find_equilibria_1dof(d)


def scan_designs(baseline):
    """Linear and Yeoh fingers at g = 0, at g = 9.81 and at g = 9.81 with
    a payload, each in the default window, one starting at -0.0 and one
    with an odd grid; and the monostable design without a ring."""
    yeoh = replace(baseline, finger=replace(
        baseline.finger, material=Yeoh(1.0e5, 2.0e4, 0.0)))
    monostable = set_design_value(baseline, "ring.stiffness", 0.0)
    for material in (baseline, yeoh, monostable):
        for gravity, payload in ((0.0, 0.0), (9.81, 0.0), (9.81, 0.005)):
            for window in (baseline.window, SolveWindow(-0.0, math.pi),
                           SolveWindow(-2.5, 3.0, 3001)):
                yield replace(material, gravity=gravity,
                              payload_mass=payload, window=window)


class TestScanBits:

    # sha256 of the equilibria (hex theta, energy, stability, curvature)
    # and of the 0.03, -0.03 and -0.005 N*m ramped-load paths (thetas and
    # energies as float64 bytes, or the error) of every design of
    # ``scan_designs``, recorded when the scan classified each root with
    # the array-form gradient and energy and evaluated its grid with
    # ``gradient_1dof``.
    SCAN_DIGEST = ("50a2b0c221eb62b056cf1629133ce98b"
                   "42d6b92f7fc650e4915d6a2e182f697d")

    def test_scan_and_continuation_match_frozen_digest(self, baseline):
        digest, entries = hashlib.sha256(), 0
        for d in scan_designs(baseline):
            for e in find_equilibria_1dof(d).equilibria:
                digest.update(f"{e.theta.hex()} {e.energy.hex()} {e.stable} "
                              f"{e.curvature.hex()}\n".encode())
                entries += 1
            for tau_max in (0.03, -0.03, -0.005):
                try:
                    path = continuation_ramped_load(d, tau_max, 60)
                except DomainError as exc:
                    digest.update(f"{type(exc).__name__}: {exc}\n".encode())
                    continue
                digest.update(path.thetas.tobytes() + path.energies.tobytes())
        assert entries == 57
        assert digest.hexdigest() == self.SCAN_DIGEST

    def test_window_gradient_is_gradient_1dof_on_the_grid(self, baseline):
        for d in scan_designs(baseline):
            w = d.window
            expected = gradient_1dof(
                np.linspace(w.theta_min, w.theta_max, w.grid_n), d)
            for _ in range(2):      # computed, then read from the cache
                grid, g = window_gradient(d)
                np.testing.assert_array_equal(
                    g.view(np.int64), expected.view(np.int64))
                assert grid.size == w.grid_n

    def test_float_scan_matches_frozen_digest(self, baseline):
        # Every test process has numpy loaded, so the scans of a cold call,
        # on floats, are asked for here; continuation then reads a report
        # of tuples.
        on_floats(self.test_scan_and_continuation_match_frozen_digest,
                  baseline)


def on_floats(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with the scans of a process without numpy."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_numpy_loaded", lambda: False)
        return fn(*args, **kwargs)


def random_linear_designs(baseline, count):
    """``count`` linear designs drawn around the baseline, gravity in
    [-10, 10] m/s^2 with a payload, each in one of the three windows of
    ``scan_designs``."""
    rng = np.random.default_rng(33)
    windows = (baseline.window, SolveWindow(-0.0, math.pi),
               SolveWindow(-2.5, 3.0, 3001))
    for k in range(count):
        d = baseline
        for key, lo, hi in (("ring.stiffness", 0.0, 0.3),
                            ("ring.well_center", 0.0, 0.6),
                            ("finger.natural_curvature", 10.0, 30.0),
                            ("gripper.payload_mass", 0.0, 0.01),
                            ("gripper.gravity", -10.0, 10.0)):
            d = set_design_value(d, key, float(rng.uniform(lo, hi)))
        yield replace(d, window=windows[k % 3])


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestFloatScan:
    """The scans of a process without numpy give the bits of the array
    form: the window scan of ``find_equilibria_1dof`` and the search grid
    of ``trigger_moment``."""

    @pytest.fixture(scope="class")
    def designs(self, baseline):
        linear = [d for d in scan_designs(baseline)
                  if isinstance(d.finger.material, LinearElastic)]
        # Without gravity, the float gradient of this design at the
        # window's end, theta = -0.0, is -0.0, and the array form's +0.0.
        signed_zero = set_design_value(set_design_value(
            baseline, "finger.natural_curvature", 0.0),
            "ring.well_center", -0.0)
        return (linear + list(random_linear_designs(baseline, 120))
                + [replace(signed_zero, window=SolveWindow(-math.pi, -0.0))])

    def test_window_scan_equals_window_gradient(self, designs):
        for d in designs:
            w = d.window
            grid, g = statics._float_scan(d, scalar_model(d)[1],
                                          w.theta_min, w.theta_max, w.grid_n)
            expected_grid, expected = window_gradient(d)
            np.testing.assert_array_equal(bits(grid), bits(expected_grid))
            np.testing.assert_array_equal(bits(g), bits(expected))

    @pytest.mark.parametrize("lo, hi", [(0.0, 1e-322), (-1e308, 1e308)])
    def test_grid_follows_linspace_at_the_float_range(self, baseline, lo,
                                                      hi):
        # A step below the float range, and a width beyond it.
        grid, _ = statics._float_scan(baseline, scalar_model(baseline)[1],
                                      lo, hi, 100)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = np.linspace(lo, hi, 100)
        np.testing.assert_array_equal(bits(grid), bits(expected))

    def test_trigger_search_grid_and_argmax(self, designs):
        bistable = 0
        for d in designs:
            report = find_equilibria_1dof(d)
            if not report.bistable:
                continue
            bistable += 1
            lo, hi = report.open_state.theta, report.saddle.theta
            grid, g = statics._float_scan(d, scalar_model(d)[1], lo, hi,
                                          2048)
            expected = gradient_1dof(np.linspace(lo, hi, 2048), d)
            np.testing.assert_array_equal(bits(g), bits(expected))
            assert g.index(max(g)) == np.argmax(expected)
            assert on_floats(trigger_moment, d) == trigger_moment(d)
        assert bistable >= 50

    def test_reports_of_both_scans_serve_continuation_alike(self, baseline):
        d = replace(baseline, gravity=9.81)
        report = on_floats(find_equilibria_1dof, d)
        assert isinstance(report.grid, tuple)
        assert report == find_equilibria_1dof(d)
        for tau_max in (0.03, -0.03):
            path = on_floats(continuation_ramped_load, d, tau_max, 60)
            expected = continuation_ramped_load(d, tau_max, 60)
            for name in ("taus", "thetas", "energies"):
                np.testing.assert_array_equal(
                    bits(getattr(path, name)), bits(getattr(expected, name)))
            assert path.fold_points == expected.fold_points

    def test_reports_of_both_scans_bound_the_step_alike(self, baseline):
        # The window holds only the saddle, so the step bound is read from
        # the report's grid and gradient.
        saddle_only = replace(baseline, window=SolveWindow(0.0, 0.6, 601))
        texts = []
        for run in (on_floats, lambda fn, *a, **k: fn(*a, **k)):
            with pytest.raises(StepSizeError) as caught:
                run(simulate_1dof, saddle_only, 0.3, 0.0, dt=1.1e-4,
                    t_end=0.01)
            texts.append(str(caught.value))
        assert texts[0] == texts[1]
        assert "on the solve window" in texts[0]


class TestTriggerMoment:

    def test_pure_quartic_analytic_value(self, baseline):
        # With a negligible finger, the maximum restoring slope of the
        # quartic double well is k_eff * halfwidth / (3*sqrt(3)).
        d = set_design_value(baseline, "material.youngs_modulus", 1e-3)
        d = set_design_value(d, "ring.well_center", 0.0)
        k = d.ring.effective_stiffness
        delta = d.ring.well_halfwidth
        expected = k * delta / (3.0 * math.sqrt(3.0))
        assert trigger_moment(d) == pytest.approx(expected, rel=1e-6)

    def test_exceeds_zero_and_removes_open_minimum(self, baseline):
        tau = trigger_moment(baseline)
        assert tau > 0.0
        # Tilting the landscape by slightly more than the trigger moment
        # leaves no equilibrium in the open region.
        grid = np.linspace(-math.pi, 0.3, 4001)
        g = np.asarray(gradient_1dof(grid, baseline), dtype=float)
        assert np.all(g - 1.001 * tau < 0.0)
        assert np.any(g - 0.999 * tau > 0.0)

    def test_monostable_raises(self, baseline):
        d = set_design_value(baseline, "ring.stiffness", 0.0)
        with pytest.raises(NotBistableError):
            trigger_moment(d)

    def test_frozen_baseline_values(self, baseline):
        assert trigger_moment(baseline) == pytest.approx(
            BASELINE_TRIGGER_MOMENT, rel=1e-12)
        heavy = set_design_value(baseline, "gripper.gravity", 9.81)
        assert trigger_moment(heavy) == pytest.approx(
            GRAVITY_TRIGGER_MOMENT, rel=1e-12)

    def test_frozen_random_bistable_designs(self, baseline):
        # Same seed and draws as acceptance 03.
        rng = np.random.default_rng(20260823)
        taus = []
        while len(taus) < len(RANDOM_TRIGGER_MOMENTS):
            d = baseline
            d = set_design_value(d, "ring.stiffness",
                                 float(rng.uniform(0.05, 0.3)))
            d = set_design_value(d, "ring.well_center",
                                 float(rng.uniform(0.1, 0.6)))
            d = set_design_value(d, "ring.well_halfwidth",
                                 float(rng.uniform(0.9, 1.5)))
            d = set_design_value(d, "finger.natural_curvature",
                                 float(rng.uniform(15.0, 25.0)))
            if find_equilibria_1dof(d).bistable:
                taus.append(trigger_moment(d))
        assert taus == pytest.approx(list(RANDOM_TRIGGER_MOMENTS), rel=1e-12)


class TestBracketedRoot:

    def test_bisects_to_the_bracket_tolerance(self):
        root = _bracketed_root(lambda x: x * x - 2.0, 0.0, 2.0, -2.0,
                               xtol=1e-12)
        assert abs(root - math.sqrt(2.0)) <= 1e-12

    def test_sign_of_f_lo_orients_the_steps(self):
        root = _bracketed_root(lambda x: 2.0 - x * x, 0.0, 2.0, 2.0,
                               xtol=1e-12)
        assert abs(root - math.sqrt(2.0)) <= 1e-12

    def test_exact_zero_at_a_midpoint_is_returned(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 1.0

        assert _bracketed_root(f, 0.0, 2.0, -1.0, xtol=1e-12) == 1.0
        assert calls == [1.0]

    def test_value_tolerance_returns_the_evaluated_midpoint(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 0.3

        root = _bracketed_root(f, 0.0, 1.0, -0.3, ftol=0.01)
        assert root == calls[-1]
        assert abs(root - 0.3) < 0.01

    def test_step_budget_bounds_the_evaluations(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 0.3

        with pytest.raises(NonConvergenceError,
                           match=r"5 steps: the bracket \[0\.28125, "
                                 r"0\.3125\] is left, with \|f\| = "
                                 r"0\.01875 at its last midpoint"):
            _bracketed_root(f, 0.0, 1.0, -0.3, max_iter=5)
        assert len(calls) == 5

    def test_bracket_at_float_resolution_counts_as_converged(self):
        lo = 1.0
        hi = math.nextafter(lo, 2.0)
        assert _bracketed_root(lambda x: x - hi, lo, hi, lo - hi,
                               max_iter=3) in (lo, hi)

    def test_bracket_reaching_xtol_on_the_last_step_counts(self):
        root = _bracketed_root(lambda x: x - 0.3, 0.0, 1.0, -0.3,
                               xtol=2.0 ** -5, max_iter=5)
        assert abs(root - 0.3) <= 2.0 ** -6

    @pytest.mark.parametrize("gravity", [0.0, 9.81])
    def test_numpy_and_float_f_lo_give_the_same_root(self, baseline,
                                                     gravity):
        # The equilibrium scan passes a grid value, a numpy float64.
        d = set_design_value(baseline, "gripper.gravity", gravity)
        grid, g = window_gradient(d)
        gradient = statics.model.scalar_model(d)[1]
        cells = np.flatnonzero(np.sign(g[:-1]) != np.sign(g[1:]))
        assert cells.size == 3
        for i in cells:
            assert isinstance(g[i], np.float64)
            runs = []
            for f_lo in (g[i], float(g[i])):
                points = []

                def f(t):
                    points.append(t)
                    return gradient(t)

                points.append(_bracketed_root(
                    f, float(grid[i]), float(grid[i + 1]), f_lo,
                    xtol=statics.BISECTION_TOL))
                runs.append(np.array(points).view(np.int64).tolist())
            assert runs[0] == runs[1]


class TestRequireBistable:

    def test_given_report_is_returned_unsolved(self, baseline, monkeypatch):
        report = find_equilibria_1dof(baseline)
        monkeypatch.setattr("snapgrip.statics.find_equilibria_1dof", None)
        assert require_bistable(baseline, report) is report

    def test_monostable_design_rejected(self, baseline):
        d = set_design_value(baseline, "ring.stiffness", 0.0)
        with pytest.raises(NotBistableError, match="not bistable"):
            require_bistable(d)

    def test_trigger_moment_with_report_is_identical(self, baseline):
        heavy = set_design_value(baseline, "gripper.gravity", 9.81)
        for d in (baseline, heavy):
            report = find_equilibria_1dof(d)
            assert trigger_moment(d, report) == trigger_moment(d)


class TestContinuation:

    def test_too_few_steps_is_a_domain_error(self, baseline):
        with pytest.raises(DomainError, match="n_steps"):
            continuation_ramped_load(baseline, 0.05, 5)
        with pytest.raises(ValueError):
            continuation_ramped_load(baseline, 0.05, 5)

    def test_ramp_past_trigger_detects_one_fold(self, baseline):
        tau_star = trigger_moment(baseline)
        path = continuation_ramped_load(baseline, 1.5 * tau_star, 200)
        assert len(path.fold_points) == 1
        fold_tau, fold_theta = path.fold_points[0]
        step = 1.5 * tau_star / 199
        assert abs(fold_tau - tau_star) < 2 * step
        # After the fold the branch lands near the closed state.
        assert path.thetas[-1] > 1.5

    def test_ramp_below_trigger_stays_on_open_branch(self, baseline):
        tau_star = trigger_moment(baseline)
        path = continuation_ramped_load(baseline, 0.8 * tau_star, 100)
        assert path.fold_points == ()
        assert np.all(path.thetas < 0.35)
        assert np.all(np.diff(path.thetas) >= -1e-9)

    def test_path_leaving_the_window_is_an_error(self, baseline):
        # Past the fold the closed branch sits at 1.77 rad and more.
        narrow = replace(baseline, window=SolveWindow(-math.pi, 1.0))
        with pytest.raises(DomainError, match="left the solve window"):
            continuation_ramped_load(narrow, 0.05, 200)
        path = continuation_ramped_load(baseline, 0.05, 200)
        assert 1.77 < path.thetas.max() < math.pi

    def test_window_without_a_stable_equilibrium_is_an_error(self,
                                                              baseline):
        # The window holds the saddle (0.306 rad) and neither well.
        saddle_only = replace(baseline, window=SolveWindow(0.0, 0.6, 601))
        (saddle,) = find_equilibria_1dof(saddle_only).equilibria
        assert not saddle.stable
        with pytest.raises(NonConvergenceError,
                           match="no stable equilibrium to start from"):
            continuation_ramped_load(saddle_only, 0.05, 50)

    def test_path_shapes_consistent(self, baseline):
        path = continuation_ramped_load(baseline, 0.01, 50)
        assert path.taus.shape == path.thetas.shape == path.energies.shape

    # Baseline ramps of 200 steps to 1.5x the trigger moment, traced by
    # damped Newton continuation before the grid walk replaced it:
    # gravity -> (tau_max, fold tau, fold theta, final theta).  Both fold
    # at load step 133.
    FROZEN_FOLDS = {
        0.0: (0.037330869835617626, 0.024949777327322332,
              -0.3981724002038128, 1.8360407624578219),
        9.81: (0.0357915838648625, 0.023921008311692027,
               -0.39807243558178895, 1.8311654557621888),
    }

    @pytest.mark.parametrize("gravity", sorted(FROZEN_FOLDS))
    def test_fold_matches_frozen_newton_path(self, baseline, gravity):
        tau_max, fold_tau, fold_theta, final = self.FROZEN_FOLDS[gravity]
        d = set_design_value(baseline, "gripper.gravity", gravity)
        path = continuation_ramped_load(d, tau_max, 200)
        (tau, theta), = path.fold_points
        assert tau == fold_tau == path.taus[133]
        assert abs(theta - fold_theta) <= 1e-9
        assert abs(path.thetas[-1] - final) <= 1e-9

    def test_coarse_step_across_the_fold_is_recorded(self, baseline):
        # Damped Newton landed on the closed branch at step 3 of this
        # path without seeing a fold.
        d = baseline
        for key, value in (("ring.stiffness", 0.24288425947668607),
                           ("ring.well_center", 0.48512073278622614),
                           ("ring.well_halfwidth", 0.9470237429533117),
                           ("finger.natural_curvature", 17.121391488257725)):
            d = set_design_value(d, key, value)
        path = continuation_ramped_load(d, 0.15815401085304837, 10)
        assert path.thetas[2] < -0.2 and path.thetas[3] > 1.6
        assert path.fold_points == ((path.taus[3], path.thetas[2]),)

    @pytest.mark.parametrize("gravity", [0.0, 9.81])
    def test_every_point_is_a_stable_root(self, baseline, gravity):
        d = set_design_value(baseline, "gripper.gravity", gravity)
        tau_max = self.FROZEN_FOLDS[gravity][0]
        path = continuation_ramped_load(d, tau_max, 200)
        residual = np.asarray(gradient_1dof(path.thetas, d)) - path.taus
        assert np.max(np.abs(residual)) <= 1e-9
        # g - tau changes sign upward across each point: a stable root.
        h = DIFFERENCE_STEP
        assert np.all(gradient_1dof(path.thetas - h, d) - path.taus < 0.0)
        assert np.all(gradient_1dof(path.thetas + h, d) - path.taus > 0.0)

    def test_negative_load_moves_left_without_a_fold(self, baseline):
        path = continuation_ramped_load(baseline, -0.1, 100)
        assert path.fold_points == ()
        assert path.thetas[0] == pytest.approx(BASELINE_OPEN_THETA, abs=1e-9)
        assert np.all(np.diff(path.thetas) < 0.0)
        assert path.thetas[-1] < -1.3
        residual = np.asarray(gradient_1dof(path.thetas, baseline)) - path.taus
        assert np.max(np.abs(residual)) <= 1e-9

    def test_negative_load_walking_off_the_window_is_an_error(self,
                                                              baseline):
        # The open state sits at -0.856 rad; -0.05 N*m pushes it to -1.17.
        narrow = replace(baseline, window=SolveWindow(-1.0, math.pi))
        with pytest.raises(InvalidArgumentError,
                           match="left the solve window"):
            continuation_ramped_load(narrow, -0.05, 100)


class TestChainStatics:

    def test_single_segment_chain_matches_reduced_model(self, baseline):
        report1 = find_equilibria_1dof(baseline)
        eqs = find_equilibria_chain(baseline,
                                    default_chain_seeds(baseline, report1))
        stable = [e for e in eqs if e.stable]
        assert len(stable) == 2
        assert stable[0].theta == pytest.approx(report1.open_state.theta,
                                                abs=1e-9)
        assert stable[1].theta == pytest.approx(report1.closed_state.theta,
                                                abs=1e-9)
        assert stable[0].energy == pytest.approx(report1.open_state.energy,
                                                 abs=1e-9)

    def test_single_segment_saddle_matches_reduced_model(self, baseline):
        report1 = find_equilibria_1dof(baseline)
        eqs = find_equilibria_chain(baseline,
                                    default_chain_seeds(baseline, report1))
        stable = [e for e in eqs if e.stable]
        saddle = saddle_search_chain(baseline, stable[0].configuration,
                                     stable[1].configuration)
        assert saddle.theta == pytest.approx(report1.saddle.theta, abs=1e-6)
        assert saddle.energy == pytest.approx(report1.saddle.energy, abs=1e-9)

    def test_eight_segment_barrier_within_15_percent(self, baseline):
        d = set_design_value(baseline, "finger.n_segments", 8)
        report1 = find_equilibria_1dof(d)
        eqs = find_equilibria_chain(d, default_chain_seeds(d, report1))
        stable = [e for e in eqs if e.stable]
        assert len(stable) == 2
        saddle = saddle_search_chain(d, stable[0].configuration,
                                     stable[1].configuration)
        barrier_chain = saddle.energy - stable[0].energy
        assert barrier_chain == pytest.approx(report1.snap_through_energy,
                                              rel=0.15)

    def test_chain_saddle_has_exactly_one_unstable_direction(self, baseline):
        d = set_design_value(baseline, "finger.n_segments", 8)
        report1 = find_equilibria_1dof(d)
        eqs = find_equilibria_chain(d, default_chain_seeds(d, report1))
        stable = [e for e in eqs if e.stable]
        saddle = saddle_search_chain(d, stable[0].configuration,
                                     stable[1].configuration)
        _, hess = chain_gradient_hessian(saddle.configuration.as_array(), d)
        eigs = np.linalg.eigvalsh(hess)
        assert int(np.sum(eigs < 0.0)) == 1
        grad = chain_gradient(saddle.configuration.as_array(), d)
        assert float(np.linalg.norm(grad)) < 1e-7

    def test_monostable_design_seeds_ring_wells_and_rest_angle(self,
                                                                baseline):
        d = set_design_value(set_design_value(
            baseline, "ring.stiffness", 0.0), "finger.n_segments", 4)
        assert not find_equilibria_1dof(d).bistable
        tips = [*d.ring.wells, d.finger.rest_angle]
        seeds = default_chain_seeds(d)
        assert len(seeds) == 3
        for seed, tip in zip(seeds, tips):
            np.testing.assert_array_equal(seed, uniform_chain(d, tip))
        (eq,) = find_equilibria_chain(d, seeds)
        assert eq.stable
        assert eq.theta == pytest.approx(d.finger.rest_angle, abs=1e-9)

    def test_duplicate_seeds_are_merged(self, baseline):
        d = set_design_value(baseline, "finger.n_segments", 4)
        seed = uniform_chain(d, 1.6)
        eqs = find_equilibria_chain(d, [seed, seed + 1e-8, seed.copy()])
        assert len(eqs) == 1

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_chain_without_gravity_is_the_scaled_modulus_1dof_model(
            self, baseline, n):
        # With g = 0 and a*n whole (a = attach fraction), the a*n proximal
        # joints share the bend and the distal ones rest at their natural
        # angle, so the chain is the 1-DOF model with E scaled by a, and
        # its tip angle is a*theta' + (1 - a)*kappa0*L.
        d = set_design_value(baseline, "gripper.gravity", 0.0)
        d = set_design_value(d, "finger.n_segments", n)
        a = d.ring.attach_fraction
        oracle = find_equilibria_1dof(set_design_value(
            d, "material.youngs_modulus",
            a * d.finger.material.youngs_modulus))

        def tip(eq):
            return a * eq.theta + (1.0 - a) * d.finger.rest_angle

        open_, closed = [e for e in find_equilibria_chain(
            d, default_chain_seeds(d)) if e.stable]
        saddle = saddle_search_chain(d, open_.configuration,
                                     closed.configuration)
        assert saddle.energy - open_.energy == pytest.approx(
            oracle.snap_through_energy, rel=1e-12, abs=0.0)
        for chain_eq, eq in ((open_, oracle.open_state),
                             (saddle, oracle.saddle)):
            assert chain_eq.energy == pytest.approx(eq.energy, rel=1e-12,
                                                    abs=0.0)
        assert abs(closed.energy - oracle.closed_state.energy) < 1e-15
        for chain_eq, eq in ((open_, oracle.open_state),
                             (saddle, oracle.saddle),
                             (closed, oracle.closed_state)):
            assert abs(chain_eq.theta - tip(eq)) < 1e-11

    # Saddles at g = 9.81, frozen from the climbing-image string method
    # (polished by Newton to a 1e-10 gradient) that the single Newton
    # solve replaced: n -> (saddle energy, tip angle).
    FROZEN_GRAVITY_SADDLES = {
        2: (0.023749613031387024, 1.0098336548201803),
        4: (0.02370381857555765, 1.009417229883426),
        8: (0.023691748173765945, 1.0093452648923895),
    }
    FROZEN_YEOH_SADDLE = (0.023704987299396307, 1.0093886353019919)

    @staticmethod
    def _gravity_saddle(design, n):
        d = set_design_value(set_design_value(design, "gripper.gravity",
                                              9.81), "finger.n_segments", n)
        open_, closed = [e for e in find_equilibria_chain(
            d, default_chain_seeds(d)) if e.stable]
        return d, open_, saddle_search_chain(d, open_.configuration,
                                             closed.configuration), closed

    @pytest.mark.parametrize("n", sorted(FROZEN_GRAVITY_SADDLES))
    def test_gravity_saddle_matches_frozen_values(self, baseline, n):
        energy, theta = self.FROZEN_GRAVITY_SADDLES[n]
        saddle = self._gravity_saddle(baseline, n)[2]
        assert saddle.energy == pytest.approx(energy, rel=1e-9, abs=0.0)
        assert abs(saddle.theta - theta) < 1e-8

    def test_yeoh_gravity_saddle_matches_frozen_value(self, baseline):
        yeoh = replace(baseline, finger=replace(
            baseline.finger, material=Yeoh(1.0e5, 2.0e4, 0.0)))
        energy, theta = self.FROZEN_YEOH_SADDLE
        saddle = self._gravity_saddle(yeoh, 4)[2]
        assert saddle.energy == pytest.approx(energy, rel=1e-9, abs=0.0)
        assert abs(saddle.theta - theta) < 1e-8

    def test_gravity_saddles_converge_with_segment_count(self, baseline):
        saddle_energies, barriers = [], []
        for n in (8, 16, 32):
            d, open_, saddle, closed = self._gravity_saddle(baseline, n)
            eigs = np.linalg.eigvalsh(chain_gradient_hessian(
                saddle.configuration.as_array(), d)[1])
            assert int(np.sum(eigs < 0.0)) == 1
            assert saddle.energy > max(open_.energy, closed.energy)
            saddle_energies.append(saddle.energy)
            barriers.append(saddle.energy - open_.energy)
        for values in (saddle_energies, barriers):
            steps = np.abs(np.diff(values))
            assert steps[1] < steps[0]

    def test_identical_endpoints_have_no_saddle(self, baseline):
        d = set_design_value(baseline, "finger.n_segments", 4)
        open_ = [e for e in find_equilibria_chain(
            d, default_chain_seeds(d)) if e.stable][0]
        with pytest.raises(SaddleOrderError):
            saddle_search_chain(d, open_.configuration, open_.configuration)

    def test_newton_failure_is_reported(self, baseline, monkeypatch):
        d = set_design_value(baseline, "finger.n_segments", 4)
        open_, closed = [e for e in find_equilibria_chain(
            d, default_chain_seeds(d)) if e.stable]
        monkeypatch.setattr(statics, "_chain_newton", lambda *a, **k: None)
        with pytest.raises(NonConvergenceError):
            saddle_search_chain(d, open_.configuration, closed.configuration)

    def test_unstable_endpoint_is_an_invalid_argument(self, baseline):
        d = set_design_value(baseline, "finger.n_segments", 4)
        open_, closed = [e for e in find_equilibria_chain(
            d, default_chain_seeds(d)) if e.stable]
        saddle = saddle_search_chain(d, open_.configuration,
                                     closed.configuration)
        with pytest.raises(InvalidArgumentError, match="stable"):
            saddle_search_chain(d, saddle.configuration, closed.configuration)
        with pytest.raises(InvalidArgumentError, match="converged"):
            saddle_search_chain(d, uniform_chain(d, 0.0),
                                closed.configuration)

    def test_string_endpoints_must_be_stable(self, baseline):
        d = set_design_value(baseline, "finger.n_segments", 4)
        report1 = find_equilibria_1dof(d)
        eqs = find_equilibria_chain(d, default_chain_seeds(d, report1))
        stable = [e for e in eqs if e.stable]
        bad = uniform_chain(d, 0.0)  # not an equilibrium
        with pytest.raises(ValueError):
            saddle_search_chain(d, bad, stable[1].configuration)

    # sha256 of every chain minimum and saddle over a grid of designs
    # (linear and Yeoh, n = 1-32, g = 0-9.81, ring stiffness 0.115-0.135),
    # recorded from the Newton solver that took each step's gradient and
    # Hessian from separate calls.  Each entry packs theta, energy,
    # stability, curvature and the configuration's bytes.
    CHAIN_GRID_DIGEST = ("d669305142e37c4b84ff0040d97958eb"
                         "7f2052f38a31b0f65f80c77a51283dfb")

    def test_chain_grid_matches_frozen_digest(self, baseline):
        yeoh = replace(baseline, finger=replace(
            baseline.finger, material=Yeoh(1.0e5, 2.0e4, 0.0)))
        digest, entries = hashlib.sha256(), 0

        def add(eq):
            nonlocal entries
            digest.update(struct.pack("<dd?d", eq.theta, eq.energy,
                                      eq.stable, eq.curvature)
                          + eq.configuration.packed)
            entries += 1

        for material in (baseline, yeoh):
            for n in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32):
                for gravity in (0.0, 0.3, 9.81):
                    for stiffness in (0.115, 0.125, 0.135):
                        d = set_design_value(material, "finger.n_segments", n)
                        d = set_design_value(d, "gripper.gravity", gravity)
                        d = set_design_value(d, "ring.stiffness", stiffness)
                        eqs = find_equilibria_chain(d, default_chain_seeds(d))
                        for eq in eqs:
                            add(eq)
                        stable = [e for e in eqs if e.stable]
                        add(saddle_search_chain(d, stable[0].configuration,
                                                stable[-1].configuration))
        assert entries == 540
        assert digest.hexdigest() == self.CHAIN_GRID_DIGEST


class TestChainNewton:
    """Every point the chain Newton solver returns, or the seed merge
    keeps, carries the Hessian of that same point."""

    @staticmethod
    def _bits(values):
        return np.asarray(values, dtype=float).view(np.int64)

    @staticmethod
    def _fake_model(monkeypatch, gradient, hessian):
        """Replace the model seen by ``_chain_newton``; returns a dict from
        each evaluated point's bytes to the Hessian object given for it."""
        given = {}

        def fake(phi, design):
            hess = np.array(hessian(phi), dtype=float)
            given[phi.tobytes()] = hess
            return np.array(gradient(phi), dtype=float), hess

        monkeypatch.setattr(statics.model, "chain_gradient_hessian", fake)
        return given

    @staticmethod
    def _spy_equilibria(monkeypatch):
        """Record the (point, Hessian) pair of each ``_chain_equilibrium``
        call."""
        pairs = []
        real = statics._chain_equilibrium

        def spy(design, phi, hess):
            pairs.append((phi, hess))
            return real(design, phi, hess)

        monkeypatch.setattr(statics, "_chain_equilibrium", spy)
        return pairs

    def _check_pairs(self, design, pairs):
        for phi, hess in pairs:
            np.testing.assert_array_equal(
                self._bits(hess),
                self._bits(chain_gradient_hessian(phi, design)[1]))

    def test_solved_points_carry_their_own_hessian(self, baseline,
                                                   monkeypatch):
        d = set_design_value(set_design_value(
            baseline, "finger.n_segments", 8), "gripper.gravity", 9.81)
        pairs = self._spy_equilibria(monkeypatch)
        open_, closed = [e for e in find_equilibria_chain(
            d, default_chain_seeds(d)) if e.stable]
        saddle_search_chain(d, open_.configuration, closed.configuration)
        assert len(pairs) == 3
        self._check_pairs(d, pairs)

    def test_singular_hessian_is_shifted(self, monkeypatch):
        # E = 3 (phi_0 - 1)^2 / 2 is flat along phi_1, so its Hessian is
        # exactly singular; the first shift, 1e-12 of its largest entry,
        # makes it solvable.
        given = self._fake_model(
            monkeypatch, lambda phi: [3.0 * (phi[0] - 1.0), 0.0],
            lambda phi: [[3.0, 0.0], [0.0, 0.0]])
        solved = []
        real_solve = np.linalg.solve

        def solve(a, b):
            solved.append(a.copy())
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve)
        phi, hess = statics._chain_newton(None, [3.0, 0.5])
        assert phi[0] == pytest.approx(1.0, abs=1e-9) and phi[1] == 0.5
        assert hess is given[phi.tobytes()]
        # Each step tries the Hessian as it is, then shifted by
        # 1e-12 * max|H| = 3e-12.
        lam = 1e-12 * 3.0
        assert len(solved) >= 2 and len(solved) % 2 == 0
        for unshifted, shifted in zip(solved[::2], solved[1::2]):
            assert unshifted.tolist() == [[3.0, 0.0], [0.0, 0.0]]
            assert shifted.tolist() == [[3.0 + lam, 0.0], [0.0, lam]]

    def test_hessian_singular_under_every_shift_fails(self, monkeypatch):
        # The shift goes 0, then 1e-12, 1e-11, ... 1e-2 of the largest
        # entry, computed as the solver does; one diagonal entry cancels
        # each shift exactly.
        shifts = [0.0]
        for _ in range(11):
            shifts.append(max(shifts[-1] * 10.0, 1e-12 * 1.0))
        diagonal = np.array([1.0] + [-lam for lam in shifts])
        given = self._fake_model(monkeypatch, lambda phi: np.ones(13),
                                 lambda phi: np.diag(diagonal))
        assert statics._chain_newton(None, np.zeros(13)) is None
        assert len(given) == 1

    def test_step_that_never_descends_fails(self, monkeypatch):
        given = self._fake_model(monkeypatch, lambda phi: [1.0, 1.0],
                                 lambda phi: np.eye(2))
        assert statics._chain_newton(None, [0.0, 0.0]) is None
        assert len(given) == 1 + 40     # the seed and 40 halvings

    def test_iteration_limit(self, baseline):
        d = set_design_value(set_design_value(
            baseline, "finger.n_segments", 8), "gripper.gravity", 9.81)
        seed = default_chain_seeds(d)[1]
        steps = next(m for m in range(1, 50)
                     if statics._chain_newton(d, seed, max_iter=m)
                     is not None)
        assert steps >= 2
        assert statics._chain_newton(d, seed, max_iter=steps - 1) is None
        # The limit is reached on the step that converges.
        phi, hess = statics._chain_newton(d, seed, max_iter=steps)
        assert float(np.max(np.abs(chain_gradient(phi, d)))) \
            < statics.CHAIN_GRAD_TOL
        self._check_pairs(d, [(phi, hess)])
        np.testing.assert_array_equal(
            phi, statics._chain_newton(d, seed)[0])

    def test_merge_keeps_the_lower_point_with_its_hessian(self, baseline,
                                                          monkeypatch):
        d = set_design_value(set_design_value(
            baseline, "finger.n_segments", 4), "gripper.gravity", 9.81)
        first = uniform_chain(d, 0.5)
        g = chain_gradient(first, d)
        second = first - 1e-7 * g / float(np.max(np.abs(g)))
        assert chain_energy(second, d) < chain_energy(first, d)
        hessians = {p.tobytes(): chain_gradient_hessian(p, d)[1]
                    for p in (first, second)}
        monkeypatch.setattr(
            statics, "_chain_newton",
            lambda design, seed: (seed, hessians[seed.tobytes()]))
        pairs = self._spy_equilibria(monkeypatch)
        for seeds in ([first, second], [second, first]):
            pairs.clear()
            (eq,) = find_equilibria_chain(d, seeds)
            assert eq.configuration == ChainConfiguration(second)
            ((phi, hess),) = pairs
            assert hess is hessians[second.tobytes()]
            assert eq.curvature == float(np.linalg.eigvalsh(hess)[0])
            self._check_pairs(d, pairs)

"""Energy model unit tests: constitutive laws, reduced model, chain model."""

import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from snapgrip.errors import CurvatureOutOfRangeError, InvalidDesignError
import snapgrip.model as model
from snapgrip.model import (ARC_SERIES_SWITCH, DEFAULT_WINDOW,
                            YEOH_SERIES_SWITCH,
                            ChainConfiguration, CrossSection, FingerDesign,
                            GripperDesign, LinearElastic, RingDesign,
                            SolveWindow, Yeoh,
                            chain_energy, chain_gradient,
                            chain_gradient_hessian,
                            finger_energy_1dof, finger_gradient_1dof,
                            gradient_1dof, gravity_energy_1dof,
                            gravity_gradient_1dof,
                            moment_curvature, ring_energy_1dof,
                            sample_landscape, scalar_model,
                            set_design_value, tip_chord, total_energy_1dof,
                            uniform_chain, window_gradient)
from snapgrip.statics import find_equilibria_1dof


def pure_quartic_ring(k=1.0, center=0.0, halfwidth=1.0):
    return RingDesign(attach_fraction=0.5, well_center=center,
                      well_halfwidth=halfwidth, stiffness=k, width_scale=1.0)


# ---------------------------------------------------------------------------
# Constitutive laws
# ---------------------------------------------------------------------------

class TestMomentCurvature:

    def test_linear_material_gives_ei_kappa(self):
        sec = CrossSection(0.015, 0.006)
        mat = LinearElastic(6.0e5)
        kappa = 12.5
        assert moment_curvature(kappa, sec, mat) == pytest.approx(
            6.0e5 * sec.second_moment * kappa, rel=1e-12)

    def test_yeoh_small_strain_matches_linear_equivalent(self):
        sec = CrossSection(0.015, 0.006)
        c10 = 1.0e5
        yeoh = Yeoh(c10, 0.0, 0.0)
        errors = []
        for strain in (1e-2, 1e-3, 1e-4):
            kappa = strain * 2.0 / sec.thickness
            m = moment_curvature(kappa, sec, yeoh)
            m_lin = 6.0 * c10 * sec.second_moment * kappa
            errors.append(abs(m - m_lin) / m_lin)
        assert errors[0] < 1e-2
        assert errors[0] > errors[1] > errors[2]

    def test_yeoh_bending_stiffness_is_the_small_curvature_slope(self):
        sec = CrossSection(0.015, 0.006)
        yeoh = Yeoh(1.0e5, 2.0e3, 50.0)
        finger = FingerDesign(length=0.08, natural_curvature=20.0,
                              cross_section=sec, material=yeoh)
        assert finger.bending_stiffness == 6.0 * 1.0e5 * sec.second_moment
        kappa = 1e-3
        assert moment_curvature(kappa, sec, yeoh) / kappa == pytest.approx(
            finger.bending_stiffness, rel=1e-10)

    def test_yeoh_moment_is_odd_in_curvature(self):
        sec = CrossSection(0.015, 0.006)
        yeoh = Yeoh(1.0e5, 2.0e4, 0.0)
        m_pos = moment_curvature(40.0, sec, yeoh)
        m_neg = moment_curvature(-40.0, sec, yeoh)
        assert m_pos == pytest.approx(-m_neg, rel=1e-9)

    def test_extreme_fiber_compression_rejected(self):
        sec = CrossSection(0.015, 0.006)
        yeoh = Yeoh(1.0e5, 0.0, 0.0)
        with pytest.raises(CurvatureOutOfRangeError):
            moment_curvature(0.95 * 2.0 / sec.thickness, sec, yeoh)

    def test_zero_curvature_zero_moment(self):
        sec, yeoh = CrossSection(0.015, 0.006), Yeoh(1.0e5, 0.0, 0.0)
        moments = [moment_curvature(0.0, sec, yeoh),
                   moment_curvature(-0.0, sec, yeoh),
                   moment_curvature([-1.0, 0.0, 1.0], sec, yeoh)[1]]
        for m in moments:       # +0.0, not -0.0
            assert m == 0.0 and math.copysign(1.0, m) == 1.0


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _switch_angles(finger):
    """Two pairs of adjacent tip angles, one either side of the rest
    angle, whose |kappa| * t/2 straddles the Yeoh series switch."""
    rest, length = finger.rest_angle, finger.length
    half_t = finger.cross_section.thickness / 2.0
    angles = []
    for sign in (1.0, -1.0):
        theta = rest + sign * YEOH_SERIES_SWITCH / half_t * length
        while abs((theta - rest) / length * half_t) >= YEOH_SERIES_SWITCH:
            theta = np.nextafter(theta, rest)
        while abs((theta - rest) / length * half_t) < YEOH_SERIES_SWITCH:
            theta = np.nextafter(theta, sign * math.inf)
        angles += [float(np.nextafter(theta, rest)), float(theta)]
    return angles


class TestYeohArrays:
    """The closed-form Yeoh law over whole arrays of curvature."""

    SECTION = CrossSection(0.015, 0.006)
    YEOH = Yeoh(1.0e5, 2.0e4, 0.0)
    RTOL = 1e-13

    # 17-digit references, by 30-digit mpmath quadrature of the defining
    # integrals, not of the closed form: the moment is w times the
    # integral of sigma(1 + kappa*z) * z over the thickness.  The keys
    # include the largest curvature the range check admits and the two
    # curvatures either side of the series switch (|kappa| * t/2 = 0.2).
    FROZEN_MOMENTS = {
        -299.99999999999994: -0.20500073297515343,
        -40.0: -0.0065667435680751278,
        1e-07: 1.6200000000000000e-11,
        3.162277660168379e-07: 5.1228898094727744e-11,
        12.5: 0.0020276224791744800,
        66.66666666666666: 0.011209292026989041,
        66.66666666666667: 0.011209292026989043,
        150.0: 0.029657407923508878,
        299.99999999999994: 0.20500073297515343,
    }
    # Baseline-finger bend energies: L * w times the integral over the
    # thickness of S(1 + kappa*z), S the integral of sigma from 1.  The
    # angles -4 and 7 rad take the exact branch.
    FROZEN_ENERGIES = {
        -4.0: 0.032410134313364393,
        -2.0: 0.013232976890494141,
        -0.85: 0.0061012249844757045,
        0.3: 0.0017129977548867499,
        2.5: 0.00082055495316469479,
        7.0: 0.030092654625796359,
    }
    # Chain energy and gradient at g = 9.81 and a 0.01 kg payload on
    # ``TestChainArrays._angles(n)``: the segments' bend terms as above,
    # the ring and gravity terms in mpmath, their gradient by 80-digit
    # numerical differentiation.
    FROZEN_CHAIN = {
        8: (0.015826155601005577, [
            -0.084638202902700414, -0.076667616317656791,
            -0.080538861327111080, -0.072064423701672025,
            -0.010649722248716233, -0.0024939217897141841,
            -0.0045442320794488922, 0.00035498474560106398]),
        32: (0.13166743910309542, [
            -0.48322934427113970, -0.45000204272809936, -0.47488459834474075,
            -0.44137414435920712, -0.46793797740885105, -0.43649013213827730,
            -0.44830171555788227, -0.43129604468343534, -0.45643193194396833,
            -0.42557901289232430, -0.45131028709844383, -0.44652770316420197,
            -0.44642573761477050, -0.47864058904206331, -0.44171660044970884,
            -0.47050964171094419, -0.0064926823656482651,
            -0.025294525352550904, 0.0060175784045281567,
            -0.019553376629520608, 0.010898548720637760,
            -0.0055797549670364300, 0.016313120131519997,
            -0.0095399298693636495, 0.022514166935020949,
            -0.0048494708439613172, -0.0043193913165376205,
            -0.00024451355872877139, -0.029060469093670629,
            0.0043460522097302098, -0.022320970928798047,
            -0.0030974230541060064]),
    }

    def _moment(self, kappa):
        return moment_curvature(kappa, self.SECTION, self.YEOH)

    def _yeoh_design(self, baseline):
        return replace(baseline, finger=replace(baseline.finger,
                                                material=self.YEOH))

    def test_moments_match_frozen_values(self):
        for kappa, m in self.FROZEN_MOMENTS.items():
            assert self._moment(kappa) == pytest.approx(m, rel=self.RTOL,
                                                        abs=0.0)
        kappas = list(self.FROZEN_MOMENTS)
        np.testing.assert_array_equal(
            _bits(self._moment(kappas)),
            _bits([self._moment(k) for k in kappas]))

    def test_bend_energies_match_frozen_values(self, baseline):
        finger = self._yeoh_design(baseline).finger
        for theta, e in self.FROZEN_ENERGIES.items():
            assert finger_energy_1dof(theta, finger) == pytest.approx(
                e, rel=self.RTOL, abs=0.0)
        assert finger_energy_1dof(finger.rest_angle, finger) == 0.0
        thetas = np.concatenate([np.linspace(-3.0, 3.0, 7),
                                 list(self.FROZEN_ENERGIES)])
        np.testing.assert_array_equal(
            _bits(finger_energy_1dof(thetas, finger)),
            _bits([finger_energy_1dof(t, finger) for t in thetas]))

    @pytest.mark.parametrize("n", [8, 32])
    def test_chain_matches_frozen_values(self, baseline, n):
        d = _chain_design(self._yeoh_design(baseline), n, 9.81, 0.01)
        energy, gradient = self.FROZEN_CHAIN[n]
        phi = TestChainArrays._angles(n)
        assert chain_energy(phi, d) == pytest.approx(energy, rel=self.RTOL,
                                                     abs=0.0)
        np.testing.assert_allclose(chain_gradient(phi, d), gradient,
                                   rtol=self.RTOL, atol=0.0)

    @pytest.mark.parametrize("material", [Yeoh(1.0e5), YEOH,
                                          Yeoh(8.0e4, -5.0e3, 2.0e3)])
    def test_stacked_call_equals_each_curvature(self, material):
        rng = np.random.default_rng(8)
        limit = 0.9 / (self.SECTION.thickness / 2.0)
        line = rng.uniform(-0.99, 0.99, 1000) * limit
        line[::7] *= 1e-9
        stack = rng.uniform(-0.99, 0.99, (5, 96)) * limit
        for kappas in (line, stack):
            moments = moment_curvature(kappas, self.SECTION, material)
            assert moments.shape == kappas.shape
            each = [moment_curvature(k, self.SECTION, material)
                    for k in kappas.ravel()]
            np.testing.assert_array_equal(_bits(moments).ravel(),
                                          _bits(each))
        single = self._moment(np.float64(line[3]))
        assert np.ndim(single) == 0
        assert _bits(single) == _bits(self._moment(line[3:4])[0])

    @pytest.mark.parametrize("material", [Yeoh(1.0e5), YEOH,
                                          Yeoh(8.0e4, -5.0e3, 2.0e3)])
    def test_branches_meet_at_the_series_switch(self, baseline, material):
        # Adjacent angles either side of |kappa| * t/2 = 0.2 take the
        # series and the exact form; the law moves by 2e-16 between them.
        finger = replace(self._yeoh_design(baseline).finger,
                         material=material)
        angles = np.array(_switch_angles(finger))
        kappas = (angles - finger.rest_angle) / finger.length
        for values in (moment_curvature(kappas, self.SECTION, material),
                       finger_energy_1dof(angles, finger)):
            for lo, hi in (values[:2], values[2:]):
                assert hi == pytest.approx(lo, rel=5e-14, abs=0.0)

    def test_out_of_range_raises_beside_nan(self):
        assert math.isnan(self._moment(math.nan))
        for kappas in ([math.nan, 500.0], [500.0, math.nan],
                       [[1.0, math.nan], [-500.0, 2.0]]):
            with pytest.raises(CurvatureOutOfRangeError,
                               match=r"\|kappa\|\*t/2 = 1\.5 >= 0\.9"):
                self._moment(kappas)

    def test_gradient_scan_makes_one_moment_call(self, baseline,
                                                 monkeypatch):
        calls = []

        def counting(*args):
            calls.append(np.shape(args[0]))
            return moment_curvature(*args)

        monkeypatch.setattr(model, "moment_curvature", counting)
        finger = self._yeoh_design(baseline).finger
        grid = np.linspace(-math.pi, math.pi, 4096)
        assert finger_gradient_1dof(grid, finger).shape == (4096,)
        assert calls == [(4096,)]
        calls.clear()
        finger_energy_1dof(grid[:10], finger)   # closed form, no moments
        assert calls == []

    def test_energy_scan_memory_does_not_grow_with_the_grid(self, baseline):
        # The closed form holds about a dozen arrays of the grid's length
        # at a time: its peak is 0.85 MiB at 10,001 angles.
        design = self._yeoh_design(baseline)
        grid = np.linspace(-2.5, 2.5, 10_001)
        sample_landscape(design, grid[:10])
        tracemalloc.start()
        try:
            sample_landscape(design, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestDesignInvariants:

    def test_negative_stiffness_rejected(self):
        with pytest.raises(InvalidDesignError):
            RingDesign(attach_fraction=0.5, well_center=0.0,
                       well_halfwidth=1.0, stiffness=-1.0)

    def test_attach_fraction_outside_unit_interval_rejected(self):
        with pytest.raises(InvalidDesignError):
            RingDesign(attach_fraction=1.5, well_center=0.0,
                       well_halfwidth=1.0, stiffness=1.0)

    def test_width_scale_above_one_rejected(self):
        with pytest.raises(InvalidDesignError):
            RingDesign(attach_fraction=0.5, well_center=0.0,
                       well_halfwidth=1.0, stiffness=1.0, width_scale=1.1)

    def test_int_field_is_checked_as_a_float(self):
        # 10**200 squares to an int, but its float square overflows.
        with pytest.raises(InvalidDesignError, match=r"^ring\.well_halfwidth "
                           r"must be > 0 with a finite, non-zero square, "
                           r"got 1e\+200$"):
            RingDesign(attach_fraction=0.5, well_center=0.35,
                       well_halfwidth=10 ** 200, stiffness=0.02)

    def test_nonpositive_section_rejected(self):
        with pytest.raises(InvalidDesignError):
            CrossSection(0.0, 0.006)

    def test_yeoh_without_positive_c10_rejected(self):
        with pytest.raises(InvalidDesignError):
            Yeoh(0.0, 1.0e4, 0.0)

    def test_yeoh_with_falling_uniaxial_stress_rejected(self):
        # dW/dI1 = c10 + 2*c20*(I1 - 3) turns negative before stretch 2.
        with pytest.raises(InvalidDesignError, match="non-monotonic"):
            Yeoh(1.0e5, -1.0e5, 0.0)

    @pytest.mark.parametrize("c20, c30", [(0.0, 1.0e300), (0.0, -1.1e11),
                                          (1.1e11, 0.0), (-1.1e11, 0.0)])
    def test_yeoh_coefficient_that_dwarfs_c10_rejected(self, c20, c30):
        # Beyond 1e6 times c10 the series coefficients lose c10 to
        # rounding; at c30 = 1e300 the noise put a saddle below the open
        # state.
        with pytest.raises(InvalidDesignError,
                           match="at most 1e6 times c10 in magnitude"):
            Yeoh(1.0e5, c20, c30)

    def test_yeoh_coefficient_at_the_ratio_bound_accepted(self):
        assert Yeoh(1.0e5, 0.0, 1.0e11).c30 == 1.0e11

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make", [
        lambda v: LinearElastic(v),
        lambda v: Yeoh(v),
        lambda v: Yeoh(1.0e5, v),
        lambda v: Yeoh(1.0e5, 0.0, v),
        lambda v: CrossSection(v, 0.006),
        lambda v: CrossSection(0.015, v),
    ])
    def test_non_finite_material_or_section_rejected(self, make, bad):
        with pytest.raises(InvalidDesignError, match="must be finite"):
            make(bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("record, name", [
        ("finger", "length"), ("finger", "natural_curvature"),
        ("finger", "linear_density"),
        ("ring", "attach_fraction"), ("ring", "well_center"),
        ("ring", "well_halfwidth"), ("ring", "stiffness"),
        ("ring", "width_scale"),
        (None, "inertia"), (None, "damping"), (None, "payload_mass"),
        (None, "gravity"),
    ])
    def test_non_finite_design_field_rejected(self, baseline, record, name,
                                              bad):
        with pytest.raises(InvalidDesignError):
            if record is None:
                replace(baseline, **{name: bad})
            else:
                replace(getattr(baseline, record), **{name: bad})

    @pytest.mark.parametrize("n", [True, 2.0, 0])
    def test_segment_count_must_be_a_positive_int(self, baseline, n):
        with pytest.raises(InvalidDesignError, match="n_segments"):
            replace(baseline.finger, n_segments=n)

    def test_wells_property(self):
        ring = pure_quartic_ring(center=0.35, halfwidth=1.25)
        assert ring.wells == (0.35 - 1.25, 0.35 + 1.25)


def _falls_on_arrays(c10, c20, c30):
    """The array form of the Yeoh monotonic-stress check, on a law built
    without the check: np.any(np.diff(stress) <= 0) on
    np.linspace(0.5, 2.0, 601)."""
    law = object.__new__(Yeoh)
    for name, value in zip(("c10", "c20", "c30"), (c10, c20, c30)):
        object.__setattr__(law, name, value)
    with np.errstate(over="ignore", invalid="ignore"):
        stress = law.uniaxial_stress(np.linspace(0.5, 2.0, 601))
        return bool(np.any(np.diff(stress) <= 0))


def _refused_as_falling(c10, c20, c30):
    try:
        Yeoh(c10, c20, c30)
    except InvalidDesignError as exc:
        assert "non-monotonic" in str(exc)
        return True
    return False


# c10 of a soft solid, or so large that the coefficients at the ratio
# bound overflow the stress to inf.
_C10 = st.one_of(st.floats(-3.0, 9.0), st.floats(295.0, 308.2)).map(
    lambda k: 10.0 ** k)


@st.composite
def _yeoh_near_the_check(draw):
    """(c10, c20, c30) with c20 and c30 on a ray that reaches the ratio
    bound, 1e6 * c10 (at most the largest float), or a drawn fraction of
    it: its end, or, where the stress falls there, either side of where
    it starts to fall along the ray."""
    c10 = draw(_C10)
    bound = min(1e6 * c10, 1.7976931348623157e308)
    reach = draw(st.one_of(st.just(1.0),
                           st.floats(0.0, 6.0).map(lambda k: 10.0 ** -k)))
    # Off the quadrant c20, c30 > 0, whose stress never falls.
    phi = draw(st.floats(0.5 * math.pi, 2.0 * math.pi))
    u, v = math.cos(phi), math.sin(phi)
    u, v = u / max(abs(u), abs(v)), v / max(abs(u), abs(v))

    def point(s):
        return c10, s * u * bound, s * v * bound

    if not _falls_on_arrays(*point(reach)):
        return point(reach)
    lo, hi = 0.0, reach
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if _falls_on_arrays(*point(mid)) else (mid, hi)
    return point(draw(st.sampled_from((lo, hi))))


class TestYeohMonotonicCheck:

    @hyp_settings(max_examples=150, deadline=None)
    @given(_yeoh_near_the_check())
    def test_float_verdict_is_the_array_verdict(self, coefficients):
        assert _refused_as_falling(*coefficients) == _falls_on_arrays(
            *coefficients)

    @pytest.mark.parametrize("c10, c20, c30, falls", [
        (1.0e5, -1.0e5, 0.0, True), (1.0e5, 1.0e11, -1.0e11, True),
        (1.0e5, 1.0e11, 1.0e11, False),
        # Overflow: inf and NaN differences, which do not fall, and a fall
        # next to them.
        (1.0e303, -1.7e308, 0.0, False), (1.0e303, -5.0e307, 0.0, True)])
    def test_float_verdict_on_known_laws(self, c10, c20, c30, falls):
        assert _refused_as_falling(c10, c20, c30) == falls
        assert _falls_on_arrays(c10, c20, c30) == falls


# ---------------------------------------------------------------------------
# Reduced (1-DOF) energies
# ---------------------------------------------------------------------------

class TestRingEnergy:

    def test_pure_quartic_barrier_is_k_delta_sq_over_8(self):
        ring = pure_quartic_ring(k=1.0, halfwidth=1.0)
        assert float(ring_energy_1dof(0.0, ring)) == pytest.approx(0.125)

    def test_zero_at_both_wells(self):
        ring = pure_quartic_ring(k=0.7, center=0.35, halfwidth=1.25)
        for well in ring.wells:
            assert float(ring_energy_1dof(well, ring)) == pytest.approx(
                0.0, abs=1e-15)

    def test_well_curvature_equals_effective_stiffness(self):
        ring = pure_quartic_ring(k=0.7, center=0.35, halfwidth=1.25)
        h = 1e-5
        for well in ring.wells:
            curv = (float(ring_energy_1dof(well + h, ring))
                    - 2.0 * float(ring_energy_1dof(well, ring))
                    + float(ring_energy_1dof(well - h, ring))) / h ** 2
            assert curv == pytest.approx(ring.effective_stiffness, rel=1e-4)

    def test_width_scale_scales_energy_linearly(self):
        full = pure_quartic_ring(k=0.7)
        trimmed = RingDesign(attach_fraction=0.5, well_center=0.0,
                             well_halfwidth=1.0, stiffness=0.7,
                             width_scale=0.25)
        theta = 0.4
        assert float(ring_energy_1dof(theta, trimmed)) == pytest.approx(
            0.25 * float(ring_energy_1dof(theta, full)), rel=1e-12)

    @given(st.floats(-3.0, 3.0))
    @hyp_settings(max_examples=50, deadline=None)
    def test_ring_energy_never_negative(self, theta):
        ring = pure_quartic_ring(k=0.7, center=0.35, halfwidth=1.25)
        assert float(ring_energy_1dof(theta, ring)) >= 0.0


class TestFingerEnergy:

    def test_zero_at_rest_angle(self, baseline):
        rest = baseline.finger.rest_angle
        assert float(finger_energy_1dof(rest, baseline.finger)) == 0.0

    def test_linear_closed_form(self, baseline):
        f = baseline.finger
        ei = f.bending_stiffness
        theta = 0.3
        expected = 0.5 * ei / f.length * (theta - f.rest_angle) ** 2
        assert float(finger_energy_1dof(theta, f)) == pytest.approx(
            expected, rel=1e-12)

    def test_yeoh_finger_energy_close_to_linear_equivalent(self, baseline):
        lin = baseline.finger
        e_equiv = lin.material.youngs_modulus
        yeoh = FingerDesign(length=lin.length,
                            natural_curvature=lin.natural_curvature,
                            cross_section=lin.cross_section,
                            material=Yeoh(e_equiv / 6.0, 0.0, 0.0),
                            n_segments=lin.n_segments,
                            linear_density=lin.linear_density)
        theta = 1.0
        u_lin = float(finger_energy_1dof(theta, lin))
        u_yeoh = float(finger_energy_1dof(theta, yeoh))
        assert u_yeoh == pytest.approx(u_lin, rel=2e-2)


class TestGravityEnergy:

    def test_zero_without_gravity(self, baseline):
        assert float(gravity_energy_1dof(0.7, baseline)) == 0.0

    def test_matches_segmentwise_quadrature_oracle(self, baseline):
        # Independent oracle: discretize the constant-curvature arc into
        # 20000 straight pieces and sum their centroid potentials.
        d = set_design_value(baseline, "gripper.gravity", 9.81)
        d = set_design_value(d, "gripper.payload_mass", 0.02)
        length = d.finger.length
        mass = d.finger.mass
        for theta in (-0.9, -1e-6, 0.4, 1.6):
            n = 20000
            s = (np.arange(n) + 0.5) / n
            psi = theta * s
            ds = length / n
            x_mid = np.cumsum(np.sin(psi) * ds) - 0.5 * np.sin(psi) * ds
            u_finger = -mass * 9.81 * np.mean(x_mid)
            kappa = theta / length
            if abs(theta) > 1e-9:
                x_tip = (1.0 - math.cos(theta)) / kappa
            else:
                x_tip = 0.0
            u_payload = -d.payload_mass * 9.81 * x_tip
            expected = u_finger + u_payload
            assert float(gravity_energy_1dof(theta, d)) == pytest.approx(
                expected, rel=1e-6, abs=1e-12)


class TestGradients:

    def test_1dof_gradient_matches_finite_differences(self, baseline):
        d = set_design_value(baseline, "gripper.gravity", 9.81)
        d = set_design_value(d, "gripper.payload_mass", 0.01)
        rng = np.random.default_rng(7)
        h = 1e-6
        for theta in rng.uniform(-2.5, 2.5, 100):
            g = float(gradient_1dof(theta, d))
            fd = (float(total_energy_1dof(theta + h, d))
                  - float(total_energy_1dof(theta - h, d))) / (2.0 * h)
            assert g == pytest.approx(fd, rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 4, 8, 32])
    def test_chain_gradient_matches_finite_differences(self, baseline, n):
        d = set_design_value(baseline, "finger.n_segments", n)
        d = set_design_value(d, "gripper.gravity", 9.81)
        rng = np.random.default_rng(n)
        h = 1e-5
        for _ in range(25):
            phi = rng.uniform(-0.5, 0.5, n)
            g = chain_gradient(phi, d)
            scale = max(float(np.max(np.abs(g))), 1e-12)
            for i in range(n):
                p = phi.copy()
                p[i] += h
                up = chain_energy(p, d)
                p[i] -= 2.0 * h
                um = chain_energy(p, d)
                fd = (up - um) / (2.0 * h)
                denom = max(abs(g[i]), 1e-3 * scale)
                assert abs(g[i] - fd) / denom < 1e-6

    def test_second_derivative_positive_in_wells(self, baseline):
        report = find_equilibria_1dof(baseline)
        for state, theta in ((report.open_state, -0.85),
                             (report.closed_state, 1.6)):
            assert abs(state.theta - theta) < 0.1
            assert state.curvature > 0.0

    def test_chain_hessian_is_symmetric(self, baseline):
        d = set_design_value(baseline, "finger.n_segments", 6)
        phi = np.linspace(-0.2, 0.3, 6)
        hess = chain_gradient_hessian(phi, d)[1]
        assert np.allclose(hess, hess.T, atol=1e-10)


class TestScalarClosures:
    """The float closures equal the array functions bit for bit."""

    # 100,001 angles across the window, plus both sides of the series switch
    # and the signed zeros and subnormals where a dropped 0.0 + x would flip
    # the sign of a zero.
    ANGLES = np.concatenate([
        np.linspace(-math.pi, math.pi, 100_001),
        [ARC_SERIES_SWITCH, -ARC_SERIES_SWITCH,
         np.nextafter(ARC_SERIES_SWITCH, 0.0),
         np.nextafter(-ARC_SERIES_SWITCH, 0.0), 0.0, 1e-300,
         -0.0, -1e-300, 5e-324, -5e-324]])

    @staticmethod
    def _bits(values):
        return np.asarray(values, dtype=float).view(np.int64)

    @pytest.mark.parametrize("gravity", [0.0, 9.81, -3.3])
    @pytest.mark.parametrize("payload", [0.0, 0.005])
    def test_linear_material_matches_array_form(self, baseline, gravity,
                                                payload):
        d = set_design_value(baseline, "gripper.gravity", gravity)
        d = set_design_value(d, "gripper.payload_mass", payload)
        energy, gradient = scalar_model(d)
        angles = self.ANGLES.tolist()
        np.testing.assert_array_equal(
            self._bits([gradient(t) for t in angles]),
            self._bits(gradient_1dof(self.ANGLES, d)))
        np.testing.assert_array_equal(
            self._bits([energy(t) for t in angles]),
            self._bits(total_energy_1dof(self.ANGLES, d)))
        # The array form on one angle at a time, as the solvers called it.
        for t in angles[::5003]:
            assert gradient(t) == float(gradient_1dof(t, d))
            assert energy(t) == float(total_energy_1dof(t, d))

    @pytest.mark.parametrize("gravity", [0.0, 9.81, -3.3])
    @pytest.mark.parametrize("material", [Yeoh(1.0e5), Yeoh(1.0e5, 2.0e4),
                                          Yeoh(8.0e4, -5.0e3, 2.0e3)])
    def test_yeoh_material_matches_array_form(self, baseline, gravity,
                                              material):
        # The angles reach both branches of the law: |kappa| * t/2 passes
        # 0.2 at 5.33 rad from the rest angle and the range limit at 24.
        d = replace(baseline, gravity=gravity, payload_mass=0.005,
                    finger=replace(baseline.finger, material=material))
        rest = d.finger.rest_angle
        angles = np.concatenate([
            np.linspace(rest - 23.9, rest + 23.9, 4001),
            _switch_angles(d.finger), [rest, 0.0, -0.0]])
        energy, gradient = scalar_model(d)
        np.testing.assert_array_equal(
            self._bits([gradient(t) for t in angles.tolist()]),
            self._bits(gradient_1dof(angles, d)))
        np.testing.assert_array_equal(
            self._bits([energy(t) for t in angles.tolist()]),
            self._bits(total_energy_1dof(angles, d)))
        for f in (gradient, energy):
            assert math.isnan(f(math.nan))
            for t in (rest - 24.1, rest + 24.1):
                with pytest.raises(CurvatureOutOfRangeError,
                                   match=r"\|kappa\|\*t/2 = 0\.904 >= 0\.9"):
                    f(t)

    def test_infinite_angle_gives_nan_under_gravity(self, baseline):
        d = set_design_value(baseline, "gripper.gravity", 9.81)
        for f in scalar_model(d):
            assert math.isnan(f(math.inf))
            assert math.isnan(f(-math.inf))


class TestWindowCache:
    """The grid and gravity arc terms ``window_gradient`` keeps per window
    and finger length; its bits are checked in ``tests/test_statics.py``."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        model._window_arcs.cache_clear()
        yield
        model._window_arcs.cache_clear()

    @staticmethod
    def _under_gravity(design, window):
        return replace(design, gravity=9.81, window=window)

    def test_cached_arrays_are_read_only(self, baseline):
        grid, g = window_gradient(self._under_gravity(baseline,
                                                      DEFAULT_WINDOW))
        arrays = model._window_arcs((-math.pi).hex(), math.pi.hex(), 4096,
                                    baseline.finger.length.hex())
        assert model._window_arcs.cache_info().hits == 1
        assert arrays[0] is grid
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
        g[0] = 1.0      # the gradient is the caller's

    def test_entries_stay_at_the_bound(self, baseline):
        bound = model._window_arcs.cache_info().maxsize
        for k in range(2 * bound):
            window = SolveWindow(-1.0 - 0.1 * k, 1.0, 100)
            window_gradient(self._under_gravity(baseline, window))
            assert model._window_arcs.cache_info().currsize == min(k + 1,
                                                                   bound)

    def test_signed_zero_window_starts_are_cached_apart(self, baseline):
        g = [window_gradient(self._under_gravity(
            baseline, SolveWindow(start, 1.0, 100)))[1]
            for start in (-0.0, 0.0)]
        assert model._window_arcs.cache_info().currsize == 2
        np.testing.assert_array_equal(g[0].view(np.int64),
                                      g[1].view(np.int64))

    def test_design_without_gravity_adds_no_entry(self, baseline):
        assert baseline.gravity == 0.0
        window_gradient(baseline)
        assert model._window_arcs.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# Chain model and kinematics
# ---------------------------------------------------------------------------

class TestChainReduction:

    def test_single_segment_chain_equals_reduced_model(self, baseline):
        d = set_design_value(baseline, "gripper.gravity", 9.81)
        d = set_design_value(d, "gripper.payload_mass", 0.02)
        for theta in np.linspace(-2.0, 2.5, 19):
            u1 = float(total_energy_1dof(theta, d))
            uc = chain_energy(np.array([theta]), d)
            assert uc == pytest.approx(u1, rel=1e-12, abs=1e-15)
            g1 = float(gradient_1dof(theta, d))
            gc = float(chain_gradient(np.array([theta]), d)[0])
            assert gc == pytest.approx(g1, rel=1e-9, abs=1e-12)

    def test_chain_energy_converges_with_refinement(self, baseline):
        # The uniform-curvature configuration has the same elastic energy
        # at any refinement; only gravity discretization changes.
        d = set_design_value(baseline, "gripper.gravity", 9.81)
        theta = 1.1
        u8 = chain_energy(uniform_chain(
            set_design_value(d, "finger.n_segments", 8), theta),
            set_design_value(d, "finger.n_segments", 8))
        u64 = chain_energy(uniform_chain(
            set_design_value(d, "finger.n_segments", 64), theta),
            set_design_value(d, "finger.n_segments", 64))
        u1 = float(total_energy_1dof(theta, d))
        assert abs(u64 - u1) < abs(u8 - u1) + 1e-12
        assert u64 == pytest.approx(u1, rel=1e-3)

    def test_wrong_shape_rejected(self, baseline):
        d = set_design_value(baseline, "finger.n_segments", 4)
        with pytest.raises(InvalidDesignError, match=r"shape \(3,\), "
                           r"expected \(4,\)"):
            chain_energy(np.zeros(3), d)


def _chain_design(baseline, n, gravity, payload=0.0):
    d = set_design_value(baseline, "finger.n_segments", n)
    d = set_design_value(d, "gripper.gravity", gravity)
    return set_design_value(d, "gripper.payload_mass", payload)


class TestChainArrays:
    """The chain model evaluated in whole-array passes."""

    # chain_energy and chain_gradient of the per-segment loop form they
    # replace, at g = 9.81 and a 0.01 kg payload, on ``_angles(n)``.
    FROZEN = {
        1: (0.016114423208531774, [0.020055653811418363]),
        4: (0.010948562693346119, [
            0.016455470521840772, 0.022503857264190318,
            -0.008561606895286903, -0.003089825293419613]),
        8: (0.01575068870483379, [
            -0.08437760338394612, -0.07665747690633917, -0.08035517283808379,
            -0.07206385761068489, -0.010525868645927387,
            -0.002493919169844116, -0.004534092668131239,
            0.00035481704864774154]),
        32: (0.12760081585761113, [
            -0.4749594950585915, -0.44999361709501495, -0.47010648861233606,
            -0.4414105724130241, -0.4653719068317734, -0.4367177681737419,
            -0.4482932899247979, -0.4320128905781612, -0.4559566508894827,
            -0.4272546072879122, -0.45118643349565496, -0.4465192775311176,
            -0.4464149790365556, -0.4703707398295151, -0.44171676814666216,
            -0.4657315319785395, -0.006484256732563901, -0.02272845477547324,
            0.0057899423690635585, -0.01833040544683063, 0.010181702825911826,
            -0.005571329333952065, 0.014637525735932069,
            -0.009416076266574803, 0.01918652410614024, -0.00483871226574639,
            -0.004310965683453256, -0.0002446812556820988,
            -0.024282359361265937, 0.004309624155913228, -0.01975490035172038,
            -0.0030889974210216416]),
    }

    @staticmethod
    def _angles(n):
        # Binary fractions in [-0.375, 0.375], 2**-8 (series branch) at
        # every fifth joint from the second.
        k = np.arange(n)
        phi = ((7 * k) % 13 - 6) / 16.0
        phi[1::5] = 2.0 ** -8
        return phi

    @staticmethod
    def _bits(values):
        return np.asarray(values, dtype=float).view(np.int64)

    @pytest.mark.parametrize("n", [1, 4, 8, 32])
    def test_matches_frozen_loop_values(self, baseline, n):
        d = _chain_design(baseline, n, 9.81, 0.01)
        energy, gradient = self.FROZEN[n]
        assert chain_energy(self._angles(n), d) == energy
        np.testing.assert_allclose(chain_gradient(self._angles(n), d),
                                   gradient, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("gravity", [0.0, 9.81])
    @pytest.mark.parametrize("n", [1, 3, 8, 32])
    def test_stacked_call_equals_each_chain(self, baseline, gravity, n):
        d = _chain_design(baseline, n, gravity, 0.01)
        stack = np.random.default_rng(n).uniform(-0.6, 0.6, (2, 3, n))
        stack[..., ::4] *= 0.01
        energies, grads = chain_energy(stack, d), chain_gradient(stack, d)
        hessians = chain_gradient_hessian(stack[0], d)[1]
        assert energies.shape == (2, 3) and grads.shape == (2, 3, n)
        for i, j in np.ndindex(2, 3):
            energy = chain_energy(stack[i, j], d)
            assert isinstance(energy, float)
            assert self._bits(energies[i, j]) == self._bits(energy)
            np.testing.assert_array_equal(
                self._bits(grads[i, j]),
                self._bits(chain_gradient(stack[i, j], d)))
        for j in range(3):
            np.testing.assert_array_equal(
                self._bits(hessians[j]),
                self._bits(chain_gradient_hessian(stack[0, j], d)[1]))

    @staticmethod
    def _separate_calls(phi, d):
        """The gradient and the central-difference Hessian as separate
        ``chain_gradient`` calls on phi, phi + h I and phi - h I."""
        h = model.DIFFERENCE_STEP
        rows = np.asarray(phi, dtype=float)[..., None, :]
        step = h * np.eye(rows.shape[-1])
        hess = (chain_gradient(rows + step, d)
                - chain_gradient(rows - step, d)) / (2.0 * h)
        return (chain_gradient(phi, d),
                0.5 * (hess + np.swapaxes(hess, -1, -2)))

    @pytest.mark.parametrize("material", ["linear", "yeoh"])
    @pytest.mark.parametrize("gravity", [0.0, 9.81])
    @pytest.mark.parametrize("n", [1, 8, 32])
    def test_fused_gradient_hessian_equals_separate_calls(
            self, baseline, n, gravity, material):
        d = _chain_design(baseline, n, gravity, 0.01)
        if material == "yeoh":
            d = replace(d, finger=replace(d.finger,
                                          material=Yeoh(1.0e5, 2.0e4, 0.0)))
        stack = np.random.default_rng(n).uniform(-0.6, 0.6, (2, 3, n))
        stack[..., ::4] *= 0.01
        for phi in (stack, stack[1], stack[1, 2]):
            grad, hess = chain_gradient_hessian(phi, d)
            ref_grad, ref_hess = self._separate_calls(phi, d)
            assert grad.shape == phi.shape
            assert hess.shape == phi.shape + (n,)
            np.testing.assert_array_equal(self._bits(grad),
                                          self._bits(ref_grad))
            np.testing.assert_array_equal(self._bits(hess),
                                          self._bits(ref_hess))

    def test_fused_gradient_keeps_negative_zero(self, baseline):
        # Straight rest shape, no gravity: the joints past the ring carry
        # a bend moment of EI/ell * (-0.0 - 0.0) = -0.0, which phi + 0.0
        # would turn into +0.0.
        d = set_design_value(_chain_design(baseline, 8, 0.0),
                             "finger.natural_curvature", 0.0)
        phi = np.full(8, -0.0)
        phi[::2] = 0.3
        grad, hess = chain_gradient_hessian(phi, d)
        ref_grad, ref_hess = self._separate_calls(phi, d)
        np.testing.assert_array_equal(self._bits(grad), self._bits(ref_grad))
        np.testing.assert_array_equal(self._bits(hess), self._bits(ref_hess))
        assert np.any(self._bits(grad)
                      != self._bits(chain_gradient(phi + 0.0, d)))

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_hessian_without_gravity_is_elastic_plus_ring(self, baseline, n):
        # U = sum EI/(2 ell) (phi_i - rest)^2 + U_r(w . phi / a), so the
        # Hessian is diag(EI/ell) + U_r''(w . phi / a) / a^2 * w w^T.
        d = _chain_design(baseline, n, 0.0)
        ring, a = d.ring, d.ring.attach_fraction
        w = np.clip(a * n - np.arange(n), 0.0, 1.0)
        phi = np.random.default_rng(n).uniform(-0.3, 0.5, n)
        x = float(w @ phi) / a - ring.well_center
        dd = ring.well_halfwidth ** 2
        u_r2 = ring.effective_stiffness / (2.0 * dd) * (3.0 * x * x - dd)
        ell = d.finger.length / n
        expected = (np.diag(np.full(n, d.finger.bending_stiffness / ell))
                    + u_r2 / (a * a) * np.outer(w, w))
        np.testing.assert_allclose(
            chain_gradient_hessian(phi, d)[1], expected, rtol=0.0,
            atol=1e-6 * float(np.max(np.abs(expected))))


def _digest(value):
    """First 64 bits of the sha256 of a result's type, shape and float64
    bytes."""
    arr = np.asarray(value, dtype=float)
    head = f"{type(value).__name__}{arr.shape}".encode()
    return hashlib.sha256(head + arr.tobytes()).hexdigest()[:16]


def _arc_stack(kind, n):
    """Three chains of n joint angles: every |phi| at or above
    ARC_SERIES_SWITCH ("exact"), every |phi| below it ("series"), or both
    ("mixed"), with the switch and its neighbour below among them."""
    s = ARC_SERIES_SWITCH
    below = float(np.nextafter(s, 0.0))
    k = np.arange(3 * n).reshape(3, n)
    frac = ((37 * k) % 101) / 101.0
    sign = np.where(k % 3 == 0, -1.0, 1.0)
    exact = sign * (s + 0.5 * frac)
    series = sign * s * frac
    if kind == "exact":
        exact[0, :2] = s, -s
        return exact
    if kind == "series":
        series[0, 1:3] = below, -below
        return series
    mixed = np.where(k % 4 == 1, series, exact)
    mixed[1, :2] = below, -below
    mixed[2, :2] = s, -s
    return mixed


class TestArcBits:
    """The arc kinematics keep their bits: sha256 digests of the chain
    model and of the 1-DOF gravity terms at g = 9.81 and a 0.01 kg
    payload, frozen from the form that evaluated each arc term on its own
    and picked the series or exact branch with ``np.where``.  They were
    taken with numpy 2.4 on x86-64; a numpy whose sin/cos round
    differently moves them with no change in snapgrip."""

    CHAIN = {
        "n8_exact": {
            "chain_energy": "d4e13b0e80340115",
            "chain_gradient": "7f14b9e12e970e7d",
            "chain_hessian": "2142ffef7179d25c",
        },
        "n8_series": {
            "chain_energy": "467f4d5e581bae7f",
            "chain_gradient": "957bb9aebf0b8bdb",
            "chain_hessian": "4057d3b24dbc33dc",
        },
        "n8_mixed": {
            "chain_energy": "658a452c1fdd1ea6",
            "chain_gradient": "bd8575cd5cad2987",
            "chain_hessian": "c890344dc0d09a39",
        },
        "n32_exact": {
            "chain_energy": "a500038e1c486f2b",
            "chain_gradient": "29e27e81ddca423c",
            "chain_hessian": "6d540fb2016fc2bd",
        },
        "n32_series": {
            "chain_energy": "9b456587868327a4",
            "chain_gradient": "26e0fd4f378a0ce6",
            "chain_hessian": "fbfba7e29bfe383e",
        },
        "n32_mixed": {
            "chain_energy": "19f8fda3d62836b9",
            "chain_gradient": "6d62279d519af6ea",
            "chain_hessian": "3a35720a29e712aa",
        },
    }
    GRAVITY = {
        "window_grid": {
            "gravity_energy_1dof": "19fdb8f056fdb864",
            "gravity_gradient_1dof": "bf484ee4572bf30f",
        },
        "scalar_exact": {
            "gravity_energy_1dof": "7309a196efe7a875",
            "gravity_gradient_1dof": "6a2c4ea42e2c8310",
        },
        "scalar_series": {
            "gravity_energy_1dof": "ef5f14f2b2f8d14e",
            "gravity_gradient_1dof": "294e2d08c6545e1d",
        },
    }

    @staticmethod
    def _design(baseline, n=1):
        return _chain_design(baseline, n, 9.81, 0.01)

    @staticmethod
    def _angles(where):
        if where == "window_grid":
            w = DEFAULT_WINDOW
            return np.linspace(w.theta_min, w.theta_max, w.grid_n)
        return {"scalar_exact": 0.3, "scalar_series": 0.004}[where]

    @pytest.mark.parametrize("kind", ["exact", "series", "mixed"])
    @pytest.mark.parametrize("n", [8, 32])
    def test_chain_digests(self, baseline, n, kind):
        d, phi = self._design(baseline, n), _arc_stack(kind, n)
        assert {"chain_energy": _digest(chain_energy(phi, d)),
                "chain_gradient": _digest(chain_gradient(phi, d)),
                "chain_hessian": _digest(chain_gradient_hessian(phi, d)[1])
                } == self.CHAIN[f"n{n}_{kind}"]

    @pytest.mark.parametrize(
        "where", ["window_grid", "scalar_exact", "scalar_series"])
    def test_gravity_1dof_digests(self, baseline, where):
        d, theta = self._design(baseline), self._angles(where)
        assert {f.__name__: _digest(f(theta, d)) for f in (
            gravity_energy_1dof, gravity_gradient_1dof)} == \
            self.GRAVITY[where]


def _signed_stack(n):
    """Four chains of n joint angles: small (below ARC_SERIES_SWITCH) and
    large angles of both signs, with -0.0 among them; the last chain bends
    up to about 1.5 rad a joint."""
    s = ARC_SERIES_SWITCH
    k = np.arange(4 * n).reshape(4, n)
    frac = ((37 * k) % 101) / 101.0
    sign = np.where(k % 3 == 0, -1.0, 1.0)
    phi = np.where(k % 4 == 1, sign * s * frac, sign * (s + 0.5 * frac))
    phi[k % 5 == 2] = -0.0
    phi[3] *= 3.0
    return phi


class TestChainBits:
    """The chain model keeps its bits: one sha256 over ``chain_energy``,
    ``chain_gradient`` and ``chain_gradient_hessian`` of each chain of
    ``_signed_stack(n)`` alone and of the whole stack, for n = 1, 2, 3, 8,
    32 and 64 at g = 0, 9.81 and -3 with a 0.01 kg payload.  Frozen from
    the form whose running sums went through ``np.cumsum`` and whose arc
    terms took both branches over the whole array on mixed input, with
    numpy 2.4 on x86-64."""

    DIGEST = ("48060e904d6d51ee4d63bea89123f0d3"
              "b6dc58b176abaca986831ed70f4f5ad6")

    def test_chain_model_matches_frozen_digest(self, baseline):
        digest, entries = hashlib.sha256(), 0
        for n in (1, 2, 3, 8, 32, 64):
            for gravity in (0.0, 9.81, -3.0):
                d = _chain_design(baseline, n, gravity, 0.01)
                stack = _signed_stack(n)
                for phi in (*stack, stack):
                    results = (chain_energy(phi, d), chain_gradient(phi, d),
                               *chain_gradient_hessian(phi, d))
                    for value in results:
                        arr = np.asarray(value, dtype=float)
                        digest.update(f"{type(value).__name__}{arr.shape}"
                                      .encode() + arr.tobytes())
                        entries += 1
        assert entries == 6 * 3 * 5 * 4
        assert digest.hexdigest() == self.DIGEST


class TestKinematics:

    def test_uniform_chain_tip_angle(self, baseline):
        d = set_design_value(baseline, "finger.n_segments", 16)
        phi = uniform_chain(d, 1.6)
        assert float(np.sum(phi)) == pytest.approx(1.6, rel=1e-12)

    def test_tip_chord_limits(self):
        length = 0.08
        assert float(tip_chord(0.0, length)) == pytest.approx(length)
        assert float(tip_chord(math.pi, length)) == pytest.approx(
            2.0 * length / math.pi, rel=1e-12)

    def test_tip_chord_small_angle_series_matches_exact(self):
        length = 0.08
        theta = 9.9e-5  # inside the series branch
        exact = 2.0 * length * math.sin(theta / 2.0) / theta
        assert float(tip_chord(theta, length)) == pytest.approx(
            exact, abs=1e-15)


class TestDesignPaths:

    def test_set_design_value_round_trip(self, baseline):
        d = set_design_value(baseline, "ring.stiffness", 0.5)
        assert d.ring.stiffness == 0.5
        assert baseline.ring.stiffness != 0.5  # original untouched

    def test_unknown_path_rejected(self, baseline):
        with pytest.raises(InvalidDesignError):
            set_design_value(baseline, "ring.color", 1.0)

    def test_material_path_requires_matching_model(self, baseline):
        with pytest.raises(InvalidDesignError):
            set_design_value(baseline, "material.c10", 2.0e5)


class TestLandscapeSampling:

    def test_components_sum_to_total(self, baseline):
        d = set_design_value(baseline, "gripper.gravity", 9.81)
        grid = np.linspace(-2.0, 2.5, 301)
        scape = sample_landscape(d, grid)
        assert np.allclose(scape.total,
                           scape.finger + scape.ring + scape.gravity,
                           rtol=1e-12, atol=1e-15)

    def test_grid_preserved(self, baseline):
        grid = np.linspace(-1.0, 2.0, 11)
        scape = sample_landscape(baseline, grid)
        assert np.array_equal(scape.theta_grid, grid)

    @pytest.mark.parametrize("material", [None, Yeoh(1.0e5)])
    def test_components_have_the_grid_shape(self, baseline, material):
        d = baseline if material is None else replace(
            baseline, finger=replace(baseline.finger, material=material))
        grid = np.linspace(-1.0, 2.0, 11)
        scape = sample_landscape(d, grid)
        for part in (scape.total, scape.finger, scape.ring, scape.gravity):
            assert isinstance(part, np.ndarray) and part.shape == grid.shape


class TestChainConfiguration:

    def test_as_array_copies(self):
        cfg = ChainConfiguration((0.1, 0.2))
        arr = cfg.as_array()
        arr[0] = 99.0
        assert cfg.as_array()[0] == 0.1

    def test_packed_angles_keep_their_bits(self):
        angles = np.random.default_rng(3).uniform(-1.0, 1.0, 32)
        cfg = ChainConfiguration(angles)
        np.testing.assert_array_equal(cfg.as_array(), angles)
        assert cfg == ChainConfiguration(angles.tolist())
        assert hash(cfg) == hash(ChainConfiguration(angles.tolist()))
        assert cfg != ChainConfiguration(angles[:-1])
        assert eval(repr(cfg)) == cfg

    def test_non_finite_angle_rejected(self):
        with pytest.raises(InvalidDesignError, match="finite"):
            ChainConfiguration((0.1, math.inf))

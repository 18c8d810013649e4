"""Configuration grammar, serialization, plots, and CLI contract tests."""

import argparse
import datetime
import functools
import importlib.util
import json
import math
import platform
import re
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from snapgrip import cli, explore, model
from snapgrip.config import (build_design, build_solver_settings,
                             load_config, parse_config, serialize_config)
from snapgrip.dynamics import (closing_time, minimal_trigger_impulse,
                               simulate_1dof)
from snapgrip.errors import (ConfigError, EmptyDataError, InvalidDesignError,
                             NonFiniteStateError)
from snapgrip.explore import (grip_force_estimate, reproduce_fea_cases,
                              tune_ring_width)
from snapgrip.model import (KEY_SPECS, MAX_GRID_POINTS, CrossSection,
                            FingerDesign, GripperDesign, LinearElastic,
                            RingDesign, SolveWindow, Yeoh, set_design_value,
                            total_energy_1dof)
from snapgrip.report import fmt, svg_grouped_bars, svg_line_plot
from snapgrip.statics import (continuation_ramped_load, find_equilibria_1dof,
                              snap_through_energy, trigger_moment)
from tests.conftest import (BASELINE_CFG, RECORDS, REPO_ROOT, child_env,
                            run_cli, run_main)


class TestParseConfig:

    def test_empty_file_yields_defaults(self):
        doc = parse_config("")
        assert doc == {k: s.default for k, s in KEY_SPECS.items()}
        assert doc["finger.length"] == 0.08
        assert doc["ring.stiffness"] == 0.02

    def test_comments_and_blank_lines_ignored(self):
        doc = parse_config("# a comment\n\nfinger.length = 0.1  # trailing\n")
        assert doc["finger.length"] == 0.1

    def test_curvature_override(self):
        doc = parse_config("finger.natural_curvature = 25\n")
        assert doc["finger.natural_curvature"] == 25.0

    def test_negative_stiffness_names_the_invariant(self):
        with pytest.raises(ConfigError) as err:
            parse_config("ring.stiffness = -1\n")
        (problem,) = err.value.problems
        assert "line 1" in problem
        assert "k_r >= 0" in problem

    def test_all_problems_reported_at_once(self):
        text = ("ring.stiffness = -1\n"
                "no.such.key = 3\n"
                "finger.length = abc\n"
                "finger.n_segments = 2.5\n"
                "ring.stiffness = 0.1\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        problems = err.value.problems
        assert len(problems) == 5
        assert any("line 1" in p and "k_r >= 0" in p for p in problems)
        assert any("line 2" in p and "unknown key" in p for p in problems)
        assert any("line 3" in p and "non-numeric" in p for p in problems)
        assert any("line 4" in p and "integer" in p for p in problems)
        assert any("line 5" in p and "duplicate" in p for p in problems)

    def test_missing_separator_reported_with_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("finger.length 0.08\n")
        assert "line 1" in err.value.problems[0]

    def test_non_utf8_file_is_a_config_error(self, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes("finger.length = 0.08  # r\xe9glage\n"
                         .encode("latin-1"))
        with pytest.raises(ConfigError, match="not UTF-8"):
            load_config(path)

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path,
                                                          baseline_doc):
        # Some editors save UTF-8 text with a byte-order mark in front.
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbf" + BASELINE_CFG.read_bytes())
        assert load_config(path) == baseline_doc

    def test_round_trip_is_identity(self, baseline_doc):
        assert parse_config(serialize_config(baseline_doc)) == baseline_doc

    def test_build_design_reflects_document(self, baseline_doc, baseline):
        assert baseline.ring.stiffness == baseline_doc["ring.stiffness"]
        assert baseline.finger.length == baseline_doc["finger.length"]
        assert baseline.inertia == baseline_doc["gripper.inertia"]

    def test_yeoh_material_selected_by_key(self):
        doc = parse_config("material.model = yeoh\nmaterial.c10 = 2e5\n")
        design = build_design(doc)
        assert type(design.finger.material).__name__ == "Yeoh"
        assert design.finger.material.c10 == 2e5


    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize("key", ["gripper.gravity", "ring.well_center",
                                     "material.c20", "solver.theta_min",
                                     "finger.n_segments"])
    def test_non_finite_values_rejected(self, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config(f"{key} = {value}\n")
        (problem,) = err.value.problems
        assert "line 1" in problem and "finite" in problem

    @hyp_settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.text(),
        st.lists(st.tuples(st.sampled_from(sorted(KEY_SPECS)),
                           st.one_of(st.floats().map(repr), st.text())),
                 max_size=6).map(lambda pairs: "\n".join(
                     f"{k} = {v}" for k, v in pairs))))
    def test_any_text_parses_to_finite_values_or_config_error(self, text):
        try:
            doc = parse_config(text)
        except ConfigError:
            return
        for key, value in doc.items():
            if KEY_SPECS[key].kind is not str:
                assert math.isfinite(value), key


def _expected_design(v, material):
    """The design the configuration describes, field by field."""
    return GripperDesign(
        finger=FingerDesign(
            length=v["finger.length"],
            natural_curvature=v["finger.natural_curvature"],
            cross_section=CrossSection(v["finger.width"],
                                       v["finger.thickness"]),
            material=material,
            n_segments=v["finger.n_segments"],
            linear_density=v["finger.linear_density"]),
        ring=RingDesign(
            attach_fraction=v["ring.attach_fraction"],
            well_center=v["ring.well_center"],
            well_halfwidth=v["ring.well_halfwidth"],
            stiffness=v["ring.stiffness"],
            width_scale=v["ring.width_scale"]),
        inertia=v["gripper.inertia"],
        damping=v["gripper.damping"],
        payload_mass=v["gripper.payload_mass"],
        gravity=v["gripper.gravity"])


class TestRegistry:

    def test_build_design_on_baseline_and_empty_configs(self, baseline_doc):
        for v in (baseline_doc, parse_config("")):
            expected = _expected_design(
                v, LinearElastic(v["material.youngs_modulus"]))
            assert build_design(v) == expected

    def test_build_design_on_yeoh_config(self):
        v = parse_config("material.model = yeoh\nmaterial.c10 = 2e5\n"
                         "material.c20 = 1e3\nfinger.n_segments = 4\n"
                         "gripper.gravity = 9.81\n")
        assert build_design(v) == _expected_design(v, Yeoh(2e5, 1e3, 0.0))

    def test_solver_settings_take_the_solver_keys(self, baseline_doc):
        s = build_solver_settings(baseline_doc)
        assert (s.dt, s.t_end, s.impulse_factor, s.object_halfwidth) == \
            (2e-5, 0.1, 5.0, 0.076)
        assert build_design(baseline_doc).window == SolveWindow(-math.pi,
                                                                math.pi, 4096)

    @pytest.mark.parametrize("model", ["linear", "yeoh"])
    def test_set_design_value_agrees_with_build_design(self, model):
        doc = parse_config(f"material.model = {model}\n")
        design = build_design(doc)
        new_values = {"finger.n_segments": 3, "material.c20": 500.0,
                      "material.c30": 10.0, "gripper.gravity": 9.81,
                      "gripper.payload_mass": 0.01}
        linear_only = {"material.youngs_modulus"}
        yeoh_only = {"material.c10", "material.c20", "material.c30"}
        skip = yeoh_only if model == "linear" else linear_only
        for key in KEY_SPECS:
            if key.startswith("solver.") or key in skip \
                    or key == "material.model":
                continue
            value = new_values.get(key, 0.5 * doc[key])
            expected = build_design({**doc, key: value})
            assert set_design_value(design, key, value) == expected, key

    def test_window_keys_set_the_design_window(self, baseline_doc, baseline):
        values = {"solver.theta_min": -2.0, "solver.theta_max": 2.5,
                  "solver.grid_n": 1000}
        d = baseline
        for key, value in values.items():
            d = set_design_value(d, key, value)
        assert d.window == SolveWindow(-2.0, 2.5, 1000)
        assert d == build_design({**baseline_doc, **values})
        assert not hasattr(build_solver_settings(baseline_doc), "grid_n")

    @pytest.mark.parametrize("path, value", [
        ("finger.n_segments", 2.5), ("finger.n_segments", True),
        ("finger.n_segments", math.nan), ("finger.n_segments", math.inf),
        ("solver.grid_n", 4096.5)])
    def test_integer_key_refuses_other_values(self, baseline, path, value):
        rule = "must be an integer" if math.isfinite(value) \
            else "must be finite"
        with pytest.raises(InvalidDesignError, match=re.escape(
                f"{path} {rule}, got {value!r}") + "$"):
            set_design_value(baseline, path, value)

    def test_integer_key_takes_a_whole_float(self, baseline):
        d = set_design_value(baseline, "finger.n_segments", 3.0)
        assert d.finger.n_segments == 3
        assert type(d.finger.n_segments) is int

    def test_integer_key_reads_whole_number_text(self, baseline):
        # "3.0" passes a whole-number test; int("3.0") would not.
        d = set_design_value(baseline, "finger.n_segments", "3.0")
        assert d.finger.n_segments == 3
        assert type(d.finger.n_segments) is int

    def test_int_beyond_the_float_range_is_refused_as_inf(self, baseline):
        # As the config text 1e400 is; an integer key takes any int.
        huge = 10 ** 400
        for make in (
                lambda: set_design_value(baseline, "ring.stiffness", huge),
                lambda: explore.SweepSpec(
                    parameters=(("ring.stiffness", (1.0, -huge)),)),
                lambda: RingDesign(0.5, 0.35, 1.25, huge)):
            with pytest.raises(InvalidDesignError, match=r"^ring\.stiffness "
                               r"must be finite, got -?inf$"):
                make()
        d = set_design_value(baseline, "finger.n_segments", huge)
        assert d.finger.n_segments == huge

    def test_material_key_of_another_law_is_refused(self, baseline_doc):
        # Only material.model picks the law, in either direction.
        yeoh_doc = parse_config("material.model = yeoh\nmaterial.c20 = 1e3\n")
        linear, yeoh = build_design(baseline_doc), build_design(yeoh_doc)
        for design, key, needs, uses in (
                (yeoh, "material.youngs_modulus", "LinearElastic", "Yeoh"),
                (linear, "material.c10", "Yeoh", "LinearElastic")):
            with pytest.raises(InvalidDesignError, match=re.escape(
                    f"{key} requires a {needs} material, design uses "
                    f"{uses}") + "$"):
                set_design_value(design, key, 5e5)
        # A key of the design's own law sets that one field.
        for doc, key in ((baseline_doc, "material.youngs_modulus"),
                         (yeoh_doc, "material.c10")):
            assert set_design_value(build_design(doc), key, 5e5) == \
                build_design({**doc, key: 5e5})
        d = set_design_value(yeoh, "material.c10", 5e5)
        assert d.finger.material == Yeoh(5e5, 1e3, 0.0)

    def test_solver_key_is_not_a_design_path(self, baseline):
        for path in ("solver.dt", "material.model"):
            with pytest.raises(InvalidDesignError, match="unknown"):
                set_design_value(baseline, path, 1.0)

    # A value that breaks each design key's rule; a rule that only refuses
    # non-finite values gets NaN.
    BREAKS_RULE = {
        "finger.length": -1.0, "finger.natural_curvature": math.nan,
        "finger.width": 0.0, "finger.thickness": -1.0,
        "finger.n_segments": 0, "finger.linear_density": -1.0,
        "material.youngs_modulus": 0.0, "material.c10": -1.0,
        "material.c20": math.nan, "material.c30": math.nan,
        "ring.attach_fraction": 1.5, "ring.well_center": math.nan,
        "ring.well_halfwidth": 1e-170, "ring.stiffness": -1.0,
        "ring.width_scale": 0.0, "gripper.inertia": 0.0,
        "gripper.damping": -1.0, "gripper.payload_mass": -1.0,
        "gripper.gravity": math.nan, "solver.theta_min": math.nan,
        "solver.theta_max": math.nan, "solver.grid_n": 99}

    @pytest.mark.parametrize("key", [
        key for key, spec in KEY_SPECS.items() if spec.field is not None])
    def test_config_and_records_refuse_by_the_same_rule(self, key):
        spec = KEY_SPECS[key]
        assert spec.rule
        # Each break value with the rule it breaks: the key's own, then
        # the integer test of an integer key and the finite test.
        breaks = [(self.BREAKS_RULE[key], spec.rule)]
        if spec.kind is int:
            breaks.append((2.5, "must be an integer"))
        breaks += [(math.nan, "must be finite"), (math.inf, "must be finite")]
        model = "yeoh" if key.startswith("material.c") else "linear"
        design = build_design(parse_config(f"material.model = {model}\n"))
        for value, rule in breaks:
            with pytest.raises(ConfigError) as err:
                parse_config(f"# first line\n{key} = {value!r}\n")
            for raw in (value, repr(value)):    # a number and its text
                with pytest.raises(InvalidDesignError) as refused:
                    set_design_value(design, key, raw)
                message = str(refused.value)
                assert message == f"{key} {rule}, got {value!r}"
                assert err.value.problems == [f"line 2: {message}"]
        # A whole number, as a number and as text, and text that is not a
        # number are read as a config reads their text: stored with the
        # same value and type, or refused with the same text.
        for raw in (3.0, "3.0", "abc"):
            try:
                read = parse_config(f"{key} = {raw}\n")[key]
            except ConfigError as exc:
                (read,) = exc.problems
            try:
                stored = functools.reduce(getattr, spec.field.split("."),
                                          set_design_value(design, key, raw))
            except InvalidDesignError as exc:
                stored = f"line 1: {exc}"
            assert (stored, type(stored)) == (read, type(read))

    def test_records_default_to_the_key_defaults(self):
        v = parse_config("")
        design = GripperDesign(
            finger=FingerDesign(
                v["finger.length"], v["finger.natural_curvature"],
                CrossSection(v["finger.width"], v["finger.thickness"]),
                LinearElastic(v["material.youngs_modulus"])),
            ring=RingDesign(v["ring.attach_fraction"], v["ring.well_center"],
                            v["ring.well_halfwidth"], v["ring.stiffness"]),
            window=SolveWindow(v["solver.theta_min"], v["solver.theta_max"]))
        assert design == build_design(parse_config(""))
        yeoh = build_design(parse_config("material.model = yeoh\n"))
        assert Yeoh(v["material.c10"]) == yeoh.finger.material

    def test_two_rule_problems_give_two_lines(self):
        with pytest.raises(ConfigError) as err:
            parse_config("finger.length = -1\nring.well_halfwidth = 1e-170\n")
        problems = err.value.problems
        assert len(problems) == 2
        assert problems[0].startswith("line 1: finger.length ")
        assert problems[1].startswith("line 2: ring.well_halfwidth ")


class TestFormatting:

    def test_floats_round_trip_through_17_digits(self):
        value = 0.018855386813254223
        assert float(fmt(value)) == value

    def test_nan_formats_empty_and_bools_lowercase(self):
        assert fmt(math.nan) == ""
        assert fmt(True) == "true"
        assert fmt(False) == "false"


class TestSvg:

    def test_two_point_landscape_polyline(self):
        svg = svg_line_plot([0.0, 1.0], {"U": [0.0, 2.0]},
                            "theta (rad)", "U (J)")
        assert svg.startswith('<?xml version="1.0"')
        assert svg.count("<polyline") == 1
        points = svg.split('points="')[1].split('"')[0]
        assert len(points.split()) == 2

    def test_markers_rendered_as_circles(self):
        svg = svg_line_plot([0.0, 0.5, 1.0], {"U": [1.0, 0.0, 1.0]},
                            "x", "y", markers=[(0.5, 0.0, "min")])
        assert svg.count("<circle") == 1

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyDataError):
            svg_line_plot([], {}, "x", "y")

    def test_no_finite_values_rejected(self):
        with pytest.raises(EmptyDataError, match="no finite values"):
            svg_line_plot([0.0, 1.0], {"U": [math.nan, math.inf]}, "x", "y")
        with pytest.raises(EmptyDataError, match="no finite values"):
            svg_grouped_bars(["a"], {"u": [math.nan]}, "J")
        with pytest.raises(EmptyDataError, match="nothing to plot"):
            svg_grouped_bars([], {"u": []}, "J")

    def test_constant_data_spans_one_unit(self):
        # Constant x and y each get the range [v, v + 1], so the points
        # sit at the lower-left corner of the plot area.
        svg = svg_line_plot([2.0, 2.0], {"U": [0.5, 0.5]}, "x", "y")
        points = svg.split('points="')[1].split('"')[0]
        assert points == "70.00,370.00 70.00,370.00"
        bars = svg_grouped_bars(["a"], {"u": [0.0]}, "J")
        assert 'y="370.00" width="396.00" height="0.00"' in bars

    @pytest.mark.parametrize("values", [
        [-3e15, -3e15],     # a 0.2 step where floats are 0.5 apart
        [1e16, 1e16 + 4],   # a 1.0 step where floats are 2 apart
        [1e20, 1e20],       # v + 1 == v
        [-1e308, 1e308],    # the range overflows
        [0.0, 1.7976931348623157e308],  # so does its end plus a tolerance
        [0.0, 1e-323],      # a fifth of the range rounds to 0
        # Steps of 1e-51 where floats are 6.7e-52 apart: each step moves
        # t by one float, and the range holds 8 floats.
        [3.042554788940707e-36, 3.042554788940712e-36],
    ])
    def test_extreme_data_gets_a_finite_axis(self, values):
        for svg in (svg_line_plot([0.0, 1.0], {"U": values}, "x", "y"),
                    svg_line_plot(values, {"U": [0.0, 1.0]}, "x", "y"),
                    svg_grouped_bars(["a", "b"], {"u": values}, "J")):
            assert "nan" not in svg and "inf" not in svg
            x_ticks = [float(v) for v in
                       re.findall(r'<line x1="([^"]+)" y1="370"', svg)]
            y_ticks = [float(v) for v in
                       re.findall(r'<line x1="65" y1="([^"]+)"', svg)]
            for ticks in ([x_ticks] if "<polyline" in svg else []) + [
                    [-py for py in y_ticks]]:
                assert 1 <= len(ticks) <= 7
                assert ticks == sorted(set(ticks))

    def test_grouped_bars_structure(self):
        svg = svg_grouped_bars(["a", "b"], {"u": [1.0, 2.0],
                                            "v": [0.5, 0.7]}, "J")
        # 2 groups x 2 series bars plus the white background rectangle.
        assert svg.count("<rect") == 5

    def test_identical_input_identical_bytes(self):
        args = ([0.0, 1.0, 2.0], {"U": [0.5, 0.1, 0.9]}, "x", "y")
        assert svg_line_plot(*args) == svg_line_plot(*args)


def write_config(directory, overrides):
    """``directory/run.cfg``: the baseline configuration with the keys of
    ``overrides`` replaced."""
    lines = [line for line in BASELINE_CFG.read_text().splitlines()
             if line.partition("=")[0].strip() not in overrides]
    lines += [f"{key} = {value}" for key, value in overrides.items()]
    cfg = directory / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    return cfg


class TestCli:

    def test_snapthrough_matches_library_value(self, tmp_path, baseline):
        res = run_main("snapthrough", "--config", str(BASELINE_CFG),
                       "--out", str(tmp_path), cwd=tmp_path)
        assert res.returncode == 0
        assert float(res.stdout.strip()) == pytest.approx(
            snap_through_energy(baseline), rel=1e-12)
        csv = (tmp_path / "snapthrough.csv").read_text()
        assert "\r" not in csv
        manifest = (tmp_path / "run_manifest.txt").read_text()
        for key in ("config_sha256", "tool_version", "python_version",
                    "numpy_version", "command", "timestamp", "outputs"):
            assert key in manifest

    def test_manifest_records_the_python_version_and_utc_time(self,
                                                               tmp_path):
        res = run_main("snapthrough", "--config", str(BASELINE_CFG),
                       "--out", str(tmp_path), cwd=tmp_path)
        assert res.returncode == 0
        fields = dict(line.split(" = ", 1) for line in (
            tmp_path / "run_manifest.txt").read_text().splitlines())
        assert fields["python_version"] == platform.python_version()
        stamp = datetime.datetime.strptime(fields["timestamp"],
                                           "%Y-%m-%dT%H:%M:%SZ")
        now = datetime.datetime.now(datetime.timezone.utc)
        assert abs(now.replace(tzinfo=None) - stamp).total_seconds() < 60

    def test_monostable_design_exits_2_without_traceback(self, tmp_path):
        cfg = tmp_path / "mono.cfg"
        cfg.write_text("ring.stiffness = 0\n")
        res = run_main("snapthrough", "--config", str(cfg),
                       "--out", str(tmp_path), cwd=tmp_path)
        assert res.returncode == 2
        assert "not bistable" in res.stderr
        assert "Traceback" not in res.stderr

    def test_equilibria_on_monostable_design_succeeds(self, tmp_path):
        cfg = tmp_path / "mono.cfg"
        cfg.write_text("ring.stiffness = 0\n")
        res = run_main("equilibria", "--config", str(cfg),
                       "--out", str(tmp_path), cwd=tmp_path)
        assert res.returncode == 0
        lines = (tmp_path / "equilibria.csv").read_text().splitlines()
        assert len(lines) == 2  # header plus the single rest state

    def test_bad_config_value_exits_2_with_line_number(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("ring.stiffness = -1\n")
        res = run_main("equilibria", "--config", str(cfg),
                       "--out", str(tmp_path), cwd=tmp_path)
        assert res.returncode == 2
        assert "line 1" in res.stderr

    def test_missing_config_flag_exits_1(self, tmp_path):
        res = run_main("equilibria", cwd=tmp_path)
        assert res.returncode == 1
        assert "usage:" in res.stderr
        assert "Traceback" not in res.stderr

    def test_unknown_command_exits_1(self, tmp_path):
        res = run_main("frobnicate", "--config", str(BASELINE_CFG),
                       cwd=tmp_path)
        assert res.returncode == 1
        assert "usage:" in res.stderr
        assert "Traceback" not in res.stderr

    def test_missing_config_file_exits_2(self, tmp_path):
        res = run_main("equilibria", "--config", str(tmp_path / "no.cfg"),
                       "--out", str(tmp_path), cwd=tmp_path)
        assert res.returncode == 2

    def test_trajectory_csv_headers(self, tmp_path):
        res = run_main("simulate", "--theta0", "-0.85", "--omega0", "5",
                       "--config", str(BASELINE_CFG),
                       "--out", str(tmp_path), cwd=tmp_path)
        assert res.returncode == 0
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,theta,omega,U,kinetic,dissipated"

    def test_trajectory_energy_columns(self, tmp_path, baseline):
        res = run_main("simulate", "--theta0", "-0.85", "--omega0", "5",
                       "--t-end", "0.02", "--config", str(BASELINE_CFG),
                       "--out", str(tmp_path), cwd=tmp_path)
        assert res.returncode == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
        assert len(lines) == 1001
        for line in lines:
            _, theta, omega, u, kinetic, _ = map(float, line.split(","))
            expected = 0.5 * baseline.inertia * omega ** 2
            assert abs(kinetic - expected) <= math.ulp(expected)
            assert u == pytest.approx(total_energy_1dof(theta, baseline),
                                      rel=1e-12)

    def test_landscape_is_byte_deterministic(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            out.mkdir()
            res = run_main("landscape", "--plot", "--config",
                           str(BASELINE_CFG), "--out", str(out), cwd=tmp_path)
            assert res.returncode == 0
            outs.append(out)
        assert (outs[0] / "landscape.csv").read_bytes() == \
            (outs[1] / "landscape.csv").read_bytes()
        assert (outs[0] / "landscape.svg").read_bytes() == \
            (outs[1] / "landscape.svg").read_bytes()

    def test_sweep_rows_and_budget_error(self, tmp_path):
        res = run_main("sweep", "--param", "ring.stiffness=0.08:0.16:5",
                       "--no-closing-time", "--no-grip-force",
                       "--config", str(BASELINE_CFG),
                       "--out", str(tmp_path), cwd=tmp_path)
        assert res.returncode == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 6

        cfg = tmp_path / "budget.cfg"
        cfg.write_text(BASELINE_CFG.read_text() + "solver.sweep_budget = 4\n")
        out = tmp_path / "over_budget"
        out.mkdir()
        res = run_main("sweep", "--param", "ring.stiffness=0.08:0.16:5",
                       "--no-closing-time", "--no-grip-force",
                       "--config", str(cfg), "--out", str(out), cwd=tmp_path)
        assert res.returncode == 2
        assert "budget" in res.stderr
        assert "Traceback" not in res.stderr
        assert not (out / "sweep.csv").exists()

    def test_oversized_sweep_range_is_refused_before_allocation(self,
                                                               tmp_path):
        # 10**15 float64 values would take 7.1 PiB.
        res = run_main("sweep", "--param",
                       f"ring.stiffness=0.1:0.2:{10 ** 15}",
                       "--config", str(BASELINE_CFG),
                       "--out", str(tmp_path), cwd=tmp_path)
        assert res.returncode == 2
        assert res.stderr.splitlines() == [
            "snapgrip: error: sweep would evaluate at least "
            "1000000000000000 design points, budget is 1000000"]
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("param", ["ring.stiffness=abc",
                                       "ring.stiffness=0.1:0.2:x",
                                       "ring.well_center=nan",
                                       "ring.well_center=1:inf:3",
                                       "ring.stiffness=0.1:0.2:0",
                                       "ring.stiffness",
                                       "ring.stiffness=0.1:0.2"])
    def test_bad_or_empty_sweep_exits_2_without_table(self, tmp_path, param):
        res = run_main("sweep", "--param", param,
                       "--config", str(BASELINE_CFG),
                       "--out", str(tmp_path), cwd=tmp_path)
        assert res.returncode == 2
        assert len(res.stderr.splitlines()) == 1
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "sweep.csv").exists()
        if param == "ring.well_center=nan":     # refused by the key's rule
            assert res.stderr == ("snapgrip: error: ring.well_center must "
                                  "be finite, got nan\n")

    @pytest.mark.parametrize("impulse", ["-1", "0"])
    def test_non_positive_impulse_exits_2(self, tmp_path, impulse):
        res = run_main("closingtime", "--impulse", impulse,
                       "--config", str(BASELINE_CFG),
                       "--out", str(tmp_path), cwd=tmp_path)
        assert res.returncode == 2
        assert len(res.stderr.splitlines()) == 1
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "closingtime.csv").exists()

    @pytest.mark.parametrize("argv, overrides", [
        (["continuation", "--tau-max", "0.05", "--steps", "5"], {}),
        (["tunering", "--target-barrier", "-1"], {}),
        (["simulate", "--theta0", "-0.85", "--t-end", "1e-6"], {}),
        (["equilibria"], {"solver.theta_min": "1", "solver.theta_max": "-1"}),
        (["equilibria"], {"gripper.gravity": "nan"}),
        (["gripforce", "--object-halfwidth", "nan"], {}),
        (["gripforce", "--object-halfwidth", "-1"], {}),
        (["landscape", "--n", "0"], {}),
        (["landscape", "--n", "-5"], {}),
        (["simulate", "--theta0", "nan", "--t-end", "0.001"], {}),
        (["simulate", "--theta0", "-0.85", "--omega0", "nan"], {}),
        (["simulate", "--theta0", "-0.85", "--omega0", "inf"], {}),
        (["simulate", "--theta0", "-0.85", "--omega0", "1e200",
          "--t-end", "0.001"], {"gripper.gravity": "9.81"}),
        (["simulate", "--theta0", "-0.85", "--t-end", "inf"], {}),
        (["simulate", "--theta0", "-0.85", "--dt", "1e-300"], {}),
        (["simulate", "--theta0", "-0.85", "--t-end", "1e300"], {}),
        (["continuation", "--tau-max", "inf"], {}),
        (["closingtime"], {"gripper.inertia": "1e-11"}),
        (["landscape", "--n", str(MAX_GRID_POINTS + 1)], {}),
        (["continuation", "--tau-max", "0.05",
          "--steps", str(MAX_GRID_POINTS + 1)], {}),
        (["equilibria"], {"solver.grid_n": str(MAX_GRID_POINTS + 1)}),
        (["equilibria"], {"finger.thickness": "1e300"}),
        (["equilibria"], {"ring.well_halfwidth": "1e-300"}),
        (["equilibria"], {"ring.well_halfwidth": "1e300"}),
        (["equilibria"], {"solver.theta_max": "1e300"}),
        (["equilibria"], {"ring.well_center": "1e300"}),
        (["landscape"], {"solver.theta_max": "1e300"}),
        (["landscape"], {"ring.well_center": "1e300"}),
        # 200 halvings of a grid cell leave a bracket 1.5e16 rad wide.
        (["equilibria"], {"solver.theta_max": "1e80"}),
        # The window holds only the saddle: its grid's curvature bounds dt.
        (["simulate", "--theta0", "0.3", "--dt", "2e-3", "--t-end", "0.1"],
         {"solver.theta_min": "0.0", "solver.theta_max": "0.6"}),
        # c30 / c10 = 1e295 would leave c10 below the rounding of the Yeoh
        # series coefficients: the law is refused when it is built.
        (["snapthrough"], {"material.model": "yeoh", "material.c30": "1e300"}),
        (["closingtime"], {"material.model": "yeoh", "material.c30": "1e300"}),
        (["equilibria"], {"material.model": "yeoh", "material.c30": "1e300"}),
        (["landscape", "--plot"],
         {"material.model": "yeoh", "material.c30": "1e300"}),
        # Every energy is near 6.48e28 J, and the snap-through barrier
        # rounds to 0.
        *[([cmd], {"finger.natural_curvature": "1e17",
                   "ring.stiffness": "9e13"})
          for cmd in ("snapthrough", "trigger", "equilibria")],
    ])
    def test_bad_argument_exits_2_with_one_line(self, tmp_path, argv,
                                                overrides):
        cfg = write_config(tmp_path, overrides)
        res = run_main(*argv, "--config", str(cfg), "--out", str(tmp_path),
                       cwd=tmp_path)
        assert res.returncode == 2
        assert len(res.stderr.splitlines()) == 1
        assert res.stderr.startswith("snapgrip: error: ")
        assert "Traceback" not in res.stderr
        assert not list(tmp_path.glob("*.csv"))

    def test_yeoh_stress_past_the_float_range_is_refused(self, tmp_path):
        # Stress inf, NaN, then -inf on the stretch grid: no difference is
        # <= 0, and the law is refused when it is built.
        cfg = write_config(tmp_path, {"material.model": "yeoh",
                                      "material.c10": "1e303",
                                      "material.c20": "-1.7e308"})
        res = run_main("snapthrough", "--config", str(cfg), "--out",
                       str(tmp_path / "out"), cwd=tmp_path)
        assert res.returncode == 2
        assert res.stderr.splitlines() == [
            "snapgrip: error: Yeoh coefficients give a uniaxial stress that "
            "is not finite on stretch in [0.5, 2.0], got c10 = 1e+303, "
            "c20 = -1.7e+308, c30 = 0.0"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("stiffness", ["8e13", "9e13"])
    def test_continuation_refuses_a_barrier_lost_to_rounding(
            self, tmp_path, baseline, stiffness):
        # Every energy is near 6.48e28 J: the continuation is refused with
        # the equilibrium report's line, as every other analysis is.
        overrides = {"finger.natural_curvature": "1e17",
                     "ring.stiffness": stiffness}
        d = baseline
        for key, value in overrides.items():
            d = set_design_value(d, key, float(value))
        with pytest.raises(NonFiniteStateError,
                           match="the energy has lost its precision") as err:
            find_equilibria_1dof(d)
        out = tmp_path / "out"
        res = run_main("continuation", "--tau-max", "1e14", "--steps", "20",
                       "--config", str(write_config(tmp_path, overrides)),
                       "--out", str(out), cwd=tmp_path)
        assert res.returncode == 2
        assert res.stderr == f"snapgrip: error: {err.value}\n"
        assert not out.exists()

    def test_fractional_segment_count_in_sweep_exits_2(self, tmp_path,
                                                       monkeypatch):
        # Every value is read before the first design point is solved.
        calls = []
        metrics = explore.design_metrics

        def counted(*args, **kwargs):
            calls.append(args[0])
            return metrics(*args, **kwargs)

        monkeypatch.setattr(explore, "design_metrics", counted)
        res = run_main("sweep", "--param", "finger.n_segments=2,3,2.5",
                       "--config", str(BASELINE_CFG),
                       "--out", str(tmp_path), cwd=tmp_path)
        assert res.returncode == 2
        assert res.stderr == ("snapgrip: error: finger.n_segments must be "
                              "an integer, got 2.5\n")
        assert not (tmp_path / "sweep.csv").exists()
        assert calls == []

    def test_sweep_refusal_names_the_key(self, tmp_path):
        res = run_main("sweep", "--param", "finger.length=0.08,-1",
                       "--config", str(BASELINE_CFG),
                       "--out", str(tmp_path), cwd=tmp_path)
        assert res.returncode == 2
        assert res.stderr == ("snapgrip: error: finger.length must be "
                              "finite and > 0, got -1.0\n")
        assert not (tmp_path / "sweep.csv").exists()

    def test_material_key_of_another_law_in_sweep_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"material.model": "yeoh"})
        res = run_main("sweep", "--param", "material.youngs_modulus=5e5,6e5",
                       "--config", str(cfg), "--out", str(tmp_path),
                       cwd=tmp_path)
        assert res.returncode == 2
        assert res.stderr == ("snapgrip: error: material.youngs_modulus "
                              "requires a LinearElastic material, design "
                              "uses Yeoh\n")
        assert not (tmp_path / "sweep.csv").exists()

    def test_repeated_sweep_path_exits_2_without_table(self, tmp_path):
        res = run_main("sweep", "--param", "gripper.gravity=1,2",
                       "--param", "gripper.gravity=3",
                       "--config", str(BASELINE_CFG), "--out", "out",
                       cwd=tmp_path)
        assert res.returncode == 2
        assert res.stderr.splitlines() == [
            "snapgrip: error: sweep parameter 'gripper.gravity' is given "
            "more than once"]
        assert not (tmp_path / "out").exists()

    def test_ring_trim_below_its_tolerance_exits_2(self, tmp_path):
        # A monostable ring, barrier 0, would meet the target within 1e-9 J.
        res = run_main("tunering", "--target-barrier", "1e-300",
                       "--config", str(BASELINE_CFG),
                       "--out", str(tmp_path), cwd=tmp_path)
        assert res.returncode == 2
        assert res.stderr == (
            "snapgrip: error: target barrier 1e-300 J is below the trim "
            "tolerance 1e-09 J, which a monostable ring meets\n")
        assert not (tmp_path / "tunering.csv").exists()

    def test_failed_run_creates_no_output_directory(self, tmp_path):
        res = run_main("sweep", "--param", "finger.n_segments=2.5,3",
                       "--config", str(BASELINE_CFG), "--out", "o2",
                       cwd=tmp_path)
        assert res.returncode == 2
        assert not (tmp_path / "o2").exists()

    def test_continuation_leaving_the_window_exits_2(self, tmp_path):
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text(BASELINE_CFG.read_text() + "solver.theta_max = 1.0\n")
        res = run_main("continuation", "--tau-max", "0.05", "--config",
                       str(cfg), "--out", "out", cwd=tmp_path)
        assert res.returncode == 2
        assert len(res.stderr.splitlines()) == 1
        assert "left the solve window" in res.stderr
        assert not (tmp_path / "out").exists()

    def test_continuation_without_a_stable_start_exits_2(self, tmp_path):
        # The window holds the saddle (0.306 rad) and neither well.
        cfg = write_config(tmp_path, {"solver.theta_min": "0.0",
                                      "solver.theta_max": "0.6"})
        res = run_main("continuation", "--tau-max", "0.05", "--config",
                       str(cfg), "--out", "out", cwd=tmp_path)
        assert res.returncode == 2
        assert res.stderr == ("snapgrip: error: no stable equilibrium to "
                              "start from\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mistake", ["config_is_a_directory",
                                         "out_is_a_file",
                                         "config_is_not_utf8"])
    def test_file_mistakes_exit_2_with_one_line(self, tmp_path, mistake):
        config, out = BASELINE_CFG, tmp_path / "out"
        if mistake == "config_is_a_directory":
            config = tmp_path
        elif mistake == "out_is_a_file":
            out.write_text("")
        else:
            config = tmp_path / "latin1.cfg"
            config.write_bytes("# r\xe9glage\n".encode("latin-1")
                               + BASELINE_CFG.read_bytes())
        res = run_main("snapthrough", "--config", str(config),
                       "--out", str(out), cwd=tmp_path)
        assert res.returncode == 2
        assert len(res.stderr.splitlines()) == 1
        assert res.stderr.startswith("snapgrip: error: ")
        assert "Traceback" not in res.stderr
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("argv", [
        ["snapthrough"], ["trigger"], ["closingtime"], ["gripforce"],
        ["tunering", "--target-barrier", "0.005"], ["feacases"]])
    def test_narrow_window_reaches_every_two_well_subcommand(self, tmp_path,
                                                              argv):
        # With theta_max = 1 the closed state (1.6 rad) is outside the
        # window, so no subcommand may find two wells.
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text(BASELINE_CFG.read_text() + "solver.theta_max = 1.0\n")
        res = run_main(*argv, "--config", str(cfg), "--out", str(tmp_path),
                       cwd=tmp_path)
        assert res.returncode == 2
        assert len(res.stderr.splitlines()) == 1
        assert "not bistable" in res.stderr
        assert "Traceback" not in res.stderr
        assert not list(tmp_path.glob("*.csv"))

    def test_failed_trend_writes_its_tables_and_manifest(self, tmp_path):
        # A high, trimmed ring: three variants are monostable, so their
        # bars are left out, and no equal-barrier move gains grip force.
        cfg = write_config(tmp_path, {"ring.attach_fraction": "0.8",
                                      "ring.width_scale": "0.15"})
        out = tmp_path / "out"
        res = run_main("feacases", "--plot", "--config", str(cfg),
                       "--out", str(out), cwd=tmp_path)
        assert res.returncode == 2
        assert res.stderr == ("snapgrip: error: one or more trend "
                              "assertions failed\n")
        assert ("FAIL force_up_at_equal_barrier: no sweep point matched\n"
                in res.stdout)
        assert sorted(p.name for p in out.iterdir()) == [
            "feacases.csv", "feacases.svg", "feacases.txt",
            "run_manifest.txt"]
        manifest = (out / "run_manifest.txt").read_text()
        assert ("outputs = feacases.txt;feacases.csv;feacases.svg\n"
                in manifest)
        # 2 bistable cases x 3 series bars plus the white background.
        assert (out / "feacases.svg").read_text().count("<rect") == 7

    def test_narrow_window_in_sweep_and_gravitycheck(self, tmp_path):
        cfg = tmp_path / "narrow.cfg"
        cfg.write_text(BASELINE_CFG.read_text() + "solver.theta_max = 1.0\n")
        res = run_main("sweep", "--param", "ring.stiffness=0.1,0.12",
                       "--config", str(cfg), "--out", str(tmp_path),
                       cwd=tmp_path)
        assert res.returncode == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["false", "false"]
        res = run_main("gravitycheck", "--config", str(cfg),
                       "--out", str(tmp_path), cwd=tmp_path)
        assert res.returncode == 0
        assert res.stdout == "not triggered, margin = inf J\n"

    def test_manifest_hash_ignores_comments(self, tmp_path):
        digests = []
        for name, extra in (("a", ""), ("b", "# a comment\n\n")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(extra + BASELINE_CFG.read_text())
            out = tmp_path / name
            res = run_main("snapthrough", "--config", str(cfg),
                           "--out", str(out), cwd=tmp_path)
            assert res.returncode == 0
            manifest = (out / "run_manifest.txt").read_text().splitlines()
            digests.append([line for line in manifest
                            if line.startswith("config_sha256")])
        assert digests[0] == digests[1]
        assert len(digests[0]) == 1

    @pytest.mark.parametrize("argv, outputs, header, expected", [
        (["trigger"], ["trigger.csv"], "trigger_moment",
         lambda d, s: fmt(trigger_moment(d)) + "\n"),
        (["continuation", "--tau-max", "0.03", "--steps", "50"],
         ["continuation.csv", "continuation_folds.csv"], "tau,theta,energy",
         lambda d, s: str(len(continuation_ramped_load(
             d, 0.03, 50).fold_points)) + " fold(s)\n"),
        (["closingtime"], ["closingtime.csv"],
         "triggered,closing_time,peak_velocity",
         lambda d, s: fmt(closing_time(
             d, s.impulse_factor * minimal_trigger_impulse(d)).closing_time)
         + "\n"),
        (["feacases", "--plot"], ["feacases.csv", "feacases.svg",
                                  "feacases.txt"],
         "case,bistable,open_energy,saddle_energy,snap_through,"
         "trigger_moment,grip_force,closing_time",
         lambda d, s: "".join(
             f"{'SKIP' if a.skipped else 'PASS' if a.passed else 'FAIL'} "
             f"{a.name}: {a.detail}\n" for a in reproduce_fea_cases(
                 d, s.object_halfwidth, s.impulse_factor).assertions)),
        (["tunering", "--target-barrier", "0.01"], ["tunering.csv"],
         "width_scale,achieved_barrier",
         lambda d, s: fmt(tune_ring_width(d, 0.01)) + "\n"),
        (["gripforce"], ["gripforce.csv"], "object_halfwidth,grip_force",
         lambda d, s: fmt(grip_force_estimate(d, s.object_halfwidth)) + "\n"),
        (["simulate", "--theta0", "-0.85", "--omega0", "60", "--t-end",
          "0.02", "--plot"], ["trajectory.csv", "trajectory.svg"],
         "t,theta,omega,U,kinetic,dissipated", lambda d, s: ""),
    ], ids=["trigger", "continuation", "closingtime", "feacases", "tunering",
            "gripforce", "simulate"])
    def test_success_path_matches_library(self, tmp_path, baseline, settings,
                                          argv, outputs, header, expected):
        res = run_main(*argv, "--config", str(BASELINE_CFG),
                       "--out", str(tmp_path), cwd=tmp_path)
        assert res.returncode == 0
        assert res.stderr == ""
        assert res.stdout == expected(baseline, settings)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            outputs + ["run_manifest.txt"])
        rows = (tmp_path / outputs[0]).read_text().splitlines()
        assert rows[0] == header
        if argv[0] == "simulate":
            traj = simulate_1dof(baseline, -0.85, 60.0, dt=settings.dt,
                                 t_end=0.02)
            assert rows[-1].split(",")[:3] == [fmt(traj.times[-1]),
                                               fmt(traj.thetas[-1]),
                                               fmt(traj.velocities[-1])]

    def test_import_does_not_load_scipy(self, tmp_path):
        res = subprocess.run(
            [sys.executable, "-c",
             "import snapgrip.cli, sys; assert 'scipy' not in sys.modules"],
            capture_output=True, text=True, cwd=tmp_path, env=child_env())
        assert res.returncode == 0, res.stderr

    def test_version_flag(self, tmp_path):
        res = run_cli("--version", cwd=tmp_path)
        assert res.returncode == 0


# (subcommand, option) -> the two settings at which the option must change
# what its subcommand prints or writes.  None leaves the option out, a list
# gives what follows it ([] for a flag).  An option whose first setting is
# a list is given at it in every run of its subcommand where it is not the
# option under test, so a required option is always there.
OPTION_SETTINGS = {
    ("landscape", "--plot"): (None, []),
    ("landscape", "--n"): (["101"], ["201"]),
    ("gravitycheck", "--orientation"): (None, ["-1"]),
    ("feacases", "--plot"): (None, []),
    ("continuation", "--tau-max"): (["0.03"], ["0.02"]),
    ("continuation", "--steps"): (["20"], ["30"]),
    ("simulate", "--plot"): (None, []),
    ("simulate", "--theta0"): (["-0.85"], ["-0.8"]),
    ("simulate", "--omega0"): (None, ["60"]),
    ("simulate", "--dt"): (None, ["1e-5"]),
    ("simulate", "--t-end"): (["0.002"], ["0.001"]),
    ("closingtime", "--impulse"): (None, ["1e-3"]),
    ("sweep", "--param"): (["ring.stiffness=0.12"], ["ring.stiffness=0.13"]),
    ("sweep", "--no-closing-time"): (None, []),
    ("sweep", "--no-grip-force"): (None, []),
    ("tunering", "--target-barrier"): (["0.01"], ["0.005"]),
    ("gripforce", "--object-halfwidth"): (None, ["0.01"]),
}
DRAWING_COMMANDS = ("landscape", "feacases", "simulate")


def parser_options():
    """{subcommand: [option, ...]} of the CLI parser, without ``--config``,
    ``--out`` and ``-h``."""
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {name: [a.option_strings[0] for a in p._actions
                   if not isinstance(a, argparse._HelpAction)
                   and a.option_strings[0] not in ("--config", "--out")]
            for name, p in sub.choices.items()}


def option_argv(command, tested=None, setting=None):
    """``command`` with each option of OPTION_SETTINGS at its first
    setting, and option ``tested`` at ``setting`` instead."""
    argv = [command]
    for (name, option), (first, _) in OPTION_SETTINGS.items():
        value = setting if option == tested else first
        if name == command and value is not None:
            argv += [option, *value]
    return argv


class TestCliOptions:

    def test_the_table_names_every_option(self):
        options = parser_options()
        assert set(OPTION_SETTINGS) == {(name, option)
                                        for name, names in options.items()
                                        for option in names}
        assert [name for name, names in options.items()
                if "--plot" in names] == list(DRAWING_COMMANDS)

    def test_the_cli_snapshot_sets_every_option(self):
        # The snapshot's byte diff covers only what its commands set.
        spec = importlib.util.spec_from_file_location(
            "cli_snapshot", REPO_ROOT / "scripts" / "cli_snapshot.py")
        snapshot = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(snapshot)
        unset = [(name, option) for name, options in parser_options().items()
                 for option in options
                 if not any(argv[0] == name and option in argv
                            for argv in snapshot.COMMANDS.values())]
        assert unset == []

    @pytest.mark.parametrize("command, option", [
        (name, option) for name, options in parser_options().items()
        for option in options])
    def test_option_changes_the_output(self, tmp_path, command, option):
        # Gravity on, so that --orientation has a field to turn.
        cfg = write_config(tmp_path, {"gripper.gravity": "9.81"})
        seen = []
        for i, setting in enumerate(OPTION_SETTINGS[command, option]):
            out = tmp_path / str(i)
            res = run_main(*option_argv(command, option, setting),
                           "--config", str(cfg), "--out", str(out),
                           cwd=tmp_path)
            assert res.returncode == 0, res.stderr
            # The manifest carries a timestamp.
            seen.append((res.stdout, {p.name: p.read_bytes()
                                      for p in out.iterdir()
                                      if p.name != "run_manifest.txt"}))
        assert seen[0] != seen[1]

    @pytest.mark.parametrize("command", [name for name in parser_options()
                                         if name not in DRAWING_COMMANDS])
    def test_plot_is_refused_where_nothing_is_drawn(self, tmp_path, command):
        res = run_main(*option_argv(command), "--plot", "--config",
                       str(BASELINE_CFG), "--out", str(tmp_path),
                       cwd=tmp_path)
        assert res.returncode == 1
        assert res.stderr.startswith("usage: snapgrip ")
        assert res.stderr.endswith(
            "\nsnapgrip: error: unrecognized arguments: --plot\n")
        assert res.stderr.count("error") == 1
        assert not list(tmp_path.iterdir())


# One small run of each subcommand; the drawn configuration does the rest.
FUZZ_COMMANDS = (
    ["landscape", "--n", "101", "--plot"],
    ["equilibria"],
    ["snapthrough"],
    ["trigger"],
    ["gravitycheck"],
    ["continuation", "--tau-max", "0.03", "--steps", "20"],
    ["simulate", "--theta0", "-0.85", "--omega0", "60", "--t-end", "0.002",
     "--plot"],
    ["closingtime"],
    ["sweep", "--param", "ring.stiffness=0.1,0.12"],
    ["feacases"],
    ["tunering", "--target-barrier", "0.01"],
    ["gripforce"],
)


@st.composite
def fuzz_overrides(draw):
    """1-4 keys of the baseline configuration, each scaled by up to
    10**+-3, negated, or set to 0, 1e-300 or 1e300."""
    doc = load_config(BASELINE_CFG)
    keys = draw(st.lists(st.sampled_from(sorted(KEY_SPECS)), min_size=1,
                         max_size=4, unique=True))
    overrides = {}
    for key in keys:
        if KEY_SPECS[key].kind is str:
            overrides[key] = draw(st.sampled_from(["linear", "yeoh"]))
            continue
        base = float(doc[key]) or 1.0
        value = draw(st.one_of(
            st.floats(-3.0, 3.0).map(lambda e: base * 10.0 ** e),
            st.just(-base),
            st.sampled_from([0.0, 1e-300, 1e300])))
        if KEY_SPECS[key].kind is int:
            value = float(round(value))
        overrides[key] = repr(value)
    return overrides


def _empty_cells_allowed(name, row):
    """The documented empty (NaN) cells of an exit-0 output row."""
    if name == "gravitycheck.csv":
        return {"margin"}      # infinite margin: nothing to snap into
    if name == "closingtime.csv" and row["triggered"] == "false":
        return {"closing_time"}
    if name in ("sweep.csv", "feacases.csv"):
        if row["bistable"] == "false":
            return set(row)
        # A design that does not close; an object wider than the open
        # fingers.
        return {"closing_time", "grip_force"}
    return set()


class TestCliFuzz:

    @hyp_settings(max_examples=100, deadline=None)
    @given(overrides=fuzz_overrides(), argv=st.sampled_from(FUZZ_COMMANDS))
    def test_any_config_exits_0_or_2_with_one_line(self, tmp_path_factory,
                                                   overrides, argv):
        tmp_path = tmp_path_factory.mktemp("fuzz")
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        res = run_main(*argv, "--config", str(cfg), "--out", str(out),
                       cwd=tmp_path)
        assert res.returncode in (0, 2), res.stderr
        if res.returncode == 2:
            (line,) = res.stderr.splitlines()
            assert line.startswith("snapgrip: error: ")
            return
        assert res.stderr == ""
        assert "nan" not in res.stdout.lower()
        for path in out.iterdir():
            text = path.read_text()
            assert "nan" not in text.lower(), path.name
            if path.suffix != ".csv":
                continue
            header, *rows = (line.split(",") for line in text.splitlines())
            for cells in rows:
                row = dict(zip(header, cells))
                empty = {k for k, v in row.items() if v == ""}
                assert empty <= _empty_cells_allowed(path.name, row), \
                    (path.name, row)


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                         "OMP_NUM_THREADS")
# The names ``snapgrip`` exports, by the module that defines them.
EXPORTS = {
    "model": ("ChainConfiguration", "CrossSection", "EnergyLandscape",
              "FingerDesign", "GripperDesign", "LinearElastic", "RingDesign",
              "Yeoh", "chain_energy", "chain_gradient",
              "chain_gradient_hessian", "finger_energy_1dof", "gradient_1dof",
              "gravity_energy_1dof", "moment_curvature", "ring_energy_1dof",
              "sample_landscape", "set_design_value", "total_energy_1dof"),
    "statics": ("ContinuationPath", "Equilibrium", "EquilibriumReport",
                "continuation_ramped_load", "find_equilibria_1dof",
                "find_equilibria_chain", "saddle_search_chain",
                "snap_through_energy", "trigger_moment"),
    "dynamics": ("ClosingEvent", "Trajectory", "closing_time",
                 "closing_time_vs_frequency_study", "gravity_trigger_check",
                 "natural_frequency", "simulate_1dof"),
    "explore": ("MorphologyCaseReport", "SweepSpec", "SweepTable",
                "grip_force_estimate", "reproduce_fea_cases", "run_sweep",
                "tune_ring_width"),
    "config": ("build_design", "build_solver_settings", "load_config",
               "parse_config", "serialize_config"),
}


def run_python(code, tmp_path, **variables):
    """Run ``code`` in a fresh interpreter whose environment sets none of
    the variables OpenBLAS reads except ``variables``; returns stdout."""
    env = {k: v for k, v in child_env().items()
           if k not in BLAS_THREAD_VARIABLES}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, cwd=tmp_path, env={**env, **variables})
    assert res.returncode == 0, res.stderr
    return res.stdout


# A public call that builds an array, so loads numpy through the package.
LOAD_NUMPY = "snapgrip.ChainConfiguration([0.0])"


class TestStartup:
    """``import snapgrip`` does not load numpy; the package loads it where
    it first builds an array, with one OpenBLAS thread unless the caller
    chose a thread count, and leaves ``os.environ`` as it was."""

    @pytest.mark.parametrize("first, variables", [
        ("", {}),
        ("", {"OPENBLAS_NUM_THREADS": "2"}),
        ("", {"OMP_NUM_THREADS": "2"}),
        ("import numpy", {}),
    ])
    def test_import_leaves_the_environment_unchanged(self, tmp_path, first,
                                                     variables):
        out = run_python(
            f"import json, os\n{first}\nbefore = dict(os.environ)\n"
            "import snapgrip\n"
            "assert dict(os.environ) == before\n"
            f"{LOAD_NUMPY}\n"
            "assert dict(os.environ) == before\n"
            f"print(json.dumps({{k: os.environ.get(k) "
            f"for k in {BLAS_THREAD_VARIABLES!r}}}))",
            tmp_path, **variables)
        assert json.loads(out) == {k: variables.get(k)
                                   for k in BLAS_THREAD_VARIABLES}

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts threads in /proc/self/task")
    def test_import_starts_no_blas_threads(self, tmp_path):
        # Counted after the import and again once numpy has loaded.
        out = run_python("import os, sys, snapgrip\n"
                         "print(len(os.listdir('/proc/self/task')))\n"
                         f"{LOAD_NUMPY}\n"
                         "assert 'numpy' in sys.modules\n"
                         "print(len(os.listdir('/proc/self/task')))",
                         tmp_path)
        assert out.split() == ["1", "1"]

    def test_import_loads_the_model_and_config_only(self, tmp_path):
        out = run_python("import json, sys, snapgrip\n"
                         "print(json.dumps(sorted(m for m in sys.modules\n"
                         "                        if 'snapgrip.' in m\n"
                         "                        or m == 'numpy')))",
                         tmp_path)
        assert json.loads(out) == ["snapgrip.config", "snapgrip.errors",
                                   "snapgrip.model"]

    @pytest.mark.parametrize("argv, overrides, code, loaded", [
        (["snapthrough"], {}, 0, ["statics"]),
        (["trigger"], {}, 0, ["statics"]),
        (["gravitycheck"], {"gripper.gravity": 9.81}, 0,
         ["dynamics", "statics"]),
        (["snapthrough"], {"ring.stifness": 0.12}, 2, []),
        (["snapthrough"], {"ring.stiffness": 0.0}, 2, ["statics"]),
        (["equilibria"], {"material.model": "yeoh"}, 0, ["statics"]),
        (["closingtime"], {"material.model": "yeoh"}, 0,
         ["dynamics", "statics"]),
        (["gripforce"], {}, 0, ["dynamics", "explore", "statics"]),
        # |kappa| t/2 reaches 0.3 in the window: the Yeoh law's exact branch.
        (["equilibria"], {"material.model": "yeoh", "finger.thickness": 0.01},
         0, ["numpy", "statics"]),
        (["landscape"], {}, 0, ["numpy"]),
    ], ids=["snapthrough", "trigger", "gravitycheck", "unknown_key",
            "monostable", "yeoh_equilibria", "yeoh_closingtime", "gripforce",
            "yeoh_exact_branch", "landscape"])
    def test_a_cold_call_loads_numpy_only_to_build_arrays(
            self, tmp_path, argv, overrides, code, loaded):
        # A subcommand loads only the solver layers it uses, and numpy
        # only where it builds an array: the Yeoh law's exact branch or a
        # landscape.
        cfg = write_config(tmp_path, overrides)
        out = run_python(
            "import json, sys\n"
            "from snapgrip.cli import main\n"
            f"code = main({argv + ['--config', str(cfg), '--out', 'out']!r})\n"
            "print(json.dumps([code, sorted(m for m in sys.modules\n"
            "    if m == 'numpy' or m.startswith('snapgrip.'))]))",
            tmp_path)
        assert json.loads(out.splitlines()[-1]) == [code, sorted(
            ["snapgrip.cli", "snapgrip.config", "snapgrip.errors",
             "snapgrip.model", "snapgrip.report"]
            + [m if m == "numpy" else f"snapgrip.{m}" for m in loaded])]
        if code == 0:
            manifest = (tmp_path / "out" / "run_manifest.txt").read_text()
            assert ("numpy_version = not loaded\n" in manifest) == (
                "numpy" not in loaded)

    def test_a_study_loads_numpy_before_its_first_scan(self, tmp_path):
        # Importing explore loads no numpy; each study, in a fresh
        # interpreter, has it at its first scan, which so takes the array
        # form, window_gradient.
        for study in ("run_sweep(design, explore.SweepSpec(\n"
                      "    parameters=(('ring.stiffness', (0.11, 0.13)),)))",
                      "tune_ring_width(design, 0.01)",
                      "reproduce_fea_cases(design)"):
            out = run_python(
                "import json, sys\n"
                "from snapgrip import explore, model\n"
                "imported = 'numpy' in sys.modules\n"
                "from snapgrip.config import build_design, load_config\n"
                f"design = build_design(load_config({str(BASELINE_CFG)!r}))\n"
                "scans = []\n"
                "window_gradient = model.window_gradient\n"
                "model.window_gradient = lambda d: (\n"
                "    scans.append('numpy' in sys.modules),\n"
                "    window_gradient(d))[1]\n"
                f"explore.{study}\n"
                "print(json.dumps([imported, scans]))", tmp_path)
            imported, scans = json.loads(out)
            assert not imported and scans and all(scans), study

    def test_every_record_takes_its_methods_from_the_base(self):
        # ``@dataclass(frozen=True)`` compiles six methods a class at
        # import; every record shares those of ``_Record`` instead, but
        # for ChainConfiguration's own __init__ and __repr__.
        own = {(model.ChainConfiguration, "__init__"),
               (model.ChainConfiguration, "__repr__")}
        assert len(RECORDS) == 22
        for cls in RECORDS:
            assert issubclass(cls, model._Record), cls
            for name in ("__init__", "__eq__", "__hash__", "__repr__",
                         "__setattr__", "__delattr__"):
                if (cls, name) in own:
                    assert name in vars(cls)
                else:
                    assert getattr(cls, name) is getattr(model._Record,
                                                         name), (cls, name)

    def test_the_numpy_stand_in_gives_way_to_numpy(self, monkeypatch):
        # A module holding the stand-in reads numpy's attributes through
        # it once, and holds numpy itself from then on.
        user = types.ModuleType("user")
        user.np = model._LAZY_NUMPY
        monkeypatch.setitem(sys.modules, "user", user)
        assert user.np.linspace is np.linspace
        assert user.np is np

    def test_every_export_resolves_to_its_home_object(self, tmp_path):
        # A fresh interpreter, so that each solver-layer name is resolved
        # by the package's first access, not found already bound.
        out = run_python(
            "import importlib, json\n"
            "from snapgrip import *\n"
            "import snapgrip\n"
            "bound = dict(globals())\n"
            f"exports = {EXPORTS!r}\n"
            "wrong = [n for home, names in exports.items() for n in names\n"
            "         if not (getattr(snapgrip, n) is bound.get(n)\n"
            "                 is getattr(importlib.import_module(\n"
            "                     'snapgrip.' + home), n))]\n"
            "try:\n"
            "    snapgrip.no_such_name\n"
            "except AttributeError as exc:\n"
            "    missing = str(exc)\n"
            "print(json.dumps([wrong, sorted(snapgrip.__all__), missing]))",
            tmp_path)
        wrong, exported, missing = json.loads(out)
        assert wrong == []
        assert exported == sorted(n for names in EXPORTS.values()
                                  for n in names)
        assert missing == "module 'snapgrip' has no attribute 'no_such_name'"

    def test_solver_layers_are_package_attributes(self, tmp_path):
        # As when the package imported them: ``snapgrip.dynamics`` works
        # without an import of its own.
        out = run_python("import snapgrip\n"
                         "print(snapgrip.dynamics.calibrate_inertia"
                         ".__module__, snapgrip.explore.__name__)", tmp_path)
        assert out.split() == ["snapgrip.dynamics", "snapgrip.explore"]

    def test_lazy_names_resolve_in_this_process(self):
        import snapgrip
        from snapgrip import dynamics, statics
        assert snapgrip.__getattr__("trigger_moment") is statics.trigger_moment
        assert snapgrip.__getattr__("dynamics") is dynamics
        with pytest.raises(AttributeError, match="no_such_name"):
            snapgrip.__getattr__("no_such_name")
        assert set(snapgrip.__all__) < set(dir(snapgrip))

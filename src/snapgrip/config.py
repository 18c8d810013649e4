"""Flat dotted-key configuration files.

Grammar: one ``key = value`` pair per line, '#' starts a comment, blank
lines ignored.  Unknown keys are rejected, and so are values that break
their key's rule in ``KEY_SPECS``, refused with the text the design
records give; missing keys fall back to the defaults there, which are not
the calibrated design of ``configs/baseline.cfg``.  A configuration is a
plain dict of every key's value, all SI.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigError, InvalidDesignError
from .model import KEY_SPECS, GripperDesign, _read_value, design_from_values


@dataclass(frozen=True, slots=True)
class SolverSettings:
    """Settings of the studies; the solve window is part of the design."""

    dt: float
    t_end: float
    sweep_budget: int
    object_halfwidth: float
    impulse_factor: float


def parse_config(text: str) -> dict:
    """Parse configuration text, reporting every problem at once."""
    values = {k: s.default for k, s in KEY_SPECS.items()}
    seen = set()
    problems = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', "
                            f"got {line!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KEY_SPECS:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in seen:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        seen.add(key)
        try:
            values[key] = _read_value(key, value)
        except InvalidDesignError as exc:
            problems.append(f"line {lineno}: {exc}")
    if problems:
        raise ConfigError(problems)
    return values


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError([f"{path} is not UTF-8 text: "
                               f"{exc.reason}"]) from None
    return parse_config(text)


def serialize_config(values: dict) -> str:
    """Canonical text form; parsing it back yields equal values (``str``
    of a float is its shortest round-trip ``repr``)."""
    return "".join(f"{key} = {values[key]}\n" for key in sorted(KEY_SPECS))


def build_design(values: dict) -> GripperDesign:
    return design_from_values(values)


def build_solver_settings(values: dict) -> SolverSettings:
    return SolverSettings(**{f.name: values[f"solver.{f.name}"]
                             for f in fields(SolverSettings)})

"""Flat dotted-key configuration files.

Grammar: one ``key = value`` pair per line, '#' starts a comment, blank
lines ignored.  Unknown keys are rejected, and so are values that break
their key's rule in ``KEY_SPECS``, refused with the text the design
records give; missing keys fall back to the defaults there.
Those defaults are not the calibrated design of ``configs/baseline.cfg``.
All values are SI.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigError, InvalidDesignError
from .model import (KEY_SPECS, GripperDesign, _check_value,
                    design_from_values)


@dataclass(frozen=True, slots=True)
class ConfigDocument:
    """A fully resolved configuration (defaults overlaid with file values)."""

    values: dict

    def __post_init__(self):
        object.__setattr__(self, "values", dict(self.values))

    def __getitem__(self, key):
        return self.values[key]


@dataclass(frozen=True, slots=True)
class SolverSettings:
    """Settings of the studies; the solve window is part of the design."""

    dt: float
    t_end: float
    sweep_budget: int
    object_halfwidth: float
    impulse_factor: float


def parse_config(text: str) -> ConfigDocument:
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
        spec = KEY_SPECS.get(key)
        if spec is None:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in seen:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        seen.add(key)
        parsed = value
        if spec.kind is not str:
            try:
                parsed = float(value)
            except ValueError:
                problems.append(f"line {lineno}: non-numeric value {value!r} "
                                f"for {key}")
                continue
            if spec.kind is int and parsed.is_integer():
                parsed = int(parsed)
        try:
            _check_value(key, parsed)
        except InvalidDesignError as exc:
            problems.append(f"line {lineno}: {exc}")
            continue
        values[key] = parsed
    if problems:
        raise ConfigError(problems)
    return ConfigDocument(values=values)


def load_config(path) -> ConfigDocument:
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError([f"{path} is not UTF-8 text: "
                               f"{exc.reason}"]) from None
    return parse_config(text)


def serialize_config(doc: ConfigDocument) -> str:
    """Canonical text form; parsing it back yields an identical document."""
    lines = []
    for key in sorted(KEY_SPECS):
        value = doc.values[key]
        if isinstance(value, float):
            lines.append(f"{key} = {value!r}")
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def build_design(doc: ConfigDocument) -> GripperDesign:
    return design_from_values(doc.values)


def build_solver_settings(doc: ConfigDocument) -> SolverSettings:
    names = {f.name for f in fields(SolverSettings)}
    return SolverSettings(**{spec.field: doc[key]
                             for key, spec in KEY_SPECS.items()
                             if spec.field in names})

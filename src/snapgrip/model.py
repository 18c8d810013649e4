"""Potential-energy model of a pre-curved elastic finger with a bistable ring.

Two fidelities share the same ingredients:

* a reduced single-coordinate model where the finger bends with uniform
  curvature and the whole state is the tip bend angle ``theta``;
* a planar chain of rigid-ish segments joined by torsional springs, whose
  joint angles discretize the same beam.

All quantities are SI.  Positive ``theta`` is the closing direction; the
open stable state sits in the negative-angle well.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import (MISSING, FrozenInstanceError, dataclass, fields,
                         replace)
from functools import lru_cache
from inspect import Parameter, Signature
from operator import attrgetter
from typing import Callable, Optional, Union

from .errors import (CurvatureOutOfRangeError, InvalidDesignError,
                     NonFiniteStateError)


# ---------------------------------------------------------------------------
# numpy, loaded where arrays are built
# ---------------------------------------------------------------------------

# A cold CLI call that works on floats only (snap-through, trigger moment,
# gravity check, grip force, a refused config, a Yeoh law short of its
# exact branch) never imports numpy, which is about half of its start-up.
# Until numpy loads, ``np`` in the package's modules is a stand-in whose
# first attribute read loads it.  OpenBLAS then starts a thread pool
# (about 80 ms of CPU per process on a 2-core x86-64 machine); snapgrip's
# BLAS calls (row dots, stacked mat-vec products at n <= 128) are below
# OpenBLAS's threading threshold, so numpy loads with one thread unless
# the caller chose a thread count.  os.environ ends as the caller left
# it, so child processes start as they would have.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                          "OMP_NUM_THREADS")


class _LazyNumpy:
    """``np`` of the package's modules until numpy loads."""

    __slots__ = ()

    def __getattr__(self, name):
        return getattr(_bind_numpy(), name)


np = _LAZY_NUMPY = _LazyNumpy()


def _load_numpy():
    """numpy; a repeat call costs a dict lookup, not ``_bind_numpy``'s
    walk of every module."""
    return sys.modules.get("numpy") or _bind_numpy()


def _bind_numpy():
    """numpy, imported with one OpenBLAS thread unless the caller chose a
    count, and bound as ``np`` in every module that held the stand-in
    (``python -m snapgrip.cli`` runs the CLI as ``__main__``), so that
    later reads cost what they would after ``import numpy as np``."""
    numpy = sys.modules.get("numpy")
    if numpy is None:
        single = not any(name in os.environ
                         for name in _BLAS_THREAD_VARIABLES)
        if single:
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            import numpy
        finally:
            if single:
                del os.environ["OPENBLAS_NUM_THREADS"]
    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get("np") is _LAZY_NUMPY:
            module.np = numpy
    return numpy


def _numpy_loaded() -> bool:
    """Whether this process has imported numpy.  The equilibrium scan and
    the trigger moment's search grid work on arrays then and on floats
    before, with the same bits: a batch has numpy loaded, and a cold call
    on one design does not load it for a scan."""
    return "numpy" in sys.modules


# Below this bend angle ``tip_chord`` switches to its 2nd-order series to
# avoid 0/0.  The arc terms of the gravity model switch at
# ARC_SERIES_SWITCH instead.
SMALL_ANGLE = 1e-4
# Step of the central differences that give the energy curvature and Hessian.
DIFFERENCE_STEP = 1e-6    # rad
# Most points a sampled grid may have: a landscape's angles, the solve
# window's scan and a continuation's load steps.  Memory and time grow
# with each; a continuation walks the scan's grid once, forward, so its
# time grows with grid points + steps, not with their product.
MAX_GRID_POINTS = 10 ** 5


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

# The package's records behave as ``@dataclass(frozen=True, slots=True)``
# classes do, but that decorator compiles six methods a class with
# ``exec``, 0.6-1 ms each: most of what a cold CLI call spent in the
# package's own start-up.  ``_Record`` writes those methods once, and
# ``_record`` makes each record a dataclass that generates none, so that
# ``dataclasses.fields`` and ``replace`` work on it as before (which is
# why ``dataclasses`` is still imported).

_setattr = object.__setattr__


class _Signature:
    """``inspect.signature`` of a record class: its fields, as the
    generated ``__init__`` of a dataclass gives them."""

    def __get__(self, record, cls):
        if cls.__init__ is not _Record.__init__:
            return None         # inspect reads the class's own __init__
        return Signature(
            [Parameter(f.name, Parameter.KEYWORD_ONLY if f.kw_only
                       else Parameter.POSITIONAL_OR_KEYWORD,
                       default=(Parameter.empty if f.default is MISSING
                                else f.default),
                       annotation=f.type)
             for f in sorted(fields(cls), key=attrgetter("kw_only"))],
            return_annotation=None)


class _Record:
    """The methods of a frozen dataclass, shared by every record class
    (see ``_record``): a record binds, compares, hashes and prints as a
    ``@dataclass(frozen=True)`` of the same fields and refuses assignment.
    """

    __slots__ = ()
    __signature__ = _Signature()

    def __init__(self, *args, **kwargs):
        cls = type(self)
        # A call by keyword, as ``replace`` makes, needs no binding.
        values = cls._defaults | kwargs
        if args or values.keys() != cls._names_set:
            values = cls._bind(args, kwargs)
        for name, value in values.items():
            _setattr(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs):
        """Every field's value from the arguments of ``__init__``:
        positional ones in field order, keywords, then defaults."""
        call = f"{cls.__qualname__}.__init__()"
        if len(args) > len(cls._positional):
            raise TypeError(f"{call} takes {len(cls._positional) + 1} "
                            f"positional arguments but {len(args) + 1} "
                            f"were given")
        values = cls._defaults | dict(zip(cls._positional, args))
        for name, value in kwargs.items():
            if name not in cls._names_set:
                raise TypeError(f"{call} got an unexpected keyword argument "
                                f"{name!r}")
            if name in cls._positional[:len(args)]:
                raise TypeError(f"{call} got multiple values for argument "
                                f"{name!r}")
            values[name] = value
        missing = [name for name in cls._names if name not in values]
        if missing:
            raise TypeError(f"{call} missing required argument(s): "
                            f"{', '.join(map(repr, missing))}")
        return values

    def __post_init__(self):
        pass                    # a record without checks

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        text = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self._repr_names)
        return f"{self.__class__.__qualname__}({text})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self):
        return [getattr(self, name) for name in self._names]

    def __setstate__(self, state):
        for name, value in zip(self._names, state):
            _setattr(self, name, value)


def _record(cls):
    """``cls``, a subclass of ``_Record``, made a slotted dataclass with
    no generated method, and the field names its methods read."""
    cls = dataclass(init=False, repr=False, eq=False, slots=True)(cls)
    every = fields(cls)
    cls._names = tuple(f.name for f in every)
    cls._names_set = frozenset(cls._names)
    cls._positional = tuple(f.name for f in every if not f.kw_only)
    cls._defaults = {f.name: f.default for f in every
                     if f.default is not MISSING}
    cls._repr_names = tuple(f.name for f in every if f.repr)
    # The tuple a frozen dataclass compares and hashes; attrgetter gives
    # one for two names or more.
    compared = tuple(f.name for f in every if f.compare)
    cls._key = staticmethod(
        attrgetter(*compared) if len(compared) > 1
        else lambda record: (getattr(record, compared[0]),))
    return cls


# ---------------------------------------------------------------------------
# Parameter registry: configuration keys and the design fields they set
# ---------------------------------------------------------------------------

# Study defaults, shared by the configuration keys and the study functions.
DEFAULT_OBJECT_HALFWIDTH = 0.076   # m
DEFAULT_IMPULSE_FACTOR = 1.5       # times the minimal trigger impulse

# (check, rule) pairs of the keys.  A rule is the whole range of its field:
# the design records and the configuration reader both apply it.
_POSITIVE = (lambda v: 0 < v < math.inf, "must be finite and > 0")
_NON_NEGATIVE = (lambda v: 0 <= v < math.inf, "must be finite and >= 0")
_UNIT_INTERVAL = (lambda v: 0.0 < v <= 1.0, "must be in (0, 1]")
_FINITE = (math.isfinite, "must be finite")


@_record
class _KeySpec(_Record):
    """One configuration key and the dotted attribute path it sets in a
    ``GripperDesign``, or ``None``: ``material.model`` picks the material,
    and a solver setting ``solver.NAME`` is the settings' field NAME.
    """

    field: Optional[str]
    default: object
    check: Callable
    rule: str
    kind: type = float


KEY_SPECS = {
    "finger.length": _KeySpec("finger.length", 0.08, *_POSITIVE),
    "finger.natural_curvature": _KeySpec("finger.natural_curvature", 20.0,
                                         *_FINITE),
    "finger.width": _KeySpec("finger.cross_section.width", 0.015,
                             *_POSITIVE),
    "finger.thickness": _KeySpec("finger.cross_section.thickness", 0.006,
                                 *_POSITIVE),
    "finger.n_segments": _KeySpec("finger.n_segments", 1, lambda v: v >= 1,
                                  "must be >= 1", int),
    "finger.linear_density": _KeySpec("finger.linear_density", 0.1,
                                      *_NON_NEGATIVE),
    "material.model": _KeySpec(None, "linear", lambda v: v in MATERIALS,
                               "must be 'linear' or 'yeoh'", str),
    "material.youngs_modulus": _KeySpec("finger.material.youngs_modulus",
                                        6.0e5, *_POSITIVE),
    "material.c10": _KeySpec("finger.material.c10", 1.0e5, *_POSITIVE),
    "material.c20": _KeySpec("finger.material.c20", 0.0, *_FINITE),
    "material.c30": _KeySpec("finger.material.c30", 0.0, *_FINITE),
    "ring.attach_fraction": _KeySpec("ring.attach_fraction", 0.5,
                                     *_UNIT_INTERVAL),
    "ring.well_center": _KeySpec("ring.well_center", 0.35, *_FINITE),
    # The ring terms divide by well_halfwidth * well_halfwidth.
    "ring.well_halfwidth": _KeySpec(
        "ring.well_halfwidth", 1.25,
        lambda v: 0 < v < math.inf and 0 < v * v < math.inf,
        "must be > 0 with a finite, non-zero square"),
    "ring.stiffness": _KeySpec("ring.stiffness", 0.02, _NON_NEGATIVE[0],
                               f"{_NON_NEGATIVE[1]} (invariant k_r >= 0)"),
    "ring.width_scale": _KeySpec("ring.width_scale", 1.0, *_UNIT_INTERVAL),
    "gripper.inertia": _KeySpec("inertia", 2.0e-5, *_POSITIVE),
    "gripper.damping": _KeySpec("damping", 1.0e-4, *_NON_NEGATIVE),
    "gripper.payload_mass": _KeySpec("payload_mass", 0.0, *_NON_NEGATIVE),
    "gripper.gravity": _KeySpec("gravity", 0.0, *_FINITE),
    "solver.theta_min": _KeySpec("window.theta_min", -math.pi, *_FINITE),
    "solver.theta_max": _KeySpec("window.theta_max", math.pi, *_FINITE),
    "solver.grid_n": _KeySpec("window.grid_n", 4096,
                              lambda v: 100 <= v <= MAX_GRID_POINTS,
                              f"must be in [100, {MAX_GRID_POINTS}]", int),
    "solver.dt": _KeySpec(None, 2e-5, *_POSITIVE),
    "solver.t_end": _KeySpec(None, 0.1, *_POSITIVE),
    "solver.sweep_budget": _KeySpec(None, 1_000_000, *_POSITIVE, int),
    "solver.object_halfwidth": _KeySpec(None, DEFAULT_OBJECT_HALFWIDTH,
                                        *_POSITIVE),
    "solver.impulse_factor": _KeySpec(None, DEFAULT_IMPULSE_FACTOR,
                                      *_POSITIVE),
}

_DESIGN_KEYS = {key: spec for key, spec in KEY_SPECS.items()
                if spec.field is not None}

# Path of each design record -> [(field, key), ...] of its keys.  The
# records are built after it: the first is ``DEFAULT_WINDOW``.
_FIELD_RULES = {}
for _key, _spec in _DESIGN_KEYS.items():
    _owner, _, _name = _spec.field.rpartition(".")
    _FIELD_RULES.setdefault(_owner, []).append((_name, _key))
_ABSENT = object()


def _check_value(key: str, value) -> None:
    """Raise if ``value`` breaks the rule of ``key``: a number key reads an
    ``int`` as a float (one beyond the float range reads as inf, as its
    digits do in a config file), a float must be finite, an integer key
    takes only an ``int``, and then the key's own rule applies.  The
    configuration reader, ``set_design_value`` and the records all refuse
    through here, so a value gets one text."""
    spec = KEY_SPECS[key]
    if spec.kind is float and isinstance(value, int):
        try:
            value = float(value)
        except OverflowError:
            value = math.inf if value > 0 else -math.inf
    if isinstance(value, float) and not math.isfinite(value):
        rule = "must be finite"
    elif spec.kind is int and type(value) is not int:
        rule = "must be an integer"
    elif spec.check(value):
        return
    else:
        rule = spec.rule
    raise InvalidDesignError(f"{key} {rule}, got {value!r}")


def _read_value(key: str, raw):
    """The value of ``key`` read from ``raw``, text from a config file or a
    number from a caller, and checked: a number key takes ``float(raw)``
    (an ``int`` beyond the float range is refused as inf), an integer key
    an ``int`` as it is (a bool fails the check) and a whole float as an
    ``int``."""
    kind = KEY_SPECS[key].kind
    if kind is str or kind is int and isinstance(raw, int):
        value = raw
    else:
        try:
            value = float(raw)
        except ValueError:
            raise InvalidDesignError(f"non-numeric value {raw!r} for "
                                     f"{key}") from None
        except OverflowError:   # refused by _check_value
            value = raw
        else:
            if kind is int and value.is_integer():
                value = int(value)
    _check_value(key, value)
    return value


def _read_design_value(path: str, raw):
    """``_read_value`` for a key that sets a field of a design."""
    if path not in _DESIGN_KEYS:
        raise InvalidDesignError(f"unknown design parameter path: {path}")
    return _read_value(path, raw)


def _check_fields(record, path: str) -> None:
    """Raise for the first field of ``record``, the record at ``path`` in
    a design, that breaks its rule.  A material has its own fields only."""
    for name, key in _FIELD_RULES[path]:
        value = getattr(record, name, _ABSENT)
        if value is not _ABSENT:
            _check_value(key, value)


# ---------------------------------------------------------------------------
# Constitutive models
# ---------------------------------------------------------------------------

# The records below check each field against its rule in ``KEY_SPECS``
# (``_check_fields``); only checks that span fields are written out here.

@_record
class LinearElastic(_Record):
    """Linear elastic material, characterized by its Young's modulus."""

    youngs_modulus: float

    def __post_init__(self):
        _check_fields(self, "finger.material")


@_record
class Yeoh(_Record):
    """Incompressible Yeoh solid, cubic in the first invariant.

    ``c20``/``c30`` may take any sign and up to 1e6 times ``c10`` in
    magnitude, but the uniaxial stress must remain monotonically
    increasing for stretches in [0.5, 2.0]; that is checked by sampling at
    construction.  The bending law integrates the Cauchy
    stress sigma = lam * dW/dlam over the reference thickness
    (``moment_curvature``), so the bend energy is not the integral of W
    over the volume.
    """

    c10: float
    c20: float = KEY_SPECS["material.c20"].default
    c30: float = KEY_SPECS["material.c30"].default

    def __post_init__(self):
        _check_fields(self, "finger.material")
        # Beyond 1e6, the series coefficients of ``_yeoh_terms`` lose c10 to
        # rounding: their relative error is 2.4e-9 at 1e6 and 3.9e-8 at 1e7.
        if max(abs(self.c20), abs(self.c30)) > 1e6 * self.c10:
            raise InvalidDesignError(
                f"Yeoh c20 and c30 must be at most 1e6 times c10 in "
                f"magnitude, got c10 = {self.c10!r}, c20 = {self.c20!r}, "
                f"c30 = {self.c30!r}")
        # Floats, so that a Yeoh design loads no numpy: the points of
        # np.linspace(0.5, 2.0, 601) (its formula gives the last as 2.0)
        # and np.any(np.diff(stress) <= 0).  A stress past the float range
        # is refused first: no difference of inf or NaN is <= 0.
        stress = [self.uniaxial_stress(i * (1.5 / 600) + 0.5)
                  for i in range(601)]
        if not all(map(math.isfinite, stress)):
            raise InvalidDesignError(
                f"Yeoh coefficients give a uniaxial stress that is not "
                f"finite on stretch in [0.5, 2.0], got c10 = {self.c10!r}, "
                f"c20 = {self.c20!r}, c30 = {self.c30!r}")
        if any(b - a <= 0 for a, b in zip(stress, stress[1:])):
            raise InvalidDesignError(
                "Yeoh coefficients give non-monotonic uniaxial stress "
                "on stretch in [0.5, 2.0]")

    def dW_dI1(self, i1):
        x = i1 - 3.0
        return self.c10 + 2.0 * self.c20 * x + 3.0 * self.c30 * x * x

    def uniaxial_stress(self, stretch):
        """The stress at ``stretch``, a float or a numpy array."""
        i1 = stretch * stretch + 2.0 / stretch
        return 2.0 * (stretch * stretch - 1.0 / stretch) * self.dW_dI1(i1)


MaterialModel = Union[LinearElastic, Yeoh]
MATERIALS = {"linear": LinearElastic, "yeoh": Yeoh}


# ---------------------------------------------------------------------------
# Geometry / design records
# ---------------------------------------------------------------------------

@_record
class CrossSection(_Record):
    """Rectangular finger cross-section."""

    width: float
    thickness: float

    def __post_init__(self):
        _check_fields(self, "finger.cross_section")
        try:
            finite = self.second_moment < math.inf
        except OverflowError:       # thickness ** 3 beyond the float range
            finite = False
        if not finite:
            raise InvalidDesignError(
                f"cross-section second moment must be finite, "
                f"got {self.width} x {self.thickness}")

    @property
    def second_moment(self) -> float:
        return self.width * self.thickness ** 3 / 12.0


@_record
class FingerDesign(_Record):
    """One finger: a slender pre-curved elastic beam."""

    length: float
    natural_curvature: float
    cross_section: CrossSection
    material: MaterialModel
    n_segments: int = KEY_SPECS["finger.n_segments"].default
    linear_density: float = KEY_SPECS["finger.linear_density"].default

    def __post_init__(self):
        _check_fields(self, "finger")

    @property
    def rest_angle(self) -> float:
        """Stress-free tip bend angle (natural curvature times length)."""
        return self.natural_curvature * self.length

    @property
    def mass(self) -> float:
        return self.linear_density * self.length

    @property
    def bending_stiffness(self) -> float:
        """EI for the linear material; small-strain tangent 6*c10*I for Yeoh."""
        i = self.cross_section.second_moment
        if isinstance(self.material, LinearElastic):
            return self.material.youngs_modulus * i
        return 6.0 * self.material.c10 * i


@_record
class RingDesign(_Record):
    """Elastic ring wrapped around the fingers, bistable by itself.

    The two zero-energy bend angles (on the tip-angle scale) are
    ``well_center - well_halfwidth`` and ``well_center + well_halfwidth``;
    ``stiffness`` is the torsional stiffness at each well and trimming the
    ring scales it linearly through ``width_scale``.
    """

    attach_fraction: float
    well_center: float
    well_halfwidth: float
    stiffness: float
    width_scale: float = KEY_SPECS["ring.width_scale"].default

    def __post_init__(self):
        _check_fields(self, "ring")

    @property
    def effective_stiffness(self) -> float:
        return self.stiffness * self.width_scale

    @property
    def wells(self) -> tuple:
        return (self.well_center - self.well_halfwidth,
                self.well_center + self.well_halfwidth)


@_record
class SolveWindow(_Record):
    """Bend-angle range and grid size of the equilibrium scan."""

    theta_min: float
    theta_max: float
    grid_n: int = KEY_SPECS["solver.grid_n"].default

    def __post_init__(self):
        _check_fields(self, "window")
        if not self.theta_min < self.theta_max:
            raise InvalidDesignError("theta_min must be < theta_max")


DEFAULT_WINDOW = SolveWindow(KEY_SPECS["solver.theta_min"].default,
                             KEY_SPECS["solver.theta_max"].default)


@_record
class GripperDesign(_Record):
    """Complete design: finger + ring + lumped dynamic parameters.

    ``gravity`` is the signed acceleration along the closing coordinate;
    positive values pull the finger toward the closed state.  ``window``
    is where every equilibrium solve of the design looks; designs derived
    from this one keep it.
    """

    finger: FingerDesign
    ring: RingDesign
    inertia: float = KEY_SPECS["gripper.inertia"].default
    damping: float = KEY_SPECS["gripper.damping"].default
    payload_mass: float = KEY_SPECS["gripper.payload_mass"].default
    gravity: float = KEY_SPECS["gripper.gravity"].default
    window: SolveWindow = DEFAULT_WINDOW

    def __post_init__(self):
        _check_fields(self, "")


@_record
class ChainConfiguration(_Record):
    """Joint angles of the segment chain, one per segment, packed as
    float64 bytes: 8 bytes an angle, where a tuple of floats takes 40.
    Configurations are equal when their angles are equal bit for bit."""

    packed: bytes

    def __init__(self, joint_angles):
        angles = np.fromiter(joint_angles, dtype=float)
        if not np.all(np.isfinite(angles)):
            raise InvalidDesignError("joint angles must be finite")
        object.__setattr__(self, "packed", angles.tobytes())

    def __repr__(self):
        return f"ChainConfiguration({np.frombuffer(self.packed).tolist()!r})"

    def as_array(self) -> np.ndarray:
        return np.frombuffer(self.packed).copy()

    def __array__(self, dtype=None, copy=None):
        return self.as_array()


@_record
class EnergyLandscape(_Record):
    """Total energy and its decomposition sampled on a bend-angle grid."""

    theta_grid: np.ndarray
    total: np.ndarray
    finger: np.ndarray
    ring: np.ndarray
    gravity: np.ndarray


def design_from_values(values) -> GripperDesign:
    """Build a design from values keyed as in ``KEY_SPECS``.

    ``material.model`` picks the material class, which takes the values of
    its own fields; keys of the other material are ignored.
    """
    kwargs = {owner: {} for owner in _FIELD_RULES}
    for key, spec in _DESIGN_KEYS.items():
        if key in values:
            owner, _, name = spec.field.rpartition(".")
            kwargs[owner][name] = values[key]
    cls = MATERIALS[values["material.model"]]
    material = cls(**{f.name: kwargs["finger.material"][f.name]
                      for f in fields(cls)})
    finger = FingerDesign(
        cross_section=CrossSection(**kwargs["finger.cross_section"]),
        material=material, **kwargs["finger"])
    return GripperDesign(finger=finger, ring=RingDesign(**kwargs["ring"]),
                         window=SolveWindow(**kwargs["window"]), **kwargs[""])


def _with_field(record, path: str, value):
    """Copy of ``record`` with the dotted attribute ``path`` set to
    ``value``; the records off the path are shared, not copied."""
    head, _, rest = path.partition(".")
    if rest:
        value = _with_field(getattr(record, head), rest, value)
    return replace(record, **{head: value})


def set_design_value(design: GripperDesign, path: str, value) -> GripperDesign:
    """Return a copy of ``design`` with one dotted-path field replaced.

    Paths follow the configuration-file key names, e.g. ``ring.stiffness``
    or ``finger.natural_curvature``.  Only ``material.model`` picks the
    finger's law, so a material key that the design's law lacks is
    refused.  ``value`` is read by the rule of a config file's text, so
    ``"3.0"`` sets an integer to 3.
    """
    value = _read_design_value(path, value)
    field = KEY_SPECS[path].field
    owner, _, name = field.rpartition(".")
    material = design.finger.material
    if owner == "finger.material" and not hasattr(material, name):
        cls = next(c for c in MATERIALS.values() if hasattr(c, name))
        raise InvalidDesignError(f"{path} requires a {cls.__name__} "
                                 f"material, design uses "
                                 f"{type(material).__name__}")
    return _with_field(design, field, value)


# ---------------------------------------------------------------------------
# Constitutive law: bending moment vs curvature
# ---------------------------------------------------------------------------

# The Yeoh law in closed form.  A fiber at height z stretches to
# lam = 1 + kappa*z.  With h = t/2, a = kappa*h and I[g] the integral of g
# over lam in [1 - a, 1 + a], the moment is M = (w/kappa**2) I[sigma(lam)
# (lam - 1)] and the bend energy, its integral along the bend angle, is
# U = (L w/kappa) I[S], S(lam) the integral of sigma from 1 to lam.  sigma
# is a Laurent polynomial, so with r = 1/(1 - a**2) and a polynomial P
#     I = a (P(a**2) + (p1 + p2 r) r + l log(1 - a**2)) + t atanh(a).
# M is w h**2 and U is L w h a times the reduced integral I/a**2 (the
# constants are folded into its coefficients).  Its exact form cancels as
# a -> 0, so below YEOH_SERIES_SWITCH it is its odd Taylor series, whose
# last term there is below 2e-18 of the sum for 12,649 random monotonic
# laws.  As for the arc terms, one (exact, series) pair serves the array
# form and the float closures; both take atanh and log1p from numpy, not
# ``math``, whose results differ in the last bit.

YEOH_SERIES_SWITCH = 0.2
_YEOH_SERIES_TERMS = 16


def _horner(coefficients, x):
    """sum(coefficients[i] * x**i), by Horner's rule."""
    total = coefficients[-1]
    for c in coefficients[-2::-1]:
        total = total * x + c
    return total


def _reduced_exact(a, atanh_a, log_1ma2, terms):
    *poly, p1, p2, t, l = terms
    aa = a * a
    r = 1.0 / (1.0 - aa)
    return (a * (_horner(poly, aa) + (p1 + p2 * r) * r + l * log_1ma2)
            + t * atanh_a) / aa


def _reduced_series(a, terms):
    return a * _horner(terms, a * a)


def _laurent_product(p, q):
    """Product of two Laurent polynomials given as {power: coefficient}."""
    out = {}
    for i, a in p.items():
        for j, b in q.items():
            out[i + j] = out.get(i + j, 0.0) + a * b
    return out


def _reduced_integral(g, l, scale):
    """(exact, series) coefficients of scale * I / a**2 for the integrand
    sum(g[k] * lam**k) + l * log(lam), powers k >= -3."""
    p1, p2, t = (2.0 * g.get(k, 0.0) for k in (-2, -3, -1))
    t += 2.0 * l
    poly = [-2.0 * l] + [0.0] * _YEOH_SERIES_TERMS
    for k, gk in g.items():     # ((1 + a)**(k+1) - (1 - a)**(k+1)) / (k+1)
        for j in range(1, k + 2, 2):
            poly[j // 2] += 2.0 * gk * math.comb(k + 1, j) / (k + 1)
    # The series adds up the Taylor series of the exact form's terms.
    series = [poly[m + 1] + p1 + p2 * (m + 2) + t / (2 * m + 3) - l / (m + 1)
              for m in range(_YEOH_SERIES_TERMS)]
    exact = poly[:max(g) // 2 + 1] + [p1, p2, t, l]
    return [scale * c for c in exact], [scale * c for c in series]


def _yeoh_terms(section, material, length=None):
    """``_reduced_integral`` of the Yeoh moment, or with ``length`` of the
    bend energy."""
    x = {2: 1.0, 0: -3.0, -1: 2.0}                 # I1 - 3
    dw = {k: 3.0 * material.c30 * v + 2.0 * material.c20 * x.get(k, 0.0)
          for k, v in _laurent_product(x, x).items()}   # x*x has x's powers
    dw[0] += material.c10
    sigma = _laurent_product({2: 2.0, -1: -2.0}, dw)
    h = section.thickness / 2.0
    if length is None:
        return _reduced_integral(_laurent_product(sigma, {1: 1.0, 0: -1.0}),
                                 0.0, section.width * h * h)
    s = {k + 1: v / (k + 1) for k, v in sigma.items() if k != -1}
    s[0] = -sum(s.values())
    return _reduced_integral(s, sigma[-1], length * section.width * h)


def _yeoh_reduced(a, terms):
    """The reduced integral on numpy input, series below the switch."""
    exact, series = terms
    small = np.abs(a) < YEOH_SERIES_SWITCH
    safe = np.where(small, 0.5, a)
    return np.where(small, _reduced_series(a, series),
                    _reduced_exact(safe, np.arctanh(safe),
                                   np.log1p(-safe * safe), exact))


def _check_strain(a):
    """``a`` = kappa * t/2, refused where |a| >= 0.9."""
    bad = np.abs(a) >= 0.9
    if bad.any():
        raise CurvatureOutOfRangeError(
            f"|kappa|*t/2 = {abs(np.extract(bad, a)[0]):.3g} >= 0.9: fiber "
            "strain outside the validity range of the constitutive law")
    return a


def _dot_last(v, w):
    """w . v along the last axis, of shape (..., 1): one BLAS dot a row, so
    each row of a stack gets the bits ``np.dot`` gives it alone."""
    return (v[..., None, :] @ w[:, None])[..., 0]


def moment_curvature(kappa, section: CrossSection, material: MaterialModel):
    """Bending moment at curvature ``kappa`` (relative to stress-free).

    The Yeoh branch integrates the Cauchy stress sigma = lam * dW/dlam of
    incompressible uniaxial tension over the reference thickness, in
    closed form (see above), for curvatures of any shape.  The bend
    energy, the integral of this moment, is therefore not the integral of
    W over the volume.  Curvatures that compress the extreme fiber past
    10% of full collapse (|kappa| * t/2 >= 0.9) are rejected.
    """
    if isinstance(material, LinearElastic):
        return material.youngs_modulus * section.second_moment * kappa
    a = _check_strain(np.asarray(kappa, dtype=float) * (section.thickness
                                                        / 2.0))
    # + 0.0 makes the moment at zero curvature +0.0, not -0.0.
    return (_yeoh_reduced(a, _yeoh_terms(section, material)) + 0.0)[()]


def _bend_energy_generic(theta, rest_angle, length, section, material):
    """Elastic energy of a uniformly bent beam, any constitutive law: the
    integral of the moment along the bend angle from the stress-free
    angle, in closed form."""
    d = np.asarray(theta, dtype=float) - rest_angle
    if isinstance(material, LinearElastic):
        ei = material.youngs_modulus * section.second_moment
        return 0.5 * ei / length * d * d
    a = _check_strain(d / length * (section.thickness / 2.0))
    return (a * _yeoh_reduced(a, _yeoh_terms(section, material,
                                             length)))[()]


def _bend_moment_generic(theta, rest_angle, length, section, material):
    """Bending moment of a uniformly bent beam, d/d(theta) of
    ``_bend_energy_generic``."""
    d = np.asarray(theta, dtype=float) - rest_angle
    if isinstance(material, LinearElastic):
        ei = material.youngs_modulus * section.second_moment
        return ei / length * d
    return moment_curvature(d / length, section, material)


# ---------------------------------------------------------------------------
# Reduced single-coordinate model
# ---------------------------------------------------------------------------

def finger_energy_1dof(theta, finger: FingerDesign):
    """Bending strain energy of the finger at tip bend angle ``theta``."""
    return _bend_energy_generic(theta, finger.rest_angle, finger.length,
                                finger.cross_section, finger.material)


def finger_gradient_1dof(theta, finger: FingerDesign):
    """d/d(theta) of the finger bending energy (the restoring moment)."""
    return _bend_moment_generic(theta, finger.rest_angle, finger.length,
                                finger.cross_section, finger.material)


def ring_energy_1dof(theta, ring: RingDesign):
    """Double-well ring energy; zero at both wells, stiffness k_eff there."""
    k = ring.effective_stiffness
    d = ring.well_halfwidth
    x = np.asarray(theta, dtype=float) - ring.well_center
    q = x * x - d * d
    return k / (8.0 * d * d) * q * q


def ring_gradient_1dof(theta, ring: RingDesign):
    k = ring.effective_stiffness
    d = ring.well_halfwidth
    x = np.asarray(theta, dtype=float) - ring.well_center
    return k / (2.0 * d * d) * x * (x * x - d * d)


# Circular-arc kinematics helpers.  A segment of length ell starts with
# tangent rotation psi and bends uniformly by phi; these give the advance of
# the end point and of the segment centroid along the closing axis, plus the
# partial derivatives needed for analytic gradients.  The exact expressions
# cancel catastrophically as phi -> 0 (up to three leading digits lost per
# power of phi in the denominator), so all switch to a fifth-order series
# below ARC_SERIES_SWITCH, where both branches agree to ~1e-10 relative.
#
# Each term is a pair of plain-arithmetic functions used by the array form
# (``_arcs``); the float closures below write out the psi = 0 forms of four
# of them with the same operations, so both give the same bits.
# ``c, s`` are cos/sin of psi and ``cp, sp`` cos/sin of psi + phi.  One
# ``_arcs`` pass evaluates every term a caller needs on the same (psi, phi)
# from one set of cos/sin and one branch mask.

ARC_SERIES_SWITCH = 1e-2


def _end_dx_exact(c, s, cp, sp, phi, ell):
    return ell * (c - cp) / phi


def _end_dx_series(c, s, phi, ell):
    return ell * (s + phi * (c / 2 + phi * (-s / 6 + phi * (
        -c / 24 + phi * (s / 120 + phi * c / 720)))))


def _end_dx_dpsi_exact(c, s, cp, sp, phi, ell):
    return ell * (sp - s) / phi


def _end_dx_dpsi_series(c, s, phi, ell):
    return ell * (c + phi * (-s / 2 + phi * (-c / 6 + phi * (
        s / 24 + phi * (c / 120 - phi * s / 720)))))


def _end_dx_dphi_exact(c, s, cp, sp, phi, ell):
    return ell * (sp * phi - (c - cp)) / (phi * phi)


def _end_dx_dphi_series(c, s, phi, ell):
    return ell * (c / 2 + phi * (-s / 3 + phi * (-c / 8 + phi * (
        s / 30 + phi * c / 144))))


def _mean_x_exact(c, s, cp, sp, phi, ell):
    return ell * (c * phi - sp + s) / (phi * phi)


def _mean_x_series(c, s, phi, ell):
    return ell * (s / 2 + phi * (c / 6 + phi * (-s / 24 + phi * (
        -c / 120 + phi * (s / 720 + phi * c / 5040)))))


def _mean_x_dpsi_exact(c, s, cp, sp, phi, ell):
    return ell * (-s * phi - cp + c) / (phi * phi)


def _mean_x_dpsi_series(c, s, phi, ell):
    return ell * (c / 2 + phi * (-s / 6 + phi * (-c / 24 + phi * (
        s / 120 + phi * (c / 720 - phi * s / 5040)))))


def _mean_x_dphi_exact(c, s, cp, sp, phi, ell):
    return ell * ((c - cp) * phi
                  - 2.0 * (c * phi - sp + s)) / (phi * phi * phi)


def _mean_x_dphi_series(c, s, phi, ell):
    return ell * (c / 6 + phi * (-s / 12 + phi * (-c / 40 + phi * (
        s / 180 + phi * c / 1008))))


# (exact, series) pairs, one per arc term.
_END_DX = (_end_dx_exact, _end_dx_series)
_END_DX_DPSI = (_end_dx_dpsi_exact, _end_dx_dpsi_series)
_END_DX_DPHI = (_end_dx_dphi_exact, _end_dx_dphi_series)
_MEAN_X = (_mean_x_exact, _mean_x_series)
_MEAN_X_DPSI = (_mean_x_dpsi_exact, _mean_x_dpsi_series)
_MEAN_X_DPHI = (_mean_x_dphi_exact, _mean_x_dphi_series)


def _arcs(terms, psi, phi, ell):
    """Arc terms on numpy input, one result per (exact, series) pair.

    cos/sin of psi and of psi + phi and the branch mask are computed once
    for all terms.  The series is evaluated only on the angles with |phi|
    below ARC_SERIES_SWITCH, and the exact form only if some angle is not.
    On mixed input the series values of the small angles are written over
    the exact form, which sees phi = 1 there.  Both forms are element-wise
    arithmetic, so each entry has the bits its own form gives on the
    whole array.
    """
    phi = np.asarray(phi, dtype=float)
    c, s = np.cos(psi), np.sin(psi)
    small = np.abs(phi) < ARC_SERIES_SWITCH
    if small.all():
        return [series(c, s, phi, ell) for _, series in terms]
    cp, sp = np.cos(psi + phi), np.sin(psi + phi)
    if not small.any():
        return [exact(c, s, cp, sp, phi, ell) for exact, _ in terms]
    safe = np.where(small, 1.0, phi)
    phi_small = phi[small]
    c_small, s_small = (c[small], s[small]) if np.ndim(c) else (c, s)
    results = []
    for exact, series in terms:
        result = exact(c, s, cp, sp, safe, ell)
        result[small] = series(c_small, s_small, phi_small, ell)
        results.append(result)
    return results


def gravity_energy_1dof(theta, design: GripperDesign):
    """Gravitational potential of finger mass and tip payload.

    The finger is a constant-curvature arc; its center of mass and tip
    advance along the closing axis are closed-form arc integrals.
    """
    g = design.gravity
    if g == 0.0:
        return np.zeros_like(np.asarray(theta, dtype=float))[()]
    x_com, x_tip = _arcs((_MEAN_X, _END_DX), 0.0, theta,
                         design.finger.length)
    return -g * (design.finger.mass * x_com + design.payload_mass * x_tip)


def gravity_gradient_1dof(theta, design: GripperDesign):
    g = design.gravity
    if g == 0.0:
        return np.zeros_like(np.asarray(theta, dtype=float))[()]
    x_com, x_tip = _arcs((_MEAN_X_DPHI, _END_DX_DPHI), 0.0, theta,
                         design.finger.length)
    return -g * (design.finger.mass * x_com + design.payload_mass * x_tip)


def energy_components_1dof(theta, design: GripperDesign):
    """(finger, ring, gravity) energy terms at ``theta``."""
    return (finger_energy_1dof(theta, design.finger),
            ring_energy_1dof(theta, design.ring),
            gravity_energy_1dof(theta, design))


def total_energy_1dof(theta, design: GripperDesign):
    """Superposition of finger, ring and gravity energies."""
    f, r, g = energy_components_1dof(theta, design)
    return f + r + g


def gradient_1dof(theta, design: GripperDesign):
    """Analytic d/d(theta) of the total energy (generalized moment)."""
    return (finger_gradient_1dof(theta, design.finger)
            + ring_gradient_1dof(theta, design.ring)
            + gravity_gradient_1dof(theta, design))


@lru_cache(maxsize=4)
def _window_arcs(theta_min, theta_max, grid_n, length):
    """Read-only (grid, ``_MEAN_X_DPHI``, ``_END_DX_DPHI``) at psi = 0 of
    a window grid and finger length.  The floats come as ``float.hex``
    strings, so windows that differ only in the sign of a zero are cached
    apart.  The designs of a batch share one window and finger length, so
    a few entries suffice; each holds three arrays of ``grid_n`` floats."""
    grid = np.linspace(float.fromhex(theta_min), float.fromhex(theta_max),
                       grid_n)
    arrays = (grid, *_arcs((_MEAN_X_DPHI, _END_DX_DPHI), 0.0, grid,
                           float.fromhex(length)))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def window_gradient(design: GripperDesign) -> tuple:
    """(grid, ``gradient_1dof`` on it) of ``design.window``, equal bit for
    bit, with the grid and the gravity arc terms read from a small cache
    of windows and finger lengths; the grid may be read-only."""
    w, finger = design.window, design.finger
    g = design.gravity
    if g == 0.0:
        grid = np.linspace(w.theta_min, w.theta_max, w.grid_n)
        gravity = np.zeros_like(grid)
    else:
        grid, x_com, x_tip = _window_arcs(
            float(w.theta_min).hex(), float(w.theta_max).hex(), w.grid_n,
            float(finger.length).hex())
        gravity = -g * (finger.mass * x_com + design.payload_mass * x_tip)
    return grid, (finger_gradient_1dof(grid, finger)
                  + ring_gradient_1dof(grid, design.ring) + gravity)


def scalar_model(design: GripperDesign) -> tuple:
    """(``total_energy_1dof``, ``gradient_1dof``) of ``design`` as two
    float -> float functions.

    The design's constants are read once and the terms are evaluated with
    plain floats and ``math`` (numpy for the Yeoh law's atanh and log1p),
    in the same order of operations as the array form, so each result is
    equal bit for bit at a fraction of the cost.  The gravity terms are
    the four arc terms at psi = 0 (``_MEAN_X`` and ``_END_DX`` for the
    energy, ``_MEAN_X_DPHI`` and ``_END_DX_DPHI`` for the gradient),
    written out at c = cos 0 = 1 and s = sin 0 = 0 with the operations of
    the pairs above: 1.0 * x is x and -0.0 + x is x for every float x,
    while each 0.0 + x stays, since it maps -0.0 to +0.0.
    """
    finger, ring = design.finger, design.ring
    d = ring.well_halfwidth
    dd = d * d
    k = ring.effective_stiffness
    k_re, k_rg = k / (8.0 * d * d), k / (2.0 * d * d)
    center = ring.well_center
    rest, length = finger.rest_angle, finger.length
    if isinstance(finger.material, LinearElastic):
        ei = finger.bending_stiffness
        k_fe, k_fg = 0.5 * ei / length, ei / length

        def elastic_energy(theta):
            e = theta - rest
            x = theta - center
            q = x * x - dd
            return k_fe * e * e + k_re * q * q

        def elastic_gradient(theta):
            x = theta - center
            return k_fg * (theta - rest) + k_rg * x * (x * x - dd)
    else:
        section, material = finger.cross_section, finger.material
        bend = _yeoh_terms(section, material, length)
        moment = _yeoh_terms(section, material)
        half_t = section.thickness / 2.0

        def reduced(theta, terms):
            """(a, the reduced integral of ``terms`` at a), a = kappa * t/2."""
            a = (theta - rest) / length * half_t
            exact, series = terms
            if abs(a) < YEOH_SERIES_SWITCH:
                return a, _reduced_series(a, series)
            _check_strain(a)
            return a, float(_reduced_exact(a, np.arctanh(a),
                                           np.log1p(-a * a), exact))

        def elastic_energy(theta):
            a, u = reduced(theta, bend)
            x = theta - center
            q = x * x - dd
            return a * u + k_re * q * q

        def elastic_gradient(theta):
            x = theta - center
            return reduced(theta, moment)[1] + 0.0 + k_rg * x * (x * x - dd)

    g = design.gravity
    if g == 0.0:
        return elastic_energy, elastic_gradient
    m_f, m_p, neg_g = finger.mass, design.payload_mass, -g
    cos, sin, isinf = math.cos, math.sin, math.isinf

    def energy(t):
        if abs(t) < ARC_SERIES_SWITCH:
            a = length * (0.0 + t * (1.0 / 6 + t * (t * (-1.0 / 120 + t * (
                0.0 + t / 5040)))))
            b = length * (0.0 + t * (0.5 + t * (t * (-1.0 / 24 + t * (
                0.0 + t / 720)))))
        elif isinf(t):      # numpy gives NaN here too
            return math.nan
        else:
            cp, sp = cos(t), sin(t)
            a = length * (t - sp + 0.0) / (t * t)
            b = length * (1.0 - cp) / t
        return elastic_energy(t) + neg_g * (m_f * a + m_p * b)

    def gradient(t):
        if abs(t) < ARC_SERIES_SWITCH:
            a = length * (1.0 / 6 + t * (t * (-1.0 / 40 + t * (
                0.0 + t / 1008))))
            b = length * (0.5 + t * (t * (-0.125 + t * (0.0 + t / 144))))
        elif isinf(t):      # numpy gives NaN here too
            return math.nan
        else:
            cp, sp = cos(t), sin(t)
            a = length * ((1.0 - cp) * t - 2.0 * (t - sp + 0.0)) / (t * t * t)
            b = length * (sp * t - (1.0 - cp)) / (t * t)
        return elastic_gradient(t) + neg_g * (m_f * a + m_p * b)

    return energy, gradient


def sample_landscape(design: GripperDesign, theta_grid) -> EnergyLandscape:
    """Energy components on ``theta_grid``; raises NonFiniteStateError
    if the total energy is not finite at every sample."""
    grid = np.asarray(theta_grid, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        f, r, g = energy_components_1dof(grid, design)
        total = f + r + g
    if not np.isfinite(total).all():
        raise NonFiniteStateError("the energy is not finite at every "
                                  "landscape sample")
    return EnergyLandscape(theta_grid=grid, total=total,
                           finger=f, ring=r, gravity=g)


# ---------------------------------------------------------------------------
# Segment-chain model
# ---------------------------------------------------------------------------

def _check_chain(angles, finger: FingerDesign) -> np.ndarray:
    """Joint angles as a C-ordered float array with one angle per segment
    on its last axis; any leading axes stack configurations."""
    arr = np.asarray(angles, dtype=float, order="C")
    n = finger.n_segments
    if arr.shape[-1:] != (n,):
        raise InvalidDesignError(
            f"chain configuration has shape {arr.shape}, expected ({n},)")
    return arr


def _ring_station_weights(design: GripperDesign) -> np.ndarray:
    """Weights w such that the bend angle at the ring station is w . phi."""
    n = design.finger.n_segments
    t = design.ring.attach_fraction * n
    w = np.zeros(n)
    k = min(int(math.floor(t)), n)
    w[:k] = 1.0
    if k < n:
        w[k] = t - k
    return w


def _running_sum(v):
    """Exclusive running sum along the last axis, added in sequence.

    ``np.add.accumulate`` is the ufunc method that ``np.cumsum`` calls,
    with the same left-to-right order of additions, so the sums keep
    their bits without the wrapper's dispatch.
    """
    out = np.zeros_like(v)
    np.add.accumulate(v[..., :-1], axis=-1, out=out[..., 1:])
    return out


def chain_energy(angles, design: GripperDesign):
    """Total energy of the segment chain (elastic + ring + gravity).

    The ring acts on the bend angle at its arc-length station, rescaled to
    the tip-angle convention so the well parameters keep their meaning.
    For one segment with the ring at the tip this reduces exactly to the
    single-coordinate model.  ``angles`` of shape (..., n) give an array of
    shape (...); a single chain gives a float.
    """
    finger = design.finger
    phi = _check_chain(angles, finger)
    ell = finger.length / finger.n_segments
    elastic = _bend_energy_generic(
        phi, finger.natural_curvature * ell, ell, finger.cross_section,
        finger.material).sum(axis=-1)
    psi_r = _dot_last(phi, _ring_station_weights(design))
    ring = ring_energy_1dof(psi_r / design.ring.attach_fraction,
                            design.ring)[..., 0]

    grav = 0.0
    g = design.gravity
    if g != 0.0:
        # Segment i starts at tangent psi_i and end advance x_i.  The terms
        # are added in sequence, segment by segment and then the payload,
        # with np.add.accumulate (np.cumsum's ufunc) rather than the
        # pairwise np.sum, so the energy rounds as a running total does.
        seg_mass = finger.linear_density * ell
        psi = _running_sum(phi)
        end_dx, mean_x = _arcs((_END_DX, _MEAN_X), psi, phi, ell)
        x = _running_sum(end_dx)
        x_tip = x[..., -1] + end_dx[..., -1]
        terms = np.concatenate(
            (-g * seg_mass * (x + mean_x),
             (-g * design.payload_mass * x_tip)[..., None]), axis=-1)
        grav = np.add.accumulate(terms, axis=-1)[..., -1]
    total = elastic + ring + grav
    return total if phi.ndim > 1 else float(total)


def chain_gradient(angles, design: GripperDesign) -> np.ndarray:
    """Analytic gradient of ``chain_energy`` with respect to joint angles,
    of the same shape as ``angles``."""
    finger = design.finger
    phi = _check_chain(angles, finger)
    n = finger.n_segments
    ell = finger.length / n
    grad = _bend_moment_generic(phi, finger.natural_curvature * ell, ell,
                                finger.cross_section, finger.material)

    a = design.ring.attach_fraction
    w = _ring_station_weights(design)
    psi_r = _dot_last(phi, w)
    grad += ring_gradient_1dof(psi_r / a, design.ring) / a * w

    g = design.gravity
    if g != 0.0:
        # Reverse accumulation.  Bending phi_j moves segment j's centroid
        # and end, and the end carries the after_j = n-1-j segments beyond
        # it and the payload: the "own" term.  It also turns the start
        # tangent psi_i of every later segment i, which moves segment i
        # the same way: the "turn" terms, summed over i > j.
        seg_mass = finger.linear_density * ell
        m_p = design.payload_mass
        psi = _running_sum(phi)
        after = np.arange(n - 1, -1, -1)
        m_phi, m_psi, b_phi, b_psi = _arcs(
            (_MEAN_X_DPHI, _MEAN_X_DPSI, _END_DX_DPHI, _END_DX_DPSI),
            psi, phi, ell)
        own = seg_mass * (m_phi + after * b_phi) + m_p * b_phi
        turn = seg_mass * (m_psi + after * b_psi) + m_p * b_psi
        grad -= g * (own + _running_sum(turn[..., ::-1])[..., ::-1])
    return grad


def chain_gradient_hessian(angles, design: GripperDesign) -> tuple:
    """Gradient and central-difference Hessian from one stacked gradient call.

    The stack holds phi itself (not phi + 0.0, which would turn -0.0 into
    +0.0), then phi + h e_k and phi - h e_k for each joint k; each row gets
    the bits a call on it alone gives.  Stacks give stacked results.
    """
    h = DIFFERENCE_STEP
    phi = _check_chain(angles, design.finger)[..., None, :]
    n = phi.shape[-1]
    step = h * np.eye(n)
    grads = chain_gradient(np.concatenate(
        (phi, phi + step, phi - step), axis=-2), design)
    hess = (grads[..., 1:n + 1, :] - grads[..., n + 1:, :]) / (2.0 * h)
    return grads[..., 0, :], 0.5 * (hess + np.swapaxes(hess, -1, -2))


def uniform_chain(design: GripperDesign, tip_angle: float) -> np.ndarray:
    """Constant-curvature chain configuration with the given tip angle."""
    n = design.finger.n_segments
    return np.full(n, tip_angle / n)


def tip_chord(theta: float, length: float) -> float:
    """Straight-line distance from base to tip of a constant-curvature arc
    of bend angle ``theta``, on floats."""
    if abs(theta) < SMALL_ANGLE:
        return length * (1.0 - theta * theta / 24.0)
    return 2.0 * length * math.sin(theta / 2.0) / theta

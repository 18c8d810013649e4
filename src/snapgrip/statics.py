"""Equilibrium analysis: well/saddle location, barriers, loads, continuation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import (InvalidArgumentError, NonConvergenceError,
                     NonFiniteStateError, NotBistableError, SaddleOrderError)
# The model's functions are read from the module at each call, not bound
# here: this layer can load after a caller wrapped one of them (a profiler,
# say), and must not keep the wrapper once the caller restores it.
from . import model
from .model import (DIFFERENCE_STEP, MAX_GRID_POINTS, ChainConfiguration,
                    GripperDesign, np)

GRADIENT_TOL = 1e-10        # N*m at reported equilibria
BISECTION_TOL = 1e-12       # rad
MERGE_TOL = 1e-6            # rad, duplicate chain equilibria
# A bistable report's barriers must each span this many float spacings of
# its largest energy; those of 1,317 designs drawn around the baseline span
# at least 2.9e12.
BARRIER_ULPS = 64


@dataclass(frozen=True, slots=True)
class Equilibrium:
    """A stationary point of the energy, with stability information.

    ``curvature`` is the second derivative at the point (smallest Hessian
    eigenvalue for the chain model).  ``configuration`` is populated only
    for chain equilibria.
    """

    theta: float
    energy: float
    stable: bool
    curvature: float
    configuration: Optional[ChainConfiguration] = None

    @property
    def classification(self) -> str:
        return "stable" if self.stable else "unstable"


@dataclass(frozen=True, slots=True)
class EquilibriumReport:
    """All equilibria in the search window, ordered by bend angle, with
    the window's grid and the gradient on it that they were found on:
    read-only arrays, or tuples of floats from a scan without numpy."""

    equilibria: tuple
    open_state: Optional[Equilibrium] = None
    closed_state: Optional[Equilibrium] = None
    saddle: Optional[Equilibrium] = None
    snap_through_energy: Optional[float] = None
    grid: Sequence[float] = field(kw_only=True, compare=False, repr=False)
    gradient: Sequence[float] = field(kw_only=True, compare=False,
                                      repr=False)

    @property
    def bistable(self) -> bool:
        return self.saddle is not None


@dataclass(frozen=True, slots=True)
class ContinuationPath:
    """Quasi-static response under a ramped closing moment."""

    taus: np.ndarray
    thetas: np.ndarray
    energies: np.ndarray
    fold_points: tuple = ()


def _bracketed_root(f, lo, hi, f_lo, xtol=0.0, ftol=0.0, max_iter=200):
    """Bisect a sign change of ``f`` on ``[lo, hi]``.

    ``f_lo`` is ``f(lo)``, or any number of its sign.  Each step keeps the
    half whose ends differ in sign.  Returns the first midpoint where ``f``
    is zero or smaller than ``ftol`` in magnitude, else the midpoint of the
    bracket once it is no wider than ``xtol`` or, after ``max_iter`` steps,
    at float resolution (the midpoint is one of its ends).  Any other
    bracket left after ``max_iter`` steps raises NonConvergenceError.

    ``f_lo > 0`` is read once, as a bool, before the first step.  It is
    the truth value each step compares the sign of ``f`` at the midpoint
    with, so a float and a numpy ``f_lo`` give the same midpoints and the
    same root.
    """
    lo_positive = bool(f_lo > 0)
    mid, f_mid = 0.5 * (lo + hi), math.nan
    for _ in range(max_iter):
        if hi - lo <= xtol:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0 or abs(f_mid) < ftol:
            return mid
        if (f_mid > 0) == lo_positive:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    if hi - lo <= xtol or mid == lo or mid == hi:
        return mid
    raise NonConvergenceError(
        f"bisection did not converge in {max_iter} steps: the bracket "
        f"[{lo:.17g}, {hi:.17g}] is left, with |f| = {abs(f_mid):.6g} at "
        f"its last midpoint")


def _float_scan(design: GripperDesign, gradient, lo: float, hi: float,
                n: int) -> tuple:
    """(grid, gradient on it) as tuples of floats, equal bit for bit to
    ``np.linspace(lo, hi, n)`` and ``gradient_1dof`` on it: the grid by
    numpy's formula, the gradient from ``gradient``, the float gradient of
    ``scalar_model``."""
    delta, div = hi - lo, n - 1
    step = delta / div
    if step == 0.0:     # numpy's order for a step below the float range
        grid = [i / div * delta + lo for i in range(n)]
    else:
        grid = [i * step + lo for i in range(n)]
    grid[-1] = hi
    # Without gravity the array form adds a zero gravity term, which
    # turns -0.0 into +0.0; adding -0.0 keeps every float as it is.
    zero = 0.0 if design.gravity == 0.0 else -0.0
    return tuple(grid), tuple([gradient(t) + zero for t in grid])


def find_equilibria_1dof(design: GripperDesign) -> EquilibriumReport:
    """Locate every equilibrium of the reduced model in ``design.window``.

    The gradient on the window's grid must be finite at every grid point,
    else NonFiniteStateError.  With numpy loaded it comes from
    ``window_gradient``, which keeps the grid and gravity arc terms of
    recent windows; before, from ``_float_scan``, with the same bits, so
    a cold call on one design does not load numpy.  Sign changes on the
    grid are bisected, and each root is refined and classified on floats
    with the closures of ``scalar_model``: the gradient bisects its cell
    and gives the curvature as a central difference, and the energy gives
    its energy, each equal bit for bit to the array form.  The report
    keeps the grid and the gradient on it, both read-only.

    When exactly three equilibria alternate stable/unstable/stable the
    report identifies open state, saddle and closed state and the
    snap-through energy (saddle energy minus open-state energy).  Fewer
    equilibria give a monostable report; bistability is never fabricated.
    A snap-through or closed-to-saddle barrier below BARRIER_ULPS float
    spacings of the largest energy is lost to rounding and raises
    NonFiniteStateError.
    """
    energy, gradient = model.scalar_model(design)
    # A grid point where the gradient is exactly zero is a root as it
    # stands; a cell whose ends differ in sign is bisected unless one of
    # its ends is such a root.
    if model._numpy_loaded():
        with np.errstate(over="ignore", invalid="ignore"):
            grid, g = model.window_gradient(design)
        finite = np.isfinite(g).all()
        grid.flags.writeable = g.flags.writeable = False
        zero = g == 0.0
        positive = g > 0
        cells = np.flatnonzero((positive[:-1] != positive[1:])
                               & ~zero[:-1] & ~zero[1:])
        zeros = grid[zero].tolist()
    else:
        w = design.window
        grid, g = _float_scan(design, gradient, w.theta_min, w.theta_max,
                              w.grid_n)
        finite = all(map(math.isfinite, g))
        positive = [v > 0 for v in g]
        cells = [i for i in range(len(g) - 1)
                 if positive[i] != positive[i + 1]
                 and g[i] != 0.0 and g[i + 1] != 0.0]
        zeros = [t for t, v in zip(grid, g) if v == 0.0]
    if not finite:
        raise NonFiniteStateError("the energy gradient is not finite at "
                                  "every point of the solve window grid")
    roots = [_bracketed_root(gradient, float(grid[i]), float(grid[i + 1]),
                             g[i], xtol=BISECTION_TOL) for i in cells] + zeros

    h = DIFFERENCE_STEP
    equilibria = []
    for theta in roots:
        curv = (gradient(theta + h) - gradient(theta - h)) / (2.0 * h)
        equilibria.append(Equilibrium(theta=theta, energy=energy(theta),
                                      stable=curv > 0.0, curvature=curv))
    eq = tuple(sorted(equilibria, key=lambda e: e.theta))
    if len(eq) == 3 and eq[0].stable and not eq[1].stable and eq[2].stable:
        barrier = eq[1].energy - eq[0].energy
        lowest = min(barrier, eq[1].energy - eq[2].energy)
        floor = BARRIER_ULPS * math.ulp(max(abs(e.energy) for e in eq))
        if lowest < floor:
            raise NonFiniteStateError(
                f"a barrier of {lowest:.6g} J is below {BARRIER_ULPS} float "
                f"spacings ({floor:.6g} J): the energy has lost its precision")
        return EquilibriumReport(equilibria=eq, open_state=eq[0],
                                 closed_state=eq[2], saddle=eq[1],
                                 snap_through_energy=barrier, grid=grid,
                                 gradient=g)
    return EquilibriumReport(equilibria=eq, grid=grid, gradient=g)


def require_bistable(design: GripperDesign,
                     report: Optional[EquilibriumReport] = None
                     ) -> EquilibriumReport:
    """The design's equilibrium report, solved unless ``report`` is given;
    raises NotBistableError for a monostable design."""
    if report is None:
        report = find_equilibria_1dof(design)
    if not report.bistable:
        raise NotBistableError("design is not bistable")
    return report


def snap_through_energy(design: GripperDesign) -> float:
    """Energy barrier from the open state to the transition state."""
    return float(require_bistable(design).snap_through_energy)


def trigger_moment(design: GripperDesign,
                   report: Optional[EquilibriumReport] = None) -> float:
    """Smallest quasi-static closing moment that guarantees snap-through.

    Equals the maximum of the energy gradient between the open state and
    the saddle, searched on a 2,048-point grid that, like the window scan
    of ``find_equilibria_1dof``, is arrays with numpy loaded and floats
    before, with the same bits.  ``report`` is the design's equilibrium
    report, if already solved.
    """
    report = require_bistable(design, report)
    lo, hi = report.open_state.theta, report.saddle.theta
    gradient = model.scalar_model(design)[1]
    if model._numpy_loaded():
        grid = np.linspace(lo, hi, 2048)
        g = np.asarray(model.gradient_1dof(grid, design), dtype=float)
        i = int(np.argmax(g))
    else:
        grid, g = _float_scan(design, gradient, lo, hi, 2048)
        i = g.index(max(g))     # the first maximum, as np.argmax
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, len(grid) - 1)]
    peak = _golden_section_max(gradient, float(a), float(b), tol=1e-12)
    return max(peak, float(g[i]))


def _golden_section_max(f, a, b, tol):
    """Largest value of a unimodal ``f`` on ``[a, b]``, by golden-section
    search down to a bracket of width ``tol`` (Kiefer 1953)."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = f(d)
    return max(fc, fd)


def continuation_ramped_load(design: GripperDesign, tau_max: float,
                             n_steps: int) -> ContinuationPath:
    """Trace the equilibrium branch as a closing moment ramps from zero.

    The path starts at the lowest stable equilibrium of the design's
    equilibrium report, whose refusals it shares, and walks the gradient g
    on the grid of ``design.window`` kept in that report; each load step walks
    from the previous angle in the direction the load moves (right for a
    rising load, left for a falling one) to the first grid cell where g
    passes the load, and bisects that cell.  A walk that passes a local
    extremum of g has jumped a fold: the fold is recorded as the load and
    the previous angle, and the path goes on from the branch it lands on.
    A walk that runs off the grid is an error.  The walk only moves
    forward and carries its grid index from step to step, so a whole ramp
    reads each grid value at most once: it costs O(n + steps) on an
    n-point grid.

    The walk reads g only at grid points, so a stable root and the saddle
    that fall in the same grid cell are not told apart: the fold is then
    reported one load step early.  That needs a load within about
    |g''| * h**2 / 2 of the fold, with h the grid spacing (1.5e-3 rad in
    the default window).
    """
    if not 10 <= n_steps <= MAX_GRID_POINTS:
        raise InvalidArgumentError(f"n_steps must be in [10, "
                                   f"{MAX_GRID_POINTS}], got {n_steps}")
    if not math.isfinite(tau_max):
        raise InvalidArgumentError(f"tau_max must be finite, got {tau_max!r}")
    model._load_numpy()     # the path is arrays, so the scan may be too
    report = find_equilibria_1dof(design)
    stables = [e for e in report.equilibria if e.stable]
    if not stables:
        raise NonConvergenceError("no stable equilibrium to start from")
    grid, g = np.asarray(report.grid), np.asarray(report.gradient)
    gradient = model.scalar_model(design)[1]
    # In walk order, with g and the load negated for a falling load, the
    # stable branch always rises.
    sign = 1 if tau_max >= 0.0 else -1
    walk_grid, walk_g = grid[::sign].tolist(), (sign * g[::sign]).tolist()
    taus = np.linspace(0.0, tau_max, n_steps)
    thetas = np.empty(n_steps)
    thetas[0] = theta = stables[0].theta
    # The walk starts past every grid point at or behind theta.
    j = int(np.searchsorted(sign * grid[::sign], sign * theta, side="right"))
    folds = []
    for i in range(1, n_steps):
        tau, last, folded = float(taus[i]), sign * float(taus[i - 1]), False
        # g rises from the last load at theta; a fall on the way to the
        # crossing is a maximum of g passed, so the branch folded.  The
        # value at the crossing is at least the load: it is never a fall.
        while j < len(walk_g) and walk_g[j] < sign * tau:
            folded |= walk_g[j] < last
            last = walk_g[j]
            j += 1
        if j == len(walk_g):
            raise InvalidArgumentError(f"continuation left the solve window "
                                       f"at load {tau:.6g} N*m")
        if folded:
            folds.append((tau, theta))
        lo, hi = sorted((walk_grid[j - 1], walk_grid[j]))
        theta = _bracketed_root(lambda t: gradient(t) - tau, lo, hi, -1.0,
                                xtol=BISECTION_TOL)
        thetas[i] = theta
        # A root at float resolution may sit on grid point j itself.
        j += theta == walk_grid[j]
    energies = np.asarray(model.total_energy_1dof(thetas, design), dtype=float)
    return ContinuationPath(taus=taus, thetas=thetas, energies=energies,
                            fold_points=tuple(folds))


# ---------------------------------------------------------------------------
# Chain-model statics
# ---------------------------------------------------------------------------

CHAIN_GRAD_TOL = 1e-9


def _chain_newton(design, phi0, tol=CHAIN_GRAD_TOL, max_iter=200):
    """Damped Newton iteration to a stationary point of the chain energy.

    Returns the point and its Hessian, or None.  Each seed and line-search
    candidate takes its gradient and Hessian from one stacked call, so an
    accepted candidate brings the Hessian of the next step with it.
    """
    phi = np.array(phi0, dtype=float)
    g, hess = model.chain_gradient_hessian(phi, design)
    for _ in range(max_iter):
        gnorm = float(np.abs(g).max())
        if gnorm < tol:
            return phi, hess
        lam = 0.0
        for _ in range(12):
            try:
                # hess + 0.0 is the unshifted sum: -0.0 entries turn +0.0.
                step = np.linalg.solve(
                    hess + lam * np.eye(phi.size) if lam else hess + 0.0,
                    -g)
                break
            except np.linalg.LinAlgError:
                scale = float(np.abs(hess).max()) or 1.0
                lam = max(lam * 10.0, 1e-12 * scale)
        else:
            return None
        alpha = 1.0
        for _ in range(40):
            cand = phi + alpha * step
            g_new, hess_new = model.chain_gradient_hessian(cand, design)
            if float(np.abs(g_new).max()) < max(gnorm * (1.0 - 1e-4), tol):
                phi, g, hess = cand, g_new, hess_new
                break
            alpha *= 0.5
        else:
            return None
    return (phi, hess) if float(np.abs(g).max()) < tol else None


def _chain_equilibrium(design, phi, hess):
    """The chain equilibrium at ``phi``, whose Hessian is ``hess``, and its
    ascending Hessian spectrum."""
    eigs = np.linalg.eigvalsh(hess)
    return Equilibrium(theta=float(np.sum(phi)),
                       energy=float(model.chain_energy(phi, design)),
                       stable=bool(np.all(eigs > 0.0)),
                       curvature=float(eigs[0]),
                       configuration=ChainConfiguration(phi)), eigs


def find_equilibria_chain(design: GripperDesign,
                          seeds: Sequence) -> list:
    """Converge each seed to a chain equilibrium; merge duplicates.

    Per-seed non-convergence is skipped, not fatal.  Results are sorted by
    tip angle; duplicates within the merge tolerance keep the lowest-energy
    representative, with its own Hessian.
    """
    converged = []
    for seed in seeds:
        point = _chain_newton(design, seed)
        if point is not None:
            converged.append(point)
    merged = []
    for phi, hess in converged:
        for k, (other, _) in enumerate(merged):
            if float(np.max(np.abs(phi - other))) < MERGE_TOL:
                if (model.chain_energy(phi, design)
                        < model.chain_energy(other, design)):
                    merged[k] = phi, hess
                break
        else:
            merged.append((phi, hess))
    result = [_chain_equilibrium(design, phi, hess)[0]
              for phi, hess in merged]
    result.sort(key=lambda e: e.theta)
    return result


def default_chain_seeds(design: GripperDesign,
                        report: Optional[EquilibriumReport] = None) -> list:
    """Uniform-curvature seeds at the reduced-model wells (or ring wells)."""
    if report is None:
        report = find_equilibria_1dof(design)
    if report.bistable:
        tips = [report.open_state.theta, report.closed_state.theta]
    else:
        tips = list(design.ring.wells) + [design.finger.rest_angle]
    return [model.uniform_chain(design, t) for t in tips]


def saddle_search_chain(design: GripperDesign, minimum_a,
                        minimum_b) -> Equilibrium:
    """Transition state between two chain minima by one Newton solve.

    The seed is the highest inner point of 11 evenly spaced points on the
    straight path between the endpoints.  Newton iteration converges it to
    a stationary point, which must have exactly one negative Hessian
    eigenvalue.
    """
    ends = np.array([minimum_a, minimum_b], dtype=float)
    grads, hessians = model.chain_gradient_hessian(ends, design)
    if float(np.max(np.abs(grads))) > 1e-6:
        raise InvalidArgumentError(
            "saddle search endpoints must be converged equilibria")
    if not np.all(np.linalg.eigvalsh(hessians) > 0):
        raise InvalidArgumentError(
            "saddle search endpoints must be stable equilibria")
    frac = np.linspace(0.0, 1.0, 11)[:, None]
    path = (1.0 - frac) * ends[0] + frac * ends[1]
    seed = path[1 + int(np.argmax(model.chain_energy(path[1:-1], design)))]
    point = _chain_newton(design, seed, tol=1e-10)
    if point is None:
        raise NonConvergenceError("Newton iteration from the highest point "
                                  "of the straight path did not converge")
    eq, eigs = _chain_equilibrium(design, *point)
    n_neg = int(np.sum(eigs < 0.0))
    if n_neg != 1:
        raise SaddleOrderError(
            f"converged stationary point has {n_neg} unstable directions, "
            "expected exactly 1")
    return eq

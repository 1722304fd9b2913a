"""Picard iterations that close the loop between marches and sources.

The local runner freezes the change of variables at its initial map,
marches plate -> velocity -> temperature -> density over one horizon,
rebuilds the map from the velocity history and re-evaluates the
nonlinear sources; the fixed point of that loop is the short-time
solution. The global runner plays the same game around the decaying
linearisation: the temperature is split into a shifted heat solve plus
tracked averages, the remaining mean-zero system is marched with the
assembled coupled generator under the spatially constant plate forcing,
and every norm carries the exponential weight e^(beta t).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DiffeoFailure
from .core_grid import (
    BeamField,
    FluidField,
    Grid2D,
    NormSpec,
    _cumtrapz,
    _per_sample,
    _qth_root,
    discrete_norm,
    integrate_beam,
    integrate_fluid,
    weighted_time_norm,
)
from .chgvar import DiffeoMap, build_cutoff, check_diffeo, diffeo_series, initial_diffeo, suggested_floor
from .linear_subsystems import (
    PhysParams,
    SourceBundle,
    TemperatureStepper,
    VelocityStepper,
    _identity_metric,
    _splu,
    default_params,
    plate_energy,
    step_density,
    step_plate,
)
from .nonlinear_sources import FullState, check_compatibility, eval_global_sources, eval_local_sources
from .fs_operator import _grid_operators, _selection, assemble_coupled, pack_fields, unpack_fields
from .mirror import MirrorBlocks

GAMMA1 = 1.0
_FLOOR = 1e-30


@dataclass(frozen=True)
class IterationConfig:
    """Horizon, step, ball and exponent choices for one Picard run.

    The horizon T must be an integer number of steps dt. R bounds the
    source-bundle norm; left unset it defaults to min(1, 10 x data
    norm) at run time. beta weights time norms in the global regime.
    p and q are the temporal and spatial exponents; they must sit in
    the open ranges (2, inf) and (3, inf) and avoid the resonant line
    1/p + 1/(2q) = 1/2.
    """

    T: float
    dt: float
    R: float | None = None
    max_iters: int = 25
    tol: float = 1e-9
    beta: float = 0.0
    p: float = 4.0
    q: float = 4.0

    def __post_init__(self):
        problems = []
        bad = problems.append
        T, dt, p, q = self.T, self.dt, self.p, self.q
        if not 0 < T < math.inf:
            bad(f"horizon T must be positive and finite, got {T:g}")
        if not dt > 0:
            bad(f"step dt must be positive, got {dt:g}")
        if 0 < T < math.inf and dt > 0:
            n = round(T / dt)
            if n < 1 or abs(n * dt - T) > 1e-9 * max(T, 1.0):
                bad(f"dt={dt:g} does not divide the horizon T={T:g}")
        if not self.tol > 0:
            bad(f"tol must be positive, got {self.tol:g}")
        if self.max_iters < 1:
            bad(f"max_iters must be at least 1, got {self.max_iters}")
        if self.R is not None and not self.R > 0:
            bad(f"ball radius R must be positive when given, got {self.R:g}")
        if not self.beta >= 0:
            bad(f"decay weight beta must be nonnegative, got {self.beta:g}")
        if not p > 2:
            bad(f"time exponent p must exceed 2, got {p:g}")
        if not q > 3:
            bad(f"space exponent q must exceed 3, got {q:g}")
        if p > 2 and q > 3 and abs(1.0 / p + 1.0 / (2.0 * q) - 0.5) < 1e-12:
            bad(f"resonant exponent pair p={p:g}, q={q:g} (1/p + 1/(2q) = 1/2)")
        if problems:
            raise ConfigError.from_problems(problems)

    @property
    def nt(self) -> int:
        """Number of time samples, endpoints included."""
        return round(self.T / self.dt) + 1


@dataclass(frozen=True)
class IterationReport:
    """Norm history of one Picard run.

    bundle_norms[k] is the weighted norm of the k-th evaluated source
    bundle, diff_norms[k] the norm of its difference to the previous
    bundle and ratios the successive quotients of those differences.
    state_norms[k] is state_norm of sample k of the returned trajectory.
    """

    bundle_norms: tuple
    diff_norms: tuple
    ratios: tuple
    status: str
    message: str = ""
    decay_violation: bool = False
    state_norms: tuple = ()

    @property
    def iterations(self) -> int:
        return len(self.bundle_norms)

    @property
    def converged(self) -> bool:
        return self.status == "converged"


class _Samples(Sequence):
    """Per-sample view of a stacked series; items are built on access."""

    def __init__(self, stack, n: int):
        self.stack = stack
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(*k.indices(len(self))))
        if not -len(self) <= k < len(self):
            raise IndexError(f"sample {k} out of range for {len(self)} samples")
        return self.stack.sample(k % len(self))


@dataclass(frozen=True)
class Trajectory:
    """Time-sampled states with the map that accompanied each sample.

    states and maps are sequences of per-sample objects. A trajectory
    built by from_stacks keeps the samples stacked along a leading time
    axis and builds each per-sample object on access; state_stack and
    map_stack give the stacked form either way, for evaluations that
    run once over the whole series.
    """

    states: Sequence
    maps: Sequence
    dt: float
    mode: str

    def __post_init__(self):
        if self.mode not in ("local", "global"):
            raise ConfigError(f"unknown trajectory mode {self.mode!r}")
        if len(self.states) == 0:
            raise ConfigError("a trajectory needs at least one state")
        if len(self.maps) != len(self.states):
            raise ConfigError(f"{len(self.maps)} maps for {len(self.states)} states")

    @staticmethod
    def from_stacks(states: FullState, maps: DiffeoMap, dt: float, mode: str) -> "Trajectory":
        """Trajectory over the stacked samples that have a map.

        A failed map rebuild leaves fewer maps than states; the states
        past the last map are dropped.
        """
        n = len(maps.delta)
        if n < len(states.t):
            states = states.sample(slice(0, n))
        return Trajectory(_Samples(states, n), _Samples(maps, n), dt, mode)

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, n: int) -> FullState:
        return self.states[n]

    @property
    def grid(self) -> Grid2D:
        return self.states[0].grid

    @property
    def times(self) -> np.ndarray:
        return np.array(self.state_stack.t, dtype=float)

    @cached_property
    def state_stack(self) -> FullState:
        return _stack_of(self.states, FullState.stack)

    @cached_property
    def map_stack(self) -> DiffeoMap:
        return _stack_of(self.maps, DiffeoMap.stack)


def _stack_of(samples: Sequence, stack):
    return samples.stack if isinstance(samples, _Samples) else stack(samples)


@dataclass(frozen=True)
class ConservedSeries:
    times: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    mass_drift: float
    energy_drift: float


def state_norm(state: FullState, q: float = 4.0):
    """Solution-space proxy norm: the largest component Sobolev norm.

    First differences on the fluid fields, second differences on the
    beam displacement. Used for ball checks and decay diagnostics. A
    stack of states gets one norm per sample.
    """
    s1 = NormSpec(1, q)
    norms = [
        discrete_norm(state.rho, s1),
        discrete_norm(state.v, s1),
        discrete_norm(state.theta, s1),
        discrete_norm(state.eta1, NormSpec(2, q)),
        discrete_norm(state.eta2, s1),
    ]
    return _per_sample(np.max(norms, axis=0))


def _qnorms(w: np.ndarray, a: np.ndarray, q: float) -> np.ndarray:
    """Trapezoid q-norm of every sample of a stack, over the axes w covers."""
    axes = tuple(range(-w.ndim, 0))
    if math.isinf(q):
        return np.max(np.abs(a), axis=axes)
    return _qth_root(np.sum(w * np.abs(a) ** q, axis=axes), q)


def _bundle_series(grid: Grid2D, q: float, f1, f2, f3, g, h, h_hat) -> np.ndarray:
    """Per-sample magnitude of a source bundle (or of a difference).

    Fluid components carry the trapezoid q-norm, the flux samples a
    boundary max, the beam forcing the beam q-norm; the spatially
    constant forcing enters by absolute value.
    """
    w = grid.weights
    f2_sum = np.sum(w * (np.abs(f2[..., 0]) ** q + np.abs(f2[..., 1]) ** q), axis=(-2, -1))
    mags = [
        _qnorms(w, f1, q),
        _qth_root(f2_sum, q),
        _qnorms(w, f3, q),
        np.max(np.abs(g[:, grid.mask_boundary]), axis=-1),
        _qnorms(grid.beam_weights, h, q),
    ]
    if h_hat is not None:
        mags.append(np.abs(h_hat))
    return np.max(mags, axis=0)


def _bundle_norm(bundle: SourceBundle, cfg: IterationConfig, beta: float) -> float:
    s = _bundle_series(bundle.grid, cfg.q, bundle.f1, bundle.f2, bundle.f3, bundle.g, bundle.h, bundle.h_hat)
    return weighted_time_norm(s, bundle.dt, NormSpec(0, cfg.q, cfg.p, beta))


def _diff_norm(new: SourceBundle, old: SourceBundle, cfg: IterationConfig, beta: float) -> float:
    hh_new = new.h_hat if new.h_hat is not None else np.zeros(new.nt)
    hh_old = old.h_hat if old.h_hat is not None else np.zeros(old.nt)
    s = _bundle_series(
        new.grid,
        cfg.q,
        new.f1 - old.f1,
        new.f2 - old.f2,
        new.f3 - old.f3,
        new.g - old.g,
        new.h - old.h,
        hh_new - hh_old,
    )
    return weighted_time_norm(s, new.dt, NormSpec(0, cfg.q, cfg.p, beta))


def _maps_from_history(X0: DiffeoMap, vhist: np.ndarray, dt: float, c0: float):
    """Rebuild the map at every sample from the velocity history.

    Cumulative trapezoid displacement, so sample n agrees with handing
    the first n+1 velocity slices to the one-shot map update; sample 0
    is X0 itself. One batched metric evaluation covers every sample.
    Returns the map series up to the first sample whose determinant
    hits the floor, and that failure (None when no sample does).
    """
    X = X0.X + _cumtrapz(vhist, dt)
    X[0] = X0.X
    return diffeo_series(X0.grid, X, c0)


def _difference_quotients(values: np.ndarray, dt: float) -> np.ndarray:
    """Backward quotients along axis 0; the first sample reuses the first step."""
    dq = np.empty_like(values)
    dq[1:] = (values[1:] - values[:-1]) / dt
    dq[0] = dq[1]
    return dq


def _grows_across(series: np.ndarray) -> bool:
    s = np.asarray(series, dtype=float)
    if s.size < 2:
        return False
    half = max(1, s.size // 2)
    return bool(np.max(s[half:]) > np.max(s[:half]) + _FLOOR)


def _preflight(initial: FullState, cfg: IterationConfig, params: PhysParams, mode: str):
    """Shared admission checks; returns the frozen map and its floor."""
    compat = check_compatibility(initial, params, mode=mode, p=cfg.p, q=cfg.q)
    if not compat.all_passed:
        raise ConfigError("initial state fails the compatibility conditions:\n" + "\n".join(compat.lines()))
    chi = build_cutoff(initial.grid)
    X0 = initial_diffeo(initial.eta1, chi)
    c0 = suggested_floor(X0)
    cert = check_diffeo(X0, c0)
    if not cert.passed:
        raise DiffeoFailure(
            f"initial map fails its own floor {c0:.3e} at node {cert.worst_node}",
            node=cert.worst_node,
            value=cert.min_delta,
        )
    data = state_norm(initial, cfg.q)
    # 10x the data norm capped at 1, but never below the data norm itself:
    # local states carry the order-one background density, which the cap
    # alone would reject. The ball constrains the source-bundle iterates,
    # not the data, so an explicit smaller R is allowed and simply exits.
    R = cfg.R if cfg.R is not None else max(min(1.0, 10.0 * data), data)
    return X0, c0, R


def _same_bundle(a: SourceBundle, b: SourceBundle) -> bool:
    """Slot-by-slot value equality; -0.0 matches +0.0."""
    if (a.h_hat is None) != (b.h_hat is None):
        return False
    pairs = zip((a.f1, a.f2, a.f3, a.g, a.h, a.h_hat), (b.f1, b.f2, b.f3, b.g, b.h, b.h_hat))
    return all(x is None or np.array_equal(x, y) for x, y in pairs)


def _picard(march, evaluate, bundle0: SourceBundle, cfg: IterationConfig, R: float, beta: float, data_scale: float):
    """Drive bundle -> march -> sources -> bundle until the update stalls.

    march(bundle) -> (states, maps, err), states and maps stacked along
    time; map failures surface through the error slot instead of
    raising so a partial trajectory survives for the report.
    Convergence is a relative bundle-difference test, with an absolute
    escape for bundles that sit at round-off of the data scale (steady
    data never clears the relative bar because the signal itself is
    machine noise there). A converged or exhausted loop marches once
    more only when its final bundle moved away from the last marched
    one, so the returned trajectory always matches the final bundle;
    steady data keeps its single march.
    """
    zero_tol = 1e3 * np.finfo(float).eps * max(data_scale, _FLOOR)
    bundle = bundle0
    bundle_norms: list[float] = []
    diff_norms: list[float] = []
    ratios: list[float] = []
    status, message = "max-iters", ""
    for _ in range(cfg.max_iters):
        states, maps, err = march(bundle)
        marched = bundle
        if err is not None:
            status, message = "diffeo-failure", str(err)
            break
        new_bundle = evaluate(states, maps)
        bn = _bundle_norm(new_bundle, cfg, beta)
        bundle_norms.append(bn)
        if bn > R:
            status = "ball-exit"
            message = f"source bundle norm {bn:.3e} left the ball of radius {R:.3e}; halve the horizon and retry"
            break
        dn = _diff_norm(new_bundle, bundle, cfg, beta)
        diff_norms.append(dn)
        if len(diff_norms) > 1 and diff_norms[-2] > 0:
            ratios.append(dn / diff_norms[-2])
        bundle = new_bundle
        if bn <= zero_tol:
            status = "converged"
            message = "source bundle at round-off of the data scale"
            break
        if dn < cfg.tol * max(bn, _FLOOR):
            status = "converged"
            break
    if status in ("converged", "max-iters") and not _same_bundle(bundle, marched):
        states, maps, err = march(bundle)
        if err is not None:
            status, message = "diffeo-failure", str(err)
    report = IterationReport(tuple(bundle_norms), tuple(diff_norms), tuple(ratios), status, message)
    return states, maps, bundle, report


class _LocalEngine:
    """Frozen-map cascade plus source evaluation for one local run."""

    def __init__(self, initial: FullState, cfg: IterationConfig, params: PhysParams):
        self.initial = initial
        self.cfg = cfg
        self.params = params
        self.grid = initial.grid
        self.X0, self.c0, self.R = _preflight(initial, cfg, params, "local")
        self.rho0 = initial.rho
        self.vstep = VelocityStepper(self.grid, self.X0, self.rho0, params, cfg.dt)
        self.tstep = TemperatureStepper(self.grid, self.X0, self.rho0, params, cfg.dt)

    def march(self, bundle: SourceBundle):
        grid, dt, nt = self.grid, self.cfg.dt, self.cfg.nt
        initial = self.initial
        rho = np.empty((nt,) + grid.shape)
        v = np.empty((nt,) + grid.shape + (2,))
        th = np.empty((nt,) + grid.shape)
        e1s = np.empty((nt, grid.nx + 1))
        e2s = np.empty((nt, grid.nx + 1))
        rho[0], v[0], th[0] = initial.rho.values, initial.v.values, initial.theta.values
        e1s[0], e2s[0] = initial.eta1.values, initial.eta2.values
        rho_f, e1, e2 = initial.rho, initial.eta1, initial.eta2
        for n in range(nt - 1):
            e1, e2 = step_plate(e1, e2, BeamField(grid, bundle.h_total(n + 1)), dt)
            v[n + 1] = self.vstep.step(v[n], e2, bundle.f2[n + 1])
            th[n + 1] = self.tstep.step(th[n], bundle.f3[n + 1], bundle.g[n + 1])
            rho[n + 1] = step_density(
                rho_f, v[n + 1], bundle.f1[n + 1], self.X0, self.rho0, dt, v_prev=v[n], f1_prev=bundle.f1[n]
            )
            rho_f = FluidField(grid, rho[n + 1])
            e1s[n + 1], e2s[n + 1] = e1.values, e2.values
        t = np.arange(nt) * dt
        t[0] = initial.t
        states = FullState(
            FluidField(grid, rho),
            FluidField(grid, v, kind="vector"),
            FluidField(grid, th),
            BeamField(grid, e1s, clamped=initial.eta1.clamped),
            BeamField(grid, e2s, clamped=initial.eta2.clamped),
            t=t,
        )
        maps, err = _maps_from_history(self.X0, v, dt, self.c0)
        return states, maps, err

    def evaluate(self, states: FullState, maps: DiffeoMap) -> SourceBundle:
        dt = self.cfg.dt
        sources = eval_local_sources(
            states, maps, self.X0, self.rho0, self.params,
            dv_dt=_difference_quotients(states.v.values, dt),
            dtheta_dt=_difference_quotients(states.theta.values, dt),
        )
        return SourceBundle(self.grid, dt, *sources)


class _GlobalEngine:
    """Split linear march plus perturbation sources for one global run.

    The temperature is peeled into a shifted heat solve (carrying f3 and
    the flux data), its tracked spatial average, and a mean-zero
    remainder; the remainder joins density, velocity and plate in a
    backward Euler march with the assembled coupled generator. The
    spatially constant plate forcing joins its beam-velocity rows: the
    march is linear, so one march on the summed forcing is the sum of
    the marches each forcing drives. The march conserves the discrete
    mass and mean functionals exactly, step by step.

    The generator commutes with the mirror x -> L - x (`MirrorBlocks`
    certifies it), so the march runs in the mirror's even/odd
    coordinates: one factor of the block-diagonal I/dt - A, with about
    half the fill of the full matrix, and one solve per step. The forcing
    and the initial state are split once per march, the trajectory is
    lifted once.
    """

    def __init__(self, initial: FullState, cfg: IterationConfig, params: PhysParams):
        self.initial = initial
        self.cfg = cfg
        self.params = params
        self.grid = initial.grid
        self.X0, self.c0, self.R = _preflight(initial, cfg, params, "global")
        op = assemble_coupled(self.grid, params)
        self.layout = op.layout
        self.mirror = MirrorBlocks(op)
        march = sp.identity(self.layout.total, format="csr") / cfg.dt - op.matrix
        self.lu = _splu(self.mirror.block_diagonal(march), "coupled march")
        self.dx_sbp, self.dy_sbp = _grid_operators(self.grid)[:2]
        self.sel = _selection(self.layout)[0]
        eye = _identity_metric(self.grid)
        rho_ref = FluidField(self.grid, np.full(self.grid.shape, params.rho_bar))
        self.sharp_step = TemperatureStepper(
            self.grid, (eye, np.ones(self.grid.shape), eye), rho_ref, params, cfg.dt, gamma1=GAMMA1
        )

    def march(self, bundle: SourceBundle):
        grid, dt, nt = self.grid, self.cfg.dt, self.cfg.nt
        initial = self.initial
        layout, lu = self.layout, self.lu
        R0, rho_bar, theta_bar = self.params.R0, self.params.rho_bar, self.params.theta_bar
        area, w = grid.area, grid.weights

        th_sharp = np.empty((nt,) + grid.shape)
        th_sharp[0] = initial.theta.values
        for n in range(nt - 1):
            th_sharp[n + 1] = self.sharp_step.step(th_sharp[n], bundle.f3[n + 1], bundle.g[n + 1])
        th_avg = np.tensordot(th_sharp, w, axes=([1, 2], [0, 1])) / area
        th_flat = GAMMA1 * _cumtrapz(th_avg, dt)
        f1_avg = np.tensordot(bundle.f1, w, axes=([1, 2], [0, 1])) / area
        rho_flat0 = (integrate_fluid(grid, initial.rho.values) + rho_bar * integrate_beam(grid, initial.eta1.values)) / area
        rho_flat = rho_flat0 + _cumtrapz(f1_avg, dt)
        h_hat = bundle.h_hat if bundle.h_hat is not None else np.zeros(nt)

        # forcing of every step at once; the spatially constant plate
        # forcing Fd joins the beam-velocity rows, so one march carries it
        steps = nt - 1
        ts = th_sharp[1:].reshape(steps, -1).T
        F = np.zeros((steps, layout.total))
        F[:, layout.sl_rho] = (bundle.f1[1:] - f1_avg[1:, None, None]).reshape(steps, -1)
        F[:, layout.sl_vx] = (self.sel @ (bundle.f2[1:, ..., 0].reshape(steps, -1).T - R0 * (self.dx_sbp @ ts))).T
        F[:, layout.sl_vy] = (self.sel @ (bundle.f2[1:, ..., 1].reshape(steps, -1).T - R0 * (self.dy_sbp @ ts))).T
        F[:, layout.sl_theta] = GAMMA1 * (th_sharp[1:] - th_avg[1:, None, None]).reshape(steps, -1)
        Fd = h_hat[1:] + R0 * theta_bar * rho_flat[1:] + R0 * rho_bar * th_flat[1:]
        F[:, layout.sl_eta2] = bundle.h[1:, 1:-1] + R0 * rho_bar * th_sharp[1:, 1:-1, -1] + Fd[:, None]

        # backward Euler in the mirror's block coordinates, one solve per step
        coords = np.empty((nt, layout.total))
        coords[0] = self.mirror.split(pack_fields(
            layout,
            initial.rho.values - rho_flat[0],
            initial.v.values,
            np.zeros(grid.shape),
            initial.eta1.values,
            initial.eta2.values,
        ))
        G = self.mirror.split(F)
        for n in range(steps):
            coords[n + 1] = lu.solve(coords[n] / dt + G[n])

        rho_c, v_c, th_c, e1, e2 = unpack_fields(layout, self.mirror.lift(coords))
        states = FullState(
            FluidField(grid, rho_c + rho_flat[:, None, None]),
            FluidField(grid, v_c, kind="vector"),
            FluidField(grid, th_c + th_sharp + th_flat[:, None, None]),
            BeamField(grid, e1, clamped=True),
            BeamField(grid, e2, clamped=True),
            t=np.arange(nt) * dt,
        )
        maps, err = _maps_from_history(self.X0, v_c, dt, self.c0)
        return states, maps, err

    def evaluate(self, states: FullState, maps: DiffeoMap) -> SourceBundle:
        dt = self.cfg.dt
        sources = eval_global_sources(
            states, maps, self.params,
            dv_dt=_difference_quotients(states.v.values, dt),
            dtheta_dt=_difference_quotients(states.theta.values, dt),
        )
        return SourceBundle(self.grid, dt, *sources)


def _check_bundle(bundle, nt: int, want_hat: bool):
    if bundle.nt != nt:
        raise ConfigError(f"bundle has {bundle.nt} samples, horizon needs {nt}")
    if want_hat and bundle.h_hat is None:
        raise ConfigError("the global iteration needs a bundle with the split plate forcing (h_hat)")


def run_local(
    initial: FullState,
    cfg: IterationConfig,
    params: PhysParams | None = None,
    first_bundle: SourceBundle | None = None,
):
    """Short-horizon Picard construction around the frozen-map cascade.

    Marches the plate, then velocity, temperature and density with all
    coefficients frozen at the initial map, rebuilds the moving map from
    the velocity history and re-evaluates the sources. Stops when the
    relative bundle update falls under cfg.tol. Returns the trajectory
    of the last march and the norm history; a ball exit or a Jacobian
    floor hit ends the loop with the matching status instead of raising.
    """
    params = params if params is not None else default_params()
    eng = _LocalEngine(initial, cfg, params)
    bundle0 = first_bundle if first_bundle is not None else SourceBundle.zeros(initial.grid, cfg.nt, cfg.dt)
    _check_bundle(bundle0, cfg.nt, want_hat=False)
    states, maps, _, report = _picard(
        eng.march, eng.evaluate, bundle0, cfg, eng.R, beta=0.0, data_scale=state_norm(initial, cfg.q)
    )
    traj = Trajectory.from_stacks(states, maps, cfg.dt, "local")
    return traj, replace(report, state_norms=tuple(state_norm(traj.state_stack, cfg.q)))


def run_global(
    initial: FullState,
    cfg: IterationConfig,
    params: PhysParams | None = None,
    t_max: float | None = None,
    first_bundle: SourceBundle | None = None,
):
    """Picard construction around the decaying linearisation.

    Norms carry the weight e^(beta t) with beta = cfg.beta > 0, so a
    converged run certifies decay at that rate in the weighted sense.
    The report flags a decay violation when the weighted solution norm
    grows across the horizon. t_max, when given, replaces cfg.T.
    """
    params = params if params is not None else default_params()
    params.require_global()
    if not cfg.beta > 0:
        raise ConfigError(f"the global iteration needs a positive decay weight, got beta={cfg.beta}")
    if t_max is not None:
        cfg = replace(cfg, T=float(t_max))
    eng = _GlobalEngine(initial, cfg, params)
    bundle0 = first_bundle if first_bundle is not None else SourceBundle.zeros(initial.grid, cfg.nt, cfg.dt, with_hat=True)
    _check_bundle(bundle0, cfg.nt, want_hat=True)
    states, maps, _, report = _picard(
        eng.march, eng.evaluate, bundle0, cfg, eng.R, beta=cfg.beta, data_scale=state_norm(initial, cfg.q)
    )
    traj = Trajectory.from_stacks(states, maps, cfg.dt, "global")
    norms = state_norm(traj.state_stack, cfg.q)
    weighted = np.exp(cfg.beta * traj.times) * norms
    return traj, replace(report, decay_violation=_grows_across(weighted), state_norms=tuple(norms))


def march_local(
    initial: FullState,
    cfg: IterationConfig,
    params: PhysParams | None = None,
    bundle: SourceBundle | None = None,
) -> Trajectory:
    """One pass of the frozen-map cascade with fixed sources (zeros if omitted).

    No outer iteration: this is the linear march the Picard loop calls,
    exposed for consistency and conservation studies. Map failures raise.
    """
    params = params if params is not None else default_params()
    eng = _LocalEngine(initial, cfg, params)
    bundle = bundle if bundle is not None else SourceBundle.zeros(initial.grid, cfg.nt, cfg.dt)
    _check_bundle(bundle, cfg.nt, want_hat=False)
    states, maps, err = eng.march(bundle)
    if err is not None:
        raise err
    return Trajectory.from_stacks(states, maps, cfg.dt, "local")


def march_global(
    initial: FullState,
    cfg: IterationConfig,
    params: PhysParams | None = None,
    bundle: SourceBundle | None = None,
) -> Trajectory:
    """One pass of the split linear march with fixed sources (zeros if omitted)."""
    params = params if params is not None else default_params()
    params.require_global()
    eng = _GlobalEngine(initial, cfg, params)
    bundle = bundle if bundle is not None else SourceBundle.zeros(initial.grid, cfg.nt, cfg.dt, with_hat=True)
    _check_bundle(bundle, cfg.nt, want_hat=True)
    states, maps, err = eng.march(bundle)
    if err is not None:
        raise err
    return Trajectory.from_stacks(states, maps, cfg.dt, "global")


def conserved_quantities(traj: Trajectory, params: PhysParams | None = None) -> ConservedSeries:
    """Mass functional and an energy proxy along a trajectory.

    Local trajectories weigh the density by the map Jacobian, so the
    series is the mass of the moving domain; global trajectories track
    the linear combination of fluid mass and beam displacement that the
    perturbation system conserves, which needs the reference density.
    The energy proxy sums kinetic, plate and quadratic temperature
    terms; it is a monitoring quantity, not an exact invariant.
    """
    grid = traj.grid
    st = traj.state_stack
    rho, v2, th2 = st.rho.values, np.sum(st.v.values**2, axis=-1), st.theta.values**2
    if traj.mode == "local":
        delta = traj.map_stack.delta
        mass = integrate_fluid(grid, rho * delta)
        kin = 0.5 * integrate_fluid(grid, rho * v2 * delta)
        th = 0.5 * integrate_fluid(grid, th2 * delta)
    else:
        if params is None:
            raise ConfigError("global conserved quantities need the physical parameters")
        rb = params.rho_bar
        mass = integrate_fluid(grid, rho) + rb * integrate_beam(grid, st.eta1.values)
        kin = 0.5 * rb * integrate_fluid(grid, v2)
        th = 0.5 * integrate_fluid(grid, th2)
    energy = kin + th + plate_energy(st.eta1, st.eta2)
    return ConservedSeries(
        times=traj.times,
        mass=mass,
        energy=energy,
        mass_drift=float(np.max(np.abs(mass - mass[0]))),
        energy_drift=float(np.max(energy) - energy[0]),
    )

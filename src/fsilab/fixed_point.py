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
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DiffeoFailure, NumericsError, _rebased
from .core_grid import (
    BeamField,
    FluidField,
    Grid2D,
    NormSpec,
    _cumtrapz,
    _per_sample,
    _qth_root,
    _sample_blocks,
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
    _identity_metrics,
    _splu,
    default_params,
    plate_energy,
    step_density,
    step_plate,
)
from .nonlinear_sources import FullState, _exponent_problems, check_compatibility, eval_global_sources, eval_local_sources
from .fs_operator import _sbp_gradient, assemble_coupled, pack_fields, unpack_fields
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
    1/p + 1/(2q) = 1/2, by the rule the compatibility report applies.
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
        T, dt = self.T, self.dt
        if not 0 < T < math.inf:
            bad(f"horizon T must be positive and finite, got {T:g}")
        if not dt > 0:
            bad(f"step dt must be positive, got {dt:g}")
        if 0 < T < math.inf and dt > 0:
            n = round(T / dt)
            if n < 1 or abs(n * dt - T) > 1e-9 * max(T, 1.0):
                bad(f"dt={dt:g} does not divide the horizon T={T:g}")
        if not 0 < self.tol < math.inf:
            bad(f"tol must be positive and finite, got {self.tol:g}")
        if self.max_iters < 1:
            bad(f"max_iters must be at least 1, got {self.max_iters}")
        if self.R is not None and not self.R > 0:
            bad(f"ball radius R must be positive when given, got {self.R:g}")
        if not 0 <= self.beta < math.inf:
            bad(f"decay weight beta must be nonnegative and finite, got {self.beta:g}")
        problems += _exponent_problems(self.p, self.q)
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


@dataclass(frozen=True)
class Trajectory:
    """Time-sampled states with the map that accompanied each sample.

    states and maps are stacked along a leading time axis, one sample
    per time stamp in states.t; traj[k] is the k-th state on its own.
    """

    states: FullState
    maps: DiffeoMap
    dt: float
    mode: str

    def __post_init__(self):
        if self.mode not in ("local", "global"):
            raise ConfigError(f"unknown trajectory mode {self.mode!r}")
        if np.ndim(self.states.t) != 1 or len(self) == 0:
            raise ConfigError("a trajectory needs a stack of at least one state")
        if self.maps.delta.ndim != 3 or len(self.maps.delta) != len(self):
            raise ConfigError(f"need one stacked map per state, got map shape {self.maps.delta.shape} for {len(self)} states")

    def __len__(self) -> int:
        return len(self.states.t)

    def __getitem__(self, n: int) -> FullState:
        return self.states.sample(n)

    @property
    def grid(self) -> Grid2D:
        return self.states.grid

    @property
    def times(self) -> np.ndarray:
        return self.states.t


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


def _slots(b: SourceBundle) -> tuple:
    return b.f1, b.f2, b.f3, b.g, b.h, b.h_hat


def _bundle_series(q: float, new: SourceBundle, old: SourceBundle | None = None) -> np.ndarray:
    """Per-sample magnitude of a source bundle, or of its difference to
    old, taken one block of samples at a time."""
    out = np.empty(new.nt)
    for sl in _sample_blocks(new.nt, new.grid.n_nodes):
        parts = [a[sl] for a in _slots(new)]
        if old is not None:
            parts = [a - b[sl] for a, b in zip(parts, _slots(old))]
        out[sl] = _magnitudes(new.grid, q, *parts)
    return out


def _magnitudes(grid: Grid2D, q: float, f1, f2, f3, g, h, h_hat) -> np.ndarray:
    """Per-sample magnitude of a stack of bundle samples.

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
        np.abs(h_hat),
    ]
    return np.max(mags, axis=0)


def _bundle_norm(bundle: SourceBundle, cfg: IterationConfig, beta: float) -> float:
    s = _bundle_series(cfg.q, bundle)
    return weighted_time_norm(s, bundle.dt, NormSpec(0, cfg.q, cfg.p, beta))


def _diff_norm(new: SourceBundle, old: SourceBundle, cfg: IterationConfig, beta: float) -> float:
    s = _bundle_series(cfg.q, new, old)
    return weighted_time_norm(s, new.dt, NormSpec(0, cfg.q, cfg.p, beta))


def _maps_from_history(X0: DiffeoMap, vhist: np.ndarray, dt: float, c0: float):
    """Rebuild the map at every sample from the velocity history.

    Cumulative trapezoid displacement, so sample n agrees with handing
    the first n+1 velocity slices to the one-shot map update; sample 0
    is X0 itself. The displacement stack becomes the positions in place.
    Returns the map series up to the first sample whose determinant
    hits the floor, and that failure (None when no sample does).
    """
    X = _cumtrapz(vhist, dt)
    X += X0.X
    X[0] = X0.X
    return diffeo_series(X0.grid, X, c0)


def _difference_quotients(values: np.ndarray, dt: float, rows: slice = slice(None)) -> np.ndarray:
    """Backward quotients along axis 0 at the samples `rows`; the first
    sample reuses the first step."""
    k = np.maximum(np.arange(*rows.indices(len(values))), 1)
    return (values[k] - values[k - 1]) / dt


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
    return all(np.array_equal(x, y) for x, y in zip(_slots(a), _slots(b)))


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
        # the last march's stacks go before the next march builds its own
        marched, states, maps = bundle, None, None
        states, maps, err = march(bundle)
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
        states, maps = None, None
        states, maps, err = march(bundle)
        if err is not None:
            status, message = "diffeo-failure", str(err)
    report = IterationReport(tuple(bundle_norms), tuple(diff_norms), tuple(ratios), status, message)
    return states, maps, bundle, report


class _Engine:
    """What both engines share: the admission checks with the frozen map
    they yield, the stacked states and maps of one march, and the source
    bundle of those stacks, evaluated one block of samples at a time."""

    mode: str

    def __init__(self, initial: FullState, cfg: IterationConfig, params: PhysParams):
        self.initial = initial
        self.cfg = cfg
        self.params = params
        self.grid = initial.grid
        self.X0, self.c0, self.R = _preflight(initial, cfg, params, self.mode)

    def _stacks(self, rho, v, theta, eta1, eta2, clamped: tuple[bool, bool]):
        """The marched fields as one stacked state, sample n stamped at
        initial.t + n dt, and the maps rebuilt from their velocity.

        A map failure keeps only the states that have a map, and returns
        the failure in the error slot.
        """
        grid, dt = self.grid, self.cfg.dt
        states = FullState(
            FluidField(grid, rho),
            FluidField(grid, v, kind="vector"),
            FluidField(grid, theta),
            BeamField(grid, eta1, clamped=clamped[0]),
            BeamField(grid, eta2, clamped=clamped[1]),
            t=self.initial.t + np.arange(len(rho)) * dt,
        )
        maps, err = _maps_from_history(self.X0, v, dt, self.c0)
        if err is not None:
            states = states.sample(slice(0, len(maps.delta)))
        return states, maps, err

    def _sources(self, states: FullState, maps: DiffeoMap, evaluator, *args) -> SourceBundle:
        """The source bundle of a stacked march, evaluated one block of
        samples at a time into slots allocated once.

        Every sample's sources are its own, so the bundle is bit for bit
        one evaluation of the whole stack; a failure names its sample in
        the whole stack. The local sources leave h_hat at zero.
        """
        dt, nt = self.cfg.dt, len(states.t)
        bundle = SourceBundle.zeros(self.grid, nt, dt)
        slots = _slots(bundle)
        for sl in _sample_blocks(nt, self.grid.n_nodes):
            try:
                parts = evaluator(
                    states.sample(sl), maps.sample(sl), *args,
                    dv_dt=_difference_quotients(states.v.values, dt, sl),
                    dtheta_dt=_difference_quotients(states.theta.values, dt, sl),
                )
            except (DiffeoFailure, NumericsError) as err:
                raise _rebased(err, sl.start)
            for slot, part in zip(slots, parts):
                slot[sl] = part
            del parts  # before the next block's sources are built
        return bundle


class _LocalEngine(_Engine):
    """Frozen-map cascade plus source evaluation for one local run."""

    mode = "local"

    def __init__(self, initial: FullState, cfg: IterationConfig, params: PhysParams):
        super().__init__(initial, cfg, params)
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
        return self._stacks(rho, v, th, e1s, e2s, (initial.eta1.clamped, initial.eta2.clamped))

    def evaluate(self, states: FullState, maps: DiffeoMap) -> SourceBundle:
        return self._sources(states, maps, eval_local_sources, self.X0, self.rho0, self.params)


class _GlobalEngine(_Engine):
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
    half the fill of the full matrix. Each step builds its forcing as
    fields, packs it with `pack_fields`, splits it, makes one solve and
    lifts and unpacks the new sample into the output fields. No
    whole-horizon array is kept beyond the outputs: the shifted heat
    solve is overwritten by the temperature.
    """

    mode = "global"

    def __init__(self, initial: FullState, cfg: IterationConfig, params: PhysParams):
        params.require_global()
        super().__init__(initial, cfg, params)
        op = assemble_coupled(self.grid, params)
        self.layout = op.layout
        self.mirror = MirrorBlocks(op)
        march = sp.identity(self.layout.total, format="csr") / cfg.dt - op.matrix
        self.lu = _splu(self.mirror.block_diagonal(march), "coupled march")
        # the stacked SBP gradient (d/dx; d/dy) at the nodes
        self.grad = sp.vstack(_sbp_gradient(self.grid), format="csr")
        rho_ref = FluidField(self.grid, np.full(self.grid.shape, params.rho_bar))
        self.sharp_step = TemperatureStepper(
            self.grid, _identity_metrics(self.grid), rho_ref, params, cfg.dt, gamma1=GAMMA1
        )

    def march(self, bundle: SourceBundle):
        grid, dt, nt = self.grid, self.cfg.dt, self.cfg.nt
        initial, layout, mirror = self.initial, self.layout, self.mirror
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
        # the spatially constant plate forcing Fd joins the beam-velocity
        # rows, so one march carries it
        Fd = bundle.h_hat + R0 * theta_bar * rho_flat + R0 * rho_bar * th_flat
        no_deflection = np.zeros(grid.nx + 1)

        # backward Euler in the mirror's block coordinates, one solve per
        # step; each sample is unpacked as it is made, and the temperature
        # takes the place of the shifted heat solve that drove its step
        rho = np.empty((nt,) + grid.shape)
        v = np.empty((nt,) + grid.shape + (2,))
        e1, e2 = np.empty((nt, grid.nx + 1)), np.empty((nt, grid.nx + 1))
        c = mirror.split(pack_fields(
            layout, initial.rho.values - rho_flat[0], initial.v.values, np.zeros(grid.shape),
            initial.eta1.values, initial.eta2.values,
        ))
        for n in range(nt):
            if n:
                grad = np.moveaxis((self.grad @ th_sharp[n].ravel()).reshape((2,) + grid.shape), 0, -1)
                forcing = pack_fields(
                    layout,
                    bundle.f1[n] - f1_avg[n],
                    bundle.f2[n] - R0 * grad,
                    GAMMA1 * (th_sharp[n] - th_avg[n]),
                    no_deflection,
                    bundle.h[n] + R0 * rho_bar * th_sharp[n, :, -1] + Fd[n],
                )
                c = self.lu.solve(c / dt + mirror.split(forcing))
            rho_c, v[n], th_c, e1[n], e2[n] = unpack_fields(layout, mirror.lift(c))
            rho[n] = rho_c + rho_flat[n]
            th_sharp[n] = th_c + th_sharp[n] + th_flat[n]
        return self._stacks(rho, v, th_sharp, e1, e2, (True, True))

    def evaluate(self, states: FullState, maps: DiffeoMap) -> SourceBundle:
        return self._sources(states, maps, eval_global_sources, self.params)


def _start(engine, initial: FullState, cfg: IterationConfig, params: PhysParams | None, bundle: SourceBundle | None):
    """Start-up shared by the four drivers: the first source bundle,
    zeros unless given, checked before anything is factored, and the
    engine, with default parameters unless given."""
    if bundle is None:
        bundle = SourceBundle.zeros(initial.grid, cfg.nt, cfg.dt)
    if bundle.nt != cfg.nt:
        raise ConfigError(f"bundle has {bundle.nt} samples, horizon needs {cfg.nt}")
    return engine(initial, cfg, params if params is not None else default_params()), bundle


def _march_once(eng: _Engine, bundle: SourceBundle) -> Trajectory:
    states, maps, err = eng.march(bundle)
    if err is not None:
        raise err
    return Trajectory(states, maps, eng.cfg.dt, eng.mode)


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
    relative bundle update falls under cfg.tol. Returns the stacked
    trajectory of the last march and the norm history; a ball exit or a
    Jacobian floor hit ends the loop with the matching status instead
    of raising, and the trajectory then stops at the last sample whose
    map cleared the floor.
    """
    eng, bundle0 = _start(_LocalEngine, initial, cfg, params, first_bundle)
    states, maps, _, report = _picard(
        eng.march, eng.evaluate, bundle0, cfg, eng.R, beta=0.0, data_scale=state_norm(initial, cfg.q)
    )
    traj = Trajectory(states, maps, cfg.dt, "local")
    return traj, replace(report, state_norms=tuple(state_norm(states, cfg.q)))


def run_global(
    initial: FullState,
    cfg: IterationConfig,
    params: PhysParams | None = None,
    first_bundle: SourceBundle | None = None,
):
    """Picard construction around the decaying linearisation.

    Norms carry the weight e^(beta t) with beta = cfg.beta > 0, so a
    converged run certifies decay at that rate in the weighted sense.
    Returns the stacked trajectory of the last march and the norm
    history; the report flags a decay violation when the weighted
    solution norm grows across the horizon.
    """
    if not cfg.beta > 0:
        raise ConfigError(f"the global iteration needs a positive decay weight, got beta={cfg.beta}")
    eng, bundle0 = _start(_GlobalEngine, initial, cfg, params, first_bundle)
    states, maps, _, report = _picard(
        eng.march, eng.evaluate, bundle0, cfg, eng.R, beta=cfg.beta, data_scale=state_norm(initial, cfg.q)
    )
    traj = Trajectory(states, maps, cfg.dt, "global")
    norms = state_norm(states, cfg.q)
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
    exposed for consistency and conservation studies. Returns the
    stacked trajectory; map failures raise.
    """
    return _march_once(*_start(_LocalEngine, initial, cfg, params, bundle))


def march_global(
    initial: FullState,
    cfg: IterationConfig,
    params: PhysParams | None = None,
    bundle: SourceBundle | None = None,
) -> Trajectory:
    """One pass of the split linear march with fixed sources (zeros if
    omitted). Returns the stacked trajectory; map failures raise."""
    return _march_once(*_start(_GlobalEngine, initial, cfg, params, bundle))


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
    st = traj.states
    rho, v2, th2 = st.rho.values, np.sum(st.v.values**2, axis=-1), st.theta.values**2
    if traj.mode == "local":
        delta = traj.maps.delta
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

import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from fsilab import fixed_point as fp
from fsilab import linear_subsystems as ls
from fsilab.chgvar import DiffeoMap, build_cutoff, build_diffeo, initial_diffeo, suggested_floor, update_map
from fsilab.core_grid import (
    _BLOCK_NODES,
    BeamField,
    FluidField,
    NormSpec,
    _sample_blocks,
    build_grid,
    discrete_norm,
    integrate_beam,
    integrate_fluid,
    weighted_time_norm,
)
from fsilab.errors import ConfigError, DiffeoFailure, NumericsError
from fsilab.fixed_point import (
    IterationConfig,
    IterationReport,
    Trajectory,
    conserved_quantities,
    march_global,
    march_local,
    run_global,
    run_local,
    state_norm,
)
from fsilab.fs_operator import assemble_coupled
from fsilab.linear_subsystems import SourceBundle, default_params, plate_energy
from fsilab.mirror import MirrorBlocks
from fsilab.nonlinear_sources import FullState, check_compatibility, eval_global_sources, eval_local_sources


def unit_grid(n=8):
    return build_grid(1.0, 1.0, n, n)


def make_state(grid, rho, v, theta, eta1, eta2, t=0.0):
    return FullState(
        FluidField(grid, rho),
        FluidField(grid, v, kind="vector"),
        FluidField(grid, theta),
        BeamField(grid, eta1, clamped=True),
        BeamField(grid, eta2, clamped=True),
        t=t,
    )


def steady_state(grid, rho0=1.0, theta0=1.0):
    return make_state(
        grid,
        np.full(grid.shape, rho0),
        np.zeros(grid.shape + (2,)),
        np.full(grid.shape, theta0),
        np.zeros(grid.nx + 1),
        np.zeros(grid.nx + 1),
    )


def local_bump_state(grid, a=1e-2):
    """Steady background plus a clamped beam bump and a temperature lump."""
    x = grid.x
    e1 = a * 16.0 * (x * (1.0 - x)) ** 2
    th = 1.0 + a * np.cos(np.pi * grid.xx) * np.cos(np.pi * grid.yy)
    return make_state(
        grid,
        np.ones(grid.shape),
        np.zeros(grid.shape + (2,)),
        th,
        e1,
        np.zeros(grid.nx + 1),
    )


def global_bump_state(grid, params, a=1e-2):
    """Perturbation data with the conserved mass combination zeroed out."""
    x = grid.x
    e1 = a * 16.0 * (x * (1.0 - x)) ** 2
    pat = np.cos(np.pi * grid.xx) * np.cos(np.pi * grid.yy)
    rho = a * pat - params.rho_bar * integrate_beam(grid, e1) / grid.area
    return make_state(grid, rho, np.zeros(grid.shape + (2,)), a * pat, e1, np.zeros(grid.nx + 1))


def state_gap(a, b, q=4.0):
    """Largest component norm of a - b; one per sample when a is a stack."""
    s1 = NormSpec(1, q)
    g = a.grid
    return np.max(
        [
            discrete_norm(FluidField(g, a.rho.values - b.rho.values), s1),
            discrete_norm(FluidField(g, a.v.values - b.v.values, kind="vector"), s1),
            discrete_norm(FluidField(g, a.theta.values - b.theta.values), s1),
            discrete_norm(BeamField(g, a.eta1.values - b.eta1.values), NormSpec(2, q)),
            discrete_norm(BeamField(g, a.eta2.values - b.eta2.values), s1),
        ],
        axis=0,
    )


def max_field(state):
    return max(
        np.max(np.abs(state.rho.values)),
        np.max(np.abs(state.v.values)),
        np.max(np.abs(state.theta.values)),
        np.max(np.abs(state.eta1.values)),
        np.max(np.abs(state.eta2.values)),
    )


# ---------------------------------------------------------------- config


def test_config_counts_samples():
    cfg = IterationConfig(T=0.1, dt=0.025)
    assert cfg.nt == 5


def test_config_rejects_nondividing_step():
    with pytest.raises(ConfigError):
        IterationConfig(T=0.1, dt=0.03)


@pytest.mark.parametrize(
    "kw",
    [
        dict(T=-1.0, dt=0.1),
        dict(T=float("inf"), dt=0.1),
        dict(T=1.0, dt=-0.1),
        dict(T=1.0, dt=0.1, R=0.0),
        dict(T=1.0, dt=0.1, tol=0.0),
        dict(T=1.0, dt=0.1, max_iters=0),
        dict(T=1.0, dt=0.1, beta=-0.5),
        dict(T=1.0, dt=0.1, p=2.0),
        dict(T=1.0, dt=0.1, q=3.0),
        dict(T=1, dt=0.1, beta=math.inf),
        dict(T=1, dt=0.1, tol=math.inf),
    ],
)
def test_config_rejects_bad_fields(kw):
    with pytest.raises(ConfigError):
        IterationConfig(**kw)


def test_config_rejects_resonant_exponents():
    # 1/2.5 + 1/(2*5) = 0.5 exactly
    with pytest.raises(ConfigError):
        IterationConfig(T=1.0, dt=0.1, p=2.5, q=5.0)


@pytest.mark.parametrize(
    "p, q, admissible",
    [
        (4.0, 2.5, False),  # q in (2, 3]
        (2.5, 5.000000005, False),  # 1e-10 off the resonant line 1/p + 1/(2q) = 1/2
        (2.5, 5.00001, True),
    ],
)
def test_config_and_compatibility_apply_one_exponent_rule(p, q, admissible):
    row = {c.name: c for c in check_compatibility(steady_state(unit_grid()), default_params(), p=p, q=q).conditions}
    assert row["exponents-admissible"].passed is admissible
    try:
        IterationConfig(T=1.0, dt=0.1, p=p, q=q)
        accepted = True
    except ConfigError:
        accepted = False
    assert accepted is admissible


@settings(max_examples=40, deadline=None)
@given(
    p=st.floats(min_value=2.1, max_value=30.0),
    q=st.floats(min_value=3.1, max_value=30.0),
    n=st.integers(min_value=1, max_value=200),
)
def test_config_accepts_valid_exponent_pairs(p, q, n):
    if abs(1.0 / p + 1.0 / (2.0 * q) - 0.5) < 1e-9:
        return
    cfg = IterationConfig(T=n * 0.01, dt=0.01, p=p, q=q)
    assert cfg.nt == n + 1


# ---------------------------------------------------------- plumbing


def test_trajectory_indexing():
    g = unit_grid(6)
    st0 = steady_state(g)
    traj, _ = run_local(st0, IterationConfig(T=0.05, dt=0.025))
    assert len(traj) == 3
    assert traj[1].t == pytest.approx(0.025)
    assert np.allclose(traj.times, [0.0, 0.025, 0.05])
    assert traj.grid is g


def test_trajectory_guards():
    g = unit_grid(6)
    st0 = steady_state(g)
    traj, _ = run_local(st0, IterationConfig(T=0.05, dt=0.025))
    with pytest.raises(ConfigError):
        Trajectory(st0, traj.maps, 0.1, "local")
    with pytest.raises(ConfigError):
        Trajectory(traj.states, traj.maps.sample(slice(0, 2)), 0.1, "local")
    with pytest.raises(ConfigError):
        Trajectory(traj.states, traj.maps.sample(0), 0.1, "local")
    with pytest.raises(ConfigError):
        Trajectory(traj.states, traj.maps, 0.1, "sideways")


def test_report_properties():
    rep = IterationReport((1.0, 0.5), (0.5, 0.1), (0.2,), "converged")
    assert rep.iterations == 2
    assert rep.converged


# ------------------------------------------------------------- local


def test_steady_data_converges_in_one_iteration():
    g = unit_grid()
    traj, rep = run_local(steady_state(g), IterationConfig(T=0.1, dt=0.025, tol=1e-10))
    assert rep.status == "converged"
    assert rep.iterations == 1
    s = traj.states
    assert np.max(np.abs(s.rho.values - 1.0)) <= 1e-12
    assert np.max(np.abs(s.v.values)) <= 1e-12
    assert np.max(np.abs(s.theta.values - 1.0)) <= 1e-12
    assert np.max(np.abs(s.eta1.values)) <= 1e-12


def test_steady_conserved_drift_zero():
    g = unit_grid()
    traj, _ = run_local(steady_state(g), IterationConfig(T=0.1, dt=0.025))
    cs = conserved_quantities(traj)
    assert cs.mass_drift <= 1e-13
    assert abs(cs.energy_drift) <= 1e-13
    assert cs.mass[0] == pytest.approx(1.0)


def test_small_data_contracts():
    g = unit_grid()
    traj, rep = run_local(local_bump_state(g), IterationConfig(T=0.1, dt=0.0125, tol=1e-9))
    assert rep.status == "converged"
    assert rep.ratios, "expected at least one contraction ratio"
    assert all(r < 1.0 for r in rep.ratios)
    assert len(traj) == 9


def test_local_mass_drift_small():
    g = unit_grid()
    traj, rep = run_local(local_bump_state(g), IterationConfig(T=0.1, dt=0.0125, tol=1e-9))
    cs = conserved_quantities(traj)
    assert rep.converged
    assert cs.mass_drift / 0.1 <= 1e-5


def test_first_ratio_monotone_under_horizon_halving():
    g = unit_grid()
    st0 = local_bump_state(g)
    firsts = []
    for T in (0.1, 0.05, 0.025, 0.0125):
        _, rep = run_local(st0, IterationConfig(T=T, dt=0.00625, tol=1e-9))
        assert rep.converged
        firsts.append(rep.ratios[0])
    for a, b in zip(firsts, firsts[1:]):
        assert b <= a + 1e-6
    assert all(r < 1.0 for r in firsts)


def test_ball_exit_then_success_after_two_halvings():
    g = unit_grid()
    st0 = local_bump_state(g)
    statuses = []
    for T in (0.1, 0.05, 0.025):
        _, rep = run_local(st0, IterationConfig(T=T, dt=0.00625, tol=1e-9, R=0.21))
        statuses.append(rep.status)
    assert statuses == ["ball-exit", "ball-exit", "converged"]
    _, rep = run_local(st0, IterationConfig(T=0.1, dt=0.00625, tol=1e-9, R=0.21))
    assert "halve" in rep.message


def test_tiny_explicit_ball_exits_immediately():
    g = unit_grid()
    _, rep = run_local(local_bump_state(g), IterationConfig(T=0.05, dt=0.0125, R=1e-6))
    assert rep.status == "ball-exit"
    assert rep.iterations == 1


def test_uniqueness_proxy_between_bundle_guesses():
    g = unit_grid()
    st0 = local_bump_state(g)
    cfg = IterationConfig(T=0.05, dt=0.00625, tol=1e-9)
    rng = np.random.default_rng(3)
    shp = g.shape
    pert = SourceBundle(
        g,
        cfg.dt,
        1e-3 * rng.standard_normal((cfg.nt,) + shp),
        1e-3 * rng.standard_normal((cfg.nt,) + shp + (2,)),
        np.zeros((cfg.nt,) + shp),
        np.zeros((cfg.nt,) + shp),
        np.zeros((cfg.nt, g.nx + 1)),
    )
    t1, r1 = run_local(st0, cfg)
    t2, r2 = run_local(st0, cfg, first_bundle=pert)
    assert r1.converged and r2.converged
    gap = np.max(state_gap(t1.states, t2.states))
    assert gap < 10.0 * cfg.tol


def test_diffeo_failure_reported_with_partial_trajectory():
    g = unit_grid()
    pat = (g.xx * (1.0 - g.xx)) * (-g.yy) * (1.0 + g.yy)
    v = np.zeros(g.shape + (2,))
    v[..., 0] = 100.0 * pat
    v[..., 1] = -100.0 * pat
    st0 = make_state(g, np.ones(g.shape), v, np.ones(g.shape), np.zeros(g.nx + 1), np.zeros(g.nx + 1))
    cfg = IterationConfig(T=0.2, dt=0.05, tol=1e-9)
    traj, rep = run_local(st0, cfg)
    assert rep.status == "diffeo-failure"
    assert "determinant" in rep.message
    assert len(traj) < cfg.nt
    assert len(traj.maps.delta) == len(traj) == len(rep.state_norms)


def test_first_bundle_sample_count_checked():
    g = unit_grid()
    bad = SourceBundle.zeros(g, 3, 0.0125)
    with pytest.raises(ConfigError):
        run_local(local_bump_state(g), IterationConfig(T=0.1, dt=0.0125), first_bundle=bad)


def test_march_local_first_order_in_time():
    g = unit_grid()
    st0 = local_bump_state(g)
    ends = []
    for dt in (0.01, 0.005, 0.0025):
        traj = march_local(st0, IterationConfig(T=0.04, dt=dt))
        ends.append(traj[-1])
    d1 = max_field_gap(ends[0], ends[1])
    d2 = max_field_gap(ends[1], ends[2])
    assert 1.5 < d1 / d2 < 2.5


def max_field_gap(a, b):
    return max(
        np.max(np.abs(a.rho.values - b.rho.values)),
        np.max(np.abs(a.v.values - b.v.values)),
        np.max(np.abs(a.theta.values - b.theta.values)),
        np.max(np.abs(a.eta1.values - b.eta1.values)),
        np.max(np.abs(a.eta2.values - b.eta2.values)),
    )


@settings(max_examples=5, deadline=None)
@given(
    rho0=st.floats(min_value=0.5, max_value=2.0),
    theta0=st.floats(min_value=0.5, max_value=2.0),
)
def test_any_constant_steady_state_is_a_fixed_point(rho0, theta0):
    g = unit_grid(6)
    params = default_params(rho_bar=rho0, theta_bar=theta0, pi0=-rho0 * theta0)
    traj, rep = run_local(steady_state(g, rho0, theta0), IterationConfig(T=0.05, dt=0.0125), params=params)
    assert rep.converged and rep.iterations == 1
    assert np.max(np.abs(traj[-1].rho.values - rho0)) <= 1e-12


# ------------------------------------------------------------ global


def test_global_zero_perturbation_stays_zero():
    g = unit_grid()
    z = np.zeros(g.shape)
    st0 = make_state(g, z, np.zeros(g.shape + (2,)), z, np.zeros(g.nx + 1), np.zeros(g.nx + 1))
    traj, rep = run_global(st0, IterationConfig(T=0.5, dt=0.01, tol=1e-9, beta=0.1))
    assert rep.converged and rep.iterations == 1
    assert not rep.decay_violation
    assert max_field(traj.states) == 0.0


def test_global_linear_march_conserves_mass_functional():
    g = unit_grid(16)
    params = default_params()
    st0 = global_bump_state(g, params)
    traj = march_global(st0, IterationConfig(T=2.0, dt=0.02, beta=0.1), params=params)
    cs = conserved_quantities(traj, params)
    assert cs.mass[0] == pytest.approx(0.0, abs=1e-14)
    assert cs.mass_drift <= 1e-12


def test_global_linear_march_conserves_nonneutral_mass():
    g = unit_grid()
    params = default_params()
    x = g.x
    e1 = 1e-2 * 16.0 * (x * (1.0 - x)) ** 2
    st0 = make_state(g, np.zeros(g.shape), np.zeros(g.shape + (2,)), np.zeros(g.shape), e1, np.zeros(g.nx + 1))
    traj = march_global(st0, IterationConfig(T=1.0, dt=0.02, beta=0.1), params=params)
    cs = conserved_quantities(traj, params)
    assert abs(cs.mass[0]) > 1e-4
    assert cs.mass_drift <= 1e-12


def test_global_small_data_converges_and_decays():
    g = unit_grid()
    params = default_params()
    traj, rep = run_global(global_bump_state(g, params), IterationConfig(T=12.0, dt=0.1, tol=1e-8, beta=0.1), params=params)
    assert rep.converged
    assert not rep.decay_violation
    # fit the distance to the limiting state; the late-time plateau is the
    # kernel-direction equilibrium shift fed by dissipation heating
    end = traj[-1]
    t = traj.times
    d = state_gap(traj.states, end)
    sel = (t >= 0.5) & (t <= 8.0)
    co = np.polyfit(t[sel], np.log(d[sel]), 1)
    pred = np.polyval(co, t[sel])
    resid = np.log(d[sel]) - pred
    r2 = 1.0 - np.sum(resid**2) / np.sum((np.log(d[sel]) - np.mean(np.log(d[sel]))) ** 2)
    assert -co[0] >= 0.1
    assert r2 >= 0.9


def test_global_source_bundle_scales_quadratically():
    g = unit_grid()
    params = default_params()
    scales = (1.0, 0.5, 0.25, 0.125)
    norms = []
    for s in scales:
        _, rep = run_global(
            global_bump_state(g, params, a=s * 1e-2),
            IterationConfig(T=0.5, dt=0.05, tol=1e-10, beta=0.05),
            params=params,
        )
        assert rep.converged
        norms.append(rep.bundle_norms[0])
    slope = np.polyfit(np.log(scales), np.log(norms), 1)[0]
    assert abs(slope - 2.0) <= 0.1


def test_global_state_scales_linearly():
    g = unit_grid()
    params = default_params()
    cfg = IterationConfig(T=1.0, dt=0.05, tol=1e-9, beta=0.1)
    vals = []
    for a in (1e-2, 2e-2):
        traj, rep = run_global(global_bump_state(g, params, a=a), cfg, params=params)
        assert rep.converged
        series = state_norm(traj.states, cfg.q)
        vals.append(weighted_time_norm(series, cfg.dt, NormSpec(0, cfg.q, cfg.p, cfg.beta)))
    slope = np.log2(vals[1] / vals[0])
    assert abs(slope - 1.0) <= 0.2


def test_global_decay_violation_flag_raises_on_overweighted_run():
    g = unit_grid()
    params = default_params()
    cfg = IterationConfig(T=2.0, dt=0.05, tol=1e-8, beta=2.0, R=1e6)
    traj, rep = run_global(global_bump_state(g, params), cfg, params=params)
    assert rep.decay_violation


def test_global_requires_positive_beta():
    g = unit_grid()
    with pytest.raises(ConfigError):
        run_global(steady_state(g, 0.0, 0.0), IterationConfig(T=0.1, dt=0.05, beta=0.0))


def test_global_requires_global_params():
    g = unit_grid()
    z = np.zeros(g.shape)
    st0 = make_state(g, z, np.zeros(g.shape + (2,)), z, np.zeros(g.nx + 1), np.zeros(g.nx + 1))
    with pytest.raises(ConfigError):
        run_global(st0, IterationConfig(T=0.1, dt=0.05, beta=0.1), params=default_params(pi0=-2.0))


@pytest.mark.parametrize("mode", ["local", "global"])
def test_samples_are_stamped_from_the_initial_time(mode):
    g = unit_grid(6)
    params = default_params()
    march, st0 = (march_local, local_bump_state(g)) if mode == "local" else (march_global, global_bump_state(g, params))
    cfg = IterationConfig(T=0.03, dt=0.01, beta=0.1)
    traj = march(dataclasses.replace(st0, t=0.5), cfg, params)
    assert same_bits(traj.times, 0.5 + np.arange(cfg.nt) * cfg.dt)
    assert np.all(np.diff(traj.times) > 0)
    # at t = 0 the stamps are the plain multiples n dt
    assert same_bits(march(st0, cfg, params).times, np.arange(cfg.nt) * cfg.dt)


# ------------------------------------------------- conserved quantities


def test_conserved_quantities_global_needs_params():
    g = unit_grid()
    z = np.zeros(g.shape)
    st0 = make_state(g, z, np.zeros(g.shape + (2,)), z, np.zeros(g.nx + 1), np.zeros(g.nx + 1))
    traj, _ = run_global(st0, IterationConfig(T=0.1, dt=0.05, beta=0.1))
    with pytest.raises(ConfigError):
        conserved_quantities(traj)


def test_conserved_series_shapes():
    g = unit_grid()
    traj, _ = run_local(local_bump_state(g), IterationConfig(T=0.05, dt=0.0125, tol=1e-8))
    cs = conserved_quantities(traj)
    assert cs.times.shape == cs.mass.shape == cs.energy.shape == (5,)
    assert cs.mass_drift >= 0.0


# ------------------------------------------------- reuse and stacked evaluation


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def count_marches(monkeypatch, engine):
    calls = []
    march = engine.march

    def counted(self, bundle):
        calls.append(bundle)
        return march(self, bundle)

    monkeypatch.setattr(engine, "march", counted)
    return calls


def test_steady_global_run_keeps_its_single_march(monkeypatch):
    g = unit_grid()
    z = np.zeros(g.shape)
    st0 = make_state(g, z, np.zeros(g.shape + (2,)), z, np.zeros(g.nx + 1), np.zeros(g.nx + 1))
    cfg = IterationConfig(T=0.2, dt=0.01, tol=1e-9, beta=0.1)
    calls = count_marches(monkeypatch, fp._GlobalEngine)
    traj, rep = run_global(st0, cfg)
    assert rep.converged and rep.iterations == 1
    assert len(calls) == 1
    ref = march_global(st0, cfg, bundle=SourceBundle.zeros(g, cfg.nt, cfg.dt))
    assert len(traj) == len(ref) == cfg.nt
    for f in ("rho", "v", "theta", "eta1", "eta2"):
        assert same_bits(getattr(traj.states, f).values, getattr(ref.states, f).values)
    assert same_bits(traj.times, ref.times)
    for f in ("X", "gradX", "B", "delta", "A"):
        assert same_bits(getattr(traj.maps, f), getattr(ref.maps, f))


@pytest.mark.parametrize("mode", ["local", "global"])
def test_converged_run_marches_again_for_its_final_bundle(monkeypatch, mode):
    g = unit_grid()
    params = default_params()
    if mode == "local":
        engine, runner, st0 = fp._LocalEngine, run_local, local_bump_state(g)
        cfg = IterationConfig(T=0.05, dt=0.0125, tol=1e-9)
    else:
        engine, runner, st0 = fp._GlobalEngine, run_global, global_bump_state(g, params)
        cfg = IterationConfig(T=0.5, dt=0.05, tol=1e-9, beta=0.1)
    calls = count_marches(monkeypatch, engine)
    _, rep = runner(st0, cfg, params=params)
    assert rep.converged and rep.iterations > 1
    assert len(calls) == rep.iterations + 1


def per_sample_maps(X0, vhist, dt, c0):
    """Reference rebuild: running trapezoid sum, one build_diffeo per sample."""
    maps, disp = [X0], np.zeros(X0.X.shape)
    for n in range(1, vhist.shape[0]):
        disp = disp + 0.5 * dt * (vhist[n - 1] + vhist[n])
        try:
            maps.append(build_diffeo(X0.grid, X0.X + disp, c0))
        except DiffeoFailure as exc:
            return maps, exc
    return maps, None


def map_history_case(amplitude, nt=21):
    g = unit_grid()
    x = g.x
    X0 = initial_diffeo(BeamField(g, 0.02 * 16.0 * (x * (1.0 - x)) ** 2, clamped=True), build_cutoff(g))
    pat = (g.xx * (1.0 - g.xx)) * (-g.yy) * (1.0 + g.yy)
    v = np.stack([pat, -pat], axis=-1)
    vhist = amplitude * np.cos(3.0 * 0.05 * np.arange(nt))[:, None, None, None] * v
    return X0, vhist, 0.05, suggested_floor(X0)


def assert_rebuild_matches_per_sample_build(nt):
    X0, vhist, dt, c0 = map_history_case(1.0, nt)
    series, err = fp._maps_from_history(X0, vhist, dt, c0)
    ref, ref_err = per_sample_maps(X0, vhist, dt, c0)
    assert err is None and ref_err is None
    assert len(series.delta) == len(ref) == vhist.shape[0]
    for n, m in enumerate(ref):
        s = series.sample(n)
        one_shot = update_map(X0, vhist[: n + 1], dt, c0)
        for f in ("X", "gradX", "B", "delta", "A"):
            assert same_bits(getattr(s, f), getattr(m, f)), (n, f)
            assert same_bits(getattr(s, f), getattr(one_shot, f)), (n, f)


def test_batched_map_rebuild_matches_per_sample_build():
    assert_rebuild_matches_per_sample_build(21)


def test_map_rebuild_over_blocks_matches_per_sample_build():
    assert_rebuild_matches_per_sample_build(2 * block_len(unit_grid()) + 3)


@pytest.mark.parametrize("amplitude", [10.0, 100.0])
def test_batched_map_rebuild_fails_where_per_sample_build_fails(amplitude):
    X0, vhist, dt, c0 = map_history_case(amplitude)
    series, err = fp._maps_from_history(X0, vhist, dt, c0)
    ref, ref_err = per_sample_maps(X0, vhist, dt, c0)
    assert ref_err is not None and err is not None
    assert len(ref) < vhist.shape[0]
    assert err.sample == len(ref) == len(series.delta)
    assert err.node == ref_err.node
    assert str(err) == str(ref_err)
    assert err.value == ref_err.value
    for n, m in enumerate(ref):
        assert same_bits(series.sample(n).A, m.A)


@pytest.mark.parametrize("q", [4.0, 6.0, np.inf])
def test_batched_state_norm_matches_per_state_calls(q):
    g = unit_grid()
    params = default_params()
    traj = march_global(global_bump_state(g, params), IterationConfig(T=0.5, dt=0.05, beta=0.1), params=params)
    assert same_bits(state_norm(traj.states, q), [state_norm(traj[k], q) for k in range(len(traj))])
    assert isinstance(state_norm(traj[3], q), float)


def test_trajectory_stacks_round_trip():
    g = unit_grid(6)
    traj, _ = run_local(local_bump_state(g), IterationConfig(T=0.05, dt=0.0125, tol=1e-8))
    n = len(traj)
    rebuilt = Trajectory(
        FullState.stack([traj[k] for k in range(n)]),
        DiffeoMap.stack([traj.maps.sample(k) for k in range(n)]),
        traj.dt,
        traj.mode,
    )
    assert same_bits(rebuilt.states.v.values, traj.states.v.values)
    assert same_bits(rebuilt.maps.A, traj.maps.A)
    assert same_bits(rebuilt.times, traj.times)
    assert traj[-1].t == pytest.approx(0.05)
    assert len(traj.states.sample(slice(1, 3)).t) == 2


# ------------------------------------------------------- one-column global march


def forcing_bundle(g, cfg, rest=True, hat=True):
    """Smooth time-varying sources; rest fills the five spatial slots, hat the constant plate forcing."""
    t = np.arange(cfg.nt) * cfg.dt
    pat = np.cos(np.pi * g.xx) * np.cos(np.pi * g.yy)
    bub = np.sin(np.pi * g.xx) * np.sin(np.pi * g.yy)
    a = 1e-3 * np.cos(3.0 * t)[:, None, None] * (1.0 if rest else 0.0)
    f2 = np.stack([bub, -0.5 * bub], axis=-1)
    beam = np.sin(np.pi * g.x) ** 2
    h_hat = 2e-3 * np.sin(2.0 * t) if hat else np.zeros(cfg.nt)
    return SourceBundle(g, cfg.dt, a * pat, a[..., None] * f2, 2.0 * a * bub, a * pat, a[:, :, 0] * beam, h_hat)


def stacked_fields(traj):
    st = traj.states
    return [st.rho.values, st.v.values, st.theta.values, st.eta1.values, st.eta2.values]


def test_global_march_superposes_the_constant_plate_forcing():
    # the march is affine in its forcing: M(b + h_hat) = M(h_hat) + M(b) - M(0)
    g = unit_grid()
    params = default_params()
    cfg = IterationConfig(T=0.5, dt=0.02, beta=0.1)
    st0 = global_bump_state(g, params)
    run = lambda rest, hat: stacked_fields(march_global(st0, cfg, params, bundle=forcing_bundle(g, cfg, rest, hat)))
    full, hat_only, rest_only, none = run(True, True), run(False, True), run(True, False), run(False, False)
    for f, a, b, c in zip(full, hat_only, rest_only, none):
        assert np.max(np.abs(f - (a + b - c))) <= 1e-12 * np.max(np.abs(f))
    # the constant forcing really drives the beam velocity
    assert np.max(np.abs(hat_only[4] - none[4])) > 1e-6


def test_global_march_solves_one_column_per_step(monkeypatch):
    shapes = []
    splu = fp._splu

    class Recording:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            shapes.append(np.shape(rhs))
            return self.lu.solve(rhs)

    monkeypatch.setattr(fp, "_splu", lambda *args, **kwargs: Recording(splu(*args, **kwargs)))
    g = unit_grid()
    params = default_params()
    cfg = IterationConfig(T=0.2, dt=0.02, beta=0.1)
    march_global(global_bump_state(g, params), cfg, params, bundle=forcing_bundle(g, cfg))
    assert len(shapes) == cfg.nt - 1
    assert all(len(s) == 1 for s in shapes)


# ------------------------------------------------------- mirror-coordinate march


@pytest.mark.parametrize("n", [8, 16])
def test_mirror_march_equals_full_matrix_march(n, monkeypatch):
    g = unit_grid(n)
    params = default_params()
    cfg = IterationConfig(T=0.2, dt=0.02, beta=0.1)
    st0 = global_bump_state(g, params)
    got = stacked_fields(march_global(st0, cfg, params, bundle=forcing_bundle(g, cfg)))
    # reference: one identity block (no layout, so no mirror) and SuperLU's
    # default ordering on the full I/dt - A
    monkeypatch.setattr(fp, "MirrorBlocks", lambda op: MirrorBlocks(dataclasses.replace(op, layout=None)))
    monkeypatch.setattr(fp, "_splu", lambda mat, what: spla.splu(mat.tocsc()))
    ref = stacked_fields(march_global(st0, cfg, params, bundle=forcing_bundle(g, cfg)))
    for a, b in zip(got, ref):
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))


def test_coupled_march_factor_fill_is_under_six_tenths_of_the_full_matrix():
    g = unit_grid(16)
    params = default_params()
    cfg = IterationConfig(T=0.1, dt=0.01, beta=0.1)
    eng = fp._GlobalEngine(global_bump_state(g, params), cfg, params)
    assert len(eng.mirror.bases) == 2
    op = assemble_coupled(g, params)
    full = spla.splu((sp.identity(op.shape[0], format="csc") / cfg.dt - op.matrix).tocsc())
    assert eng.lu.L.nnz + eng.lu.U.nnz <= 0.6 * (full.L.nnz + full.U.nnz)


def test_every_march_factor_solves_to_round_off(monkeypatch):
    factors = []
    splu = ls._splu

    def recording(mat, what):
        lu = splu(mat, what)
        factors.append((what, mat, lu))
        return lu

    monkeypatch.setattr(fp, "_splu", recording)
    monkeypatch.setattr(ls, "_splu", recording)
    g = unit_grid(16)
    params = default_params()
    fp._GlobalEngine(global_bump_state(g, params), IterationConfig(T=0.1, dt=0.01, beta=0.1), params)
    fp._LocalEngine(local_bump_state(g, a=0.05), IterationConfig(T=0.1, dt=0.01), params)
    assert sorted(what for what, _, _ in factors) == ["coupled march", "temperature", "temperature", "velocity"]
    rng = np.random.default_rng(8)
    for what, mat, lu in factors:
        b = rng.standard_normal(mat.shape[0])
        assert np.linalg.norm(mat @ lu.solve(b) - b) <= 1e-10 * np.linalg.norm(b), what


def test_mirror_blocks_split_and_lift_whole_stacks():
    # every state of a stack splits and lifts on its own, as the march does
    g = unit_grid(8)
    params = default_params()
    op = assemble_coupled(g, params)
    mirror = MirrorBlocks(op)
    M = (sp.identity(op.shape[0], format="csr") / 0.01 - op.matrix).tocsr()
    X = np.random.default_rng(4).standard_normal((6, op.shape[0]))
    Y = np.array([mirror.split(x) for x in X])
    back = np.array([mirror.lift(y) for y in Y])
    assert np.max(np.abs(back - X)) <= 4e-16 * np.max(np.abs(X))
    # the block-diagonal matrix acts on block coordinates as M acts on states
    BD = mirror.block_diagonal(M)
    MX = (M @ X.T).T
    assert np.max(np.abs(BD @ Y[2] - mirror.split(MX[2]))) <= 1e-12 * np.max(np.abs(MX))
    assert np.max(np.abs(np.array([mirror.lift(BD @ y) for y in Y]) - MX)) <= 1e-12 * np.max(np.abs(MX))


@pytest.mark.parametrize("mode", ["local", "global"])
def test_report_carries_the_state_norms_of_its_trajectory(mode):
    g = unit_grid()
    params = default_params()
    if mode == "local":
        cfg = IterationConfig(T=0.05, dt=0.0125, tol=1e-8)
        traj, rep = run_local(local_bump_state(g), cfg, params)
    else:
        cfg = IterationConfig(T=0.5, dt=0.05, tol=1e-9, beta=0.1)
        traj, rep = run_global(global_bump_state(g, params), cfg, params)
    assert same_bits(rep.state_norms, state_norm(traj.states, cfg.q))


def conserved_by_sample(traj, params=None):
    """Reference series: the per-sample loop over FullState views."""
    grid = traj.grid
    mass, energy = [], []
    for k in range(len(traj)):
        st, mp = traj[k], traj.maps.sample(k)
        if traj.mode == "local":
            d = mp.delta
            m = integrate_fluid(grid, st.rho.values * d)
            kin = 0.5 * integrate_fluid(grid, st.rho.values * np.sum(st.v.values**2, axis=-1) * d)
            th = 0.5 * integrate_fluid(grid, st.theta.values**2 * d)
        else:
            rb = params.rho_bar
            m = integrate_fluid(grid, st.rho.values) + rb * integrate_beam(grid, st.eta1.values)
            kin = 0.5 * rb * integrate_fluid(grid, np.sum(st.v.values**2, axis=-1))
            th = 0.5 * integrate_fluid(grid, st.theta.values**2)
        mass.append(m)
        energy.append(kin + th + plate_energy(st.eta1, st.eta2))
    return np.array(mass), np.array(energy)


@pytest.mark.parametrize("n", [8, 32])
@pytest.mark.parametrize("mode", ["local", "global"])
def test_batched_conserved_quantities_match_per_sample_loop(mode, n):
    g = unit_grid(n)
    params = default_params()
    if mode == "local":
        traj = march_local(local_bump_state(g), IterationConfig(T=0.05, dt=0.0125), params)
    else:
        cfg = IterationConfig(T=0.2, dt=0.02, beta=0.1)
        traj = march_global(global_bump_state(g, params), cfg, params, bundle=forcing_bundle(g, cfg))
    cs = conserved_quantities(traj, params)
    mass, energy = conserved_by_sample(traj, params)
    assert same_bits(cs.mass, mass)
    assert same_bits(cs.energy, energy)


# --------------------------------------------- per-sample layers in sample blocks


def block_len(g):
    """Samples in one block of the per-sample layers on grid g."""
    return _sample_blocks(_BLOCK_NODES, g.n_nodes)[0].stop


def marched(mode, g, nt, params):
    """The engine of an nt-sample run from smooth data and sources, and
    the stacked states and maps of its march."""
    cfg = IterationConfig(T=(nt - 1) * 0.01, dt=0.01, beta=0.1)
    if mode == "local":
        eng = fp._LocalEngine(local_bump_state(g), cfg, params)
    else:
        eng = fp._GlobalEngine(global_bump_state(g, params), cfg, params)
    states, maps, err = eng.march(forcing_bundle(g, cfg))
    assert err is None and len(states.t) == nt
    return eng, states, maps


def shear(g):
    pat = (g.xx * (1.0 - g.xx)) * (-g.yy) * (1.0 + g.yy)
    return np.stack([pat, -pat], axis=-1)


@pytest.mark.parametrize("mode", ["local", "global"])
def test_blocked_evaluate_equals_one_evaluation_of_the_stack(mode):
    g, params = unit_grid(), default_params()
    nt = 2 * block_len(g) + 3
    eng, states, maps = marched(mode, g, nt, params)
    rates = {
        "dv_dt": fp._difference_quotients(states.v.values, eng.cfg.dt),
        "dtheta_dt": fp._difference_quotients(states.theta.values, eng.cfg.dt),
    }
    if mode == "local":
        ref = eval_local_sources(states, maps, eng.X0, eng.rho0, params, **rates)
    else:
        ref = eval_global_sources(states, maps, params, **rates)
    got = eng.evaluate(states, maps)
    slots = [got.f1, got.f2, got.f3, got.g, got.h, got.h_hat]
    if mode == "local":
        # the local sources have no split plate forcing: that slot stays zero
        ref = (*ref, np.zeros(nt))
    assert len(slots) == len(ref)
    for k, (a, b) in enumerate(zip(slots, ref)):
        assert np.array_equal(a, b) and same_bits(a, b), k


def test_map_failure_past_the_first_block_names_its_sample():
    g = unit_grid()
    k = block_len(g) + 3
    X0, vhist, dt, c0 = map_history_case(0.0, nt=2 * block_len(g) + 3)
    vhist[k:] = 1e3 * shear(g)
    series, err = fp._maps_from_history(X0, vhist, dt, c0)
    ref, ref_err = per_sample_maps(X0, vhist, dt, c0)
    assert err.sample == k == len(ref) == len(series.delta) == len(series.X)
    assert str(err) == str(ref_err)
    assert re.fullmatch(r"Jacobian determinant \S+ <= 0 at node \(\d+, \d+\)", str(err))
    assert err.node == ref_err.node and err.value == ref_err.value


@pytest.mark.parametrize("mode", ["local", "global"])
def test_source_map_failure_past_the_first_block_names_its_sample(mode):
    g, params = unit_grid(), default_params()
    k = block_len(g) + 3
    eng, states, maps = marched(mode, g, 2 * block_len(g) + 3, params)
    delta = maps.delta.copy()
    delta[k, 2, 3] = -0.5
    with pytest.raises(DiffeoFailure, match=r"^Jacobian determinant -5\.000e-01 <= 0 at node \(2, 3\)$") as exc:
        eng.evaluate(states, DiffeoMap(g, maps.X, maps.B, delta, maps.A))
    assert exc.value.sample == k and exc.value.node == (2, 3)


def test_plate_split_failure_past_the_first_block_names_its_sample():
    g, params = unit_grid(), default_params()
    k = block_len(g) + 3
    eng, states, maps = marched("global", g, 2 * block_len(g) + 3, params)
    # the nearly cancelling top row of the one-state check in test_nonlinear_sources
    f = np.full(g.shape, 1e4)
    f[:, -1] = 1e-3
    rho, theta = states.rho.values.copy(), states.theta.values.copy()
    rho[k] = theta[k] = f
    bad = dataclasses.replace(states, rho=FluidField(g, rho), theta=FluidField(g, theta))
    with pytest.raises(NumericsError, match=rf"^plate-source split failed to recombine, defect \S+ at sample {k}$") as exc:
        eng.evaluate(bad, maps)
    assert exc.value.sample == k


@pytest.mark.parametrize("mode", ["local", "global"])
def test_trajectory_after_a_map_failure_past_the_first_block_stops_there(mode):
    g, params = unit_grid(), default_params()
    k, nt = block_len(g) + 3, 2 * block_len(g) + 3
    cfg = IterationConfig(T=(nt - 1) * 0.01, dt=0.01, beta=0.1)
    # at rest until one velocity kick at sample k folds the map
    bundle = SourceBundle.zeros(g, nt, cfg.dt)
    bundle.f2[k] = 1e7 * shear(g)
    runner, st0 = (run_local, steady_state(g)) if mode == "local" else (run_global, steady_state(g, 0.0, 0.0))
    traj, rep = runner(st0, cfg, params, first_bundle=bundle)
    assert rep.status == "diffeo-failure" and rep.iterations == 0
    assert re.fullmatch(r"Jacobian determinant \S+ <= 0 at node \(\d+, \d+\)", rep.message)
    assert len(traj) == len(traj.maps.delta) == len(rep.state_norms) == k


def transient_bytes(call, output_arrays):
    """Peak bytes allocated by call() under tracemalloc, less its output arrays."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - before - sum(a.nbytes for a in output_arrays(out))


def test_transient_memory_of_evaluate_and_map_rebuild_does_not_grow_with_the_horizon():
    g, params = unit_grid(), default_params()
    short, long = block_len(g), 4 * block_len(g) + 3
    eng, states, maps = marched("global", g, long, params)
    bundle_arrays = lambda b: (b.f1, b.f2, b.f3, b.g, b.h, b.h_hat)
    map_arrays = lambda out: (out[0].X, out[0].B, out[0].delta, out[0].A)
    v = states.v.values
    used = {}
    for nt in (short, long):
        sl = slice(0, nt)
        used[nt] = (
            transient_bytes(lambda: eng.evaluate(states.sample(sl), maps.sample(sl)), bundle_arrays),
            transient_bytes(lambda: fp._maps_from_history(eng.X0, v[sl], eng.cfg.dt, eng.c0), map_arrays),
        )
    for layer, a, b in zip(("evaluate", "map rebuild"), used[short], used[long]):
        assert 0 < b < 1.5 * a, (layer, a, b)

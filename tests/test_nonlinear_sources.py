import numpy as np
import pytest

from fsilab.chgvar import DiffeoMap, build_diffeo, metric_tensors
from fsilab.core_grid import BeamField, FluidField, build_grid, integrate_fluid
from fsilab.errors import ConfigError, DiffeoFailure, NumericsError
from fsilab.linear_subsystems import PhysParams
from fsilab.nonlinear_sources import (
    FullState,
    MeanFluctSplit,
    _global_density_source,
    check_compatibility,
    eval_global_sources,
    eval_local_sources,
    split_mean,
)


def unit_grid(n=16):
    return build_grid(1.0, 1.0, n, n)


def identity_map(grid):
    return np.stack([grid.xx, grid.yy], axis=-1)


def zero_beam(grid):
    return BeamField(grid, np.zeros(grid.nx + 1), clamped=True)


def make_state(grid, rho=None, v=None, theta=None, eta1=None, eta2=None):
    shp = grid.shape
    return FullState(
        FluidField(grid, rho if rho is not None else np.ones(shp)),
        FluidField(grid, v if v is not None else np.zeros(shp + (2,)), kind="vector"),
        FluidField(grid, theta if theta is not None else np.zeros(shp)),
        eta1 if eta1 is not None else zero_beam(grid),
        eta2 if eta2 is not None else zero_beam(grid),
    )


# ---------------------------------------------------------------- state and split


def test_state_requires_shared_grid():
    g, g2 = unit_grid(8), unit_grid(12)
    with pytest.raises(ConfigError):
        FullState(
            FluidField(g, np.ones(g.shape)),
            FluidField(g2, np.zeros(g2.shape + (2,)), kind="vector"),
            FluidField(g, np.zeros(g.shape)),
            zero_beam(g),
            zero_beam(g),
        )


def test_state_requires_vector_velocity():
    g = unit_grid(8)
    with pytest.raises(ConfigError):
        FullState(
            FluidField(g, np.ones(g.shape)),
            FluidField(g, np.zeros(g.shape)),
            FluidField(g, np.zeros(g.shape)),
            zero_beam(g),
            zero_beam(g),
        )


def test_split_constant():
    g = unit_grid(8)
    s = split_mean(FluidField(g, np.full(g.shape, 4.25)))
    assert s.avg == pytest.approx(4.25)
    assert np.max(np.abs(s.tilde.values)) < 1e-13


def test_split_full_period_sine_has_zero_mean():
    g = unit_grid(16)
    s = split_mean(FluidField(g, np.sin(2 * np.pi * g.xx)))
    assert abs(s.avg) < 1e-14


def test_split_shift_linearity():
    g = unit_grid(8)
    f = np.cos(g.xx) * g.yy
    a = split_mean(FluidField(g, f))
    b = split_mean(FluidField(g, f + 3.0))
    assert b.avg == pytest.approx(a.avg + 3.0)
    assert np.max(np.abs(a.tilde.values - b.tilde.values)) < 1e-12


def test_split_recombines():
    g = unit_grid(8)
    f = np.sin(g.xx + 2 * g.yy)
    s = split_mean(FluidField(g, f))
    assert np.max(np.abs(s.recombined() - f)) < 1e-14


def test_split_rejects_biased_fluctuation():
    g = unit_grid(8)
    with pytest.raises(ConfigError):
        MeanFluctSplit(FluidField(g, np.full(g.shape, 0.1)), 0.0)


# ---------------------------------------------------------------- local sources


def test_local_frozen_map_kills_metric_terms():
    # X = X0 and rho = rho0: the continuity source and the flux data
    # vanish identically, whatever the velocity does
    g = unit_grid(16)
    mets = metric_tensors(g, identity_map(g))
    v = np.stack([np.sin(np.pi * g.xx) * g.yy, g.xx * np.cos(g.yy)], axis=-1)
    rho0 = FluidField(g, 1.0 + 0.2 * np.cos(g.xx))
    st = make_state(g, rho=rho0.values, v=v, theta=np.full(g.shape, 1.5))
    F1, F2, F3, G, H = eval_local_sources(st, mets, mets, rho0, PhysParams())
    assert np.all(F1 == 0.0)
    assert np.all(G == 0.0)


def test_local_rest_state_heat_and_momentum_sources():
    g = unit_grid(16)
    mets = metric_tensors(g, identity_map(g))
    rho0 = FluidField(g, np.ones(g.shape))
    st = make_state(g, theta=np.full(g.shape, 2.0))
    F1, F2, F3, G, H = eval_local_sources(st, mets, mets, rho0, PhysParams())
    assert np.max(np.abs(F2)) == 0.0
    assert np.max(np.abs(F3)) == 0.0


def test_local_constant_state_beam_forcing_is_pressure():
    g = unit_grid(16)
    mets = metric_tensors(g, identity_map(g))
    p = PhysParams(pi0=-0.4)
    rho0 = FluidField(g, np.full(g.shape, 1.3))
    st = make_state(g, rho=np.full(g.shape, 1.3), theta=np.full(g.shape, 0.7))
    *_, H = eval_local_sources(st, mets, mets, rho0, p)
    expected = p.R0 * 1.3 * 0.7 + p.pi0
    assert np.max(np.abs(H - expected)) < 1e-14


def test_local_momentum_source_single_node_oracle():
    # hand-expanded value at one interior node for a uniform shear map,
    # linear velocity, and affine density/temperature
    g = unit_grid(16)
    gamma = 0.02
    X = identity_map(g).copy()
    X[..., 0] += gamma * g.yy
    mp = build_diffeo(g, X)
    mets0 = metric_tensors(g, identity_map(g))
    a, b, c, d = 0.3, -0.1, 0.2, 0.05
    v = np.stack([a * g.xx + b * g.yy, c * g.xx + d * g.yy], axis=-1)
    rho = 1.0 + 0.1 * g.xx + 0.05 * g.yy
    theta = 2.0 + 0.2 * g.xx - 0.1 * g.yy
    dvdt = np.zeros(g.shape + (2,))
    dvdt[..., 0] = 0.3
    dvdt[..., 1] = -0.2
    p = PhysParams(mu=0.8, alpha=0.1, R0=1.5, pi0=0.2)
    st = make_state(g, rho=rho, v=v, theta=theta)
    _, F2, *_ = eval_local_sources(st, mp, mets0, FluidField(g, np.ones(g.shape)), p, dv_dt=dvdt)

    i, j = 5, 7
    x, y = g.x[i], g.y[j]
    # metrics of the shear: determinant one, cofactor [[1,0],[-gamma,1]]
    BX = ((1.0, 0.0), (-gamma, 1.0))
    mass_gap = 1.0 - (1.0 + 0.1 * x + 0.05 * y)
    # grad(rho theta) by the product rule at the node
    rt_x = 0.1 * (2.0 + 0.2 * x - 0.1 * y) + (1.0 + 0.1 * x + 0.05 * y) * 0.2
    rt_y = 0.05 * (2.0 + 0.2 * x - 0.1 * y) + (1.0 + 0.1 * x + 0.05 * y) * (-0.1)
    # linear velocity and uniform metrics: both divergence groupings vanish
    expect0 = mass_gap * 0.3 + p.R0 * (BX[0][0] * rt_x + BX[0][1] * rt_y)
    expect1 = mass_gap * (-0.2) + p.R0 * (BX[1][0] * rt_x + BX[1][1] * rt_y)
    assert abs(F2[i, j, 0] - expect0) < 1e-8
    assert abs(F2[i, j, 1] - expect1) < 1e-8


def test_local_rejects_nonpositive_density():
    g = unit_grid(8)
    mets = metric_tensors(g, identity_map(g))
    rho = np.ones(g.shape)
    rho[2, 2] = -0.5
    st = make_state(g, rho=rho)
    with pytest.raises(ConfigError):
        eval_local_sources(st, mets, mets, FluidField(g, np.ones(g.shape)), PhysParams())


def test_local_propagates_folded_map():
    g = unit_grid(8)
    mets = metric_tensors(g, identity_map(g))
    B, delta, A = mets
    bad_delta = delta.copy()
    bad_delta[3, 3] = -0.1
    st = make_state(g)
    with pytest.raises(DiffeoFailure):
        eval_local_sources(st, (B, bad_delta, A), mets, FluidField(g, np.ones(g.shape)), PhysParams())


# ---------------------------------------------------------------- global sources


def test_global_zero_state_zero_sources():
    g = unit_grid(16)
    mets = metric_tensors(g, identity_map(g))
    st = make_state(g, rho=np.zeros(g.shape))
    out = eval_global_sources(st, mets, PhysParams())
    for piece in out:
        assert np.max(np.abs(np.asarray(piece))) == 0.0


def test_global_requires_pressure_closure():
    g = unit_grid(8)
    mets = metric_tensors(g, identity_map(g))
    st = make_state(g, rho=np.zeros(g.shape))
    with pytest.raises(ConfigError):
        eval_global_sources(st, mets, PhysParams(pi0=0.5))


def test_global_constant_state_constant_hat():
    g = unit_grid(16)
    mets = metric_tensors(g, identity_map(g))
    st = make_state(g, rho=np.full(g.shape, 0.2), theta=np.full(g.shape, 0.3))
    *_, H_tilde, H_hat = eval_global_sources(st, mets, PhysParams())
    assert H_hat == pytest.approx(0.2 * 0.3)
    assert np.max(np.abs(H_tilde)) < 1e-13


def test_global_split_identity_on_random_state():
    g = unit_grid(16)
    rng = np.random.default_rng(2)
    # smooth displacement so the map stays a diffeomorphism
    X = identity_map(g) + 0.03 * np.stack(
        [np.sin(np.pi * g.xx) * np.sin(np.pi * g.yy), np.sin(2 * np.pi * g.xx) * np.sin(np.pi * g.yy)], axis=-1
    )
    mp = build_diffeo(g, X)
    rho = 0.1 * rng.standard_normal(g.shape)
    theta = 0.1 * rng.standard_normal(g.shape)
    v = 0.1 * rng.standard_normal(g.shape + (2,))
    e1 = BeamField(g, 0.05 * g.x**2 * (1 - g.x) ** 2, clamped=True)
    st = make_state(g, rho=rho, v=v, theta=theta, eta1=e1)
    # the recombination identity is asserted inside; reaching the return
    # value at all means it held to round-off
    out = eval_global_sources(st, mp, PhysParams())
    assert len(out) == 6


def test_global_quadratic_scaling():
    g = unit_grid(16)
    p = PhysParams()
    W = 0.05 * np.stack(
        [np.sin(np.pi * g.xx) * np.sin(np.pi * g.yy), np.sin(np.pi * g.xx) * g.yy * (1 + g.yy)], axis=-1
    )
    rho = 0.05 * np.cos(np.pi * g.xx) * np.cos(np.pi * g.yy)
    th = 0.05 * np.sin(np.pi * g.xx) ** 2 * np.cos(np.pi * g.yy)
    v = 0.05 * np.stack([np.sin(np.pi * g.xx) * np.sin(np.pi * g.yy), np.sin(2 * np.pi * g.xx) * np.sin(np.pi * g.yy)], axis=-1)
    e1 = 0.05 * g.x**2 * (1 - g.x) ** 2
    norms = []
    for s in (1.0, 0.5, 0.25, 0.125):
        mp = build_diffeo(g, identity_map(g) + s * W)
        st = make_state(g, rho=s * rho, v=s * v, theta=s * th, eta1=BeamField(g, s * e1, clamped=True))
        F1, F2, F3, G, Ht, Hh = eval_global_sources(st, mp, p, dv_dt=s * v, dtheta_dt=s * th)
        norms.append(
            np.max(np.abs(F1)) + np.max(np.abs(F2)) + np.max(np.abs(F3)) + np.max(np.abs(G)) + np.max(np.abs(Ht)) + abs(Hh)
        )
    slopes = [np.log2(norms[i] / norms[i + 1]) for i in range(3)]
    assert all(abs(s - 2.0) < 0.1 for s in slopes)


# ---------------------------------------------------------------- compatibility


def test_compat_zero_state_passes():
    g = unit_grid(16)
    st = make_state(g, rho=np.zeros(g.shape))
    rep = check_compatibility(st, PhysParams(), mode="global")
    assert rep.all_passed
    assert rep.lt_half


def test_compat_uniform_vertical_velocity_fails_trace():
    g = unit_grid(16)
    v = np.zeros(g.shape + (2,))
    v[..., 1] = 1.0
    st = make_state(g, v=v)
    rep = check_compatibility(st, PhysParams(), mode="local")
    by_name = {c.name: c for c in rep.conditions}
    assert by_name["top-trace"].residual == pytest.approx(1.0)
    assert not rep.all_passed


def test_compat_cosine_temperature_flux_within_stencil_error():
    g = unit_grid(16)
    st = make_state(g, theta=np.cos(np.pi * g.yy))
    rep = check_compatibility(st, PhysParams(), mode="local")
    cond = {c.name: c for c in rep.conditions}["heat-flux"]
    assert cond.passed
    assert 0.0 < cond.residual < 10.0 * max(g.hx, g.hy) ** 2


def test_compat_flux_condition_gated_by_exponents():
    # same failing flux data: required (and failing) in the strong
    # regime, measured but optional in the weak one
    g = unit_grid(16)
    st = make_state(g, theta=g.yy**2)
    strong = check_compatibility(st, PhysParams(), mode="local", p=4.0, q=4.0)
    weak = check_compatibility(st, PhysParams(), mode="local", p=2.5, q=3.5)
    s_cond = {c.name: c for c in strong.conditions}["heat-flux"]
    w_cond = {c.name: c for c in weak.conditions}["heat-flux"]
    assert s_cond.required and not s_cond.passed and not strong.all_passed
    assert not w_cond.required and not w_cond.passed and weak.all_passed
    assert not weak.lt_half


def test_compat_resonant_exponents_flagged():
    g = unit_grid(8)
    st = make_state(g, rho=np.zeros(g.shape))
    rep = check_compatibility(st, PhysParams(), mode="global", p=3.0, q=3.0)
    cond = {c.name: c for c in rep.conditions}["exponents-admissible"]
    assert not cond.passed and not rep.all_passed


def test_compat_density_positivity_mode_dependent():
    g = unit_grid(8)
    rho = np.full(g.shape, -0.5)
    st = make_state(g, rho=rho)
    local = check_compatibility(st, PhysParams(), mode="local")
    glob = check_compatibility(st, PhysParams(), mode="global")  # rho + 1 > 0
    assert not {c.name: c for c in local.conditions}["density-positive"].passed
    assert {c.name: c for c in glob.conditions}["density-positive"].passed


def test_compat_report_lines_and_mode_validation():
    g = unit_grid(8)
    st = make_state(g, rho=np.zeros(g.shape))
    rep = check_compatibility(st, PhysParams(), mode="global")
    text = rep.lines()
    assert any("heat-flux" in line for line in text)
    with pytest.raises(ConfigError):
        check_compatibility(st, PhysParams(), mode="lagrangian")


# ---------------------------------------------------------------- stacked evaluation


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def state_series(g, n=4):
    """Distinct smooth states with distinct diffeomorphic maps, one per sample."""
    rng = np.random.default_rng(11)
    bump = np.stack(
        [np.sin(np.pi * g.xx) * np.sin(np.pi * g.yy), np.sin(2 * np.pi * g.xx) * np.sin(np.pi * g.yy)], axis=-1
    )
    states, maps = [], []
    for k in range(n):
        a = 0.02 * (k + 1)
        e1 = BeamField(g, a * g.x**2 * (1 - g.x) ** 2, clamped=True)
        st = make_state(
            g,
            rho=a * rng.standard_normal(g.shape),
            v=a * rng.standard_normal(g.shape + (2,)),
            theta=a * rng.standard_normal(g.shape),
            eta1=e1,
        )
        states.append(FullState(st.rho, st.v, st.theta, st.eta1, st.eta2, t=0.1 * k))
        maps.append(build_diffeo(g, identity_map(g) + a * bump))
    return states, maps


def test_batched_global_sources_match_per_state_calls():
    g = unit_grid(12)
    p = PhysParams()
    states, maps = state_series(g)
    rng = np.random.default_rng(5)
    dv = rng.standard_normal((len(states),) + g.shape + (2,))
    dth = rng.standard_normal((len(states),) + g.shape)
    batched = eval_global_sources(FullState.stack(states), DiffeoMap.stack(maps), p, dv_dt=dv, dtheta_dt=dth)
    single = [eval_global_sources(s, m, p, dv_dt=dv[k], dtheta_dt=dth[k]) for k, (s, m) in enumerate(zip(states, maps))]
    for slot in range(6):
        assert same_bits(batched[slot], [out[slot] for out in single])


def test_batched_local_sources_match_per_state_calls():
    g = unit_grid(12)
    p = PhysParams()
    states, maps = state_series(g)
    states = [FullState(FluidField(g, 1.0 + s.rho.values), s.v, s.theta, s.eta1, s.eta2, t=s.t) for s in states]
    rho0 = FluidField(g, np.ones(g.shape))
    batched = eval_local_sources(FullState.stack(states), DiffeoMap.stack(maps), maps[0], rho0, p)
    single = [eval_local_sources(s, m, maps[0], rho0, p) for s, m in zip(states, maps)]
    for slot in range(5):
        assert same_bits(batched[slot], [out[slot] for out in single])


def test_batched_plate_split_check_names_the_offending_sample():
    # a top row that nearly cancels a large mean: the split terms are
    # O(1e8) while the unsplit forcing is O(1e-6), so round-off in the
    # split form exceeds the recombination bar on that sample alone
    g = unit_grid(8)
    p = PhysParams()
    f = np.full(g.shape, 1e4)
    f[:, -1] = 1e-3
    bad = make_state(g, rho=f, theta=f.copy())
    good = make_state(g, rho=np.full(g.shape, 0.2), theta=np.full(g.shape, 0.3))
    mets = build_diffeo(g, identity_map(g))
    with pytest.raises(NumericsError):
        eval_global_sources(bad, mets, p)
    eval_global_sources(good, mets, p)
    stack = FullState.stack([good, good, bad, good])
    with pytest.raises(NumericsError, match="at sample 2"):
        eval_global_sources(stack, DiffeoMap.stack([mets] * 4), p)


def test_density_source_helper_matches_full_evaluation_on_a_trajectory():
    from fsilab.cli_io import scenario_library
    from fsilab.fixed_point import IterationConfig, _difference_quotients, march_global

    g = unit_grid(16)
    p = PhysParams()
    cfg = IterationConfig(T=0.2, dt=0.02, beta=0.1)
    traj = march_global(scenario_library("beam-pluck", g), cfg, p)
    states, maps = traj.states, traj.maps
    assert states.rho.values.shape[0] == cfg.nt
    full = eval_global_sources(
        states, maps, p,
        dv_dt=_difference_quotients(states.v.values, cfg.dt),
        dtheta_dt=_difference_quotients(states.theta.values, cfg.dt),
    )
    assert np.max(np.abs(full[0])) > 0
    assert same_bits(_global_density_source(states, maps.B, maps.delta, p)[0], full[0])


def test_density_source_helper_keeps_the_checks():
    g = unit_grid(8)
    B, delta, _ = metric_tensors(g, identity_map(g))
    bad_delta = delta.copy()
    bad_delta[3, 3] = -0.1
    with pytest.raises(DiffeoFailure):
        _global_density_source(make_state(g), B, bad_delta, PhysParams())
    with pytest.raises(ConfigError):
        _global_density_source(make_state(g, rho=np.full(g.shape, -2.0)), B, delta, PhysParams())
    with pytest.raises(ConfigError):
        _global_density_source(make_state(g), B, delta, PhysParams(pi0=0.5))

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from fsilab.chgvar import build_diffeo
from fsilab.core_grid import BeamField, FluidField, build_grid, diff_ops
from fsilab.errors import ConfigError
from fsilab.linear_subsystems import (
    PhysParams,
    _masks,
    _viscous_operator,
    SourceBundle,
    TemperatureStepper,
    VelocityStepper,
    manufactured_convergence,
    plate_energy,
    plate_operator,
    solve_lift_Dv,
    step_density,
    step_plate,
)


def unit_grid(n=16):
    return build_grid(1.0, 1.0, n, n)


def identity_metrics(grid):
    eye = np.zeros(grid.shape + (2, 2))
    eye[..., 0, 0] = eye[..., 1, 1] = 1.0
    return eye.copy(), np.ones(grid.shape), eye.copy()


def box_weights(grid):
    wx = np.full(grid.nx + 1, grid.hx)
    wx[0] = wx[-1] = 0.5 * grid.hx
    wy = np.full(grid.ny + 1, grid.hy)
    wy[0] = wy[-1] = 0.5 * grid.hy
    return np.outer(wx, wy)


# ---------------------------------------------------------------- parameters


def test_params_defaults_are_global_mode():
    p = PhysParams()
    assert p.kappa_bar == 1.0
    assert p.is_global
    p.require_global()


def test_params_kappa_bar():
    p = PhysParams(kappa=3.0, c_v=2.0, rho_bar=0.5, pi0=-0.5)
    assert p.kappa_bar == pytest.approx(3.0)


@pytest.mark.parametrize(
    "kw",
    [
        {"mu": 0.0},
        {"mu": 1.0, "alpha": -0.7},  # alpha + 2 mu / 3 <= 0
        {"kappa": -1.0},
        {"c_v": 0.0},
        {"R0": -2.0},
        {"rho_bar": 0.0},
        {"theta_bar": -1.0},
        {"mu": np.inf},
        {"rho_bar": np.inf},
        {"alpha": np.inf},
        {"pi0": -np.inf},
    ],
)
def test_params_validation(kw):
    with pytest.raises(ConfigError):
        PhysParams(**kw)


def test_params_negative_alpha_allowed():
    p = PhysParams(alpha=-0.5)
    assert p.alpha == -0.5


def test_require_global_rejects_inconsistent_pressure():
    p = PhysParams(pi0=0.3)
    assert not p.is_global
    with pytest.raises(ConfigError):
        p.require_global()


# ---------------------------------------------------------------- source bundle


def test_source_bundle_zeros_shapes():
    g = unit_grid(8)
    b = SourceBundle.zeros(g, 5, 0.1)
    assert b.nt == 5
    assert b.f2.shape == (5, 9, 9, 2)
    assert b.h_hat is None
    assert np.array_equal(b.h_total(2), b.h[2])


def test_source_bundle_hat_adds_to_plate_forcing():
    g = unit_grid(8)
    b = SourceBundle.zeros(g, 3, 0.1, with_hat=True)
    b.h_hat[1] = 2.5
    assert np.allclose(b.h_total(1), 2.5)
    assert np.allclose(b.h_total(0), 0.0)


def test_source_bundle_shape_validation():
    g = unit_grid(8)
    zeros = SourceBundle.zeros(g, 4, 0.1)
    with pytest.raises(ConfigError):
        SourceBundle(g, 0.1, zeros.f1, zeros.f2[:, :-1], zeros.f3, zeros.g, zeros.h)
    with pytest.raises(ConfigError):
        SourceBundle(g, -0.1, zeros.f1, zeros.f2, zeros.f3, zeros.g, zeros.h)
    with pytest.raises(ConfigError):
        SourceBundle(g, 0.1, zeros.f1, zeros.f2, zeros.f3, zeros.g, zeros.h, np.zeros(3))


# ---------------------------------------------------------------- plate


def clamped_bump(grid, amp=1.0):
    return BeamField(grid, amp * grid.x**2 * (1 - grid.x) ** 2, clamped=True)


def test_plate_zero_fixed_point():
    g = unit_grid(16)
    z = BeamField(g, np.zeros(g.nx + 1), clamped=True)
    e1, e2 = step_plate(z, z, z, 0.01)
    assert np.all(e1.values == 0.0)
    assert np.all(e2.values == 0.0)


def test_plate_step_keeps_clamping():
    g = unit_grid(16)
    e1, e2 = clamped_bump(g), clamped_bump(g, -0.3)
    for _ in range(5):
        e1, e2 = step_plate(e1, e2, BeamField(g, np.zeros(g.nx + 1)), 0.05)
    assert e1.values[0] == 0.0 and e1.values[-1] == 0.0
    assert e2.values[0] == 0.0 and e2.values[-1] == 0.0


@pytest.mark.parametrize("dt", [1e-1, 1e-2, 1e-3])
def test_plate_energy_dissipation_unforced(dt):
    g = unit_grid(32)
    e1, e2 = clamped_bump(g), clamped_bump(g, -2.0)
    zero = BeamField(g, np.zeros(g.nx + 1))
    prev = plate_energy(e1, e2)
    for _ in range(200):
        e1, e2 = step_plate(e1, e2, zero, dt)
        cur = plate_energy(e1, e2)
        assert cur <= prev * (1 + 1e-14)
        prev = cur


def test_plate_operator_spectrum_is_stable():
    g = unit_grid(32)
    lam = np.linalg.eigvals(plate_operator(g))
    assert np.max(lam.real) < 0.0


def test_plate_rejects_bad_dt():
    g = unit_grid(16)
    z = BeamField(g, np.zeros(g.nx + 1), clamped=True)
    with pytest.raises(ConfigError):
        step_plate(z, z, z, 0.0)


@settings(max_examples=25, deadline=None)
@given(
    amp1=st.floats(-3.0, 3.0),
    amp2=st.floats(-3.0, 3.0),
    dt=st.floats(1e-4, 0.5),
)
def test_plate_dissipation_property(amp1, amp2, dt):
    g = unit_grid(16)
    e1 = BeamField(g, amp1 * np.sin(np.pi * g.x) ** 2, clamped=True)
    e2 = BeamField(g, amp2 * g.x**2 * (1 - g.x) ** 2, clamped=True)
    zero = BeamField(g, np.zeros(g.nx + 1))
    before = plate_energy(e1, e2)
    f1, f2 = step_plate(e1, e2, zero, dt)
    after = plate_energy(f1, f2)
    assert after <= before * (1 + 1e-12) + 1e-15


# ---------------------------------------------------------------- velocity


def test_velocity_zero_fixed_point():
    g = unit_grid(12)
    mets = identity_metrics(g)
    v = FluidField(g, np.zeros(g.shape + (2,)), kind="vector")
    z2 = BeamField(g, np.zeros(g.nx + 1), clamped=True)
    f2 = np.zeros(g.shape + (2,))
    out = VelocityStepper(g, mets, np.ones(g.shape), PhysParams(), 0.01).step(v, z2, f2)
    assert np.max(np.abs(out)) == 0.0


def test_velocity_attains_beam_trace_exactly():
    g = unit_grid(12)
    mets = identity_metrics(g)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(g.shape + (2,))
    e2 = BeamField(g, 0.7 * np.sin(np.pi * g.x), clamped=True)
    out = VelocityStepper(g, mets, np.ones(g.shape), PhysParams(), 0.02).step(v, e2, np.zeros(g.shape + (2,)))
    assert np.max(np.abs(out[1:-1, -1, 1] - e2.values[1:-1])) < 1e-12
    assert np.max(np.abs(out[1:-1, -1, 0])) < 1e-12
    # walls pinned to zero
    assert np.max(np.abs(out[0, :, :])) < 1e-12
    assert np.max(np.abs(out[-1, :, :])) < 1e-12
    assert np.max(np.abs(out[:, 0, :])) < 1e-12


def test_velocity_rejects_nonpositive_density():
    g = unit_grid(12)
    mets = identity_metrics(g)
    rho0 = np.ones(g.shape)
    rho0[3, 3] = 0.0
    with pytest.raises(ConfigError):
        VelocityStepper(g, mets, rho0, PhysParams(), 0.01)


def test_velocity_manufactured_second_order():
    rep = manufactured_convergence("velocity", "sin-product", (8, 16, 32))
    assert all(1.8 <= o <= 2.2 for o in rep.orders)


# ---------------------------------------------------------------- temperature


def test_temperature_constant_preserved():
    g = unit_grid(16)
    mets = identity_metrics(g)
    th = FluidField(g, np.full(g.shape, 3.7))
    zero = np.zeros(g.shape)
    out = th.values
    stepper = TemperatureStepper(g, mets, np.ones(g.shape), PhysParams(), 0.01)
    for _ in range(20):
        out = stepper.step(FluidField(g, out), zero, zero)
    assert np.max(np.abs(out - 3.7)) < 1e-12


def test_temperature_gamma_decay_closed_form():
    g = unit_grid(16)
    mets = identity_metrics(g)
    zero = np.zeros(g.shape)
    out = np.full(g.shape, 1.0)
    dt = 0.01
    stepper = TemperatureStepper(g, mets, np.ones(g.shape), PhysParams(), dt, gamma1=1.0)
    for _ in range(7):
        out = stepper.step(FluidField(g, out), zero, zero)
    assert np.max(np.abs(out - (1 + dt) ** -7)) < 1e-13


def test_temperature_mean_balance_is_exact():
    # box-weighted mean of c_v rho0 delta0 theta moves only through f3
    # and the prescribed flux, to round-off
    g = unit_grid(16)
    rng = np.random.default_rng(11)
    A = np.zeros(g.shape + (2, 2))
    A[..., 0, 0] = 1.0 + 0.3 * np.sin(g.xx) * np.cos(g.yy)
    A[..., 1, 1] = 1.2 + 0.2 * g.xx * g.yy
    A[..., 0, 1] = A[..., 1, 0] = 0.15 * np.cos(g.xx + g.yy)
    B = identity_metrics(g)[0]
    delta = np.full(g.shape, 0.9)
    rho0 = np.full(g.shape, 1.1)
    p = PhysParams(c_v=2.0, kappa=0.7, pi0=-1.0 * 1.0 * 1.0)
    stepper = TemperatureStepper(g, (B, delta, A), rho0, p, 0.01)
    th = rng.standard_normal(g.shape)
    f3 = rng.standard_normal(g.shape)
    gflux = rng.standard_normal(g.shape)
    th1 = stepper.step(th, f3, gflux)
    box = box_weights(g)
    blen = np.zeros(g.shape)
    wx = np.full(g.nx + 1, g.hx)
    wx[0] = wx[-1] = 0.5 * g.hx
    wy = np.full(g.ny + 1, g.hy)
    wy[0] = wy[-1] = 0.5 * g.hy
    blen[0, :] += wy
    blen[-1, :] += wy
    blen[:, 0] += wx
    blen[:, -1] += wx
    coefw = box * p.c_v * rho0 * delta
    drift = np.sum(coefw * (th1 - th)) / 0.01
    supplied = np.sum(coefw * f3) + p.kappa * np.sum(blen * gflux)
    assert abs(drift - supplied) < 1e-10 * max(1.0, abs(supplied))


def test_temperature_mean_conserved_zero_sources():
    g = unit_grid(16)
    mets = identity_metrics(g)
    th = np.sin(2 * np.pi * g.xx) * np.cos(np.pi * g.yy)
    zero = np.zeros(g.shape)
    box = box_weights(g)
    before = np.sum(box * th)
    out = th
    stepper = TemperatureStepper(g, mets, np.ones(g.shape), PhysParams(), 0.01)
    for _ in range(50):
        out = stepper.step(FluidField(g, out), zero, zero)
    assert abs(np.sum(box * out) - before) < 1e-12


def test_temperature_rejects_negative_gamma():
    g = unit_grid(12)
    mets = identity_metrics(g)
    with pytest.raises(ConfigError):
        TemperatureStepper(g, mets, np.ones(g.shape), PhysParams(), 0.01, gamma1=-0.5)


def test_heat_manufactured_second_order():
    rep = manufactured_convergence("heat", "sin-product", (8, 16, 32))
    assert all(1.8 <= o <= 2.2 for o in rep.orders)


# ---------------------------------------------------------------- density


def test_density_zero_velocity_unchanged():
    g = unit_grid(12)
    mets = identity_metrics(g)
    rho = FluidField(g, 1.0 + 0.1 * np.sin(g.xx))
    out = step_density(rho, np.zeros(g.shape + (2,)), np.zeros(g.shape), mets, np.ones(g.shape), 0.01)
    assert np.array_equal(out, rho.values)


def test_density_trace_free_velocity_unchanged():
    g = unit_grid(12)
    mets = identity_metrics(g)
    v = np.empty(g.shape + (2,))
    v[..., 0] = g.xx
    v[..., 1] = -g.yy
    rho = FluidField(g, np.full(g.shape, 2.0))
    out = step_density(rho, v, np.zeros(g.shape), mets, np.ones(g.shape), 0.01)
    assert np.max(np.abs(out - 2.0)) < 1e-13


def test_density_divergent_velocity_closed_form():
    # v = (x, y) has grad(v):I = 2 so rho decreases at rate 2 exactly
    g = unit_grid(12)
    mets = identity_metrics(g)
    v = np.empty(g.shape + (2,))
    v[..., 0] = g.xx
    v[..., 1] = g.yy
    rho = np.full(g.shape, 1.0)
    dt = 1e-3
    for n in range(100):
        rho = step_density(FluidField(g, rho), v, np.zeros(g.shape), mets, np.ones(g.shape), dt, v_prev=v, f1_prev=np.zeros(g.shape))
    assert np.max(np.abs(rho - (1.0 - 2.0 * 100 * dt))) < 1e-8


def test_density_forcing_enters_trapezoid():
    g = unit_grid(8)
    mets = identity_metrics(g)
    rho = np.zeros(g.shape)
    # f1 linear in time: trapezoid integrates it exactly
    dt = 0.1
    f_prev = np.zeros(g.shape)
    f_new = np.full(g.shape, dt)
    out = step_density(FluidField(g, rho), np.zeros(g.shape + (2,)), f_new, mets, np.ones(g.shape), dt, v_prev=np.zeros(g.shape + (2,)), f1_prev=f_prev)
    assert np.max(np.abs(out - 0.5 * dt * dt)) < 1e-15


# ---------------------------------------------------------------- lifting


def test_lift_zero_trace_gives_zero():
    g = unit_grid(12)
    e2 = BeamField(g, np.zeros(g.nx + 1), clamped=True)
    w = solve_lift_Dv(e2, PhysParams())
    assert np.max(np.abs(w)) == 0.0


def test_lift_attains_trace_exactly():
    g = unit_grid(16)
    e2 = BeamField(g, np.sin(np.pi * g.x), clamped=True)
    w = solve_lift_Dv(e2, PhysParams(alpha=0.3, pi0=-1.0))
    assert np.max(np.abs(w[1:-1, -1, 1] - e2.values[1:-1])) < 1e-12
    assert np.max(np.abs(w[1:-1, -1, 0])) < 1e-12
    assert np.max(np.abs(w[0])) < 1e-12 and np.max(np.abs(w[-1])) < 1e-12
    assert np.max(np.abs(w[:, 0])) < 1e-12


def test_lift_interior_residual_small():
    from fsilab.linear_subsystems import _aniso_diffusion, _masks

    g = unit_grid(16)
    p = PhysParams(alpha=0.2, pi0=-1.0)
    e2 = BeamField(g, g.x**2 * (1 - g.x) ** 2, clamped=True)
    w = solve_lift_Dv(e2, p)
    import scipy.sparse as sp

    eyeK = np.zeros(g.shape + (2, 2))
    eyeK[..., 0, 0] = eyeK[..., 1, 1] = 1.0
    blocks = []
    for a in (0, 1):
        row = []
        for d in (0, 1):
            K = (p.mu + p.alpha) * np.einsum("...b,...c->...bc", eyeK[..., d, :], eyeK[..., a, :])
            if a == d:
                K = K + p.mu * eyeK
            row.append(_aniso_diffusion(g, K))
        blocks.append(row)
    L = sp.bmat(blocks, format="csr") / p.rho_bar
    interior = _masks(g)[0]
    int2 = np.concatenate([interior, interior])
    flat = np.concatenate([w[..., 0].ravel(), w[..., 1].ravel()])
    res = (L @ flat)[int2]
    scale = np.max(np.abs(L @ flat)) + 1e-300
    assert np.max(np.abs(res)) / scale < 1e-10


def test_lift_requires_global_mode():
    g = unit_grid(12)
    e2 = BeamField(g, np.zeros(g.nx + 1), clamped=True)
    with pytest.raises(ConfigError):
        solve_lift_Dv(e2, PhysParams(pi0=0.0))


def pinned_row_solve(g, L, shift, rhs, e2):
    """Reference Dirichlet solve on every node: interior rows of shift - L,
    boundary rows of the identity carrying the pinned values."""
    N = g.n_nodes
    interior, top = _masks(g)
    int2 = np.concatenate([interior, interior])
    M = sp.diags(int2.astype(float)) @ (shift * sp.eye(2 * N) - L) + sp.diags((~int2).astype(float))
    b = np.where(int2, np.concatenate([rhs[..., 0].ravel(), rhs[..., 1].ravel()]), 0.0)
    b[N + np.flatnonzero(top)] = e2[1:-1]
    sol = spla.spsolve(M.tocsc(), b)
    return np.stack([sol[:N].reshape(g.shape), sol[N:].reshape(g.shape)], axis=-1)


def test_lift_equals_pinned_row_solve():
    g = unit_grid(16)
    p = PhysParams(alpha=0.2, pi0=-1.0)
    e2 = BeamField(g, np.sin(np.pi * g.x) + 0.3 * g.x**2 * (1 - g.x) ** 2, clamped=True)
    L = _viscous_operator(g, identity_metrics(g), p) / p.rho_bar
    ref = pinned_row_solve(g, L, 0.0, np.zeros(g.shape + (2,)), e2.values)
    w = solve_lift_Dv(e2, p)
    assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(np.abs(ref))


def bent_metrics(g):
    """Metric triplet of a smooth non-affine map with Jacobian near one."""
    X = np.stack([g.xx + 0.05 * np.sin(np.pi * g.xx) * g.yy, g.yy + 0.04 * np.sin(np.pi * g.xx) * np.cos(np.pi * g.yy)], axis=-1)
    m = build_diffeo(g, X)
    return m.B, m.delta, m.A


def test_interior_velocity_step_equals_pinned_row_step():
    g = unit_grid(12)
    mets = bent_metrics(g)
    rng = np.random.default_rng(11)
    rho0 = 1.0 + 0.2 * np.cos(np.pi * g.xx) * np.cos(np.pi * g.yy)
    p = PhysParams(alpha=0.4)
    dt = 0.02
    v = rng.standard_normal(g.shape + (2,))
    f2 = rng.standard_normal(g.shape + (2,))
    e2 = BeamField(g, 0.7 * np.sin(np.pi * g.x), clamped=True)
    out = VelocityStepper(g, mets, rho0, p, dt).step(v, e2, f2)
    L = sp.diags(np.tile(1.0 / (rho0 * mets[1]).ravel(), 2)) @ _viscous_operator(g, mets, p)
    ref = pinned_row_solve(g, L, 1.0 / dt, v / dt + f2, e2.values)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
    # the boundary values are set, not solved for
    assert np.array_equal(out[1:-1, -1, 1], e2.values[1:-1])
    assert not np.any(out[1:-1, -1, 0])
    assert not np.any(out[0]) and not np.any(out[-1]) and not np.any(out[:, 0])


# ---------------------------------------------------------------- cascade structure


def test_cascade_dependency_graph():
    # plate sees nothing from the fluid; temperature ignores velocity;
    # velocity consumes the plate trace; density consumes velocity
    g = unit_grid(12)
    mets = identity_metrics(g)
    ones = np.ones(g.shape)
    rng = np.random.default_rng(5)
    dt = 0.01

    e1 = clamped_bump(g)
    e2 = clamped_bump(g, -1.0)
    h = BeamField(g, np.sin(np.pi * g.x))
    p1 = step_plate(e1, e2, h, dt)
    p2 = step_plate(e1, e2, h, dt)
    assert np.array_equal(p1[0].values, p2[0].values)

    va = rng.standard_normal(g.shape + (2,))
    vb = rng.standard_normal(g.shape + (2,))
    th = rng.standard_normal(g.shape)
    f3 = rng.standard_normal(g.shape)
    gq = rng.standard_normal(g.shape)
    ta = TemperatureStepper(g, mets, ones, PhysParams(), dt).step(FluidField(g, th), f3, gq)
    tb = TemperatureStepper(g, mets, ones, PhysParams(), dt).step(FluidField(g, th), f3, gq)
    assert np.array_equal(ta, tb)

    f2 = rng.standard_normal(g.shape + (2,))
    vstep = VelocityStepper(g, mets, ones, PhysParams(), dt)
    out_a = vstep.step(FluidField(g, va, kind="vector"), p1[1], f2)
    out_b = vstep.step(FluidField(g, va, kind="vector"), BeamField(g, np.zeros(g.nx + 1), clamped=True), f2)
    assert not np.array_equal(out_a, out_b)

    rho = rng.standard_normal(g.shape)
    da = step_density(FluidField(g, rho), va, f3, mets, ones, dt)
    db = step_density(FluidField(g, rho), vb, f3, mets, ones, dt)
    assert not np.array_equal(da, db)


def test_steppers_are_linear():
    g = unit_grid(12)
    mets = identity_metrics(g)
    ones = np.ones(g.shape)
    rng = np.random.default_rng(9)
    dt = 0.02
    a, b = 1.7, -0.6

    th1, th2 = rng.standard_normal((2,) + g.shape)
    f1, f2s = rng.standard_normal((2,) + g.shape)
    g1, g2 = rng.standard_normal((2,) + g.shape)
    tstep = TemperatureStepper(g, mets, ones, PhysParams(), dt)
    lin = tstep.step(FluidField(g, a * th1 + b * th2), a * f1 + b * f2s, a * g1 + b * g2)
    sep = a * tstep.step(FluidField(g, th1), f1, g1) + b * tstep.step(FluidField(g, th2), f2s, g2)
    assert np.max(np.abs(lin - sep)) < 1e-11

    v1, v2 = rng.standard_normal((2,) + g.shape + (2,))
    q1, q2 = rng.standard_normal((2,) + g.shape + (2,))
    beam1 = BeamField(g, np.sin(np.pi * g.x), clamped=True)
    beam2 = BeamField(g, g.x**2 * (1 - g.x) ** 2, clamped=True)
    mix = BeamField(g, a * beam1.values + b * beam2.values, clamped=True)
    vstep = VelocityStepper(g, mets, ones, PhysParams(), dt)
    lin = vstep.step(FluidField(g, a * v1 + b * v2, kind="vector"), mix, a * q1 + b * q2)
    sep = a * vstep.step(FluidField(g, v1, kind="vector"), beam1, q1) + b * vstep.step(
        FluidField(g, v2, kind="vector"), beam2, q2
    )
    assert np.max(np.abs(lin - sep)) < 1e-11


# ---------------------------------------------------------------- manufactured harness


def test_plate_temporal_first_order():
    rep = manufactured_convergence("plate", "clamped-poly", (64, 128, 256), mode="temporal")
    assert all(o > 0.9 for o in rep.orders)
    assert rep.errors[0] > rep.errors[-1]


def test_manufactured_rejects_unknown_ids():
    with pytest.raises(ConfigError):
        manufactured_convergence("advection", "sin-product", (8, 16))
    with pytest.raises(ConfigError):
        manufactured_convergence("heat", "sin-product", (8, 16), mode="sideways")


def test_convergence_report_mean_order():
    rep = manufactured_convergence("velocity", "sin-product", (8, 16, 32))
    assert rep.mean_order == pytest.approx(float(np.mean(rep.orders)))
    assert rep.stepper == "velocity"

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsilab.chgvar import (
    CutoffProfile,
    DiffeoMap,
    _conormal,
    build_cutoff,
    build_diffeo,
    check_diffeo,
    initial_diffeo,
    metric_tensors,
    suggested_floor,
    update_map,
)
from fsilab.core_grid import BeamField, build_grid
from fsilab.errors import ConfigError, DiffeoFailure, GeometryError

I2 = np.eye(2)


def unit_grid(n=32):
    return build_grid(1.0, 1.0, n, n)


def identity_map(g):
    return np.stack([np.array(g.xx), np.array(g.yy)], axis=-1)


# ---------------------------------------------------------------- metric tensors


def test_metric_identity():
    g = unit_grid(16)
    B, delta, A = metric_tensors(g, identity_map(g))
    assert np.max(np.abs(B - I2)) == 0.0
    assert np.max(np.abs(delta - 1.0)) == 0.0
    assert np.max(np.abs(A - I2)) == 0.0


def test_metric_dilation():
    g = unit_grid(16)
    a = 1.3
    B, delta, A = metric_tensors(g, a * identity_map(g))
    assert np.max(np.abs(B - a * I2)) < 1e-13
    assert np.max(np.abs(delta - a**2)) < 1e-13
    # the conormal tensor is dilation invariant
    assert np.max(np.abs(A - I2)) < 1e-13


def test_metric_shear():
    g = unit_grid(16)
    gamma = 0.3
    X = np.stack([g.xx + gamma * g.yy, np.array(g.yy)], axis=-1)
    B, delta, A = metric_tensors(g, X)
    # cofactor of [[1, gamma], [0, 1]] is [[1, 0], [-gamma, 1]]
    assert np.max(np.abs(B - np.array([[1.0, 0.0], [-gamma, 1.0]]))) < 1e-10
    assert np.max(np.abs(delta - 1.0)) < 1e-10
    want_A = np.array([[1.0 + gamma**2, -gamma], [-gamma, 1.0]])
    assert np.max(np.abs(A - want_A)) < 1e-10


def test_metric_affine_closed_form():
    g = unit_grid(16)
    M = np.array([[1.2, 0.3], [-0.1, 0.9]])
    b = np.array([0.05, -0.02])
    X = np.einsum("ab,ijb->ija", M, identity_map(g)) + b
    B, delta, A = metric_tensors(g, X)
    d = np.linalg.det(M)
    cof = d * np.linalg.inv(M).T
    assert np.max(np.abs(B - cof)) < 1e-12
    assert np.max(np.abs(delta - d)) < 1e-12
    assert np.max(np.abs(A - cof.T @ cof / d)) < 1e-12


def test_metric_rejects_folded_map():
    g = unit_grid(16)
    X = np.stack([np.array(g.xx), g.yy**2], axis=-1)  # d(y^2)/dy < 0 for y < 0
    with pytest.raises(DiffeoFailure) as exc:
        metric_tensors(g, X)
    assert exc.value.node is not None
    assert exc.value.value <= 0.0


def test_metric_conormal_symmetric_positive():
    g = unit_grid(32)
    X = identity_map(g)
    X[..., 0] += 0.08 * np.sin(np.pi * g.xx) * np.cos(np.pi * g.yy)
    X[..., 1] += 0.05 * np.cos(2 * g.xx) * g.yy**2
    B, delta, A = metric_tensors(g, X)
    assert np.max(np.abs(A - np.swapaxes(A, -1, -2))) == 0.0
    tr = A[..., 0, 0] + A[..., 1, 1]
    det = A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]
    assert np.min(0.5 * tr - np.sqrt(np.maximum(0.25 * tr**2 - det, 0.0))) > 0.0


def test_conormal_matches_einsum_formula_bit_for_bit():
    # the written-out 2x2 product against the einsum it replaced, over
    # random stacks whose entries span many binades
    rng = np.random.default_rng(21)
    for shape in [(33, 33), (7, 9, 9), (3, 5, 5)]:
        B = rng.standard_normal(shape + (2, 2)) * 10.0 ** rng.integers(-60, 60, shape + (2, 2))
        delta = rng.uniform(0.1, 3.0, shape)
        A = np.einsum("...ca,...cb->...ab", B, B) / delta[..., None, None]
        ref = 0.5 * (A + np.swapaxes(A, -1, -2))
        got = _conormal(B, delta)
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


def test_gradX_is_read_off_the_cofactor_bit_for_bit():
    # the Jacobian is not stored: cofactor twice gives every bit back,
    # signed zeros included
    g = unit_grid(16)
    rng = np.random.default_rng(8)
    X = identity_map(g) + 1e-3 * rng.standard_normal(g.shape + (2,))
    X[..., 1] = g.yy
    X[2::4, -1, 1] = -0.0  # the top edge's x-slope alternates -0.0 and +0.0
    jac = g.ops.grad_vector(X)
    assert np.any(np.signbit(jac) & (jac == 0.0)) and np.any(~np.signbit(jac) & (jac == 0.0))
    d = build_diffeo(g, X)
    assert d.gradX.tobytes() == jac.tobytes()
    assert "gradX" not in DiffeoMap.__dataclass_fields__


def test_piola_row_divergence_vanishes():
    # cofactor rows are divergence free; commuting difference axes keep
    # that exact on the grid up to round-off, no refinement needed
    for n in (16, 64):
        g = unit_grid(n)
        ops = g.ops
        X = identity_map(g)
        X[..., 0] += 0.1 * np.sin(np.pi * g.xx) * np.cos(np.pi * g.yy)
        X[..., 1] += 0.1 * np.cos(2 * g.xx) * g.yy**2
        B, _, _ = metric_tensors(g, X)
        assert np.max(np.abs(ops.div_matrix(B))) < 1e-10


@settings(max_examples=30, deadline=None)
@given(
    eps=st.floats(min_value=1e-6, max_value=1e-2),
    kx=st.integers(min_value=1, max_value=3),
    ky=st.integers(min_value=1, max_value=3),
)
def test_metric_first_order_perturbation(eps, kx, ky):
    g = unit_grid(16)
    W = np.stack(
        [np.sin(kx * g.xx) * np.cos(ky * g.yy), np.cos(kx * g.xx) * np.sin(ky * g.yy)],
        axis=-1,
    )
    gradW = g.ops.grad_vector(W)
    scale = np.max(np.abs(gradW))
    B, delta, A = metric_tensors(g, identity_map(g) + eps * W)
    dev = max(np.max(np.abs(B - I2)), np.max(np.abs(delta - 1.0)), np.max(np.abs(A - I2)))
    assert dev <= 5.0 * eps * max(scale, 1.0)


# ---------------------------------------------------------------- cutoff


def test_cutoff_band_and_walls():
    g = unit_grid(32)
    chi = build_cutoff(g)
    s = chi.samples
    assert np.all((0.0 <= s) & (s <= 1.0))
    # identically 1 on the band around the top edge
    assert np.all(s[:, g.y >= chi.eta_minus] == 1.0)
    # identically 0 on and below the lower ramp foot
    assert np.all(s[:, g.y <= chi.eta_minus - chi.ramp] == 0.0)


def test_cutoff_is_c2_at_ramp_ends():
    g = unit_grid(32)
    chi = build_cutoff(g)
    y = np.linspace(-0.75, 0.0, 2001)
    vals = chi.psi_y(y)
    d2 = np.gradient(np.gradient(vals, y), y)
    # curvature stays bounded through the ramp ends (no jumps blowing up)
    assert np.max(np.abs(d2)) < 200.0


def test_cutoff_validation():
    g = unit_grid(8)
    with pytest.raises(ConfigError):
        CutoffProfile(g, 0.1, 0.25, 0.25)
    with pytest.raises(ConfigError):
        CutoffProfile(g, -0.25, 0.25, 0.0)
    with pytest.raises(ConfigError):
        CutoffProfile(g, -0.9, 0.25, 0.5)


# ---------------------------------------------------------------- initial map


def test_initial_diffeo_zero_displacement_is_identity():
    g = unit_grid(16)
    chi = build_cutoff(g)
    d = initial_diffeo(BeamField(g, np.zeros(g.nx + 1), clamped=True), chi, 8)
    assert np.array_equal(d.X, identity_map(g))
    assert np.max(np.abs(d.B - I2)) == 0.0
    assert np.max(np.abs(d.delta - 1.0)) == 0.0
    assert np.max(np.abs(d.A - I2)) == 0.0


def test_initial_diffeo_top_edge_lands_on_graph():
    g = unit_grid(32)
    chi = build_cutoff(g)
    eta = BeamField(g, 0.05 * np.sin(np.pi * g.x), clamped=True)
    d = initial_diffeo(eta, chi, 64)
    assert np.max(np.abs(d.X[:, -1, 1] - eta.values)) < 1e-8
    assert np.max(np.abs(d.X[:, -1, 0] - g.x)) == 0.0


def test_initial_diffeo_identity_on_walls():
    g = unit_grid(32)
    chi = build_cutoff(g)
    eta = BeamField(g, 0.05 * np.sin(np.pi * g.x), clamped=True)
    d = initial_diffeo(eta, chi, 32)
    ref = identity_map(g)
    assert np.array_equal(d.X[:, 0], ref[:, 0])
    assert np.array_equal(d.X[0], ref[0])
    assert np.array_equal(d.X[-1], ref[-1])


def test_initial_diffeo_margin_violation():
    g = unit_grid(16)
    chi = build_cutoff(g)  # margins at +-0.25
    eta = BeamField(g, 0.3 * np.sin(np.pi * g.x), clamped=True)
    with pytest.raises(GeometryError):
        initial_diffeo(eta, chi, 16)


def test_initial_diffeo_certificate():
    g = unit_grid(32)
    chi = build_cutoff(g)
    eta = BeamField(g, 0.05 * np.sin(np.pi * g.x), clamped=True)
    d = initial_diffeo(eta, chi, 64)
    cert = check_diffeo(d, 0.5)
    assert cert.passed
    assert cert.min_delta >= 0.9
    assert 0.0 < suggested_floor(d) <= 0.5 * cert.min_delta + 1e-15


# ---------------------------------------------------------------- running map


def test_update_map_zero_velocity():
    g = unit_grid(16)
    chi = build_cutoff(g)
    eta = BeamField(g, 0.03 * np.sin(np.pi * g.x), clamped=True)
    d0 = initial_diffeo(eta, chi, 32)
    vh = np.zeros((5,) + g.shape + (2,))
    d = update_map(d0, vh, 0.1)
    assert np.array_equal(d.X, d0.X)


def test_update_map_constant_translation():
    g = unit_grid(16)
    d0 = build_diffeo(g, identity_map(g))
    c = np.array([0.4, -0.2])
    vh = np.broadcast_to(c, (4,) + g.shape + (2,)).copy()
    d = update_map(d0, vh, 0.25)  # integrates over [0, 0.75]
    assert np.allclose(d.X, d0.X + 0.75 * c, atol=1e-14)
    assert np.max(np.abs(d.delta - d0.delta)) < 1e-14


def test_update_map_linear_velocity_tracks_determinant():
    g = unit_grid(16)
    d0 = build_diffeo(g, identity_map(g))
    s = 0.3
    v = s * np.stack([np.array(g.xx), -np.array(g.yy)], axis=-1)
    nt, dt = 6, 0.1
    vh = np.broadcast_to(v, (nt,) + v.shape).copy()
    t = (nt - 1) * dt
    d = update_map(d0, vh, dt)
    want_delta = (1.0 + t * s) * (1.0 - t * s)
    assert np.max(np.abs(d.delta - want_delta)) < 1e-12
    assert np.max(np.abs(d.gradX - (I2 + t * s * np.diag([1.0, -1.0])))) < 1e-12


def test_update_map_time_additivity():
    g = unit_grid(16)
    chi = build_cutoff(g)
    eta = BeamField(g, 0.03 * np.sin(np.pi * g.x), clamped=True)
    d0 = initial_diffeo(eta, chi, 32)
    rng = np.random.default_rng(7)
    base = np.stack(
        [np.sin(np.pi * g.xx) * np.cos(g.yy), 0.5 * np.cos(g.xx) * np.sin(np.pi * g.yy)],
        axis=-1,
    )
    amps = rng.uniform(-0.2, 0.2, size=9)
    vh = amps[:, None, None, None] * base
    dt = 0.05
    whole = update_map(d0, vh, dt)
    k = 4
    mid = update_map(d0, vh[: k + 1], dt)
    stitched = update_map(mid, vh[k:], dt)
    assert np.allclose(stitched.X, whole.X, atol=1e-13)


def test_update_map_floor_failure_carries_node():
    g = unit_grid(16)
    d0 = build_diffeo(g, identity_map(g))
    v = -0.8 * np.stack([np.zeros(g.shape), np.array(g.yy)], axis=-1)
    vh = np.broadcast_to(v, (11,) + v.shape).copy()
    with pytest.raises(DiffeoFailure) as exc:
        update_map(d0, vh, 0.1, c0=0.9)  # delta drops to 0.2 at t = 1
    assert exc.value.node is not None


def test_update_map_validates_history_shape():
    g = unit_grid(8)
    d0 = build_diffeo(g, identity_map(g))
    with pytest.raises(ConfigError):
        update_map(d0, np.zeros((3, 4, 4, 2)), 0.1)
    with pytest.raises(ConfigError):
        update_map(d0, np.zeros((3,) + g.shape + (2,)), -0.1)


# ---------------------------------------------------------------- certificates


def test_check_diffeo_identity_passes():
    g = unit_grid(8)
    cert = check_diffeo(build_diffeo(g, identity_map(g)), 0.5)
    assert cert.passed and cert.min_delta == 1.0 and np.isclose(cert.min_eig_A, 1.0)


def test_check_diffeo_small_dilation_fails():
    g = unit_grid(8)
    cert = check_diffeo(build_diffeo(g, 0.6 * identity_map(g)), 0.5)
    assert not cert.passed
    assert np.isclose(cert.min_delta, 0.36)


def test_check_diffeo_needs_positive_floor():
    g = unit_grid(8)
    with pytest.raises(ConfigError):
        check_diffeo(build_diffeo(g, identity_map(g)), 0.0)

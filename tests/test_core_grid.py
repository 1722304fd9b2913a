import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsilab.core_grid import (
    _BLOCK_NODES,
    BeamField,
    FluidField,
    NormSpec,
    _cumtrapz,
    _sample_blocks,
    beam_embed,
    build_grid,
    discrete_norm,
    integrate_beam,
    integrate_fluid,
    weighted_time_norm,
)
from fsilab.errors import ConfigError


def unit_grid(n=32):
    return build_grid(1.0, 1.0, n, n)


# ---------------------------------------------------------------- grid


def test_build_grid_spacings():
    g = build_grid(1.0, 1.0, 8, 8)
    assert g.hx == 0.125 and g.hy == 0.125
    assert g.shape == (9, 9)


def test_build_grid_anisotropic():
    g = build_grid(2.0, 1.0, 8, 4)
    assert g.hx == 0.25 and g.hy == 0.25


def test_beam_alignment_bit_exact():
    g = build_grid(1.0, 1.0, 8, 8)
    assert g.beam_weights.shape == (9,)
    # beam nodes are exactly the top-edge x-nodes
    assert np.array_equal(g.x, g.xx[:, -1])
    assert g.yy[3, -1] == 0.0


@pytest.mark.parametrize(
    "bad", [(0.0, 1, 8, 8), (1, -2, 8, 8), (1, 1, 3, 8), (1, 1, 8, 2), (np.inf, 1, 8, 8), (1, np.inf, 8, 8)]
)
def test_build_grid_rejects(bad):
    with pytest.raises(ConfigError):
        build_grid(*bad)


def test_boundary_partition():
    g = build_grid(1.0, 1.0, 8, 6)
    top = g.mask_top
    wall = g.mask_wall
    assert not np.any(top & wall)
    assert np.array_equal(top | wall, g.mask_boundary)
    # corners belong to the fixed wall
    assert wall[0, -1] and wall[-1, -1] and wall[0, 0] and wall[-1, 0]
    assert top.sum() == 7
    assert g.mask_interior.sum() == 7 * 5


def test_quadrature_weights_sum():
    g = build_grid(2.0, 0.5, 16, 8)
    assert np.isclose(g.weights.sum(), 1.0, rtol=1e-14)
    assert np.isclose(g.beam_weights.sum(), 2.0, rtol=1e-14)
    assert np.isclose(integrate_fluid(g, np.ones(g.shape)), 1.0)
    assert np.isclose(integrate_beam(g, np.ones(g.nx + 1)), 2.0)


def test_field_validation():
    g = unit_grid(8)
    with pytest.raises(ConfigError):
        FluidField(g, np.zeros((3, 3)))
    with pytest.raises(ConfigError):
        FluidField(g, np.full(g.shape, np.nan))
    with pytest.raises(ConfigError):
        FluidField(g, np.zeros(g.shape), kind="tensor")
    with pytest.raises(ConfigError):
        BeamField(g, np.ones(g.nx + 1), clamped=True)
    BeamField(g, np.zeros(g.nx + 1), clamped=True)


def test_beam_embed():
    g = unit_grid(8)
    full = beam_embed(g, np.arange(1.0, 8.0))
    assert full[0] == 0.0 and full[-1] == 0.0
    assert np.array_equal(full[1:-1], np.arange(1.0, 8.0))


# ---------------------------------------------------------------- stencils


@pytest.mark.parametrize("L, nx, ny", [(1.0, 8, 8), (2.0, 9, 5)])
def test_grid_owns_one_stencil(L, nx, ny):
    g = build_grid(L, 1.0, nx, ny)
    twin = build_grid(L, 1.0, nx, ny)
    assert g.ops is g.ops
    # equal grids, but each owns its own operators
    assert twin == g and twin.ops is not g.ops
    f = np.random.default_rng(3).standard_normal(g.shape)
    for sparse, applied in ((g.ops.Dx, g.ops.dx(f)), (g.ops.Dy, g.ops.dy(f))):
        gap = np.max(np.abs(sparse @ f.ravel() - applied.ravel()))
        assert gap <= 1e-12 * np.max(np.abs(applied))


def test_laplace_of_constant_is_zero():
    g = unit_grid(16)
    ops = g.ops
    f = np.full(g.shape, 4.2)
    assert np.max(np.abs(ops.laplace(f))) < 1e-12
    assert np.max(np.abs(ops.dx(f))) < 1e-12
    assert np.max(np.abs(ops.dy(f))) < 1e-12
    assert np.max(np.abs(ops.beam_dxx(np.full(g.nx + 1, 4.2)))) < 1e-12


def test_div_of_linear_field_is_exact():
    g = unit_grid(16)
    ops = g.ops
    v = np.stack([g.xx, g.yy], axis=-1)
    assert np.max(np.abs(ops.div(v) - 2.0)) < 1e-12


def test_grad_vector_layout():
    g = unit_grid(16)
    ops = g.ops
    # v = (x + 2y, 3x + 4y) has constant Jacobian [[1, 2], [3, 4]]
    v = np.stack([g.xx + 2 * g.yy, 3 * g.xx + 4 * g.yy], axis=-1)
    J = ops.grad_vector(v)
    assert np.allclose(J[5, 5], [[1.0, 2.0], [3.0, 4.0]], atol=1e-12)
    D = ops.sym_grad(v)
    assert np.allclose(D[5, 5], [[1.0, 2.5], [2.5, 4.0]], atol=1e-12)


def test_second_derivative_one_sided_edges():
    g = unit_grid(16)
    ops = g.ops
    # quadratic is differentiated exactly by the one-sided 4-point rule too
    f = 3.0 * g.xx**2 + g.yy**2
    assert np.max(np.abs(ops.dxx(f) - 6.0)) < 1e-10
    assert np.max(np.abs(ops.dyy(f) - 2.0)) < 1e-10


def test_normals():
    g = unit_grid(8)
    n = g.ops.normals
    assert np.array_equal(n[0, 3], [-1.0, 0.0])
    assert np.array_equal(n[-1, 3], [1.0, 0.0])
    assert np.array_equal(n[3, 0], [0.0, -1.0])
    assert np.array_equal(n[3, -1], [0.0, 1.0])
    # corners follow their side column
    assert np.array_equal(n[0, -1], [-1.0, 0.0])
    assert np.max(np.abs(n[g.mask_interior])) == 0.0


def test_normal_derivative_linear():
    g = unit_grid(16)
    ops = g.ops
    f = 2.0 * g.xx + 3.0 * g.yy
    nd = ops.normal_derivative(f)
    assert np.isclose(nd[0, 4], -2.0, atol=1e-12)
    assert np.isclose(nd[-1, 4], 2.0, atol=1e-12)
    assert np.isclose(nd[4, 0], -3.0, atol=1e-12)
    assert np.isclose(nd[4, -1], 3.0, atol=1e-12)


def test_beam_biharmonic_sin_refines_at_order_two():
    # core-region error against (pi/L)^4 sin(pi x / L), clamped layers excluded
    errs = []
    for n in (16, 32, 64):
        g = build_grid(1.0, 1.0, n, 4)
        ops = g.ops
        out = ops.bih_clamped @ np.sin(np.pi * g.x)[1:-1]
        exact = np.pi**4 * np.sin(np.pi * g.x[1:-1])
        errs.append(np.max(np.abs(out - exact)[2:-2]))
    assert errs[2] < 0.05
    slope = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(slope) > 1.9


def test_biharmonic_clamped_layer_rows():
    g = build_grid(1.0, 1.0, 8, 4)
    m = g.ops.bih_clamped * g.hx**4
    assert np.allclose(m[0, :3], [7.0, -4.0, 1.0])
    assert np.allclose(m[-1, -3:], [1.0, -4.0, 7.0])
    assert np.allclose(m[3, 1:6], [1.0, -4.0, 6.0, -4.0, 1.0])


def test_biharmonic_symmetric_positive_definite():
    for n in (16, 64):
        m = build_grid(1.0, 1.0, n, 4).ops.bih_clamped
        assert np.max(np.abs(m - m.T)) == 0.0
        assert np.linalg.eigvalsh(m).min() > 0.0


def test_lap_s_matrix():
    g = build_grid(1.0, 1.0, 8, 4)
    m = g.ops.lap_s * g.hx**2
    assert np.allclose(np.diag(m), -2.0)
    assert np.allclose(np.diag(m, 1), 1.0)
    # quadratic x(1-x) has second derivative -2, and vanishes at the ends
    eta = g.x * (1 - g.x)
    assert np.allclose(g.ops.lap_s @ eta[1:-1], -2.0, atol=1e-10)


def test_gradient_divergence_adjointness_zero_boundary():
    # for fields vanishing on the whole boundary the defect is tiny
    for n in (16, 32):
        g = unit_grid(n)
        ops = g.ops
        p = np.sin(np.pi * g.xx) * np.sin(np.pi * (g.yy + 1))
        v = np.stack(
            [
                np.sin(2 * np.pi * g.xx) * np.sin(np.pi * (g.yy + 1)),
                np.sin(np.pi * g.xx) * np.sin(2 * np.pi * (g.yy + 1)),
            ],
            axis=-1,
        )
        defect = np.sum(g.weights[..., None] * ops.grad(p) * v) + np.sum(g.weights * p * ops.div(v))
        norm_p = np.sqrt(np.sum(g.weights * p**2))
        norm_v = np.sqrt(np.sum(g.weights * np.sum(v**2, -1)))
        assert abs(defect) <= g.hx**2 * norm_p * norm_v


# ---------------------------------------------------------------- norms


def test_norm_of_constant_unit_square():
    g = unit_grid(8)
    f = FluidField(g, np.full(g.shape, 3.7))
    assert np.isclose(discrete_norm(f, NormSpec(k=0, q=2.0)), 3.7, rtol=1e-14)


def test_norm_of_zero_for_every_spec():
    g = unit_grid(8)
    f = FluidField(g, np.zeros(g.shape))
    b = BeamField(g, np.zeros(g.nx + 1))
    for k in (0, 1, 2):
        for q in (2.0, 3.0, math.inf):
            assert discrete_norm(f, NormSpec(k=k, q=q)) == 0.0
            assert discrete_norm(b, NormSpec(k=k, q=q)) == 0.0


def test_norm_sin_first_order_analytic():
    g = unit_grid(64)
    f = FluidField(g, np.sin(np.pi * g.xx) * np.ones(g.shape))
    got = discrete_norm(f, NormSpec(k=1, q=2.0))
    want = math.sqrt(0.5 + np.pi**2 / 2)
    assert abs(got - want) / want < 0.01


def test_norm_vector_field_components_combine():
    g = unit_grid(16)
    ones = np.ones(g.shape)
    v = FluidField(g, np.stack([3.0 * ones, 4.0 * ones], axis=-1), kind="vector")
    assert np.isclose(discrete_norm(v, NormSpec(k=0, q=2.0)), 5.0, rtol=1e-12)


def test_norm_sup_exponent():
    g = unit_grid(16)
    f = FluidField(g, g.xx)
    assert np.isclose(discrete_norm(f, NormSpec(k=0, q=math.inf)), 1.0)
    # first difference quotients of x are 1, so the k=1 sup norm is still 1
    assert np.isclose(discrete_norm(f, NormSpec(k=1, q=math.inf)), 1.0)


def test_norm_spec_validation():
    with pytest.raises(ConfigError):
        NormSpec(k=3)
    with pytest.raises(ConfigError):
        NormSpec(q=1.0)
    with pytest.raises(ConfigError):
        NormSpec(p=0.5)
    with pytest.raises(ConfigError):
        NormSpec(beta=-0.1)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(min_value=-8, max_value=8, allow_nan=False),
    kx=st.integers(min_value=0, max_value=3),
    ky=st.integers(min_value=0, max_value=3),
    k=st.sampled_from([0, 1, 2]),
    q=st.sampled_from([2.0, 3.0, math.inf]),
)
def test_norm_absolute_homogeneity(a, kx, ky, k, q):
    g = unit_grid(12)
    base = np.cos(kx * g.xx) * np.sin(ky * g.yy + 0.3)
    spec = NormSpec(k=k, q=q)
    n1 = discrete_norm(FluidField(g, a * base), spec)
    n0 = discrete_norm(FluidField(g, base), spec)
    assert np.isclose(n1, abs(a) * n0, rtol=1e-10, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(min_value=-4, max_value=4, allow_nan=False),
    b=st.floats(min_value=-4, max_value=4, allow_nan=False),
    k=st.sampled_from([0, 1, 2]),
    q=st.sampled_from([2.0, 4.0, math.inf]),
)
def test_norm_triangle_inequality(a, b, k, q):
    g = unit_grid(12)
    f1 = a * np.cos(2 * g.xx) * g.yy
    f2 = b * np.sin(g.xx + g.yy) + a * g.xx**2
    spec = NormSpec(k=k, q=q)
    lhs = discrete_norm(FluidField(g, f1 + f2), spec)
    rhs = discrete_norm(FluidField(g, f1), spec) + discrete_norm(FluidField(g, f2), spec)
    assert lhs <= rhs + 1e-10 * max(1.0, rhs)


# ---------------------------------------------------------------- time norms


def test_time_norm_zero_series():
    assert weighted_time_norm(np.zeros(50), 0.1, NormSpec()) == 0.0


def test_time_norm_weight_cancels_decay_sup():
    spec = NormSpec(p=math.inf, beta=0.7)
    t = np.arange(200) * 0.05
    s = np.exp(-0.7 * t)
    assert np.isclose(weighted_time_norm(s, 0.05, spec), 1.0, rtol=1e-12)


def test_time_norm_decay_integral_limit():
    beta = 0.7
    spec = NormSpec(p=2.0, beta=beta)
    want = math.sqrt(1.0 / (2.0 * beta))
    errs = []
    for dt in (1e-2, 1e-3):
        t = np.arange(0.0, 40.0, dt)
        errs.append(abs(weighted_time_norm(np.exp(-2 * beta * t), dt, spec) - want))
    assert errs[1] < errs[0]
    assert errs[1] / want < 1e-3


def test_time_norm_beta_zero_plain_lp():
    s = np.ones(100)
    # (sum 1^2 * dt)^(1/2) over 100 samples of 0.01 is 1
    assert np.isclose(weighted_time_norm(s, 0.01, NormSpec(p=2.0)), 1.0)


def test_time_norm_rejects_empty_and_bad_dt():
    with pytest.raises(ConfigError):
        weighted_time_norm(np.array([]), 0.1, NormSpec())
    with pytest.raises(ConfigError):
        weighted_time_norm(np.ones(4), 0.0, NormSpec())


# ---------------------------------------------------------------- sample blocks


@pytest.mark.parametrize("nt, size", [(1, 81), (404, 81), (811, 81), (7, 10**6), (100, 1089)])
def test_sample_blocks_cover_the_stack_in_order(nt, size):
    blocks = _sample_blocks(nt, size)
    per_block = max(1, _BLOCK_NODES // size)
    assert [i for sl in blocks for i in range(nt)[sl]] == list(range(nt))
    assert all(0 < sl.stop - sl.start <= per_block for sl in blocks)
    assert len(blocks) == -(-nt // per_block)


def test_blocked_running_integral_adds_like_one_cumsum():
    g = unit_grid(8)
    nt, dt = 3 * (_BLOCK_NODES // (2 * g.n_nodes)) + 5, 0.01
    rng = np.random.default_rng(3)
    a = rng.standard_normal((nt,) + g.shape + (2,))
    a[::7] = -0.0
    assert len(_sample_blocks(nt - 1, a[0].size)) == 4
    ref = np.zeros_like(a)
    ref[1:] = np.cumsum(0.5 * dt * (a[1:] + a[:-1]), axis=0)
    assert np.asarray(_cumtrapz(a, dt)).tobytes() == ref.tobytes()


@pytest.mark.parametrize("q", [4.0, math.inf])
def test_blocked_norms_match_per_sample_norms(q):
    g = unit_grid(8)
    nt = 2 * (_BLOCK_NODES // g.n_nodes) + 3
    rng = np.random.default_rng(5)
    fields = [
        FluidField(g, rng.standard_normal((nt,) + g.shape)),
        FluidField(g, rng.standard_normal((nt,) + g.shape + (2,)), kind="vector"),
        BeamField(g, rng.standard_normal((nt, g.nx + 1))),
    ]
    for f in fields:
        for k in (0, 1, 2):
            spec = NormSpec(k, q)
            stacked = discrete_norm(f, spec)
            single = [discrete_norm(dataclasses.replace(f, values=f.values[n]), spec) for n in range(nt)]
            assert np.asarray(stacked).tobytes() == np.asarray(single).tobytes()

import dataclasses
import re

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
from scipy.sparse import csgraph

from fsilab.core_grid import build_grid
from fsilab.errors import ConfigError, NumericsError
from fsilab.linear_subsystems import default_params, plate_operator
import fsilab.fs_operator as fs_operator
from fsilab.mirror import MirrorBlocks, _reflection
from fsilab.fs_operator import (
    OperatorMatrix,
    _gram_maps,
    _splu,
    _weight_gram,
    assemble_block,
    assemble_coupled,
    block_layout,
    constraint_functionals,
    energy_rate,
    gamma_search,
    kernel_vectors,
    pack_fields,
    perturbation_check,
    project_mean_zero,
    resolvent_solve,
    restrict_Xm,
    sector_rim,
    sector_scan,
    spectrum,
    state_to_vector,
    unpack_fields,
    vector_to_state,
)

BETA = 3 * np.pi / 4


def unit_grid(n=8):
    return build_grid(1.0, 1.0, n, n)


def coupled(n=8, part="full"):
    return assemble_coupled(unit_grid(n), default_params(), part=part)


def random_vec(layout, rng):
    return rng.standard_normal(layout.total)


# ---------------- layout and packing


def test_layout_counts():
    grid = unit_grid(6)
    lay = block_layout(grid)
    n = (6 + 1) ** 2
    ni = (6 - 1) ** 2
    m = 6 - 1
    assert lay.total == 2 * n + 2 * ni + 2 * m
    assert lay.sl_rho == slice(0, n)
    assert lay.sl_eta2.stop == lay.total
    assert lay.n_interior == ni
    assert lay.n_beam == m


def test_pack_unpack_roundtrip():
    grid = unit_grid(6)
    lay = block_layout(grid)
    rng = np.random.default_rng(3)
    rho = rng.standard_normal(grid.shape)
    theta = rng.standard_normal(grid.shape)
    eta1 = np.zeros(grid.nx + 1)
    eta2 = np.zeros(grid.nx + 1)
    eta1[1:-1] = rng.standard_normal(grid.nx - 1)
    eta2[1:-1] = rng.standard_normal(grid.nx - 1)
    v = np.zeros(grid.shape + (2,))
    v[1:-1, 1:-1, :] = rng.standard_normal((grid.nx - 1, grid.ny - 1, 2))
    v[1:-1, -1, 1] = eta2[1:-1]  # top trace carried by the beam velocity
    vec = pack_fields(lay, rho, v, theta, eta1, eta2)
    r2, v2, t2, e12, e22 = unpack_fields(lay, vec)
    assert np.array_equal(r2, rho)
    assert np.array_equal(t2, theta)
    assert np.array_equal(v2, v)
    assert np.array_equal(e12, eta1)
    assert np.array_equal(e22, eta2)


def test_unpack_rebuilds_top_trace():
    grid = unit_grid(6)
    lay = block_layout(grid)
    vec = np.zeros(lay.total)
    vec[lay.sl_eta2] = 2.5
    _, v, _, _, eta2 = unpack_fields(lay, vec)
    assert np.all(v[1:-1, -1, 1] == 2.5)
    assert np.all(v[0, :, :] == 0) and np.all(v[:, 0, :] == 0)
    assert eta2[0] == 0 and eta2[-1] == 0


def test_state_vector_roundtrip():
    grid = unit_grid(6)
    lay = block_layout(grid)
    rng = np.random.default_rng(11)
    vec = random_vec(lay, rng)
    state = vector_to_state(lay, vec, t=0.7)
    back = state_to_vector(state, lay)
    # wall velocity entries are not state unknowns, everything else returns
    assert np.allclose(back, vec, atol=0)
    assert state.t == 0.7
    assert state.v.kind == "vector"


# ---------------- assembled matrix structure


def test_parts_sum_to_full():
    full = coupled(6, "full")
    pr = coupled(6, "principal")
    bd = coupled(6, "bounded")
    diff = (pr.matrix + bd.matrix - full.matrix).tocsr()
    assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


def test_unknown_part_rejected():
    with pytest.raises(ConfigError):
        assemble_coupled(unit_grid(6), default_params(), part="everything")


def test_nonperturbative_params_rejected():
    with pytest.raises(ConfigError):
        assemble_coupled(unit_grid(6), default_params(pi0=3.0))


def test_rho_row_exact_on_linear_velocity():
    op = coupled(10)
    lay = op.layout
    grid = op.grid
    v = np.stack([grid.xx, grid.yy], axis=-1)
    zeros = np.zeros(grid.shape)
    zb = np.zeros(grid.nx + 1)
    vec = pack_fields(lay, zeros, v, zeros, zb, zb)
    rate = (op.matrix @ vec)[lay.sl_rho].reshape(grid.shape)
    # rows two nodes away from the boundary never touch eliminated values
    assert np.abs(rate[2:-2, 2:-2] + 2.0 * op.params.rho_bar).max() < 1e-13


def test_beam_forcing_row_on_constant_fields():
    op = coupled(6)
    lay = op.layout
    grid = op.grid
    zeros = np.zeros(grid.shape)
    zb = np.zeros(grid.nx + 1)
    vec = pack_fields(
        lay, np.full(grid.shape, 0.7), np.zeros(grid.shape + (2,)),
        np.full(grid.shape, -1.3), zb, zb,
    )
    out = op.matrix @ vec
    p = op.params
    expected = p.R0 * p.theta_bar * 0.7 + p.R0 * p.rho_bar * (-1.3)
    assert np.abs(out[lay.sl_eta2] - expected).max() < 1e-13
    # constant density and temperature are flux free in their own rows
    assert np.abs(out[lay.sl_rho]).max() < 1e-13
    assert np.abs(out[lay.sl_theta]).max() < 1e-13
    assert np.abs(out[lay.sl_v]).max() < 1e-13


def test_velocity_rows_consistent_with_reconstructed_field():
    # the eliminated boundary columns must act exactly like the rebuilt
    # full-grid field: apply the grid's array stencils to the unpacked
    # velocity, independently of the sparse assembly
    from fsilab.fs_operator import _sbp_gradient

    op = coupled(6)
    lay = op.layout
    grid = op.grid
    ops = grid.ops
    rng = np.random.default_rng(5)
    vec = random_vec(lay, rng)
    vec[lay.sl_rho] = 0.0
    vec[lay.sl_theta] = 0.0
    _, v, _, _, _ = unpack_fields(lay, vec)
    vx, vy = v[..., 0], v[..., 1]
    p = op.params
    cl = p.mu / p.rho_bar
    cd = (p.alpha + p.mu) / p.rho_bar
    fx = cl * ops.laplace(vx) + cd * (ops.dxx(vx) + ops.dxy(vy))
    fy = cl * ops.laplace(vy) + cd * (ops.dxy(vx) + ops.dyy(vy))
    out = op.matrix @ vec
    assert np.allclose(out[lay.sl_vx], fx.ravel()[lay.interior_flat], atol=1e-11)
    assert np.allclose(out[lay.sl_vy], fy.ravel()[lay.interior_flat], atol=1e-11)
    dx_sbp, dy_sbp = _sbp_gradient(grid)
    rho_rate = -p.rho_bar * (dx_sbp @ vx.ravel() + dy_sbp @ vy.ravel())
    assert np.allclose(out[lay.sl_rho], rho_rate, atol=1e-11)


def test_conserved_functionals_annihilate_generator():
    op = coupled(8)
    cons = constraint_functionals(op.layout, op.params)
    resid = np.abs(cons @ op.matrix)
    assert resid.max() < 1e-12


def test_kernel_vectors_are_exact():
    op = coupled(8)
    kern = kernel_vectors(op.layout, op.params)
    assert np.abs(op.matrix @ kern).max() < 1e-9
    cross = constraint_functionals(op.layout, op.params) @ kern
    # kernel transversal to the mean-zero subspace
    assert abs(np.linalg.det(cross)) > 0.5 * op.grid.area ** 2


def test_nullspace_dimension_is_two():
    op = coupled(6)
    sv = np.linalg.svd(op.matrix.toarray(), compute_uv=False)
    rel = sv / sv[0]
    assert np.sum(rel < 1e-10) == 2
    assert rel[-3] > 1e-8


# ---------------- mean-zero restriction


def test_projection_examples():
    op = coupled(6)
    lay = op.layout
    vec = np.zeros(lay.total)
    vec[lay.sl_rho] = 1.0
    out = project_mean_zero(op, vec)
    # unit area: the density correction is exactly -1
    assert np.abs(out).max() < 1e-13
    vec2 = np.zeros(lay.total)
    vec2[lay.sl_theta] = 4.0
    assert np.abs(project_mean_zero(op, vec2)).max() < 1e-13


def test_projection_idempotent_and_in_subspace():
    op = coupled(6)
    rng = np.random.default_rng(9)
    x = random_vec(op.layout, rng)
    px = project_mean_zero(op, x)
    cons = constraint_functionals(op.layout, op.params)
    assert np.abs(cons @ px).max() < 1e-12 * max(np.linalg.norm(px), 1.0)
    assert np.allclose(project_mean_zero(op, px), px, atol=1e-12)


def test_mean_zero_spectrum_strictly_negative():
    op = coupled(8)
    vals = spectrum(restrict_Xm(op))
    assert vals.real.max() < -0.2
    assert vals.size == op.shape[0] - 2


def test_full_spectrum_has_double_kernel():
    op = coupled(8)
    vals = spectrum(op)
    near_zero = np.abs(vals) < 1e-6
    assert near_zero.sum() == 2
    assert vals.real[~near_zero].max() < -0.2


def test_mean_zero_spectrum_is_the_restricted_spectrum():
    # oracle: A restricted to its invariant subspace {C x = 0}, written in an
    # orthonormal basis Q of that subspace, is Q^T A Q
    op = coupled(6)
    cons = constraint_functionals(op.layout, op.params)
    basis = la.null_space(cons)
    dense = op.matrix.toarray()
    assert np.abs(dense @ basis - basis @ (basis.T @ dense @ basis)).max() < 1e-9
    ref = np.sort_complex(la.eigvals(basis.T @ dense @ basis))
    vals = spectrum(restrict_Xm(op))
    assert vals.size == op.shape[0] - 2
    assert np.abs(np.sort_complex(vals) - ref).max() < 1e-8 * np.abs(ref).max()


def test_spectrum_orders_tied_real_parts_by_imaginary_part():
    # real parts tie exactly within a conjugate pair and across blocks; the
    # order must not depend on how the eigensolver lists them
    blocks = [np.array([[-1.0, 2.0], [-2.0, -1.0]]), np.array([[-2.0, 1.0], [-1.0, -2.0]]),
              np.array([[-1.0]]), np.array([[-1.0, 3.0], [-3.0, -1.0]])]
    dense = la.block_diag(*blocks)
    want = np.array([-1 + 3j, -1 + 2j, -1 + 0j, -1 - 2j, -1 - 3j, -2 + 1j, -2 - 1j])
    n = dense.shape[0]
    for perm in (np.arange(n), np.arange(n)[::-1], np.random.default_rng(2).permutation(n)):
        op = OperatorMatrix(sp.csr_matrix(dense[np.ix_(perm, perm)]), "full", np.ones(n), "tied")
        vals = spectrum(op)
        assert np.array_equal(vals.real, want.real)
        assert np.allclose(vals.imag, want.imag, rtol=0, atol=1e-12)
        assert np.all(np.diff(vals.imag[vals.real == -1.0]) < 0)


def test_decay_margin_stable_under_refinement():
    betas = []
    for n in (8, 12):
        vals = spectrum(restrict_Xm(coupled(n)))
        betas.append(-vals.real.max())
    assert abs(betas[0] - betas[1]) / betas[0] < 0.4


def test_eigenpair_residuals():
    op = coupled(6)
    vals, vecs = spectrum(op, with_vectors=True)
    A = op.matrix.toarray()
    for k in range(0, vals.size, 25):
        x = vecs[:, k]
        resid = np.linalg.norm(A @ x - vals[k] * x) / np.linalg.norm(x)
        assert resid < 1e-8 * (1.0 + abs(vals[k]))


def _on(op, restrict):
    return restrict_Xm(op) if restrict == "mean_zero" else op


def _dense_spectrum(matrix, restrict):
    vals = la.eigvals(matrix.toarray())
    if restrict == "mean_zero":
        vals = vals[np.argsort(np.abs(vals))[2:]]
    return vals[np.lexsort((-vals.imag, -vals.real))]


def _bumped(op):
    # one density diagonal entry moved: A no longer commutes with the mirror
    bump = sp.csr_matrix(([1e-6 * abs(op.matrix).max()], ([0], [0])), shape=op.shape)
    return dataclasses.replace(op, matrix=(op.matrix + bump).tocsr())


MIRROR_GRIDS = [(1.0, 7, 7), (1.0, 8, 8), (0.5, 12, 17)]


@pytest.mark.parametrize("H, nx, ny", MIRROR_GRIDS)
def test_reflection_is_an_involution_on_the_layout(H, nx, ny):
    layout = block_layout(build_grid(1.0, H, nx, ny))
    perm, sign = _reflection(layout)
    k = np.arange(layout.total)
    assert np.array_equal(perm[perm], k)
    assert np.array_equal(sign[perm], sign)
    for sl in (layout.sl_rho, layout.sl_vx, layout.sl_vy, layout.sl_theta,
               layout.sl_eta1, layout.sl_eta2):
        assert np.array_equal(np.sort(perm[sl]), k[sl])
    # the packed mirror image of random fields is the mirrored packed vector
    rng = np.random.default_rng(3)
    shape = layout.grid.shape
    rho, theta = rng.standard_normal((2,) + shape)
    v = rng.standard_normal(shape + (2,))
    eta1, eta2 = rng.standard_normal((2, nx + 1))
    x = pack_fields(layout, rho, v, theta, eta1, eta2)
    mirrored = pack_fields(layout, rho[::-1], v[::-1] * np.array([-1.0, 1.0]),
                           theta[::-1], eta1[::-1], eta2[::-1])
    assert np.array_equal(sign * x[perm], mirrored)


@pytest.mark.parametrize("restrict", ["full", "mean_zero"])
@pytest.mark.parametrize("H, nx, ny", MIRROR_GRIDS)
def test_split_spectrum_equals_dense_eigenvalues(H, nx, ny, restrict):
    op = assemble_coupled(build_grid(1.0, H, nx, ny), default_params())
    bases = MirrorBlocks(op).bases
    assert len(bases) == 2
    assert sum(rows.size for rows, _ in bases) == op.shape[0]
    ref = _dense_spectrum(op.matrix, restrict)
    vals = spectrum(_on(op, restrict))
    assert vals.size == ref.size
    assert np.abs(vals - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("H, nx, ny", [(1.0, 8, 8), (0.5, 12, 17)])
def test_mean_zero_spectrum_meets_the_artifact_contract(H, nx, ny):
    # what the benchmark checks on eigenvalues.csv: dim - 2 values, closed
    # under conjugation, summing to the trace, in the open left half-plane
    op = assemble_coupled(build_grid(1.0, H, nx, ny), default_params())
    vals = spectrum(restrict_Xm(op))
    dim = 2 * (nx + 1) * (ny + 1) + 2 * (nx - 1) * (ny - 1) + 2 * (nx - 1)
    assert op.shape[0] == dim and vals.size == dim - 2
    scale = np.abs(vals).max()
    assert np.abs(np.sort_complex(vals) - np.sort_complex(vals.conj())).max() <= 1e-9 * scale
    trace = op.matrix.diagonal().sum()
    assert abs(vals.sum() - trace) <= 1e-10 * abs(trace)
    assert vals.real.max() < 0.0


def _strong_components(block):
    count, labels = csgraph.connected_components(block, directed=True, connection="strong")
    return [np.flatnonzero(labels == c) for c in range(count)]


def _eigvals_sizes(monkeypatch):
    """Record the dimension of every dense eigenvalue solve."""
    sizes, eigvals = [], la.eigvals
    monkeypatch.setattr(la, "eigvals", lambda a, *args, **kw: sizes.append(a.shape[0]) or eigvals(a, *args, **kw))
    return sizes


@pytest.mark.parametrize("H, nx, ny", MIRROR_GRIDS)
def test_mirror_blocks_split_into_temperature_and_the_rest(H, nx, ny, monkeypatch):
    # heat drives momentum and the beam, but nothing feeds back into it
    op = assemble_coupled(build_grid(1.0, H, nx, ny), default_params())
    theta = op.layout.sl_theta
    want = []
    for rows, basis in MirrorBlocks(op).bases:
        parts = _strong_components(op.matrix[rows] @ basis)
        temperature = np.flatnonzero((rows >= theta.start) & (rows < theta.stop))
        assert len(parts) == 2
        assert any(np.array_equal(part, temperature) for part in parts)
        want += sorted(part.size for part in parts)
    sizes = _eigvals_sizes(monkeypatch)
    spectrum(op)
    assert sorted(sizes) == sorted(want)


def test_feedback_into_the_temperature_leaves_one_component(monkeypatch):
    # one TH <- V entry closes the cycle: the operator is irreducible, and
    # (no longer mirror-symmetric) it is solved as one dense block
    op = coupled(8)
    row, col = op.layout.sl_theta.start + 10, op.layout.sl_vy.start + 3
    feed = sp.csr_matrix(([1e-3 * abs(op.matrix).max()], ([row], [col])), shape=op.shape)
    fed = dataclasses.replace(op, matrix=(op.matrix + feed).tocsr())
    assert len(_strong_components(fed.matrix)) == 1
    sizes = _eigvals_sizes(monkeypatch)
    for restrict in ("full", "mean_zero"):
        ref = _dense_spectrum(fed.matrix, restrict)
        vals = spectrum(_on(fed, restrict))
        assert vals.size == ref.size
        assert np.abs(vals - ref).max() <= 1e-10 * np.abs(ref).max()
    assert sizes.count(op.shape[0]) == 4 and len(sizes) == 4  # two spectra, two oracles


def test_stored_zeros_do_not_merge_components(monkeypatch):
    op = coupled(8)
    rows, cols = np.meshgrid(np.arange(op.layout.sl_theta.start, op.layout.sl_theta.stop),
                             np.arange(op.layout.sl_vx.start, op.layout.sl_vy.stop), indexing="ij")
    coo = op.matrix.tocoo()
    stored = sp.csr_matrix((np.concatenate([coo.data, np.zeros(rows.size)]),
                            (np.concatenate([coo.row, rows.ravel()]), np.concatenate([coo.col, cols.ravel()]))),
                           shape=op.shape)
    assert stored.nnz == op.matrix.nnz + rows.size
    assert len(_strong_components(stored)) == 1  # the raw pattern sees the zeros as edges
    sizes = _eigvals_sizes(monkeypatch)
    vals = spectrum(dataclasses.replace(op, matrix=stored))
    assert len(sizes) == 4
    assert np.array_equal(vals, spectrum(op))


def test_kernel_eigenvalues_lie_in_the_even_block():
    op = coupled(8)
    perm, sign = _reflection(op.layout)
    kern = kernel_vectors(op.layout, op.params)
    assert np.abs(sign[:, None] * kern[perm] - kern).max() < 1e-12 * np.abs(kern).max()
    small = [
        np.sum(np.abs(la.eigvals((op.matrix[rows] @ basis).toarray())) < 1e-8)
        for rows, basis in MirrorBlocks(op).bases
    ]
    assert small == [2, 0]


def test_broken_mirror_symmetry_falls_back_to_one_block():
    op = _bumped(coupled(8))
    assert len(MirrorBlocks(op).bases) == 1
    for restrict in ("full", "mean_zero"):
        ref = _dense_spectrum(op.matrix, restrict)
        vals = spectrum(_on(op, restrict))
        assert vals.size == ref.size
        assert np.abs(vals - ref).max() <= 1e-10 * np.abs(ref).max()
    grid = unit_grid(8)
    assert len(MirrorBlocks(assemble_block(grid, default_params(), "plate")).bases) == 1


@pytest.mark.parametrize("case", ["nx7", "nx8", "bumped"])
@pytest.mark.parametrize("restrict", ["full", "mean_zero"])
def test_lifted_eigenvectors_are_unit_eigenpairs(case, restrict):
    op = coupled(7) if case == "nx7" else coupled(8)
    if case == "bumped":
        op = _bumped(op)
    vals, vecs = spectrum(_on(op, restrict), with_vectors=True)
    assert vecs.shape == (op.shape[0], vals.size)
    assert np.allclose(np.linalg.norm(vecs, axis=0), 1.0, rtol=0, atol=1e-12)
    resid = np.linalg.norm(op.matrix @ vecs - vecs * vals, axis=0)
    assert np.all(resid < 1e-8 * (1.0 + np.abs(vals)))


def test_dense_eig_dimension_guard():
    op = coupled(6)
    big = OperatorMatrix(
        matrix=sp.identity(9000, format="csr"),
        domain="full",
        weights=np.ones(9000),
        label="too-big",
    )
    with pytest.raises(ConfigError):
        spectrum(big)
    del op


def test_restrict_preserves_mean_zero_action():
    op = coupled(6)
    defl = restrict_Xm(op)
    rng = np.random.default_rng(2)
    x = project_mean_zero(op, random_vec(op.layout, rng))
    assert np.allclose(defl.matrix @ x, op.matrix @ x, atol=1e-7)
    assert defl.domain == "mean_zero"
    assert defl.matrix is op.matrix  # no fill: consumers project instead
    assert restrict_Xm(defl) is defl


def test_gram_projector_is_orthogonal_onto_mean_zero():
    # the scan projects in mirror block coordinates; lifted back, that is
    # the projector of the full coordinates
    op = restrict_Xm(coupled(6))
    gram = _weight_gram(op)
    split, *_, project_blocks = _gram_maps(op)
    project = lambda z: MirrorBlocks(op).lift(project_blocks(split(z)))
    cons = constraint_functionals(op.layout, op.params)
    rng = np.random.default_rng(13)
    x = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
    y = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
    px, py = project(x), project(y)
    scale = np.linalg.norm(x)
    assert np.abs(cons @ px).max() < 1e-12 * scale
    assert np.linalg.norm(project(px) - px) < 1e-12 * scale
    # self-adjoint in the Gram inner product: <P x, y>_G = <x, P y>_G
    assert abs(np.vdot(y, gram @ px) - np.vdot(py, gram @ x)) < 1e-12 * abs(np.vdot(y, gram @ x)) + 1e-12
    assert _gram_maps(coupled(6))[4](x) is x


# ---------------- energy dissipation


def test_energy_rate_negative_for_temperature_free_states():
    op = coupled(8)
    lay = op.layout
    rng = np.random.default_rng(17)
    for _ in range(25):
        x = random_vec(lay, rng)
        x[lay.sl_theta] = 0.0
        x = project_mean_zero(op, x)
        x[lay.sl_theta] = 0.0
        assert energy_rate(op, x) < 0.0


def test_energy_rate_zero_state():
    op = coupled(6)
    assert energy_rate(op, np.zeros(op.layout.total)) == 0.0


# ---------------- resolvent


def test_resolvent_zero_rhs_gives_zero():
    op = coupled(6)
    x = resolvent_solve(op, 1.0, np.zeros(op.layout.total))
    assert np.abs(x).max() == 0.0


def test_resolvent_first_identity():
    op = coupled(6)
    rng = np.random.default_rng(4)
    rhs = random_vec(op.layout, rng)
    x1 = resolvent_solve(op, 1.0, rhs)
    x2 = resolvent_solve(op, 2.0, rhs)
    prod = resolvent_solve(op, 1.0, resolvent_solve(op, 2.0, rhs))
    lhs = x1 - x2
    assert np.linalg.norm(lhs - prod) / np.linalg.norm(lhs) < 1e-8


def test_resolvent_complex_point():
    op = coupled(6)
    rng = np.random.default_rng(6)
    rhs = random_vec(op.layout, rng)
    lam = 1.0 + 2.0j
    x = resolvent_solve(op, lam, rhs)
    resid = lam * x - op.matrix @ x - rhs
    assert np.linalg.norm(resid) / np.linalg.norm(rhs) < 1e-10


def test_zero_point_needs_mean_zero_data():
    op = coupled(6)
    rng = np.random.default_rng(7)
    rhs = project_mean_zero(op, random_vec(op.layout, rng))
    rhs[op.layout.sl_rho] += 1.0
    with pytest.raises(NumericsError):
        resolvent_solve(op, 0.0, rhs)


def test_zero_point_solution_properties():
    op = coupled(6)
    rng = np.random.default_rng(8)
    rhs = project_mean_zero(op, random_vec(op.layout, rng))
    x = resolvent_solve(op, 0.0, rhs)
    cons = constraint_functionals(op.layout, op.params)
    assert np.abs(cons @ x).max() < 1e-9 * np.linalg.norm(x)
    resid = -(op.matrix @ x) - rhs
    assert np.linalg.norm(resid) / np.linalg.norm(rhs) < 1e-8


@pytest.mark.parametrize(
    "H, nx, ny, params",
    [
        pytest.param(1.0, 6, 6, default_params(), id="default"),
        pytest.param(1.0, 6, 6, default_params(mu=0.3, alpha=0.7, rho_bar=2.0, pi0=-2.0), id="off-default"),
        pytest.param(0.5, 12, 17, default_params(), id="H0.5-12x17"),
    ],
)
def test_zero_point_matches_deflated_direct_solve(H, nx, ny, params):
    # dense reference: the bordered system [[-A, K], [C, 0]] [x; s] = [rhs; 0]
    # pins C x = 0 through the kernel K
    op = assemble_coupled(build_grid(1.0, H, nx, ny), params)
    rng = np.random.default_rng(10)
    rhs = project_mean_zero(op, random_vec(op.layout, rng))
    kern = kernel_vectors(op.layout, op.params)
    cons = constraint_functionals(op.layout, op.params)
    bordered = np.block([[-op.matrix.toarray(), kern], [cons, np.zeros((2, 2))]])
    x_direct = np.linalg.solve(bordered, np.concatenate([rhs, [0.0, 0.0]]))[:-2]
    for target in (op, restrict_Xm(op)):
        x = resolvent_solve(target, 0.0, rhs)
        assert np.linalg.norm(x - x_direct) / np.linalg.norm(x_direct) < 1e-8


def test_spectral_point_inside_spectrum_rejected():
    grid = unit_grid(6)
    heat = assemble_block(grid, default_params(), "heat")
    with pytest.raises(NumericsError):
        resolvent_solve(heat, 0.0, np.ones(heat.shape[0]))


def test_rhs_length_checked():
    op = coupled(6)
    with pytest.raises(ConfigError):
        resolvent_solve(op, 1.0, np.zeros(3))


# ---------------- sector scan


def test_plate_sector_bound_finite():
    blk = assemble_block(unit_grid(8), default_params(), "plate")
    scan = sector_scan(blk, BETA, [1e-2, 1.0, 1e2])
    assert scan.passed
    assert 1.0 <= scan.m_hat < 20.0


@pytest.mark.parametrize("which", ["plate", "velocity", "heat"])
def test_block_high_radius_value_near_one(which):
    blk = assemble_block(unit_grid(8), default_params(), which)
    scan = sector_scan(blk, BETA, [1e4])
    mask = np.abs(scan.lambdas - 1e4) < 1e-3
    assert np.abs(scan.values[mask] - 1.0).max() < 0.1


def test_coupled_high_radius_value_near_one():
    defl = restrict_Xm(coupled(8))
    scan = sector_scan(defl, BETA, [1e4])
    mask = np.abs(scan.lambdas - 1e4) < 1e-3
    assert np.abs(scan.values[mask] - 1.0).max() < 0.1


def test_sector_rim_is_a_power_of_ten_past_the_spectrum():
    for n, want in ((8, 1e4), (16, 1e5)):
        op = coupled(n)
        rim = sector_rim(op)
        assert rim == want
        assert sector_rim(restrict_Xm(op)) == rim
    op = coupled(8)
    top = np.abs(la.eigvals(op.matrix.toarray())).max()
    assert 10.0 * top <= sector_rim(op) < 100.0 * top


def _dense_reference(op, gamma=0.0, iters=30):
    """The scan's seeded power iteration from dense algebra, as a function
    of (lam, start vector): the dense (lam + gamma) I - A in full
    coordinates, and on a mean-zero operator a dense Gram-orthogonal
    projector onto {C x = 0}."""
    size = op.shape[0]
    gram = _weight_gram(op).toarray().astype(complex)
    proj = np.eye(size)
    if op.domain == "mean_zero":
        cons = constraint_functionals(op.layout, op.params)
        ginv_ct = np.linalg.solve(gram, cons.T)
        proj = proj - ginv_ct @ np.linalg.solve(cons @ ginv_ct, cons)
    # P G^{-1}, the adjoint half-step of the power iteration
    proj_ginv = proj @ np.linalg.inv(gram)
    dense = op.matrix.toarray()

    def norm(lam, start):
        factor = la.lu_factor((lam + gamma) * np.eye(size) - dense)
        x = proj @ start
        x /= np.sqrt(np.real(np.vdot(x, gram @ x)))
        for _ in range(iters):
            y = la.lu_solve(factor, x)
            value = np.sqrt(abs(np.real(np.vdot(y, gram @ y))))
            z = proj_ginv @ la.lu_solve(factor, gram @ y, trans=2)
            x = z / np.sqrt(abs(np.real(np.vdot(z, gram @ z))))
        return abs(lam) * value

    return norm


def _dense_projected_norms(op, lambdas, gamma=0.0, seed=0, iters=30):
    """Sector norms from `_dense_reference`, with the scan's start vectors."""
    norm = _dense_reference(op, gamma, iters)
    rng = np.random.default_rng(seed)
    size = op.shape[0]
    return np.array([norm(lam, rng.standard_normal(size) + 1j * rng.standard_normal(size)) for lam in lambdas])


@pytest.mark.parametrize("n", [8, 12])
def test_sector_woodbury_matches_filled_factor(n, monkeypatch):
    # the projected scan against a dense reference of the same restriction
    defl = restrict_Xm(coupled(n))
    factored = []

    def recording(mat, what):
        factored.append(mat.nnz)
        return _splu(mat, what)

    monkeypatch.setattr(fs_operator, "_splu", recording)
    scan = sector_scan(defl, 2.356, [1e-2, 1.0, 1e2, 1e4], seed=0)
    monkeypatch.undo()
    # three rays of the closed upper half at four radii
    assert scan.singular == () and scan.values.size == 12
    assert np.all(scan.lambdas.imag >= 0)
    # one Gram factor, then one factor of the sparse lam I - A per sample
    assert len(factored) == 13
    assert max(factored) <= defl.matrix.nnz + defl.shape[0]
    # each sample reports its last power step's relative change and its fill
    assert np.all((scan.changes >= 0) & (scan.changes < 1e-2))
    assert scan.fills.shape == (12,) and np.all(scan.fills >= defl.shape[0])
    ref = _dense_projected_norms(defl, scan.lambdas)
    assert np.all(np.abs(scan.values - ref) <= 1e-10 * ref)


@pytest.mark.parametrize("lam", [1e-2 * np.exp(1.178j), 1e2 * np.exp(2.306j)], ids=["inner", "outer"])
def test_conjugate_sample_is_the_conjugate_computation(lam):
    # A, G and P are real: at conj(lam) with the conjugated start vector
    # every iterate is conjugated, so the scan needs the upper half only
    defl = restrict_Xm(coupled(8))
    norm = _dense_reference(defl)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(defl.shape[0]) + 1j * rng.standard_normal(defl.shape[0])
    value = norm(lam, x)
    assert abs(norm(np.conj(lam), np.conj(x)) - value) <= 1e-12 * value


@pytest.mark.parametrize("which", ["plate", "toy", "coupled-one-block"])
def test_non_mirror_operators_keep_their_values(which, monkeypatch):
    # operators without a certified mirror run as one block through the
    # same code, and match the full-coordinate reference
    if which == "plate":
        op = assemble_block(unit_grid(8), default_params(), "plate")
    elif which == "toy":
        op = OperatorMatrix(
            matrix=sp.csr_matrix(np.array([[-1.0, 3.0], [0.0, -2.0]])),
            domain="full",
            weights=np.array([1.0, 0.5]),
            label="toy",
        )
    else:
        op = restrict_Xm(coupled(8))
        monkeypatch.setattr(fs_operator, "MirrorBlocks", lambda o: MirrorBlocks(dataclasses.replace(o, layout=None)))
    assert len(fs_operator.MirrorBlocks(op).bases) == 1
    scan = sector_scan(op, 2.356, [1e-2, 1.0, 1e2], seed=4)
    ref = _dense_projected_norms(op, scan.lambdas, seed=4)
    assert scan.values.size == 9
    assert np.all(np.abs(scan.values - ref) <= 1e-10 * ref)


def test_singular_sample_counts_its_conjugate():
    # a rotation whose eigenvalues exp(+-i beta/2) sit on the middle rays
    c, s = np.cos(BETA / 2.0), np.sin(BETA / 2.0)
    toy = OperatorMatrix(
        matrix=sp.csr_matrix(np.array([[c, -s], [s, c]])),
        domain="full",
        weights=np.ones(2),
        label="toy",
    )
    scan = sector_scan(toy, BETA, [1.0])
    lam = np.exp(1j * BETA / 2.0)
    assert scan.values.size == 2
    assert np.allclose(sorted(scan.singular, key=np.imag), [np.conj(lam), lam], rtol=0, atol=1e-15)


def test_sector_residual_guard_names_the_sample(monkeypatch):
    defl = restrict_Xm(coupled(6))
    monkeypatch.setattr(fs_operator, "RESOLVENT_RTOL", 0.0)
    lam = 1.0 * np.exp(0.5j)
    with pytest.raises(NumericsError, match=re.escape(f"sector sample at {lam}")):
        fs_operator._scaled_resolvent_norm(defl, lam, _gram_maps(defl), np.random.default_rng(0), 0.0)
    # the scan collects the failure as a singular sample, with its conjugate
    scan = sector_scan(defl, BETA, [1.0])
    assert scan.values.size == 0 and len(scan.singular) == 5 and not scan.passed


def test_sector_factor_fill_stays_flat_near_zero():
    # nx48 is the coarsest grid where a pivot threshold of 0.1 pivots off
    # the density diagonal near lam = 0: it doubles the fill there (2.45 M
    # against 1.22 M at lam = 1), and the ordering is lost
    defl = restrict_Xm(coupled(48))
    scan = sector_scan(defl, BETA, [1e-2, 1.0])
    inner = np.abs(scan.lambdas) < 0.1
    assert scan.fills[inner].max() <= 1.1 * scan.fills[~inner].min()


def test_sector_woodbury_carries_gamma_shift():
    defl = restrict_Xm(coupled(8))
    scan = sector_scan(defl, 2.356, [1.0, 1e2], gamma=0.5, seed=3)
    ref = _dense_projected_norms(defl, scan.lambdas, gamma=0.5, seed=3)
    assert np.all(np.abs(scan.values - ref) <= 1e-10 * ref)


def test_sector_bound_stable_under_refinement():
    vals = []
    for n in (8, 12):
        defl = restrict_Xm(coupled(n))
        vals.append(sector_scan(defl, BETA, [1e-2, 1.0, 1e2]).m_hat)
    assert abs(vals[0] - vals[1]) / vals[0] < 0.25


def test_sector_scan_input_validation():
    defl = restrict_Xm(coupled(6))
    with pytest.raises(ConfigError):
        sector_scan(defl, 0.0, [1.0])
    with pytest.raises(ConfigError):
        sector_scan(defl, BETA, [])
    with pytest.raises(ConfigError):
        sector_scan(defl, BETA, [1.0], gamma=-1.0)


def test_gamma_search_stable_operator_needs_no_shift():
    defl = restrict_Xm(coupled(6))
    gamma, result = gamma_search(defl, BETA, [1e-2, 1.0, 1e2])
    assert gamma == 0.0
    assert result.passed


def test_narrow_sector_samples_each_ray_once():
    # beta <= 2 ANGLE_MARGIN: the outer ray falls back to beta/2, kept once
    toy = OperatorMatrix(
        matrix=sp.csr_matrix(sp.diags([-1.0, -2.0])),
        domain="full",
        weights=np.ones(2),
        label="toy",
    )
    scan = sector_scan(toy, 0.08, [1.0, 10.0])
    assert scan.passed
    want = np.array([1.0, np.exp(0.04j), 10.0, 10.0 * np.exp(0.04j)])
    assert np.array_equal(scan.lambdas, want)
    assert scan.values.size == scan.changes.size == scan.fills.size == 4


def test_gamma_search_moves_off_singular_sample():
    toy = OperatorMatrix(
        matrix=sp.csr_matrix(sp.diags([1.0, -1.0])),
        domain="full",
        weights=np.ones(2),
        label="toy",
    )
    scan0 = sector_scan(toy, BETA, [1.0, 10.0])
    assert len(scan0.singular) > 0  # the sample at 1 sits on the spectrum
    gamma, result = gamma_search(toy, BETA, [1.0, 10.0])
    assert gamma > 0.0
    assert result.passed


# ---------------- perturbation smallness


def test_zero_bounded_part_fits_zero():
    a0 = coupled(6, "principal")
    zero = OperatorMatrix(
        matrix=sp.csr_matrix(a0.shape),
        domain="full",
        weights=a0.weights,
        label="zero",
        layout=a0.layout,
        grid=a0.grid,
        params=a0.params,
    )
    rep = perturbation_check(a0, zero, BETA, gamma=1.0)
    assert rep.a == 0.0 and rep.b == 0.0


def test_scaled_principal_fit_recovers_ratio():
    a0 = coupled(6, "principal")
    eps = 1e-3
    scaled = OperatorMatrix(
        matrix=(eps * a0.matrix).tocsr(),
        domain="full",
        weights=a0.weights,
        label="scaled",
        layout=a0.layout,
        grid=a0.grid,
        params=a0.params,
    )
    rep = perturbation_check(a0, scaled, BETA, gamma=1.0)
    assert abs(rep.a - eps) < 1e-6
    assert rep.b < 1e-9


def test_real_split_is_certified_small():
    a0 = coupled(8, "principal")
    bd = coupled(8, "bounded")
    rep = perturbation_check(a0, bd, BETA, gamma=1.0)
    assert rep.condition_ok
    assert rep.a * rep.m_hat < 1.0


# ---------------- sub-blocks


def test_plate_block_matches_plate_operator():
    grid = unit_grid(8)
    blk = assemble_block(grid, default_params(), "plate")
    diff = blk.matrix.toarray() - plate_operator(grid)
    assert np.abs(diff).max() == 0.0


def test_block_spectra_sit_in_left_half_plane():
    grid = unit_grid(8)
    params = default_params()
    assert spectrum(assemble_block(grid, params, "plate")).real.max() < 0
    assert spectrum(assemble_block(grid, params, "velocity")).real.max() < 0
    heat_vals = spectrum(assemble_block(grid, params, "heat")).real
    assert abs(heat_vals.max()) < 1e-10  # insulated constant mode
    assert np.sort(heat_vals)[-2] < -1.0


def test_unknown_block_rejected():
    with pytest.raises(ConfigError):
        assemble_block(unit_grid(6), default_params(), "magnetic")


# ---------------- operator consistency on manufactured fields


def _manufactured(grid):
    x, y = grid.xx, grid.yy
    pi = np.pi
    rho = np.cos(pi * x) * np.cos(pi * y)
    theta = np.cos(2 * pi * x) * np.cos(pi * y)
    vx = np.sin(pi * x) * np.sin(pi * y) ** 2
    vy = 16 * x ** 2 * (1 - x) ** 2 * (1.0 + y) * np.exp(y)
    v = np.stack([vx, vy], axis=-1)
    xb = grid.x
    eta1 = xb ** 4 * (1 - xb) ** 4
    eta2 = 16 * xb ** 2 * (1 - xb) ** 2
    return rho, v, theta, eta1, eta2


def _manufactured_rates(grid, params):
    x, y = grid.xx, grid.yy
    pi = np.pi
    drho_x = -pi * np.sin(pi * x) * np.cos(pi * y)
    drho_y = -pi * np.cos(pi * x) * np.sin(pi * y)
    theta = np.cos(2 * pi * x) * np.cos(pi * y)
    dth_x = -2 * pi * np.sin(2 * pi * x) * np.cos(pi * y)
    dth_y = -pi * np.cos(2 * pi * x) * np.sin(pi * y)
    lap_th = -5 * pi * pi * theta
    vx = np.sin(pi * x) * np.sin(pi * y) ** 2
    vx_x = pi * np.cos(pi * x) * np.sin(pi * y) ** 2
    vx_xx = -pi * pi * vx
    vx_yy = np.sin(pi * x) * 2 * pi * pi * (np.cos(pi * y) ** 2 - np.sin(pi * y) ** 2)
    vx_xy = 2 * pi * pi * np.cos(pi * x) * np.sin(pi * y) * np.cos(pi * y)
    e2f = 16 * x ** 2 * (1 - x) ** 2
    e2f_x = 16 * (2 * x - 6 * x ** 2 + 4 * x ** 3)
    e2f_xx = 16 * (2 - 12 * x + 12 * x ** 2)
    gy = (1.0 + y) * np.exp(y)
    gy_y = (2.0 + y) * np.exp(y)
    gy_yy = (3.0 + y) * np.exp(y)
    vy_xx = e2f_xx * gy
    vy_y = e2f * gy_y
    vy_yy = e2f * gy_yy
    vy_xy = e2f_x * gy_y
    p = params
    cl = p.mu / p.rho_bar
    cd = (p.alpha + p.mu) / p.rho_bar
    f_rho = -p.rho_bar * (vx_x + vy_y)
    f_vx = cl * (vx_xx + vx_yy) + cd * (vx_xx + vy_xy) \
        - (p.R0 * p.theta_bar / p.rho_bar) * drho_x - p.R0 * dth_x
    f_vy = cl * (vy_xx + vy_yy) + cd * (vx_xy + vy_yy) \
        - (p.R0 * p.theta_bar / p.rho_bar) * drho_y - p.R0 * dth_y
    f_th = p.kappa_bar * lap_th
    xb = grid.x
    bend4 = 24 - 480 * xb + 2160 * xb ** 2 - 3360 * xb ** 3 + 1680 * xb ** 4
    e2_xx = 16 * (2 - 12 * xb + 12 * xb ** 2)
    stress = (2 * p.mu + p.alpha) * 16 * xb ** 2 * (1 - xb) ** 2 * 2.0 \
        - p.R0 * p.theta_bar * np.cos(pi * xb) - p.R0 * p.rho_bar * np.cos(2 * pi * xb)
    f_e1 = 16 * xb ** 2 * (1 - xb) ** 2
    f_e2 = -bend4 + e2_xx - stress
    return f_rho, np.stack([f_vx, f_vy], axis=-1), f_th, f_e1, f_e2


def _row_errors(n, params):
    grid = build_grid(1.0, 1.0, n, n)
    op = assemble_coupled(grid, params)
    lay = op.layout
    out = op.matrix @ pack_fields(lay, *_manufactured(grid))
    f_rho, f_v, f_th, f_e1, f_e2 = _manufactured_rates(grid, params)
    vxg = np.zeros(grid.shape)
    vyg = np.zeros(grid.shape)
    vxg.ravel()[lay.interior_flat] = out[lay.sl_vx]
    vyg.ravel()[lay.interior_flat] = out[lay.sl_vy]
    i = np.s_[1:-1, 1:-1]
    xb = grid.x[1:-1]
    band = (xb >= 0.25) & (xb <= 0.75)
    errs = {
        "rho": np.abs(out[lay.sl_rho].reshape(grid.shape) - f_rho)[i].max(),
        "vx": np.abs(vxg - f_v[..., 0])[i].max(),
        "vy": np.abs(vyg - f_v[..., 1])[i].max(),
        "theta": np.abs(out[lay.sl_theta].reshape(grid.shape) - f_th)[i].max(),
        "eta2": np.abs(out[lay.sl_eta2] - f_e2[1:-1])[band].max(),
    }
    exact_e1 = np.abs(out[lay.sl_eta1] - f_e1[1:-1]).max()
    return errs, exact_e1


@pytest.mark.parametrize(
    "params",
    [
        pytest.param(default_params(), id="default"),
        # unit coefficients would hide a wrong factor on any one of them
        pytest.param(default_params(mu=0.3, alpha=0.7, rho_bar=2.0, pi0=-2.0), id="off-default"),
    ],
)
def test_operator_rows_are_second_order(params):
    coarse, e1_coarse = _row_errors(16, params)
    fine, e1_fine = _row_errors(32, params)
    assert e1_coarse == 0.0 and e1_fine == 0.0  # identity row is exact
    for key in coarse:
        order = np.log2(coarse[key] / fine[key])
        assert 1.6 < order < 2.4, (key, order)

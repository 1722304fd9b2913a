"""Assembled generator of the coupled linearized flow-beam dynamics.

This module turns the linearized field equations around the rest state
(uniform density, zero velocity, uniform temperature, flat beam) into one
sparse matrix acting on a stacked state vector

    x = [density | velocity (interior) | temperature | deflection | beam velocity]

so that the evolution reads dx/dt = A x.  Boundary velocity unknowns are
eliminated: the no-slip wall value is zero and the top-edge vertical trace
equals the beam velocity, so their columns fold into the beam-velocity
block.  That makes the kinematic coupling exact at the algebraic level
instead of being enforced by penalty or constraint rows.

Discretization choices that matter for the spectral checks:

* the density row uses first-derivative matrices whose one-sided end rows
  are first order; together with trapezoid weights they satisfy a
  summation-by-parts identity, so total mass (fluid mass plus the beam
  deflection contribution) is conserved to round-off,
* the temperature row reuses the vertex-centered flux balance of the heat
  stepper, so the discrete temperature mean is conserved to round-off,
* a weak density smoothing of strength hx*hy damps mesh-frequency
  density modes (invisible to centered differences) at an O(1) rate while
  perturbing smooth fields only at the scheme's own O(h^2) level.

The conserved quantities give the matrix an exact two-dimensional kernel;
`kernel_vectors` returns it in closed form.  The constraint functionals C
are left null vectors of A, so every resolvent of A leaves the mean-zero
subspace {C x = 0} invariant, and the dynamics is exponentially stable
there.  A mean-zero operator (`restrict_Xm`) is therefore A itself with a
domain tag, and its consumers project instead of shifting the kernel away:
spectra drop the two kernel eigenvalues, and sector scans measure
lam (lam I - A)^{-1} on the image of the Gram-orthogonal projector onto
{C x = 0}, solving with the sparse LU of lam I - A.

The grid and the rest state are symmetric under the mirror x -> L - x, and
A commutes with it exactly, so `spectrum` solves A's even and odd blocks
of about half the size after certifying that entry for entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .core_grid import BeamField, FluidField, Grid2D, diff_ops
from .errors import ConfigError, NumericsError
from .linear_subsystems import (
    PhysParams,
    _d1_matrix,
    _fv_diffusion,
    _identity_metric,
    _splu,
    _stencil_matrix,
    plate_operator,
)
from .mirror import MirrorBlocks
from .nonlinear_sources import FullState

__all__ = [
    "BlockLayout",
    "OperatorMatrix",
    "SectorScanResult",
    "PerturbationReport",
    "block_layout",
    "assemble_coupled",
    "assemble_block",
    "pack_fields",
    "unpack_fields",
    "state_to_vector",
    "vector_to_state",
    "constraint_functionals",
    "kernel_vectors",
    "kernel_dimension",
    "project_mean_zero",
    "restrict_Xm",
    "spectrum",
    "sector_rim",
    "resolvent_solve",
    "energy_rate",
    "sector_scan",
    "gamma_search",
    "perturbation_check",
]

# Dense eigensolves beyond this stacked dimension are not worth the wait.
MAX_DENSE_DIM = 8200


# ---------------------------------------------------------------- layout


@dataclass(frozen=True, eq=False)
class BlockLayout:
    """Index bookkeeping for the stacked state vector."""

    grid: Grid2D
    sl_rho: slice
    sl_vx: slice
    sl_vy: slice
    sl_theta: slice
    sl_eta1: slice
    sl_eta2: slice
    total: int
    interior_flat: np.ndarray
    top_flat: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.grid.n_nodes

    @property
    def n_interior(self) -> int:
        return self.interior_flat.size

    @property
    def n_beam(self) -> int:
        return self.top_flat.size

    @property
    def sl_v(self) -> slice:
        return slice(self.sl_vx.start, self.sl_vy.stop)


def block_layout(grid: Grid2D) -> BlockLayout:
    """Block offsets for [rho, vx, vy, theta, eta1, eta2] stacking."""
    n = grid.n_nodes
    interior = np.flatnonzero(grid.mask_interior.ravel())
    top = np.flatnonzero(grid.mask_top.ravel())
    ni = interior.size
    m = top.size
    ofs = np.cumsum([0, n, ni, ni, n, m, m])
    return BlockLayout(
        grid=grid,
        sl_rho=slice(ofs[0], ofs[1]),
        sl_vx=slice(ofs[1], ofs[2]),
        sl_vy=slice(ofs[2], ofs[3]),
        sl_theta=slice(ofs[3], ofs[4]),
        sl_eta1=slice(ofs[4], ofs[5]),
        sl_eta2=slice(ofs[5], ofs[6]),
        total=int(ofs[6]),
        interior_flat=interior,
        top_flat=top,
    )


def pack_fields(layout: BlockLayout, rho, v, theta, eta1, eta2) -> np.ndarray:
    """Stack full-grid arrays into a state vector (boundary velocity dropped)."""
    grid = layout.grid
    rho = np.asarray(rho, dtype=float).reshape(grid.shape)
    v = np.asarray(v, dtype=float).reshape(grid.shape + (2,))
    theta = np.asarray(theta, dtype=float).reshape(grid.shape)
    eta1 = np.asarray(eta1, dtype=float).reshape(grid.nx + 1)
    eta2 = np.asarray(eta2, dtype=float).reshape(grid.nx + 1)
    idx = layout.interior_flat
    out = np.empty(layout.total)
    out[layout.sl_rho] = rho.ravel()
    out[layout.sl_vx] = v[..., 0].ravel()[idx]
    out[layout.sl_vy] = v[..., 1].ravel()[idx]
    out[layout.sl_theta] = theta.ravel()
    out[layout.sl_eta1] = eta1[1:-1]
    out[layout.sl_eta2] = eta2[1:-1]
    return out


def unpack_fields(layout: BlockLayout, vec: np.ndarray):
    """Inverse of `pack_fields`; the top-edge vertical velocity is rebuilt
    from the beam-velocity block, walls are set to zero. Rows of a 2-d
    vec unpack to fields with a leading time axis."""
    grid = layout.grid
    vec = np.asarray(vec)
    lead = vec.shape[:-1]
    rho = vec[..., layout.sl_rho].reshape(lead + grid.shape)
    theta = vec[..., layout.sl_theta].reshape(lead + grid.shape)
    v = np.zeros(lead + grid.shape + (2,), dtype=vec.dtype)
    vx = np.zeros(lead + (grid.n_nodes,), dtype=vec.dtype)
    vy = np.zeros(lead + (grid.n_nodes,), dtype=vec.dtype)
    vx[..., layout.interior_flat] = vec[..., layout.sl_vx]
    vy[..., layout.interior_flat] = vec[..., layout.sl_vy]
    vy[..., layout.top_flat] = vec[..., layout.sl_eta2]
    v[..., 0] = vx.reshape(lead + grid.shape)
    v[..., 1] = vy.reshape(lead + grid.shape)
    eta1 = np.zeros(lead + (grid.nx + 1,), dtype=vec.dtype)
    eta2 = np.zeros(lead + (grid.nx + 1,), dtype=vec.dtype)
    eta1[..., 1:-1] = vec[..., layout.sl_eta1]
    eta2[..., 1:-1] = vec[..., layout.sl_eta2]
    return rho, v, theta, eta1, eta2


def state_to_vector(state: FullState, layout: BlockLayout) -> np.ndarray:
    return pack_fields(
        layout,
        state.rho.values,
        state.v.values,
        state.theta.values,
        state.eta1.values,
        state.eta2.values,
    )


def vector_to_state(layout: BlockLayout, vec: np.ndarray, t: float = 0.0) -> FullState:
    grid = layout.grid
    rho, v, theta, eta1, eta2 = unpack_fields(layout, np.real(vec))
    return FullState(
        rho=FluidField(grid, rho),
        v=FluidField(grid, v, kind="vector"),
        theta=FluidField(grid, theta),
        eta1=BeamField(grid, eta1, clamped=True),
        eta2=BeamField(grid, eta2, clamped=True),
        t=t,
    )


# ---------------------------------------------------------------- matrices


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Sparse operator plus the metadata the solvers and scans need.

    `weights` is the diagonal of the quadrature inner product used for all
    reported norms (a trapezoid L2 proxy for the function-space norms; the
    limitation is deliberate and shared by every consumer in this module).
    `domain="mean_zero"` marks `matrix` as acting on the subspace
    {C x = 0} of the constraint functionals C; the matrix itself is not
    changed, and spectra and sector scans project onto that subspace.
    """

    matrix: sp.csr_matrix
    domain: str
    weights: np.ndarray
    label: str
    layout: Optional[BlockLayout] = None
    grid: Optional[Grid2D] = None
    params: Optional[PhysParams] = None

    def __post_init__(self):
        n, m = self.matrix.shape
        if n != m:
            raise ConfigError(f"operator matrix must be square, got {n}x{m}")
        if self.weights.shape != (n,):
            raise ConfigError("weight vector length does not match operator size")
        if not np.all(self.weights > 0):
            raise ConfigError("quadrature weights must be positive")
        if self.domain not in ("full", "mean_zero"):
            raise ConfigError(f"unknown operator domain {self.domain!r}")
        if self.layout is not None and self.layout.total != n:
            raise ConfigError("layout size does not match operator size")

    @property
    def shape(self):
        return self.matrix.shape


def _sbp_first_diff(n: int, h: float) -> sp.csr_matrix:
    """1-D first derivative: centered inside, one-sided first order at the
    ends.  With trapezoid weights W this satisfies W D + D^T W = boundary
    terms only, which is what makes the stacked mass functional exact."""
    inv = 1.0 / (2.0 * h)
    return _stencil_matrix(
        n,
        [(-1, -inv), (1, inv)],
        [(0, 0, -1.0 / h), (0, 1, 1.0 / h), (-1, -2, -1.0 / h), (-1, -1, 1.0 / h)],
    )


def _second_diff_interior(n: int, h: float) -> sp.csr_matrix:
    """1-D second derivative with zero end rows (only interior rows are
    ever selected into the assembled operator)."""
    inv = 1.0 / (h * h)
    return _stencil_matrix(n, [(-1, inv), (0, -2.0 * inv), (1, inv)])


def _grid_operators(grid: Grid2D):
    """Full-grid derivative matrices on raveled scalar fields."""
    nx1, ny1 = grid.shape
    ix = sp.identity(nx1, format="csr")
    iy = sp.identity(ny1, format="csr")
    dx_sbp = sp.kron(_sbp_first_diff(nx1, grid.hx), iy, format="csr")
    dy_sbp = sp.kron(ix, _sbp_first_diff(ny1, grid.hy), format="csr")
    dxx = sp.kron(_second_diff_interior(nx1, grid.hx), iy, format="csr")
    dyy = sp.kron(ix, _second_diff_interior(ny1, grid.hy), format="csr")
    dx_os = sp.kron(_d1_matrix(nx1, grid.hx), iy, format="csr")
    dy_os = sp.kron(ix, _d1_matrix(ny1, grid.hy), format="csr")
    dxy = (dx_os @ dy_os).tocsr()
    return dx_sbp, dy_sbp, dxx, dyy, dxy


def _viscous_stencils(params: PhysParams, dxx, dyy, dxy):
    """Full-grid momentum stencils (m_xx, m_xy, m_yy) of the viscous flow,
    mu/rho_bar Lap + (alpha + mu)/rho_bar grad div."""
    coef_lap = params.mu / params.rho_bar
    coef_div = (params.alpha + params.mu) / params.rho_bar
    lap = dxx + dyy
    return coef_lap * lap + coef_div * dxx, coef_div * dxy, coef_lap * lap + coef_div * dyy


def _selection(layout: BlockLayout):
    grid = layout.grid
    n = grid.n_nodes
    ni = layout.n_interior
    m = layout.n_beam
    sel = sp.csr_matrix(
        (np.ones(ni), (np.arange(ni), layout.interior_flat)), shape=(ni, n)
    )
    top = sp.csr_matrix(
        (np.ones(m), (layout.top_flat, np.arange(m))), shape=(n, m)
    )
    trace = sp.csr_matrix(
        (np.ones(m), (np.arange(m), layout.top_flat)), shape=(m, n)
    )
    return sel, top, trace


def _coupled_weights(layout: BlockLayout) -> np.ndarray:
    grid = layout.grid
    w_nodes = grid.weights.ravel()
    w_int = w_nodes[layout.interior_flat]
    w_beam = grid.beam_weights[1:-1]
    return np.concatenate([w_nodes, w_int, w_int, w_nodes, w_beam, w_beam])


def assemble_coupled(
    grid: Grid2D, params: PhysParams, part: str = "full"
) -> OperatorMatrix:
    """Assemble the generator of the coupled linear dynamics.

    `part` selects "full", the "principal" part (transport, viscosity, heat
    flow, beam stiffness and damping), or the "bounded" remainder (pressure
    gradients and the surface stress sampled onto the beam).  The two parts
    sum to the full matrix entry by entry.
    """
    if part not in ("full", "principal", "bounded"):
        raise ConfigError(f"unknown operator part {part!r}")
    params.require_global()
    layout = block_layout(grid)
    sel, top, trace = _selection(layout)
    dx_sbp, dy_sbp, dxx, dyy, dxy = _grid_operators(grid)
    fv, _ = _fv_diffusion(grid, _identity_metric(grid))
    ops = diff_ops(grid)

    rho_bar = params.rho_bar
    mu = params.mu
    ni = layout.n_interior
    m = layout.n_beam
    n = grid.n_nodes

    want_principal = part in ("full", "principal")
    want_bounded = part in ("full", "bounded")

    blocks = [[None] * 6 for _ in range(6)]
    R, VX, VY, TH, E1, E2 = range(6)

    if want_principal:
        # density: d rho/dt = -rho_bar div v, plus weak smoothing that kills
        # mesh-frequency modes the centered divergence cannot see
        eps = grid.hx * grid.hy
        blocks[R][VX] = -rho_bar * (dx_sbp @ sel.T)
        blocks[R][VY] = -rho_bar * (dy_sbp @ sel.T)
        blocks[R][E2] = -rho_bar * (dy_sbp @ top)
        blocks[R][R] = eps * fv

        mxx, mxy, myy = _viscous_stencils(params, dxx, dyy, dxy)
        blocks[VX][VX] = sel @ mxx @ sel.T
        blocks[VX][VY] = sel @ mxy @ sel.T
        blocks[VX][E2] = sel @ mxy @ top
        blocks[VY][VX] = sel @ mxy @ sel.T
        blocks[VY][VY] = sel @ myy @ sel.T
        blocks[VY][E2] = sel @ myy @ top

        blocks[TH][TH] = params.kappa_bar * fv

        blocks[E1][E2] = sp.identity(m, format="csr")
        bih = sp.csr_matrix(ops.bih_clamped)
        lap_s = sp.csr_matrix(ops.lap_s)
        blocks[E2][E1] = -bih
        blocks[E2][E2] = lap_s

    if want_bounded:
        # pressure gradients in the momentum rows
        c_rho = params.R0 * params.theta_bar / rho_bar
        c_th = params.R0
        add = lambda b, extra: extra if b is None else b + extra
        blocks[VX][R] = add(blocks[VX][R], -c_rho * (sel @ dx_sbp))
        blocks[VY][R] = add(blocks[VY][R], -c_rho * (sel @ dy_sbp))
        blocks[VX][TH] = add(blocks[VX][TH], -c_th * (sel @ dx_sbp))
        blocks[VY][TH] = add(blocks[VY][TH], -c_th * (sel @ dy_sbp))

        # beam forcing: minus the normal stress sampled on the top edge,
        #   -(2 mu + alpha) d_y v_y + R0 theta_bar rho + R0 rho_bar theta
        # (the tangential velocity vanishes along the whole edge, so the
        # horizontal part of the divergence drops out identically)
        visc = 2.0 * mu + params.alpha
        hy = grid.hy
        # interior positions of the two nodes below each top node
        below1 = np.searchsorted(layout.interior_flat, layout.top_flat - 1)
        vals = np.repeat([[-visc * (-2.0 / hy), -visc * (0.5 / hy)]], m, axis=0)
        at = (np.repeat(np.arange(m), 2), np.column_stack([below1, below1 - 1]).ravel())
        stress_vy = sp.csr_matrix((vals.ravel(), at), shape=(m, ni))
        blocks[E2][VY] = add(blocks[E2][VY], stress_vy)
        blocks[E2][E2] = add(
            blocks[E2][E2], sp.identity(m, format="csr") * (-visc * 1.5 / hy)
        )
        blocks[E2][R] = add(blocks[E2][R], params.R0 * params.theta_bar * trace)
        blocks[E2][TH] = add(blocks[E2][TH], params.R0 * rho_bar * trace)

    sizes = [n, ni, ni, n, m, m]
    for r in range(6):
        for c in range(6):
            if blocks[r][c] is None:
                blocks[r][c] = sp.csr_matrix((sizes[r], sizes[c]))
    matrix = sp.bmat(blocks, format="csr")
    return OperatorMatrix(
        matrix=matrix,
        domain="full",
        weights=_coupled_weights(layout),
        label=f"coupled-{part}",
        layout=layout,
        grid=grid,
        params=params,
    )


def assemble_block(grid: Grid2D, params: PhysParams, which: str) -> OperatorMatrix:
    """Standalone generator of one decoupled sub-dynamics.

    "plate": beam deflection/velocity pair (matches `plate_operator`),
    "velocity": viscous flow with homogeneous no-slip walls,
    "heat": insulated heat flow.
    """
    if which == "plate":
        mat = sp.csr_matrix(plate_operator(grid))
        w = grid.beam_weights[1:-1]
        weights = np.concatenate([w, w])
        return OperatorMatrix(
            matrix=mat, domain="full", weights=weights, label="plate", grid=grid,
            params=params,
        )
    if which == "velocity":
        layout = block_layout(grid)
        sel, _, _ = _selection(layout)
        mxx, mxy, myy = _viscous_stencils(params, *_grid_operators(grid)[2:])
        mat = sp.bmat([[sel @ a @ sel.T for a in row] for row in ((mxx, mxy), (mxy, myy))], format="csr")
        w_int = grid.weights.ravel()[layout.interior_flat]
        weights = np.concatenate([w_int, w_int])
        return OperatorMatrix(
            matrix=mat, domain="full", weights=weights, label="velocity",
            grid=grid, params=params,
        )
    if which == "heat":
        fv, _ = _fv_diffusion(grid, _identity_metric(grid))
        mat = (params.kappa_bar * fv).tocsr()
        return OperatorMatrix(
            matrix=mat, domain="full", weights=grid.weights.ravel().copy(),
            label="heat", grid=grid, params=params,
        )
    raise ConfigError(f"unknown operator block {which!r}")


# ------------------------------------------------- conserved functionals


def constraint_functionals(layout: BlockLayout, params: PhysParams) -> np.ndarray:
    """Rows c with c @ A = 0: stacked mass (density plus scaled deflection)
    and temperature mean.  Returned as a (2, total) array."""
    grid = layout.grid
    c1 = np.zeros(layout.total)
    c2 = np.zeros(layout.total)
    c1[layout.sl_rho] = grid.weights.ravel()
    c1[layout.sl_eta1] = params.rho_bar * grid.beam_weights[1:-1]
    c2[layout.sl_theta] = grid.weights.ravel()
    return np.vstack([c1, c2])


def kernel_vectors(layout: BlockLayout, params: PhysParams) -> np.ndarray:
    """Closed-form null vectors of the coupled generator, (total, 2).

    Constant density (resp. temperature) plus the clamped beam shape that
    balances the resulting uniform surface pressure.
    """
    grid = layout.grid
    ops = diff_ops(grid)
    w = la.solve(ops.bih_clamped, np.ones(layout.n_beam))
    k1 = np.zeros(layout.total)
    k2 = np.zeros(layout.total)
    k1[layout.sl_rho] = 1.0
    k1[layout.sl_eta1] = params.R0 * params.theta_bar * w
    k2[layout.sl_theta] = 1.0
    k2[layout.sl_eta1] = params.R0 * params.rho_bar * w
    return np.column_stack([k1, k2])


def project_mean_zero(
    op: OperatorMatrix, vec: np.ndarray, tol: float = 1e-13
) -> np.ndarray:
    """Project a state vector onto the mean-zero subspace by constant
    shifts of temperature and density (the shifts the conserved
    functionals respond to)."""
    if op.layout is None:
        raise ConfigError("projection needs a coupled operator with a layout")
    layout, params = op.layout, op.params
    cons = constraint_functionals(layout, params)
    area = layout.grid.area
    out = np.array(vec, dtype=float, copy=True)
    out[layout.sl_theta] -= (cons[1] @ out) / area
    out[layout.sl_rho] -= (cons[0] @ out) / area
    resid = np.abs(cons @ out)
    scale = max(np.linalg.norm(out), 1.0)
    if np.any(resid > 1e3 * tol * scale):
        raise NumericsError("mean-zero projection failed to close")
    return out


def restrict_Xm(op: OperatorMatrix) -> OperatorMatrix:
    """The coupled operator on the mean-zero subspace {C x = 0}.

    The constraint functionals C are left null vectors of A, so
    C (lam I - A)^{-1} = C / lam and every resolvent leaves the subspace
    invariant: the restriction needs no change to the matrix.  The result
    is A itself tagged `domain="mean_zero"`; `spectrum` drops the two
    kernel eigenvalues and `sector_scan` projects onto the subspace.
    """
    if op.layout is None:
        raise ConfigError("mean-zero restriction needs a coupled operator")
    if op.domain == "mean_zero":
        return op
    return replace(op, domain="mean_zero", label=op.label + "-mean-zero")


def kernel_dimension(op: OperatorMatrix, mean_zero_vals: np.ndarray) -> float:
    """Kernel dimension of a full coupled operator, read off its
    mean-zero spectrum.

    When the constraint functionals C are left null vectors of A (certified
    by max|C A| <= 1e-12 max|A|), the mean-zero spectrum is A's spectrum
    without the two kernel eigenvalues `spectrum` drops, so the kernel has
    dimension 2 plus the mean-zero eigenvalues below 1e-8.  Without the
    certificate the dimension is unknown and NaN is returned; this is the
    check that fails on a broken operator.
    """
    if op.layout is None or op.domain != "full":
        raise ConfigError("kernel dimension needs a full-domain coupled operator")
    cons = constraint_functionals(op.layout, op.params)
    resid = np.abs(op.matrix.T @ cons.T).max()
    if not resid <= 1e-12 * np.abs(op.matrix.data).max():
        return float("nan")
    return 2.0 + float(np.sum(np.abs(mean_zero_vals) < 1e-8))


# ---------------------------------------------------------------- spectra


def spectrum(op: OperatorMatrix, restrict: str = "native", with_vectors: bool = False):
    """Dense eigenvalues sorted by descending real part, ties by descending
    imaginary part (a conjugate pair lists +Im first).

    Each block of `MirrorBlocks` gets its own dense eigensolve: two
    half-size blocks for an operator certified to commute with the mirror
    x -> L - x, else one block holding all of A.  Eigenvectors are lifted
    through the block bases and normalised to unit length.

    On the mean-zero subspace (`restrict="mean_zero"`, or a mean-zero
    operator) the two eigenvalues of smallest modulus, the kernel of the
    conserved quantities (both kernel vectors are even), are dropped.
    Whether they really are the kernel is `kernel_dimension`'s certificate.
    """
    if restrict not in ("native", "full", "mean_zero"):
        raise ConfigError(f"unknown spectrum restriction {restrict!r}")
    if restrict == "mean_zero":
        op = restrict_Xm(op)
    if restrict == "full" and op.domain != "full":
        raise ConfigError("cannot widen a mean-zero operator back to full")
    n = op.shape[0]
    if n > MAX_DENSE_DIM:
        raise ConfigError(
            f"dense eigensolve refused for dimension {n} > {MAX_DENSE_DIM}"
        )
    vals, vecs = [], []
    for rows, basis in MirrorBlocks(op).bases:
        block = (op.matrix[rows] @ basis).toarray()
        if with_vectors:
            w, v = la.eig(block)
            vecs.append(basis @ v)
        else:
            w = la.eigvals(block)
        vals.append(w)
    vals = np.concatenate(vals)
    keep = np.arange(vals.size)
    if op.domain == "mean_zero":
        keep = np.sort(np.argsort(np.abs(vals))[2:])
    order = keep[np.lexsort((-vals[keep].imag, -vals[keep].real))]
    if not with_vectors:
        return vals[order]
    vecs = np.hstack(vecs)[:, order]
    return vals[order], vecs / np.linalg.norm(vecs, axis=0)


def sector_rim(op: OperatorMatrix) -> float:
    """Largest sector-scan radius for `op`: the smallest power of ten at
    least 10 |lambda|max, far enough past the spectrum for the scaled
    resolvent norm to be near 1.

    |lambda|max comes from ARPACK with a fixed start vector, so the rim
    and the scans that use it do not depend on process state.
    """
    n = op.shape[0]
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        top = spla.eigs(op.matrix, k=1, which="LM", v0=v0, return_eigenvectors=False)
    except spla.ArpackError as err:
        raise NumericsError(f"largest eigenvalue of {op.label} not found: {err}") from err
    return 10.0 ** math.ceil(math.log10(10.0 * abs(top[0])))


def energy_rate(op: OperatorMatrix, vec: np.ndarray) -> float:
    """Re <A x, x> in the quadratic form whose decay drives the stability
    argument: weighted L2 on density (R0 theta_bar / rho_bar), velocity
    (rho_bar) and beam velocity, plus the clamped bending form on the
    deflection.  Negative for every temperature-free state."""
    if op.layout is None:
        raise ConfigError("energy rate needs a coupled operator with a layout")
    layout, params = op.layout, op.params
    grid = layout.grid
    ops = diff_ops(grid)
    x = np.asarray(vec)
    ax = op.matrix @ x
    w_nodes = grid.weights.ravel()
    w_int = w_nodes[layout.interior_flat]
    w_beam = grid.beam_weights[1:-1]
    c_rho = params.R0 * params.theta_bar / params.rho_bar

    def pair(a, b, w):
        return float(np.real(np.sum(a * np.conj(b) * w)))

    total = c_rho * pair(ax[layout.sl_rho], x[layout.sl_rho], w_nodes)
    total += params.rho_bar * pair(ax[layout.sl_vx], x[layout.sl_vx], w_int)
    total += params.rho_bar * pair(ax[layout.sl_vy], x[layout.sl_vy], w_int)
    total += pair(ax[layout.sl_eta2], x[layout.sl_eta2], w_beam)
    bih = ops.bih_clamped
    total += pair(bih @ ax[layout.sl_eta1], x[layout.sl_eta1], w_beam)
    return total


# -------------------------------------------------------------- resolvent


def _bordered_solve(mat: sp.spmatrix, border: np.ndarray, rhs: np.ndarray):
    """Solve [[mat, border], [border^T, 0]] [x; s] = [rhs; 0]."""
    n = mat.shape[0]
    col = sp.csr_matrix(border.reshape(n, 1))
    sys = sp.bmat([[mat, col], [col.T, None]], format="csc")
    lu = _splu(sys, "bordered solve")
    sol = lu.solve(np.concatenate([rhs, [0.0]]))
    return sol[:n], sol[n]


def _resolvent_zero_coupled(op: OperatorMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve -A x = rhs at the spectral point 0 on the mean-zero subspace.

    The solve follows the decoupling order of the stationary system: beam
    velocity first, then the insulated temperature problem, then a
    divergence-constrained flow problem for velocity and the fluctuating
    density, and finally the beam deflection through the bending matrix
    plus the rank-one mean-pressure coupling.  Every block is sliced out of
    the assembled matrix, so the result satisfies the discrete equations
    verbatim.
    """
    layout, params, grid = op.layout, op.params, op.grid
    cons = constraint_functionals(layout, params)
    scale = float(np.linalg.norm(rhs))
    viol = np.abs(cons @ rhs)
    limit = 1e-9 * max(scale, 1.0) * np.linalg.norm(cons, axis=1)
    if np.any(viol > limit):
        raise NumericsError(
            "spectral point 0 is singular for this right-hand side: the "
            "conserved-quantity functionals of the source do not vanish "
            f"(residuals {viol.tolist()})"
        )

    B = (-op.matrix).tocsr()
    slr, slvx, slvy = layout.sl_rho, layout.sl_vx, layout.sl_vy
    slth, sl1, sl2 = layout.sl_theta, layout.sl_eta1, layout.sl_eta2
    f1 = rhs[slr]
    f2 = np.concatenate([rhs[slvx], rhs[slvy]])
    f3 = rhs[slth]
    h1 = rhs[sl1]
    h2 = rhs[sl2]

    # beam velocity decouples algebraically
    eta2 = -h1

    # insulated temperature problem with pinned mean
    w_nodes = grid.weights.ravel()
    theta, _ = _bordered_solve(B[slth, slth], w_nodes, f3)

    # flow problem: momentum rows plus density rows, mean of the density
    # fluctuation pinned to zero through a border column
    slv = layout.sl_v
    mom = sp.hstack([B[slv, slv], B[slv, slr]])
    div = sp.hstack([B[slr, slv], B[slr, slr]])
    rhs_mom = f2 - B[slv, slth] @ theta - B[slv, sl2] @ eta2
    rhs_div = f1 - B[slr, sl2] @ eta2
    nv = 2 * layout.n_interior
    border = np.concatenate([np.zeros(nv), w_nodes])
    flow = sp.vstack([mom, div])
    sol, _ = _bordered_solve(flow, border, np.concatenate([rhs_mom, rhs_div]))
    v = sol[:nv]
    rho_m = sol[nv:]

    # beam deflection: bending matrix plus the rank-one coupling through
    # the mean density the deflection itself displaces
    ops = diff_ops(grid)
    w_beam = grid.beam_weights[1:-1]
    gain = params.R0 * params.theta_bar * params.rho_bar / grid.area
    plate = ops.bih_clamped + gain * np.outer(np.ones(layout.n_beam), w_beam)
    rhs_plate = h2 - (
        B[sl2, slv] @ v
        + B[sl2, slr] @ rho_m
        + B[sl2, slth] @ theta
        + B[sl2, sl2] @ eta2
    )
    eta1 = la.solve(plate, rhs_plate)

    rho_avg = -params.rho_bar / grid.area * float(w_beam @ eta1)
    x = np.empty(layout.total)
    x[slr] = rho_m + rho_avg
    x[slvx] = v[: layout.n_interior]
    x[slvy] = v[layout.n_interior:]
    x[slth] = theta
    x[sl1] = eta1
    x[sl2] = eta2
    return x


def resolvent_solve(
    op: OperatorMatrix, lam: complex, rhs: np.ndarray, rtol: float = 1e-8
) -> np.ndarray:
    """Solve (lam I - A) x = rhs with an explicit residual check.

    A singular or near-singular spectral point raises NumericsError rather
    than returning garbage.  At lam = 0 on a coupled operator, full or
    mean-zero, the solve goes through the stationary cascade, which also
    checks that the right-hand side respects the conserved quantities.
    """
    rhs = np.asarray(rhs)
    if rhs.shape != (op.shape[0],):
        raise ConfigError("right-hand side length does not match operator")
    if lam == 0 and op.layout is not None:
        x = _resolvent_zero_coupled(op, rhs.astype(float))
    else:
        mat = (lam * sp.identity(op.shape[0], format="csr") - op.matrix).tocsc()
        if np.iscomplexobj(rhs) or np.iscomplex(lam):
            mat = mat.astype(complex)
        lu = _splu(mat, f"resolvent solve at {lam}")
        x = lu.solve(rhs.astype(mat.dtype))
    if not np.all(np.isfinite(x)):
        raise NumericsError(f"resolvent solve at {lam} produced non-finite values")
    resid = lam * x - op.matrix @ x - rhs
    scale = max(float(np.linalg.norm(rhs)), 1e-30)
    rel = float(np.linalg.norm(resid)) / scale
    if rel > rtol:
        raise NumericsError(
            f"resolvent residual {rel:.3e} at spectral point {lam} exceeds "
            f"{rtol:.1e}; the point is at or near the spectrum"
        )
    return x


# ------------------------------------------------------------ sector scan


@dataclass(frozen=True)
class SectorScanResult:
    """Scaled resolvent norms sampled over a sector of opening 2*beta."""

    beta: float
    gamma: float
    lambdas: np.ndarray
    values: np.ndarray
    m_hat: float
    singular: tuple

    @property
    def passed(self) -> bool:
        return len(self.singular) == 0 and np.isfinite(self.m_hat)


def _weight_gram(op: OperatorMatrix, rho_norm: str) -> sp.csr_matrix:
    """Gram matrix of the norm used for resolvent bounds.

    Quadrature-weighted L2 on every block except the beam deflection,
    which carries the clamped bending form (the second-derivative proxy
    matching that component's regularity; without it the companion-form
    beam pair looks spuriously non-normal).  `rho_norm="h1"` additionally
    stiffens the density block by a first-derivative form.
    """
    if rho_norm not in ("l2", "h1"):
        raise ConfigError(f"unknown density norm variant {rho_norm!r}")
    gram = sp.diags(op.weights).tocsr()

    def bending(grid):
        h = grid.beam_weights[1]
        return sp.csr_matrix(h * diff_ops(grid).bih_clamped)

    if op.layout is not None:
        layout = op.layout
        parts = [
            sp.diags(op.weights[layout.sl_rho]),
            sp.diags(op.weights[layout.sl_v]),
            sp.diags(op.weights[layout.sl_theta]),
            bending(layout.grid),
            sp.diags(op.weights[layout.sl_eta2]),
        ]
        gram = sp.block_diag(parts, format="csr")
        if rho_norm == "h1":
            grid = layout.grid
            dx_sbp, dy_sbp, *_ = _grid_operators(grid)
            w = sp.diags(grid.weights.ravel())
            stiff = (dx_sbp.T @ w @ dx_sbp + dy_sbp.T @ w @ dy_sbp).tocsr()
            rest = op.shape[0] - grid.n_nodes
            pad = sp.block_diag([stiff, sp.csr_matrix((rest, rest))], format="csr")
            gram = (gram + pad).tocsr()
        return gram
    if op.label == "plate":
        if rho_norm == "h1":
            raise ConfigError("h1 density norm needs a coupled operator")
        m = op.shape[0] // 2
        return sp.block_diag(
            [bending(op.grid), sp.diags(op.weights[m:])], format="csr"
        )
    if rho_norm == "h1":
        raise ConfigError("h1 density norm needs a coupled operator")
    return gram


def _gram_maps(op: OperatorMatrix, rho_norm: str):
    """(apply, solve, project) of the scan's norm.

    `apply` and `solve` multiply and divide by the Gram matrix G; a
    non-diagonal G is factored here, once per scan.  On a mean-zero
    operator `project` is the G-orthogonal projector
    I - G^{-1} C^T (C G^{-1} C^T)^{-1} C onto {C x = 0}, so that the scan
    measures the norm of the restriction exactly; elsewhere it is the
    identity.
    """
    gram = _weight_gram(op, rho_norm)
    diag = gram.diagonal()
    if gram.nnz == np.count_nonzero(diag):
        apply, solve = (lambda z: diag * z), (lambda z: z / diag)
    else:
        glu = _splu(gram.tocsc().astype(complex), "norm Gram factor")
        apply, solve = (lambda z: gram @ z), glu.solve
    if op.domain != "mean_zero":
        return apply, solve, lambda z: z
    cons = constraint_functionals(op.layout, op.params)
    ginv_ct = np.column_stack([solve(c.astype(complex)) for c in cons])
    lift = ginv_ct @ np.linalg.inv(cons @ ginv_ct)
    return apply, solve, lambda z: z - lift @ (cons @ z)


def _scaled_resolvent_norm(
    op: OperatorMatrix,
    lam: complex,
    gram_maps,
    rng: np.random.Generator,
    iters: int,
    gamma: float,
) -> float:
    """||lam (lam I - (A - gamma))^{-1} P|| in the quadrature norm via power
    iteration on the weighted normal operator; `gram_maps` is
    `_gram_maps(op, rho_norm)` and P its projector.  The shift is folded
    into the factored lam + gamma, so no shifted copy of A is made."""
    n = op.shape[0]
    mat = ((lam + gamma) * sp.identity(n, format="csr") - op.matrix).tocsc().astype(complex)
    solve = _splu(mat, f"sector sample at {lam + gamma}").solve
    w_apply, w_solve, project = gram_maps

    # power iteration on the weighted normal operator (R P)* R P; the
    # iterate stays in the range of P, which R leaves invariant, and the
    # singular value estimate is ||R x|| for the current unit-norm iterate
    x = project(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    x /= np.sqrt(np.real(np.vdot(x, w_apply(x))))
    value = 0.0
    for _ in range(iters):
        y = solve(x)
        value = np.sqrt(abs(np.real(np.vdot(y, w_apply(y)))))
        z = project(w_solve(solve(w_apply(y), trans="H")))
        nrm = np.sqrt(abs(np.real(np.vdot(z, w_apply(z)))))
        if not np.isfinite(nrm) or nrm == 0.0:
            raise NumericsError(f"power iteration collapsed at {lam}")
        x = z / nrm
    return abs(lam) * value


def sector_scan(
    op: OperatorMatrix,
    beta: float,
    radii,
    gamma: float = 0.0,
    rho_norm: str = "l2",
    power_iters: int = 30,
    angle_margin: float = 0.05,
    seed: int = 0,
) -> SectorScanResult:
    """Sample ||lam (lam I - (A - gamma))^{-1}|| over rays of the sector
    |arg lam| < beta and report the maximum.

    Norms are quadrature-weighted Euclidean proxies for the function-space
    norms; the scalar maximum stands in for the operator-family bound.  On
    a mean-zero operator they are norms of the restriction to {C x = 0}.
    Samples where the factorization fails are collected in `singular`
    instead of aborting the scan.
    """
    if not 0 < beta < np.pi:
        raise ConfigError("sector half-opening must lie in (0, pi)")
    if gamma < 0:
        raise ConfigError("spectral shift gamma must be nonnegative")
    radii = np.asarray(sorted(float(r) for r in radii))
    if radii.size == 0 or np.any(radii <= 0):
        raise ConfigError("sector scan needs positive sample radii")
    rng = np.random.default_rng(seed)
    gram_maps = _gram_maps(op, rho_norm)
    angles = [0.0, beta / 2.0, max(beta - angle_margin, beta * 0.5)]
    lambdas = []
    for r in radii:
        for phi in angles:
            lambdas.append(r * np.exp(1j * phi))
            if phi > 0:
                lambdas.append(r * np.exp(-1j * phi))
    values = []
    kept = []
    singular = []
    for lam in lambdas:
        try:
            val = _scaled_resolvent_norm(op, lam, gram_maps, rng, power_iters, gamma)
        except NumericsError:
            singular.append(lam)
            continue
        kept.append(lam)
        values.append(val)
    values = np.asarray(values)
    m_hat = float(values.max()) if values.size else float("inf")
    return SectorScanResult(
        beta=beta,
        gamma=gamma,
        lambdas=np.asarray(kept),
        values=values,
        m_hat=m_hat,
        singular=tuple(singular),
    )


def gamma_search(
    op: OperatorMatrix,
    beta: float,
    radii,
    start: float = 0.0,
    factor: float = 4.0,
    limit: float = 1.0e4,
    **scan_kwargs,
):
    """Smallest tried shift gamma for which the sector scan has no singular
    samples, found by geometric increase from `start`."""
    gamma = start
    while True:
        result = sector_scan(op, beta, radii, gamma=gamma, **scan_kwargs)
        if result.passed:
            return gamma, result
        gamma = factor * max(gamma, 0.25)
        if gamma > limit:
            raise NumericsError(
                f"no shift up to {limit} made the sector scan regular"
            )


# ---------------------------------------------------------- perturbation


@dataclass(frozen=True)
class PerturbationReport:
    """Fitted relative bound ||B x|| <= a ||A0 x|| + b ||x|| together with
    the sector bound of the principal part and the smallness verdict."""

    a: float
    b: float
    m_hat: float
    condition_ok: bool
    n_samples: int


def perturbation_check(
    a0: OperatorMatrix,
    b: OperatorMatrix,
    beta: float,
    gamma: float,
    n_samples: int = 32,
    seed: int = 0,
    radii=(1.0e-2, 1.0, 1.0e2),
) -> PerturbationReport:
    """Check that the bounded part is small relative to the principal part.

    Random states give pairs (||B x||, ||A0 x||, ||x||) in the quadrature
    norm; a least-squares fit of the relative bound is compared against the
    reciprocal of the principal part's sector bound.
    """
    if a0.shape != b.shape:
        raise ConfigError("principal and bounded parts must have equal shape")
    rng = np.random.default_rng(seed)
    gram = _weight_gram(a0, "l2")
    norm = lambda z: np.sqrt(float(z @ (gram @ z)))
    rows = np.empty((n_samples, 2))
    lhs = np.empty(n_samples)
    for k in range(n_samples):
        x = rng.standard_normal(a0.shape[0])
        x /= norm(x)
        rows[k, 0] = norm(a0.matrix @ x)
        rows[k, 1] = 1.0
        lhs[k] = norm(b.matrix @ x)
    coef, *_ = np.linalg.lstsq(rows, lhs, rcond=None)
    a_fit = float(max(coef[0], 0.0))
    b_fit = float(max(coef[1], 0.0))
    scan = sector_scan(a0, beta, radii, gamma=gamma, seed=seed)
    condition_ok = bool(scan.passed and a_fit * scan.m_hat < 1.0)
    return PerturbationReport(
        a=a_fit, b=b_fit, m_hat=scan.m_hat,
        condition_ok=condition_ok, n_samples=n_samples,
    )

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

The generator is assembled from the steppers' own operators at the rest
state: the velocity rows are the velocity stepper's viscous operator,
restricted to the unknowns of `_velocity_unknowns` exactly as the stepper
restricts it; the temperature rows are the heat stepper's flux balance;
the beam rows are `plate_operator`; the top-edge stress is the grid's
first difference d/dy.  Only the density and pressure rows have a stencil
of their own.

Discretization choices that matter for the spectral checks:

* the density and pressure rows use first-derivative matrices whose
  one-sided end rows are first order; together with trapezoid weights they
  satisfy a summation-by-parts identity, so total mass (fluid mass plus
  the beam deflection contribution) is conserved to round-off,
* the temperature row is the vertex-centered flux balance of the heat
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
{C x = 0}, solving with the sparse LU of lam I - A.  Every resolvent solve
is one sparse LU: at lam = 0, where A is singular, the system is bordered
by the kernel vectors K and the functionals C, [[-A, K], [C, 0]].

The grid and the rest state are symmetric under the mirror x -> L - x, and
A commutes with it exactly.  `OperatorMatrix.blocks` certifies that entry
for entry, once per operator, and holds A's even and odd blocks of about
half the size; the spectra, the sector scans and the global march all work
in those coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import csgraph

from .core_grid import Grid2D, _stencil_matrix
from .errors import ConfigError, NumericsError
from .linear_subsystems import (
    PhysParams,
    _fv_diffusion,
    _identity_metric,
    _restrict_velocity,
    _rest_viscous_operator,
    _splu,
    _velocity_unknowns,
    plate_operator,
)

__all__ = [
    "BlockLayout",
    "OperatorMatrix",
    "MirrorBlocks",
    "SectorScanResult",
    "PerturbationReport",
    "block_layout",
    "assemble_coupled",
    "assemble_block",
    "pack_fields",
    "unpack_fields",
    "constraint_functionals",
    "kernel_vectors",
    "kernel_dimension",
    "project_mean_zero",
    "restrict_Xm",
    "spectrum",
    "sector_rim",
    "resolvent_solve",
    "sector_scan",
    "gamma_search",
    "perturbation_check",
]

# Dense eigensolves beyond this stacked dimension are not worth the wait.
MAX_DENSE_DIM = 8200
# Fixed settings of the projection, resolvent and sector checks.
MEAN_ZERO_TOL = 1e-10  # relative closure of project_mean_zero
RESOLVENT_RTOL = 1e-8  # relative residual every resolvent solve must meet
POWER_ITERS = 30  # power iterations per sector sample
ANGLE_MARGIN = 0.05  # how far the outer sector ray stays inside the edge
GAMMA_LIMIT = 1.0e4  # largest shift gamma_search tries: 0, 1, 4, 16, ...
PERTURBATION_SAMPLES = 32  # random states in perturbation_check's fit
PERTURBATION_RADII = (1.0e-2, 1.0, 1.0e2)  # its sector radii


# ---------------------------------------------------------------- layout


@dataclass(frozen=True, eq=False)
class BlockLayout:
    """Index bookkeeping for the stacked state vector.

    `v_inner` and `v_trace` are `_velocity_unknowns(grid)`: the positions,
    in the component-major stack (vx, vy) of node values, of the velocity
    block and of the top-edge vy that the beam-velocity block carries.
    """

    grid: Grid2D
    sl_rho: slice
    sl_vx: slice
    sl_vy: slice
    sl_theta: slice
    sl_eta1: slice
    sl_eta2: slice
    total: int
    v_inner: np.ndarray
    v_trace: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.grid.n_nodes

    @property
    def n_interior(self) -> int:
        return self.v_inner.size // 2

    @property
    def n_beam(self) -> int:
        return self.v_trace.size

    @property
    def interior_flat(self) -> np.ndarray:
        return self.v_inner[: self.n_interior]

    @property
    def top_flat(self) -> np.ndarray:
        return self.v_trace - self.n_nodes

    @property
    def sl_v(self) -> slice:
        return slice(self.sl_vx.start, self.sl_vy.stop)


def block_layout(grid: Grid2D) -> BlockLayout:
    """Block offsets for [rho, vx, vy, theta, eta1, eta2] stacking."""
    n = grid.n_nodes
    inner, trace = _velocity_unknowns(grid)
    ni = inner.size // 2
    m = trace.size
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
        v_inner=inner,
        v_trace=trace,
    )


def pack_fields(layout: BlockLayout, rho, v, theta, eta1, eta2) -> np.ndarray:
    """Stack full-grid arrays into a state vector (boundary velocity dropped)."""
    grid = layout.grid
    rho = np.asarray(rho, dtype=float).reshape(grid.shape)
    v = np.asarray(v, dtype=float).reshape(grid.shape + (2,))
    theta = np.asarray(theta, dtype=float).reshape(grid.shape)
    eta1 = np.asarray(eta1, dtype=float).reshape(grid.nx + 1)
    eta2 = np.asarray(eta2, dtype=float).reshape(grid.nx + 1)
    out = np.empty(layout.total)
    out[layout.sl_rho] = rho.ravel()
    out[layout.sl_v] = np.moveaxis(v, -1, 0).reshape(-1)[layout.v_inner]
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
    stacked = np.zeros(lead + (2 * grid.n_nodes,), dtype=vec.dtype)
    stacked[..., layout.v_inner] = vec[..., layout.sl_v]
    stacked[..., layout.v_trace] = vec[..., layout.sl_eta2]
    v = np.ascontiguousarray(np.moveaxis(stacked.reshape(lead + (2,) + grid.shape), len(lead), -1))
    eta1 = np.zeros(lead + (grid.nx + 1,), dtype=vec.dtype)
    eta2 = np.zeros(lead + (grid.nx + 1,), dtype=vec.dtype)
    eta1[..., 1:-1] = vec[..., layout.sl_eta1]
    eta2[..., 1:-1] = vec[..., layout.sl_eta2]
    return rho, v, theta, eta1, eta2


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

    @cached_property
    def blocks(self) -> "MirrorBlocks":
        """This operator in the mirror's even/odd block coordinates, built
        and certified on first read and kept for the operator's life."""
        return MirrorBlocks(self)


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


def _sbp_gradient(grid: Grid2D) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(d/dx, d/dy) of raveled scalar fields with the SBP first difference."""
    nx1, ny1 = grid.shape
    dx = sp.kron(_sbp_first_diff(nx1, grid.hx), sp.identity(ny1, format="csr"), format="csr")
    dy = sp.kron(sp.identity(nx1, format="csr"), _sbp_first_diff(ny1, grid.hy), format="csr")
    return dx, dy


def _coupled_weights(layout: BlockLayout) -> np.ndarray:
    grid = layout.grid
    w_nodes = grid.weights.ravel()
    w_beam = grid.beam_weights[1:-1]
    return np.concatenate([w_nodes, np.tile(w_nodes, 2)[layout.v_inner], w_nodes, w_beam, w_beam])


def assemble_coupled(
    grid: Grid2D, params: PhysParams, part: str = "full"
) -> OperatorMatrix:
    """Assemble the generator of the coupled linear dynamics.

    `part` selects "full", the "principal" part (transport, viscosity, heat
    flow, beam stiffness and damping), or the "bounded" remainder (pressure
    gradients and the surface stress sampled onto the beam).  The two parts
    sum to the full matrix entry by entry.

    The matrix has four block rows and columns: density, velocity,
    temperature and the beam pair.  The velocity, heat and beam blocks are
    the steppers' own operators at the rest state, restricted to the
    velocity unknowns where they act on velocities.
    """
    if part not in ("full", "principal", "bounded"):
        raise ConfigError(f"unknown operator part {part!r}")
    params.require_global()
    layout = block_layout(grid)
    inner, trace = layout.v_inner, layout.v_trace
    dx, dy = _sbp_gradient(grid)
    rho_bar = params.rho_bar
    n, m = grid.n_nodes, layout.n_beam
    sizes = [n, inner.size, n, 2 * m]
    R, V, TH, E = range(4)
    blocks = {}

    def add(r, c, mat):
        blocks[r, c] = blocks[r, c] + mat if (r, c) in blocks else mat

    # the beam-velocity half of the beam pair, which carries the top-edge vy
    eta2 = sp.identity(2 * m, format="csr")[m:]

    if part in ("full", "principal"):
        # density: d rho/dt = -rho_bar div v, plus weak smoothing that kills
        # mesh-frequency modes the centered divergence cannot see
        fv, _ = _fv_diffusion(grid, _identity_metric(grid))
        div = sp.hstack([dx, dy], format="csr")
        add(R, R, grid.hx * grid.hy * fv)
        add(R, V, -rho_bar * div[:, inner])
        add(R, E, -rho_bar * div[:, trace] @ eta2)
        own, carry = _restrict_velocity(grid, _rest_viscous_operator(grid, params))
        add(V, V, own)
        add(V, E, carry @ eta2)
        add(TH, TH, params.kappa_bar * fv)
        add(E, E, sp.csr_matrix(plate_operator(grid)))

    if part in ("full", "bounded"):
        # pressure gradients in the momentum rows
        grad = sp.vstack([dx, dy], format="csr")[inner]
        add(V, R, -(params.R0 * params.theta_bar / rho_bar) * grad)
        add(V, TH, -params.R0 * grad)

        # beam forcing: minus the normal stress sampled on the top edge,
        #   -(2 mu + alpha) d_y v_y + R0 theta_bar rho + R0 rho_bar theta
        # (the tangential velocity vanishes along the whole edge, so the
        # horizontal part of the divergence drops out identically)
        top = layout.top_flat
        visc = 2.0 * params.mu + params.alpha
        stress = sp.hstack([sp.csr_matrix((m, n)), -visc * grid.ops.Dy[top]], format="csr")
        add(E, V, eta2.T @ stress[:, inner])
        add(E, E, eta2.T @ stress[:, trace] @ eta2)
        on_top = sp.identity(n, format="csr")[top]
        add(E, R, params.R0 * params.theta_bar * eta2.T @ on_top)
        add(E, TH, params.R0 * rho_bar * eta2.T @ on_top)

    matrix = sp.bmat(
        [[blocks.get((r, c), sp.csr_matrix((sizes[r], sizes[c]))) for c in range(4)] for r in range(4)],
        format="csr",
    )
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
        inner, _ = _velocity_unknowns(grid)
        mat, _ = _restrict_velocity(grid, _rest_viscous_operator(grid, params))
        return OperatorMatrix(
            matrix=mat, domain="full", weights=np.tile(grid.weights.ravel(), 2)[inner],
            label="velocity", grid=grid, params=params,
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
    w = la.solve(grid.ops.bih_clamped, np.ones(layout.n_beam))
    k1 = np.zeros(layout.total)
    k2 = np.zeros(layout.total)
    k1[layout.sl_rho] = 1.0
    k1[layout.sl_eta1] = params.R0 * params.theta_bar * w
    k2[layout.sl_theta] = 1.0
    k2[layout.sl_eta1] = params.R0 * params.rho_bar * w
    return np.column_stack([k1, k2])


def project_mean_zero(op: OperatorMatrix, vec: np.ndarray) -> np.ndarray:
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
    if np.any(resid > MEAN_ZERO_TOL * scale):
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


# ---------------------------------------------------------- mirror blocks


def _reflection(layout):
    """The mirror x -> L - x as a signed permutation, (R x)[k] = sign[k]
    x[perm[k]]: nodes (i, j) -> (nx - i, j), vx changes sign, the beam
    blocks reverse."""
    grid = layout.grid
    node = np.arange(grid.n_nodes).reshape(grid.shape)[::-1].ravel()
    inner = np.searchsorted(layout.interior_flat, node[layout.interior_flat])
    beam = np.arange(layout.n_beam)[::-1]
    parts = [(layout.sl_rho, node), (layout.sl_vx, inner), (layout.sl_vy, inner),
             (layout.sl_theta, node), (layout.sl_eta1, beam), (layout.sl_eta2, beam)]
    perm = np.concatenate([sl.start + idx for sl, idx in parts])
    sign = np.ones(layout.total)
    sign[layout.sl_vx] = -1.0
    return perm, sign


class MirrorBlocks:
    """The blocked view `op.blocks` of an operator A: its invariant
    subspaces under the mirror R, built once per operator.

    When A commutes exactly with R (`(R A R != A).nnz == 0`), `bases` holds
    R's even and odd subspaces as pairs (rows, P): each pair k < perm[k]
    gives the column e_k + parity sign[k] e_perm[k], each fixed unknown
    (the centre column) gives e_k to the block of its sign.  P is the
    identity on `rows`, so A[rows] @ P is an exact similarity block of A.
    Otherwise one block holds all of A, through the same code.  `basis`
    stacks the blocks' P side by side; its columns are orthogonal: states
    split by basis^T scaled with 1/|column|^2 and lift back by basis.
    `parts` are the blocks A[rows] @ P and `matrix` is their block
    diagonal, A in block coordinates.

    The march reads only those; the rest is built on first read:
    `components`, each block's strong components; the norm's Gram matrix G
    moved over by congruence to basis^T G basis, which `apply` and `solve`
    multiply and divide by (a non-diagonal one is factored, once); and
    `project`, on a mean-zero operator the Gram-orthogonal projector
    I - G^{-1} C^T (C G^{-1} C^T)^{-1} C onto {C x = 0} with the
    constraint functionals C moved to C basis, elsewhere the identity.
    Norms and constraints of states are unchanged by the move.
    """

    def __init__(self, op: OperatorMatrix):
        n = op.shape[0]
        k = np.arange(n)
        perm, sign = k, np.ones(n)
        if op.layout is not None:
            mirror_perm, mirror_sign = _reflection(op.layout)
            mirror = sp.csr_matrix((mirror_sign, (k, mirror_perm)), shape=(n, n))
            if (mirror @ op.matrix @ mirror != op.matrix).nnz == 0:
                perm, sign = mirror_perm, mirror_sign
        bases = []
        for parity in (1.0, -1.0):
            rows = np.flatnonzero((k < perm) | ((k == perm) & (sign == parity)))
            pair = np.flatnonzero(perm[rows] != rows)
            entries = np.concatenate([np.ones(rows.size), parity * sign[rows[pair]]])
            at = (np.concatenate([rows, perm[rows[pair]]]), np.concatenate([np.arange(rows.size), pair]))
            if rows.size:
                bases.append((rows, sp.csr_matrix((entries, at), shape=(n, rows.size))))
        self.bases = bases
        self.basis = sp.hstack([basis for _, basis in bases], format="csr")
        self._split = (sp.diags(1.0 / self.basis.power(2).sum(axis=0).A1) @ self.basis.T).tocsr()
        self.parts = [op.matrix[rows] @ basis for rows, basis in bases]
        self.matrix = sp.block_diag(self.parts, format="csc")
        # the norm and the constraints in state coordinates, small beside A:
        # holding them instead of op keeps the view out of a reference cycle
        # with the operator that caches it
        self._weight = _weight_gram(op)
        self._cons = constraint_functionals(op.layout, op.params) if op.domain == "mean_zero" else None

    def split(self, state: np.ndarray) -> np.ndarray:
        """Block coordinates of one state."""
        return self._split @ state

    def lift(self, coords: np.ndarray) -> np.ndarray:
        """The state of one vector of block coordinates."""
        return self.basis @ coords

    @cached_property
    def components(self) -> list:
        """Per block, the strong components of its nonzero pattern as index
        arrays; a stored zero would join components, and `parts` has none."""
        out = []
        for block in self.parts:
            count, labels = csgraph.connected_components(block, directed=True, connection="strong")
            out.append([np.flatnonzero(labels == c) for c in range(count)])
        return out

    @cached_property
    def _gram(self):
        gram = (self.basis.T @ self._weight @ self.basis).tocsr()
        diag = gram.diagonal()
        if gram.nnz == np.count_nonzero(diag):
            return (lambda z: diag * z), (lambda z: z / diag)
        glu = _splu(gram.tocsc().astype(complex), "norm Gram factor")
        return (lambda z: gram @ z), glu.solve

    def apply(self, coords: np.ndarray) -> np.ndarray:
        """Block coordinates multiplied by the Gram basis^T G basis."""
        return self._gram[0](coords)

    def solve(self, coords: np.ndarray) -> np.ndarray:
        """Block coordinates divided by the Gram basis^T G basis."""
        return self._gram[1](coords)

    @cached_property
    def project(self):
        """The projector onto {C x = 0} in block coordinates (see above)."""
        if self._cons is None:
            return lambda z: z
        cons = (self.basis.T @ self._cons.T).T
        ginv_ct = np.column_stack([self.solve(c.astype(complex)) for c in cons])
        back = ginv_ct @ np.linalg.inv(cons @ ginv_ct)
        return lambda z: z - back @ (cons @ z)


# ---------------------------------------------------------------- spectra


def spectrum(op: OperatorMatrix, with_vectors: bool = False):
    """Dense eigenvalues sorted by descending real part, ties by descending
    imaginary part (a conjugate pair lists +Im first).

    Each block of the view `op.blocks` (two half-size blocks for an
    operator certified to commute with the mirror x -> L - x, else all of
    A) stays sparse: its eigenvalues are those of its principal submatrices
    on the strong components of its nonzero pattern, which the view finds
    on the first spectrum, each made dense for its own eigensolve.  On the coupled generator these are the temperature
    unknowns, which no other unknown feeds, and the rest.  With
    `with_vectors` each block gets one dense `la.eig`, as eigenvectors are
    not local to the components; they are lifted through the block bases
    and normalised to unit length.

    The domain tag is the only switch: on a mean-zero operator
    (`restrict_Xm`) the two eigenvalues of smallest modulus, the kernel of
    the conserved quantities (both kernel vectors are even), are dropped.
    Whether they really are the kernel is `kernel_dimension`'s certificate.
    """
    n = op.shape[0]
    if n > MAX_DENSE_DIM:
        raise ConfigError(
            f"dense eigensolve refused for dimension {n} > {MAX_DENSE_DIM}"
        )
    view = op.blocks
    if with_vectors:
        pairs = [la.eig(block.toarray()) for block in view.parts]
        vals = np.concatenate([w for w, _ in pairs])
        vecs = np.hstack([basis @ v for (_, basis), (_, v) in zip(view.bases, pairs)])
    else:
        vals = np.concatenate([
            la.eigvals(block[part][:, part].toarray())
            for block, parts in zip(view.parts, view.components)
            for part in parts
        ])
    keep = np.arange(vals.size)
    if op.domain == "mean_zero":
        keep = np.sort(np.argsort(np.abs(vals))[2:])
    order = keep[np.lexsort((-vals[keep].imag, -vals[keep].real))]
    if not with_vectors:
        return vals[order]
    vecs = vecs[:, order]
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


# -------------------------------------------------------------- resolvent


def resolvent_solve(op: OperatorMatrix, lam: complex, rhs: np.ndarray) -> np.ndarray:
    """Solve (lam I - A) x = rhs with an explicit residual check.

    A singular or near-singular spectral point raises NumericsError rather
    than returning garbage.  At lam = 0 on a coupled operator, full or
    mean-zero, the right-hand side must respect the conserved quantities
    (range(A) = {C x = 0}), and the mean-zero solution comes from one sparse
    LU of the bordered system [[-A, K], [C, 0]] [x; s] = [rhs; 0], which is
    nonsingular because C K is: K are the kernel vectors, C the constraint
    functionals.
    """
    rhs = np.asarray(rhs)
    n = op.shape[0]
    if rhs.shape != (n,):
        raise ConfigError("right-hand side length does not match operator")
    mat = lam * sp.identity(n, format="csr") - op.matrix
    padded = rhs
    if lam == 0 and op.layout is not None:
        cons = constraint_functionals(op.layout, op.params)
        viol = np.abs(cons @ rhs)
        if np.any(viol > 1e-9 * max(float(np.linalg.norm(rhs)), 1.0) * np.linalg.norm(cons, axis=1)):
            raise NumericsError(
                "spectral point 0 is singular for this right-hand side: the "
                "conserved-quantity functionals of the source do not vanish "
                f"(residuals {viol.tolist()})"
            )
        kern = sp.csr_matrix(kernel_vectors(op.layout, op.params))
        mat = sp.bmat([[mat, kern], [sp.csr_matrix(cons), None]])
        padded = np.concatenate([rhs, np.zeros(2)])
    mat = mat.tocsc()
    if np.iscomplexobj(rhs) or np.iscomplex(lam):
        mat = mat.astype(complex)
    x = _splu(mat, f"resolvent solve at {lam}").solve(padded.astype(mat.dtype))[:n]
    if not np.all(np.isfinite(x)):
        raise NumericsError(f"resolvent solve at {lam} produced non-finite values")
    resid = lam * x - op.matrix @ x - rhs
    scale = max(float(np.linalg.norm(rhs)), 1e-30)
    rel = float(np.linalg.norm(resid)) / scale
    if rel > RESOLVENT_RTOL:
        raise NumericsError(
            f"resolvent residual {rel:.3e} at spectral point {lam} exceeds "
            f"{RESOLVENT_RTOL:.1e}; the point is at or near the spectrum"
        )
    return x


# ------------------------------------------------------------ sector scan


@dataclass(frozen=True)
class SectorScanResult:
    """Scaled resolvent norms sampled over a sector of opening 2*beta.

    `lambdas` lie in the closed upper half plane; each value stands for
    its conjugate too.  `changes` holds each sample's relative change of
    the power iteration's last step, `fills` the L + U nonzeros of its
    factor."""

    beta: float
    gamma: float
    lambdas: np.ndarray
    values: np.ndarray
    m_hat: float
    singular: tuple
    changes: np.ndarray
    fills: np.ndarray

    @property
    def passed(self) -> bool:
        return len(self.singular) == 0 and np.isfinite(self.m_hat)


def _weight_gram(op: OperatorMatrix) -> sp.csr_matrix:
    """Gram matrix of the norm used for resolvent bounds.

    Quadrature-weighted L2 on every block except the beam deflection,
    which carries the clamped bending form (the second-derivative proxy
    matching that component's regularity; without it the companion-form
    beam pair looks spuriously non-normal).
    """
    if op.layout is not None:
        grid, eta1 = op.layout.grid, op.layout.sl_eta1
    elif op.label == "plate":
        grid, eta1 = op.grid, slice(0, op.shape[0] // 2)
    else:
        return sp.diags(op.weights).tocsr()
    bending = sp.csr_matrix(grid.beam_weights[1] * grid.ops.bih_clamped)
    return sp.block_diag([sp.diags(op.weights[: eta1.start]), bending, sp.diags(op.weights[eta1.stop :])], format="csr")


def _scaled_resolvent_norm(
    op: OperatorMatrix,
    lam: complex,
    rng: np.random.Generator,
    gamma: float,
) -> tuple[float, float, int]:
    """||lam (lam I - (A - gamma))^{-1} P|| in the quadrature norm via power
    iteration on the weighted normal operator, with the last step's
    relative change and the factor's L + U nonzeros; the iteration runs in
    the coordinates of `op.blocks`, with its Gram and its projector P.  The
    shift is folded into the factored lam + gamma, so no shifted copy of A
    is made."""
    n = op.shape[0]
    view = op.blocks
    mat = ((lam + gamma) * sp.identity(n, format="csc") - view.matrix).astype(complex)
    lu = _splu(mat, f"sector sample at {lam + gamma}")

    # power iteration on the weighted normal operator (R P)* R P; the
    # iterate stays in the range of P, which R leaves invariant, and the
    # singular value estimate is ||R x|| for the current unit-norm iterate
    x = view.project(view.split(rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    x /= np.sqrt(np.real(np.vdot(x, view.apply(x))))
    y = lu.solve(x)
    rel = np.linalg.norm(mat @ y - x) / np.linalg.norm(x)
    if not rel <= RESOLVENT_RTOL:
        raise NumericsError(f"sector sample at {lam}: resolvent residual {rel:.3e} exceeds {RESOLVENT_RTOL:.1e}")
    value = np.sqrt(abs(np.real(np.vdot(y, view.apply(y)))))
    for _ in range(POWER_ITERS - 1):
        z = view.project(view.solve(lu.solve(view.apply(y), trans="H")))
        nrm = np.sqrt(abs(np.real(np.vdot(z, view.apply(z)))))
        if not np.isfinite(nrm) or nrm == 0.0:
            raise NumericsError(f"power iteration collapsed at {lam}")
        y = lu.solve(z / nrm)
        last, value = value, np.sqrt(abs(np.real(np.vdot(y, view.apply(y)))))
    return abs(lam) * value, abs(value - last) / value, lu.L.nnz + lu.U.nnz


def sector_scan(
    op: OperatorMatrix,
    beta: float,
    radii,
    gamma: float = 0.0,
    seed: int = 0,
) -> SectorScanResult:
    """Sample ||lam (lam I - (A - gamma))^{-1}|| over rays of the sector
    |arg lam| < beta and report the maximum.

    A and the Gram matrix are real, so the value at conj(lam) is the
    conjugate computation of the value at lam: the rays 0, beta/2 and
    beta - ANGLE_MARGIN of the closed upper half are computed (the last
    falls back to beta/2, sampled once, when beta <= 2 ANGLE_MARGIN), and
    each stands for its conjugate below the real axis.  Each sample factors
    (lam + gamma) I - A in the even/odd block coordinates of the view
    `op.blocks`, two half-size blocks for a mirror-symmetric operator; the
    view builds its Gram, the Gram's factor and its projector on the first
    sample, once per operator, and `gamma_search` reuses them for every
    shift.  Norms are quadrature-weighted Euclidean proxies for the
    function-space norms; the scalar maximum stands in for the
    operator-family bound.  On a mean-zero operator they are norms of the
    restriction to {C x = 0}.
    Samples where the factorization fails, or whose first solve misses
    RESOLVENT_RTOL, are collected in `singular` with their conjugates
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
    angles = dict.fromkeys([0.0, beta / 2.0, max(beta - ANGLE_MARGIN, beta * 0.5)])
    rows, kept, singular = [], [], []
    for lam in (r * np.exp(1j * phi) for r in radii for phi in angles):
        try:
            rows.append(_scaled_resolvent_norm(op, lam, rng, gamma))
        except NumericsError:
            singular += [lam] if lam.imag == 0 else [lam, lam.conjugate()]
            continue
        kept.append(lam)
    values, changes, fills = np.reshape(rows, (-1, 3)).T
    return SectorScanResult(
        beta=beta,
        gamma=gamma,
        lambdas=np.asarray(kept),
        values=values,
        m_hat=float(values.max()) if values.size else float("inf"),
        singular=tuple(singular),
        changes=changes,
        fills=fills.astype(int),
    )


def gamma_search(op: OperatorMatrix, beta: float, radii, seed: int = 0):
    """Smallest tried shift gamma for which the sector scan has no singular
    samples: 0, then 1, 4, 16, ... up to GAMMA_LIMIT."""
    gamma = 0.0
    while True:
        result = sector_scan(op, beta, radii, gamma=gamma, seed=seed)
        if result.passed:
            return gamma, result
        gamma = 4.0 * max(gamma, 0.25)
        if gamma > GAMMA_LIMIT:
            raise NumericsError(f"no shift up to {GAMMA_LIMIT:g} made the sector scan regular")


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
) -> PerturbationReport:
    """Check that the bounded part is small relative to the principal part.

    Random states (seed 0) give pairs (||B x||, ||A0 x||, ||x||) in the
    quadrature norm; a least-squares fit of the relative bound is compared
    against the reciprocal of the principal part's sector bound.
    """
    if a0.shape != b.shape:
        raise ConfigError("principal and bounded parts must have equal shape")
    rng = np.random.default_rng(0)
    gram = _weight_gram(a0)
    norm = lambda z: np.sqrt(float(z @ (gram @ z)))
    rows = np.empty((PERTURBATION_SAMPLES, 2))
    lhs = np.empty(PERTURBATION_SAMPLES)
    for k in range(PERTURBATION_SAMPLES):
        x = rng.standard_normal(a0.shape[0])
        x /= norm(x)
        rows[k, 0] = norm(a0.matrix @ x)
        rows[k, 1] = 1.0
        lhs[k] = norm(b.matrix @ x)
    coef, *_ = np.linalg.lstsq(rows, lhs, rcond=None)
    a_fit = float(max(coef[0], 0.0))
    b_fit = float(max(coef[1], 0.0))
    scan = sector_scan(a0, beta, PERTURBATION_RADII, gamma=gamma, seed=0)
    condition_ok = bool(scan.passed and a_fit * scan.m_hat < 1.0)
    return PerturbationReport(
        a=a_fit, b=b_fit, m_hat=scan.m_hat,
        condition_ok=condition_ok, n_samples=PERTURBATION_SAMPLES,
    )

"""Time-steppers for the linearized subsystems on the reference rectangle.

The four subproblems decouple in a cascade: the damped clamped beam
solves on its own, the velocity solve consumes the fresh beam trace,
the temperature solve is independent of both, and the density update
consumes the fresh velocity. Variable coefficients are frozen at the
initial map's metric tensors; everything the moving geometry does
beyond that enters through source terms.

Implicit steps are backward Euler. Velocity boundary conditions are
Dirichlet constraint rows; the temperature solve is a control-volume
balance whose boundary boxes absorb the prescribed conormal flux. The
density equation has no spatial coupling and updates nodewise by the
trapezoid rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .chgvar import DiffeoMap
from .core_grid import BeamField, FluidField, Grid2D, _per_sample, _trapezoid_widths, beam_embed, build_grid
from .errors import ConfigError, NumericsError

__all__ = [
    "PhysParams",
    "SourceBundle",
    "default_params",
    "VelocityStepper",
    "TemperatureStepper",
    "step_plate",
    "step_density",
    "solve_lift_Dv",
    "plate_operator",
    "plate_energy",
    "manufactured_convergence",
    "ConvergenceReport",
]


@dataclass(frozen=True)
class PhysParams:
    """Physical constants of the model.

    kappa_bar is the reduced heat diffusivity kappa / (c_v rho_bar).
    Global (perturbation) mode additionally requires the reference
    pressure closure pi0 = -R0 rho_bar theta_bar.
    """

    mu: float = 1.0
    alpha: float = 0.0
    kappa: float = 1.0
    c_v: float = 1.0
    R0: float = 1.0
    pi0: float = -1.0
    rho_bar: float = 1.0
    theta_bar: float = 1.0

    def __post_init__(self):
        problems = []
        if not 0 < self.mu < math.inf:
            problems.append(f"shear viscosity mu must be positive and finite, got {self.mu:g}")
        for key in ("alpha", "pi0"):
            if not math.isfinite(getattr(self, key)):
                problems.append(f"{key} must be finite, got {getattr(self, key):g}")
        combined = self.alpha + 2.0 * self.mu / 3.0
        if not combined > 0:
            problems.append(f"alpha + 2*mu/3 = {combined:g} <= 0; the combined viscosity must be positive")
        for key in ("kappa", "c_v", "R0", "rho_bar", "theta_bar"):
            if not 0 < getattr(self, key) < math.inf:
                problems.append(f"{key} must be positive and finite, got {getattr(self, key):g}")
        if problems:
            raise ConfigError.from_problems(problems)

    @property
    def kappa_bar(self) -> float:
        return self.kappa / (self.c_v * self.rho_bar)

    @property
    def is_global(self) -> bool:
        p_bar = self.R0 * self.rho_bar * self.theta_bar
        return abs(self.pi0 + p_bar) <= 1e-12 * abs(p_bar)

    def require_global(self):
        if not self.is_global:
            raise ConfigError.from_problems([
                f"mode=global requires the balanced background pressure pi0 = "
                f"-R0*rho_bar*theta_bar = {-self.R0 * self.rho_bar * self.theta_bar!r}, got {self.pi0!r}"
            ])


def default_params(**overrides) -> PhysParams:
    return PhysParams(**overrides)


@dataclass(frozen=True)
class SourceBundle:
    """Time series of the six source slots driving one linear march.

    Arrays stack time along axis 0 on a shared uniform time grid:
    f1 (nt, nx+1, ny+1), f2 (nt, nx+1, ny+1, 2), f3 like f1, g like f1
    with meaningful values on boundary nodes only, h (nt, nx+1) on the
    beam. h_hat (nt,) carries a spatially constant beam forcing series
    kept separate from h, zeros unless given; the plate consumes h + h_hat.
    """

    grid: Grid2D
    dt: float
    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray
    g: np.ndarray
    h: np.ndarray
    h_hat: np.ndarray | None = None

    def __post_init__(self):
        shp = self.grid.shape
        nt = self.f1.shape[0]
        if not self.dt > 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.f1.shape != (nt,) + shp or self.f3.shape != (nt,) + shp or self.g.shape != (nt,) + shp:
            raise ConfigError("scalar source series must have shape (nt, nx+1, ny+1)")
        if self.f2.shape != (nt,) + shp + (2,):
            raise ConfigError("f2 series must have shape (nt, nx+1, ny+1, 2)")
        if self.h.shape != (nt, self.grid.nx + 1):
            raise ConfigError("h series must have shape (nt, nx+1)")
        if self.h_hat is None:
            object.__setattr__(self, "h_hat", np.zeros(nt))
        elif self.h_hat.shape != (nt,):
            raise ConfigError("h_hat series must have shape (nt,)")

    @property
    def nt(self) -> int:
        return self.f1.shape[0]

    def h_total(self, n: int) -> np.ndarray:
        return self.h[n] + self.h_hat[n]

    @staticmethod
    def zeros(grid: Grid2D, nt: int, dt: float) -> "SourceBundle":
        shp = grid.shape
        return SourceBundle(
            grid,
            dt,
            np.zeros((nt,) + shp),
            np.zeros((nt,) + shp + (2,)),
            np.zeros((nt,) + shp),
            np.zeros((nt,) + shp),
            np.zeros((nt, grid.nx + 1)),
        )


def _identity_metric(grid: Grid2D) -> np.ndarray:
    """The identity matrix field: the metric tensors of the identity map."""
    eye = np.zeros(grid.shape + (2, 2))
    eye[..., 0, 0] = eye[..., 1, 1] = 1.0
    return eye


def _identity_metrics(grid: Grid2D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The metric triplet (B, delta, A) = (I, 1, I) of the identity map."""
    eye = _identity_metric(grid)
    return eye, np.ones(grid.shape), eye


def _as_metrics(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if isinstance(m, DiffeoMap):
        return m.B, m.delta, m.A
    B, delta, A = m
    return np.asarray(B), np.asarray(delta), np.asarray(A)


def _field_values(f, grid, kind="scalar"):
    if isinstance(f, (FluidField, BeamField)):
        return f.values
    arr = np.asarray(f, dtype=float)
    want = {"scalar": grid.shape, "vector": grid.shape + (2,), "beam": (grid.nx + 1,)}[kind]
    if arr.shape != want:
        raise ConfigError(f"expected array of shape {want}, got {arr.shape}")
    return arr


# ------------------------------------------------------------------ plate


def plate_operator(grid: Grid2D) -> np.ndarray:
    """First-order beam operator on interior nodes: d/dt (e1, e2) = A (e1, e2)."""
    m = grid.nx - 1
    A = np.zeros((2 * m, 2 * m))
    A[:m, m:] = np.eye(m)
    A[m:, :m] = -grid.ops.bih_clamped
    A[m:, m:] = grid.ops.lap_s
    return A


def plate_energy(eta1: BeamField, eta2: BeamField) -> float | np.ndarray:
    """Beam energy with the clamped closure.

    Half the squared trapezoid norms of the velocity and of the second
    derivative, the latter realized through the clamped operator's
    quadratic form so that implicit stepping dissipates it exactly. A
    stack gets one energy per sample, each from the BLAS products of the
    sample alone: batched products round differently.
    """
    grid = eta1.grid
    bih = grid.ops.bih_clamped
    e1 = eta1.values[..., 1:-1].reshape(-1, grid.nx - 1)
    e2 = eta2.values[..., 1:-1].reshape(-1, grid.nx - 1)
    energy = [0.5 * grid.hx * (b @ b + a @ (bih @ a)) for a, b in zip(e1, e2)]
    return _per_sample(np.reshape(energy, eta1.values.shape[:-1]))


def step_plate(eta1: BeamField, eta2: BeamField, h_src: BeamField, dt: float):
    """One backward Euler step of the damped clamped beam in first-order form.

    The dense factor of I - dt A is rebuilt on every call: it is small,
    and nothing outlives the step.
    """
    grid = eta1.grid
    if not dt > 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    m = grid.nx - 1
    x = np.concatenate([eta1.values[1:-1], eta2.values[1:-1]])
    src = np.concatenate([np.zeros(m), h_src.values[1:-1]])
    try:
        factor = scipy.linalg.lu_factor(np.eye(2 * m) - dt * plate_operator(grid))
        xn = scipy.linalg.lu_solve(factor, x + dt * src)
    except scipy.linalg.LinAlgError as e:  # pragma: no cover
        raise NumericsError(f"plate solve failed: {e}") from e
    if not np.all(np.isfinite(xn)):
        raise NumericsError("plate solve produced non-finite values")
    return (
        BeamField(grid, beam_embed(grid, xn[:m]), clamped=True),
        BeamField(grid, beam_embed(grid, xn[m:]), clamped=True),
    )


# ------------------------------------------------------------------ sparse assembly


def _flux_second_difference(grid: Grid2D, a: np.ndarray, axis: int) -> sp.csr_matrix:
    """Compact conservative scheme for d_axis(a d_axis u), rows at axis-interior nodes."""
    nxp, nyp = grid.shape
    N = grid.n_nodes
    h2 = (grid.hx if axis == 0 else grid.hy) ** 2
    idx = np.arange(N).reshape(nxp, nyp)
    if axis == 0:
        rows = idx[1:-1, :]
        plus, minus = idx[2:, :], idx[:-2, :]
        a_plus = 0.5 * (a[1:-1, :] + a[2:, :])
        a_minus = 0.5 * (a[1:-1, :] + a[:-2, :])
    else:
        rows = idx[:, 1:-1]
        plus, minus = idx[:, 2:], idx[:, :-2]
        a_plus = 0.5 * (a[:, 1:-1] + a[:, 2:])
        a_minus = 0.5 * (a[:, 1:-1] + a[:, :-2])
    r = rows.ravel()
    data = np.concatenate([a_plus.ravel(), -(a_plus + a_minus).ravel(), a_minus.ravel()]) / h2
    cols = np.concatenate([plus.ravel(), r, minus.ravel()])
    return sp.coo_matrix((data, (np.tile(r, 3), cols)), shape=(N, N)).tocsr()


def _aniso_diffusion(grid: Grid2D, K: np.ndarray) -> sp.csr_matrix:
    """Matrix for u -> sum_{b,c} d_b (K[..., b, c] d_c u).

    Equal-index terms use the compact conservative stencil, mixed terms
    the composition of centered first differences. Rows at boundary
    nodes are incomplete by construction and must be overwritten by
    whatever constraint the caller imposes there. A term whose
    coefficient vanishes everywhere (the mixed terms of an identity
    metric) is skipped; adding it would change no entry.
    """
    Dx, Dy = grid.ops.Dx, grid.ops.Dy
    terms = (
        (K[..., 0, 0], lambda k: _flux_second_difference(grid, k, 0)),
        (K[..., 1, 1], lambda k: _flux_second_difference(grid, k, 1)),
        (K[..., 0, 1], lambda k: Dx @ sp.diags(k.ravel()) @ Dy),
        (K[..., 1, 0], lambda k: Dy @ sp.diags(k.ravel()) @ Dx),
    )
    m = sp.csr_matrix((grid.n_nodes, grid.n_nodes))
    for k, term in terms:
        if np.any(k):
            m = m + term(k)
    return m.tocsr()


def _viscous_operator(grid: Grid2D, metrics, params: PhysParams) -> sp.csr_matrix:
    """Matrix for v -> div T0(v) on the stacked components (vx, vy).

    T0(v) = mu grad(v) A0 + ((mu + alpha) / delta0) B0 grad(v)^T B0 with
    the metric triplet (B0, delta0, A0); rows at boundary nodes are
    incomplete as in _aniso_diffusion.
    """
    B0, delta0, A0 = metrics
    coef = (params.mu + params.alpha) / delta0
    blocks = []
    for a in (0, 1):
        row = []
        for d in (0, 1):
            K = coef[..., None, None] * np.einsum("...b,...c->...bc", B0[..., d, :], B0[..., a, :])
            if a == d:
                K = K + params.mu * A0
            row.append(_aniso_diffusion(grid, K))
        blocks.append(row)
    return sp.bmat(blocks, format="csr")


def _rest_viscous_operator(grid: Grid2D, params: PhysParams) -> sp.csr_matrix:
    """The viscous operator at the rest state, identity metrics and
    density rho_bar: (mu Lap + (mu + alpha) grad div) / rho_bar."""
    return _viscous_operator(grid, _identity_metrics(grid), params) / params.rho_bar


def _fv_diffusion(grid: Grid2D, K: np.ndarray):
    """Vertex-centered flux balance for u -> div(K grad u) with flux data.

    Every node owns the control box [x-wx/2, x+wx/2] x [y-wy/2, y+wy/2]
    clipped to the domain. Interior faces carry K grad(u) . n with the
    normal part as a two-point difference and the tangential part as the
    face average of the full-grid first-difference rows, so boundary
    boxes stay second-order accurate in the global sense. Faces on the
    physical boundary are left to the prescribed conormal flux: the
    returned scale field maps nodewise flux data g to its contribution
    g * (boundary face length) / |box| on the balance right-hand side
    (zero at interior nodes). Box-weighted column sums of the matrix
    vanish identically, so the discrete integral of u evolves only
    through sources and the prescribed flux.
    """
    nxp, nyp = grid.shape
    N = grid.n_nodes
    hx, hy = grid.hx, grid.hy
    Dx, Dy = grid.ops.Dx, grid.ops.Dy
    idx = np.arange(N).reshape(nxp, nyp)
    wx, wy = _trapezoid_widths(nxp, hx), _trapezoid_widths(nyp, hy)
    box = grid.weights

    def face_ops(axis):
        if axis == 0:
            left, right, h = idx[:-1, :], idx[1:, :], hx
            length = np.broadcast_to(wy, left.shape)
            k_nn = K[..., 0, 0]
            k_nt = K[..., 0, 1]
            Dt = Dy
        else:
            left, right, h = idx[:, :-1], idx[:, 1:], hy
            length = np.broadcast_to(wx[:, None], left.shape)
            k_nn = K[..., 1, 1]
            k_nt = K[..., 1, 0]
            Dt = Dx
        nfaces = left.size
        l, r = left.ravel(), right.ravel()
        rows = np.arange(nfaces)
        diff = sp.coo_matrix(
            (np.concatenate([np.full(nfaces, 1.0 / h), np.full(nfaces, -1.0 / h)]),
             (np.tile(rows, 2), np.concatenate([r, l]))),
            shape=(nfaces, N),
        ).tocsr()
        avg = sp.coo_matrix(
            (np.full(2 * nfaces, 0.5), (np.tile(rows, 2), np.concatenate([r, l]))),
            shape=(nfaces, N),
        ).tocsr()
        a_nn = 0.5 * (k_nn.ravel()[l] + k_nn.ravel()[r])
        a_nt = 0.5 * (k_nt.ravel()[l] + k_nt.ravel()[r])
        flux = sp.diags(a_nn) @ diff + sp.diags(a_nt) @ (avg @ Dt)
        # balance: +flux on the box left of the face, -flux on the right box
        inc = sp.coo_matrix(
            (np.concatenate([length.ravel() / box.ravel()[l], -length.ravel() / box.ravel()[r]]),
             (np.concatenate([l, r]), np.tile(rows, 2))),
            shape=(N, nfaces),
        ).tocsr()
        return inc @ flux

    op = (face_ops(0) + face_ops(1)).tocsr()
    boundary_len = np.zeros(grid.shape)
    boundary_len[0, :] += wy
    boundary_len[-1, :] += wy
    boundary_len[:, 0] += wx
    boundary_len[:, -1] += wx
    return op, boundary_len / box


def _frozen_coefficients(grid: Grid2D, X0metrics, rho0, dt: float):
    """Metric triplet and density nodes a frozen-coefficient stepper is built on."""
    if not dt > 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    r0 = _field_values(rho0, grid)
    if np.min(r0) <= 0:
        raise ConfigError("initial density must be positive nodewise")
    return _as_metrics(X0metrics), r0


def _check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericsError(f"{what} produced non-finite values")
    return arr


def _splu(M: sp.spmatrix, what: str):
    """Sparse LU of M; nothing else in the package factors a sparse matrix.

    One ordering rule for every factor: minimum degree on the pattern of
    M^T + M in SuperLU's symmetric mode, pivoting off the diagonal only
    when it falls under a hundredth of its column's largest entry. The
    matrices here are structurally symmetric or nearly so, and get about
    half the fill of SuperLU's default column ordering (COLAMD). Near
    lam = 0 the density diagonal of lam I - A falls under a tenth of its
    pressure-gradient column on fine grids; a threshold of 0.1 pivots
    there and loses the ordering (six times the fill at nx64). Resolvent
    solves and sector samples check their residuals, so a small pivot
    cannot pass unnoticed there.
    """
    try:
        return spla.splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.01, options=dict(SymmetricMode=True))
    except RuntimeError as e:
        raise NumericsError(f"{what} factorization failed: {e}") from e


# ------------------------------------------------------------------ velocity


def _velocity_unknowns(grid: Grid2D) -> tuple[np.ndarray, np.ndarray]:
    """(inner, trace): positions in the component-major stack (vx, vy) of
    node values. `inner` holds the unknowns of every velocity solve, both
    components at interior nodes; `trace` holds vy on the top edge, which
    equals the beam velocity. Every other position lies on a wall, where
    the velocity is zero."""
    interior = grid.mask_interior.ravel()
    return np.flatnonzero(np.concatenate([interior, interior])), grid.n_nodes + np.flatnonzero(grid.mask_top)


def _restrict_velocity(grid: Grid2D, L: sp.spmatrix) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Rows of an operator L on stacked velocities at the unknowns, split
    into the columns of the unknowns and of the beam trace; the wall
    columns meet zero velocities and drop out."""
    inner, trace = _velocity_unknowns(grid)
    rows = L.tocsr()[inner]
    return rows[:, inner], rows[:, trace]


class _PinnedVelocity:
    """Solves (shift - L) v = rhs for v pinned to zero on the walls and to
    the beam trace (vertical component) on the top edge. Only the
    unknowns of `_velocity_unknowns` are factored, so the matrix is
    structurally symmetric; the trace reaches the interior rows through
    L's interior-to-top block, and the boundary values are exact by
    construction."""

    def __init__(self, grid: Grid2D, L: sp.spmatrix, shift: float, what: str):
        self.grid = grid
        self.what = what
        self._inner, self._trace = _velocity_unknowns(grid)
        own, self._carry = _restrict_velocity(grid, L)
        self._lu = _splu(shift * sp.eye(self._inner.size) - own, what)

    def solve(self, rhs: np.ndarray, e2: np.ndarray) -> np.ndarray:
        """rhs (nx+1, ny+1, 2) is read at interior nodes; e2 is the beam trace on nx+1 nodes."""
        grid = self.grid
        trace = e2[1:-1]
        b = np.moveaxis(rhs, -1, 0).reshape(-1)[self._inner] + self._carry @ trace
        flat = np.zeros(2 * grid.n_nodes)
        flat[self._inner] = _check_finite(self._lu.solve(b), f"{self.what} solve")
        flat[self._trace] = trace
        return np.stack(flat.reshape((2,) + grid.shape), axis=-1)


class VelocityStepper:
    """Implicit stepper for the frozen-coefficient momentum equation.

    Interior nodes advance dv/dt = (1 / (rho0 delta0)) div T0(v) + f2
    with T0(v) = mu grad(v) A0 + ((mu + alpha) / delta0) B0 grad(v)^T B0.
    v is pinned to the beam trace on the top edge and to zero on the
    walls, and the factored system holds the interior unknowns only
    (`_PinnedVelocity`).
    """

    def __init__(self, grid: Grid2D, X0metrics, rho0, params: PhysParams, dt: float):
        metrics, r0 = _frozen_coefficients(grid, X0metrics, rho0, dt)
        self.grid = grid
        self.dt = float(dt)
        scale = sp.diags(np.tile(1.0 / (r0 * metrics[1]).ravel(), 2))
        L = scale @ _viscous_operator(grid, metrics, params)
        self._pinned = _PinnedVelocity(grid, L, 1.0 / dt, "velocity")

    def step(self, v, eta2, f2) -> np.ndarray:
        grid = self.grid
        vv = _field_values(v, grid, "vector")
        ff = _field_values(f2, grid, "vector")
        e2 = _field_values(eta2, grid, "beam")
        return self._pinned.solve(vv / self.dt + ff, e2)


# ------------------------------------------------------------------ temperature


class TemperatureStepper:
    """Implicit stepper for the frozen-coefficient heat equation.

    Advances dtheta/dt + gamma1 theta =
    (kappa / (c_v rho0 delta0)) div(A0 grad theta) + f3 with the conormal
    flux A0 grad(theta) . n = g. Every node carries a control-volume
    balance; boundary boxes receive the prescribed flux g through their
    physical faces, which keeps the box-weighted integral of theta exact
    against sources and keeps the observed spatial order at two (the
    extrapolation closure stalls near 1.5 on practical grids).
    """

    def __init__(self, grid: Grid2D, X0metrics, rho0, params: PhysParams, dt: float, gamma1: float = 0.0):
        (_, delta0, A0), r0 = _frozen_coefficients(grid, X0metrics, rho0, dt)
        if gamma1 < 0:
            raise ConfigError(f"gamma1 must be nonnegative, got {gamma1}")
        self.grid = grid
        self.dt = float(dt)
        coef = params.kappa / (params.c_v * r0 * delta0)
        balance, flux_scale = _fv_diffusion(grid, A0)
        self._g_scale = coef * flux_scale
        eye = sp.eye(grid.n_nodes, format="csr")
        M = (1.0 / dt + gamma1) * eye - sp.diags(coef.ravel()) @ balance
        self._lu = _splu(M, "temperature")

    def step(self, theta, f3, g) -> np.ndarray:
        grid = self.grid
        th = _field_values(theta, grid).ravel()
        f = _field_values(f3, grid).ravel()
        gv = _field_values(g, grid)
        rhs = th / self.dt + f + (self._g_scale * gv).ravel()
        sol = _check_finite(self._lu.solve(rhs), "temperature solve")
        return sol.reshape(grid.shape)


# ------------------------------------------------------------------ density


def step_density(rho, v, f1, X0metrics, rho0, dt, v_prev=None, f1_prev=None) -> np.ndarray:
    """Nodewise trapezoid update of d rho/dt = f1 - (rho0/delta0) grad(v):B0.

    There is no spatial coupling. When the previous-endpoint arguments
    are omitted the rate is taken from the supplied endpoint alone,
    which is the backward rectangle rule.
    """
    if not dt > 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    grid = rho.grid if isinstance(rho, FluidField) else None
    if grid is None:
        raise ConfigError("rho must be a FluidField so the grid is known")
    B0, delta0, _ = _as_metrics(X0metrics)
    r0 = _field_values(rho0, grid)
    ops = grid.ops

    def rate(vv, ff):
        gv = ops.grad_vector(_field_values(vv, grid, "vector"))
        return _field_values(ff, grid) - (r0 / delta0) * np.einsum("...ab,...ab->...", gv, B0)

    r_new = rate(v, f1)
    if v_prev is None:
        incr = dt * r_new
    else:
        incr = 0.5 * dt * (rate(v_prev, f1_prev if f1_prev is not None else f1) + r_new)
    return _field_values(rho, grid) + incr


# ------------------------------------------------------------------ steady lifting


def solve_lift_Dv(eta2: BeamField, params: PhysParams) -> np.ndarray:
    """Steady velocity lifting of a beam trace.

    Solves (mu/rho_bar) Lap(w) + ((alpha+mu)/rho_bar) grad(div w) = 0 with
    w = eta2 e2 on the top edge and w = 0 on the walls.
    """
    params.require_global()
    grid = eta2.grid
    L = _rest_viscous_operator(grid, params)
    return _PinnedVelocity(grid, L, 0.0, "lifting").solve(np.zeros(grid.shape + (2,)), eta2.values)


# ------------------------------------------------------------------ manufactured harness


@dataclass(frozen=True)
class ConvergenceReport:
    stepper: str
    family: str
    mode: str
    resolutions: tuple
    errors: tuple
    orders: tuple

    @property
    def mean_order(self) -> float:
        return float(np.mean(self.orders))


def _heat_family(grid: Grid2D, params: PhysParams):
    # theta = e^-t cos(pi x) cos(pi y); zero conormal flux on every edge
    kb = params.kappa / params.c_v  # rho0 = 1, identity metrics
    cx, cy = np.cos(np.pi * grid.xx), np.cos(np.pi * grid.yy)

    def exact(t):
        return np.exp(-t) * cx * cy

    def forcing(t):
        return (-1.0 + 2.0 * np.pi**2 * kb) * exact(t)

    return exact, forcing


def _velocity_family(grid: Grid2D, params: PhysParams):
    # v = e^-t (sin(pi x) sin(pi y), 0); vanishes on the whole boundary
    mu, al = params.mu, params.alpha
    sx, sy = np.sin(np.pi * grid.xx), np.sin(np.pi * grid.yy)
    profile = np.empty(grid.shape + (2,))
    profile[..., 0] = (-1.0 + 2.0 * np.pi**2 * mu + np.pi**2 * (mu + al)) * (sx * sy)
    profile[..., 1] = -(mu + al) * np.pi**2 * (np.cos(np.pi * grid.xx) * np.cos(np.pi * grid.yy))

    def exact(t):
        out = np.zeros(grid.shape + (2,))
        out[..., 0] = np.exp(-t) * sx * sy
        return out

    def forcing(t):
        return np.exp(-t) * profile

    return exact, forcing


def _plate_family():
    # eta1 = e^-t x^2 (1-x)^2, clamped at both ends

    def exact(t, x):
        P = x**2 * (1 - x) ** 2
        return np.exp(-t) * P, -np.exp(-t) * P

    def forcing(t, x):
        P = x**2 * (1 - x) ** 2
        Pdd = 2.0 - 12.0 * x + 12.0 * x**2
        return np.exp(-t) * (P + 24.0 + Pdd)

    return exact, forcing


def _plate_family_discrete(grid):
    # same polynomial, but forced so its samples solve the spatially
    # discretized plate system exactly at every time
    ops = grid.ops
    P = grid.x**2 * (1 - grid.x) ** 2
    h_nodes = beam_embed(grid, P[1:-1] + ops.bih_clamped @ P[1:-1] + ops.lap_s @ P[1:-1])

    def exact(t, x):
        return np.exp(-t) * P, -np.exp(-t) * P

    def forcing(t, x):
        return np.exp(-t) * h_nodes

    return exact, forcing


def _march_family(stepper: str, grid: Grid2D, params: PhysParams, dt: float, n_steps: int, discrete: bool):
    """March a stepper's closed-form family n_steps of dt from its exact
    initial value; returns the final field and the family's exact solution
    as a function of time. `discrete` picks the plate family whose samples
    solve the semi-discrete system, so that only the time-integration error
    is left."""
    if stepper == "plate":
        exact, forcing = _plate_family_discrete(grid) if discrete else _plate_family()
        eta1, eta2 = (BeamField(grid, e, clamped=True) for e in exact(0.0, grid.x))
        for n in range(n_steps):
            eta1, eta2 = step_plate(eta1, eta2, BeamField(grid, forcing((n + 1) * dt, grid.x)), dt)
        return eta1.values, lambda t: exact(t, grid.x)[0]
    metrics, ones = _identity_metrics(grid), np.ones(grid.shape)
    if stepper == "heat":
        exact, forcing = _heat_family(grid, params)
        step = TemperatureStepper(grid, metrics, ones, params, dt).step
        zero_g = np.zeros(grid.shape)
        advance = lambda th, f: step(th, f, zero_g)
    else:
        exact, forcing = _velocity_family(grid, params)
        step = VelocityStepper(grid, metrics, ones, params, dt).step
        zero_e2 = np.zeros(grid.nx + 1)
        advance = lambda v, f: step(v, zero_e2, f)
    u = exact(0.0)
    for n in range(n_steps):
        u = advance(u, forcing((n + 1) * dt))
    return u, exact


def manufactured_convergence(stepper: str, family: str, resolutions, mode: str = "spatial", params: PhysParams | None = None) -> ConvergenceReport:
    """Observed convergence orders against a closed-form solution.

    Spatial mode refines the grid with the time step tied to h^2 so the
    first-order temporal error of backward Euler tracks the O(h^2)
    spatial target. Temporal mode fixes the grid and compares Richardson
    differences between successive step counts.
    """
    if mode not in ("spatial", "temporal"):
        raise ConfigError(f"unknown mode {mode!r}")
    if stepper not in ("heat", "velocity", "plate"):
        raise ConfigError(f"unknown stepper id {stepper!r}")
    resolutions = tuple(int(r) for r in resolutions)
    need = 2 if mode == "spatial" else 3
    if len(resolutions) < need:
        raise ConfigError(f"{mode} convergence needs at least {need} resolutions, got {len(resolutions)}")
    params = params or PhysParams()
    T = 0.05
    if mode == "spatial":
        errors = []
        for n in resolutions:
            n_steps = int(round(16 * (n / resolutions[0]) ** 2))
            got, exact = _march_family(stepper, build_grid(1.0, 1.0, n, n), params, T / n_steps, n_steps, False)
            errors.append(float(np.max(np.abs(got - exact(T)))))
    else:
        grid = build_grid(1.0, 1.0, 32, 32)
        sols = [_march_family(stepper, grid, params, T / r, r, True)[0] for r in resolutions]
        errors = [float(np.max(np.abs(a - b))) for a, b in zip(sols, sols[1:])]
    orders = tuple(
        float(np.log(errors[i] / errors[i + 1]) / np.log(resolutions[i + 1] / resolutions[i]))
        for i in range(len(errors) - 1)
    )
    if mode == "temporal":
        resolutions = resolutions[:-1]
    return ConvergenceReport(stepper, family, mode, resolutions, tuple(errors), orders)

"""Lagrangian change of variables.

Builds the initial map that flattens the displaced top edge onto the
reference rectangle, advances the running map from the velocity history,
computes the cofactor/determinant/conormal tensor triplet, and certifies
that the map stays a diffeomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core_grid import BeamField, Grid2D, _cumtrapz, _sample_blocks
from .errors import ConfigError, DiffeoFailure, GeometryError, _rebased

__all__ = [
    "CutoffProfile",
    "DiffeoMap",
    "DiffeoCertificate",
    "build_cutoff",
    "initial_diffeo",
    "update_map",
    "metric_tensors",
    "build_diffeo",
    "diffeo_series",
    "check_diffeo",
    "suggested_floor",
]


def _smoothstep(t: np.ndarray) -> np.ndarray:
    # quintic blend, value/slope/curvature match at both ends (C^2)
    t = np.clip(t, 0.0, 1.0)
    return t**3 * (10.0 - 15.0 * t + 6.0 * t**2)


@dataclass(frozen=True)
class CutoffProfile:
    """Vertical C^2 cutoff, 1 in a band around the top edge, 0 near the bottom wall.

    The profile rises from 0 at eta_minus - ramp to 1 at eta_minus,
    stays 1 through eta_plus, and falls back to 0 at eta_plus + ramp
    (the upper ramp only matters above the reference rectangle, where
    flow trajectories of displaced nodes may travel). It is constant
    along x: admissible edge displacements vanish at the clamped ends,
    so the side walls need no horizontal cutoff.
    """

    grid: Grid2D
    eta_minus: float
    eta_plus: float
    ramp: float

    def __post_init__(self):
        if not (-self.grid.H < self.eta_minus < 0.0 < self.eta_plus):
            raise ConfigError("need -H < eta_minus < 0 < eta_plus")
        if not self.ramp > 0:
            raise ConfigError("ramp width must be positive")
        if self.eta_minus - self.ramp < -self.grid.H:
            raise ConfigError("lower ramp reaches below the bottom wall")

    def psi_y(self, y):
        y = np.asarray(y, dtype=float)
        rise = _smoothstep((y - (self.eta_minus - self.ramp)) / self.ramp)
        fall = 1.0 - _smoothstep((y - self.eta_plus) / self.ramp)
        return rise * fall

    @cached_property
    def samples(self) -> np.ndarray:
        """Cutoff values at the grid nodes."""
        return self.psi_y(self.grid.yy)


def build_cutoff(grid: Grid2D) -> CutoffProfile:
    """Cutoff with margins and ramps at a quarter of the depth."""
    quarter = 0.25 * grid.H
    return CutoffProfile(grid, -quarter, quarter, quarter)


@dataclass(frozen=True)
class DiffeoMap:
    """Map samples with their metric triplet.

    X holds positions, B the cofactor of the centered-difference
    Jacobian, delta its determinant and A = B^T B / delta the conormal
    tensor. All tensors live at fluid grid nodes; a map series stacks
    its samples along a leading time axis of every array.
    """

    grid: Grid2D
    X: np.ndarray
    B: np.ndarray
    delta: np.ndarray
    A: np.ndarray

    @property
    def gradX(self) -> np.ndarray:
        """The Jacobian, read off B: the 2x2 cofactor only moves and
        negates entries, so taken twice it gives back every bit."""
        return _cof2(self.B)

    @property
    def min_delta(self) -> float:
        return float(np.min(self.delta))

    def sample(self, n: int) -> "DiffeoMap":
        """The n-th map of a series, as views into its arrays (a slice keeps a series)."""
        return DiffeoMap(self.grid, self.X[n], self.B[n], self.delta[n], self.A[n])

    @staticmethod
    def stack(maps) -> "DiffeoMap":
        """Stack single maps into a series along a leading time axis."""
        fields = ("X", "B", "delta", "A")
        return DiffeoMap(maps[0].grid, *(np.stack([getattr(m, f) for m in maps]) for f in fields))


@dataclass(frozen=True)
class DiffeoCertificate:
    min_delta: float
    min_eig_A: float
    c0: float
    passed: bool
    worst_node: tuple[int, int]


def _cof2(g: np.ndarray) -> np.ndarray:
    # Cof [[a, b], [c, d]] = [[d, -c], [-b, a]]
    out = np.empty_like(g)
    out[..., 0, 0] = g[..., 1, 1]
    out[..., 0, 1] = -g[..., 1, 0]
    out[..., 1, 0] = -g[..., 0, 1]
    out[..., 1, 1] = g[..., 0, 0]
    return out


def _det2(g: np.ndarray) -> np.ndarray:
    return g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]


def _conormal(B: np.ndarray, delta: np.ndarray) -> np.ndarray:
    # B^T B / delta written out: one off-diagonal product serves both
    # corners, so the result is symmetric bit for bit
    b00, b01, b10, b11 = B[..., 0, 0], B[..., 0, 1], B[..., 1, 0], B[..., 1, 1]
    A = np.empty(B.shape)
    A[..., 0, 0] = (b00 * b00 + b10 * b10) / delta
    A[..., 1, 1] = (b01 * b01 + b11 * b11) / delta
    A[..., 0, 1] = A[..., 1, 0] = (b00 * b01 + b10 * b11) / delta
    return A


def _floor_failure(delta: np.ndarray, c0: float) -> DiffeoFailure | None:
    """The first sample whose determinant is <= 0, or <= c0 when c0 > 0.

    delta is one sample or a stack along a leading axis; the failure
    names the node inside the failing sample, and for a stack also the
    sample index. None when every sample clears the floor.
    """
    stack = delta.reshape((-1,) + delta.shape[-2:])
    lows = np.min(stack, axis=(1, 2))
    hit = lows <= max(c0, 0.0)
    if not np.any(hit):
        return None
    k = int(np.argmax(hit))
    d = stack[k]
    node = tuple(int(i) for i in np.unravel_index(int(np.argmin(d)), d.shape))
    if lows[k] <= 0.0:
        message = f"Jacobian determinant {d[node]:.3e} <= 0 at node {node}"
    else:
        message = f"Jacobian determinant {d[node]:.3e} fell to floor {c0:.3e} at node {node}"
    return DiffeoFailure(message, node=node, value=float(d[node]), sample=k if delta.ndim == 3 else None)


def metric_tensors(grid: Grid2D, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cofactor matrix, Jacobian determinant, and conormal tensor of a map.

    X may carry a leading time axis. A determinant <= 0 anywhere raises
    the diffeomorphism failure at the first such sample.
    """
    g = grid.ops.grad_vector(X)
    B, delta = _cof2(g), _det2(g)
    err = _floor_failure(delta, 0.0)
    if err is not None:
        raise err
    return B, delta, _conormal(B, delta)


def diffeo_series(grid: Grid2D, X: np.ndarray, c0: float = 0.0) -> tuple[DiffeoMap, DiffeoFailure | None]:
    """Maps for stacked position samples (nt, nx+1, ny+1, 2), up to the first failure.

    Returns the map series of the samples before the first one whose
    determinant reaches the floor (<= 0, or <= c0 when c0 > 0), and
    that failure, or None when all samples clear it. Every sample is
    bit for bit what build_diffeo gives for it alone. The tensors are
    built one block of samples at a time into stacks allocated once, and
    the build stops at the block that holds the failure.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 4 or X.shape[1:] != grid.shape + (2,):
        raise ConfigError(f"map series has shape {X.shape}, expected (nt,) + {grid.shape + (2,)}")
    B = np.empty(X.shape + (2,))
    delta = np.empty(X.shape[:-1])
    A = np.empty_like(B)
    for sl in _sample_blocks(len(X), grid.n_nodes):
        gradX = grid.ops.grad_vector(X[sl])
        delta[sl] = _det2(gradX)
        err = _floor_failure(delta[sl], c0)
        end = sl.stop if err is None else sl.start + err.sample
        B[sl.start : end] = _cof2(gradX[: end - sl.start])
        A[sl.start : end] = _conormal(B[sl.start : end], delta[sl.start : end])
        if err is not None:
            return DiffeoMap(grid, X[:end], B[:end], delta[:end], A[:end]), _rebased(err, sl.start)
    return DiffeoMap(grid, X, B, delta, A), None


def build_diffeo(grid: Grid2D, X: np.ndarray, c0: float = 0.0) -> DiffeoMap:
    """Assemble a DiffeoMap from position samples, enforcing delta > c0."""
    X = np.asarray(X, dtype=float)
    if X.shape != grid.shape + (2,):
        raise ConfigError(f"map samples have shape {X.shape}, expected {grid.shape + (2,)}")
    gradX = grid.ops.grad_vector(X)
    B, delta = _cof2(gradX), _det2(gradX)
    err = _floor_failure(delta, c0)
    if err is not None:
        raise err
    return DiffeoMap(grid, X, B, delta, _conormal(B, delta))


def initial_diffeo(eta1_0: BeamField, chi: CutoffProfile, n_flow_steps: int = 64) -> DiffeoMap:
    """Flow map flattening the edge displaced by eta1_0 onto the rectangle.

    Integrates the vertical displacement field eta1_0(x) chi(y) e2
    from time 0 to 1 with RK4. Trajectories keep their x-coordinate, so
    each column evolves independently; where chi is 1 the flow is the
    exact vertical translation by eta1_0, and outside the support of chi
    the map is the identity.
    """
    grid = chi.grid
    if eta1_0.grid != grid:
        raise ConfigError("edge displacement and cutoff live on different grids")
    if n_flow_steps < 1:
        raise ConfigError("need at least one flow step")
    eta = eta1_0.values
    if not (chi.eta_minus < np.min(eta) and np.max(eta) < chi.eta_plus):
        raise GeometryError(
            f"edge displacement range [{np.min(eta):.3e}, {np.max(eta):.3e}] "
            f"leaves the margin band ({chi.eta_minus:.3e}, {chi.eta_plus:.3e})"
        )
    c = eta[:, None]
    y2 = np.array(grid.yy, dtype=float)
    dt = 1.0 / n_flow_steps
    for _ in range(n_flow_steps):
        k1 = c * chi.psi_y(y2)
        k2 = c * chi.psi_y(y2 + 0.5 * dt * k1)
        k3 = c * chi.psi_y(y2 + 0.5 * dt * k2)
        k4 = c * chi.psi_y(y2 + dt * k3)
        y2 = y2 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    X = np.stack([np.array(grid.xx, dtype=float), y2], axis=-1)
    return build_diffeo(grid, X)


def update_map(X0: DiffeoMap, v_history, dt: float, c0: float = 0.0) -> DiffeoMap:
    """Running map: initial map plus the trapezoid time integral of velocity.

    v_history stacks velocity samples at t = 0, dt, ..., along axis 0.
    A single entry integrates to zero displacement. delta <= c0 anywhere
    raises the diffeomorphism failure carrying the offending node.
    """
    vh = np.asarray(v_history, dtype=float)
    if vh.ndim != 4 or vh.shape[1:] != X0.grid.shape + (2,):
        raise ConfigError(f"velocity history has shape {vh.shape}, expected (nt, nx+1, ny+1, 2)")
    if not dt > 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    return build_diffeo(X0.grid, X0.X + _cumtrapz(vh, dt)[-1], c0=c0)


def check_diffeo(dmap: DiffeoMap, c0: float) -> DiffeoCertificate:
    """Certificate that delta and the conormal tensor stay above the floor."""
    if not c0 > 0:
        raise ConfigError(f"floor must be positive, got {c0}")
    a11 = dmap.A[..., 0, 0]
    a22 = dmap.A[..., 1, 1]
    a12 = dmap.A[..., 0, 1]
    eig_min = 0.5 * (a11 + a22) - np.sqrt((0.5 * (a11 - a22)) ** 2 + a12**2)
    worst = min(
        (float(np.min(dmap.delta)), np.unravel_index(int(np.argmin(dmap.delta)), dmap.delta.shape)),
        (float(np.min(eig_min)), np.unravel_index(int(np.argmin(eig_min)), eig_min.shape)),
    )
    return DiffeoCertificate(
        min_delta=float(np.min(dmap.delta)),
        min_eig_A=float(np.min(eig_min)),
        c0=float(c0),
        passed=bool(np.min(dmap.delta) >= c0 and np.min(eig_min) >= c0),
        worst_node=tuple(int(i) for i in worst[1]),
    )


def suggested_floor(dmap: DiffeoMap) -> float:
    """Default determinant floor: half the smallest initial determinant."""
    return 0.5 * dmap.min_delta

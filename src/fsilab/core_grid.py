"""Collocated rectangular grid with an aligned beam edge.

The fluid occupies the rectangle (0, L) x (-H, 0). Nodes are stored
x-index first, so a scalar field has shape (nx + 1, ny + 1) and
``field[i, j]`` sits at ``(i * hx, -H + j * hy)``. Vector fields append
a trailing component axis of length 2, matrix fields two such axes with
``m[..., a, b]`` holding row a, column b.

Fields, stencils, integrals and norms also accept one optional leading
time axis: a stack of nt samples has shape (nt, nx + 1, ny + 1, ...)
and gets one integral or norm per sample, bit for bit what each sample
gets on its own. A stack holds a whole horizon; the layers that work
sample by sample (norms, running integrals, and downstream the map
rebuild and the sources) take it in consecutive blocks of about
_BLOCK_NODES grid nodes, so their temporaries hold one block whatever
the horizon, and the result is the same bits as one pass.

The beam occupies the top edge y = 0 and shares that edge's x-nodes bit
for bit. The top-edge interior nodes form the moving boundary; the
bottom and side edges (corners included) form the fixed boundary.

Derivatives are second-order centered stencils inside the domain and
second-order one-sided stencils on the edges. The grid owns its
stencils: `grid.ops` is built once per grid object and holds the
applicators, their sparse matrices and the beam matrices, so they live
exactly as long as the grid and no table keyed by grid value outlives
a run. Norms are trapezoid quadrature of |f|^q plus difference-quotient
derivative terms up to the requested order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError

__all__ = [
    "Grid2D",
    "FluidField",
    "BeamField",
    "NormSpec",
    "DiffOps",
    "build_grid",
    "discrete_norm",
    "weighted_time_norm",
    "integrate_fluid",
    "integrate_beam",
    "beam_embed",
]


@dataclass(frozen=True)
class Grid2D:
    """Uniform collocated grid on (0, L) x (-H, 0) with the beam on y = 0."""

    L: float
    H: float
    nx: int
    ny: int

    @property
    def hx(self) -> float:
        return self.L / self.nx

    @property
    def hy(self) -> float:
        return self.H / self.ny

    @property
    def shape(self) -> tuple[int, int]:
        """Node-array shape, (nx + 1, ny + 1)."""
        return (self.nx + 1, self.ny + 1)

    @property
    def n_nodes(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    @property
    def area(self) -> float:
        return self.L * self.H

    @cached_property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.nx + 1)

    @cached_property
    def y(self) -> np.ndarray:
        return np.linspace(-self.H, 0.0, self.ny + 1)

    @cached_property
    def xx(self) -> np.ndarray:
        """x-coordinate at every node, shape (nx + 1, ny + 1)."""
        return np.broadcast_to(self.x[:, None], self.shape)

    @cached_property
    def yy(self) -> np.ndarray:
        """y-coordinate at every node, shape (nx + 1, ny + 1)."""
        return np.broadcast_to(self.y[None, :], self.shape)

    @cached_property
    def mask_boundary(self) -> np.ndarray:
        m = np.zeros(self.shape, dtype=bool)
        m[0, :] = m[-1, :] = True
        m[:, 0] = m[:, -1] = True
        return m

    @cached_property
    def mask_top(self) -> np.ndarray:
        """Top-edge interior nodes (the moving boundary); corners excluded."""
        m = np.zeros(self.shape, dtype=bool)
        m[1:-1, -1] = True
        return m

    @cached_property
    def mask_wall(self) -> np.ndarray:
        """Bottom and side edges, corners included (the fixed boundary)."""
        return self.mask_boundary & ~self.mask_top

    @cached_property
    def mask_interior(self) -> np.ndarray:
        return ~self.mask_boundary

    @cached_property
    def weights(self) -> np.ndarray:
        """Trapezoid quadrature weights per node; they sum to L * H."""
        return np.outer(
            _trapezoid_widths(self.nx + 1, self.hx), _trapezoid_widths(self.ny + 1, self.hy)
        )

    @cached_property
    def beam_weights(self) -> np.ndarray:
        """Trapezoid weights on the beam nodes; they sum to L."""
        return _trapezoid_widths(self.nx + 1, self.hx)

    @cached_property
    def ops(self) -> "DiffOps":
        """The grid's stencils, built once for this grid object."""
        return DiffOps(self)


def _trapezoid_widths(n_nodes: int, h: float) -> np.ndarray:
    """Per-axis trapezoid widths of n_nodes equispaced nodes: the spacing h
    inside and h / 2 at both ends."""
    w = np.full(n_nodes, h)
    w[0] = w[-1] = 0.5 * h
    return w


def build_grid(L: float, H: float, nx: int, ny: int) -> Grid2D:
    """Validate dimensions and cell counts, return the grid."""
    problems = []
    if not (0 < L < math.inf and 0 < H < math.inf):
        problems.append(f"domain dimensions must be positive and finite, got L={L:g}, H={H:g}")
    if nx < 4 or ny < 4:
        problems.append(f"need at least 4 cells per axis, got nx={nx}, ny={ny}")
    if problems:
        raise ConfigError.from_problems(problems)
    return Grid2D(float(L), float(H), int(nx), int(ny))


def _check_shape(what: str, shape: tuple, want: tuple):
    if shape != want and shape[1:] != want:
        raise ConfigError(f"{what} has shape {shape}, expected {want} or (nt,) + {want}")


@dataclass(frozen=True)
class FluidField:
    """Scalar or 2-vector samples at every fluid grid node.

    An optional leading time axis holds a stack of samples.
    """

    grid: Grid2D
    values: np.ndarray
    kind: str = "scalar"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if self.kind not in ("scalar", "vector"):
            raise ConfigError(f"unknown field kind {self.kind!r}")
        want = self.grid.shape if self.kind == "scalar" else self.grid.shape + (2,)
        _check_shape(f"{self.kind} field", v.shape, want)
        if not np.all(np.isfinite(v)):
            raise ConfigError("field contains non-finite entries")


@dataclass(frozen=True)
class BeamField:
    """Scalar samples at the beam nodes (the top-edge x-nodes).

    An optional leading time axis holds a stack of samples; the clamped
    check and snap act on each sample with its own scale.
    """

    grid: Grid2D
    values: np.ndarray
    clamped: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        _check_shape("beam field", v.shape, (self.grid.nx + 1,))
        if not np.all(np.isfinite(v)):
            raise ConfigError("beam field contains non-finite entries")
        if self.clamped:
            ends = np.abs(v[..., [0, -1]])
            scale = np.maximum(1.0, np.max(np.abs(v), axis=-1))
            if np.any(ends > 1e-12 * scale[..., None]):
                raise ConfigError("clamped beam field must vanish at both endpoints")
            # snap round-off residue so downstream identities hold exactly
            if np.any(ends != 0.0):
                v = v.copy()
                v[..., 0] = v[..., -1] = 0.0
                object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class NormSpec:
    """Selects a discrete norm.

    k is the highest spatial difference order included (0, 1 or 2), q the
    spatial exponent, p the temporal exponent, beta the exponential growth
    weight applied before temporal integration. Infinite exponents select
    the max over nodes (resp. samples).
    """

    k: int = 0
    q: float = 2.0
    p: float = 2.0
    beta: float = 0.0

    def __post_init__(self):
        if self.k not in (0, 1, 2):
            raise ConfigError(f"spatial order k must be 0, 1 or 2, got {self.k}")
        if not self.q > 1:
            raise ConfigError(f"spatial exponent must exceed 1, got q={self.q}")
        if not self.p > 1:
            raise ConfigError(f"temporal exponent must exceed 1, got p={self.p}")
        if self.beta < 0:
            raise ConfigError(f"weight must be nonnegative, got beta={self.beta}")


def _d1(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second-order first derivative, one-sided at the two edge slices."""
    return np.gradient(f, h, axis=axis, edge_order=2)


def _stencil_matrix(n: int, inner, ends=()) -> sp.csr_matrix:
    """n x n matrix with the stencil `inner`, (offset, value) pairs, on rows
    1 .. n-2 and the (row, col, value) entries `ends`; negative rows and
    columns count from the end."""
    i = np.arange(1, n - 1)
    rows = np.concatenate([np.tile(i, len(inner)), [r % n for r, _, _ in ends]])
    cols = np.concatenate([i + o for o, _ in inner] + [[c % n for _, c, _ in ends]])
    vals = np.concatenate([np.full(n - 2, v) for _, v in inner] + [[v for _, _, v in ends]])
    return sp.csr_matrix((vals, (rows.astype(int), cols.astype(int))), shape=(n, n))


def _d1_matrix(n_nodes: int, h: float) -> sp.csr_matrix:
    """Matrix of _d1 along one axis: centered rows inside, second-order
    one-sided rows at both ends."""
    return _stencil_matrix(
        n_nodes,
        [(-1, -0.5 / h), (1, 0.5 / h)],
        [(0, 0, -1.5 / h), (0, 1, 2.0 / h), (0, 2, -0.5 / h),
         (-1, -1, 1.5 / h), (-1, -2, -2.0 / h), (-1, -3, 0.5 / h)],
    )


def _d2(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second-order second derivative, one-sided 4-point at the edges."""
    f = np.moveaxis(f, axis, 0)
    out = np.empty_like(f)
    out[1:-1] = (f[:-2] - 2.0 * f[1:-1] + f[2:]) / h**2
    out[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / h**2
    out[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / h**2
    return np.moveaxis(out, 0, axis)


@dataclass(frozen=True)
class DiffOps:
    """Stencil applicators for one grid, with the sparse forms of dx and dy.

    Fluid operators act on node arrays, beam operators on top-edge arrays.
    The stencils address the x and y axes from the end (axes -2 and -1,
    the beam axis -1), so any array may carry a leading time axis and is
    differenced sample by sample. The two dense beam matrices act on
    interior beam nodes only; endpoint values are eliminated through the
    clamped (resp. pinned) closure.
    """

    grid: Grid2D

    # fluid fields -------------------------------------------------------

    def dx(self, f: np.ndarray) -> np.ndarray:
        return _d1(f, self.grid.hx, -2)

    def dy(self, f: np.ndarray) -> np.ndarray:
        return _d1(f, self.grid.hy, -1)

    def dxx(self, f: np.ndarray) -> np.ndarray:
        return _d2(f, self.grid.hx, -2)

    def dyy(self, f: np.ndarray) -> np.ndarray:
        return _d2(f, self.grid.hy, -1)

    def dxy(self, f: np.ndarray) -> np.ndarray:
        return self.dy(self.dx(f))

    @cached_property
    def Dx(self) -> sp.csr_matrix:
        """Sparse form of dx on raveled node arrays."""
        return sp.kron(_d1_matrix(self.grid.nx + 1, self.grid.hx), sp.eye(self.grid.ny + 1), format="csr")

    @cached_property
    def Dy(self) -> sp.csr_matrix:
        """Sparse form of dy on raveled node arrays."""
        return sp.kron(sp.eye(self.grid.nx + 1), _d1_matrix(self.grid.ny + 1, self.grid.hy), format="csr")

    def grad(self, f: np.ndarray) -> np.ndarray:
        """Gradient of a scalar field, shape (..., 2)."""
        return np.stack([self.dx(f), self.dy(f)], axis=-1)

    def grad_vector(self, v: np.ndarray) -> np.ndarray:
        """Jacobian of a vector field: out[..., a, b] = d_b v_a."""
        return np.stack([self.grad(v[..., 0]), self.grad(v[..., 1])], axis=-2)

    def div(self, v: np.ndarray) -> np.ndarray:
        return self.dx(v[..., 0]) + self.dy(v[..., 1])

    def div_matrix(self, m: np.ndarray) -> np.ndarray:
        """Row-wise divergence of a matrix field: out[..., a] = sum_b d_b m[..., a, b]."""
        return np.stack(
            [self.dx(m[..., a, 0]) + self.dy(m[..., a, 1]) for a in (0, 1)],
            axis=-1,
        )

    def sym_grad(self, v: np.ndarray) -> np.ndarray:
        g = self.grad_vector(v)
        return 0.5 * (g + np.swapaxes(g, -1, -2))

    def laplace(self, f: np.ndarray) -> np.ndarray:
        return self.dxx(f) + self.dyy(f)

    # boundary -----------------------------------------------------------

    @cached_property
    def normals(self) -> np.ndarray:
        """Outward unit normal per boundary node, zero at interior nodes.

        Side columns own their corners, so the corner normal is horizontal.
        """
        n = np.zeros(self.grid.shape + (2,))
        n[:, 0, 1] = -1.0
        n[:, -1, 1] = 1.0
        n[0, :, 0] = -1.0
        n[0, :, 1] = 0.0
        n[-1, :, 0] = 1.0
        n[-1, :, 1] = 0.0
        return n

    def normal_derivative(self, f: np.ndarray) -> np.ndarray:
        """n . grad f on boundary nodes (one-sided second order), zero inside."""
        g = self.grad(f)
        return np.einsum("...k,...k->...", g, self.normals)

    # beam fields --------------------------------------------------------

    def beam_dx(self, f: np.ndarray) -> np.ndarray:
        return _d1(f, self.grid.hx, -1)

    def beam_dxx(self, f: np.ndarray) -> np.ndarray:
        return _d2(f, self.grid.hx, -1)

    @cached_property
    def lap_s(self) -> np.ndarray:
        """Second-difference matrix on interior beam nodes, zero endpoint values."""
        n = self.grid.nx - 1
        h2 = self.grid.hx**2
        m = np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
        return m / h2

    @cached_property
    def bih_clamped(self) -> np.ndarray:
        """Clamped fourth-difference matrix on interior beam nodes.

        Zero value at the endpoints plus the reflected ghost node that
        encodes zero slope there, so the first and last rows read
        (7, -4, 1) / h^4.
        """
        n = self.grid.nx - 1
        m = sum(w * np.eye(n, k=k) for k, w in ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)))
        m[0, 0] += 1.0
        m[-1, -1] += 1.0
        return m / self.grid.hx**4


# node budget of one block of samples: about 30 samples at nx32, 7 at nx64
_BLOCK_NODES = 32768


def _sample_blocks(nt: int, sample_size: int) -> list[slice]:
    """Consecutive slices covering nt samples of sample_size nodes (or
    values) each, about _BLOCK_NODES a block and at least one sample."""
    size = max(1, _BLOCK_NODES // sample_size)
    return [slice(a, min(a + size, nt)) for a in range(0, nt, size)]


def _per_sample(x):
    """A plain float for one sample, the array itself for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _qth_root(acc, q: float):
    """acc ** (1/q), taken sample by sample with the scalar power.

    numpy's vectorized power may round differently from its scalar
    power in the last bit; the scalar power keeps the norms of a stack
    identical to the norms of its samples.
    """
    if np.ndim(acc) == 0:
        return float(acc ** (1.0 / q))
    return np.array([a ** (1.0 / q) for a in acc])


def integrate_fluid(grid: Grid2D, f: np.ndarray):
    """Trapezoid integral of a scalar node array over the rectangle (per sample of a stack)."""
    return _per_sample(np.sum(grid.weights * f, axis=(-2, -1)))


def integrate_beam(grid: Grid2D, f: np.ndarray):
    """Trapezoid integral of a beam node array over (0, L) (per sample of a stack)."""
    return _per_sample(np.sum(grid.beam_weights * f, axis=-1))


def _cumtrapz(a: np.ndarray, dt: float) -> np.ndarray:
    """Running trapezoid integral along axis 0, zero at the first sample.

    Summed one block of steps at a time, each block starting from the
    total the last one reached: the additions are those of one running
    sum over every step, in the same order.
    """
    out = np.zeros_like(a)
    for sl in _sample_blocks(len(a) - 1, a[0].size):
        lo, hi = sl.start, sl.stop
        steps = 0.5 * dt * (a[lo + 1 : hi + 1] + a[lo:hi])
        if lo:
            steps[0] += out[lo]
        np.cumsum(steps, axis=0, out=out[lo + 1 : hi + 1])
    return out


def beam_embed(grid: Grid2D, interior: np.ndarray) -> np.ndarray:
    """Pad interior beam values with the zero endpoint values."""
    full = np.zeros(grid.nx + 1)
    full[1:-1] = interior
    return full


def _fluid_terms(ops: DiffOps, comp: np.ndarray, k: int) -> list[np.ndarray]:
    terms = [comp]
    if k >= 1:
        terms += [ops.dx(comp), ops.dy(comp)]
    if k >= 2:
        terms += [ops.dxx(comp), ops.dxy(comp), ops.dyy(comp)]
    return terms


def _beam_terms(ops: DiffOps, f: np.ndarray, k: int) -> list[np.ndarray]:
    terms = [f]
    if k >= 1:
        terms.append(ops.beam_dx(f))
    if k >= 2:
        terms.append(ops.beam_dxx(f))
    return terms


def discrete_norm(field: FluidField | BeamField, spec: NormSpec):
    """Trapezoid Sobolev-type norm of one field (one per sample of a stack).

    Sums |f|^q and every difference-quotient derivative up to order
    spec.k over the trapezoid weights, then takes the 1/q power. With
    q infinite, takes the max over nodes and derivative terms instead.
    A stack is normed one block of samples at a time.
    """
    values = field.values
    one_sample = 1 if isinstance(field, BeamField) else 2 if field.kind == "scalar" else 3
    if values.ndim == one_sample:
        return _norms(field, values, spec)
    out = np.empty(len(values))
    for sl in _sample_blocks(len(values), field.grid.n_nodes):
        out[sl] = _norms(field, values[sl], spec)
    return out


def _norms(field: FluidField | BeamField, values: np.ndarray, spec: NormSpec):
    """discrete_norm of `values`, one sample or a stack of field's kind."""
    ops = field.grid.ops
    if isinstance(field, BeamField):
        terms = _beam_terms(ops, values, spec.k)
        w, axes = field.grid.beam_weights, -1
    else:
        comps = [values] if field.kind == "scalar" else [values[..., 0], values[..., 1]]
        terms = []
        for c in comps:
            terms.extend(_fluid_terms(ops, c, spec.k))
        w, axes = field.grid.weights, (-2, -1)
    if math.isinf(spec.q):
        return _per_sample(np.max([np.max(np.abs(t), axis=axes) for t in terms], axis=0))
    acc = sum(np.sum(w * np.abs(t) ** spec.q, axis=axes) for t in terms)
    return _qth_root(acc, spec.q)


def weighted_time_norm(series, dt: float, spec: NormSpec) -> float:
    """Temporal L^p norm of a scalar series with the weight e^(beta t).

    Computes (sum_n |e^(beta t_n) s_n|^p dt)^(1/p) with t_n = n dt;
    p infinite takes the max of the weighted samples.
    """
    s = np.asarray(series, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ConfigError("time series must be a nonempty 1-d array")
    if not dt > 0:
        raise ConfigError(f"dt must be positive, got {dt}")
    t = dt * np.arange(s.size)
    w = np.exp(spec.beta * t) * np.abs(s)
    if math.isinf(spec.p):
        return float(np.max(w))
    return float((np.sum(w**spec.p) * dt) ** (1.0 / spec.p))

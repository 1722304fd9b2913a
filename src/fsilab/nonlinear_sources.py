"""Nonlinear source evaluation and initial-data compatibility checks.

Two regimes share this module. The local regime measures everything
against the frozen initial map: its sources collect the differences
between moving and initial metric tensors, and they vanish identically
when the map has not left its initial position. The perturbation regime
measures against the flat reference state: its sources collect every
term that is at least quadratic in the perturbation, and they vanish on
the zero state. The plate forcing of the perturbation regime splits
into a spatially varying part and a spatially constant part built from
the mean values of density and temperature; the two parts must always
recombine into the unsplit expression, and that identity is asserted on
every evaluation.

Both evaluators take a single state or a stack of states (fields with a
leading time axis, map tensors likewise) and then return one sample of
every output per state, bit for bit what each state gets on its own.
That is what lets the Picard engines hand them a horizon one block of
samples at a time.

All outputs are nodewise algebra over the fixed rectangle. Divergence
groupings are differenced as assembled fluxes rather than expanded by
the product rule, so whatever conservation structure the flux has
survives discretization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chgvar import _floor_failure
from .core_grid import BeamField, FluidField, Grid2D, _per_sample, integrate_fluid
from .errors import ConfigError, NumericsError
from .linear_subsystems import PhysParams, _as_metrics, _identity_metric

__all__ = [
    "FullState",
    "MeanFluctSplit",
    "CompatCondition",
    "CompatReport",
    "eval_local_sources",
    "eval_global_sources",
    "split_mean",
    "check_compatibility",
]


@dataclass(frozen=True)
class FullState:
    """One snapshot of the coupled unknowns on the reference rectangle.

    rho is the full density in the local regime and the density
    perturbation in the global regime; theta likewise. eta1 is the beam
    displacement, eta2 its velocity. The time stamp records where in
    the march the snapshot lives. A stack of states holds fields with a
    leading time axis and one time stamp per sample.
    """

    rho: FluidField
    v: FluidField
    theta: FluidField
    eta1: BeamField
    eta2: BeamField
    t: float = 0.0

    def __post_init__(self):
        g = self.rho.grid
        if self.v.grid is not g or self.theta.grid is not g or self.eta1.grid is not g or self.eta2.grid is not g:
            raise ConfigError("all fields of a state must share one grid")
        if self.v.kind != "vector":
            raise ConfigError("state velocity must be a vector field")

    @property
    def grid(self) -> Grid2D:
        return self.rho.grid

    def sample(self, n: int) -> "FullState":
        """The n-th state of a stack (a slice keeps a stack)."""
        g = self.grid
        return FullState(
            FluidField(g, self.rho.values[n]),
            FluidField(g, self.v.values[n], kind="vector"),
            FluidField(g, self.theta.values[n]),
            BeamField(g, self.eta1.values[n], clamped=self.eta1.clamped),
            BeamField(g, self.eta2.values[n], clamped=self.eta2.clamped),
            t=_per_sample(self.t[n]),
        )

    @staticmethod
    def stack(states) -> "FullState":
        """Stack single states along a leading time axis."""
        g = states[0].grid
        return FullState(
            FluidField(g, np.stack([s.rho.values for s in states])),
            FluidField(g, np.stack([s.v.values for s in states]), kind="vector"),
            FluidField(g, np.stack([s.theta.values for s in states])),
            BeamField(g, np.stack([s.eta1.values for s in states]), clamped=all(s.eta1.clamped for s in states)),
            BeamField(g, np.stack([s.eta2.values for s in states]), clamped=all(s.eta2.clamped for s in states)),
            t=np.array([s.t for s in states]),
        )


@dataclass(frozen=True)
class MeanFluctSplit:
    """A scalar field separated into its discrete mean and the rest.

    For a stack of fields, avg holds one mean per sample.
    """

    tilde: FluidField
    avg: float | np.ndarray

    def __post_init__(self):
        g = self.tilde.grid
        mean = np.abs(integrate_fluid(g, self.tilde.values) / g.area)
        scale = np.maximum(np.maximum(1.0, np.max(np.abs(self.tilde.values), axis=(-2, -1))), np.abs(self.avg))
        if np.any(mean > 1e-12 * scale):
            raise ConfigError(f"fluctuation part must have zero mean, got {np.max(mean)}")

    def recombined(self) -> np.ndarray:
        return self.tilde.values + np.asarray(self.avg)[..., None, None]


def split_mean(f: FluidField) -> MeanFluctSplit:
    """Separate a scalar field into zero-mean fluctuation plus constant."""
    g = f.grid
    avg = integrate_fluid(g, f.values) / g.area
    return MeanFluctSplit(FluidField(g, f.values - np.asarray(avg)[..., None, None]), avg)


# ------------------------------------------------------------------ small algebra helpers


def _transpose(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2)


def _colon(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...ab,...ab->...", a, b)


def _matvec(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.einsum("...ab,...b->...a", m, w)


def _certify(delta: np.ndarray):
    err = _floor_failure(delta, 0.0)
    if err is not None:
        raise err


def _rate(arr, like: np.ndarray) -> np.ndarray:
    """Time-derivative samples shaped like the field they belong to (zeros if omitted)."""
    if arr is None:
        return np.zeros_like(like)
    if isinstance(arr, FluidField):
        return arr.values
    out = np.asarray(arr, dtype=float)
    if out.shape != like.shape:
        raise ConfigError(f"time-derivative array must have shape {like.shape}, got {out.shape}")
    return out


# ------------------------------------------------------------------ local sources


def eval_local_sources(state: FullState, map, X0metrics, rho0, params: PhysParams, dv_dt=None, dtheta_dt=None):
    """Sources of the local fixed-domain system, frozen-metric form.

    Returns (F1, F2, F3, G, H): interior scalar, interior vector,
    interior scalar, boundary flux samples on the full grid, and the
    beam forcing on the top edge. The time derivatives of v and theta
    that appear inside F2 and F3 are supplied by the caller (the outer
    iteration's latest accepted difference quotient); omitted they are
    taken as zero.
    """
    grid = state.grid
    ops = grid.ops
    B0, d0, A0 = _as_metrics(X0metrics)
    BX, dX, AX = _as_metrics(map)
    _certify(dX)
    r0 = rho0.values if isinstance(rho0, FluidField) else np.asarray(rho0, dtype=float)
    rho = state.rho.values
    if np.min(rho) <= 0:
        raise ConfigError("local-regime density must stay positive nodewise")
    theta = state.theta.values
    v = state.v.values
    dvdt = _rate(dv_dt, v)
    dthdt = _rate(dtheta_dt, theta)

    gv = ops.grad_vector(v)
    gvT = _transpose(gv)
    gth = ops.grad(theta)
    mass_gap = r0 * d0 - rho * dX
    colon0 = _colon(gv, B0)
    colonX = _colon(gv, BX)

    F1 = (r0 / d0) * colon0 - (rho / dX) * colonX

    BgvT = BX @ gvT
    flux_visc = gv @ (AX - A0)
    flux_cross = (1.0 / dX)[..., None, None] * (BgvT @ BX) - (1.0 / d0)[..., None, None] * (B0 @ gvT @ B0)
    F2 = (
        mass_gap[..., None] * dvdt
        + params.mu * ops.div_matrix(flux_visc)
        + (params.mu + params.alpha) * ops.div_matrix(flux_cross)
        + params.R0 * _matvec(BX, ops.grad(rho * theta))
    ) / (r0 * d0)[..., None]

    S = _transpose(BgvT) + BgvT  # gv B^T is (B gv^T)^T with the same products
    shear_sq = _colon(S, S)
    heat_flux = _matvec(AX - A0, gth)
    F3 = (
        params.c_v * mass_gap * dthdt
        + params.kappa * ops.div(heat_flux)
        + (params.alpha / dX) * colonX**2
        # the squared shear carries mu/(2 delta) as printed for this
        # regime; the perturbation regime prints 2 mu/delta
        + (params.mu / (2.0 * dX)) * shear_sq
        - (params.R0 * rho * theta + params.pi0) * colonX
    ) / (params.c_v * r0 * d0)

    G = np.einsum("...a,...a->...", _matvec(A0 - AX, gth), ops.normals)

    slope = ops.beam_dx(state.eta1.values)
    S_top = S[..., -1, :, :]
    dX_top = dX[..., -1]
    bend = S_top[..., 1, 0] * (-slope) + S_top[..., 1, 1]
    H = (
        -(params.mu / dX_top) * bend
        - (params.alpha / dX_top) * colonX[..., -1]
        + params.R0 * rho[..., -1] * theta[..., -1]
        + params.pi0
    )
    return F1, F2, F3, G, H


# ------------------------------------------------------------------ global sources


def _global_density_source(state: FullState, BX: np.ndarray, dX: np.ndarray, params: PhysParams):
    """(F1, grad v, B/delta - I): eval_global_sources' density source from
    the map's cofactor B and determinant delta, bit for bit and behind the
    same checks, with the pieces the others reuse."""
    params.require_global()
    ops = state.grid.ops
    _certify(dX)
    rho = state.rho.values
    if np.min(rho + params.rho_bar) <= 0:
        raise ConfigError("perturbation density must keep rho + rho_bar positive")
    v = state.v.values
    gv = ops.grad_vector(v)
    metric_gap = (1.0 / dX)[..., None, None] * BX - _identity_metric(state.grid)
    F1 = -rho * ops.div(v) - (rho + params.rho_bar) * _colon(metric_gap, gv)
    return F1, gv, metric_gap


def eval_global_sources(
    state: FullState,
    map,
    params: PhysParams,
    dv_dt=None,
    dtheta_dt=None,
):
    """Sources of the perturbation system, with the split plate forcing.

    Returns (F1, F2, F3, G, H_tilde, H_hat): three interior fields, the
    boundary flux samples, the spatially varying beam forcing, and the
    spatially constant beam forcing (a float, one per sample for a
    stack). H_tilde + H_hat must recombine into the unsplit plate
    source; that identity is checked on every sample and a violation
    raises a numerics error naming the first failing sample. The
    constant part is built from split_mean of density and temperature.
    """
    BX, dX, AX = _as_metrics(map)
    F1, gv, metric_gap = _global_density_source(state, BX, dX, params)
    grid = state.grid
    ops = grid.ops
    eye = _identity_metric(grid)
    rho = state.rho.values
    theta = state.theta.values
    v = state.v.values
    dvdt = _rate(dv_dt, v)
    dthdt = _rate(dtheta_dt, theta)
    rb, tb = params.rho_bar, params.theta_bar

    gvT = _transpose(gv)
    gth = ops.grad(theta)
    grho = ops.grad(rho)
    colonX = _colon(gv, BX)

    BgvT = BX @ gvT
    flux_visc = gv @ (AX - eye)
    flux_cross = (1.0 / dX)[..., None, None] * (BgvT @ BX) - gvT
    F2 = (
        -(rb * (dX - 1.0) + rho * dX)[..., None] * dvdt
        + params.mu * ops.div_matrix(flux_visc)
        + (params.mu + params.alpha) * ops.div_matrix(flux_cross)
        + params.R0 * _matvec(BX, ops.grad(rho * theta))
        + params.R0 * _matvec(BX - eye, rb * gth + tb * grho)
    ) / rb

    S = _transpose(BgvT) + BgvT  # gv B^T is (B gv^T)^T with the same products
    shear_sq = _colon(S, S)
    heat_flux = _matvec(AX - eye, gth)
    F3 = (
        -params.c_v * (dX * rho + rb * (dX - 1.0)) * dthdt
        - params.R0 * (rho * theta + rb * theta + tb * rho) * colonX
        + params.kappa * ops.div(heat_flux)
        + (params.alpha / dX) * colonX**2
        # the squared shear carries 2 mu/delta as printed for this
        # regime; the local regime prints mu/(2 delta)
        + (2.0 * params.mu / dX) * shear_sq
    ) / (params.c_v * rb)

    G = np.einsum("...a,...a->...", _matvec(eye - AX, gth), ops.normals)

    # spatially varying plate terms shared by the split and unsplit forms
    slope = ops.beam_dx(state.eta1.values)
    S_top = S[..., -1, :, :]
    dX_top = dX[..., -1]
    # the symmetric part's (1, 1) entry, 0.5 (gv + gv^T)[1, 1], is gv[1, 1] exactly
    bracket = (1.0 / dX_top) * (S_top[..., 1, 0] * (-slope) + S_top[..., 1, 1]) - 2.0 * params.mu * gv[..., -1, 1, 1]
    leading = -params.mu * bracket - params.alpha * _colon(metric_gap, gv)[..., -1]

    rho_parts = split_mean(state.rho)
    theta_parts = split_mean(state.theta)
    rt = rho_parts.tilde.values[..., -1]
    tt = theta_parts.tilde.values[..., -1]
    ra, ta = np.asarray(rho_parts.avg), np.asarray(theta_parts.avg)
    H_tilde = leading + params.R0 * (rt * tt + rt * ta[..., None] + ra[..., None] * tt)
    H_hat = params.R0 * ra * ta

    H_full = leading + params.R0 * rho[..., -1] * theta[..., -1]
    scale = np.maximum(1.0, np.max(np.abs(H_full), axis=-1))
    defect = np.max(np.abs(H_tilde + H_hat[..., None] - H_full), axis=-1)
    bad = np.flatnonzero(defect > 1e-12 * scale)
    if bad.size:
        k = int(bad[0])
        raise NumericsError(
            f"plate-source split failed to recombine, defect {float(np.ravel(defect)[k])}",
            sample=k if defect.ndim else None,
        )
    return F1, F2, F3, G, H_tilde, _per_sample(H_hat)


# ------------------------------------------------------------------ compatibility


@dataclass(frozen=True)
class CompatCondition:
    name: str
    required: bool
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


@dataclass(frozen=True)
class CompatReport:
    """Per-condition residuals for a candidate initial state.

    Conditions that the current exponent regime does not demand are
    still measured but marked not required; all_passed ignores them.
    """

    mode: str
    p: float
    q: float
    strength: float
    conditions: tuple

    @property
    def lt_half(self) -> bool:
        return self.strength < 0.5

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.conditions if c.required)

    def lines(self) -> list[str]:
        out = [f"compatibility [{self.mode}] p={self.p} q={self.q} 1/p+1/(2q)={self.strength:.4f}"]
        for c in self.conditions:
            status = "pass" if c.passed else "FAIL"
            need = "required" if c.required else "optional"
            out.append(f"  {c.name:<22s} {status}  residual={c.residual:.3e}  tol={c.tol:.3e}  ({need})")
        return out


def _exponent_problems(p: float, q: float) -> list[str]:
    """Why the exponent pair is inadmissible, empty when it is admissible:
    p must exceed 2, q must exceed 3, and 1/p + 1/(2q) must stay 1e-9 or
    more away from the resonant value 1/2."""
    problems = []
    if not p > 2:
        problems.append(f"time exponent p must exceed 2, got {p:g}")
    if not q > 3:
        problems.append(f"space exponent q must exceed 3, got {q:g}")
    if not problems and abs(1.0 / p + 1.0 / (2.0 * q) - 0.5) < 1e-9:
        problems.append(f"resonant exponent pair p={p:g}, q={q:g} (1/p + 1/(2q) = 1/2)")
    return problems


def check_compatibility(initial: FullState, params: PhysParams, mode: str = "local", p: float = 4.0, q: float = 4.0) -> CompatReport:
    """Measure the trace and flux conditions a starting state must meet.

    The beam must be clamped, the fluid velocity must match the beam
    trace on the top edge and vanish on the walls, and the density must
    stay positive (shifted by the reference value in the perturbation
    regime). When 1/p + 1/(2q) < 1/2 the beam-velocity slope and the
    conormal heat flux must vanish as well; outside that regime those
    rows are reported but not required. The slope and flux rows allow
    ten squared mesh widths for stencil error, and the flux is the
    plain normal derivative (identity metric).
    Reporting only: nothing raises on a failed condition.
    """
    if mode not in ("local", "global"):
        raise ConfigError(f"unknown compatibility mode {mode!r}")
    grid = initial.grid
    ops = grid.ops
    strength = 1.0 / p + 1.0 / (2.0 * q)
    lt_half = strength < 0.5
    slope_tol = 10.0 * max(grid.hx, grid.hy) ** 2

    rho = initial.rho.values
    v = initial.v.values
    theta = initial.theta.values
    e1 = initial.eta1.values
    e2 = initial.eta2.values

    if mode == "local":
        neg = max(0.0, -float(np.min(rho)) + (1.0 if np.min(rho) <= 0 else 0.0))
    else:
        shifted = rho + params.rho_bar
        neg = max(0.0, -float(np.min(shifted)) + (1.0 if np.min(shifted) <= 0 else 0.0))

    slope1 = ops.beam_dx(e1)
    slope2 = ops.beam_dx(e2)
    vscale = max(1.0, float(np.max(np.abs(v))))
    tscale = max(1.0, float(np.max(np.abs(theta))))
    escale = max(1.0, float(np.max(np.abs(e1))), float(np.max(np.abs(e2))))

    wall = grid.mask_wall
    top_v = v[1:-1, -1, :]
    flux = np.einsum("...a,...a->...", ops.grad(theta), ops.normals)

    conditions = (
        CompatCondition("exponents-admissible", True, float(bool(_exponent_problems(p, q))), 0.5),
        CompatCondition("density-positive", True, neg, 0.0),
        CompatCondition("beam-clamped-value", True, float(max(abs(e1[0]), abs(e1[-1]))), 1e-10 * escale),
        CompatCondition("beam-clamped-slope", True, float(max(abs(slope1[0]), abs(slope1[-1]))), slope_tol * escale),
        CompatCondition("beam-velocity-ends", True, float(max(abs(e2[0]), abs(e2[-1]))), 1e-10 * escale),
        CompatCondition("wall-trace", True, float(np.max(np.abs(v[wall]))) if np.any(wall) else 0.0, 1e-10 * vscale),
        CompatCondition("top-trace", True, float(max(np.max(np.abs(top_v[:, 1] - e2[1:-1])), np.max(np.abs(top_v[:, 0])))), 1e-10 * max(vscale, escale)),
        CompatCondition("beam-velocity-slope", lt_half, float(max(abs(slope2[0]), abs(slope2[-1]))), slope_tol * escale),
        CompatCondition("heat-flux", lt_half, float(np.max(np.abs(flux[grid.mask_boundary]))), slope_tol * tscale),
    )
    return CompatReport(mode, float(p), float(q), float(strength), conditions)

"""Config parsing, scenario library, batch runs, and text/CSV artifacts.

A run is driven by a flat key=value document. All constraint violations
are collected and reported together, every run writes a plain-text
report next to its CSV output, and identical config + seed gives
bit-identical CSVs.
"""

from __future__ import annotations

import argparse
import csv
import math
import pathlib
import sys
import time
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .core_grid import FluidField, BeamField, Grid2D, _cumtrapz, _sample_blocks, build_grid, integrate_fluid
from .errors import ConfigError, FsilabError, GeometryError, NumericsError
from .fixed_point import IterationConfig, conserved_quantities, run_global, run_local
from .fs_operator import assemble_coupled, gamma_search, kernel_dimension, restrict_Xm, sector_rim, spectrum
from .linear_subsystems import PhysParams, _identity_metrics, manufactured_convergence, step_density
from .nonlinear_sources import FullState, _global_density_source

__all__ = [
    "RunConfig",
    "RunReport",
    "CheckResult",
    "parse_config",
    "print_config",
    "scenario_library",
    "with_background",
    "run_scenario",
    "main",
    "MODES",
    "SCENARIOS",
]

MODES = ("local", "global", "spectrum", "sector", "convergence")
SCENARIOS = ("steady", "beam-pluck", "thermal-spot", "shear-start")


@dataclass(frozen=True)
class RunConfig:
    """Validated description of one batch run.

    `beta` is the time weight of a global march and the sector
    half-opening in sector mode; it stays unset for modes that need
    neither. An unset `ny` takes the value of `nx`. Grid and parameter
    defaults are the nondimensional choice where every coefficient is one
    and the background pressure balances.
    Construction raises one ConfigError listing every problem: the
    grid's and the physical parameters' own in every mode, the
    iteration's in local and global mode, and the rules of the run.
    """

    mode: str
    L: float = 1.0
    H: float = 1.0
    nx: int = 16
    ny: int | None = None
    mu: float = 1.0
    alpha: float = 0.0
    kappa: float = 1.0
    c_v: float = 1.0
    R0: float = 1.0
    rho_bar: float = 1.0
    theta_bar: float = 1.0
    pi0: float = -1.0
    scenario: str = "steady"
    amplitude: float = 1e-2
    T: float = 0.1
    dt: float = 0.01
    R: float | None = None
    tol: float = 1e-9
    beta: float | None = None
    p: float = 4.0
    q: float = 4.0
    max_iters: int = 25
    out_dir: str = "runs"
    seed: int = 0

    def __post_init__(self):
        if self.ny is None:
            object.__setattr__(self, "ny", self.nx)
        problems = []
        bad = problems.append
        if self.mode is None:
            bad(f"mode is required (one of {', '.join(MODES)})")
        elif self.mode not in MODES:
            bad(f"unknown mode {self.mode!r} (one of {', '.join(MODES)})")
        _problems_of(self.make_grid, problems)
        params = _problems_of(self.physical, problems)
        if self.scenario not in SCENARIOS:
            bad(f"unknown scenario {self.scenario!r} (one of {', '.join(SCENARIOS)})")
        if not math.isfinite(self.amplitude):
            bad(f"amplitude must be finite, got {self.amplitude!r}")
        if self.seed < 0:
            bad(f"seed must be non-negative, got {self.seed}")
        if self.mode in ("local", "global"):
            _problems_of(self.iteration, problems)
        if self.mode == "global":
            if self.beta is None:
                bad("mode=global requires beta (positive decay weight)")
            elif not self.beta > 0:
                bad(f"beta must be positive, got {self.beta:g}")
            if params is not None:
                _problems_of(params.require_global, problems)
        if self.mode == "sector":
            if self.beta is None:
                bad("mode=sector requires beta (sector half-opening in radians)")
            elif not 0 < self.beta < math.pi:
                bad(f"sector half-opening beta must lie in (0, pi), got {self.beta:g}")
        if problems:
            raise ConfigError.from_problems(problems)

    def physical(self) -> PhysParams:
        return PhysParams(
            mu=self.mu,
            alpha=self.alpha,
            kappa=self.kappa,
            c_v=self.c_v,
            R0=self.R0,
            pi0=self.pi0,
            rho_bar=self.rho_bar,
            theta_bar=self.theta_bar,
        )

    def iteration(self) -> IterationConfig:
        return IterationConfig(
            T=self.T,
            dt=self.dt,
            R=self.R,
            max_iters=self.max_iters,
            tol=self.tol,
            # beta weighs time only in a global march; sector mode reads it as an angle
            beta=self.beta if self.mode == "global" and self.beta is not None else 0.0,
            p=self.p,
            q=self.q,
        )

    def make_grid(self) -> Grid2D:
        return build_grid(self.L, self.H, self.nx, self.ny)


# ------------------------------------------------------------- parsing

# key -> (annotation, default), read off RunConfig's fields: an annotation
# starting with "int" converts to an integer, "str" keeps the text, and
# any other converts to a float; mode has no default, and R and beta print
# nothing while unset
_KEYS = {f.name: (f.type, None if f.default is MISSING else f.default) for f in fields(RunConfig)}


def _tokenize(text: str, violations: list, pairs: dict, where: str = "line"):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            violations.append(f"{where} {lineno}: expected key = value, got {line!r}")
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            violations.append(f"{where} {lineno}: unknown key {key!r}")
            continue
        if key in pairs and where == "line":
            violations.append(f"{where} {lineno}: duplicate key {key!r}")
            continue
        pairs[key] = (value, f"{where} {lineno}")


def _convert(pairs: dict, violations: list) -> dict:
    values = {}
    for key, (kind, default) in _KEYS.items():
        if key not in pairs:
            values[key] = default
            continue
        raw, where = pairs[key]
        if kind == "str":
            values[key] = raw
            continue
        is_int = kind.startswith("int")
        try:
            values[key] = int(raw) if is_int else float(raw)
        except ValueError:
            want = "an integer" if is_int else "a number"
            violations.append(f"{where}: {key} expects {want}, got {raw!r}")
            values[key] = default
    return values


def _problems_of(build, problems: list):
    """build(), or None after adding the problems of the ConfigError it raised."""
    try:
        return build()
    except ConfigError as err:
        problems.extend(err.problems)
        return None


def parse_config(text: str, overrides=()) -> RunConfig:
    """Validated RunConfig from a flat key = value document.

    Blank lines and # comments are skipped. Overrides are extra
    key=value strings applied after the document; they may replace keys
    the document already set. Every violation is collected so one raise
    reports them all.
    """
    violations: list[str] = []
    pairs: dict[str, tuple] = {}
    _tokenize(text, violations, pairs)
    for k, ov in enumerate(overrides, start=1):
        _tokenize(ov, violations, pairs, where=f"override {k}")
    values = _convert(pairs, violations)
    cfg = _problems_of(lambda: RunConfig(**values), violations)
    if violations:
        raise ConfigError.from_problems(violations)
    return cfg


def print_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(print_config(cfg)) == cfg."""
    lines = []
    for key in _KEYS:
        val = getattr(cfg, key)
        if val is None:
            continue
        if isinstance(val, float):
            val = repr(val)
        lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------- scenarios


def scenario_library(scenario_id: str, grid: Grid2D, amplitude: float = 1e-2) -> FullState:
    """Initial perturbation data for a named scenario.

    Every scenario satisfies the trace and flux starting conditions by
    construction: plucks are clamped polynomials, the thermal spot is a
    Gaussian in boundary-flattened coordinates so its conormal flux
    vanishes analytically on the whole boundary, and the shear profile
    is zero on every edge.
    """
    zs = np.zeros(grid.shape)
    zv = np.zeros(grid.shape + (2,))
    zb = np.zeros(grid.nx + 1)
    rho, v, theta, e1, e2 = zs, zv, zs.copy(), zb, zb.copy()
    if scenario_id == "steady":
        pass
    elif scenario_id == "beam-pluck":
        s = grid.x / grid.L
        e1 = amplitude * 16.0 * (s * (1.0 - s)) ** 2
    elif scenario_id == "thermal-spot":
        u = np.cos(np.pi * grid.xx / grid.L)
        w = np.cos(np.pi * grid.yy / grid.H)
        theta = amplitude * np.exp(-(u**2 + w**2) / 0.25)
    elif scenario_id == "shear-start":
        sx = grid.xx / grid.L
        sy = -grid.yy / grid.H
        v = np.zeros(grid.shape + (2,))
        v[..., 0] = amplitude * 16.0 * sx * (1.0 - sx) * sy * (1.0 - sy)
    else:
        raise ConfigError(f"unknown scenario {scenario_id!r} (one of {', '.join(SCENARIOS)})")
    return FullState(
        FluidField(grid, rho),
        FluidField(grid, v, kind="vector"),
        FluidField(grid, theta),
        BeamField(grid, e1, clamped=True),
        BeamField(grid, e2, clamped=True),
    )


def with_background(state: FullState, params: PhysParams) -> FullState:
    """Shift perturbation fields onto the uniform rest state."""
    g = state.grid
    return FullState(
        FluidField(g, state.rho.values + params.rho_bar),
        state.v,
        FluidField(g, state.theta.values + params.theta_bar),
        state.eta1,
        state.eta2,
        t=state.t,
    )


# ------------------------------------------------------------- reports


@dataclass(frozen=True)
class CheckResult:
    """One reported number with the bound it was held to."""

    name: str
    value: float
    expected: str
    passed: bool


def _check_le(name, value, tol):
    return CheckResult(name, float(value), f"<= {tol:g}", float(value) <= tol)


def _check_lt(name, value, tol):
    return CheckResult(name, float(value), f"< {tol:g}", float(value) < tol)


def _check_close(name, value, target, tol):
    return CheckResult(name, float(value), f"= {target:g} +- {tol:g}", abs(float(value) - target) <= tol)


def _check_flag(name, flag):
    return CheckResult(name, float(bool(flag)), "= 1", bool(flag))


@dataclass(frozen=True)
class RunReport:
    """Everything a run decided, with each number next to its bound.

    failure_kind is empty on success and one of validation, numerical,
    geometry otherwise so callers can map it to an exit status.
    """

    mode: str
    scenario: str
    config_text: str
    checks: tuple
    tables: tuple
    wall_clock: float
    status: str
    message: str = ""
    failure_kind: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def text(self) -> str:
        out = [
            "fsilab run report",
            f"mode: {self.mode}    scenario: {self.scenario}",
            f"status: {self.status.upper()}",
            f"wall clock: {self.wall_clock:.3f} s",
        ]
        if self.message:
            out.append(f"note: {self.message}")
        if self.checks:
            out.append("")
            out.append("checks:")
            width = max(len(c.name) for c in self.checks)
            for c in self.checks:
                mark = "pass" if c.passed else "FAIL"
                out.append(f"  [{mark}] {c.name:<{width}}  value {c.value:.6g}  expect {c.expected}")
        for title, header, rows in self.tables:
            out.append("")
            out.append(f"{title}:")
            out.append("  " + "  ".join(header))
            for row in rows:
                out.append("  " + "  ".join(str(c) for c in row))
        out.append("")
        out.append("configuration echo:")
        out.extend("  " + line for line in self.config_text.rstrip("\n").splitlines())
        out.append("")
        return "\n".join(out)


# ------------------------------------------------------------ artifacts


def _cell(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(c) for c in row])


def write_snapshot(path, state: FullState):
    """Self-describing structured-grid text dump of one state."""
    g = state.grid
    rho, v, theta = state.rho.values, state.v.values, state.theta.values
    lines = [
        "structured-grid snapshot",
        f"time {repr(float(state.t))}",
        f"domain L {repr(float(g.L))} H {repr(float(g.H))}",
        f"cells nx {g.nx} ny {g.ny}",
        "fluid-columns x y rho vx vy theta",
    ]
    fluid = np.column_stack(
        (np.repeat(g.x, g.ny + 1), np.tile(g.y, g.nx + 1), rho.ravel(), v[..., 0].ravel(), v[..., 1].ravel(), theta.ravel())
    )
    # repr of a Python float is repr(float(c)) of the numpy value it came from
    lines.extend(" ".join(map(repr, row)) for row in fluid.tolist())
    lines.append("beam-columns x eta1 eta2")
    beam = np.column_stack((g.x, state.eta1.values, state.eta2.values))
    lines.extend(" ".join(map(repr, row)) for row in beam.tolist())
    lines.append("end")
    pathlib.Path(path).write_text("\n".join(lines) + "\n")


def _snapshot_indices(n: int, most: int = 11):
    if n <= most:
        return list(range(n))
    return sorted({round(k * (n - 1) / (most - 1)) for k in range(most)})


# --------------------------------------------------------- mode drivers


def _mass_balance_drift(traj, mass: np.ndarray, params) -> float:
    """Worst gap in mass(t) = mass(0) + time integral of the mass source,
    for the mass series of `conserved_quantities`.

    The perturbation march conserves the combined fluid-plus-beam mass
    functional up to exactly the injected density source, so after the
    trapezoid correction the residual sits at the Picard stopping scale.
    """
    grid, states = traj.grid, traj.states
    src = np.empty(len(traj))
    for sl in _sample_blocks(len(traj), grid.n_nodes):
        src[sl] = integrate_fluid(grid, _global_density_source(states.sample(sl), traj.maps.sample(sl), params)[0])
    injected = _cumtrapz(src, traj.dt)
    return float(np.max(np.abs(mass - mass[0] - injected)))


def _drive_march(cfg: RunConfig, out: pathlib.Path):
    grid = cfg.make_grid()
    params = cfg.physical()
    state0 = scenario_library(cfg.scenario, grid, cfg.amplitude)
    itcfg = cfg.iteration()
    if cfg.mode == "local":
        state0 = with_background(state0, params)
        traj, rep = run_local(state0, itcfg, params)
        series = conserved_quantities(traj)
    else:
        traj, rep = run_global(state0, itcfg, params)
        series = conserved_quantities(traj, params)

    _write_csv(
        out / "diagnostics.csv",
        ("time", "state_norm", "mass", "energy"),
        [
            (traj.times[k], rep.state_norms[k], series.mass[k], series.energy[k])
            for k in range(len(traj))
        ],
    )
    it_rows = []
    for k, bn in enumerate(rep.bundle_norms):
        dn = rep.diff_norms[k] if k < len(rep.diff_norms) else ""
        ratio = rep.ratios[k - 1] if 1 <= k <= len(rep.ratios) else ""
        it_rows.append((k + 1, bn, dn, ratio))
    _write_csv(out / "iterations.csv", ("iteration", "bundle_norm", "diff_norm", "ratio"), it_rows)
    snapdir = out / "snapshots"
    snapdir.mkdir(exist_ok=True)
    for k in _snapshot_indices(len(traj)):
        write_snapshot(snapdir / f"state_{k:05d}.txt", traj[k])

    checks = [_check_flag("converged", rep.converged)]
    if rep.ratios:
        checks.append(_check_lt("contraction-max-ratio", max(rep.ratios), 1.0))
    if cfg.mode == "local":
        checks.append(_check_le("mass-drift-per-time", series.mass_drift / itcfg.T, 1e-5))
    else:
        checks.append(_check_le("mass-balance-drift", _mass_balance_drift(traj, series.mass, params), 1e-9))
        checks.append(_check_flag("decay-within-weight", not rep.decay_violation))
    tables = (
        (
            "iteration history",
            ("iter", "bundle_norm", "diff_norm", "ratio"),
            tuple(
                (r[0], f"{r[1]:.6g}", f"{r[2]:.6g}" if r[2] != "" else "-", f"{r[3]:.6g}" if r[3] != "" else "-")
                for r in it_rows
            ),
        ),
    )
    message = f"iteration status: {rep.status}"
    if rep.message:
        message += f" ({rep.message})"
    kind = ""
    if not rep.converged:
        kind = "geometry" if rep.status == "diffeo-failure" else "numerical"
    return checks, tables, message, kind


def _drive_spectrum(cfg: RunConfig, out: pathlib.Path):
    grid = cfg.make_grid()
    params = cfg.physical()
    op = assemble_coupled(grid, params)
    vals = spectrum(restrict_Xm(op))
    _write_csv(out / "eigenvalues.csv", ("re", "im"), [(z.real, z.imag) for z in vals])
    max_re = float(vals.real.max())
    kernel_dim = kernel_dimension(op, vals)
    checks = [
        _check_lt("max-re-mean-zero", max_re, 0.0),
        _check_close("kernel-dimension", kernel_dim, 2.0, 0.0),
    ]
    top = tuple((f"{z.real:.6g}", f"{z.imag:.6g}") for z in vals[:10])
    tables = (("leading eigenvalues (mean-zero subspace)", ("re", "im"), top),)
    message = f"max Re(lambda) on the mean-zero subspace = {max_re:.6e}; decay margin {-max_re:.6e}"
    return checks, tables, message, ""


def _drive_sector(cfg: RunConfig, out: pathlib.Path):
    grid = cfg.make_grid()
    params = cfg.physical()
    op = restrict_Xm(assemble_coupled(grid, params))
    radii = (1e-2, 1.0, 1e2, sector_rim(op))
    gamma, scan = gamma_search(op, cfg.beta, radii, seed=cfg.seed)
    _write_csv(
        out / "sector.csv",
        ("re", "im", "scaled_resolvent_norm"),
        [(l.real, l.imag, v) for l, v in zip(scan.lambdas, scan.values)],
    )
    rim = np.isclose(np.abs(scan.lambdas), max(radii), rtol=1e-9)
    gap = float(np.max(np.abs(scan.values[rim] - 1.0)))
    checks = [
        _check_le("high-radius-limit-gap", gap, 0.1),
        _check_le("singular-samples", len(scan.singular), 0.0),
    ]
    tables = ()
    message = (
        f"half-opening {cfg.beta:g} rad, shift gamma = {gamma:g}, "
        f"peak scaled resolvent norm {scan.m_hat:.4f}; largest last-step "
        f"relative change of the power iteration {scan.changes.max(initial=0.0):.2e}"
    )
    return checks, tables, message, ""


def _density_closed_form_error(n_steps: int = 100, dt: float = 1e-3) -> float:
    # v = (x, y) contracts the density linearly: rho = 1 - 2 t exactly
    grid = build_grid(1.0, 1.0, 12, 12)
    mets = _identity_metrics(grid)
    rho0 = np.ones(grid.shape)
    v = np.stack([grid.xx, grid.yy], axis=-1)
    zero = np.zeros(grid.shape)
    rho = rho0.copy()
    worst = 0.0
    for n in range(1, n_steps + 1):
        rho = step_density(FluidField(grid, rho), v, zero, mets, rho0, dt, v_prev=v, f1_prev=zero)
        worst = max(worst, float(np.max(np.abs(rho - (1.0 - 2.0 * n * dt)))))
    return worst


# each convergence study fixes its own unit-square grids and the rest
# state of its closed-form family, so these keys are echoed but not read
_CONVERGENCE_UNREAD = ("L", "H", "nx", "ny", "R0", "pi0", "rho_bar", "theta_bar")


def _drive_convergence(cfg: RunConfig, out: pathlib.Path):
    params = cfg.physical()
    reports = (
        manufactured_convergence("heat", "sin-product", (16, 32, 64), params=params),
        manufactured_convergence("velocity", "sin-product", (16, 32, 64), params=params),
        manufactured_convergence("plate", "clamped-poly", (64, 128, 256), mode="temporal", params=params),
    )
    rows = []
    for rep in reports:
        for k, n in enumerate(rep.resolutions):
            order = rep.orders[k - 1] if k >= 1 else ""
            rows.append((rep.stepper, rep.mode, n, rep.errors[k], order))
    _write_csv(out / "convergence.csv", ("stepper", "mode", "resolution", "error", "order"), rows)
    density_err = _density_closed_form_error()
    checks = [
        _check_close("heat-spatial-order", reports[0].mean_order, 2.0, 0.2),
        _check_close("velocity-spatial-order", reports[1].mean_order, 2.0, 0.2),
        _check_close("plate-temporal-order", reports[2].mean_order, 1.0, 0.2),
        _check_le("density-closed-form-error", density_err, 1e-8),
    ]
    tables = tuple(
        (
            f"{rep.stepper} ({rep.mode})",
            ("resolution", "error", "order"),
            tuple(
                (n, f"{rep.errors[k]:.4e}", f"{rep.orders[k - 1]:.3f}" if k >= 1 else "-")
                for k, n in enumerate(rep.resolutions)
            ),
        )
        for rep in reports
    )
    message = f"reads mu, alpha, kappa and c_v; does not read {', '.join(_CONVERGENCE_UNREAD)}"
    return checks, tables, message, ""


_DRIVERS = {
    "local": _drive_march,
    "global": _drive_march,
    "spectrum": _drive_spectrum,
    "sector": _drive_sector,
    "convergence": _drive_convergence,
}


def run_scenario(cfg: RunConfig) -> RunReport:
    """Execute one configured run and write its artifacts.

    Output lands under the config's directory. A report file is written
    even when the run dies; module errors then propagate to the caller.
    """
    out = pathlib.Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"output directory {out} cannot be made: {err}") from err
    config_text = print_config(cfg)
    (out / "config.txt").write_text(config_text)
    t0 = time.perf_counter()
    try:
        checks, tables, message, kind = _DRIVERS[cfg.mode](cfg, out)
    except FsilabError as err:
        kind = (
            "validation"
            if isinstance(err, ConfigError)
            else "geometry" if isinstance(err, GeometryError) else "numerical"
        )
        report = RunReport(
            cfg.mode,
            cfg.scenario,
            config_text,
            (),
            (),
            time.perf_counter() - t0,
            "fail",
            f"{type(err).__name__}: {err}",
            kind,
        )
        (out / "report.txt").write_text(report.text())
        raise
    status = "pass" if checks and all(c.passed for c in checks) else "fail"
    report = RunReport(
        cfg.mode,
        cfg.scenario,
        config_text,
        tuple(checks),
        tuple(tables),
        time.perf_counter() - t0,
        status,
        message,
        kind if status == "fail" else "",
    )
    (out / "report.txt").write_text(report.text())
    return report


# ----------------------------------------------------------------- CLI


_EXIT_BY_KIND = {"validation": 2, "numerical": 3, "geometry": 4}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsilab",
        description="batch runs of the coupled flow-beam laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    forced = {"run": None, "spectrum": "spectrum", "sector": "sector", "converge": "convergence"}
    for name, mode in forced.items():
        p = sub.add_parser(name, help=f"{mode or 'configured'} mode")
        p.set_defaults(mode=mode)
        p.add_argument("--config", default=None, help="path to a key = value document")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed for randomized pieces")
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="replace one config key (repeatable)",
        )
    p = sub.add_parser("report", help="print the report of a finished run")
    p.add_argument("--out", required=True, help="directory of the finished run")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "report":
        path = pathlib.Path(args.out) / "report.txt"
        if not path.exists():
            print(f"no report found at {path}", file=sys.stderr)
            return 2
        sys.stdout.write(path.read_text())
        return 0

    text = ""
    if args.config is not None:
        cfg_path = pathlib.Path(args.config)
        if not cfg_path.exists():
            print(f"config file not found: {cfg_path}", file=sys.stderr)
            return 2
        try:
            text = cfg_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
            print(f"cannot read config file {cfg_path}: {err}", file=sys.stderr)
            return 2
    overrides = list(args.override)
    if args.mode is not None:
        overrides.append(f"mode = {args.mode}")
    if args.out is not None:
        overrides.append(f"out_dir = {args.out}")
    if args.seed is not None:
        overrides.append(f"seed = {args.seed}")

    try:
        cfg = parse_config(text, overrides=overrides)
    except ConfigError as err:
        print(str(err), file=sys.stderr)
        return 2
    try:
        report = run_scenario(cfg)
    except ConfigError as err:
        print(str(err), file=sys.stderr)
        return 2
    except GeometryError as err:
        print(str(err), file=sys.stderr)
        return 4
    except NumericsError as err:
        print(str(err), file=sys.stderr)
        return 3
    sys.stdout.write(report.text())
    if report.passed:
        return 0
    return _EXIT_BY_KIND.get(report.failure_kind, 3)


if __name__ == "__main__":
    raise SystemExit(main())

"""Output checks that read a run's artifacts and recompute what they claim.

Every check takes the run's output directory (and the parsed config) and
returns a list of problems; an empty list means the check holds. The
checks re-derive their numbers from the CSV and snapshot text with their
own quadrature, orders and sums, so they do not depend on the program's
report or on the figures a particular version printed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import pathlib

import numpy as np

RIM_GAP_BOUND = 0.1
ORDER_TOLERANCE = 0.2
EXPECTED_ORDERS = {"heat": 2.0, "velocity": 2.0, "plate": 1.0}


# ------------------------------------------------------------ readers


def read_csv(path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def column(rows: list[dict], key: str) -> np.ndarray:
    return np.array([float(r[key]) for r in rows])


def read_snapshot(path) -> dict:
    """Parse the structured-grid text dump into arrays."""
    lines = pathlib.Path(path).read_text().splitlines()
    if lines[0] != "structured-grid snapshot" or lines[-1] != "end":
        raise ValueError(f"{path}: not a complete snapshot")
    t = float(lines[1].split()[1])
    i = lines.index("fluid-columns x y rho vx vy theta")
    j = lines.index("beam-columns x eta1 eta2")
    fluid = np.array([[float(c) for c in line.split()] for line in lines[i + 1 : j]])
    beam = np.array([[float(c) for c in line.split()] for line in lines[j + 1 : -1]])
    return {"t": t, "fluid": fluid, "beam": beam}


def snapshots(out_dir) -> list[pathlib.Path]:
    return sorted(pathlib.Path(out_dir, "snapshots").glob("state_*.txt"))


def _trapezoid_weights(nodes: np.ndarray) -> np.ndarray:
    gaps = np.diff(nodes)
    w = np.zeros(nodes.size)
    w[:-1] += 0.5 * gaps
    w[1:] += 0.5 * gaps
    return w


def snapshot_mass(snap: dict, rho_bar: float) -> tuple[float, float]:
    """Trapezoid fluid mass plus rho_bar times the beam deflection integral.

    Returns the mass and the sum of the magnitudes of its terms, the
    scale a round-off comparison is made against.
    """
    f, b = snap["fluid"], snap["beam"]
    xs, ys = np.unique(f[:, 0]), np.unique(f[:, 1])
    wx, wy = _trapezoid_weights(xs), _trapezoid_weights(ys)
    w = wx[np.searchsorted(xs, f[:, 0])] * wy[np.searchsorted(ys, f[:, 1])]
    wb = _trapezoid_weights(b[:, 0])
    terms = np.concatenate([w * f[:, 2], rho_bar * wb * b[:, 1]])
    return float(np.sum(terms)), float(np.sum(np.abs(terms)))


def artifact_digests(out_dir) -> dict[str, str]:
    """SHA-256 of every CSV and snapshot file, by path under out_dir."""
    root = pathlib.Path(out_dir)
    files = sorted(root.glob("*.csv")) + snapshots(root)
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


# ------------------------------------------------------------ march, global cases


def check_snapshot_mass(out_dir, cfg) -> list[str]:
    """Each snapshot's integrated mass equals the diagnostics.csv mass at its time."""
    rows = read_csv(pathlib.Path(out_dir, "diagnostics.csv"))
    times, mass = column(rows, "time"), column(rows, "mass")
    problems = []
    paths = snapshots(out_dir)
    if not paths:
        problems.append("no snapshots written")
    for p in paths:
        snap = read_snapshot(p)
        k = int(np.argmin(np.abs(times - snap["t"])))
        if abs(times[k] - snap["t"]) > 1e-12 * max(1.0, abs(snap["t"])):
            problems.append(f"{p.name}: time {snap['t']!r} has no diagnostics row")
            continue
        m, scale = snapshot_mass(snap, cfg.rho_bar)
        if abs(m - mass[k]) > 1e-9 * scale:
            problems.append(f"{p.name}: integrated mass {m!r} != diagnostics mass {mass[k]!r} at t={times[k]!r}")
    return problems


def check_exact_zero(out_dir, cfg) -> list[str]:
    """Steady data stay exactly zero in every snapshot and diagnostics row."""
    problems = []
    rows = read_csv(pathlib.Path(out_dir, "diagnostics.csv"))
    for key in ("state_norm", "mass", "energy"):
        worst = float(np.max(np.abs(column(rows, key))))
        if worst != 0.0:
            problems.append(f"diagnostics {key} reaches {worst!r}, not exactly 0")
    for p in snapshots(out_dir):
        snap = read_snapshot(p)
        worst = max(float(np.max(np.abs(snap["fluid"][:, 2:]))), float(np.max(np.abs(snap["beam"][:, 1:]))))
        if worst != 0.0:
            problems.append(f"{p.name}: a field reaches {worst!r}, not exactly 0")
    return problems


def check_picard_converged(out_dir, cfg) -> list[str]:
    """The last difference norm is below tol times the bundle norm; every ratio is below 1."""
    rows = read_csv(pathlib.Path(out_dir, "iterations.csv"))
    if not rows or rows[-1]["diff_norm"] == "":
        return ["iterations.csv has no final difference norm"]
    problems = []
    bn, dn = float(rows[-1]["bundle_norm"]), float(rows[-1]["diff_norm"])
    if not dn < cfg.tol * bn:
        problems.append(f"last diff_norm {dn!r} is not below tol*bundle_norm = {cfg.tol * bn!r}")
    for r in rows:
        if r["ratio"] != "" and not float(r["ratio"]) < 1.0:
            problems.append(f"iteration {r['iteration']}: contraction ratio {r['ratio']} >= 1")
    return problems


def check_energy_decays(out_dir, cfg) -> list[str]:
    """The energy at the horizon is below the energy at t = 0."""
    energy = column(read_csv(pathlib.Path(out_dir, "diagnostics.csv")), "energy")
    if not energy[-1] < energy[0]:
        return [f"energy at T {energy[-1]!r} is not below energy at t=0 {energy[0]!r}"]
    return []


# ------------------------------------------------------------ march, local cases


def check_clamped_and_walls(out_dir, cfg) -> list[str]:
    """Beam ends are zero and wall velocities vanish in every snapshot."""
    problems = []
    paths = snapshots(out_dir)
    if not paths:
        problems.append("no snapshots written")
    for p in paths:
        snap = read_snapshot(p)
        f, b = snap["fluid"], snap["beam"]
        ends = b[[0, -1], 1:]
        if np.any(ends != 0.0):
            problems.append(f"{p.name}: beam end values {ends.ravel().tolist()} are not clamped")
        x, y = f[:, 0], f[:, 1]
        wall = (x == x.min()) | (x == x.max()) | (y == y.min())
        vel = f[:, 3:5]
        worst = float(np.max(np.abs(vel[wall])))
        if worst > 1e-10 * max(1.0, float(np.max(np.abs(vel)))):
            problems.append(f"{p.name}: wall velocity reaches {worst!r}")
    return problems


def check_mass_drift(out_dir, cfg) -> list[str]:
    """Mass drift per unit time stays at or below 1e-5."""
    mass = column(read_csv(pathlib.Path(out_dir, "diagnostics.csv")), "mass")
    drift = float(np.max(np.abs(mass - mass[0]))) / cfg.T
    if not drift <= 1e-5:
        return [f"mass drift per unit time {drift!r} > 1e-5"]
    return []


def observed_orders(out_dir) -> dict[str, float]:
    """Mean observed order per stepper, from the errors alone."""
    rows = read_csv(pathlib.Path(out_dir, "convergence.csv"))
    orders = {}
    for stepper in dict.fromkeys(r["stepper"] for r in rows):
        mine = [r for r in rows if r["stepper"] == stepper]
        n = column(mine, "resolution")
        e = column(mine, "error")
        orders[stepper] = float(np.mean(np.log(e[:-1] / e[1:]) / np.log(n[1:] / n[:-1])))
    return orders


def check_orders(out_dir, cfg) -> list[str]:
    """Observed orders within 0.2 of 2 (heat), 2 (velocity) and 1 (plate)."""
    orders = observed_orders(out_dir)
    problems = []
    for stepper, want in EXPECTED_ORDERS.items():
        got = orders.get(stepper)
        if got is None or not abs(got - want) <= ORDER_TOLERANCE:
            problems.append(f"{stepper}: observed order {got!r}, expected {want} +- {ORDER_TOLERANCE}")
    return problems


# ------------------------------------------------------------ spectral


def coupled_dimension(nx: int, ny: int) -> int:
    """Unknowns of the coupled generator, counted from the grid.

    Density and temperature on every node, velocity on interior nodes,
    beam deflection and beam velocity on interior beam nodes.
    """
    return 2 * (nx + 1) * (ny + 1) + 2 * (nx - 1) * (ny - 1) + 2 * (nx - 1)


def check_mean_zero_spectrum(out_dir, cfg, matrix_trace: float) -> list[str]:
    """Mean-zero eigenvalues: conjugate-closed, dim - 2 of them, summing to
    the generator's trace, all in the open left half-plane."""
    rows = read_csv(pathlib.Path(out_dir, "eigenvalues.csv"))
    vals = column(rows, "re") + 1j * column(rows, "im")
    problems = []
    want = coupled_dimension(cfg.nx, cfg.ny) - 2
    if vals.size != want:
        problems.append(f"{vals.size} mean-zero eigenvalues, expected dim - 2 = {want}")
    scale = float(np.max(np.abs(vals))) if vals.size else 1.0
    a = np.sort_complex(vals)
    b = np.sort_complex(np.conj(vals))
    gap = float(np.max(np.abs(a - b))) if vals.size else 0.0
    if gap > 1e-9 * scale:
        problems.append(f"eigenvalues are not closed under conjugation (gap {gap!r})")
    total = complex(np.sum(vals))
    rel = abs(total - matrix_trace) / abs(matrix_trace)
    if rel > 1e-10:
        problems.append(f"eigenvalue sum {total!r} differs from the trace {matrix_trace!r} by {rel:.3e} (relative)")
    top = float(np.max(vals.real))
    if not top < 0.0:
        problems.append(f"max Re of the mean-zero spectrum is {top!r}, not < 0")
    return problems


def rim_gap(out_dir) -> float:
    """Largest |value - 1| over the samples at the scan's largest |lambda|."""
    rows = read_csv(pathlib.Path(out_dir, "sector.csv"))
    lam = column(rows, "re") + 1j * column(rows, "im")
    radius = np.abs(lam)
    rim = radius >= radius.max() * (1.0 - 1e-9)
    return float(np.max(np.abs(column(rows, "scaled_resolvent_norm")[rim] - 1.0)))


def check_rim_gap(out_dir, cfg) -> list[str]:
    """Scaled resolvent norms settle to 1 within 0.1 at the largest radius sampled."""
    gap = rim_gap(out_dir)
    if not gap <= RIM_GAP_BOUND:
        return [f"high-radius gap {gap:.4f} > {RIM_GAP_BOUND} at the largest sampled |lambda|"]
    return []


def sector_grid(out_dir) -> tuple[int, int]:
    """Distinct radii and distinct rays among the sector samples."""
    rows = read_csv(pathlib.Path(out_dir, "sector.csv"))
    lam = column(rows, "re") + 1j * column(rows, "im")
    radii = {float(f"{r:.9e}") for r in np.abs(lam)}
    rays = {round(math.atan2(z.imag, z.real), 9) for z in lam}
    return len(radii), len(rays)


# ------------------------------------------------------------ trace counts


def check_march_counts(out_dir, cfg, counts) -> list[str]:
    """Two LU solves per step of every global march (the coupled two-column
    solve and the shifted heat solve), and one source evaluation per row
    of iterations.csv."""
    nt = round(cfg.T / cfg.dt) + 1
    problems = []
    want = 2 * counts["fixed_point.marches"] * (nt - 1)
    if counts["linear_subsystems.lu_solves"] != want:
        problems.append(f"traced {counts['linear_subsystems.lu_solves']} LU solves, expected 2 x marches x (nt - 1) = {want}")
    rows = len(read_csv(pathlib.Path(out_dir, "iterations.csv")))
    if counts["fixed_point.picard_iterations"] != rows:
        problems.append(f"traced {counts['fixed_point.picard_iterations']} Picard iterations, iterations.csv has {rows}")
    return problems


def check_eig_dim(out_dir, cfg, counts) -> list[str]:
    """The eigensolved dimension is the one counted from the grid."""
    want = coupled_dimension(cfg.nx, cfg.ny)
    if counts["fs_operator.eig_dim"] != want:
        return [f"traced eigensolve dimension {counts['fs_operator.eig_dim']}, expected {want} from the grid"]
    return []


def check_sector_counts(out_dir, cfg, counts) -> list[str]:
    """Sector samples = radii x rays for every shift gamma tried."""
    radii, rays = sector_grid(out_dir)
    want = counts["fs_operator.sector_scans"] * radii * rays
    if counts["fs_operator.sector_samples"] != want:
        return [f"traced {counts['fs_operator.sector_samples']} sector samples, expected scans x radii x rays = {want}"]
    return []

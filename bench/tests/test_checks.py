"""Each output check holds on a real artifact and fails on a perturbed copy of it."""

import csv
import pathlib
import shutil

import numpy as np
import pytest

import checks
import fsilab
from workloads import WORKLOADS


def run(tmp_path_factory, name, text):
    out = tmp_path_factory.mktemp(name)
    cfg = fsilab.parse_config(text, overrides=[f"out_dir = {out}"])
    fsilab.run_scenario(cfg)
    return out, cfg


@pytest.fixture(scope="module")
def global_pluck(tmp_path_factory):
    return run(tmp_path_factory, "gp", "mode = global\nscenario = beam-pluck\nnx = 8\nT = 0.2\ndt = 0.01\nbeta = 0.1\n")


@pytest.fixture(scope="module")
def global_steady(tmp_path_factory):
    return run(tmp_path_factory, "gs", "mode = global\nscenario = steady\nnx = 8\nT = 0.2\ndt = 0.01\nbeta = 0.1\n")


@pytest.fixture(scope="module")
def local_pluck(tmp_path_factory):
    return run(tmp_path_factory, "lp", "mode = local\nscenario = beam-pluck\nnx = 8\nT = 0.05\ndt = 0.01\n")


@pytest.fixture(scope="module")
def convergence(tmp_path_factory):
    return run(tmp_path_factory, "cv", "mode = convergence\n")


@pytest.fixture(scope="module")
def spectrum(tmp_path_factory):
    return run(tmp_path_factory, "sp", "mode = spectrum\nnx = 6\n")


@pytest.fixture(scope="module")
def sector(tmp_path_factory):
    return run(tmp_path_factory, "se", "mode = sector\nnx = 6\nbeta = 2.356\n")


def copy_of(src, tmp_path) -> pathlib.Path:
    dst = tmp_path / "copy"
    shutil.copytree(src, dst)
    return dst


def edit_csv(path, row, key, value):
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
        header = list(rows[0])
    rows[row][key] = value
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def edit_snapshot(path, column, value, where=lambda x, y: True):
    """Set one fluid column (x=0 ... theta=5) at the first node where `where` holds."""
    lines = path.read_text().splitlines()
    start = lines.index("fluid-columns x y rho vx vy theta") + 1
    for k in range(start, lines.index("beam-columns x eta1 eta2")):
        cells = lines[k].split()
        if where(float(cells[0]), float(cells[1])):
            cells[column] = repr(value)
            lines[k] = " ".join(cells)
            break
    path.write_text("\n".join(lines) + "\n")


def edit_beam_end(path, value):
    lines = path.read_text().splitlines()
    k = lines.index("beam-columns x eta1 eta2") + 1
    cells = lines[k].split()
    cells[1] = repr(value)
    lines[k] = " ".join(cells)
    path.write_text("\n".join(lines) + "\n")


def last_snapshot(out):
    return checks.snapshots(out)[-1]


def spectrum_trace(cfg):
    return float(fsilab.assemble_coupled(cfg.make_grid(), cfg.physical()).matrix.diagonal().sum())


# ---------------------------------------------------------------- march, global cases


def test_snapshot_mass(global_pluck, tmp_path):
    out, cfg = global_pluck
    assert checks.check_snapshot_mass(out, cfg) == []
    bad = copy_of(out, tmp_path)
    edit_snapshot(last_snapshot(bad), 2, 0.5, lambda x, y: x > 0.4 and y < -0.4)
    assert checks.check_snapshot_mass(bad, cfg)


def test_snapshot_mass_reads_the_diagnostics_row(global_pluck, tmp_path):
    out, cfg = global_pluck
    bad = copy_of(out, tmp_path)
    edit_csv(bad / "diagnostics.csv", -1, "mass", "0.5")
    assert checks.check_snapshot_mass(bad, cfg)


def test_picard_converged(global_pluck, tmp_path):
    out, cfg = global_pluck
    assert checks.check_picard_converged(out, cfg) == []
    bad = copy_of(out, tmp_path)
    edit_csv(bad / "iterations.csv", -1, "diff_norm", "1e-3")
    assert checks.check_picard_converged(bad, cfg)
    bad = copy_of(out, tmp_path / "ratio")
    edit_csv(bad / "iterations.csv", -1, "ratio", "1.5")
    assert checks.check_picard_converged(bad, cfg)


def test_energy_decays(global_pluck, tmp_path):
    out, cfg = global_pluck
    assert checks.check_energy_decays(out, cfg) == []
    bad = copy_of(out, tmp_path)
    edit_csv(bad / "diagnostics.csv", -1, "energy", "1.0")
    assert checks.check_energy_decays(bad, cfg)


def test_exact_zero(global_steady, tmp_path):
    out, cfg = global_steady
    assert checks.check_exact_zero(out, cfg) == []
    assert checks.check_snapshot_mass(out, cfg) == []
    bad = copy_of(out, tmp_path)
    edit_snapshot(last_snapshot(bad), 5, 1e-300)
    assert checks.check_exact_zero(bad, cfg)
    bad = copy_of(out, tmp_path / "diag")
    edit_csv(bad / "diagnostics.csv", 3, "energy", "5e-324")
    assert checks.check_exact_zero(bad, cfg)


def test_march_counts(global_pluck):
    out, cfg = global_pluck
    rows = len(checks.read_csv(out / "iterations.csv"))
    nt = round(cfg.T / cfg.dt) + 1
    good = {"fixed_point.marches": rows + 1, "fixed_point.picard_iterations": rows}
    good["linear_subsystems.lu_solves"] = 2 * (rows + 1) * (nt - 1)
    assert checks.check_march_counts(out, cfg, good) == []
    assert checks.check_march_counts(out, cfg, {**good, "linear_subsystems.lu_solves": good["linear_subsystems.lu_solves"] - 1})
    assert checks.check_march_counts(out, cfg, {**good, "fixed_point.picard_iterations": rows + 1})


# ---------------------------------------------------------------- march, local cases


def test_clamped_and_walls(local_pluck, tmp_path):
    out, cfg = local_pluck
    assert checks.check_clamped_and_walls(out, cfg) == []
    bad = copy_of(out, tmp_path)
    edit_beam_end(last_snapshot(bad), 1e-12)
    assert checks.check_clamped_and_walls(bad, cfg)
    bad = copy_of(out, tmp_path / "wall")
    edit_snapshot(last_snapshot(bad), 4, 1e-6, lambda x, y: x == 0.0 and y > -0.9)
    assert checks.check_clamped_and_walls(bad, cfg)


def test_mass_drift(local_pluck, tmp_path):
    out, cfg = local_pluck
    assert checks.check_mass_drift(out, cfg) == []
    bad = copy_of(out, tmp_path)
    mass = checks.column(checks.read_csv(bad / "diagnostics.csv"), "mass")
    edit_csv(bad / "diagnostics.csv", -1, "mass", repr(float(mass[0] + 2e-5 * cfg.T)))
    assert checks.check_mass_drift(bad, cfg)


def test_orders(convergence, tmp_path):
    out, cfg = convergence
    assert checks.check_orders(out, cfg) == []
    rows = checks.read_csv(out / "convergence.csv")
    last_heat = max(k for k, r in enumerate(rows) if r["stepper"] == "heat")
    bad = copy_of(out, tmp_path)
    # an error 1.5x too large on the finest heat grid moves the mean order by 0.29
    edit_csv(bad / "convergence.csv", last_heat, "error", repr(1.5 * float(rows[last_heat]["error"])))
    assert checks.check_orders(bad, cfg)


# ---------------------------------------------------------------- spectral


def test_mean_zero_spectrum(spectrum, tmp_path):
    out, cfg = spectrum
    trace = spectrum_trace(cfg)
    assert checks.check_mean_zero_spectrum(out, cfg, trace) == []
    rows = checks.read_csv(out / "eigenvalues.csv")
    pair = next(k for k, r in enumerate(rows) if float(r["im"]) != 0.0)
    z = float(rows[-1]["re"])

    bad = copy_of(out, tmp_path / "conj")
    edit_csv(bad / "eigenvalues.csv", pair, "im", repr(1.001 * float(rows[pair]["im"])))
    assert any("conjugation" in p for p in checks.check_mean_zero_spectrum(bad, cfg, trace))

    bad = copy_of(out, tmp_path / "sum")
    edit_csv(bad / "eigenvalues.csv", len(rows) - 1, "re", repr(z * (1 + 1e-6)))
    assert any("trace" in p for p in checks.check_mean_zero_spectrum(bad, cfg, trace))

    bad = copy_of(out, tmp_path / "right")
    edit_csv(bad / "eigenvalues.csv", 0, "re", "1e-9")
    assert any("max Re" in p for p in checks.check_mean_zero_spectrum(bad, cfg, trace))

    bad = copy_of(out, tmp_path / "count")
    lines = (bad / "eigenvalues.csv").read_text().splitlines()
    (bad / "eigenvalues.csv").write_text("\n".join(lines[:-1]) + "\n")
    assert any("dim - 2" in p for p in checks.check_mean_zero_spectrum(bad, cfg, trace))


def test_coupled_dimension_matches_the_assembled_operator():
    for nx, ny in ((6, 6), (8, 5), (20, 20)):
        grid = fsilab.build_grid(1.0, 1.0, nx, ny)
        op = fsilab.assemble_coupled(grid, fsilab.default_params())
        assert op.shape[0] == checks.coupled_dimension(nx, ny)
    assert checks.coupled_dimension(20, 20) == 1642


def test_rim_gap_reads_the_largest_radius(sector, tmp_path):
    out, cfg = sector
    rows = checks.read_csv(out / "sector.csv")
    radius = np.hypot(checks.column(rows, "re"), checks.column(rows, "im"))
    rim = [k for k in range(len(rows)) if radius[k] >= radius.max() * (1 - 1e-9)]
    assert len(rim) == 5
    good = copy_of(out, tmp_path / "good")
    for k in rim:
        edit_csv(good / "sector.csv", k, "scaled_resolvent_norm", "1.0")
    # a large gap below the rim does not count
    inner = int(np.argmin(radius))
    edit_csv(good / "sector.csv", inner, "scaled_resolvent_norm", "9.0")
    assert checks.rim_gap(good) == 0.0
    assert checks.check_rim_gap(good, cfg) == []
    bad = copy_of(good, tmp_path / "bad")
    edit_csv(bad / "sector.csv", rim[2], "scaled_resolvent_norm", "1.15")
    assert checks.check_rim_gap(bad, cfg)


def test_sector_and_eig_counts(sector, spectrum):
    out, cfg = sector
    radii, rays = checks.sector_grid(out)
    assert (radii, rays) == (4, 5)
    good = {"fs_operator.sector_scans": 2, "fs_operator.sector_samples": 40}
    assert checks.check_sector_counts(out, cfg, good) == []
    assert checks.check_sector_counts(out, cfg, {**good, "fs_operator.sector_samples": 39})
    out, cfg = spectrum
    assert checks.check_eig_dim(out, cfg, {"fs_operator.eig_dim": checks.coupled_dimension(6, 6)}) == []
    assert checks.check_eig_dim(out, cfg, {"fs_operator.eig_dim": checks.coupled_dimension(6, 6) - 2})


# ---------------------------------------------------------------- determinism


def test_digests_see_one_changed_byte(local_pluck, tmp_path):
    out, _ = local_pluck
    bad = copy_of(out, tmp_path)
    snap = last_snapshot(bad)
    data = bytearray(snap.read_bytes())
    data[-5] = ord("9") if data[-5] != ord("9") else ord("8")
    snap.write_bytes(bytes(data))
    before, after = checks.artifact_digests(out), checks.artifact_digests(bad)
    assert before.keys() == after.keys()
    assert [k for k in before if before[k] != after[k]] == [str(snap.relative_to(bad))]


def test_workload_configs_parse():
    for cases in WORKLOADS.values():
        for case in cases:
            fsilab.parse_config(case.config, overrides=["seed = 3"])

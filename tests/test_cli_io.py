import csv
import dataclasses
import io
import contextlib

import numpy as np
import pytest
import scipy.sparse as sp

from fsilab.cli_io import (
    MODES,
    SCENARIOS,
    RunConfig,
    main,
    parse_config,
    print_config,
    run_scenario,
    scenario_library,
    with_background,
    write_snapshot,
)
from fsilab.core_grid import FluidField, build_grid
from fsilab.errors import ConfigError, NumericsError
from fsilab.fs_operator import assemble_coupled, spectrum
from fsilab.linear_subsystems import default_params
from fsilab.nonlinear_sources import check_compatibility


def unit_grid(n=8):
    return build_grid(1.0, 1.0, n, n)


# ------------------------------------------------------------- parsing


def test_minimal_document_fills_declared_defaults():
    cfg = parse_config("mode = local\nnx = 16\n")
    assert cfg.mode == "local"
    assert cfg.L == 1.0 and cfg.H == 1.0
    assert cfg.nx == 16 and cfg.ny == 16
    assert cfg.mu == 1.0 and cfg.alpha == 0.0 and cfg.kappa == 1.0
    assert cfg.c_v == 1.0 and cfg.R0 == 1.0
    assert cfg.rho_bar == 1.0 and cfg.theta_bar == 1.0
    assert cfg.pi0 == -1.0
    assert cfg.scenario == "steady"


def test_comments_and_blanks_skipped():
    cfg = parse_config("# a run\nmode = local   # trailing\n\nnx = 8\n")
    assert cfg.nx == 8


@pytest.mark.parametrize(
    "text",
    [
        "mode = local\nnx = 8\nT = 0.08\ndt = 0.005\namplitude = 0.0375\n",
        "mode = global\nbeta = 0.125\nnx = 12\nny = 8\ntol = 1e-08\nseed = 3\n",
        "mode = sector\nbeta = 2.4\nout_dir = scans\n",
    ],
)
def test_config_round_trip(text):
    cfg = parse_config(text)
    assert parse_config(print_config(cfg)) == cfg


def test_negative_bulk_viscosity_cited():
    with pytest.raises(ConfigError) as exc:
        parse_config("mode = local\nalpha = -1\nmu = 1\n")
    assert "alpha + 2*mu/3" in str(exc.value)
    assert "-0.333" in str(exc.value)


def test_global_without_beta_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config("mode = global\nnx = 8\n")
    assert "requires beta" in str(exc.value)


def test_all_violations_collected_in_one_raise():
    text = "mode = warp\nnx = 2\nmu = 0\nwibble = 1\nq = oops\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    msg = str(exc.value)
    for piece in ("warp", "4 cells", "mu", "wibble", "expects a number"):
        assert piece in msg
    # mu = 0 breaks both the shear and the combined viscosity constraint
    assert "6 problems" in msg


def test_malformed_and_duplicate_lines_located():
    with pytest.raises(ConfigError) as exc:
        parse_config("mode = local\njust words\nnx = 8\nnx = 9\n")
    msg = str(exc.value)
    assert "line 2" in msg and "key = value" in msg
    assert "line 4" in msg and "duplicate" in msg


def test_mode_is_required():
    with pytest.raises(ConfigError) as exc:
        parse_config("nx = 8\n")
    assert "mode is required" in str(exc.value)
    for m in MODES:
        assert m in str(exc.value)


def test_unbalanced_global_pressure_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config("mode = global\nbeta = 0.1\npi0 = -2.0\n")
    assert "pi0" in str(exc.value)


def test_global_pressure_balance_is_relative_to_the_background_pressure():
    # R0 rho_bar theta_bar = 1e-3, so a gap of 5e-13 is 5e-10 of the
    # background pressure: the parser holds it to the rule the march uses
    text = "mode = global\nbeta = 0.1\nR0 = 0.1\nrho_bar = 0.1\ntheta_bar = 0.1\n"
    with pytest.raises(ConfigError) as exc:
        parse_config(text + "pi0 = -0.0010000000005\n")
    msg = str(exc.value)
    assert "1 problem" in msg and "pi0" in msg
    assert repr(-0.0010000000005) in msg and repr(-0.1 * 0.1 * 0.1) in msg
    cfg = parse_config(text + f"pi0 = {-0.1 * 0.1 * 0.1!r}\n")
    cfg.physical().require_global()


def test_run_config_built_directly_is_validated():
    with pytest.raises(ConfigError) as exc:
        RunConfig(mode="warp")
    assert "unknown mode 'warp'" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        RunConfig(mode="global", nx=2, mu=0.0, T=0.1, dt=0.03)
    # the grid, both viscosity rules, the step, and the missing beta
    assert len(exc.value.problems) == 5
    assert "does not divide" in str(exc.value) and "requires beta" in str(exc.value)


def test_sector_angle_bounds():
    with pytest.raises(ConfigError):
        parse_config("mode = sector\n")
    with pytest.raises(ConfigError):
        parse_config("mode = sector\nbeta = 4.0\n")


def test_nondividing_step_rejected_at_parse():
    with pytest.raises(ConfigError) as exc:
        parse_config("mode = local\nT = 0.1\ndt = 0.03\n")
    assert "does not divide" in str(exc.value)


def test_resonant_exponents_rejected_at_parse():
    with pytest.raises(ConfigError) as exc:
        parse_config("mode = local\np = 2.5\nq = 5\n")
    assert "resonant" in str(exc.value)


def test_overrides_replace_document_values():
    cfg = parse_config("mode = local\nnx = 8\n", overrides=("nx = 12", "seed = 5"))
    assert cfg.nx == 12 and cfg.seed == 5


def test_bad_override_reported_with_source():
    with pytest.raises(ConfigError) as exc:
        parse_config("mode = local\n", overrides=("nx = frog",))
    assert "override 1" in str(exc.value)


# ----------------------------------------------------------- scenarios


@pytest.mark.parametrize("sid", SCENARIOS)
def test_scenarios_satisfy_starting_conditions(sid):
    g = unit_grid()
    params = default_params()
    pert = scenario_library(sid, g, 1e-2)
    assert check_compatibility(pert, params, mode="global").all_passed
    full = with_background(pert, params)
    assert check_compatibility(full, params, mode="local").all_passed


def test_steady_scenario_is_zero():
    st = scenario_library("steady", unit_grid(), 0.5)
    assert not st.rho.values.any()
    assert not st.v.values.any()
    assert not st.theta.values.any()
    assert not st.eta1.values.any()


def test_beam_pluck_scales_exactly_linearly():
    g = unit_grid(16)
    one = scenario_library("beam-pluck", g, 1e-2).eta1.values
    two = scenario_library("beam-pluck", g, 2e-2).eta1.values
    assert np.array_equal(two, 2.0 * one)
    assert np.max(np.abs(one)) > 0


def test_thermal_spot_flux_residual_second_order():
    params = default_params()
    residuals = []
    for n in (16, 32):
        rep = check_compatibility(scenario_library("thermal-spot", unit_grid(n), 1e-2), params, mode="global")
        flux = next(c for c in rep.conditions if c.name == "heat-flux")
        residuals.append(flux.residual)
    assert residuals[0] / residuals[1] > 3.5


def test_shear_start_vanishes_on_boundary():
    g = unit_grid(12)
    v = scenario_library("shear-start", g, 1e-2).v.values
    assert np.max(np.abs(v[0, :, :])) == 0.0
    assert np.max(np.abs(v[-1, :, :])) == 0.0
    assert np.max(np.abs(v[:, 0, :])) == 0.0
    assert np.max(np.abs(v[:, -1, :])) == 0.0
    assert np.max(np.abs(v)) > 0


def test_unknown_scenario_lists_choices():
    with pytest.raises(ConfigError) as exc:
        scenario_library("vortex", unit_grid())
    for sid in SCENARIOS:
        assert sid in str(exc.value)


def test_with_background_shifts_scalars_only():
    g = unit_grid()
    params = default_params(rho_bar=2.0, theta_bar=0.5, pi0=-1.0)
    pert = scenario_library("shear-start", g, 1e-2)
    full = with_background(pert, params)
    assert np.allclose(full.rho.values, 2.0)
    assert np.allclose(full.theta.values, 0.5)
    assert np.array_equal(full.v.values, pert.v.values)


# ----------------------------------------------------- runs & artifacts


def test_steady_run_reports_zero_drift(tmp_path):
    cfg = parse_config(f"mode = local\nnx = 8\nT = 0.1\ndt = 0.025\nout_dir = {tmp_path}\n")
    report = run_scenario(cfg)
    assert report.passed
    drift = next(c for c in report.checks if c.name == "mass-drift-per-time")
    assert drift.value == 0.0
    for name in ("config.txt", "report.txt", "diagnostics.csv", "iterations.csv"):
        assert (tmp_path / name).exists()
    assert list((tmp_path / "snapshots").iterdir())
    text = (tmp_path / "report.txt").read_text()
    assert "status: PASS" in text
    assert parse_config((tmp_path / "config.txt").read_text()) == cfg


def test_diagnostics_csv_shape(tmp_path):
    cfg = parse_config(
        f"mode = local\nnx = 8\nT = 0.05\ndt = 0.0125\nscenario = shear-start\nout_dir = {tmp_path}\n"
    )
    run_scenario(cfg)
    with open(tmp_path / "diagnostics.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["time", "state_norm", "mass", "energy"]
    assert len(rows) == 1 + 5
    for row in rows[1:]:
        assert all(float(c) == float(c) for c in row)


def test_global_pluck_run_passes(tmp_path):
    cfg = parse_config(
        f"mode = global\nnx = 8\nT = 0.5\ndt = 0.05\nbeta = 0.1\nscenario = beam-pluck\nout_dir = {tmp_path}\n"
    )
    report = run_scenario(cfg)
    assert report.passed
    balance = next(c for c in report.checks if c.name == "mass-balance-drift")
    assert balance.value <= 1e-12


def test_identical_config_and_seed_give_identical_csv(tmp_path):
    text = "mode = local\nnx = 8\nT = 0.05\ndt = 0.0125\nscenario = shear-start\nseed = 4\n"
    run_scenario(parse_config(text + f"out_dir = {tmp_path / 'a'}\n"))
    run_scenario(parse_config(text + f"out_dir = {tmp_path / 'b'}\n"))
    for name in ("diagnostics.csv", "iterations.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize(
    "text",
    [
        "mode = spectrum\nnx = 10\n",
        "mode = global\nnx = 8\nT = 0.5\ndt = 0.05\nbeta = 0.1\nscenario = beam-pluck\n",
        "mode = local\nnx = 8\nscenario = beam-pluck\n",
        "mode = sector\nnx = 8\nbeta = 2.356\n",
    ],
    ids=["spectrum", "global-pluck", "local-pluck", "sector"],
)
def test_two_runs_in_one_process_write_identical_artifacts(tmp_path, text):
    # every CSV and snapshot; report.txt holds the wall clock, config.txt the out_dir
    def artifacts(run):
        run_scenario(parse_config(text + f"out_dir = {tmp_path / run}\n"))
        root = tmp_path / run
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in root.rglob("*")
            if p.is_file() and p.name not in ("report.txt", "config.txt")
        }

    first = artifacts("a")
    assert any(name.endswith(".csv") for name in first)
    assert first == artifacts("b")


def test_spectrum_mode_artifacts(tmp_path):
    cfg = parse_config(f"mode = spectrum\nnx = 10\nout_dir = {tmp_path}\n")
    report = run_scenario(cfg)
    assert report.passed
    assert "decay margin" in report.message
    maxre = next(c for c in report.checks if c.name == "max-re-mean-zero")
    assert maxre.value < 0
    kdim = next(c for c in report.checks if c.name == "kernel-dimension")
    assert kdim.value == 2.0
    with open(tmp_path / "eigenvalues.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["re", "im"]
    res = [float(r[0]) for r in rows[1:]]
    assert res == sorted(res, reverse=True)
    assert all(r < 0 for r in res)


def test_spectrum_mode_runs_one_eigensolve(tmp_path, monkeypatch):
    import fsilab.cli_io as cli

    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("restrict"))
        return spectrum(*args, **kwargs)

    monkeypatch.setattr(cli, "spectrum", counted)
    report = run_scenario(parse_config(f"mode = spectrum\nnx = 8\nout_dir = {tmp_path}\n"))
    assert calls == ["mean_zero"]
    assert report.passed
    kdim = next(c for c in report.checks if c.name == "kernel-dimension")
    assert kdim.value == 2.0


def test_spectrum_kernel_check_needs_left_null_certificate(tmp_path, monkeypatch):
    import fsilab.cli_io as cli

    def broken(grid, params):
        # one density diagonal entry moved: the mass functional no longer
        # annihilates the generator
        op = assemble_coupled(grid, params)
        bump = sp.csr_matrix(([1e-6 * abs(op.matrix).max()], ([0], [0])), shape=op.shape)
        return dataclasses.replace(op, matrix=(op.matrix + bump).tocsr())

    monkeypatch.setattr(cli, "assemble_coupled", broken)
    report = run_scenario(parse_config(f"mode = spectrum\nnx = 8\nout_dir = {tmp_path}\n"))
    kdim = next(c for c in report.checks if c.name == "kernel-dimension")
    assert not kdim.passed
    assert kdim.value != 2.0
    assert not report.passed


def test_sector_mode_artifacts(tmp_path):
    beta = 3.0 * np.pi / 4.0
    cfg = parse_config(f"mode = sector\nnx = 8\nbeta = {beta!r}\nout_dir = {tmp_path}\n")
    report = run_scenario(cfg)
    assert report.passed
    assert "gamma" in report.message
    assert (tmp_path / "sector.csv").exists()


def test_convergence_mode_orders(tmp_path):
    cfg = parse_config(f"mode = convergence\nout_dir = {tmp_path}\n")
    report = run_scenario(cfg)
    assert report.passed
    by_name = {c.name: c for c in report.checks}
    assert abs(by_name["heat-spatial-order"].value - 2.0) <= 0.2
    assert abs(by_name["velocity-spatial-order"].value - 2.0) <= 0.2
    assert abs(by_name["plate-temporal-order"].value - 1.0) <= 0.2
    assert by_name["density-closed-form-error"].value <= 1e-8
    with open(tmp_path / "convergence.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["stepper", "mode", "resolution", "error", "order"]
    assert {r[0] for r in rows[1:]} == {"heat", "velocity", "plate"}


def test_failed_run_still_writes_report(tmp_path):
    cfg = parse_config(
        f"mode = local\nnx = 8\nT = 0.2\ndt = 0.05\nscenario = shear-start\n"
        f"amplitude = 120.0\nout_dir = {tmp_path}\n"
    )
    report = run_scenario(cfg)
    assert not report.passed
    assert report.failure_kind == "geometry"
    assert "determinant" in report.message
    assert "status: FAIL" in (tmp_path / "report.txt").read_text()


def test_snapshot_file_is_self_describing(tmp_path):
    g = unit_grid(4)
    st = with_background(scenario_library("thermal-spot", g, 1e-2), default_params())
    path = tmp_path / "snap.txt"
    write_snapshot(path, st)
    lines = path.read_text().splitlines()
    assert lines[0] == "structured-grid snapshot"
    assert lines[1].startswith("time ")
    assert lines[3] == "cells nx 4 ny 4"
    head = lines.index("fluid-columns x y rho vx vy theta")
    beam = lines.index("beam-columns x eta1 eta2")
    assert beam - head - 1 == 25
    assert lines.index("end") - beam - 1 == 5
    x, y, rho, vx, vy, theta = (float(c) for c in lines[head + 1].split())
    assert (x, y) == (0.0, -1.0)
    assert rho == 1.0


def test_snapshot_rows_match_the_per_element_formula(tmp_path):
    g = build_grid(2.0, 0.5, 6, 4)
    rng = np.random.default_rng(3)
    st = with_background(scenario_library("beam-pluck", g, 1e-2), default_params())
    rho = st.rho.values * (1.0 + 1e-7 * rng.standard_normal(g.shape))
    rho[1, 2] = -0.0
    v = 1e-12 * rng.standard_normal(g.shape + (2,))
    v[0] = 0.0
    theta = 1e5 * rng.standard_normal(g.shape)
    st = dataclasses.replace(st, rho=FluidField(g, rho), v=FluidField(g, v, kind="vector"), theta=FluidField(g, theta), t=0.3)
    path = tmp_path / "snap.txt"
    write_snapshot(path, st)
    # the writer's output before it built its columns as arrays
    lines = [
        "structured-grid snapshot",
        f"time {repr(float(st.t))}",
        f"domain L {repr(float(g.L))} H {repr(float(g.H))}",
        f"cells nx {g.nx} ny {g.ny}",
        "fluid-columns x y rho vx vy theta",
    ]
    for i in range(g.nx + 1):
        for j in range(g.ny + 1):
            lines.append(" ".join(repr(float(c)) for c in (g.x[i], g.y[j], rho[i, j], v[i, j, 0], v[i, j, 1], theta[i, j])))
    lines.append("beam-columns x eta1 eta2")
    for i in range(g.nx + 1):
        lines.append(" ".join(repr(float(c)) for c in (g.x[i], st.eta1.values[i], st.eta2.values[i])))
    lines.append("end")
    assert path.read_text() == "\n".join(lines) + "\n"


def test_global_run_evaluates_the_full_sources_once_per_iteration(tmp_path, monkeypatch):
    # the mass-balance check needs only the density source, not another
    # full evaluation of the final trajectory
    import sys

    import fsilab.nonlinear_sources as ns

    calls = []
    original = ns.eval_global_sources

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "fsilab" or name.startswith("fsilab."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    cfg = parse_config(
        f"mode = global\nnx = 8\nT = 0.5\ndt = 0.05\nbeta = 0.1\nscenario = beam-pluck\nout_dir = {tmp_path}\n"
    )
    report = run_scenario(cfg)
    assert report.passed
    with open(tmp_path / "iterations.csv", newline="") as f:
        iterations = len(list(csv.reader(f))) - 1
    assert iterations > 1
    assert len(calls) == iterations


# ----------------------------------------------------------------- CLI


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def test_cli_run_and_report(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("mode = local\nnx = 8\nT = 0.05\ndt = 0.0125\nscenario = shear-start\n")
    rc, out, _ = run_cli(["run", "--config", str(cfg_file), "--out", str(tmp_path / "r")])
    assert rc == 0
    assert "status: PASS" in out
    rc, out, _ = run_cli(["report", "--out", str(tmp_path / "r")])
    assert rc == 0 and "fsilab run report" in out


def test_cli_missing_report_exits_2(tmp_path):
    rc, _, err = run_cli(["report", "--out", str(tmp_path / "nope")])
    assert rc == 2 and "no report" in err


def test_cli_invalid_override_exits_2(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("mode = local\nnx = 8\n")
    rc, _, err = run_cli(
        ["run", "--config", str(cfg_file), "--override", "alpha=-1", "--out", str(tmp_path / "r")]
    )
    assert rc == 2
    assert "alpha + 2*mu/3" in err


@pytest.mark.parametrize(
    "command, override, named",
    [
        ("spectrum", "L=inf", "positive and finite, got L=inf"),
        ("spectrum", "mu=inf", "mu must be positive and finite, got inf"),
        ("sector", "rho_bar=inf", "rho_bar must be positive and finite, got inf"),
    ],
)
def test_cli_infinite_input_exits_2_and_names_the_key(tmp_path, command, override, named):
    argv = [command, "--out", str(tmp_path / "r"), "--override", "nx=8", "--override", override]
    if command == "sector":
        argv += ["--override", "beta=1"]
    rc, _, err = run_cli(argv)
    assert rc == 2
    assert named in err


def test_cli_missing_config_file_exits_2(tmp_path):
    rc, _, err = run_cli(["run", "--config", str(tmp_path / "ghost.cfg")])
    assert rc == 2 and "not found" in err


def test_cli_subcommand_forces_mode(tmp_path):
    rc, out, _ = run_cli(["spectrum", "--out", str(tmp_path), "--override", "nx=10"])
    assert rc == 0
    assert "mode: spectrum" in out
    assert (tmp_path / "eigenvalues.csv").exists()


def test_cli_map_collapse_exits_4(tmp_path):
    cfg_file = tmp_path / "blow.cfg"
    cfg_file.write_text(
        "mode = local\nnx = 8\nT = 0.2\ndt = 0.05\nscenario = shear-start\namplitude = 120.0\n"
    )
    rc, out, _ = run_cli(["run", "--config", str(cfg_file), "--out", str(tmp_path / "b")])
    assert rc == 4
    assert "status: FAIL" in out


def test_cli_picard_max_iters_exits_3(tmp_path):
    rc, out, _ = run_cli(
        ["run", "--override", "mode=local", "--override", "scenario=beam-pluck", "--override", "nx=8",
         "--override", "T=0.05", "--override", "dt=0.0125", "--override", "max_iters=1",
         "--out", str(tmp_path / "r")]
    )
    assert rc == 3
    assert "status: FAIL" in out
    assert "max-iters" in out


def test_cli_ball_exit_exits_3(tmp_path):
    rc, out, _ = run_cli(
        ["run", "--override", "mode=local", "--override", "scenario=beam-pluck", "--override", "nx=8",
         "--override", "T=0.05", "--override", "R=1e-12", "--out", str(tmp_path / "r")]
    )
    assert rc == 3
    text = (tmp_path / "r" / "report.txt").read_text()
    assert "status: FAIL" in text
    assert "ball-exit" in text and "left the ball of radius 1.000e-12" in text
    assert text in out


def test_cli_numerics_error_exits_3(tmp_path, monkeypatch):
    import fsilab.cli_io as cli

    def failing(*args, **kwargs):
        raise NumericsError("injected non-finite state at sample 3")

    monkeypatch.setattr(cli, "run_local", failing)
    rc, out, err = run_cli(["run", "--override", "mode=local", "--override", "nx=8", "--out", str(tmp_path / "r")])
    assert rc == 3
    assert "injected non-finite state at sample 3" in err
    assert out == ""
    assert "status: FAIL" in (tmp_path / "r" / "report.txt").read_text()


# the README's sector command and its config
README_CFG = (
    "mode = local\nnx = 16\nscenario = beam-pluck\namplitude = 1e-2\nT = 0.1\ndt = 0.01\n"
)


@pytest.mark.parametrize("nx", [8, 16])
def test_cli_readme_sector_command_passes(tmp_path, nx):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(README_CFG)
    argv = ["sector", "--config", str(cfg_file), "--override", "beta=2.356", "--override", f"nx={nx}"]
    outputs = []
    for run in ("a", "b"):
        rc, out, _ = run_cli(argv + ["--out", str(tmp_path / run)])
        assert rc == 0
        assert "[pass] high-radius-limit-gap" in out
        outputs.append((tmp_path / run / "sector.csv").read_bytes())
    # the rim and the norms do not depend on process state
    assert outputs[0] == outputs[1]


def test_cli_seed_flag_overrides(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("mode = local\nnx = 8\nT = 0.05\ndt = 0.0125\n")
    rc, _, _ = run_cli(["run", "--config", str(cfg_file), "--out", str(tmp_path / "r"), "--seed", "9"])
    assert rc == 0
    assert "seed = 9" in (tmp_path / "r" / "config.txt").read_text()


def test_env_var_overrides_output_dir(tmp_path, monkeypatch):
    target = tmp_path / "redirected"
    monkeypatch.setenv("FSILAB_OUT", str(target))
    cfg = parse_config("mode = local\nnx = 8\nT = 0.05\ndt = 0.025\nout_dir = ignored\n")
    report = run_scenario(cfg)
    assert report.passed
    assert (target / "report.txt").exists()


def test_run_config_helpers():
    cfg = RunConfig(mode="global", nx=8, ny=8, T=0.2, dt=0.05, beta=0.3)
    it = cfg.iteration()
    assert it.T == 0.2 and it.beta == 0.3
    g = cfg.make_grid()
    assert g.shape == (9, 9)
    assert cfg.physical().is_global

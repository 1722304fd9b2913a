"""End-to-end acceptance gate.

Eleven checks, one test each, every bound stated inline. Each test
prints one [PASS]/[FAIL] scoreline with the measured numbers; run with
-v for the per-check verdicts or -s to see the lines as they happen.
"""

import time

import numpy as np
import pytest
import scipy.linalg as la

from fsilab.core_grid import BeamField, FluidField, build_grid, integrate_beam
from fsilab.chgvar import metric_tensors
from fsilab.errors import NumericsError
from fsilab.fixed_point import (
    IterationConfig,
    conserved_quantities,
    march_global,
    run_global,
    run_local,
)
from fsilab.fs_operator import (
    assemble_block,
    assemble_coupled,
    constraint_functionals,
    gamma_search,
    kernel_vectors,
    project_mean_zero,
    resolvent_solve,
    restrict_Xm,
    spectrum,
)
from fsilab.linear_subsystems import (
    default_params,
    manufactured_convergence,
    plate_energy,
    step_density,
    step_plate,
)
from fsilab.nonlinear_sources import FullState

SECTOR_OPENING = 3.0 * np.pi / 4.0


def scoreline(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def make_state(grid, rho, v, theta, eta1, eta2):
    return FullState(
        FluidField(grid, rho),
        FluidField(grid, v, kind="vector"),
        FluidField(grid, theta),
        BeamField(grid, eta1, clamped=True),
        BeamField(grid, eta2, clamped=True),
    )


def zero_state(grid):
    return make_state(
        grid,
        np.zeros(grid.shape),
        np.zeros(grid.shape + (2,)),
        np.zeros(grid.shape),
        np.zeros(grid.nx + 1),
        np.zeros(grid.nx + 1),
    )


def local_bump_state(grid, a):
    s = grid.x
    e1 = a * 16.0 * (s * (1.0 - s)) ** 2
    th = 1.0 + a * np.cos(np.pi * grid.xx) * np.cos(np.pi * grid.yy)
    return make_state(
        grid, np.ones(grid.shape), np.zeros(grid.shape + (2,)), th, e1, np.zeros(grid.nx + 1)
    )


def global_bump_state(grid, params, a):
    """Perturbation data with the conserved mass combination zeroed."""
    s = grid.x
    e1 = a * 16.0 * (s * (1.0 - s)) ** 2
    pat = np.cos(np.pi * grid.xx) * np.cos(np.pi * grid.yy)
    rho = a * pat - params.rho_bar * integrate_beam(grid, e1) / grid.area
    return make_state(grid, rho, np.zeros(grid.shape + (2,)), a * pat, e1, np.zeros(grid.nx + 1))


def max_field(state):
    return max(
        np.max(np.abs(state.rho.values)),
        np.max(np.abs(state.v.values)),
        np.max(np.abs(state.theta.values)),
        np.max(np.abs(state.eta1.values)),
        np.max(np.abs(state.eta2.values)),
    )


def component_gaps(states, end):
    """Largest nodewise gap of every sample of a stacked state to the state end."""
    n = len(states.t)
    return np.max(
        [
            np.max(np.abs(getattr(states, f).values - getattr(end, f).values).reshape(n, -1), axis=1)
            for f in ("rho", "v", "theta", "eta1", "eta2")
        ],
        axis=0,
    )


def timed_decay_margin(n):
    t0 = time.perf_counter()
    op = restrict_Xm(assemble_coupled(build_grid(1.0, 1.0, n, n), default_params()))
    vals = spectrum(op)
    return -float(vals.real.max()), time.perf_counter() - t0


@pytest.fixture(scope="module")
def margin16():
    return timed_decay_margin(16)


@pytest.fixture(scope="module")
def margin24():
    return timed_decay_margin(24)


# ---------------------------------------------------------------- 1


def test_01_steady_background_preserved():
    # balanced background pressure, zero perturbation: the global march
    # must return identically zero for a thousand steps, fast
    grid = build_grid(1.0, 1.0, 32, 32)
    cfg = IterationConfig(T=10.0, dt=0.01, tol=1e-9, beta=0.1)
    t0 = time.perf_counter()
    traj, rep = run_global(zero_state(grid), cfg, params=default_params())
    elapsed = time.perf_counter() - t0
    worst = max_field(traj.states)
    ok = rep.converged and worst <= 1e-12 and len(traj) == 1001 and elapsed < 10.0
    scoreline(
        "01 steady background preserved",
        ok,
        f"max|field| = {worst:.3e} over {len(traj) - 1} steps in {elapsed:.1f} s (budget 10 s)",
    )
    assert rep.converged
    assert len(traj) == 1001
    assert worst <= 1e-12
    assert elapsed < 10.0


# ---------------------------------------------------------------- 2


def _fd_metric_oracle(grid, X):
    """Plain-loop second-order differences plus scalar cofactor algebra."""
    nx1, ny1 = grid.shape
    hx, hy = grid.hx, grid.hy
    B = np.empty(grid.shape + (2, 2))
    delta = np.empty(grid.shape)
    A = np.empty(grid.shape + (2, 2))

    def d_edge(fm, f0, fp):
        return (-3.0 * fm + 4.0 * f0 - fp) / 2.0

    for i in range(nx1):
        for j in range(ny1):
            g = [[0.0, 0.0], [0.0, 0.0]]
            for a in (0, 1):
                if i == 0:
                    gx = d_edge(X[0, j, a], X[1, j, a], X[2, j, a]) / hx
                elif i == nx1 - 1:
                    gx = -d_edge(X[-1, j, a], X[-2, j, a], X[-3, j, a]) / hx
                else:
                    gx = (X[i + 1, j, a] - X[i - 1, j, a]) / (2.0 * hx)
                if j == 0:
                    gy = d_edge(X[i, 0, a], X[i, 1, a], X[i, 2, a]) / hy
                elif j == ny1 - 1:
                    gy = -d_edge(X[i, -1, a], X[i, -2, a], X[i, -3, a]) / hy
                else:
                    gy = (X[i, j + 1, a] - X[i, j - 1, a]) / (2.0 * hy)
                g[a][0], g[a][1] = gx, gy
            b = [[g[1][1], -g[1][0]], [-g[0][1], g[0][0]]]
            d = g[0][0] * g[1][1] - g[0][1] * g[1][0]
            B[i, j] = b
            delta[i, j] = d
            for r in (0, 1):
                for c in (0, 1):
                    A[i, j, r, c] = (b[0][r] * b[0][c] + b[1][r] * b[1][c]) / d
    return B, delta, A


def test_02_metric_tensors_match_oracles():
    grid = build_grid(1.0, 1.0, 64, 64)
    ident = np.stack([grid.xx, grid.yy], axis=-1)
    eye = np.eye(2)

    flow = ident.copy()
    flow[..., 0] += 0.05 * np.sin(np.pi * grid.xx) * np.cos(np.pi * grid.yy)
    flow[..., 1] += 0.04 * np.cos(np.pi * grid.xx) * np.sin(np.pi * grid.yy)
    composed = np.stack([flow[..., 0] + 0.3 * flow[..., 1], flow[..., 1]], axis=-1)

    worst = 0.0

    def rel(err, ref):
        return err / max(np.max(np.abs(ref)), 1e-30)

    # affine maps against closed forms
    closed = {
        "identity": (ident, eye, 1.0, eye),
        "dilation": (1.3 * ident, 1.3 * eye, 1.69, eye),
        "shear": (
            np.stack([grid.xx + 0.3 * grid.yy, np.array(grid.yy)], axis=-1),
            np.array([[1.0, 0.0], [-0.3, 1.0]]),
            1.0,
            np.array([[1.09, -0.3], [-0.3, 1.0]]),
        ),
    }
    for name, (X, Bex, dex, Aex) in closed.items():
        B, delta, A = metric_tensors(grid, X)
        worst = max(
            worst,
            rel(np.max(np.abs(B - Bex)), Bex),
            rel(np.max(np.abs(delta - dex)), dex),
            rel(np.max(np.abs(A - Aex)), Aex),
        )

    # curved maps against the independent loop oracle
    for X in (flow, composed):
        B, delta, A = metric_tensors(grid, X)
        Bo, do, Ao = _fd_metric_oracle(grid, X)
        worst = max(
            worst,
            rel(np.max(np.abs(B - Bo)), Bo),
            rel(np.max(np.abs(delta - do)), do),
            rel(np.max(np.abs(A - Ao)), Ao),
        )

    ok = worst <= 1e-8
    scoreline("02 metric tensors vs oracles", ok, f"worst relative gap {worst:.3e} over 5 maps (bound 1e-8)")
    assert worst <= 1e-8


# ---------------------------------------------------------------- 3


def test_03_plate_energy_monotone():
    grid = build_grid(1.0, 1.0, 16, 16)
    s = grid.x
    zero_src = BeamField(grid, np.zeros(grid.nx + 1), clamped=True)
    total_violations = 0
    worst_jump = 0.0
    for dt in (1e-1, 1e-2, 1e-3):
        e1 = BeamField(grid, 16.0 * (s * (1.0 - s)) ** 2, clamped=True)
        e2 = BeamField(grid, np.zeros(grid.nx + 1), clamped=True)
        energy = plate_energy(e1, e2)
        for _ in range(10_000):
            e1, e2 = step_plate(e1, e2, zero_src, dt)
            now = plate_energy(e1, e2)
            if now > energy:
                total_violations += 1
                worst_jump = max(worst_jump, now - energy)
            energy = now
    ok = total_violations == 0
    scoreline(
        "03 plate energy monotone",
        ok,
        f"{total_violations} increases over 3x10^4 unforced steps (worst jump {worst_jump:.1e})",
    )
    assert total_violations == 0


# ---------------------------------------------------------------- 4


def test_04_spectral_stability_mean_zero(margin16, margin24):
    m16, t16 = margin16
    m24, t24 = margin24
    variation = abs(m16 - m24) / m16
    elapsed = t16 + t24
    ok = m16 > 0 and m24 > 0 and variation < 0.25 and elapsed < 120.0
    scoreline(
        "04 spectral stability on the constrained subspace",
        ok,
        f"decay margin {m16:.5f} (nx=16) vs {m24:.5f} (nx=24), variation {100 * variation:.1f}% "
        f"(< 25%), eigensolves {elapsed:.1f} s (budget 120 s)",
    )
    assert m16 > 0
    assert m24 > 0
    assert variation < 0.25
    assert elapsed < 120.0


# ---------------------------------------------------------------- 5


def test_05_kernel_rank_matches_two_functionals():
    grid = build_grid(1.0, 1.0, 16, 16)
    params = default_params()
    op = assemble_coupled(grid, params)
    dense = op.matrix.toarray()
    sv = la.svdvals(dense)
    rel2, rel3 = sv[-2] / sv[0], sv[-3] / sv[0]
    rank_def_two = rel2 < 1e-10 and rel3 > 1e-8

    kern = kernel_vectors(op.layout, params)
    cons = constraint_functionals(op.layout, params)
    kernel_residual = float(np.max(np.abs(op.matrix @ kern)))
    functional_residual = float(np.max(np.abs(cons @ op.matrix)))

    rng = np.random.default_rng(0)
    raw = rng.standard_normal(op.layout.total)
    detected = False
    try:
        resolvent_solve(op, 0.0, raw)
    except NumericsError:
        detected = True
    balanced = project_mean_zero(op, raw)
    x = resolvent_solve(op, 0.0, balanced)
    solvable = np.linalg.norm(op.matrix @ x + balanced) / np.linalg.norm(balanced) < 1e-8

    ok = rank_def_two and detected and solvable and kernel_residual < 1e-10 and functional_residual < 1e-12
    scoreline(
        "05 kernel rank two at the zero spectral point",
        ok,
        f"sigma ratios {rel2:.1e} / {rel3:.1e}, singular solve detected = {detected}, "
        f"balanced solve ok = {solvable}, |A k| = {kernel_residual:.1e}, |c A| = {functional_residual:.1e}",
    )
    assert rank_def_two
    assert detected
    assert solvable
    assert kernel_residual < 1e-10
    assert functional_residual < 1e-12


# ---------------------------------------------------------------- 6


def test_06_local_contraction_bisection():
    grid = build_grid(1.0, 1.0, 8, 8)
    state0 = local_bump_state(grid, 1e-2)
    firsts = []
    for T in (0.1, 0.05, 0.025, 0.0125):
        _, rep = run_local(state0, IterationConfig(T=T, dt=0.00625, tol=1e-9))
        assert rep.converged
        assert all(r < 1.0 for r in rep.ratios)
        firsts.append(rep.ratios[0])
    monotone = all(b <= a + 1e-9 for a, b in zip(firsts, firsts[1:]))
    ok = monotone and all(r < 1.0 for r in firsts)
    scoreline(
        "06 local contraction under horizon bisection",
        ok,
        "first ratios " + " -> ".join(f"{r:.4f}" for r in firsts) + " (all < 1, non-increasing)",
    )
    assert monotone


# ---------------------------------------------------------------- 7


def test_07_source_bundle_quadratic_in_state_scale():
    grid = build_grid(1.0, 1.0, 8, 8)
    params = default_params()
    scales = np.array([1.0, 0.5, 0.25, 0.125])
    norms = []
    for s in scales:
        _, rep = run_global(
            global_bump_state(grid, params, 1e-2 * s),
            IterationConfig(T=0.5, dt=0.05, tol=1e-10, beta=0.05),
            params=params,
        )
        assert rep.converged
        norms.append(rep.bundle_norms[0])
    slope = float(np.polyfit(np.log(scales), np.log(norms), 1)[0])
    ok = abs(slope - 2.0) <= 0.1
    scoreline(
        "07 source bundle quadratic in state scale",
        ok,
        f"log-log slope {slope:.3f} over scales 1, 1/2, 1/4, 1/8 (2.0 +- 0.1)",
    )
    assert abs(slope - 2.0) <= 0.1


# ---------------------------------------------------------------- 8


def test_08_global_exponential_decay(margin16):
    m16, _ = margin16
    grid = build_grid(1.0, 1.0, 16, 16)
    params = default_params()
    cfg = IterationConfig(T=20.0, dt=0.1, tol=1e-8, beta=0.1)
    traj, rep = run_global(global_bump_state(grid, params, 1e-2), cfg, params=params)
    assert rep.converged
    # the trajectory settles onto the zero-eigenvalue equilibrium shifted
    # by dissipation heating, so the fit measures distance to that limit
    t = traj.times
    dist = component_gaps(traj.states, traj[-1])
    sel = (t >= 1.0) & (t <= 16.0)
    coeff = np.polyfit(t[sel], np.log(dist[sel]), 1)
    rate = -float(coeff[0])
    resid = np.log(dist[sel]) - np.polyval(coeff, t[sel])
    r2 = 1.0 - float(np.sum(resid**2) / np.sum((np.log(dist[sel]) - np.mean(np.log(dist[sel]))) ** 2))
    ok = rate >= 0.5 * m16 and r2 >= 0.95
    scoreline(
        "08 global exponential decay",
        ok,
        f"fit rate {rate:.4f} >= half margin {0.5 * m16:.4f}, R^2 = {r2:.4f} (>= 0.95)",
    )
    assert rate >= 0.5 * m16
    assert r2 >= 0.95


# ---------------------------------------------------------------- 9


def test_09_manufactured_convergence():
    heat = manufactured_convergence("heat", "sin-product", (16, 32, 64))
    velocity = manufactured_convergence("velocity", "sin-product", (16, 32, 64))

    grid = build_grid(1.0, 1.0, 12, 12)
    eye = np.zeros(grid.shape + (2, 2))
    eye[..., 0, 0] = eye[..., 1, 1] = 1.0
    mets = (eye, np.ones(grid.shape), eye.copy())
    rho0 = np.ones(grid.shape)
    v = np.stack([grid.xx, grid.yy], axis=-1)
    zero = np.zeros(grid.shape)
    rho = rho0.copy()
    dt = 1e-3
    density_err = 0.0
    for n in range(1, 101):
        rho = step_density(FluidField(grid, rho), v, zero, mets, rho0, dt, v_prev=v, f1_prev=zero)
        density_err = max(density_err, float(np.max(np.abs(rho - (1.0 - 2.0 * n * dt)))))

    ok = (
        abs(heat.mean_order - 2.0) <= 0.2
        and abs(velocity.mean_order - 2.0) <= 0.2
        and density_err <= 1e-8
    )
    scoreline(
        "09 manufactured convergence",
        ok,
        f"heat order {heat.mean_order:.3f}, velocity order {velocity.mean_order:.3f} "
        f"(2.0 +- 0.2); density vs closed form {density_err:.1e} (<= 1e-8 per step)",
    )
    assert abs(heat.mean_order - 2.0) <= 0.2
    assert abs(velocity.mean_order - 2.0) <= 0.2
    assert density_err <= 1e-8


# ---------------------------------------------------------------- 10


def test_10_mass_conservation():
    # moving-domain mass along a converged local run
    grid = build_grid(1.0, 1.0, 32, 32)
    cfg = IterationConfig(T=0.05, dt=1e-3, tol=1e-9)
    traj, rep = run_local(local_bump_state(grid, 1e-2), cfg)
    assert rep.converged
    series = conserved_quantities(traj)
    local_rate = series.mass_drift / cfg.T

    # combined fluid-plus-beam mass along the sourceless global march
    grid_g = build_grid(1.0, 1.0, 16, 16)
    params = default_params()
    traj_g = march_global(
        global_bump_state(grid_g, params, 1e-2),
        IterationConfig(T=2.0, dt=0.02, beta=0.1),
        params=params,
    )
    series_g = conserved_quantities(traj_g, params)
    global_drift = series_g.mass_drift

    ok = local_rate <= 1e-5 and global_drift <= 1e-10
    scoreline(
        "10 mass conservation",
        ok,
        f"local drift {local_rate:.2e} per unit time (<= 1e-5), "
        f"global functional drift {global_drift:.2e} (<= 1e-10)",
    )
    assert local_rate <= 1e-5
    assert global_drift <= 1e-10


# ---------------------------------------------------------------- 11


def test_11_sector_asymptotics():
    grid = build_grid(1.0, 1.0, 8, 8)
    params = default_params()
    coupled = assemble_coupled(grid, params)
    operators = {
        "plate": assemble_block(grid, params, "plate"),
        "velocity": assemble_block(grid, params, "velocity"),
        "heat": assemble_block(grid, params, "heat"),
        "coupled": coupled,
        "coupled-mean-zero": restrict_Xm(coupled),
    }
    radii = (1e-2, 1.0, 1e2, 1e4)
    gaps = {}
    all_regular = True
    for name, op in operators.items():
        gamma, scan = gamma_search(op, SECTOR_OPENING, radii, seed=0)
        all_regular = all_regular and scan.passed
        rim = np.isclose(np.abs(scan.lambdas), 1e4, rtol=1e-9)
        gaps[name] = float(np.max(np.abs(scan.values[rim] - 1.0)))
    worst = max(gaps.values())
    ok = worst <= 0.1 and all_regular
    scoreline(
        "11 sector asymptotics",
        ok,
        "scaled resolvent gap to 1 at |lambda| = 1e4: "
        + ", ".join(f"{k} {v:.3f}" for k, v in gaps.items())
        + f" (<= 0.1); regular after shift = {all_regular}",
    )
    assert worst <= 0.1
    assert all_regular

"""Fit global decay rates over an amplitude sweep and compare them with
the spectral margin of the constrained generator.

Each run marches the perturbation system to T_max, measures the gap to
its own final state (the trajectory settles onto the zero-eigenvalue
equilibrium shifted by dissipation heating), and fits a line to the log
of that gap over the middle of the run.
"""

import argparse

import numpy as np

from fsilab.core_grid import BeamField, FluidField, build_grid, integrate_beam
from fsilab.fixed_point import IterationConfig, run_global
from fsilab.fs_operator import assemble_coupled, restrict_Xm, spectrum
from fsilab.linear_subsystems import default_params
from fsilab.nonlinear_sources import FullState


def bump_state(grid, params, a):
    s = grid.x
    e1 = a * 16.0 * (s * (1.0 - s)) ** 2
    pat = np.cos(np.pi * grid.xx) * np.cos(np.pi * grid.yy)
    rho = a * pat - params.rho_bar * integrate_beam(grid, e1) / grid.area
    return FullState(
        FluidField(grid, rho),
        FluidField(grid, np.zeros(grid.shape + (2,)), kind="vector"),
        FluidField(grid, a * pat),
        BeamField(grid, e1, clamped=True),
        BeamField(grid, np.zeros(grid.nx + 1), clamped=True),
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


def fitted_rate(traj, t_lo, t_hi):
    t = traj.times
    d = component_gaps(traj.states, traj[-1])
    sel = (t >= t_lo) & (t <= t_hi) & (d > 0)
    coeff = np.polyfit(t[sel], np.log(d[sel]), 1)
    resid = np.log(d[sel]) - np.polyval(coeff, t[sel])
    r2 = 1.0 - float(np.sum(resid**2) / np.sum((np.log(d[sel]) - np.mean(np.log(d[sel]))) ** 2))
    return -float(coeff[0]), r2


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nx", type=int, default=16)
    ap.add_argument("--t-max", type=float, default=20.0)
    ap.add_argument("--dt", type=float, default=0.1)
    ap.add_argument("--amplitudes", type=float, nargs="+", default=[1e-2, 5e-3, 2.5e-3])
    args = ap.parse_args()

    grid = build_grid(1.0, 1.0, args.nx, args.nx)
    params = default_params()
    margin = -float(spectrum(restrict_Xm(assemble_coupled(grid, params))).real.max())
    print(f"spectral decay margin at nx={args.nx}: {margin:.5f}")
    print(f"{'amplitude':>10}  {'iters':>5}  {'rate':>8}  {'R^2':>7}  {'rate/margin':>11}")
    for a in args.amplitudes:
        cfg = IterationConfig(T=args.t_max, dt=args.dt, tol=1e-8, beta=0.1)
        traj, rep = run_global(bump_state(grid, params, a), cfg, params=params)
        rate, r2 = fitted_rate(traj, 0.05 * args.t_max, 0.8 * args.t_max)
        print(f"{a:>10.2e}  {rep.iterations:>5d}  {rate:>8.4f}  {r2:>7.4f}  {rate / margin:>11.3f}")


if __name__ == "__main__":
    main()

"""Tabulate the coupled generator's spectrum across grid resolutions.

Prints the decay margin on the constrained subspace, the certified kernel
dimension of the full generator, and the leading eigenvalues, so grid
convergence of the margin can be eyeballed.

With --sector BETA it runs the sector ladder instead: per grid, the README
sector scan of half-opening BETA (radii 1e-2, 1, 1e2 and the rim, seed 0)
with its peak scaled resolvent norm, its rim gap, its wall time and the
largest L + U fill of one sample's factor.
"""

import argparse
import time

import numpy as np

from fsilab.core_grid import build_grid
from fsilab.fs_operator import assemble_coupled, gamma_search, kernel_dimension, restrict_Xm, sector_rim, spectrum
from fsilab.linear_subsystems import default_params


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", help="grids nx = ny (default 8 12 16 20; 8 16 32 48 64 with --sector)")
    ap.add_argument("--top", type=int, default=5, help="leading eigenvalues to print")
    ap.add_argument("--sector", type=float, metavar="BETA", help="run the sector ladder at half-opening BETA")
    args = ap.parse_args()

    params = default_params()
    if args.sector is not None:
        sector_ladder(args.sector, args.sizes or [8, 16, 32, 48, 64], params)
        return
    args.sizes = args.sizes or [8, 12, 16, 20]
    print(f"{'nx':>4}  {'dim':>6}  {'margin':>9}  {'kernel':>6}  {'secs':>6}")
    rows = []
    for n in args.sizes:
        grid = build_grid(1.0, 1.0, n, n)
        op = assemble_coupled(grid, params)
        t0 = time.perf_counter()
        lam_m = spectrum(restrict_Xm(op))
        secs = time.perf_counter() - t0
        margin = -float(lam_m.real.max())
        kernel = kernel_dimension(op, lam_m)
        rows.append((n, lam_m))
        print(f"{n:>4}  {op.matrix.shape[0]:>6}  {margin:>9.5f}  {kernel:>6g}  {secs:>6.2f}")

    print()
    for n, lam_m in rows:
        order = np.argsort(-lam_m.real)[: args.top]
        lead = ", ".join(f"{lam_m[k].real:+.5f}{lam_m[k].imag:+.5f}j" for k in order)
        print(f"nx={n:<3} leading: {lead}")


def sector_ladder(beta, sizes, params):
    print(f"{'nx':>4}  {'gamma':>6}  {'M_hat':>9}  {'rim gap':>8}  {'secs':>7}  {'max fill':>10}")
    for n in sizes:
        op = restrict_Xm(assemble_coupled(build_grid(1.0, 1.0, n, n), params))
        t0 = time.perf_counter()
        rim = sector_rim(op)
        gamma, scan = gamma_search(op, beta, (1e-2, 1.0, 1e2, rim), seed=0)
        secs = time.perf_counter() - t0
        gap = float(np.max(np.abs(scan.values[np.isclose(np.abs(scan.lambdas), rim, rtol=1e-9)] - 1.0)))
        print(f"{n:>4}  {gamma:>6g}  {scan.m_hat:>9.6f}  {gap:>8.4f}  {secs:>7.2f}  {scan.fills.max():>10,}")


if __name__ == "__main__":
    main()

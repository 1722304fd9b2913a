"""Tabulate the coupled generator's spectrum across grid resolutions.

Prints the decay margin on the constrained subspace, the certified kernel
dimension of the full generator, and the leading eigenvalues, so grid
convergence of the margin can be eyeballed.
"""

import argparse
import time

import numpy as np

from fsilab.core_grid import build_grid
from fsilab.fs_operator import assemble_coupled, kernel_dimension, restrict_Xm, spectrum
from fsilab.linear_subsystems import default_params


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[8, 12, 16, 20])
    ap.add_argument("--top", type=int, default=5, help="leading eigenvalues to print")
    args = ap.parse_args()

    params = default_params()
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


if __name__ == "__main__":
    main()

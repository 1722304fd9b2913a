"""Print manufactured-solution convergence tables for the three linear
steppers (heat, velocity, plate) in spatial and temporal mode.
"""

import argparse

from fsilab.errors import ConfigError
from fsilab.linear_subsystems import manufactured_convergence


def show(stepper, family, resolutions, mode):
    rep = manufactured_convergence(stepper, family, resolutions, mode=mode)
    print(f"{stepper} / {family} / {mode}")
    # temporal errors are Richardson differences between successive counts
    labels = (
        rep.resolutions
        if mode == "spatial"
        else [f"{a}/{b}" for a, b in zip(resolutions, resolutions[1:])]
    )
    print(f"  {'n':>9}  {'error':>12}  {'order':>6}")
    for k, (n, err) in enumerate(zip(labels, rep.errors)):
        order = f"{rep.orders[k - 1]:6.3f}" if k else "     -"
        print(f"  {str(n):>9}  {err:>12.4e}  {order}")
    print(f"  mean order {rep.mean_order:.3f}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spatial", type=int, nargs="+", default=[16, 32, 64])
    ap.add_argument("--temporal", type=int, nargs="+", default=[64, 128, 256])
    args = ap.parse_args()

    try:
        for stepper in ("heat", "velocity"):
            show(stepper, "sin-product", args.spatial, "spatial")
        show("plate", "clamped-poly", args.temporal, "temporal")
    except ConfigError as err:
        ap.error(str(err))


if __name__ == "__main__":
    main()

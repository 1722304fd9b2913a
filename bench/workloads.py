"""The benchmark's workloads: fsilab configs and the checks run on their output.

Each workload is a fixed list of cases; one pass runs every case once,
closed-loop, through `parse_config` and `run_scenario`. The seed goes to
the config's `seed` key (the sector power-iteration start vectors) of
every case but one kept for a known fault, which fixes its own seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import checks


@dataclass(frozen=True)
class Case:
    """One configured run and what is checked on its artifacts.

    `checks` return problems that make the run incorrect. `fault`
    returns problems that count the case as a failed operation: it is
    set only where the program fails the same check on every input.
    `count_check` compares the traced counts with arithmetic from the
    config and the artifacts.
    """

    name: str
    config: str
    checks: tuple[Callable, ...] = ()
    fault: Callable | None = None
    count_check: Callable | None = None


def _spectrum_checks(out_dir, cfg):
    from fsilab import assemble_coupled

    trace = float(assemble_coupled(cfg.make_grid(), cfg.physical()).matrix.diagonal().sum())
    return checks.check_mean_zero_spectrum(out_dir, cfg, trace)


WORKLOADS = {
    # both routes that march: the global cases use the coupled-generator
    # march, time-batched sources, map rebuild and stacked norms; the local
    # cases use the per-step decoupled steppers, local sources and artifact
    # writing and never assemble the coupled operator. No eigensolve or
    # resolvent work runs.
    "march": (
        Case(
            "global-pluck",
            "mode = global\nscenario = beam-pluck\nnx = 32\nT = 1\ndt = 0.01\nbeta = 0.1\n",
            (checks.check_snapshot_mass, checks.check_picard_converged, checks.check_energy_decays),
            count_check=checks.check_march_counts,
        ),
        # acceptance test 01's grid and step with the horizon cut from
        # 10 to 5 (501 samples) to keep a pass short
        Case(
            "steady",
            "mode = global\nscenario = steady\nnx = 32\nT = 5\ndt = 0.01\nbeta = 0.1\n",
            (checks.check_snapshot_mass, checks.check_exact_zero),
            count_check=checks.check_march_counts,
        ),
        Case(
            "local-pluck",
            "mode = local\nscenario = beam-pluck\nnx = 32\nT = 0.1\ndt = 0.01\n",
            (checks.check_clamped_and_walls, checks.check_mass_drift),
        ),
        Case("convergence", "mode = convergence\n", (checks.check_orders,)),
    ),
    # operator assembly, deflation fill, dense eigensolves and per-sample
    # sparse LU; nothing marches
    "spectral": (
        Case("spectrum", "mode = spectrum\nnx = 20\n", (_spectrum_checks,), count_check=checks.check_eig_dim),
        # the README's sector command at its default grid: its rim gap is
        # 0.18 against 0.1 on every seed tried, so it is counted as failed
        Case(
            "sector",
            "mode = sector\nnx = 16\nbeta = 2.356\nseed = 0\n",
            fault=checks.check_rim_gap,
            count_check=checks.check_sector_counts,
        ),
    ),
}

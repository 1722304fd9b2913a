"""One workload in one process: set-up, warm-up pass, timed passes, checks.

Started by run.py, which times this process's set-up from its launch to
the "ready" line and reads its peak memory. The last line on stdout is
the JSON result. The BLAS thread count is fixed here, before numpy loads.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import json  # noqa: E402
import pathlib  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fsilab  # noqa: E402
from fsilab import FsilabError  # noqa: E402

import spans  # noqa: E402
from checks import artifact_digests  # noqa: E402
from run import RESULTS, build_parser  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# timed passes after the warm-up, at the least; a traced run alternates
# traced and untraced passes, so it has one of each
MIN_TIMED_PASSES = 2

SPAN_METRICS = (
    "fixed_point.march",
    "fixed_point.norms",
    "fixed_point.conserved",
    "linear_subsystems.lu_solve",
    "linear_subsystems.factor",
    "linear_subsystems.step",
    "linear_subsystems.convergence",
    "nonlinear_sources.eval",
    "nonlinear_sources.compat",
    "chgvar.map_rebuild",
    "chgvar.initial_map",
    "core_grid.norm",
    "fs_operator.assemble",
    "fs_operator.eig",
    "fs_operator.sector",
    "cli_io.artifacts",
)
COUNT_METRICS = {
    "fixed_point.picard_iterations": "count",
    "fixed_point.marches": "count",
    "linear_subsystems.lu_solves": "count",
    "linear_subsystems.factorizations": "count",
    "linear_subsystems.stepper_steps": "count",
    "nonlinear_sources.evals": "count",
    "nonlinear_sources.samples": "count",
    "chgvar.map_samples": "count",
    "core_grid.norm_calls": "count",
    "fs_operator.sector_samples": "count",
    "cli_io.artifact_bytes": "bytes",
}
PEAK_METRICS = ("linear_subsystems.lu_fill_nnz", "fs_operator.eig_dim", "fs_operator.deflated_nnz")


def run_pass(cases, cfgs, rec, reference):
    """Run every case once; returns (seconds in run_scenario, failed, problems, counts)."""
    solve = 0.0
    failed = 0
    problems = []
    counts = Counter()
    for case, cfg in zip(cases, cfgs):
        out = pathlib.Path(cfg.out_dir)
        undo = spans.instrument(rec) if rec is not None else None
        before = Counter(rec.counts) if rec is not None else None
        mine = []
        t0 = time.perf_counter()
        try:
            report = fsilab.run_scenario(cfg)
        except FsilabError as err:
            report = None
            mine.append(f"run_scenario raised {type(err).__name__}: {err}")
        finally:
            solve += time.perf_counter() - t0
            if undo is not None:
                spans.restore(undo)
        if report is not None:
            fault = case.fault(out, cfg) if case.fault is not None else []
            if fault:
                failed += 1
            elif not report.passed:
                mine.append(f"report status {report.status}: {report.message}")
            for check in case.checks:
                mine.extend(check(out, cfg))
            digests = artifact_digests(out)
            if reference.setdefault(case.name, digests) != digests:
                mine.append("CSV or snapshot artifacts differ from the first pass")
            if rec is not None:
                delta = Counter(rec.counts)
                delta.subtract(before)
                counts.update(delta)
                if case.count_check is not None:
                    mine.extend(case.count_check(out, cfg, {**delta, **rec.peaks}))
        else:
            failed += 1
        problems.extend(f"{case.name}: {p}" for p in mine)
    return solve, failed, problems, counts


def main(argv=None) -> int:
    args = build_parser(WORKLOADS).parse_args(argv)
    cases = WORKLOADS[args.workload]
    rec = spans.Recorder() if args.trace else None
    out_root = ROOT / RESULTS / args.workload
    undo = spans.instrument(rec) if rec is not None else None
    try:
        # a case kept for its known fault runs on the same inputs whatever
        # the seed, so that its failure does not depend on --seed
        cfgs = [
            fsilab.parse_config(
                case.config,
                overrides=([] if case.fault else [f"seed = {args.seed}"]) + [f"out_dir = {out_root / case.name}"],
            )
            for case in cases
        ]
    finally:
        if undo is not None:
            spans.restore(undo)
    setup_spans = len(rec.names) if rec is not None else 0
    print("ready", flush=True)

    reference: dict = {}
    attempted = failed = 0
    problems: list[str] = []
    untraced: list[float] = []
    traced: list[float] = []
    layer_times: list[dict] = []
    layer_counts: list[Counter] = []
    # a pass starts only while one as long as the last would end before
    # the deadline, so that a run lasts about --seconds
    deadline = time.perf_counter() + args.seconds
    last = 0.0
    k = 0
    while k <= MIN_TIMED_PASSES or time.perf_counter() + last < deadline:
        started = time.perf_counter()
        tracing = rec is not None and k % 2 == 1
        first = len(rec.names) if rec is not None else 0
        solve, nfail, pass_problems, counts = run_pass(cases, cfgs, rec if tracing else None, reference)
        attempted += len(cases)
        failed += nfail
        problems.extend(f"pass {k}: {p}" for p in pass_problems)
        print(f"pass {k}: {solve:.3f} s{' traced' if tracing else ''}", file=sys.stderr)
        if tracing:
            traced.append(solve)
            layer_times.append(rec.self_times(first))
            layer_counts.append(counts)
        elif k > 0:
            untraced.append(solve)
        last = time.perf_counter() - started
        k += 1

    if rec is None:
        metrics = {"solve_s": {"value": statistics.median(untraced), "unit": "s"}}
    else:
        if any(c != layer_counts[0] for c in layer_counts):
            problems.append("traced counts differ between traced passes")
        metrics = {}
        for name in SPAN_METRICS:
            value = statistics.median(t.get(name, 0.0) for t in layer_times)
            metrics[name + "_s"] = {"value": value, "unit": "s"}
        for name, unit in COUNT_METRICS.items():
            metrics[name] = {"value": layer_counts[0][name], "unit": unit}
        for name in PEAK_METRICS:
            metrics[name] = {"value": rec.peaks.get(name, 0), "unit": "count"}
        config_s = rec.self_times(0, setup_spans).get("cli_io.config", 0.0)
        metrics["cli_io.config_s"] = {"value": config_s, "unit": "s"}
        overhead = statistics.median(traced) - statistics.median(untraced)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        rec.write(ROOT / RESULTS / f"{args.workload}-trace.json")

    for p in problems:
        print(p, file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

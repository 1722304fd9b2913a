"""fsilab benchmark: one workload per invocation, one JSON result line.

    python3 bench/run.py --workload march --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the package is imported from
`src/` without installing it. The workload runs in a child process
(bench/worker.py). This process times the child's set-up, from its
launch until it has imported fsilab and parsed the workload's configs,
and reads the child's peak resident memory once it has exited.

With --trace 0 the result carries the end-to-end metrics (solve_s,
setup_s, peak_rss_mb); with --trace 1 the per-layer metrics of a traced
run. Exit code 0 means a result was printed; `correct` in it says
whether every output check held.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = pathlib.Path("bench", "results")


def build_parser(workloads) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv=None) -> int:
    from workloads import WORKLOADS

    args = build_parser(WORKLOADS).parse_args(argv)
    if not (ROOT / "src" / "fsilab" / "__init__.py").is_file():
        print(f"no fsilab sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    (ROOT / RESULTS).mkdir(parents=True, exist_ok=True)
    cmd = [
        sys.executable,
        str(ROOT / "bench" / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or code != 0:
        print(f"worker exited with code {code} before a result", file=sys.stderr)
        return code or 1
    result = json.loads(rest.strip().splitlines()[-1])
    if not args.trace:
        peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        result["metrics"]["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

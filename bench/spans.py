"""In-memory span recorder and the instrumentation of fsilab's layers.

A span is (name, start, end, parent). Spans are kept in memory and
written out once, when the run ends. A layer's self time is the length
of its spans minus the part their child spans cover. Counts are taken at
the same call boundaries as the spans.

`instrument` wraps calls into each fsilab module from the outside: it
rebinds the module-level names (in every fsilab module that imported the
same function object) and the class methods, and `restore` puts the
originals back, so traced and untraced passes can run in one process.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter

# span name of the benchmark's own bookkeeping (factor fill, file sizes):
# it is a child like any other, so no layer is charged for it
BOOKKEEPING = "trace.bookkeeping"


class Recorder:
    """Spans and counts of one process, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self.peaks: dict[str, int] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.ends[idx] = time.perf_counter()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    def count(self, name: str, n: int = 1):
        self.counts[name] += n

    def peak(self, name: str, value: int):
        self.peaks[name] = max(self.peaks.get(name, 0), int(value))

    def self_times(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Self time per span name over spans[first:last].

        Children of a span in the range are in the range too, because a
        span is opened after its parent and closed before it.
        """
        last = len(self.names) if last is None else last
        child = Counter()
        for k in range(first, last):
            p = self.parents[k]
            if p >= first:
                child[p] += self.ends[k] - self.starts[k]
        out: Counter = Counter()
        for k in range(first, last):
            out[self.names[k]] += self.ends[k] - self.starts[k] - child[k]
        return dict(out)

    def write(self, path):
        rows = [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w") as f:
            json.dump({"spans": rows, "counts": dict(self.counts), "peaks": self.peaks}, f)


class _Span:
    __slots__ = ("rec", "name", "idx")

    def __init__(self, rec: Recorder, name: str):
        self.rec, self.name = rec, name

    def __enter__(self):
        self.idx = self.rec.open(self.name)
        return self

    def __exit__(self, *exc):
        self.rec.close(self.idx)
        return False


def span(rec: Recorder, name: str) -> _Span:
    return _Span(rec, name)


class _TracedLU:
    """A SuperLU factor whose solves are spans; everything else passes through."""

    def __init__(self, lu, rec: Recorder):
        self._lu, self._rec = lu, rec

    def solve(self, *args, **kwargs):
        with span(self._rec, "linear_subsystems.lu_solve"):
            out = self._lu.solve(*args, **kwargs)
        self._rec.count("linear_subsystems.lu_solves")
        return out

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _hooks(rec: Recorder):
    """(module, attribute, span name, after(args, result) -> result)."""

    def counter(name):
        def after(args, result):
            rec.count(name)
            return result

        return after

    def factor(args, lu):
        rec.count("linear_subsystems.factorizations")
        with span(rec, BOOKKEEPING):
            rec.peak("linear_subsystems.lu_fill_nnz", lu.L.nnz + lu.U.nnz)
        return _TracedLU(lu, rec)

    def sources(args, result):
        rec.count("nonlinear_sources.evals")
        rho = args[0].rho.values
        rec.count("nonlinear_sources.samples", rho.shape[0] if rho.ndim > 2 else 1)
        return result

    def maps(args, result):
        rec.count("chgvar.map_samples", result[0].X.shape[0])
        return result

    def restrict(args, result):
        if args[0].domain != "mean_zero":
            rec.peak("fs_operator.deflated_nnz", result.matrix.nnz)
        return result

    def eig(args, result):
        rec.peak("fs_operator.eig_dim", args[0].shape[0])
        return result

    def written(args, result):
        with span(rec, BOOKKEEPING):
            rec.count("cli_io.artifact_bytes", os.path.getsize(args[0]))
        return result

    return [
        ("fixed_point", "_GlobalEngine.march", "fixed_point.march", counter("fixed_point.marches")),
        ("fixed_point", "_LocalEngine.march", "fixed_point.march", counter("fixed_point.marches")),
        ("fixed_point", "_GlobalEngine.evaluate", "fixed_point.evaluate", counter("fixed_point.picard_iterations")),
        ("fixed_point", "_LocalEngine.evaluate", "fixed_point.evaluate", counter("fixed_point.picard_iterations")),
        ("fixed_point", "state_norm", "fixed_point.norms", None),
        ("fixed_point", "_bundle_norm", "fixed_point.norms", None),
        ("fixed_point", "_diff_norm", "fixed_point.norms", None),
        ("fixed_point", "conserved_quantities", "fixed_point.conserved", None),
        ("linear_subsystems", "_splu", "linear_subsystems.factor", factor),
        ("linear_subsystems", "VelocityStepper.step", "linear_subsystems.step", counter("linear_subsystems.stepper_steps")),
        ("linear_subsystems", "TemperatureStepper.step", "linear_subsystems.step", counter("linear_subsystems.stepper_steps")),
        ("linear_subsystems", "step_plate", "linear_subsystems.step", counter("linear_subsystems.stepper_steps")),
        ("linear_subsystems", "step_density", "linear_subsystems.step", counter("linear_subsystems.stepper_steps")),
        ("linear_subsystems", "manufactured_convergence", "linear_subsystems.convergence", None),
        ("nonlinear_sources", "eval_global_sources", "nonlinear_sources.eval", sources),
        ("nonlinear_sources", "eval_local_sources", "nonlinear_sources.eval", sources),
        ("nonlinear_sources", "check_compatibility", "nonlinear_sources.compat", None),
        ("chgvar", "diffeo_series", "chgvar.map_rebuild", maps),
        ("chgvar", "initial_diffeo", "chgvar.initial_map", None),
        ("core_grid", "discrete_norm", "core_grid.norm", counter("core_grid.norm_calls")),
        ("core_grid", "weighted_time_norm", "core_grid.norm", counter("core_grid.norm_calls")),
        ("fs_operator", "assemble_coupled", "fs_operator.assemble", None),
        ("fs_operator", "restrict_Xm", "fs_operator.assemble", restrict),
        ("fs_operator", "spectrum", "fs_operator.eig", eig),
        ("fs_operator", "gamma_search", "fs_operator.sector", None),
        ("fs_operator", "sector_scan", "fs_operator.sector", counter("fs_operator.sector_scans")),
        ("fs_operator", "_scaled_resolvent_norm", "fs_operator.sector", counter("fs_operator.sector_samples")),
        ("cli_io", "run_scenario", "cli_io.run_scenario", None),
        ("cli_io", "parse_config", "cli_io.config", None),
        ("cli_io", "write_snapshot", "cli_io.artifacts", written),
        ("cli_io", "_write_csv", "cli_io.artifacts", written),
    ]


def _wrap(fn, rec: Recorder, name: str, after):
    def traced(*args, **kwargs):
        with span(rec, name):
            result = fn(*args, **kwargs)
        return after(args, result) if after is not None else result

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


def instrument(rec: Recorder):
    """Wrap every hooked call into fsilab; returns the undo list for `restore`."""
    modules = [m for key, m in sys.modules.items() if m is not None and (key == "fsilab" or key.startswith("fsilab."))]
    undo = []
    for mod_name, attr, name, after in _hooks(rec):
        owner = sys.modules[f"fsilab.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            fn = cls.__dict__[meth]
            undo.append((cls, meth, fn))
            setattr(cls, meth, _wrap(fn, rec, name, after))
            continue
        fn = getattr(owner, attr)
        wrapped = _wrap(fn, rec, name, after)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    undo.append((mod, key, fn))
                    setattr(mod, key, wrapped)
    return undo


def restore(undo):
    for owner, key, fn in reversed(undo):
        setattr(owner, key, fn)

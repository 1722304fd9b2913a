"""The span recorder's self times, and instrumentation that leaves fsilab unchanged."""

import pytest

import fsilab
import spans
from checks import artifact_digests


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_nested_children(monkeypatch):
    # outer [0, 10] holds a [1, 4] (which holds b [2, 3]) and b [5, 6]
    monkeypatch.setattr(spans.time, "perf_counter", FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0]))
    rec = spans.Recorder()
    with spans.span(rec, "outer"):
        with spans.span(rec, "a"):
            with spans.span(rec, "b"):
                pass
        with spans.span(rec, "b"):
            pass
    assert rec.parents == [-1, 0, 1, 0]
    assert rec.self_times() == {"outer": 6.0, "a": 2.0, "b": 2.0}


def test_self_time_of_recursive_spans_and_of_a_range(monkeypatch):
    # x [0, 8] holds x [1, 5] which holds y [2, 4]; then z [9, 12]
    monkeypatch.setattr(spans.time, "perf_counter", FakeClock([0.0, 1.0, 2.0, 4.0, 5.0, 8.0, 9.0, 12.0]))
    rec = spans.Recorder()
    with spans.span(rec, "x"):
        with spans.span(rec, "x"):
            with spans.span(rec, "y"):
                pass
    with spans.span(rec, "z"):
        pass
    assert rec.self_times() == {"x": 6.0, "y": 2.0, "z": 3.0}
    assert rec.self_times(3) == {"z": 3.0}
    assert rec.self_times(0, 3) == {"x": 6.0, "y": 2.0}


def test_out_of_order_close_is_refused():
    rec = spans.Recorder()
    outer = rec.open("outer")
    rec.open("inner")
    with pytest.raises(RuntimeError):
        rec.close(outer)


def test_instrumented_run_counts_and_matches_untraced_bytes(tmp_path):
    text = "mode = local\nscenario = beam-pluck\nnx = 8\nT = 0.03\ndt = 0.01\n"
    plain = fsilab.parse_config(text, overrides=[f"out_dir = {tmp_path / 'plain'}"])
    fsilab.run_scenario(plain)

    original = fsilab.fixed_point._splu
    rec = spans.Recorder()
    undo = spans.instrument(rec)
    try:
        assert fsilab.fixed_point._splu is fsilab.linear_subsystems._splu is not original
        traced = fsilab.parse_config(text, overrides=[f"out_dir = {tmp_path / 'traced'}"])
        fsilab.run_scenario(traced)
    finally:
        spans.restore(undo)
    assert fsilab.fixed_point._splu is original
    assert fsilab.linear_subsystems.VelocityStepper.step.__name__ == "step"
    assert not hasattr(fsilab.linear_subsystems.VelocityStepper.step, "__wrapped__")

    assert artifact_digests(tmp_path / "plain") == artifact_digests(tmp_path / "traced")
    iterations = rec.counts["fixed_point.picard_iterations"]
    assert iterations >= 1
    assert rec.counts["nonlinear_sources.evals"] == iterations
    # three steps per march of the plate, velocity, temperature and density steppers
    assert rec.counts["linear_subsystems.stepper_steps"] == 4 * 3 * rec.counts["fixed_point.marches"]
    times = rec.self_times()
    assert set(times) >= {"cli_io.config", "fixed_point.march", "linear_subsystems.lu_solve", "cli_io.artifacts"}
    assert all(t >= 0.0 for t in times.values())

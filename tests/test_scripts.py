"""The scripts in scripts/ run end to end at small settings, so an API
change in the package cannot leave one of them broken unnoticed."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "name, args",
    [
        pytest.param(name, args, id=name + "".join(a for a in args if a.startswith("--sector")))
        for name, args in (
            ("spectrum_scan.py", ["--sizes", "6"]),
            ("spectrum_scan.py", ["--sector", "2.356", "--sizes", "6"]),
            ("convergence_table.py", ["--spatial", "8", "16", "--temporal", "16", "32", "64"]),
            ("decay_study.py", ["--nx", "6", "--t-max", "2", "--dt", "0.1", "--amplitudes", "1e-2", "5e-3"]),
            ("existence_horizon.py", ["--nx", "6", "--rounds", "1"]),
        )
    ],
)
def test_script_runs(name, args, tmp_path):
    proc = run_script(name, *args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_convergence_table_rejects_too_few_resolutions(tmp_path):
    proc = run_script("convergence_table.py", "--spatial", "8", "16", "--temporal", "16", "32", cwd=tmp_path)
    assert proc.returncode == 2
    assert "at least 3 resolutions" in proc.stderr

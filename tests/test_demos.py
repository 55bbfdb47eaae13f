"""Every demo script, and the README's library tour, runs to completion
against the current public API."""

import os
import pathlib
import subprocess
import sys

import pytest

import gwising

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(cwd, *args) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(gwising.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_zero(tmp_path, demo):
    done = run_python(tmp_path, str(demo))
    assert done.returncode == 0, done.stderr


def test_readme_library_tour_runs(tmp_path):
    """The README's Library-tour block runs, with RuntimeWarnings as errors."""
    tour = (ROOT / "README.md").read_text().split("## Library tour\n", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    done = run_python(tmp_path, "-W", "error::RuntimeWarning", "-c", code)
    assert done.returncode == 0, done.stderr

"""The demo scripts run to completion against the installed package."""

import os
import subprocess
import sys

import pytest

import eistheta

DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")


@pytest.mark.parametrize("script", ["twist_sweep.py", "eisenstein_filtration_walkthrough.py"])
def test_demo_runs(script):
    src = os.path.dirname(os.path.dirname(eistheta.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, os.path.join(DEMOS, script)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr

"""Each demo calls the public API; it must run to exit 0 in a fresh interpreter,
also with numpy unimportable: the demos need the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfi_radar

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

# runs the script named by its first argument as __main__, with numpy unimportable
WITHOUT_NUMPY = ("import runpy, sys\nsys.modules['numpy'] = None\nsys.argv = sys.argv[1:]\n"
                 "runpy.run_path(sys.argv[0], run_name='__main__')")


def run_demo(argv, cwd):
    src = os.path.dirname(os.path.dirname(qfi_radar.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    out = run_demo([str(demo)], tmp_path)
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_without_numpy(demo, tmp_path):
    out = run_demo(["-c", WITHOUT_NUMPY, str(demo)], tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout == run_demo([str(demo)], tmp_path).stdout

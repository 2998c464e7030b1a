"""Each demo calls the public API; it must run to exit 0 in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfi_radar

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo, tmp_path):
    src = os.path.dirname(os.path.dirname(qfi_radar.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                         env=env, cwd=tmp_path, timeout=120)
    assert out.returncode == 0, out.stderr

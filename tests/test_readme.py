"""README's quick start runs and prints the values its comments state."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1, "README holds one Python block, the quick start"
    return blocks[0]


def test_quick_start_prints_its_commented_values():
    code = quick_start()
    ns: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), ns)
    # each comment the block prints against, and the value it names
    checks = [
        ("# (H11, H22) = (3.6, 2.5)", lambda: np.allclose(ns["h"], [3.6, 2.5], atol=1e-12)),
        ("# 1/3", lambda: abs(ns["bound_product"](*ns["h"]) - 1.0 / 3.0) <= 1e-12),
        ("# 1.8539..., 0.4749...",
         lambda: [round(ns["H"][0][0], 4), round(ns["H"][1][1], 4)] == [1.8539, 0.4749]),
        ("# t_minus confirmed, omega_plus refuted",
         lambda: out.getvalue().splitlines()[-2:] == ["t_minus confirmed", "omega_plus refuted"]),
    ]
    for comment, holds in checks:
        assert comment in code, comment
        assert holds(), comment

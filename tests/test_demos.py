"""Smoke test: the quick demos run to completion.

Each demo runs as its own process, as a reader would start it, so a helper
deleted from the package cannot silently break one. Demos 06 (ablation) and
07 (weight sweep) are left out: each takes about 50 s, against about 17 s
for 01-05 together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
QUICK_DEMOS = ("01_autodiff_basics.py", "02_synthetic_world.py",
               "03_label_semantics.py", "04_doubly_robust.py",
               "05_train_and_evaluate.py")


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_exits_zero(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oneshotdpd

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = str(Path(oneshotdpd.__file__).resolve().parents[1])


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # a copy, so files a demo writes next to itself land in tmp_path; this
    # checkout of the package, and numpy warnings are errors as in the suite
    script = shutil.copy(demo, tmp_path)
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", script],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr

"""The demos run clean against the library as it stands."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rayreg

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_clean(demo, tmp_path):
    # A copy, because demos 05 and 06 write into out/ beside the script.
    script = Path(shutil.copy(demo, tmp_path))
    src = str(Path(rayreg.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          timeout=120, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""

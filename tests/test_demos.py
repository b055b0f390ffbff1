"""The demos run to completion.

Each demo runs as a script in a new interpreter, from a scratch working
directory, so that an API change the demos were not updated for fails here.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rotogo

SRC = str(Path(rotogo.__file__).resolve().parent.parent)
DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("0*.py")))
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, str(DEMOS / demo)], cwd=tmp_path, capture_output=True, text=True, timeout=300, env=env
    )
    assert done.returncode == 0, done.stderr

"""Every demo script, and every ```python block of README.md, runs to
completion against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                           flags=re.S | re.M)


def run_python(args, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    run_python([str(demo)], tmp_path)


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"readme-{k}" for k in range(len(README_BLOCKS))])
def test_readme_block_runs(block, tmp_path):
    assert README_BLOCKS and "import" in block
    run_python(["-c", block], tmp_path)

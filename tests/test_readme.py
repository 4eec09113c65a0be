"""The README's Python examples run as written."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import privsig

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code, tmp_path):
    # a fresh interpreter, from an empty directory, sees only the package
    env = dict(os.environ, PYTHONPATH=str(Path(privsig.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr

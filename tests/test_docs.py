"""The README's library example and the demos run as written."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gradqueue

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_python_block():
    text = (ROOT / "README.md").read_text()
    return text.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_example_runs():
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(readme_python_block(), "README.md", "exec"), namespace)
    state = namespace["state"]
    assert state.step_count == len(namespace["gradient_stream"])
    assert np.isfinite(state.params).all()
    assert out.getvalue().startswith("[")


def run_demo(demo, cwd, **env):
    env = dict(os.environ, PYTHONPATH=str(Path(gradqueue.__file__).parents[1]), **env)
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_demos_found():
    assert DEMOS  # an empty parametrization below would pass silently


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_writes_nothing_into_the_working_directory(demo, tmp_path):
    cwd, tmp = tmp_path / "cwd", tmp_path / "tmp"
    cwd.mkdir()
    tmp.mkdir()
    run_demo(demo, cwd, TMPDIR=str(tmp))
    assert list(cwd.iterdir()) == []

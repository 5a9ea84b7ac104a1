"""Training bytes do not depend on the BLAS build: train-lines under several OpenBLAS cores.

Each core runs in its own subprocess, with ``OPENBLAS_CORETYPE`` set only in
that child's environment. The CSV bodies (the rows after the ``#`` header)
must be equal under every core.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import gradqueue

RUNS = [
    "train-lines --steps 20 --seed 0",
    "train-lines --height 12 --width 12 --p 190 --q 10 --batch-size 20 --optimal-batch 20"
    " --steps 20 --seed 1",
]
CORES = [None, "Haswell", "Prescott"]  # None: the core OpenBLAS picks for this host
CHILD = """
import sys
from gradqueue.cli import main
for i, run in enumerate(sys.argv[1:]):
    assert main([*run.split(), "--output", f"{i}.csv"]) == 0
"""


def bodies(core, cwd):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    if core is not None:
        env["OPENBLAS_CORETYPE"] = core
    src = str(Path(gradqueue.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    cwd.mkdir()
    subprocess.run(
        [sys.executable, "-c", CHILD, *RUNS], cwd=cwd, env=env, check=True, capture_output=True
    )
    return [
        [line for line in (cwd / f"{i}.csv").read_text().splitlines() if not line.startswith("#")]
        for i in range(len(RUNS))
    ]


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="OpenBLAS cores are x86-64"
)
def test_csv_bodies_equal_under_every_openblas_core(tmp_path):
    want = bodies(CORES[0], tmp_path / "default")
    assert all(len(rows) > 20 for rows in want)  # the column header and one row per step
    for core in CORES[1:]:
        assert bodies(core, tmp_path / core) == want, core

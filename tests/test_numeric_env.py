"""Training bytes do not depend on the BLAS build or on numpy's SIMD dispatch.

Each setting runs in its own subprocess, with its environment variable set
only in that child's environment: ``OPENBLAS_CORETYPE`` for several OpenBLAS
cores, and ``NPY_DISABLE_CPU_FEATURES`` for numpy with every dispatched CPU
feature turned off (its baseline loops only). The CSV bodies (the rows after
the ``#`` header) must be equal under every setting.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
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
SETTINGS = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")


def bodies(cwd, runs=RUNS, **setting):
    env = {k: v for k, v in os.environ.items() if k not in SETTINGS}
    env.update(setting)
    src = str(Path(gradqueue.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, *filter(None, [env.get("PYTHONPATH")])])
    cwd.mkdir()
    subprocess.run(
        [sys.executable, "-c", CHILD, *runs], cwd=cwd, env=env, check=True, capture_output=True
    )
    return [
        [line for line in (cwd / f"{i}.csv").read_text().splitlines() if not line.startswith("#")]
        for i in range(len(runs))
    ]


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="OpenBLAS cores are x86-64"
)
def test_csv_bodies_equal_under_every_openblas_core(tmp_path):
    want = bodies(tmp_path / "default")
    assert all(len(rows) > 20 for rows in want)  # the column header and one row per step
    for core in CORES[1:]:
        assert bodies(tmp_path / core, OPENBLAS_CORETYPE=core) == want, core


def test_csv_bodies_equal_without_simd_dispatch(tmp_path):
    # the names differ between numpy versions and builds, so they are read from numpy
    umath = np._core._multiarray_umath if hasattr(np, "_core") else np.core._multiarray_umath
    features = umath.__cpu_dispatch__
    if not features:
        pytest.skip("this numpy build dispatches on no CPU feature")
    runs = [*RUNS, "qlen-demo --pattern train --steps 30"]
    want = bodies(tmp_path / "default", runs)
    assert all(len(rows) > 20 for rows in want)
    got = bodies(tmp_path / "baseline", runs, NPY_DISABLE_CPU_FEATURES=" ".join(features))
    assert got == want, features

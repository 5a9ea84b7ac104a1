"""Golden bytes: each CLI run's CSV, and lemma-check's stdout, equal pinned digests.

A refactor that keeps behaviour keeps these bytes; one that changes a summation
order, a format or a default does not. The CSV header records the settings the
command reads and not the output path, so the file's bytes do not depend on
where it is written (tests/test_cli.py checks that). The digests were taken with
numpy 2.4.6 and glibc 2.36 on x86-64. The training runs compute no BLAS product,
and their ``exp``/``log1p`` run in longdouble, which numpy computes with the C
library's ``expl``/``log1pl`` and no SIMD loop: neither the OpenBLAS kernel nor
numpy's CPU dispatch changes them (tests/test_numeric_env.py). They do depend on
x86-64's 80-bit longdouble and on the C library.
"""

import hashlib

import pytest

from gradqueue.cli import main

GOLDEN = {
    "train-lines --steps 200 --seed 0": (
        "6a98bece2181935610283a993f93cc05e97ffb44ffa12e07b454f59d34748555"
    ),
    "train-lines --height 12 --width 12 --p 190 --q 10 --batch-size 20 --optimal-batch 20"
    " --steps 100 --seed 1": "2be6eabf74a7bd9423ff6dea938d43cb70ec7d63f89e9213764deb98fcadb7c6",
    "train-lines --adam --steps 60 --k 3 --batch-size 40 --seed 2": (
        "b6e444a5d3ba3a9f513f4b4b762dd88df549b7a10a28dac14a35a1c631b3331a"
    ),
    # one image per batch, and a dataset of one distinct image (two 3x3 images, one lit row)
    "train-lines --batch-size 1 --k 1": (
        "c22e83e3cb73f204d9db15dafcfe692ef94f5a39aad1db964c3dee1b2d43fc2d"
    ),
    "train-lines --p 2 --q 0 --height 3 --width 3 --batch-size 2 --k 1": (
        "617a483521bc97e0039d062d73b61b4459a35a63e4f9b69335ec4442c7336bec"
    ),
    "lemma-check": "153918980a38cebb6fc03b9218a6ef5b750e3f9cec7d78e827a8f07c2db9a3a2",
    "momentum-sim --steps 500 --N 7 --C 9 --capacity 4": (
        "bc686c5f500a718db4a06e4d4558ac93ffaa9aaf1406c7003d0aa610160c0603"
    ),
    # a one-coordinate window of 9 entries: its sums run oldest first from 0.0, not pairwise
    "momentum-sim --steps 400 --N 20 --capacity 9 --C 2.7 --u -1.3": (
        "9bf80e66f6a0f0041606e3835e4b1ea9bfad6c56b70e79d3221bf167e4fba0e6"
    ),
    "zeta-table": "756c74e7d2756d0934ef6e92d72e396b33b91079c33f12a0c4eeb7ba11d14082",
    "qlen-demo --steps 300": "74546911791da5af59c2a46fddfbd932530fdd0e6663ad47be2a1f7141f18bce",
    "qlen-demo --pattern train --steps 30": (
        "bda6227f97ff2766bd203e9ef98dc92efa1c0a8224d1d283bc09c31e00e94c5e"
    ),
}
LEMMA_CHECK_STDOUT = "fec7e1a11ddc1476812c7ebda20a005e09473dd215d234ef94f91dea317e1ebe"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("run", GOLDEN)
def test_csv_bytes_are_golden(run, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([*run.split(), "--output", "out.csv"]) == 0
    assert sha256((tmp_path / "out.csv").read_bytes()) == GOLDEN[run]
    if run == "lemma-check":
        assert sha256(capsys.readouterr().out.encode()) == LEMMA_CHECK_STDOUT

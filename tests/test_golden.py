"""Golden bytes: each CLI run's CSV, and lemma-check's stdout, equal pinned digests.

A refactor that keeps behaviour keeps these bytes; one that changes a summation
order, a format or a default does not. The runs write to a fixed relative path,
because the CSV header records ``# output=<path>``. The digests were taken with
numpy 2.4.6 on x86-64 with numpy's AVX-512 float64 ``exp``/``log1p`` paths
(``numpy.show_runtime()`` found X86_V3, X86_V4, AVX512_ICL and AVX512_SPR). The
training runs compute no BLAS product, so the OpenBLAS kernel does not change
them (tests/test_numeric_env.py); numpy's baseline ``exp``/``log1p`` paths do
change the train-lines and ``qlen-demo --pattern train`` bytes.
"""

import hashlib

import pytest

from gradqueue.cli import main

GOLDEN = {
    "train-lines --steps 200 --seed 0": (
        "0c7ae3080903fc9a13f9e57f5709a114a9c84de6ea80c4ddb59d628b4686bebb"
    ),
    "train-lines --height 12 --width 12 --p 190 --q 10 --batch-size 20 --optimal-batch 20"
    " --steps 100 --seed 1": "f2d15d81d2888dd0a305975092b72b0de293448a1c4152eae6801f8f22a8d9f9",
    "train-lines --adam --steps 60 --k 3 --batch-size 40 --seed 2": (
        "be07e68faad55ca082305a3049f767f92da0f354f07fa6bcb70f14742566f760"
    ),
    # one image per batch, and a dataset of one distinct image (two 3x3 images, one lit row)
    "train-lines --batch-size 1 --k 1": (
        "4ad93e61f94a992e9754e1f96dbbd8ae73bb123ffafae39b917dd6f5901ee519"
    ),
    "train-lines --p 2 --q 0 --height 3 --width 3 --batch-size 2 --k 1": (
        "32527f2f95cbf04821e437eb20d62cfa5a966a4fc62c7959222c25fd71f9e7dc"
    ),
    "lemma-check": "b70ec962e6167fbef01cc0462733c25e377853a3ae7df1fc699345b65e822193",
    "momentum-sim --steps 500 --N 7 --C 9 --capacity 4": (
        "3389040e9b900ec92ff9a558f449f1a37a0bb35aaf7e08e201fa4d94428dbd4b"
    ),
    "zeta-table": "bce14c0d653544c22d8043883cd50cd40147e081777bda2d284a9774a35bea01",
    "qlen-demo --steps 300": "70c6da1fe1c6e66b97ca92332dd989aaf3dae2c453a0d3bcbed7dc490145ee71",
    "qlen-demo --pattern train --steps 30": (
        "ced04fa982d94ae6ae7501be968a2fd39efb52bbc4be5d97d6186e6332813478"
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

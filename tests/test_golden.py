"""Golden bytes: each CLI run's CSV, and lemma-check's stdout, equal pinned digests.

A refactor that keeps behaviour keeps these bytes; one that changes a summation
order, a format or a default does not. The runs write to a fixed relative path,
because the CSV header records ``# output=<path>``. The digests were taken with
numpy 2.4.6.
"""

import hashlib

import pytest

from gradqueue.cli import main

GOLDEN = {
    "train-lines --steps 200 --seed 0": (
        "748e90a32de8b3bee511ecd149a834899379af540be0243a98b1479255a96fd4"
    ),
    "train-lines --height 12 --width 12 --p 190 --q 10 --batch-size 20 --optimal-batch 20"
    " --steps 100 --seed 1": "188f2024dfb4ff82cadec3cd396535f3238721c6bb5b50d7ecf21f03b1a8ab84",
    "train-lines --adam --steps 60 --k 3 --batch-size 40 --seed 2": (
        "83d09d31a42c60f519c033169cf4c9b998037583eb756bee8a16f90e6d8a7ec1"
    ),
    # one image per batch, and a dataset of one distinct image (two 3x3 images, one lit row)
    "train-lines --batch-size 1 --k 1": (
        "62c8931144041cd74df36e2d365da91fbf5613b8a4b142d10edd3b6605daeca0"
    ),
    "train-lines --p 2 --q 0 --height 3 --width 3 --batch-size 2 --k 1": (
        "c41bc489ba288110e94d8254c3c18ee69f64dcd89ca91756d047659d526e402b"
    ),
    "lemma-check": "b70ec962e6167fbef01cc0462733c25e377853a3ae7df1fc699345b65e822193",
    "momentum-sim --steps 500 --N 7 --C 9 --capacity 4": (
        "3389040e9b900ec92ff9a558f449f1a37a0bb35aaf7e08e201fa4d94428dbd4b"
    ),
    "zeta-table": "bce14c0d653544c22d8043883cd50cd40147e081777bda2d284a9774a35bea01",
    "qlen-demo --steps 300": "70c6da1fe1c6e66b97ca92332dd989aaf3dae2c453a0d3bcbed7dc490145ee71",
    "qlen-demo --pattern train --steps 30": (
        "e4c67d83016599ab87848bb103ec1ae66a0c4a4c938bb7689df5e07a8c3324bd"
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

"""Golden bytes: each CLI run's CSV, and lemma-check's stdout, equal pinned digests.

A refactor that keeps behaviour keeps these bytes; one that changes a summation
order, a format or a default does not. The runs write to a fixed relative path,
because the CSV header records ``# output=<path>``. The digests were taken with
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
        "6cafe6eda9b3afe2bb1afbb7a9154de17c97cdfd415217c2f3fa681dd6e38515"
    ),
    "train-lines --height 12 --width 12 --p 190 --q 10 --batch-size 20 --optimal-batch 20"
    " --steps 100 --seed 1": "0a552d77c6944d0d7a30b3c5909230d74d690f0015beb7131cd66449537dcc1c",
    "train-lines --adam --steps 60 --k 3 --batch-size 40 --seed 2": (
        "684d3b004469f93a85dc184c4b3ceca92f6c5b62c985238207037a40e5b9cb74"
    ),
    # one image per batch, and a dataset of one distinct image (two 3x3 images, one lit row)
    "train-lines --batch-size 1 --k 1": (
        "98cccbaffed2f3388b88f90399b942536d1be66be26fd5001f3cfc89ed63b84a"
    ),
    "train-lines --p 2 --q 0 --height 3 --width 3 --batch-size 2 --k 1": (
        "05713ff747a67275de31cd8bc1ce610e28ef3779ec941e1cbc93a966ba970f1b"
    ),
    "lemma-check": "b70ec962e6167fbef01cc0462733c25e377853a3ae7df1fc699345b65e822193",
    "momentum-sim --steps 500 --N 7 --C 9 --capacity 4": (
        "3389040e9b900ec92ff9a558f449f1a37a0bb35aaf7e08e201fa4d94428dbd4b"
    ),
    # a one-coordinate window of 9 entries: its sums run oldest first from 0.0, not pairwise
    "momentum-sim --steps 400 --N 20 --capacity 9 --C 2.7 --u -1.3": (
        "2db87b5deaecf243c29eee29d81236a211470921f75b40aade7b8cd6c1504e78"
    ),
    "zeta-table": "bce14c0d653544c22d8043883cd50cd40147e081777bda2d284a9774a35bea01",
    "qlen-demo --steps 300": "70c6da1fe1c6e66b97ca92332dd989aaf3dae2c453a0d3bcbed7dc490145ee71",
    "qlen-demo --pattern train --steps 30": (
        "b63e47716235c46ff1db6df27a178176269632c6c4a1ceb89b920d89000f92e3"
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

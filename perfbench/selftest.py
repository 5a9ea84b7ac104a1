"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's default test run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import time

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import CSV_DIR, WIN_OPS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", autouse=True)
def checkout_root():
    old = os.getcwd()
    os.chdir(ROOT)
    os.makedirs(CSV_DIR, exist_ok=True)
    yield
    shutil.rmtree(CSV_DIR, ignore_errors=True)
    os.chdir(old)


def bindings(gq) -> dict:
    """Every callable the tracer could replace, keyed by where it is looked up."""
    snapshot = {}
    modules = (gq.nn, gq.experiments, gq.clustering, gq.optimizers, gq.analysis, gq.core, gq.cli)
    for module in modules:
        for name, value in vars(module).items():
            if callable(value):
                snapshot[(module.__name__, name)] = value
    for name, value in vars(gq.core.GradQueue).items():
        snapshot[("GradQueue", name)] = value
    snapshot[("run_lemma_check", "__defaults__")] = gq.experiments.run_lemma_check.__defaults__
    return snapshot


def assert_same_bindings(before: dict, after: dict) -> None:
    assert before.keys() == after.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed, f"not restored: {changed}"


@pytest.fixture(scope="module")
def traced_runs():
    """One untraced and one traced operation of every workload, with bindings around them."""
    out = {}
    for name in WORKLOADS:
        w, setups = run.setup(name, seed=3)
        before = bindings(w.gq)
        # a tiny time budget makes each phase exactly one operation
        _, phases, metrics, digests_match = run.run_traced(w, 1e-3, setups)
        out[name] = (phases, metrics, digests_match, before, bindings(w.gq))
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_changes_no_result(traced_runs, name):
    (untraced, traced), _, digests_match, _, _ = traced_runs[name]
    assert untraced.attempted == traced.attempted == 1
    assert not untraced.failures and not traced.failures
    assert digests_match
    assert untraced.digest.hexdigest() == traced.digest.hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_restores_every_wrapped_function(traced_runs, name):
    *_, before, after = traced_runs[name]
    assert_same_bindings(before, after)


def test_wrappers_installed_then_restored_after_an_error(traced_runs):
    w, _ = run.setup("oracle-cli", seed=0)
    before = bindings(w.gq)
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(w.gq):
            inside = bindings(w.gq)
            raise RuntimeError("stop inside the traced region")
    replaced = {key for key, value in before.items() if inside[key] is not value}
    assert {
        ("gradqueue.nn", "batch_forward"),
        ("gradqueue.experiments", "kmeans"),
        ("gradqueue.optimizers", "delta_rho"),
        ("GradQueue", "stats"),
        ("GradQueue", "push"),
        ("gradqueue.cli", "main"),
        ("run_lemma_check", "__defaults__"),
    } <= replaced
    assert_same_bindings(before, bindings(w.gq))


def test_eval_reusable_frac(traced_runs):
    # b100: 199 of each run's 200 evals repeat the next training forward (the
    # last eval has none), out of 800 forwards per paired run
    b100 = traced_runs["paired-train-b100"][1]["nn.eval_reusable_frac"]["value"]
    assert b100 == pytest.approx(398 / 800)
    assert traced_runs["paired-train-minibatch"][1]["nn.eval_reusable_frac"]["value"] == 0.0


def test_traced_layers_match_expectations(traced_runs):
    minibatch = traced_runs["paired-train-minibatch"][1]
    assert minibatch["clustering.kmeans.calls"]["value"] == 0.0
    b100 = traced_runs["paired-train-b100"][1]
    assert b100["nn.batch_forward.calls"]["value"] == 800
    assert b100["clustering.kmeans.calls"]["value"] > 0
    boost = traced_runs["boost-stream-1m"][1]
    assert boost["core.GradQueue.stats.calls"]["value"] == 2
    assert boost["core.stats_bytes_stacked"]["value"] == 2 * 5 * 10**6 * 8


def test_win_fracs_cover_a_fixed_number_of_operations(traced_runs):
    # the phases ran one operation each; the shares still cover WIN_OPS of them
    for name in ("paired-train-b100", "paired-train-minibatch"):
        metrics = traced_runs[name][1]
        for key in ("experiments.align_win_frac", "experiments.loss_win_frac"):
            wins = metrics[key]["value"] * WIN_OPS
            assert wins == pytest.approx(round(wins))


def test_hooks_are_no_layer_self_time():
    tracer = Tracer()
    slow_hook = lambda *a: time.sleep(0.02)  # noqa: E731
    outer = tracer._wrap("outer", lambda: inner())
    inner = tracer._wrap("inner", lambda: None, before=slow_hook, after=slow_hook)
    outer()
    totals, _ = tracer.self_times()
    assert totals["trace.hooks"] >= 0.04
    assert totals["outer"] < 0.01


def test_metric_names_match_benchmark_json(traced_runs):
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for _, metrics, *_ in traced_runs.values():
        assert {k: v["unit"] for k, v in metrics.items()} == per_layer
    w, setup_times = run.setup("oracle-cli", seed=0)
    _, _, metrics = run.run_untraced(w, 1e-3, setup_times)
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in metrics.values())


def test_tail_keeps_ten_samples_beyond():
    assert run.tail([float(x) for x in range(1, 31)]) == (20.0, pytest.approx(200 / 3), 10)
    assert run.tail([float(x) for x in range(7, 0, -1)]) == (4.0, pytest.approx(400 / 7), 3)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "oracle-cli", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout

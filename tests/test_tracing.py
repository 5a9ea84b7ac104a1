"""The benchmark's tracer (perfbench/tracing.py) installs on the package and restores it.

The tracer wraps functions under the names their callers look them up by,
and ``install`` raises ``AttributeError`` for a name that a module no
longer binds. A cleanup that unbinds one breaks every ``--trace 1``
benchmark run; this test makes it fail the default test run as well.
"""

import importlib.util
from pathlib import Path

import gradqueue
from gradqueue import analysis, cli, clustering, experiments, nn, optimizers
from gradqueue.core import GradQueue
from gradqueue.experiments import ExperimentConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
OWNERS = (experiments, nn, clustering, optimizers, analysis, cli, GradQueue)
# noise-free 8x8 lines: 10 images, fewer of them distinct
CFG = dict(steps=3, p=8, q=2, batch_size=4, k=1)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def bindings():
    names = {(owner, name): value for owner in OWNERS for name, value in vars(owner).items()}
    names[experiments.run_lemma_check, "__defaults__"] = experiments.run_lemma_check.__defaults__
    return names


def test_install_wraps_and_restore_unwraps():
    before, tracer = bindings(), load_tracer()
    with tracer.installed(gradqueue):
        assert nn.batch_forward.__wrapped__ is before[nn, "batch_forward"]
        assert experiments.per_sample_grads.__wrapped__ is before[experiments, "per_sample_grads"]
        traced = experiments.run_train_lines(ExperimentConfig(**CFG))
    after = bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []
    assert repr(traced.rows) == repr(experiments.run_train_lines(ExperimentConfig(**CFG)).rows)

    # the traced forwards, of both arms at once: one at the initial parameters and one per step
    metrics = {name: value for name, (value, _) in tracer.layer_metrics(1).items()}
    dataset = experiments._train_setup(ExperimentConfig(**CFG))[1]
    distinct = len({image.tobytes() for image in dataset.images})
    assert distinct < len(dataset)
    forwards = 1 + CFG["steps"]
    assert metrics["nn.batch_forward.calls"] == forwards
    assert metrics["nn.images_forwarded"] == forwards * distinct
    assert metrics["nn.eval_reusable_frac"] == 0.0

import importlib

import pytest

import gradqueue

MODULES = ["core", "optimizers", "clustering", "analysis", "nn", "experiments"]


def test_package_exports_resolve():
    missing = [name for name in gradqueue.__all__ if not hasattr(gradqueue, name)]
    assert missing == []
    assert len(set(gradqueue.__all__)) == len(gradqueue.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"gradqueue.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []

import importlib

import pytest

import gradqueue

MODULES = ["core", "optimizers", "clustering", "analysis", "nn", "experiments"]
# the modules whose exports the package re-exports, in its order
PACKAGE_MODULES = MODULES[:5]


def test_package_exports_resolve():
    missing = [name for name in gradqueue.__all__ if not hasattr(gradqueue, name)]
    assert missing == []
    assert len(set(gradqueue.__all__)) == len(gradqueue.__all__)


def test_package_exports_are_its_modules_exports():
    modules = [importlib.import_module(f"gradqueue.{module}") for module in PACKAGE_MODULES]
    assert gradqueue.__all__ == [name for mod in modules for name in mod.__all__]
    for mod in modules:
        for name in mod.__all__:
            assert getattr(gradqueue, name) is getattr(mod, name), name


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"gradqueue.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []

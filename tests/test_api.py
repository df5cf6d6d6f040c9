import importlib
import pkgutil

import pytest

import markovorder

MODULES = [markovorder] + [importlib.import_module(f"markovorder.{m.name}")
                           for m in pkgutil.iter_modules(markovorder.__path__)]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]


def test_package_and_library_modules_export():
    names = {m.__name__ for m in EXPORTING}
    assert {"markovorder", "markovorder.ccf", "markovorder.ingest",
            "markovorder.markov"} <= names


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []

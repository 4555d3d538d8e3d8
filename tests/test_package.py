import importlib
import pkgutil

import pytest

import blochlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(blochlab.__path__))


@pytest.mark.parametrize("name", ["blochlab"] + [f"blochlab.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []

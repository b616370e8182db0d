import importlib
import pkgutil

import pytest

import simplicial_gap

MODULES = sorted(
    f"simplicial_gap.{info.name}" for info in pkgutil.iter_modules(simplicial_gap.__path__)
)


@pytest.mark.parametrize("name", ["simplicial_gap", *MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from simplicial_gap import *", namespace)
    assert set(simplicial_gap.__all__) <= set(namespace)

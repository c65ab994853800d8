"""The package's public names: ``import qbell`` exports each module's ``__all__``."""

import pytest

import qbell
from qbell import bell, identity, numtheory, partitions, reports, series

MODULES = (bell, identity, numtheory, partitions, reports, series)


def test_package_exports_every_module_name_once():
    assert set(qbell.__all__) == {name for module in MODULES for name in module.__all__}
    assert len(qbell.__all__) == len(set(qbell.__all__))


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_package_names_are_the_module_objects(module):
    for name in module.__all__:
        assert getattr(qbell, name) is getattr(module, name), name

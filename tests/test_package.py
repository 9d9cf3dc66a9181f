"""The package's public names."""

import irislogic


def test_every_exported_name_resolves():
    assert len(set(irislogic.__all__)) == len(irislogic.__all__)
    for name in irislogic.__all__:
        getattr(irislogic, name)    # AttributeError names a missing export


def test_star_import_binds_exactly_the_exports():
    namespace: dict = {}
    exec("from irislogic import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(irislogic.__all__)

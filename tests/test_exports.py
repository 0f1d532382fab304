"""The package's export list against its public attributes."""

import types

import laurentfft


def test_all_lists_every_public_attribute_once():
    # every public attribute but the submodules is listed exactly once,
    # and a star import resolves every listed name
    public = {name for name, value in vars(laurentfft).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert len(laurentfft.__all__) == len(set(laurentfft.__all__))
    assert set(laurentfft.__all__) == public
    namespace: dict = {}
    exec("from laurentfft import *", namespace)
    assert namespace.keys() - {"__builtins__"} == public

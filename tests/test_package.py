"""The package's public names."""

import types

import coverext


def test_all_lists_public_objects_not_modules():
    assert len(coverext.__all__) == len(set(coverext.__all__))
    for name in coverext.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(coverext, name), types.ModuleType), name

"""The package facade: ``longdep.__all__`` names what it exports."""

import longdep


def test_every_exported_name_resolves_and_is_listed_once():
    assert len(set(longdep.__all__)) == len(longdep.__all__)
    for name in longdep.__all__:
        assert hasattr(longdep, name), name

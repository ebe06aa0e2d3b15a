"""The package's public surface."""

import volumize


def test_every_exported_name_resolves_once():
    names = volumize.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(volumize, n)] == []

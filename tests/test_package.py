"""The package's public surface."""

import emeter


def test_every_export_resolves():
    # a name dropped from the package but left in __all__ breaks
    # ``from emeter import *``
    assert [name for name in emeter.__all__ if not hasattr(emeter, name)] == []
    assert len(set(emeter.__all__)) == len(emeter.__all__)

"""The package's public surface: `__all__` against what the package holds."""

from collections import Counter

import finegames


def test_every_public_name_resolves_once():
    names = finegames.__all__
    assert [name for name, count in Counter(names).items() if count > 1] == []
    assert [name for name in names if not hasattr(finegames, name)] == []

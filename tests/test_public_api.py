"""The package's public surface: every exported name resolves, in sorted order."""

import qembound


def test_every_exported_name_resolves():
    missing = [name for name in qembound.__all__ if not hasattr(qembound, name)]
    assert missing == []


def test_exported_names_are_sorted_and_unique():
    assert qembound.__all__ == sorted(set(qembound.__all__))

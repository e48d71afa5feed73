"""Package surface."""

import zetalab


def test_every_export_resolves():
    missing = [name for name in zetalab.__all__ if not hasattr(zetalab, name)]
    assert not missing
    assert len(set(zetalab.__all__)) == len(zetalab.__all__)

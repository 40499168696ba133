"""The package namespace: every exported name exists, once."""

from __future__ import annotations

import majorant


def test_all_names_are_unique():
    assert len(set(majorant.__all__)) == len(majorant.__all__)


def test_all_names_resolve():
    assert [name for name in majorant.__all__ if not hasattr(majorant, name)] == []

"""Fixtures shared by the test modules."""

import pytest

from nctwist import mintwist, twist


@pytest.fixture
def cold_verdicts(monkeypatch):
    """Empty the tables that keep verdicts by value for the whole process,
    ``twist._VERDICTS`` and ``mintwist._UNITARIES``, for the length of one
    test: one that counts the work of verifying a fresh geometry then sees
    all of it, even when an equal geometry was verified before."""
    monkeypatch.setattr(twist, "_VERDICTS", {})
    monkeypatch.setattr(mintwist, "_UNITARIES", {})

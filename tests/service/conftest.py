"""Shared fixtures of the service tests."""

import pytest

from repro.service import server as server_module


@pytest.fixture
def connections(monkeypatch):
    """Every server-side connection a test's servers accept, in order."""
    accepted = []

    class Recorded(server_module._Connection):
        __slots__ = ()

        def connection_made(self, transport):
            accepted.append(self)
            super().connection_made(transport)

    monkeypatch.setattr(server_module, "_Connection", Recorded)
    return accepted

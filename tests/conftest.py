import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def nothing_kept(monkeypatch):
    """Start each test from an empty store of parsed inputs, as a fresh
    process does, so no test sees a graph that another test's `main` kept."""
    import panlcs.cli

    monkeypatch.setattr(panlcs.cli, "_last", {})

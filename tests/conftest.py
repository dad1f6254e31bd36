"""Fixtures shared by the whole suite.

No test reads or writes the checkout's result store
(``.repro_cache/results.sqlite``): a warm developer store would serve
tests that are meant to simulate, and a test run would leave rows in
it.  Every test runs against a store in a session temp dir, and a test
that needs an empty store of its own asks for ``cache``.
"""

import pytest


@pytest.fixture(autouse=True, scope="session")
def _session_store(tmp_path_factory):
    """Point ``REPRO_CACHE_DIR`` at a session temp dir and unset
    ``REPRO_STORE`` for the whole run."""
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("cache")))
    mp.delenv("REPRO_STORE", raising=False)
    yield
    mp.undo()


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    """A fresh, empty result cache directory for one test."""
    d = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(d))
    monkeypatch.delenv("REPRO_STORE", raising=False)
    return d

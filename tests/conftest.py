import pytest

from helpers import fresh_model_caches


@pytest.fixture(autouse=True)
def _isolate_model_caches(request):
    """Tests that monkeypatch run between cache clears: set up before the
    patch and torn down after its undo, so nothing built under a patched
    constructor stays cached for later tests."""
    if "monkeypatch" not in request.fixturenames:
        yield
        return
    with fresh_model_caches():
        yield

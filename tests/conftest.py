import threading

import pytest

from cveminer import corpus, gateway, projection
from cveminer.assets import fixture_bytes


@pytest.fixture
def failing_inputs(monkeypatch):
    """`failing_inputs(marker, times=None, status=503)` makes the mock
    providers fail, with the retryable `status`, every attempt on an input
    that holds `marker`, or only the first `times` attempts on each such input."""
    def inject(marker: str, times: int | None = None, status: int = 503) -> None:
        lock = threading.Lock()
        attempts: dict[str, int] = {}

        def failing(real):
            def reply(model_id, text):
                if marker in text:
                    with lock:
                        seen = attempts[text] = attempts.get(text, 0) + 1
                    if times is None or seen <= times:
                        raise gateway._Transient(status, f"injected failure {seen}")
                return real(model_id, text)
            return reply

        for name in ("mock_chat_reply", "mock_embed_vector"):
            monkeypatch.setattr(gateway, name, failing(getattr(gateway, name)))
    return inject


@pytest.fixture(autouse=True)
def _no_backoff(monkeypatch):
    # retries wait uniform(0, 0); a test that counts the waits patches time.sleep itself
    monkeypatch.setattr(gateway, "BACKOFF_BASE_S", 0.0)


@pytest.fixture
def mini_records():
    records, rejects = corpus.parse_records(fixture_bytes("mini_corpus.jsonl"))
    assert not rejects
    return records


@pytest.fixture
def chat_config():
    return gateway.ProviderConfig(kind="mock-chat", model_id="mock-hwsw", max_parallel=4)


@pytest.fixture
def embed_config():
    return gateway.ProviderConfig(kind="mock-embed", model_id="mock-embed-64", max_parallel=4)


@pytest.fixture
def blas_threads():
    """(get, set) of the BLAS thread count numpy uses, restored after the test;
    the test is skipped when numpy's BLAS exports no known symbol for it."""
    found = projection._blas_threads()
    if found is None:
        pytest.skip("numpy's BLAS exports no known thread-count symbol")
    _, get, set_ = found
    before = get()
    yield get, set_
    set_(before)

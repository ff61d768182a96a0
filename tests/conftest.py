import pytest

from cveminer import corpus, gateway
from cveminer.assets import fixture_bytes


@pytest.fixture(autouse=True)
def _fresh_flaky_state():
    gateway.reset_flaky_state()
    yield
    gateway.reset_flaky_state()


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

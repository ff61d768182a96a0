import contextlib
import hashlib
import json
import random
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from cveminer import classifier, gateway
from cveminer.corpus import make_record
from cveminer.errors import ProviderError
from cveminer.gateway import (ProviderConfig, ResponseCache, cache_key,
                              complete, embed, mock_chat_reply,
                              mock_embed_vector, run_batch)

NO_SLEEP = lambda s: None  # noqa: E731


def test_provider_config_validation():
    with pytest.raises(ValueError):
        ProviderConfig(kind="smoke-signals", model_id="m")
    with pytest.raises(ValueError):
        ProviderConfig(kind="mock-chat", model_id="m", max_parallel=0)
    with pytest.raises(ValueError):
        ProviderConfig(kind="mock-chat", model_id="m", retry_limit=11)
    with pytest.raises(ValueError):
        ProviderConfig(kind="remote-chat", model_id="m")  # endpoint required


def test_cache_key_stable_and_distinct():
    k1 = cache_key("chat", "m", "hello")
    assert k1 == cache_key("chat", "m", "hello")
    assert k1 != cache_key("embed", "m", "hello")
    assert k1 != cache_key("chat", "m2", "hello")
    assert k1 != cache_key("chat", "m", "hello!")
    # NFC-equivalent spellings share a key
    assert cache_key("chat", "m", "café") == cache_key("chat", "m", "café")


def test_response_cache_round_trip(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)
    cache.put("k1", "chat", "m", "hello")
    cache.put("k2", "embed", "m", [1.0, 2.5])
    cache.close()
    reloaded = ResponseCache(path)
    assert reloaded.get("k1") == "hello"
    assert reloaded.get("k2") == [1.0, 2.5]
    assert reloaded.get("missing") is None
    assert len(reloaded) == 2


def test_response_cache_stores_vectors_as_base64_f64(tmp_path):
    path = tmp_path / "cache.jsonl"
    vector = np.array([1.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1, -2.5e-300])
    cache = ResponseCache(path)
    cache.put("k1", "embed", "m", vector)
    cache.put("k2", "chat", "m", "hello")
    cache.close()
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert "value" not in lines[0] and isinstance(lines[0]["f64"], str)
    assert lines[1]["value"] == "hello"

    loaded = ResponseCache(path).get("k1")
    assert isinstance(loaded, np.ndarray) and loaded.dtype == np.float64
    assert loaded.tobytes() == vector.tobytes()
    assert not loaded.flags.writeable


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
def test_response_cache_reloads_raw_line_separators(tmp_path, separator):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)
    cache.put("k1", "chat", "m", f"first{separator}second")
    cache.put("k2", "chat", "m", "plain")
    cache.close()
    assert separator in path.read_text(encoding="utf-8")  # written raw, not escaped
    reloaded = ResponseCache(path)
    assert reloaded.get("k1") == f"first{separator}second"
    assert reloaded.get("k2") == "plain"


def test_response_cache_cuts_torn_last_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)
    cache.put("k1", "chat", "m", "hello")  # each put is flushed
    intact = path.read_bytes()
    with open(path, "ab") as fh:  # an append interrupted mid-line
        fh.write(b'{"key": "k2", "kind": "chat", "mo')
    cache.close()

    reloaded = ResponseCache(path)
    assert reloaded.get("k1") == "hello" and len(reloaded) == 1
    reloaded.put("k3", "chat", "m", "again")
    reloaded.close()
    assert path.read_bytes().startswith(intact)
    assert b'"mo{' not in path.read_bytes()
    final = ResponseCache(path)
    assert final.get("k1") == "hello" and final.get("k3") == "again" and len(final) == 2


def test_response_cache_put_after_close_reopens(tmp_path):
    path = tmp_path / "sub" / "cache.jsonl"
    cache = ResponseCache(path)
    cache.put("k1", "chat", "m", "one")
    cache.close()
    cache.close()  # idempotent
    cache.put("k2", "chat", "m", "two")
    cache.close()
    assert len(path.read_text(encoding="utf-8").split("\n")) == 3  # two lines, final newline
    assert ResponseCache(path).get("k2") == "two"


def test_response_cache_get_does_not_wait_for_its_lock(tmp_path):
    cache = ResponseCache(tmp_path / "cache.jsonl")
    cache.put("k1", "chat", "m", "one")
    got = []
    with cache._lock:  # held, as by a put of another worker
        reader = threading.Thread(target=lambda: got.append(cache.get("k1")))
        reader.start()
        reader.join(timeout=5)
        blocked = reader.is_alive()
    reader.join(timeout=5)
    cache.close()
    assert not blocked and got == ["one"]


def test_response_cache_concurrent_puts_reload_one_whole_line_per_key(tmp_path):
    # more writers than cores, each putting every key in its own order, long
    # lines and a short switch interval: a torn, interleaved or repeated line
    # shows on reload
    path = tmp_path / "cache.jsonl"
    cache = ResponseCache(path)
    values = {f"k{i}": f"v{i}-" * 3000 for i in range(200)}

    def writer(seed):
        keys = sorted(values)
        random.Random(seed).shuffle(keys)
        for key in keys:
            cache.put(key, "chat", "m", values[key])

    threads = [threading.Thread(target=writer, args=(seed,)) for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
        cache.close()
    assert not any(thread.is_alive() for thread in threads)
    data = path.read_bytes()
    assert data.endswith(b"\n")
    docs = [json.loads(line) for line in data[:-1].split(b"\n")]
    assert sorted(doc["key"] for doc in docs) == sorted(values)
    assert all(doc["value"] == values[doc["key"]] for doc in docs)
    reloaded = ResponseCache(path)
    assert len(reloaded) == len(values)
    assert all(reloaded.get(key) == value for key, value in values.items())


def test_mock_chat_keyword_rule():
    assert mock_chat_reply("m", "DESC: firmware SPI flash write protection bypass") == "1"
    assert mock_chat_reply("m", "DESC: SQL injection in login form") == "0"
    assert mock_chat_reply("m", "intro\nDESC: exposed jtag header\nmore") == "1"
    assert mock_chat_reply("m", "DESC: open debug port on device") == "1"
    assert mock_chat_reply("m", "DESC: portable debugger") == "0"


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
def test_mock_chat_keeps_desc_line_whole_across_line_separators(separator):
    template = classifier.load_template("hwsw")
    record = make_record("CVE-2021-1000", f"A flaw in the web form{separator}affecting the jtag port", "t")
    assert mock_chat_reply("mock-hwsw", classifier.build_hwsw_prompt(template, record)) == "1"


def test_mock_chat_summarize_rule():
    reply = mock_chat_reply("m", "Summarize it.\nKeywords: access, local, user, privileged, firmware")
    assert reply == "topic: access local user privileged"


def test_mock_chat_uninterpretable_prompt_fails():
    bad = ProviderConfig(kind="mock-chat", model_id="mock-hwsw", retry_limit=0)
    with pytest.raises(ProviderError):
        complete(bad, "just some text", sleep=NO_SLEEP)


def test_complete_warm_cache_short_circuits(tmp_path, chat_config, monkeypatch):
    cache = ResponseCache(tmp_path / "c.jsonl")
    first = complete(chat_config, "DESC: dram row hammer", cache=cache, sleep=NO_SLEEP)
    assert first.text == "1" and first.cached is False and first.attempts == 1

    calls = []
    monkeypatch.setattr(gateway, "mock_chat_reply",
                        lambda *a, **k: calls.append(1) or "1")
    second = complete(chat_config, "DESC: dram row hammer", cache=cache, sleep=NO_SLEEP)
    assert second.text == first.text
    assert second.cached is True and second.attempts == 0
    assert calls == []  # zero provider invocations
    cache.close()


def test_cache_cold_equals_warm_bytes(tmp_path, chat_config, embed_config):
    cache = ResponseCache(tmp_path / "c.jsonl")
    prompt = "DESC: soc power rail glitch"
    cold = complete(chat_config, prompt, cache=cache, sleep=NO_SLEEP).text
    warm = complete(chat_config, prompt, cache=cache, sleep=NO_SLEEP).text
    assert cold.encode() == warm.encode()

    vec_cold = embed(embed_config, "some text", cache=cache, sleep=NO_SLEEP)
    vec_warm = embed(embed_config, "some text", cache=cache, sleep=NO_SLEEP)
    assert vec_cold.values.tobytes() == vec_warm.values.tobytes()
    cache.close()


def test_mock_embed_dimension_and_norm(embed_config):
    vec = embed(embed_config, "any text at all", sleep=NO_SLEEP)
    assert vec.dim == 64
    assert abs(np.linalg.norm(vec.values) - 1.0) < 1e-12
    vec128 = embed(ProviderConfig(kind="mock-embed", model_id="mock-embed-128"),
                   "any text at all", sleep=NO_SLEEP)
    assert vec128.dim == 128


def test_mock_embed_deterministic(embed_config):
    a = embed(embed_config, "same text", sleep=NO_SLEEP)
    b = embed(embed_config, "same text", sleep=NO_SLEEP)
    assert a.values.tobytes() == b.values.tobytes()


def test_mock_embed_sensitive_to_one_char(embed_config):
    a = embed(embed_config, "same text", sleep=NO_SLEEP)
    b = embed(embed_config, "same texu", sleep=NO_SLEEP)
    assert np.any(a.values != b.values)


def test_mock_embed_matches_independent_reconstruction():
    # rebuild the advertised construction from scratch: keyed counter-based
    # stream, class direction for keyword-bearing texts, then normalization
    def reconstruct(model_id, text, dim):
        def stream(material):
            digest = hashlib.sha256(material.encode()).digest()
            key = np.frombuffer(digest[:16], dtype=np.uint64)
            return np.random.Generator(np.random.Philox(key=key))

        vec = stream(model_id + "\x00" + text).standard_normal(dim)
        cls = next((k for k in gateway.DEFAULT_HW_KEYWORDS if k in text.lower()), None)
        if cls is not None:
            d = stream(model_id + "\x00class:" + cls).standard_normal(dim)
            d /= np.linalg.norm(d)
            vec = vec + gateway.MOCK_CLASS_WEIGHT * np.sqrt(dim) * d
        return vec / np.linalg.norm(vec)

    for text in ("plain software bug", "firmware flash bug", "bios nvram issue"):
        expected = reconstruct("mock-embed-64", text, 64)
        got = mock_embed_vector("mock-embed-64", text)
        assert got.tobytes() == expected.tobytes()


def test_mock_embed_class_structure():
    group_a = [mock_embed_vector("m-64", f"firmware flaw number {i}") for i in range(5)]
    group_b = [mock_embed_vector("m-64", f"jtag flaw number {i}") for i in range(5)]
    within = min(float(a @ b) for a in group_a for b in group_a)
    across = max(float(a @ b) for a in group_a for b in group_b)
    assert within > 0.5 > across


def test_run_batch_preserves_order(chat_config, monkeypatch):
    real = gateway.mock_chat_reply

    def slow_reply(model_id, prompt, keywords=gateway.DEFAULT_HW_KEYWORDS):
        # vary completion timing so index alignment is actually exercised
        time.sleep(0.02 if "dram" in prompt else 0.001)
        return real(model_id, prompt, keywords)

    monkeypatch.setattr(gateway, "mock_chat_reply", slow_reply)
    prompts = [f"DESC: {'dram' if i % 3 == 0 else 'web'} item {i}" for i in range(10)]
    items = run_batch(chat_config, prompts, op="complete", sleep=NO_SLEEP)
    assert [it.index for it in items] == list(range(10))
    expected = ["1" if i % 3 == 0 else "0" for i in range(10)]
    assert [it.value.text for it in items] == expected


def test_run_batch_parallelism_bound(monkeypatch):
    config = ProviderConfig(kind="mock-chat", model_id="mock-hwsw", max_parallel=3)
    lock = threading.Lock()
    state = {"active": 0, "peak": 0}
    real = gateway.mock_chat_reply

    def tracking_reply(model_id, prompt, keywords=gateway.DEFAULT_HW_KEYWORDS):
        with lock:
            state["active"] += 1
            state["peak"] = max(state["peak"], state["active"])
        time.sleep(0.01)
        with lock:
            state["active"] -= 1
        return real(model_id, prompt, keywords)

    monkeypatch.setattr(gateway, "mock_chat_reply", tracking_reply)
    run_batch(config, [f"DESC: item {i}" for i in range(12)], op="complete", sleep=NO_SLEEP)
    assert 1 <= state["peak"] <= 3


def test_run_batch_bills_duplicate_inputs_once(tmp_path, monkeypatch):
    # two workers that both miss the cache for one input would both reach
    # the provider; the barrier holds the first caller until a second arrives
    config = ProviderConfig(kind="mock-chat", model_id="mock-hwsw", max_parallel=2)
    cache = ResponseCache(tmp_path / "c.jsonl")
    barrier = threading.Barrier(2)
    calls = []
    real = gateway.mock_chat_reply

    def gated_reply(model_id, prompt, keywords=gateway.DEFAULT_HW_KEYWORDS):
        calls.append(prompt)
        try:
            barrier.wait(timeout=0.5)
        except threading.BrokenBarrierError:
            pass
        return real(model_id, prompt, keywords)

    monkeypatch.setattr(gateway, "mock_chat_reply", gated_reply)
    items = run_batch(config, ["DESC: firmware flaw", "DESC: firmware flaw"], op="complete",
                      cache=cache, sleep=NO_SLEEP)
    cache.close()
    assert calls == ["DESC: firmware flaw"]
    assert [it.index for it in items] == [0, 1]
    assert [it.value.text for it in items] == ["1", "1"]
    assert all(it.error is None for it in items)
    assert len(cache) == 1


def test_run_batch_bills_nfc_equivalent_inputs_once(tmp_path, monkeypatch):
    # the two spellings share one cache key; the barrier holds the first
    # caller until a second reaches the provider, as both would if dispatched
    config = ProviderConfig(kind="mock-chat", model_id="mock-hwsw", max_parallel=2)
    cache = ResponseCache(tmp_path / "c.jsonl")
    barrier = threading.Barrier(2)
    calls = []
    real = gateway.mock_chat_reply

    def gated_reply(model_id, prompt, keywords=gateway.DEFAULT_HW_KEYWORDS):
        calls.append(prompt)
        try:
            barrier.wait(timeout=0.5)
        except threading.BrokenBarrierError:
            pass
        return real(model_id, prompt, keywords)

    monkeypatch.setattr(gateway, "mock_chat_reply", gated_reply)
    nfc, nfd = "DESC: caf\u00e9 firmware", "DESC: cafe\u0301 firmware"
    items = run_batch(config, [nfc, nfd], op="complete", cache=cache, sleep=NO_SLEEP)
    cache.close()
    assert calls == [nfc]
    assert [it.index for it in items] == [0, 1]
    assert [it.value.text for it in items] == ["1", "1"]
    assert len(cache) == 1


def test_run_batch_duplicates_share_the_error(chat_config):
    config = ProviderConfig(kind="mock-chat", model_id="mock-hwsw", retry_limit=0)
    bad = f"DESC: {gateway.TEXT_FAIL_MARKER}"
    items = run_batch(config, [bad, "DESC: ok", bad], op="complete", sleep=NO_SLEEP)
    assert items[0].error is items[2].error and isinstance(items[2].error, ProviderError)
    assert items[1].error is None and items[2].index == 2


def test_run_batch_single_worker_runs_on_calling_thread(monkeypatch):
    config = ProviderConfig(kind="mock-chat", model_id="mock-hwsw", max_parallel=1)
    seen = set()
    real = gateway.mock_chat_reply

    def recording_reply(model_id, prompt, keywords=gateway.DEFAULT_HW_KEYWORDS):
        seen.add(threading.get_ident())
        return real(model_id, prompt, keywords)

    monkeypatch.setattr(gateway, "mock_chat_reply", recording_reply)
    before = threading.active_count()
    items = run_batch(config, [f"DESC: item {i}" for i in range(5)], op="complete", sleep=NO_SLEEP)
    assert seen == {threading.get_ident()}
    assert threading.active_count() == before
    assert [it.value.text for it in items] == ["0"] * 5


def test_run_batch_stress_each_distinct_input_once(tmp_path, monkeypatch):
    # more workers than cores and a short switch interval: a lost update in
    # the shared index iterator or the cache shows as a repeated or missing call
    config = ProviderConfig(kind="mock-chat", model_id="mock-hwsw", max_parallel=8)
    counts: dict[str, int] = {}
    lock = threading.Lock()
    real = gateway.mock_chat_reply

    def counting_reply(model_id, prompt, keywords=gateway.DEFAULT_HW_KEYWORDS):
        with lock:
            counts[prompt] = counts.get(prompt, 0) + 1
        return real(model_id, prompt, keywords)

    monkeypatch.setattr(gateway, "mock_chat_reply", counting_reply)
    prompts = [f"DESC: {'spi' if i % 2 else 'web'} item {i % 100}" for i in range(400)]
    path = tmp_path / "c.jsonl"
    cache = ResponseCache(path)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.perf_counter()
        items = run_batch(config, prompts, op="complete", cache=cache, sleep=NO_SLEEP)
        assert time.perf_counter() - start < 30
    finally:
        sys.setswitchinterval(interval)
        cache.close()
    assert counts == {p: 1 for p in set(prompts)}
    assert [it.index for it in items] == list(range(400))
    assert [it.value.text for it in items] == ["1" if i % 2 else "0" for i in range(400)]
    assert len(path.read_text(encoding="utf-8").splitlines()) == 100
    assert len(ResponseCache(path)) == 100


def test_run_batch_isolates_item_failures(chat_config):
    prompts = ["DESC: one", f"DESC: two {gateway.TEXT_FAIL_MARKER}", "DESC: three"]
    config = ProviderConfig(kind="mock-chat", model_id="mock-hwsw", retry_limit=0)
    items = run_batch(config, prompts, op="complete", sleep=NO_SLEEP)
    assert items[0].error is None and items[2].error is None
    assert isinstance(items[1].error, ProviderError)


def test_zero_retries_flaky_fails_once():
    config = ProviderConfig(kind="mock-chat", model_id="mock-hwsw", retry_limit=0)
    items = run_batch(config, ["DESC: x mock::flaky1"], op="complete", sleep=NO_SLEEP)
    assert isinstance(items[0].error, ProviderError)


def test_retry_recovers_flaky_and_counts_attempts():
    config = ProviderConfig(kind="mock-chat", model_id="mock-hwsw", retry_limit=2)
    slept = []
    result = complete(config, "DESC: y mock::flaky2", sleep=slept.append)
    assert result.text == "0"
    assert result.attempts == 3 <= config.retry_limit + 1
    assert len(slept) == 2 and all(s >= 0 for s in slept)


def test_run_batch_rejects_empty_and_bad_op(chat_config):
    with pytest.raises(ValueError):
        run_batch(chat_config, [], op="complete")
    with pytest.raises(ValueError):
        run_batch(chat_config, ["x"], op="transmogrify")


def test_kind_mismatch(chat_config, embed_config):
    with pytest.raises(ValueError):
        embed(chat_config, "text")
    with pytest.raises(ValueError):
        complete(embed_config, "prompt")


# --- remote providers over a scripted local HTTP server ----------------------

class _Script:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []
        self.lock = threading.Lock()


@contextlib.contextmanager
def _serve(script):
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            body = json.loads(self.rfile.read(length)) if length else {}
            with script.lock:
                script.requests.append({"path": self.path, "body": body,
                                        "auth": self.headers.get("Authorization")})
                status, payload, delay = (script.responses.pop(0)
                                          if script.responses else (500, {}, 0))
            if delay:
                time.sleep(delay)
            data = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/v1"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def _chat_payload(text):
    return {"choices": [{"message": {"role": "assistant", "content": text}}]}


def test_remote_chat_happy_path(monkeypatch):
    script = _Script([(200, _chat_payload("1"), 0)])
    with _serve(script) as url:
        monkeypatch.setenv("LLM_API_KEY", "sekrit")
        config = ProviderConfig(kind="remote-chat", model_id="big-model", endpoint=url,
                                timeout=5.0, retry_limit=0)
        result = complete(config, "DESC: firmware", sleep=NO_SLEEP)
        assert result.text == "1" and result.attempts == 1
        sent = script.requests[0]
        assert sent["auth"] == "Bearer sekrit"
        assert sent["body"]["model"] == "big-model"
        assert sent["body"]["temperature"] == 0.0
        assert sent["body"]["messages"][0]["content"] == "DESC: firmware"


def test_remote_chat_retries_on_429_then_succeeds():
    script = _Script([(429, {}, 0), (429, {}, 0), (200, _chat_payload("0"), 0)])
    with _serve(script) as url:
        config = ProviderConfig(kind="remote-chat", model_id="m", endpoint=url,
                                timeout=5.0, retry_limit=3)
        result = complete(config, "p", backoff_base=0.0, sleep=NO_SLEEP)
        assert result.text == "0" and result.attempts == 3


def test_remote_chat_gives_up_after_retries():
    script = _Script([(503, {}, 0)] * 3)
    with _serve(script) as url:
        config = ProviderConfig(kind="remote-chat", model_id="m", endpoint=url,
                                timeout=5.0, retry_limit=2)
        with pytest.raises(ProviderError) as err:
            complete(config, "p", backoff_base=0.0, sleep=NO_SLEEP)
        assert err.value.status == 503
        assert len(script.requests) == 3


def test_remote_chat_404_is_not_retried():
    script = _Script([(404, {"error": "nope"}, 0)])
    with _serve(script) as url:
        config = ProviderConfig(kind="remote-chat", model_id="m", endpoint=url,
                                timeout=5.0, retry_limit=3)
        with pytest.raises(ProviderError) as err:
            complete(config, "p", backoff_base=0.0, sleep=NO_SLEEP)
        assert err.value.status == 404
        assert len(script.requests) == 1


def test_remote_timeout_becomes_timeout_error():
    script = _Script([(200, _chat_payload("1"), 1.0)] * 2)
    with _serve(script) as url:
        config = ProviderConfig(kind="remote-chat", model_id="m", endpoint=url,
                                timeout=0.2, retry_limit=1)
        with pytest.raises(TimeoutError):
            complete(config, "p", backoff_base=0.0, sleep=NO_SLEEP)


def test_remote_embed_happy_path():
    script = _Script([(200, {"data": [{"embedding": [0.1, 0.2, 0.3]}]}, 0)])
    with _serve(script) as url:
        config = ProviderConfig(kind="remote-embed", model_id="small-embedder",
                                endpoint=url, timeout=5.0, retry_limit=0)
        vec = embed(config, "hello", sleep=NO_SLEEP)
        assert vec.dim == 3
        assert vec.values.tolist() == [0.1, 0.2, 0.3]
        assert script.requests[0]["body"] == {"model": "small-embedder", "input": "hello"}


def test_remote_embed_records_provider_dimension():
    # dimension comes from the provider's response, e.g. a 3072-wide model
    values = [float(i) / 3072 for i in range(3072)]
    script = _Script([(200, {"data": [{"embedding": values}]}, 0)])
    with _serve(script) as url:
        config = ProviderConfig(kind="remote-embed", model_id="text-embedding-3-large",
                                endpoint=url, timeout=5.0, retry_limit=0)
        vec = embed(config, "hello", sleep=NO_SLEEP)
        assert vec.dim == 3072
        assert vec.model_id == "text-embedding-3-large"


def test_remote_malformed_response():
    script = _Script([(200, {"nonsense": True}, 0)])
    with _serve(script) as url:
        config = ProviderConfig(kind="remote-chat", model_id="m", endpoint=url,
                                timeout=5.0, retry_limit=0)
        with pytest.raises(ProviderError):
            complete(config, "p", sleep=NO_SLEEP)

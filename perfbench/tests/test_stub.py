import json
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import requests

import corpus_gen
from cveminer.pipeline import PipelineConfig, run_pipeline
from stub import CHAT_PATH, EMBED_PATH, ProviderStub

CHAT_MODEL, EMBED_MODEL = "mock-hwsw", "mock-embed-64"


def run(tmp_path: Path, name: str, chat: dict, embed: dict) -> Path:
    out = tmp_path / name
    run_pipeline(PipelineConfig.from_dict({
        "seed": 3, "corpus": {"paths": [str(tmp_path / "corpus.jsonl")]},
        "providers": {"chat": {"model_id": CHAT_MODEL, "max_parallel": 4, **chat},
                      "embed": {"model_id": EMBED_MODEL, "max_parallel": 4, **embed}},
        "output_dir": str(out), "cache_path": str(tmp_path / f"{name}.cache.jsonl")}))
    return out


def tree(outdir: Path) -> dict[str, bytes]:
    return {str(p.relative_to(outdir)): p.read_bytes()
            for p in sorted(outdir.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def test_remote_against_stub_matches_mock_byte_for_byte(tmp_path, monkeypatch):
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    generated = corpus_gen.generate(7, 300, 0.10)
    (tmp_path / "corpus.jsonl").write_bytes(generated.data)

    mock = run(tmp_path, "mock", {"kind": "mock-chat"}, {"kind": "mock-embed"})
    with ProviderStub(delay_s=0.001, max_parallel=2) as stub:
        remote = run(tmp_path, "remote",
                     {"kind": "remote-chat", "endpoint": stub.url(CHAT_PATH)},
                     {"kind": "remote-embed", "endpoint": stub.url(EMBED_PATH)})
        stats = stub.take_stats()

    assert tree(remote) == tree(mock)
    assert json.loads((remote / "manifest.json").read_text())["stages"][1]["counts"]["hardware"] == 30
    # one request per billed call: every call is a cache entry
    cache_lines = (tmp_path / "remote.cache.jsonl").read_text().splitlines()
    assert stats.requests == len(cache_lines) > 330
    assert 1 <= stats.max_inflight <= 4  # the client runs 4 threads
    assert stats.bytes_in > 0 and stats.bytes_out > 0
    assert 0.0 <= stats.idle_s < stats.last_end - stats.first_start


def test_requests_beyond_max_parallel_wait_for_a_slot():
    with ProviderStub(delay_s=0.05, max_parallel=1) as stub:
        def post(_):
            return requests.post(stub.url(CHAT_PATH), timeout=5, json={
                "model": CHAT_MODEL, "messages": [{"role": "user", "content": "DESC: cpu"}]})

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=4) as pool:
            replies = list(pool.map(post, range(4)))
        elapsed = time.perf_counter() - start
        stats = stub.take_stats()
    assert [r.json()["choices"][0]["message"]["content"] for r in replies] == ["1"] * 4
    assert elapsed >= 4 * 0.05
    assert stats.requests == 4 and stats.max_inflight == 4


def test_bad_requests_get_error_replies():
    with ProviderStub(delay_s=0.0, max_parallel=1) as stub:
        assert requests.post(stub.url("/v1/other"), json={}, timeout=5).status_code == 404
        assert requests.post(stub.url(CHAT_PATH), json={"model": CHAT_MODEL},
                             timeout=5).status_code == 500
        assert stub.take_stats().requests == 2

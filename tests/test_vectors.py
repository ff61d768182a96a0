import base64
import json
import struct

import numpy as np
import pytest

from cveminer import gateway, vectors
from cveminer.corpus import CveRecord
from cveminer.errors import CveMinerError, ProviderError
from cveminer.gateway import ProviderConfig, ResponseCache, decode_f64, encode_f64
from cveminer.vectors import (EmbeddingMatrix, dump_matrix, embed_corpus, load_matrix,
                              normalize_matrix)


def test_vector_invariants(embed_config):
    with pytest.raises(ValueError):
        EmbeddingMatrix(ids=["a"], rows=np.array([[1.0, np.inf]]), dim=2, model_id="m")
    v = gateway.embed(embed_config, "some text")
    with pytest.raises(ValueError):
        v[0] = 5.0  # frozen storage


def test_matrix_invariants():
    rows = np.ones((2, 3))
    with pytest.raises(ValueError):
        EmbeddingMatrix(ids=["a", "a"], rows=rows, dim=3, model_id="m")
    with pytest.raises(CveMinerError, match=r"does not match 2 ids x dim 4"):
        EmbeddingMatrix(ids=["a", "b"], rows=rows, dim=4, model_id="m")


def test_matrix_round_trip_bit_exact():
    rng = np.random.default_rng(9)
    matrix = EmbeddingMatrix(
        ids=[f"CVE-2021-{1000+i}" for i in range(7)],
        rows=rng.normal(size=(7, 12)) * np.exp(rng.normal(size=(7, 12)) * 4),
        dim=12, model_id="text-embedding-3-large", normalized=False)
    again = load_matrix(dump_matrix(matrix))
    assert again.ids == matrix.ids
    assert again.rows.tobytes() == matrix.rows.tobytes()
    assert (again.dim, again.model_id, again.normalized) == (12, matrix.model_id, False)


def test_f64_codec_bit_exact_and_read_only():
    values = np.array([0.0, -0.0, 5e-324, -1.7976931348623157e308, 0.1, 1 / 3])
    text = encode_f64(values)
    assert text == base64.b64encode(struct.pack("<6d", *values.tolist())).decode("ascii")
    again = decode_f64(text)
    assert again.dtype == np.float64 and again.tobytes() == values.tobytes()
    assert not again.flags.writeable
    with pytest.raises(ValueError):
        decode_f64(text[:-4])  # not a whole number of float64s
    with pytest.raises(ValueError):
        decode_f64("not base64!")


def test_dump_matrix_rows_are_id_and_f64():
    ids = ["CVE-2021-1000", 'odd "id"\u2028\\']
    rows = np.array([[1.0, 2.0], [3.0, -0.5]])
    matrix = EmbeddingMatrix(ids=ids, rows=rows, dim=2, model_id="m")
    data = dump_matrix(matrix)
    header, body = data.split(b"\n", 1)
    assert json.loads(header) == {"dim": 2, "model": "m", "normalized": False, "ids": ids}
    assert (len(header) + 1) % 8 == 0  # the rows start aligned
    assert body == struct.pack("<4d", 1.0, 2.0, 3.0, -0.5)
    assert load_matrix(data).ids == ids


def test_load_matrix_dim_mismatch():
    data = (b'{"dim": 3, "model": "m", "normalized": false, "ids": ["a"]}\n'
            + struct.pack("<2d", 1.0, 2.0))
    with pytest.raises(CveMinerError, match="matrix body holds 16 bytes, expected 24 for 1 rows x dim 3"):
        load_matrix(data)


def test_load_matrix_is_bit_exact_and_read_only():
    values = [0.0, -0.0, 5e-324, -2.5e-310, 1.7976931348623157e308, 0.1, 1 / 3, -7.0]
    matrix = EmbeddingMatrix(ids=["a", "b"], rows=np.array(values).reshape(2, 4), dim=4,
                             model_id="m", normalized=True)
    data = dump_matrix(matrix)
    again = load_matrix(data)
    assert again.rows.tobytes() == matrix.rows.tobytes()
    assert (again.ids, again.dim, again.model_id, again.normalized) == (["a", "b"], 4, "m", True)
    assert not again.rows.flags.writeable and again.rows.flags.aligned
    for cut in (1, 8, 31):  # a body cut short, in a row or at a row's end
        with pytest.raises(CveMinerError, match="matrix body holds"):
            load_matrix(data[:-cut])
    with pytest.raises(CveMinerError, match="matrix body holds"):
        load_matrix(data + b"\0")


def test_normalize_matrix():
    matrix = EmbeddingMatrix(ids=["a", "b"], rows=np.array([[3.0, 4.0], [0.5, 0.0]]),
                             dim=2, model_id="m")
    unit = normalize_matrix(matrix)
    assert unit.normalized is True
    assert np.allclose(np.linalg.norm(unit.rows, axis=1), 1.0, atol=1e-12)
    with pytest.raises(CveMinerError, match="matrix contains a zero row"):
        normalize_matrix(EmbeddingMatrix(ids=["a"], rows=np.zeros((1, 2)), dim=2, model_id="m"))


def _records(n):
    return [CveRecord(f"CVE-2021-{1000+i}", f"record body {i}", 2021, "t") for i in range(n)]


def test_embed_corpus_shape_and_order(embed_config):
    records = _records(5)
    matrix = embed_corpus(embed_config, records)
    assert (len(matrix), matrix.dim) == (5, 64)
    assert matrix.ids == [r.id for r in records]
    assert matrix.model_id == "mock-embed-64"


def test_embed_corpus_empty():
    with pytest.raises(ValueError):
        embed_corpus(ProviderConfig(kind="mock-embed", model_id="m-64"), [])


def test_embed_corpus_abort_then_cache_resume(tmp_path, monkeypatch, failing_inputs):
    config = ProviderConfig(kind="mock-embed", model_id="mock-embed-64",
                            retry_limit=0, max_parallel=1)
    cache = ResponseCache(tmp_path / "c.jsonl")
    records = _records(5)
    failing_inputs(records[2].description, times=1)

    with pytest.raises(ProviderError) as err:
        embed_corpus(config, records, cache=cache)
    assert str(err.value).endswith(f"1 embeddings failed (4 completed and cached): {records[2].id}; "
                                   "the first with provider error (status=503): injected failure 1")

    calls = []
    real = gateway.mock_embed_vector

    def counting(model_id, text):
        calls.append(text)
        return real(model_id, text)

    monkeypatch.setattr(gateway, "mock_embed_vector", counting)
    matrix = embed_corpus(config, records, cache=cache)
    assert len(matrix) == 5
    # only the previously failed row hit the provider; the rest came from cache
    assert calls == [records[2].description]
    cache.close()


def test_embed_corpus_dim_consistency(monkeypatch):
    config = ProviderConfig(kind="mock-embed", model_id="mock-embed-64", max_parallel=1)
    real = gateway.mock_embed_vector

    def ragged(model_id, text):
        out = real(model_id, text)
        return out[:32] if text.endswith("3") else out

    monkeypatch.setattr(gateway, "mock_embed_vector", ragged)
    with pytest.raises(CveMinerError, match="has dim 32, expected 64"):
        embed_corpus(config, _records(4))


def test_embed_corpus_rejects_non_finite_cache_line(tmp_path, monkeypatch):
    # a vector with a NaN, cached as earlier versions could write it, is asked for again
    config = ProviderConfig(kind="mock-embed", model_id="mock-embed-2", max_parallel=1)
    records = _records(2)
    path = tmp_path / "c.jsonl"
    lines = [{"key": gateway.cache_key("embed", config.model_id, record.description),
              "kind": "embed", "model": config.model_id, "f64": encode_f64(vector),
              "created_at": "2024-01-01T00:00:00+00:00"}
             for record, vector in zip(records, [np.array([0.6, 0.8]), np.array([0.5, np.nan])])]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    calls = []
    real = gateway.mock_embed_vector
    monkeypatch.setattr(gateway, "mock_embed_vector",
                        lambda model_id, text: calls.append(text) or real(model_id, text))
    cache = ResponseCache(path)
    try:
        matrix = embed_corpus(config, records, cache=cache)
    finally:
        cache.close()
    assert cache.skipped_lines == 1
    assert calls == [records[1].description]
    assert np.isfinite(matrix.rows).all() and matrix.rows[0].tolist() == [0.6, 0.8]
    reloaded = ResponseCache(path)  # the new answer was appended after the bad line
    assert reloaded.get(lines[1]["key"]).tobytes() == matrix.rows[1].tobytes()

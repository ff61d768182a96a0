import base64
import json
import struct

import numpy as np
import pytest

from cveminer import gateway, vectors
from cveminer.corpus import make_record
from cveminer.errors import DimensionError, ZeroVectorError
from cveminer.gateway import ProviderConfig, ResponseCache
from cveminer.vectors import (EmbedAborted, EmbeddingMatrix, EmbeddingVector,
                              decode_f64, dump_matrix, embed_corpus, encode_f64,
                              load_matrix, normalize_matrix)

NO_SLEEP = lambda s: None  # noqa: E731


def vec(*values, model="m"):
    arr = np.array(values, dtype=np.float64)
    return EmbeddingVector(arr, len(arr), model)


def test_vector_invariants():
    with pytest.raises(DimensionError):
        EmbeddingVector(np.array([1.0, 2.0]), 3, "m")
    with pytest.raises(ValueError):
        EmbeddingVector(np.array([1.0, np.inf]), 2, "m")
    v = vec(1.0, 2.0)
    with pytest.raises(ValueError):
        v.values[0] = 5.0  # frozen storage


def test_matrix_invariants():
    rows = np.ones((2, 3))
    with pytest.raises(ValueError):
        EmbeddingMatrix(ids=["a", "a"], rows=rows, dim=3, model_id="m")
    with pytest.raises(DimensionError):
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
    header, *lines = dump_matrix(matrix).decode("utf-8").split("\n")[:-1]
    assert json.loads(header) == {"dim": 2, "model": "m", "normalized": False}
    assert lines == [json.dumps({"id": i, "f64": encode_f64(r)}) for i, r in zip(ids, rows)]
    assert load_matrix(dump_matrix(matrix)).ids == ids


def test_load_matrix_dim_mismatch():
    row = json.dumps({"id": "a", "f64": encode_f64(np.array([1.0, 2.0]))})
    data = b'{"dim": 3, "model": "m", "normalized": false}\n' + row.encode("ascii") + b"\n"
    with pytest.raises(DimensionError):
        load_matrix(data)


def test_normalize_matrix():
    matrix = EmbeddingMatrix(ids=["a", "b"], rows=np.array([[3.0, 4.0], [0.5, 0.0]]),
                             dim=2, model_id="m")
    unit = normalize_matrix(matrix)
    assert unit.normalized is True
    assert np.allclose(np.linalg.norm(unit.rows, axis=1), 1.0, atol=1e-12)
    with pytest.raises(ZeroVectorError):
        normalize_matrix(EmbeddingMatrix(ids=["a"], rows=np.zeros((1, 2)), dim=2, model_id="m"))


def _records(n):
    return [make_record(f"CVE-2021-{1000+i}", f"record body {i}", "t") for i in range(n)]


def test_embed_corpus_shape_and_order(embed_config):
    records = _records(5)
    matrix = embed_corpus(embed_config, records)
    assert (len(matrix), matrix.dim) == (5, 64)
    assert matrix.ids == [r.id for r in records]
    assert matrix.model_id == "mock-embed-64"


def test_embed_corpus_empty():
    with pytest.raises(ValueError):
        embed_corpus(ProviderConfig(kind="mock-embed", model_id="m-64"), [])


def test_embed_corpus_abort_then_cache_resume(tmp_path, monkeypatch):
    config = ProviderConfig(kind="mock-embed", model_id="mock-embed-64",
                            retry_limit=0, max_parallel=1)
    cache = ResponseCache(tmp_path / "c.jsonl")
    records = _records(5)
    flaky = records[2]
    records[2] = make_record(flaky.id, flaky.description + " mock::flaky1", "t")

    with pytest.raises(EmbedAborted) as err:
        embed_corpus(config, records, cache=cache)
    assert err.value.completed == 4
    assert [f.id for f in err.value.failures] == [records[2].id]

    calls = []
    real = gateway.mock_embed_vector

    def counting(model_id, text, keywords=gateway.DEFAULT_HW_KEYWORDS):
        calls.append(text)
        return real(model_id, text, keywords)

    monkeypatch.setattr(gateway, "mock_embed_vector", counting)
    matrix = embed_corpus(config, records, cache=cache)
    assert len(matrix) == 5
    # only the previously failed row hit the provider; the rest came from cache
    assert calls == [records[2].description]
    cache.close()


def test_embed_corpus_dim_consistency(monkeypatch):
    config = ProviderConfig(kind="mock-embed", model_id="mock-embed-64", max_parallel=1)
    real = gateway.mock_embed_vector

    def ragged(model_id, text, keywords=gateway.DEFAULT_HW_KEYWORDS):
        out = real(model_id, text, keywords)
        return out[:32] if text.endswith("3") else out

    monkeypatch.setattr(gateway, "mock_embed_vector", ragged)
    with pytest.raises(DimensionError):
        embed_corpus(config, _records(4))

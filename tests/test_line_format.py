"""Every hand-built jsonl line and prompt equals the json.dumps form it replaced.

The oracles below are the json.dumps expressions the writers used before
they built their lines with json.encoder.encode_basestring; any byte of
difference would change artifacts, or re-bill cached calls through the
prompt digest.
"""

import json

import numpy as np
import pytest

from cveminer import classifier, corpus
from cveminer.gateway import ResponseCache, encode_f64

_RAW_LINE_BREAKS = str.maketrans({"\x85": "\\u0085", "\u2028": "\\u2028", "\u2029": "\\u2029"})

ADVERSARIAL = [
    "",
    "plain text",
    '"quoted" and \\back\\slashed\\',
    "".join(chr(c) for c in range(0x20)) + "\x7f",
    "line\x85next\u2028sep\u2029para",
    "emoji \U0001F600 and \U0001D518 outside the BMP",
    "e\u0301 a\u0308 combining marks, and a lone \u0301",
    "non-ASCII: \xe9 \xdf \u4e2d\u6587 \xa0 \ufeff",
]


def _records_oracle(records):
    lines = [json.dumps({"id": r.id, "description": r.description, "source": r.source},
                        ensure_ascii=False).translate(_RAW_LINE_BREAKS)
             for r in records]
    return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")


def _prompt_oracle(template, record):
    payload = json.dumps({"id": record.id, "description": record.description},
                         ensure_ascii=False)
    return f"{template}\nThe following is CVE information:\nDESC: {payload}"


def _predictions_oracle(predictions):
    lines = [json.dumps({"id": p.id, "label": p.label, "raw": p.raw_output, "model": p.model_id},
                        ensure_ascii=False).translate(_RAW_LINE_BREAKS)
             for p in predictions]
    return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")


@pytest.mark.parametrize("text", ADVERSARIAL)
def test_dump_records_equals_json_dumps(text):
    records = [corpus.CveRecord(id=text, description=text, year=2021, source=text),
               corpus.CveRecord(id="CVE-2021-0001", description=text or "x", year=2021)]
    assert corpus.dump_records(records) == _records_oracle(records)


def test_dump_records_of_nothing_is_empty():
    assert corpus.dump_records([]) == _records_oracle([]) == b""


@pytest.mark.parametrize("text", ADVERSARIAL)
def test_hwsw_prompt_equals_json_dumps(text):
    template = classifier.load_template("hwsw")
    record = corpus.CveRecord(id=text, description=text, year=2021)
    assert classifier.build_hwsw_prompt(template, record) == _prompt_oracle(template, record)


def test_dump_predictions_equals_json_dumps():
    predictions = [classifier.Prediction(text, i % 2, text, text[::-1])
                   for i, text in enumerate(ADVERSARIAL)]
    predictions += [classifier.Prediction("CVE-2021-0002", 0, "0", "mock-hwsw")] * 3
    data = classifier.dump_predictions(predictions)
    assert data == _predictions_oracle(predictions)
    assert [json.loads(line) for line in data.decode("utf-8").splitlines()] == [
        {"id": p.id, "label": p.label, "raw": p.raw_output, "model": p.model_id}
        for p in predictions]
    assert classifier.dump_predictions([]) == b""


@pytest.mark.parametrize("value", [
    *ADVERSARIAL,
    [0.1, -2.5e-300, 1e308, 0.0],
    np.array([0.1, -0.0, 1 / 3, np.nextafter(1.0, 2.0)]),
], ids=lambda v: type(v).__name__)
def test_cache_line_equals_json_dumps(tmp_path, value):
    path = tmp_path / "cache.jsonl"
    kind = "chat" if isinstance(value, str) else "embed"
    cache = ResponseCache(path)
    cache.put("k\u2028\"ey", kind, "model \U0001F600", value)
    cache.close()
    line = path.read_text(encoding="utf-8")
    assert line.endswith("\n") and line.count("\n") == 1
    doc = json.loads(line)
    stored = {"value": value} if isinstance(value, str) else {"f64": encode_f64(value)}
    expected = {"key": "k\u2028\"ey", "kind": kind, "model": "model \U0001F600", **stored,
                "created_at": doc["created_at"]}
    assert list(doc.items()) == list(expected.items())
    assert line == json.dumps(expected, ensure_ascii=False) + "\n"
    reloaded = ResponseCache(path).get("k\u2028\"ey")
    if isinstance(value, str):
        assert reloaded == value
    else:
        assert reloaded.tobytes() == np.asarray(value, dtype=np.float64).tobytes()

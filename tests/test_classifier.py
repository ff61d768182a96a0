import hashlib
import json
import random

import pytest

from cveminer import classifier, corpus, gateway
from cveminer.classifier import (Prediction, ValidationReport, build_hwsw_prompt,
                                 classify_corpus, evaluate, hardware_subset,
                                 load_template, parse_label)
from cveminer.errors import (DuplicatePrediction, MissingPrediction,
                             UnparseableLabel)

NO_SLEEP = lambda s: None  # noqa: E731


@pytest.fixture
def hwsw():
    return load_template("hwsw")


def test_bundled_template_wording(hwsw):
    assert hwsw.system_text.startswith("You are a cybersecurity expert.")
    assert "If it is a hardware vulnerability, returns 1." in hwsw.system_text
    assert "If it is a software vulnerability, returns 0." in hwsw.system_text
    assert "Don't explain the results. Just return the values." in hwsw.system_text


def test_prompt_layout(hwsw):
    record = corpus.make_record("CVE-2021-0091", "some flaw", "t")
    prompt = build_hwsw_prompt(hwsw, record)
    assert "The following is CVE information:" in prompt
    assert prompt.index(hwsw.system_text) < prompt.index("The following is CVE information:")
    assert prompt.splitlines()[-1].startswith("DESC: ")


def test_prompt_deterministic(hwsw):
    record = corpus.make_record("CVE-2021-0001", "x", "t")
    assert build_hwsw_prompt(hwsw, record) == build_hwsw_prompt(hwsw, record)


def test_prompt_payload_survives_quotes_and_newlines(hwsw):
    record = corpus.make_record("CVE-2021-0001", 'line one\nwith "quotes" and \\slashes', "t")
    prompt = build_hwsw_prompt(hwsw, record)
    desc_line = [ln for ln in prompt.splitlines() if ln.startswith("DESC: ")]
    assert len(desc_line) == 1
    payload = json.loads(desc_line[0][len("DESC: "):])
    assert payload == {"id": record.id, "description": record.description}


def test_wrong_template_rejected(hwsw):
    summarize = load_template("summarize")
    record = corpus.make_record("CVE-2021-0001", "x", "t")
    with pytest.raises(ValueError):
        build_hwsw_prompt(summarize, record)


def test_template_path_override(tmp_path):
    path = tmp_path / "alt.txt"
    path.write_text("Alternate instructions.\n")
    template = load_template("hwsw", path)
    assert template.system_text == "Alternate instructions."


@pytest.mark.parametrize("raw,expected", [
    ("1", 1),
    (" 0\n", 0),
    ("Result: 1", 1),
    ("label=0.", 0),
    ("the answer is\n1", 1),
])
def test_parse_label_lenient(raw, expected):
    assert parse_label(raw) == expected


@pytest.mark.parametrize("raw", ["", "yes", "hardware", "10", "2", "zero one"])
def test_parse_label_failures(raw):
    with pytest.raises(UnparseableLabel):
        parse_label(raw)


def test_parse_label_never_outside_binary():
    rng = random.Random(7)
    alphabet = "01 abxyz.\n:"
    for _ in range(500):
        raw = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
        try:
            assert parse_label(raw) in (0, 1)
        except UnparseableLabel:
            pass


def test_classify_mini_corpus_matches_keyword_oracle(mini_records, chat_config, hwsw):
    predictions, failures = classify_corpus(chat_config, hwsw, mini_records, sleep=NO_SLEEP)
    assert failures == []
    assert len(predictions) + len(failures) == len(mini_records)
    # independent oracle: scan each description for the mock keyword list
    expected_hw = {r.id for r in mini_records
                   if any(k in r.description.lower() for k in gateway.DEFAULT_HW_KEYWORDS)}
    predicted_hw = {p.id for p in predictions if p.label == 1}
    assert predicted_hw == expected_hw
    assert len(predicted_hw) == 24
    subset = hardware_subset(mini_records, predictions)
    assert [r.id for r in subset] == [r.id for r in mini_records if r.id in expected_hw]


def test_classify_all_failing_provider(mini_records, hwsw):
    config = gateway.ProviderConfig(kind="mock-chat", model_id="mock-fail-hwsw", retry_limit=0)
    predictions, failures = classify_corpus(config, hwsw, mini_records, sleep=NO_SLEEP)
    assert predictions == []
    assert len(failures) == len(mini_records)


def test_classify_unparseable_goes_to_failures(mini_records, hwsw, monkeypatch):
    monkeypatch.setattr(gateway, "mock_chat_reply", lambda *a, **k: "cannot say")
    config = gateway.ProviderConfig(kind="mock-chat", model_id="mock-hwsw", retry_limit=0)
    predictions, failures = classify_corpus(config, hwsw, mini_records[:3], sleep=NO_SLEEP)
    assert predictions == []
    assert all("unparseable" in reason for _, reason in failures)


def test_classify_requires_records(chat_config, hwsw):
    with pytest.raises(ValueError):
        classify_corpus(chat_config, hwsw, [])


def _mk_labeled(n_hw, n_sw):
    labeled = []
    for i in range(n_hw):
        rec = corpus.make_record(f"CVE-2021-{1000+i}", "hw", "t")
        labeled.append(corpus.LabeledCve(rec, 1))
    for i in range(n_sw):
        rec = corpus.make_record(f"CVE-2022-{1000+i}", "sw", "t")
        labeled.append(corpus.LabeledCve(rec, 0))
    return labeled


def _mk_predictions(labeled, flip_ids=()):
    preds = []
    for lc in labeled:
        label = lc.label if lc.record.id not in flip_ids else 1 - lc.label
        preds.append(Prediction(lc.record.id, label, str(label), "m"))
    return preds


def test_evaluate_headline_split():
    labeled = _mk_labeled(100, 100)
    flip = {labeled[150].record.id}  # one software record predicted hardware
    report = evaluate(_mk_predictions(labeled, flip), labeled)
    assert (report.tp, report.tn, report.fp, report.fn) == (100, 99, 1, 0)
    assert report.n == 200
    assert abs(report.accuracy - 0.995) < 1e-12
    assert report.accuracy == 0.995


def test_evaluate_perfect_and_symmetric():
    labeled = _mk_labeled(100, 100)
    assert evaluate(_mk_predictions(labeled), labeled).accuracy == 1.0
    report = ValidationReport.from_counts(tp=50, tn=50, fp=50, fn=50)
    assert report.accuracy == 0.5 and report.n == 200


def test_evaluate_permutation_invariant():
    labeled = _mk_labeled(10, 10)
    preds = _mk_predictions(labeled, flip_ids={labeled[0].record.id})
    base = evaluate(preds, labeled)
    rng = random.Random(3)
    for _ in range(5):
        p2, l2 = preds[:], labeled[:]
        rng.shuffle(p2)
        rng.shuffle(l2)
        assert evaluate(p2, l2) == base


def test_evaluate_missing_and_duplicate():
    labeled = _mk_labeled(2, 0)
    preds = _mk_predictions(labeled)
    with pytest.raises(MissingPrediction):
        evaluate(preds[:1], labeled)
    with pytest.raises(DuplicatePrediction):
        evaluate(preds + preds[:1], labeled)


def test_counts_identity_from_counts():
    report = ValidationReport.from_counts(tp=3, tn=4, fp=2, fn=1)
    assert report.tp + report.tn + report.fp + report.fn == report.n
    assert report.accuracy == (report.tp + report.tn) / report.n


def _parsed_lines(data: bytes) -> list[dict]:
    # splitlines, as a line reader would: a raw U+2028 in a value would split its line
    return [json.loads(line) for line in data.decode("utf-8").splitlines()]


def _fields(predictions: list[Prediction]) -> list[dict]:
    return [{"id": p.id, "label": p.label, "raw": p.raw_output, "model": p.model_id}
            for p in predictions]


def test_predictions_round_trip():
    preds = [Prediction("CVE-2021-0001", 1, "1", "m"),
             Prediction("CVE-2021-0002", 0, "Result: 0", "m")]
    assert _parsed_lines(classifier.dump_predictions(preds)) == _fields(preds)


def test_predictions_round_trip_raw_line_separators():
    preds = [Prediction("CVE-2021-0001", 1, f"1{sep}yes", "m")
             for sep in ("\x85", "\u2028", "\u2029")]
    data = classifier.dump_predictions(preds)
    assert data.count(b"\n") == len(preds)
    assert _parsed_lines(data) == _fields(preds)


# Pinned at a release whose prompts and records.jsonl were written with
# json.dumps: a change to either rendering re-bills every cached
# classification, so it must fail here first.
MINI_PROMPT_KEYS_SHA256 = "d050f185df9645f6bedf4b194dbe6aa9b8698b9b599eb8d6d6762f519a569c46"
MINI_RECORDS_SHA256 = "85db535569a7670f16130ecb514b7aba10359703b4d0cf1f7442237a019bade1"


def test_prompt_cache_keys_and_records_are_pinned(mini_records, hwsw):
    keys = [gateway.cache_key("chat", "mock-hwsw", build_hwsw_prompt(hwsw, r))
            for r in mini_records]
    assert hashlib.sha256("\n".join(keys).encode("utf-8")).hexdigest() == MINI_PROMPT_KEYS_SHA256
    assert hashlib.sha256(corpus.dump_records(mini_records)).hexdigest() == MINI_RECORDS_SHA256

"""Binary hardware/software classification of CVE records via a chat provider.

The classification prompt is a bundled text asset; the record payload is
appended as one serialized ``{id, description}`` object on a ``DESC:``
line, so descriptions with quotes or newlines stay a single well-formed
entry.  Model outputs are parsed leniently but never guessed: an output
with no recognizable 0/1 token is routed to the failure queue for human
review instead of defaulting.

The prompt payload and the ``dump_predictions`` lines are built with
``json.encoder.encode_basestring``, the function ``json.dumps(...,
ensure_ascii=False)`` itself calls for every string, so their bytes equal
``json.dumps`` of the same objects.  Cache keys hash the prompt, so a prompt
that changed by one byte would bill every record again.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from json.encoder import encode_basestring as _json_str

from . import gateway
from .assets import asset_text
from .corpus import CveRecord, LabeledCve, _escape_line_breaks
from .errors import DuplicatePrediction, MissingPrediction, UnparseableLabel

HARDWARE = 1
SOFTWARE = 0

_TEMPLATE_ASSETS = {"hwsw": "hwsw_prompt.txt", "summarize": "summarize_prompt.txt"}

# A 0/1 that is not part of a longer number or word.
_STANDALONE_BIT = re.compile(r"(?<![0-9A-Za-z])([01])(?![0-9A-Za-z])")


@dataclass(frozen=True)
class PromptTemplate:
    name: str
    system_text: str


@dataclass(frozen=True)
class Prediction:
    """Classification outcome for one record."""

    id: str
    label: int
    raw_output: str
    model_id: str
    cached: bool = False


@dataclass(frozen=True)
class ValidationReport:
    """Confusion counts with hardware as the positive class."""

    tp: int
    tn: int
    fp: int
    fn: int
    n: int
    accuracy: float

    @classmethod
    def from_counts(cls, tp: int, tn: int, fp: int, fn: int) -> "ValidationReport":
        n = tp + tn + fp + fn
        accuracy = (tp + tn) / n if n else 0.0
        return cls(tp=tp, tn=tn, fp=fp, fn=fn, n=n, accuracy=accuracy)


def load_template(name: str, path=None) -> PromptTemplate:
    """Load the bundled default for `name`, or the file at `path` instead."""
    if name not in _TEMPLATE_ASSETS:
        raise ValueError(f"unknown template {name!r}")
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = asset_text(_TEMPLATE_ASSETS[name])
    return PromptTemplate(name=name, system_text=text.rstrip("\n"))


def build_hwsw_prompt(template: PromptTemplate, record: CveRecord) -> str:
    """Render the classification prompt for one record (deterministic)."""
    if template.name != "hwsw":
        raise ValueError(f"expected the hwsw template, got {template.name!r}")
    return (f"{template.system_text}\nThe following is CVE information:\n"
            f'DESC: {{"id": {_json_str(record.id)}, "description": {_json_str(record.description)}}}')


def parse_label(raw: str) -> int:
    """Extract the binary label from raw model output.

    Exact "0"/"1" after whitespace stripping wins; otherwise the first
    standalone 0/1 token anywhere in the text.  Anything else raises
    UnparseableLabel so the record can be queued for review.
    """
    if not raw:
        raise UnparseableLabel(raw)
    stripped = raw.strip()
    if stripped in ("0", "1"):
        return int(stripped)
    m = _STANDALONE_BIT.search(raw)
    if m is None:
        raise UnparseableLabel(raw)
    return int(m.group(1))


def classify_corpus(config: gateway.ProviderConfig, template: PromptTemplate,
                    records: list[CveRecord], cache=None,
                    backoff_base: float = gateway.BACKOFF_BASE_S,
                    sleep=time.sleep) -> tuple[list[Prediction], list[tuple[str, str]]]:
    """Classify every record; failures are enumerated, never guessed.

    Returns (predictions, failures) with len(predictions) + len(failures)
    equal to len(records).  Predictions keep record order.
    """
    if not records:
        raise ValueError("classify_corpus needs at least one record")
    prompts = [build_hwsw_prompt(template, r) for r in records]
    items = gateway.run_batch(config, prompts, op="complete", cache=cache,
                              backoff_base=backoff_base, sleep=sleep)
    predictions: list[Prediction] = []
    failures: list[tuple[str, str]] = []
    for record, item in zip(records, items):
        if item.error is not None:
            failures.append((record.id, str(item.error)))
            continue
        result = item.value
        try:
            label = parse_label(result.text)
        except UnparseableLabel:
            failures.append((record.id, f"unparseable label: {result.text!r}"))
            continue
        predictions.append(Prediction(record.id, label, result.text,
                                      result.model_id, result.cached))
    return predictions, failures


def hardware_subset(records: list[CveRecord], predictions: list[Prediction]) -> list[CveRecord]:
    """Records predicted hardware (label 1), in original record order."""
    positive = {p.id for p in predictions if p.label == HARDWARE}
    return [r for r in records if r.id in positive]


def evaluate(predictions: list[Prediction], labels: list[LabeledCve]) -> ValidationReport:
    """Confusion counts against ground truth, hardware = positive class."""
    by_id: dict[str, list[Prediction]] = {}
    for p in predictions:
        by_id.setdefault(p.id, []).append(p)
    tp = tn = fp = fn = 0
    for labeled in labels:
        cve_id = labeled.record.id
        matched = by_id.get(cve_id, [])
        if not matched:
            raise MissingPrediction(cve_id)
        if len(matched) > 1:
            raise DuplicatePrediction(cve_id)
        predicted = matched[0].label
        if labeled.label == HARDWARE:
            tp += predicted == HARDWARE
            fn += predicted == SOFTWARE
        else:
            tn += predicted == SOFTWARE
            fp += predicted == HARDWARE
    return ValidationReport.from_counts(tp=tp, tn=tn, fp=fp, fn=fn)


def dump_predictions(predictions: list[Prediction]) -> bytes:
    """One ``{id, label, raw, model}`` line per prediction, line breaks escaped
    as in ``corpus.dump_records``."""
    # raw outputs and model ids take a handful of values; encode each once
    distinct = {p.raw_output for p in predictions} | {p.model_id for p in predictions}
    encoded = {t: _json_str(t) for t in distinct}
    text = "".join([f'{{"id": {_json_str(p.id)}, "label": {p.label}, "raw": {encoded[p.raw_output]}, '
                    f'"model": {encoded[p.model_id]}}}\n' for p in predictions])
    return _escape_line_breaks(text).encode("utf-8")


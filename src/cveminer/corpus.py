"""CVE record parsing, validation, filtering, and counting.

Two ingestion formats are supported:

* ``canonical-jsonl``: one JSON object per line with fields ``id``,
  ``description`` and optional ``source``.
* ``nvd-feed``: the NVD JSON vulnerability feed container.  Both the 1.1
  feed layout (``CVE_Items``) and the 2.0 API layout (``vulnerabilities``)
  are accepted; the first English description string is taken as the
  record text.

Malformed entries are never dropped silently: parsing returns the valid
records plus a list of rejects with reasons, so corpus statistics stay
auditable.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass

from .errors import DecodeError, DuplicateIdError, FormatError, PatternError, RangeError

CVE_ID_RE = re.compile(r"^CVE-(\d{4})-(\d{4,7})$")

# Hyphen look-alikes that appear in copy-pasted id lists (non-breaking
# hyphen, en dash, minus sign, ...); normalized to ASCII before validation.
_HYPHEN_VARIANTS = dict.fromkeys("‐‑‒–—−", "-")

# Characters str.splitlines breaks at that json.dumps(ensure_ascii=False)
# leaves raw; dump_records escapes them so its lines parse back.
_RAW_LINE_BREAKS = str.maketrans({"\x85": "\\u0085", "\u2028": "\\u2028", "\u2029": "\\u2029"})

PARSE_FORMATS = ("canonical-jsonl", "nvd-feed")


@dataclass(frozen=True)
class CveRecord:
    """One vulnerability entry: id, free-text description, derived year."""

    id: str
    description: str
    year: int
    source: str = ""


@dataclass(frozen=True)
class LabeledCve:
    """A record with a ground-truth class: 1 = hardware, 0 = software."""

    record: CveRecord
    label: int


@dataclass(frozen=True)
class IdListFixture:
    """A named list of CVE ids, optionally all carrying one expected label."""

    name: str
    ids: tuple[str, ...]
    expected_label: int | None = None


@dataclass(frozen=True)
class RejectEntry:
    """A malformed input entry and the reason it was rejected."""

    index: int
    reason: str
    raw: str


def normalize_cve_id(raw: str) -> str:
    return raw.strip().translate(str.maketrans(_HYPHEN_VARIANTS))


def make_record(cve_id: str, description: str, source: str = "") -> CveRecord:
    """Validate fields and derive the year from the id.

    Raises PatternError for a malformed id and ValueError for an empty
    description.
    """
    m = CVE_ID_RE.match(cve_id)
    if m is None:
        raise PatternError(f"id pattern: {cve_id!r}")
    if not description or not description.strip():
        raise ValueError(f"empty description for {cve_id}")
    return CveRecord(id=cve_id, description=description, year=int(m.group(1)), source=source)


def _decode(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError(str(exc)) from None


def _parse_canonical(text: str) -> tuple[list[CveRecord], list[RejectEntry]]:
    records: list[CveRecord] = []
    rejects: list[RejectEntry] = []
    index = 0
    for line in text.splitlines():
        if not line.strip():
            continue
        index += 1
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            rejects.append(RejectEntry(index, "invalid json", line))
            continue
        if not isinstance(obj, dict):
            rejects.append(RejectEntry(index, "not an object", line))
            continue
        try:
            records.append(
                make_record(
                    str(obj.get("id", "")),
                    str(obj.get("description", "")),
                    str(obj.get("source", "")),
                )
            )
        except PatternError:
            rejects.append(RejectEntry(index, "id pattern", line))
        except ValueError:
            rejects.append(RejectEntry(index, "empty description", line))
    return records, rejects


def _first_english_description(entry: dict) -> str | None:
    # 1.1 feed: cve.description.description_data; 2.0 API: cve.descriptions
    cve = entry.get("cve", entry)
    blocks = cve.get("descriptions")
    if blocks is None:
        blocks = cve.get("description", {}).get("description_data")
    if not isinstance(blocks, list):
        return None
    for block in blocks:
        if isinstance(block, dict) and block.get("lang") == "en":
            value = block.get("value")
            if isinstance(value, str):
                return value
    return None


def _nvd_id(entry: dict) -> str:
    cve = entry.get("cve", entry)
    if isinstance(cve.get("id"), str):
        return cve["id"]
    meta = cve.get("CVE_data_meta", {})
    return str(meta.get("ID", ""))


def _parse_nvd(text: str) -> tuple[list[CveRecord], list[RejectEntry]]:
    try:
        container = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"nvd feed is not valid json: {exc}") from None
    if not isinstance(container, dict):
        raise FormatError("nvd feed container must be a json object")
    entries = container.get("CVE_Items", container.get("vulnerabilities"))
    if not isinstance(entries, list):
        raise FormatError("nvd feed container has neither CVE_Items nor vulnerabilities")

    records: list[CveRecord] = []
    rejects: list[RejectEntry] = []
    for index, entry in enumerate(entries, start=1):
        if not isinstance(entry, dict):
            rejects.append(RejectEntry(index, "not an object", str(entry)[:200]))
            continue
        cve_id = _nvd_id(entry)
        description = _first_english_description(entry)
        if description is None:
            rejects.append(RejectEntry(index, "no english description", cve_id))
            continue
        try:
            records.append(make_record(cve_id, description, source="nvd"))
        except PatternError:
            rejects.append(RejectEntry(index, "id pattern", cve_id))
        except ValueError:
            rejects.append(RejectEntry(index, "empty description", cve_id))
    return records, rejects


def parse_records(data: bytes, format: str = "canonical-jsonl") -> tuple[list[CveRecord], list[RejectEntry]]:
    """Parse raw file content into records plus a rejects report.

    Records are returned in file order; every returned record satisfies the
    id/description invariants.  The number of records plus the number of
    rejects equals the number of input entries.
    """
    if format not in PARSE_FORMATS:
        raise FormatError(f"unknown format {format!r}; expected one of {PARSE_FORMATS}")
    text = _decode(data)
    if format == "canonical-jsonl":
        return _parse_canonical(text)
    return _parse_nvd(text)


def dump_records(records: list[CveRecord]) -> bytes:
    """Serialize records to canonical jsonl; re-parsing round-trips exactly."""
    lines = []
    for r in records:
        lines.append(json.dumps({"id": r.id, "description": r.description, "source": r.source},
                                ensure_ascii=False).translate(_RAW_LINE_BREAKS))
    return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")


def filter_by_years(records: list[CveRecord], start: int, end: int) -> list[CveRecord]:
    """Keep records with start <= year <= end, preserving input order."""
    if start > end:
        raise RangeError(f"year range [{start}, {end}] is empty")
    return [r for r in records if start <= r.year <= end]


def yearly_counts(records: list[CveRecord]) -> dict[int, int]:
    """Count records per year; years absent from the input are absent here."""
    return dict(Counter(r.year for r in records))


def load_fixture(data: bytes) -> IdListFixture:
    """Load an id-list fixture: ``{"name": str, "label": 0|1|null, "ids": [...]}``.

    Ids are normalized to ASCII hyphens before validation; a duplicate id
    raises DuplicateIdError naming the duplicate.
    """
    text = _decode(data)
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"fixture is not valid json: {exc}") from None
    if not isinstance(obj, dict) or not isinstance(obj.get("ids"), list):
        raise FormatError("fixture must be an object with an 'ids' array")
    label = obj.get("label")
    if label not in (0, 1, None):
        raise FormatError(f"fixture label must be 0, 1 or null, got {label!r}")

    seen: set[str] = set()
    ids: list[str] = []
    for raw in obj["ids"]:
        cve_id = normalize_cve_id(str(raw))
        if CVE_ID_RE.match(cve_id) is None:
            raise PatternError(f"id pattern: {raw!r}")
        if cve_id in seen:
            raise DuplicateIdError(f"duplicate id in fixture: {cve_id}")
        seen.add(cve_id)
        ids.append(cve_id)
    return IdListFixture(name=str(obj.get("name", "")), ids=tuple(ids), expected_label=label)

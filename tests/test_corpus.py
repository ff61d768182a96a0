import json
import re

import pytest

from cveminer import corpus
from cveminer.assets import fixture_bytes
from cveminer.errors import CveMinerError


def test_parse_single_canonical_line():
    line = b'{"id":"CVE-2021-0091","description":"test flaw in a controller","source":"test"}'
    records, rejects = corpus.parse_records(line)
    assert rejects == []
    assert len(records) == 1
    assert records[0].id == "CVE-2021-0091"
    assert records[0].year == 2021
    assert records[0].source == "test"


def test_parse_empty_input():
    assert corpus.parse_records(b"") == ([], [])


def test_parse_bad_id_is_rejected_with_reason():
    records, rejects = corpus.parse_records(b'{"id":"CVE-21-1","description":"x"}')
    assert records == []
    assert len(rejects) == 1
    assert rejects[0].reason == "id pattern"


@pytest.mark.parametrize("bad_id", ["cve-2021-1234", "CVE-2021-123", "CVE-2021-12345678",
                                    "CVE-21-1234", "CVE-2021-1234x", "x CVE-2021-1234"])
def test_id_pattern_is_strict(bad_id):
    records, rejects = corpus.parse_records(json.dumps({"id": bad_id, "description": "text"}).encode())
    assert records == []
    assert [r.reason for r in rejects] == ["id pattern"]


def test_empty_description_rejected():
    records, rejects = corpus.parse_records(b'{"id":"CVE-2021-1234","description":"  "}')
    assert records == []
    assert rejects[0].reason == "empty description"


def test_records_plus_rejects_equals_entries():
    lines = [
        '{"id":"CVE-2021-0001","description":"ok"}',
        'not json at all',
        '{"id":"CVE-bad","description":"x"}',
        '[1,2,3]',
        '{"id":"CVE-2022-9999","description":"ok too"}',
    ]
    records, rejects = corpus.parse_records("\n".join(lines).encode())
    assert len(records) + len(rejects) == len(lines)
    assert len(records) == 2


def test_round_trip_canonical():
    descriptions = ['quote " inside', "newline\nin text", "unicode café — dash", "plain",
                    "line\u2028separator", "paragraph\u2029separator", "next\x85line"]
    records = [corpus.CveRecord(f"CVE-2021-{1000+i}", d, 2021, "rt") for i, d in enumerate(descriptions)]
    reparsed, rejects = corpus.parse_records(corpus.dump_records(records))
    assert rejects == []
    assert reparsed == records


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
def test_parse_canonical_keeps_raw_line_break_inside_description(separator):
    # json.dumps(ensure_ascii=False) leaves these raw; only "\n" ends a line
    lines = [json.dumps({"id": "CVE-2021-1000", "description": f"first{separator}second",
                         "source": "t"}, ensure_ascii=False),
             json.dumps({"id": "CVE-2021-1001", "description": "plain", "source": "t"})]
    records, rejects = corpus.parse_records("\r\n".join(lines).encode("utf-8"))
    assert rejects == []
    assert [r.description for r in records] == [f"first{separator}second", "plain"]


def test_parse_not_utf8():
    with pytest.raises(CveMinerError, match="codec can't decode"):
        corpus.parse_records(b"\xff\xfe\x00bad")


def test_unknown_format():
    with pytest.raises(CveMinerError, match="unknown format 'csv'"):
        corpus.parse_records(b"{}", format="csv")


def test_nvd_feed_v11():
    feed = {
        "CVE_Items": [
            {"cve": {"CVE_data_meta": {"ID": "CVE-2021-0001"},
                     "description": {"description_data": [
                         {"lang": "fr", "value": "non"},
                         {"lang": "en", "value": "a flaw"}]}}},
            {"cve": {"CVE_data_meta": {"ID": "CVE-2021-0002"},
                     "description": {"description_data": [{"lang": "fr", "value": "non"}]}}},
        ]
    }
    records, rejects = corpus.parse_records(json.dumps(feed).encode(), format="nvd-feed")
    assert [r.id for r in records] == ["CVE-2021-0001"]
    assert records[0].description == "a flaw"
    assert records[0].source == "nvd"
    assert rejects[0].reason == "no english description"


def test_nvd_feed_v20():
    feed = {"vulnerabilities": [
        {"cve": {"id": "CVE-2023-1111",
                 "descriptions": [{"lang": "en", "value": "flaw text"}]}}]}
    records, rejects = corpus.parse_records(json.dumps(feed).encode(), format="nvd-feed")
    assert rejects == []
    assert records[0].id == "CVE-2023-1111"


def test_nvd_feed_bad_container():
    with pytest.raises(CveMinerError, match="must be a json object"):
        corpus.parse_records(b"[]", format="nvd-feed")
    with pytest.raises(CveMinerError, match="neither CVE_Items nor vulnerabilities"):
        corpus.parse_records(b'{"neither": []}', format="nvd-feed")


def _records_for_years(years):
    return [corpus.CveRecord(f"CVE-{y}-{1000+i}", "d", y) for i, y in enumerate(years)]


def test_filter_by_years_bounds():
    records = _records_for_years([2019, 2021, 2024, 2025])
    kept = corpus.filter_by_years(records, 2021, 2024)
    assert [r.year for r in kept] == [2021, 2024]


def test_filter_single_year_inclusive():
    records = _records_for_years([2021])
    assert corpus.filter_by_years(records, 2021, 2021) == records


def test_filter_identity_and_idempotence():
    records = _records_for_years([2020, 2021, 2022, 2023, 2024])
    assert corpus.filter_by_years(records, 1999, 2100) == records
    once = corpus.filter_by_years(records, 2021, 2023)
    assert corpus.filter_by_years(once, 2021, 2023) == once


def test_filter_empty_range():
    with pytest.raises(CveMinerError, match=r"year range \[2024, 2021\] is empty"):
        corpus.filter_by_years([], 2024, 2021)


def test_yearly_counts_basic():
    records = _records_for_years([2021, 2021, 2022])
    assert corpus.yearly_counts(records) == {2021: 2, 2022: 1}
    assert corpus.yearly_counts([]) == {}


def test_yearly_counts_properties():
    records = _records_for_years([2021, 2022, 2022, 2023, 2023, 2023])
    counts = corpus.yearly_counts(records)
    assert sum(counts.values()) == len(records)
    assert all(v >= 1 for v in counts.values())


def test_mini_corpus_yearly_counts(mini_records):
    # independent oracle: count lines per year straight off the raw file
    raw = fixture_bytes("mini_corpus.jsonl").decode().splitlines()
    oracle = {}
    for line in raw:
        year = int(json.loads(line)["id"].split("-")[1])
        oracle[year] = oracle.get(year, 0) + 1
    assert oracle == {2021: 15, 2022: 15, 2023: 15, 2024: 15}
    assert corpus.yearly_counts(mini_records) == oracle


def test_bundled_validation_fixtures():
    hw = corpus.load_fixture(fixture_bytes("validation_hardware.json"))
    sw = corpus.load_fixture(fixture_bytes("validation_software.json"))
    assert len(hw.ids) == 100 and hw.expected_label == 1
    assert len(sw.ids) == 100 and sw.expected_label == 0
    assert not set(hw.ids) & set(sw.ids)


def test_bundled_mihw_fixture():
    fx = corpus.load_fixture(fixture_bytes("mihw_2025.json"))
    assert len(fx.ids) == 411
    assert fx.expected_label is None
    assert all(corpus.CVE_ID_RE.match(i) for i in fx.ids)


def test_fixture_duplicate_id():
    data = json.dumps({"name": "d", "label": 1,
                       "ids": ["CVE-2021-0001", "CVE-2021-0001"]}).encode()
    with pytest.raises(CveMinerError, match="duplicate id in fixture: CVE-2021-0001"):
        corpus.load_fixture(data)


def test_fixture_bad_pattern():
    data = json.dumps({"name": "d", "label": None, "ids": ["CVE-20x1-0001"]}).encode()
    with pytest.raises(CveMinerError, match=re.escape("id pattern: 'CVE-20x1-0001'")):
        corpus.load_fixture(data)


def test_fixture_bad_label():
    data = json.dumps({"name": "d", "label": 2, "ids": []}).encode()
    with pytest.raises(CveMinerError, match="label must be 0, 1 or null, got 2"):
        corpus.load_fixture(data)


def test_fixture_normalizes_unicode_hyphens():
    data = json.dumps({"name": "d", "label": 1, "ids": ["CVE‑2021‑1088"]}).encode()
    fx = corpus.load_fixture(data)
    assert fx.ids == ("CVE-2021-1088",)

import re

import pytest

import corpus_gen
from cveminer import corpus, gateway
from cveminer.assets import blocklist

SOFTWARE_PIECES = (corpus_gen.VULNS + corpus_gen.COMPONENTS + corpus_gen.PRODUCTS
                   + corpus_gen.ACTORS + corpus_gen.IMPACTS + corpus_gen.VECTORS)


def keywords_in(text: str) -> list[str]:
    return [k for k in corpus_gen.HW_KEYWORDS if k in text.lower()]


def test_keywords_are_the_mock_providers():
    assert set(corpus_gen.HW_KEYWORDS) == set(gateway.DEFAULT_HW_KEYWORDS)


def test_software_vocabulary_hides_no_keyword():
    assert [p for p in SOFTWARE_PIECES if keywords_in(p)] == []


def test_each_hardware_phrase_carries_only_its_keyword():
    for keyword, phrases in corpus_gen.HW_PHRASES.items():
        for phrase in phrases:
            assert keywords_in(phrase) == [keyword], phrase


def test_no_vendor_name_from_the_blocklist():
    pieces = SOFTWARE_PIECES + tuple(p for ps in corpus_gen.HW_PHRASES.values() for p in ps)
    tokens = {t for p in pieces for t in re.findall(r"[a-z0-9]+", p.lower())}
    assert tokens & blocklist() == set()


@pytest.mark.parametrize("seed,records,share", [(1, 5000, 0.015), (2, 1200, 0.10)])
def test_hardware_set_equals_keyword_oracle(seed, records, share):
    generated = corpus_gen.generate(seed, records, share)
    parsed, rejects = corpus.parse_records(generated.data)
    assert rejects == [] and len(parsed) == records
    oracle = {r.id for r in parsed if gateway.keyword_class(r.description) is not None}
    assert oracle == set(generated.hardware)
    assert abs(len(oracle) / records - share) < 1 / records
    assert {r.id: r.description for r in parsed if r.id in oracle} == generated.hardware


def test_same_seed_same_bytes_other_seed_other_bytes():
    assert corpus_gen.generate(3, 2000, 0.015) == corpus_gen.generate(3, 2000, 0.015)
    assert corpus_gen.generate(3, 2000, 0.015).data != corpus_gen.generate(4, 2000, 0.015).data

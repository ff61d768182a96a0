import json
import random
from collections import Counter

import pytest

from cveminer import gateway, topics
from cveminer.assets import fixture_bytes
from cveminer.classifier import load_template
from cveminer.errors import CveMinerError
from cveminer.topics import (NgramEntry, NgramProfile, build_sum_prompt,
                             cluster_keywords, dump_profiles, extract_ngrams,
                             load_profiles, summarize_cluster, tokenize)


def test_tokenize_drops_stopwords():
    assert tokenize("Denial of Service") == ["denial", "service"]
    assert tokenize("") == []
    assert tokenize("escalation of privilege!") == ["escalation", "privilege"]


def test_tokenize_drops_numbers_and_short_tokens():
    assert tokenize("a 42 x CVE ok 3.14 v2") == ["cve", "ok", "v2"]


def test_extract_ngrams_hand_counted():
    entries = extract_ngrams(["denial of service", "denial of service attack"], r=10)
    assert [(e.ngram, e.n, e.count) for e in entries] == [
        ("denial", 1, 2),
        ("service", 1, 2),
        ("denial service", 2, 2),
        ("attack", 1, 1),
        ("service attack", 2, 1),
        ("denial service attack", 3, 1),
    ]


def test_extract_ngrams_respects_blocklist():
    entries = extract_ngrams(["intel bios flaw"], r=10, blocked=frozenset({"intel"}))
    grams = [e.ngram for e in entries]
    assert "intel" not in grams and "intel bios" not in grams
    assert "bios" in grams and "bios flaw" in grams


def test_extract_ngrams_never_crosses_text_boundaries():
    entries = extract_ngrams(["alpha beta", "gamma delta"], r=50)
    grams = {e.ngram for e in entries}
    assert "beta gamma" not in grams


def test_extract_ngrams_requires_positive_r():
    with pytest.raises(ValueError):
        extract_ngrams(["x"], r=0)


def test_extract_ngrams_per_document_mode():
    texts = ["crash crash crash", "crash burn"]
    by_occurrence = {e.ngram: e.count for e in extract_ngrams(texts, r=10)}
    by_document = {e.ngram: e.count
                   for e in extract_ngrams(texts, r=10, per_document=True)}
    assert by_occurrence["crash"] == 4
    assert by_document["crash"] == 2
    assert by_document["burn"] == 1


def test_ranking_fixture_prefix():
    texts = json.loads(fixture_bytes("topic0_texts.json"))
    entries = extract_ngrams(texts, r=15)
    grams = [e.ngram for e in entries]
    assert grams[:4] == ["access", "local", "user", "privileged"]
    assert grams == [
        "access", "local", "user", "privileged", "privileged user",
        "firmware", "privilege", "escalation", "escalation privilege",
        "bios", "service", "denial", "denial service", "local access", "enable",
    ]
    counts = [e.count for e in entries]
    assert counts == sorted(counts, reverse=True)


def _ngram_oracle(texts, r, blocked, stopwords):
    """Independent window enumeration with its own ordering logic."""
    counter = Counter()
    for text in texts:
        toks = []
        for raw in "".join(c if c.isalnum() else " " for c in text.lower()).split():
            if len(raw) >= 2 and not raw.isdigit() and raw not in stopwords:
                toks.append(raw)
        for n in (1, 2, 3):
            for i in range(len(toks) - n + 1):
                window = toks[i:i + n]
                if not any(t in blocked for t in window):
                    counter[(" ".join(window), n)] += 1
    ranked = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0][1], kv[0][0]))
    return [(g, n, c) for (g, n), c in ranked[:r]]


@pytest.mark.parametrize("r", [1, 5, 15, 100])
def test_extract_ngrams_matches_oracle(r):
    rng = random.Random(100 + r)
    vocab = [f"w{i}" for i in range(30)] + ["of", "the", "intel", "a7"]
    stop = frozenset({"of", "the"})
    blocked = frozenset({"intel"})
    for _ in range(25):
        texts = [" ".join(rng.choices(vocab, k=rng.randint(0, 8)))
                 for _ in range(rng.randint(1, 40))]
        got = [(e.ngram, e.n, e.count)
               for e in extract_ngrams(texts, r, blocked=blocked, stopwords=stop)]
        assert got == _ngram_oracle(texts, r, blocked, stop)


def test_ranking_is_stable_and_prefix_monotone():
    rng = random.Random(9)
    vocab = [f"t{i}" for i in range(12)]
    texts = [" ".join(rng.choices(vocab, k=6)) for _ in range(50)]
    full = extract_ngrams(texts, r=40)
    again = extract_ngrams(texts, r=40)
    assert full == again
    for r in (1, 3, 10, 25):
        assert extract_ngrams(texts, r=r) == full[:r]


def test_no_stopword_or_blocked_token_in_profiles():
    stop = frozenset({"of", "with"})
    blocked = frozenset({"intel", "amd"})
    texts = ["intel core of doom", "amd with firmware of intel"]
    for e in extract_ngrams(texts, r=50, blocked=blocked, stopwords=stop):
        for tok in e.ngram.split():
            assert tok not in stop and tok not in blocked


def test_cluster_keywords_disjoint_vocabularies():
    texts = ["alpha beta alpha", "beta alpha", "gamma delta", "delta gamma gamma"]
    profiles = cluster_keywords(texts, [0, 0, 1, 1], k=2, r=15)
    grams0 = {e.ngram for e in profiles[0].entries}
    grams1 = {e.ngram for e in profiles[1].entries}
    assert grams0 and grams1 and not grams0 & grams1


def test_cluster_keywords_single_text_cluster():
    texts = ["alpha beta gamma"]
    profiles = cluster_keywords(texts, [0], k=1, r=15)
    assert profiles[0].entries == extract_ngrams(texts, r=15)


def test_cluster_keywords_empty_cluster_reported():
    profiles = cluster_keywords(["alpha"], [0], k=3, r=5)
    assert len(profiles) == 3
    assert profiles[1].entries == [] and profiles[2].entries == []


def test_cluster_keywords_alignment_checked():
    with pytest.raises(ValueError):
        cluster_keywords(["a", "b"], [0], k=1, r=5)


def test_cluster_keywords_cardinality(mini_records):
    texts = [r.description for r in mini_records[:20]]
    assignments = [i % 5 for i in range(20)]
    profiles = cluster_keywords(texts, assignments, k=5, r=15)
    assert len(profiles) == 5
    assert all(len(p.entries) <= 15 for p in profiles)


@pytest.fixture
def summarize_template():
    return load_template("summarize")


def _profile(*grams, cluster=0):
    entries = [NgramEntry(g, len(g.split()), 10 - i) for i, g in enumerate(grams)]
    return NgramProfile(cluster=cluster, entries=entries, r=max(len(entries), 1))


def test_build_sum_prompt_wording(summarize_template):
    prompt = build_sum_prompt(summarize_template, _profile("a", "b"))
    assert "Avoid mentioning any brand or product names." in prompt
    assert "Provide a concise topic name only." in prompt
    assert prompt.endswith("Keywords: a, b")


def test_build_sum_prompt_empty_profile(summarize_template):
    with pytest.raises(CveMinerError, match="cluster 0 has no keywords to summarize"):
        build_sum_prompt(summarize_template, NgramProfile(cluster=0, entries=[], r=15))


def test_summarize_mock_label(summarize_template, chat_config):
    texts = json.loads(fixture_bytes("topic0_texts.json"))
    profile = NgramProfile(cluster=0, entries=extract_ngrams(texts, r=15), r=15)
    assert profile.keywords[:4] == ["access", "local", "user", "privileged"]
    label = summarize_cluster(chat_config, summarize_template, profile)
    assert label == ("topic: access local user privileged", None)


def test_summarize_keeps_first_nonempty_line(summarize_template, chat_config, monkeypatch):
    monkeypatch.setattr(gateway, "mock_chat_reply",
                        lambda *a, **k: "\n\n  Memory Corruption Topic  \nsecond line")
    label = summarize_cluster(chat_config, summarize_template, _profile("a"))
    assert label == ("Memory Corruption Topic", None)


def test_summarize_blocked_term_routes_to_review(summarize_template, chat_config, monkeypatch):
    monkeypatch.setattr(gateway, "mock_chat_reply", lambda *a, **k: "Intel firmware issue")
    label = summarize_cluster(chat_config, summarize_template, _profile("a"))
    assert label == ("Intel firmware issue", "intel")


@pytest.mark.parametrize("reply", ["", "  \n", "\n\t\n"])
def test_summarize_empty_label_routes_to_review(summarize_template, chat_config, monkeypatch, reply):
    monkeypatch.setattr(gateway, "mock_chat_reply", lambda *a, **k: reply)
    assert summarize_cluster(chat_config, summarize_template, _profile("a")) == ("", None)


def test_profiles_round_trip():
    profiles = [NgramProfile(cluster=0, entries=[NgramEntry("a b", 2, 3)], r=15),
                NgramProfile(cluster=1, entries=[], r=15)]
    again = load_profiles(dump_profiles(profiles))
    assert again == profiles

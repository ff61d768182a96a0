"""Per-cluster keyword profiles and provider-generated topic labels.

Keywords are the most frequent uni/bi/tri-grams over stopword-filtered
tokens, counted once per occurrence within each text (n-grams never span
text boundaries).  Profiles exclude any n-gram containing a blocklisted
term (vendor/product noise).  The merged ranking orders by count
descending, then n-gram size ascending, then lexicographically, which
makes every profile a total order: equal inputs give byte-equal profiles.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass

from . import gateway
from .assets import blocklist as default_blocklist
from .assets import stopwords as default_stopwords
from .errors import CveMinerError

_TOKEN_RE = re.compile(r"[a-z0-9]+")

NGRAM_SIZES = (1, 2, 3)


@dataclass(frozen=True)
class NgramEntry:
    ngram: str
    n: int
    count: int


@dataclass
class NgramProfile:
    """Ranked keyword list for one cluster."""

    cluster: int
    entries: list[NgramEntry]
    r: int

    @property
    def keywords(self) -> list[str]:
        return [e.ngram for e in self.entries]


def tokenize(text: str, stopwords: frozenset[str] | None = None) -> list[str]:
    """Lowercase tokens with numbers, short tokens, and stopwords removed."""
    if stopwords is None:
        stopwords = default_stopwords()
    tokens = []
    for tok in _TOKEN_RE.findall(text.lower()):
        if len(tok) < 2 or tok.isdigit() or tok in stopwords:
            continue
        tokens.append(tok)
    return tokens


def _windows(tokens: list[str]):
    for n in NGRAM_SIZES:
        for i in range(len(tokens) - n + 1):
            yield " ".join(tokens[i:i + n]), n


def extract_ngrams(texts: list[str], r: int,
                   blocked: frozenset[str] | None = None,
                   stopwords: frozenset[str] | None = None,
                   per_document: bool = False) -> list[NgramEntry]:
    """Top-r merged uni/bi/tri-gram counts over the given texts.

    Counting is per occurrence by default; with per_document=True each
    n-gram counts at most once per text.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if blocked is None:
        blocked = default_blocklist()
    counts: Counter[tuple[str, int]] = Counter()
    for text in texts:
        tokens = tokenize(text, stopwords)
        seen = set(_windows(tokens)) if per_document else _windows(tokens)
        for ngram, n in seen:
            counts[(ngram, n)] += 1
    entries = [
        NgramEntry(ngram, n, count)
        for (ngram, n), count in counts.items()
        if not any(tok in blocked for tok in ngram.split(" "))
    ]
    entries.sort(key=lambda e: (-e.count, e.n, e.ngram))
    return entries[:r]


def cluster_keywords(texts: list[str], assignments, k: int, r: int,
                     blocked: frozenset[str] | None = None,
                     stopwords: frozenset[str] | None = None,
                     per_document: bool = False) -> list[NgramProfile]:
    """One keyword profile per cluster 0..k-1.

    An empty cluster yields a profile with no entries rather than an error,
    so downstream reports can show the gap.
    """
    assignments = list(assignments)
    if len(assignments) != len(texts):
        raise ValueError(f"{len(assignments)} assignments for {len(texts)} texts")
    profiles = []
    for j in range(k):
        members = [t for t, a in zip(texts, assignments) if a == j]
        entries = (extract_ngrams(members, r, blocked, stopwords, per_document)
                   if members else [])
        profiles.append(NgramProfile(cluster=j, entries=entries, r=r))
    return profiles


def build_sum_prompt(template: str, profile: NgramProfile) -> str:
    """Summarization prompt: the instruction block plus ranked keywords."""
    if not profile.entries:
        raise CveMinerError(f"cluster {profile.cluster} has no keywords to summarize")
    keywords = ", ".join(profile.keywords)
    return f"{template}\nKeywords: {keywords}"


def summarize_cluster(config: gateway.ProviderConfig, template: str,
                      profile: NgramProfile, cache=None,
                      blocked: frozenset[str] | None = None) -> tuple[str, str | None]:
    """Obtain a short topic label for one cluster's keyword profile.

    Returns (label, term).  The label is the first non-empty output line,
    "" when the output has none; term is the first blocklisted token in the
    label, or None.  A label that is empty or holds a blocked term goes to
    review, with the raw label preserved.
    """
    if blocked is None:
        blocked = default_blocklist()
    prompt = build_sum_prompt(template, profile)
    result = gateway.complete(config, prompt, cache=cache)
    label = next((line.strip() for line in result.text.splitlines() if line.strip()), "")
    term = next((tok for tok in _TOKEN_RE.findall(label.lower()) if tok in blocked), None)
    return label, term


# --- artifact serialization -------------------------------------------------

def dump_profiles(profiles: list[NgramProfile]) -> bytes:
    doc = [
        {"cluster": p.cluster, "r": p.r,
         "entries": [{"ngram": e.ngram, "n": e.n, "count": e.count} for e in p.entries]}
        for p in profiles
    ]
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def load_profiles(data: bytes) -> list[NgramProfile]:
    doc = json.loads(data.decode("utf-8"))
    profiles = []
    for obj in doc:
        entries = [NgramEntry(e["ngram"], int(e["n"]), int(e["count"]))
                   for e in obj["entries"]]
        profiles.append(NgramProfile(cluster=int(obj["cluster"]), entries=entries,
                                     r=int(obj.get("r", len(entries)))))
    return profiles

"""Accessors for bundled data assets (prompts, word lists, fixtures)."""

from __future__ import annotations

from functools import lru_cache
from importlib import resources


def _asset_bytes(*parts: str) -> bytes:
    node = resources.files(__package__).joinpath("assets")
    for part in parts:
        node = node.joinpath(part)
    return node.read_bytes()


def asset_text(name: str) -> str:
    return _asset_bytes(name).decode("utf-8")


def fixture_bytes(name: str) -> bytes:
    return _asset_bytes("fixtures", name)


@lru_cache(maxsize=None)
def stopwords() -> frozenset[str]:
    """The bundled English stopword list (one lowercase term per line)."""
    return _parse_terms(asset_text("stopwords.txt"))


@lru_cache(maxsize=None)
def blocklist() -> frozenset[str]:
    """Bundled vendor/product noise terms removed from keyword profiles."""
    return _parse_terms(asset_text("blocklist.txt"))


def load_termfile_path(path) -> frozenset[str]:
    """Read a user-supplied term file (same layout as the bundled ones)."""
    with open(path, encoding="utf-8") as fh:
        return _parse_terms(fh.read())


def _parse_terms(text: str) -> frozenset[str]:
    """One term per line, lowercased; blank lines and ``#`` comment lines are skipped."""
    terms = set()
    for line in text.split("\n"):
        line = line.strip().lower()
        if line and not line.startswith("#"):
            terms.add(line)
    return frozenset(terms)

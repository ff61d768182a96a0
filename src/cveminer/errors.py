"""Exception types shared across the toolkit: a class only where code catches
it or reads its fields; every other failure is a ``CveMinerError`` whose
message says what went wrong."""

from __future__ import annotations


class CveMinerError(Exception):
    """Base class for all toolkit errors."""


class PatternError(CveMinerError):
    """A CVE id does not match CVE-<4 digits>-<4..7 digits>."""


class ProviderError(CveMinerError):
    """A provider call failed after all retries."""

    def __init__(self, status: int | None, body: str):
        super().__init__(f"provider error (status={status}): {body[:200]}")
        self.status = status
        self.body = body


class UnparseableLabel(CveMinerError):
    """Model output contains no recognizable 0/1 label."""

    def __init__(self, raw: str):
        super().__init__(f"no binary label in model output: {raw!r}")
        self.raw = raw


class BlockedTermInLabel(CveMinerError):
    """A generated topic label contains a blocklisted term."""

    def __init__(self, label: str, term: str):
        super().__init__(f"blocked term {term!r} in label {label!r}")
        self.label = label
        self.term = term

"""Exception types shared across the toolkit: one per CLI exit code.

A failure that stops the work is raised: ``CveMinerError`` (exit 2) with a
message that says what went wrong, or ``ProviderError`` (exit 3) for every
provider failure: a call that failed after its retries (a timeout
included), or a corpus with records that could not be embedded.  A verdict
that the caller records and goes on from (a reject reason, an unparseable
label, a topic label that needs review) is a return value, never raised.
"""

from __future__ import annotations


class CveMinerError(Exception):
    """Base class for all toolkit errors."""


class ProviderError(CveMinerError):
    """A provider call failed after all retries."""

    def __init__(self, status: int | None, body: str):
        super().__init__(f"provider error (status={status}): {body[:200]}")
        self.status = status
        self.body = body

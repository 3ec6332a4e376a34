"""Exception hierarchy shared across the toolkit."""

from __future__ import annotations


class LongdepError(Exception):
    """Base class for all toolkit errors."""


class DocumentTooShort(LongdepError):
    """Document yields fewer than two segments and cannot be pair-scored."""

    def __init__(self, doc_id: str, n_tokens: int, segment_len: int):
        super().__init__(
            f"document {doc_id!r} has {n_tokens} tokens, needs at least "
            f"{2 * segment_len} for two segments of {segment_len}"
        )


class BackendError(LongdepError):
    """A perplexity backend call failed.

    ``retriable`` distinguishes transient transport faults (worth retrying)
    from scorer-reported request errors (not worth retrying).
    """

    def __init__(self, message: str, *, retriable: bool = False, segment_index: int | None = None):
        self.retriable = retriable
        self.segment_index = segment_index
        super().__init__(message)


class BackendUnreachable(BackendError):
    """The external scorer could not be reached: no connection opened, or
    none answered, on any attempt of a call. A transport fault, so
    ``retriable`` is true, but it stops a run instead of failing one
    document."""

    def __init__(self, message: str):
        super().__init__(message, retriable=True)


class ScoringError(LongdepError):
    """A perplexity value came back non-finite or non-positive; the affected
    document cannot be scored."""


class ConfigError(LongdepError):
    """Invalid or incompatible configuration."""

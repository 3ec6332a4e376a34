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
    """A perplexity backend call failed. The external client resends a
    request after a fault of the stream, never after the scorer's own
    error or malformed answer (see ``ExternalBackend``)."""


class BackendUnreachable(BackendError):
    """No attempt of a call opened a connection to the external scorer, or
    none was answered; it stops a run instead of failing one document."""


class ScoringError(LongdepError):
    """A perplexity value came back non-finite or non-positive; the affected
    document cannot be scored."""


class ConfigError(LongdepError):
    """Invalid or incompatible configuration."""

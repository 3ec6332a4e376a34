"""Document ingestion, tokenization, and fixed-length segmentation.

Documents come in as JSONL records or plain files, get tokenized by a
deterministic pipeline tokenizer, and are partitioned into a grid of
equal-length token segments that the scorer consumes. Token counts
everywhere in this package are pipeline-tokenizer counts; an external
scorer is free to re-tokenize internally.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Sequence, Union

from .errors import DocumentTooShort

logger = logging.getLogger(__name__)

# Whitespace tokens are the split pieces themselves; byte tokens are ints
# in 0..255. The two kinds never collide as dict keys.
Token = Union[int, str]

TOKENIZER_KINDS = ("whitespace", "byte")
INPUT_FORMATS = ("jsonl", "plain-dir")


@dataclass(frozen=True)
class Document:
    """One unit of corpus text. Immutable."""

    id: str
    source: str
    text: str
    tokens: tuple[Token, ...] | None = None


def detokenize(tokens: Sequence[Token]) -> str:
    """Best-effort inverse of either tokenizer, used when shipping
    segments to an external scorer as text: int tokens decode as UTF-8
    bytes, anything else is joined with spaces."""
    if tokens and all(isinstance(t, int) for t in tokens):
        return bytes(tokens).decode("utf-8", errors="replace")  # type: ignore[arg-type]
    return " ".join(map(str, tokens))


def tokenize(doc: Document, kind: str = "whitespace", limit: int | None = None) -> Document:
    """``doc`` with tokens filled in; a document that already has tokens
    comes back unchanged. "whitespace" splits on runs of whitespace, and
    takes the UTF-8 bytes of the stripped text when that gives fewer than
    two parts (single-blob code, CJK); "byte" takes the UTF-8 bytes of
    the whole text. With a ``limit`` (at least 2), only the first
    ``limit`` tokens are made: the same tokens as the full run's
    first ``limit``, for less time and memory on a long text."""
    if doc.tokens is not None:
        return doc
    if kind not in TOKENIZER_KINDS:
        raise ValueError(f"tokenizer must be one of {TOKENIZER_KINDS}, got {kind!r}")
    if limit is not None and limit < 2:
        raise ValueError(f"limit must be at least 2, got {limit}")
    if kind == "byte":
        tokens = tuple(doc.text.encode("utf-8")[:limit])
    else:
        tokens = tuple(doc.text.split(maxsplit=-1 if limit is None else limit)[:limit])
        if len(tokens) < 2:
            tokens = tuple(doc.text.strip().encode("utf-8")[:limit])
    return replace(doc, tokens=tokens)


@dataclass(frozen=True)
class SegmentGrid:
    """A document partitioned into N segments of exactly ``segment_len``
    tokens each. The trailing remainder shorter than one segment is
    discarded, never padded."""

    doc_id: str
    segment_len: int
    segments: tuple[tuple[Token, ...], ...]
    source: str = ""

    def __post_init__(self):
        if any(len(seg) != self.segment_len for seg in self.segments):
            raise ValueError(f"a segment of {self.doc_id!r} is not {self.segment_len} tokens long")

    @property
    def n_segments(self) -> int:
        return len(self.segments)


def segment(doc: Document, segment_len: int, truncate_len: int) -> SegmentGrid:
    """Truncate ``doc`` to ``truncate_len`` tokens and split into segments.

    Raises DocumentTooShort when fewer than two whole segments fit,
    including a document with no tokens at all; such documents are
    excluded from scoring and recorded in the manifest.
    """
    if doc.tokens is None:
        raise ValueError(f"document {doc.id!r} has no tokens; tokenize first")
    if segment_len < 1:
        raise ValueError("segment_len must be >= 1")
    if truncate_len < 2 * segment_len:
        raise ValueError("truncate_len must be at least 2 * segment_len")

    kept = doc.tokens[:truncate_len]
    n = len(kept) // segment_len
    if n < 2:
        raise DocumentTooShort(doc.id, len(doc.tokens), segment_len)
    segments = tuple(
        tuple(kept[i * segment_len : (i + 1) * segment_len]) for i in range(n)
    )
    return SegmentGrid(
        doc_id=doc.id, segment_len=segment_len, segments=segments, source=doc.source
    )


@dataclass
class IngestStats:
    """Diagnostic counters for one ingestion run."""

    read: int = 0
    yielded: int = 0
    skipped_malformed: int = 0
    skipped_duplicate_id: int = 0


def ingest(
    path: str | os.PathLike,
    format: str = "jsonl",
    stats: IngestStats | None = None,
) -> Iterator[Document]:
    """Stream documents from ``path`` in input order.

    jsonl: one object per line with required string fields id and text
    (an integer id, not a bool, stands for its decimal text); source is
    optional and defaults to the file's stem, and tokens, when
    present, must be a non-empty list of strings and is used instead of
    tokenizing the text. Malformed lines (bad JSON, missing/empty fields,
    a tokens value of any other kind, fields that do not encode as UTF-8,
    duplicate ids) are skipped and counted, never fatal. An unreadable
    path is fatal.

    plain-dir: every regular file under ``path`` is one document, id is
    the path relative to the root, source defaults to the file's stem.
    A file that cannot be read or is not UTF-8 is skipped and counted as
    malformed.

    Both formats drop a leading UTF-8 byte order mark. A missing path,
    one of the wrong kind or an unknown format raises here, at once.
    """
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"input path does not exist: {p}")
    if format not in INPUT_FORMATS:
        raise ValueError(f"input format must be one of {INPUT_FORMATS}, got {format!r}")
    plain_dir = format == "plain-dir"
    if p.is_dir() != plain_dir:
        wrong, kind = (NotADirectoryError, "directory") if plain_dir else (IsADirectoryError, "file")
        raise wrong(f"{format} input must be a {kind}: {p}")
    read = _ingest_plain_dir if plain_dir else _ingest_jsonl
    return read(p, IngestStats() if stats is None else stats)


def _ingest_jsonl(path: Path, stats: IngestStats) -> Iterator[Document]:
    default_source = path.stem
    seen_ids: set[str] = set()
    # A byte that is not UTF-8 decodes to a lone surrogate, which the
    # UTF-8 check below (or json.loads) counts as malformed; a leading
    # BOM is dropped.
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            stats.read += 1
            try:
                record = json.loads(line)
            except ValueError:  # not JSON, or an integer too long to read
                stats.skipped_malformed += 1
                logger.debug("%s:%d: bad JSON, skipped", path, lineno)
                continue
            doc = _record_to_document(record, default_source)
            if doc is None:
                stats.skipped_malformed += 1
                logger.debug(
                    "%s:%d: missing id/text, bad tokens or not UTF-8, skipped", path, lineno
                )
                continue
            if doc.id in seen_ids:
                stats.skipped_duplicate_id += 1
                logger.debug("%s:%d: duplicate id %r, skipped", path, lineno, doc.id)
                continue
            seen_ids.add(doc.id)
            stats.yielded += 1
            yield doc


def _record_to_document(record: object, default_source: str) -> Document | None:
    if not isinstance(record, dict):
        return None
    doc_id = record.get("id")
    text = record.get("text")
    if type(doc_id) is int:
        doc_id = str(doc_id)
    if not (isinstance(doc_id, str) and doc_id and isinstance(text, str)):
        return None
    source = record.get("source")
    if not isinstance(source, str) or not source:
        source = default_source
    tokens = None
    if "tokens" in record:
        tokens = record["tokens"]
        if not (isinstance(tokens, list) and tokens and all(isinstance(t, str) for t in tokens)):
            return None
        tokens = tuple(tokens)
    # A lone surrogate such as "\ud800" parses as JSON but cannot be
    # written back out as UTF-8.
    try:
        for value in (doc_id, text, source, *(tokens or ())):
            value.encode("utf-8")
    except UnicodeEncodeError:
        return None
    return Document(id=doc_id, source=source, text=text, tokens=tokens)


def _ingest_plain_dir(root: Path, stats: IngestStats) -> Iterator[Document]:
    for file in sorted(root.rglob("*")):
        if not file.is_file():
            continue
        stats.read += 1
        # The JSONL byte rules: a leading BOM is dropped, and a byte that
        # is not UTF-8 decodes to a lone surrogate, which makes the file
        # malformed.
        try:
            text = file.read_text(encoding="utf-8-sig", errors="surrogateescape")
            text.encode("utf-8")
        except (OSError, UnicodeEncodeError):
            stats.skipped_malformed += 1
            logger.debug("%s: unreadable or not UTF-8, skipped", file)
            continue
        stats.yielded += 1
        yield Document(
            id=str(file.relative_to(root)),
            source=file.stem,
            text=text,
        )

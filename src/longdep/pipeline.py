"""Corpus-level orchestration: scoring, per-source ranking, retention
selection, and reproducible manifest emission.

Documents are scored one after another, in input order; ranking and
manifest construction are reductions over the completed results.
Per-document sampling seeds derive from (config seed, doc id), so a
document's score does not depend on what else the corpus holds.
"""

from __future__ import annotations

import logging
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .backends import PerplexityBackend
from .corpus import Document, segment, tokenize
from .errors import (
    BackendError,
    BackendUnreachable,
    ConfigError,
    DocumentTooShort,
    ScoringError,
)
from .jsonio import fingerprint
from .lds import LdsConfig, ScoreReport, derive_seed, score_document, typed_fields

STRATEGIES = ("prolong", "random", "full")

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DocumentOutcome:
    """One corpus document's fate: scored, excluded before scoring, or
    failed during scoring. ``to_row``/``from_row`` are its one
    ``reports.jsonl`` row format."""

    doc_id: str
    source: str
    status: str
    report: ScoreReport | None = None
    reason: str | None = None

    def to_row(self) -> dict:
        if self.report is not None:
            return {"status": "scored", **self.report.to_dict()}
        return {
            "status": self.status,
            "doc_id": self.doc_id,
            "source": self.source,
            "reason": self.reason,
        }

    @classmethod
    def from_row(cls, row: dict) -> "DocumentOutcome":
        """Rebuild an outcome from a ``to_row()`` row. A missing field
        raises KeyError, an unknown status ValueError and a field of the
        wrong type ConfigError."""
        status = row.get("status")
        if status == "scored":
            report = ScoreReport.from_dict(row)
            return cls(report.doc_id, report.source, status, report=report)
        if status not in ("excluded", "failed"):
            raise ValueError(f"unknown status {status!r}")
        if type(row["reason"]) is not str:
            raise ConfigError(f"reason must be str, got {row['reason']!r}")
        ids = typed_fields(cls, {"doc_id": row["doc_id"], "source": row.get("source", "")})
        return cls(status=status, reason=row["reason"], **ids)


def _score_one(
    doc: Document,
    backend: PerplexityBackend,
    cfg: LdsConfig,
    tokenizer: str,
    keep_pairs: bool,
) -> DocumentOutcome:
    try:
        grid = segment(tokenize(doc, tokenizer, cfg.truncate_len), cfg.segment_len, cfg.truncate_len)
        report = score_document(backend, grid, cfg, keep_pairs=keep_pairs)
    except DocumentTooShort as exc:
        return DocumentOutcome(doc.id, doc.source, "excluded", reason=str(exc))
    except BackendUnreachable:
        raise
    except (BackendError, ScoringError) as exc:
        return DocumentOutcome(doc.id, doc.source, "failed", reason=str(exc))
    return DocumentOutcome(doc.id, doc.source, "scored", report=report)


def score_corpus(
    docs: Iterable[Document],
    backend: PerplexityBackend,
    cfg: LdsConfig,
    tokenizer: str = "whitespace",
    keep_pairs: bool = False,
) -> Iterator[DocumentOutcome]:
    """Score a document stream, yielding one outcome per document in
    input order; a document without tokens is tokenized first, by the
    ``tokenizer`` kind, as far as its first ``cfg.truncate_len`` tokens.

    A document that is too short, or empty, is excluded; a document whose
    scoring fails is marked failed; both leave the run alive. Only an
    unreachable backend is fatal. Per-pair records are dropped by
    default; corpus runs only need the document totals.
    """
    for doc in docs:
        yield _score_one(doc, backend, cfg, tokenizer, keep_pairs)


def reports_only(outcomes: Iterable[DocumentOutcome]) -> list[ScoreReport]:
    return [o.report for o in outcomes if o.report is not None]


# -- selection ------------------------------------------------------------


def retained_ids(manifest: dict) -> list[str]:
    """The retained doc ids of a ``build_manifest`` result, in rank order,
    source by source."""
    return [
        doc["doc_id"]
        for entry in manifest["sources"]
        for doc in entry["documents"]
        if doc["retained"]
    ]


def _arm_stats(values: Sequence[float]) -> dict:
    return {
        "count": len(values),
        "mean": statistics.fmean(values),
        "median": statistics.median(values),
    }


def _random_member_ids(
    ranked: Sequence[tuple[str, float]], n_keep: int, seed: int, source: str
) -> set[str]:
    rng = np.random.Generator(np.random.PCG64(derive_seed(seed, source)))
    picks = rng.choice(len(ranked), size=n_keep, replace=False)
    return {ranked[int(ix)][0] for ix in picks}


def build_manifest(
    reports: Sequence[ScoreReport],
    outcomes: Sequence[DocumentOutcome],
    fraction: float,
    strategy: str,
    seed: int = 0,
    per_source: bool = True,
    passthrough_sources: frozenset[str] = frozenset(),
) -> dict:
    """Rank scored documents and mark retention under one strategy,
    returning the ``manifest.json`` object.

    All three strategy arms (full, random, prolong) are summarized in the
    stats blocks for comparison; the chosen strategy decides the retained
    flags. Under per-source ranking, passthrough sources keep everything
    regardless of strategy; with per_source false they do nothing.
    A ranking group whose documents differ in segment count is logged as
    a warning. A doc id on two rows, scored, excluded or failed, raises
    ConfigError.
    """
    if not reports:
        raise ConfigError("no scored documents to rank")
    if not (0.0 < fraction <= 1.0):
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    if strategy not in STRATEGIES:
        raise ConfigError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    seen: set[str] = set()
    unscored_ids = (o.doc_id for o in outcomes if o.status != "scored")
    for doc_id in chain((r.doc_id for r in reports), unscored_ids):
        if doc_id in seen:
            raise ConfigError(f"document {doc_id!r} is listed on more than one row")
        seen.add(doc_id)
    hashes = {r.config_hash for r in reports}
    if len(hashes) > 1:
        raise ConfigError(f"reports span {len(hashes)} config hashes; scores incomparable")
    config_hash = next(iter(hashes))

    groups: dict[str, list[ScoreReport]] = {}
    for report in reports:
        source = report.source if per_source else "all"
        groups.setdefault(source, []).append(report)

    entries: list[dict] = []
    pooled: dict[str, list[float]] = {"full": [], "prolong": [], "random": []}
    for source in sorted(groups):
        group = groups[source]
        n_segments = sorted({r.n_segments for r in group})
        if len(n_segments) > 1:
            logger.warning(
                "ranking group %r mixes documents of %s segments; LDS sums a pair set "
                "that grows with N squared, so their scores do not compare",
                source, n_segments,
            )
        ranked = sorted(((r.doc_id, r.lds) for r in group), key=lambda t: (-t[1], t[0]))
        source_fraction = 1.0 if source in passthrough_sources else fraction
        if strategy == "full":
            source_fraction = 1.0
        # The decimal the fraction was written as, so that 0.07 of 100 is 7,
        # not the 8 that the float product 7.000000000000001 rounds up to.
        n_keep = math.ceil(Fraction(repr(source_fraction)) * len(ranked))

        prolong_ids = {doc_id for doc_id, _ in ranked[:n_keep]}
        random_ids = _random_member_ids(ranked, n_keep, seed, source)
        arm_members = {
            "full": {doc_id for doc_id, _ in ranked},
            "prolong": prolong_ids,
            "random": random_ids,
        }
        kept = arm_members["full" if source_fraction >= 1.0 else strategy]

        stats = {}
        for arm, members in arm_members.items():
            values = [lds_value for doc_id, lds_value in ranked if doc_id in members]
            stats[arm] = _arm_stats(values)
            pooled[arm].extend(values)
        entries.append(
            {
                "source": source,
                "retention_fraction": source_fraction,
                "documents": [
                    {"doc_id": doc_id, "lds": lds_value, "rank": rank, "retained": doc_id in kept}
                    for rank, (doc_id, lds_value) in enumerate(ranked)
                ],
                "stats": stats,
            }
        )

    def unscored(status: str) -> list[dict]:
        return [
            {"doc_id": o.doc_id, "source": o.source, "reason": o.reason}
            for o in outcomes
            if o.status == status
        ]

    run_id = fingerprint(
        {
            "strategy": strategy,
            "fraction": fraction,
            "seed": seed,
            "per_source": per_source,
            "config_hash": config_hash,
            "doc_ids": sorted(r.doc_id for r in reports),
        }
    )[:16]
    return {
        "run_id": run_id,
        "strategy": strategy,
        "fraction": fraction,
        "seed": seed,
        "per_source": per_source,
        "config_hash": config_hash,
        "sources": entries,
        "excluded": unscored("excluded"),
        "failed": unscored("failed"),
        "stats": {arm: _arm_stats(values) for arm, values in pooled.items()},
    }

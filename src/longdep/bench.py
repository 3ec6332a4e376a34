"""Synthetic long-dependency test sets and the accuracy/throughput bench.

Positive documents plant cross-segment structure an order-n scorer can
detect at segment boundaries: an early segment ends with a bigram that,
in this document's own phrasing, strongly predicts the opening tokens of
a much later segment. Negative documents are either concatenations of
independent short texts (local structure only, at segment scale) or
locally coherent random walks (statistics repeat everywhere, so no
source segment is specifically informative).

Every generated document has exactly n_segments * segment_len tokens,
so length never leaks the label.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .corpus import Document
from .errors import BackendError, ConfigError
from .lds import LdsConfig, derive_seed
from .pipeline import reports_only, score_corpus

POSITIVE_KINDS = ("planted-key", "entity-chain")
NEGATIVE_KINDS = ("concat-shorts", "local-markov")

# Background vocabulary size, and the bounds of a document's link count.
BACKGROUND_VOCAB = 200
MIN_LINKS, MAX_LINKS = 4, 12

# The background words by draw, so a draw becomes a word without a
# per-token format.
_BACKGROUND_WORDS = np.array([f"w{v:03d}" for v in range(BACKGROUND_VOCAB)], dtype=object)


@dataclass(frozen=True)
class SynthSpec:
    n_positive: int = 100
    n_negative: int = 100
    n_segments: int = 256
    segment_len: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.n_positive < 1 or self.n_negative < 1:
            raise ConfigError("need at least one positive and one negative document")
        if self.n_segments < 8:
            raise ConfigError("n_segments must be >= 8")
        if self.segment_len < 8:
            raise ConfigError("segment_len must be >= 8")

    @property
    def doc_token_len(self) -> int:
        return self.n_segments * self.segment_len


@dataclass(frozen=True)
class TestSet:
    spec: SynthSpec
    docs: tuple[Document, ...]
    labels: dict[str, int] = field(repr=False)
    links: frozenset = field(repr=False)

    @property
    def n_positive(self) -> int:
        return sum(self.labels.values())


def _background(rng: np.random.Generator, n: int) -> list[str]:
    return _BACKGROUND_WORDS[rng.integers(0, BACKGROUND_VOCAB, size=n)].tolist()


def _place_copies(
    tokens: list[str],
    phrase: Sequence[str],
    n_copies: int,
    rng: np.random.Generator,
    reserved: list[tuple[int, int]],
) -> None:
    """Scatter training-support copies of a phrase, avoiding any span
    already claimed by a planted boundary cell or another copy."""
    size = len(phrase)
    limit = len(tokens) - size
    for _ in range(n_copies):
        for _attempt in range(64):
            start = int(rng.integers(0, limit))
            span = (start, start + size)
            if all(span[1] <= lo or span[0] >= hi for lo, hi in reserved):
                tokens[span[0] : span[1]] = list(phrase)
                reserved.append(span)
                break


def _link_layout(
    spec: SynthSpec, rng: np.random.Generator
) -> list[tuple[list[int], list[int]]]:
    """(early segments, late segments) groups per link.

    A link is one recurring theme: its phrase closes several segments in
    the document's first quarter and reopens several segments in the
    second half, so many far (target, source) pairs carry the same
    dependency. Every segment can host only one planted cell, so the
    early and late slots are dealt out among the links without
    collision. How much of each region is used varies per document,
    which spreads the resulting scores instead of clustering them.
    """
    n = spec.n_segments
    n_links = int(rng.integers(MIN_LINKS, MAX_LINKS + 1))
    early_slots = rng.permutation(np.arange(0, n // 4))
    late_slots = rng.permutation(np.arange(n // 2, n))
    n_links = min(n_links, len(early_slots), len(late_slots))
    n_early = int(rng.integers(n_links, len(early_slots) + 1))
    n_late = int(rng.integers(n_links, len(late_slots) + 1))
    earlies: list[list[int]] = [[] for _ in range(n_links)]
    lates: list[list[int]] = [[] for _ in range(n_links)]
    for idx in range(n_early):
        earlies[idx % n_links].append(int(early_slots[idx]))
    for idx in range(n_late):
        lates[idx % n_links].append(int(late_slots[idx]))
    return [(sorted(e), sorted(l)) for e, l in zip(earlies, lates)]


def _key_cells(doc_id: str, link: int):
    """Several early segments end with (k1, k2); several far segments
    begin with (k3, k4); scattered copies of the four-token phrase give
    the scorer training support for P(k3 | k1, k2)."""
    k1, k2, k3, k4 = (f"{doc_id}k{link}{s}" for s in "abcd")
    return [k1, k2], [k3, k4], [k1, k2, k3, k4], 4


def _chain_cells(doc_id: str, link: int):
    """A cycling three-token mention (a b c a b c ...) runs through
    several early segments, each breaking off mid-cycle; several far
    segments resume the cycle, so context supplies exactly the missing
    continuation."""
    ea, eb, ec = (f"{doc_id}e{link}{s}" for s in "abc")
    return [ea, eb, ec, ea, eb, ec, ea, eb], [ec, ea, eb, ec], [ea, eb, ec, ea, eb, ec], 2


def _gen_planted(
    cells: Callable, doc_id: str, spec: SynthSpec, rng: np.random.Generator, links: set, pool: list
) -> list[str]:
    """Plant each link of ``_link_layout`` in a background: ``cells(doc_id,
    link)`` gives its tail cell, which closes the link's early segments,
    its head cell, which opens its late ones, and the phrase and count of
    its scattered copies. The link is the tail's closing bigram and the
    head's opening token."""
    L = spec.segment_len
    tokens = _background(rng, spec.doc_token_len)
    reserved: list[tuple[int, int]] = []
    for li, (earlies, lates) in enumerate(_link_layout(spec, rng)):
        tail, head, phrase, n_copies = cells(doc_id, li)
        for start in (late * L for late in lates):
            tokens[start : start + len(head)] = head
            reserved.append((start, start + len(head)))
        for start in ((early + 1) * L - len(tail) for early in earlies):
            tokens[start : start + len(tail)] = tail
            reserved.append((start, start + len(tail)))
        _place_copies(tokens, phrase, n_copies, rng, reserved)
        links.add(((tail[-2], tail[-1]), head[0]))
    return tokens


def _short_pool(spec: SynthSpec) -> list[list[str]]:
    # Sized so a without-replacement draw always covers one document.
    rng = np.random.Generator(np.random.PCG64(derive_seed(spec.seed, "short-pool")))
    L = spec.segment_len
    pool = []
    for _ in range(max(200, spec.n_segments * 2)):
        length = int(rng.integers((3 * L) // 2, 3 * L + 1))
        pool.append(_background(rng, length))
    return pool


def _gen_concat_shorts(
    doc_id: str, spec: SynthSpec, rng: np.random.Generator, links: set, pool: list[list[str]]
) -> list[str]:
    """Independent short texts glued together. Each document draws its
    shorts without replacement, so nothing recurs at long range and only
    near-diagonal segment pairs relate."""
    size = spec.doc_token_len
    order = rng.permutation(len(pool))
    tokens: list[str] = []
    for ix in order:
        if len(tokens) >= size:
            break
        tokens.extend(pool[int(ix)])
    return tokens[:size]


def _gen_local_markov(
    doc_id: str, spec: SynthSpec, rng: np.random.Generator, links: set, pool: list
) -> list[str]:
    """A sticky random walk over a narrow vocabulary window that drifts
    steadily along the document: adjacent segments overlap in wording,
    anything further apart shares none, so the text is locally coherent
    yet offers a far-away context nothing to predict."""
    window = 8
    size = spec.doc_token_len
    # The window advances one full width every two segments, so only
    # neighbouring segments share vocabulary.
    span = max(window, (size * window) // (2 * spec.segment_len))
    sticky = rng.random(size) < 0.6
    steps = rng.integers(1, 4, size=size) * rng.choice((-1, 1), size=size)
    offset = int(rng.integers(0, window))
    # Token i moves the window offset by steps[i] unless it is sticky.
    offsets = (offset + np.cumsum(np.where(sticky, 0, steps))) % window
    words = np.array([f"m{v:04d}" for v in range(span + window)], dtype=object)
    return words[np.arange(size) * span // size + offsets].tolist()


def repeated_token_document(doc_id: str, n_tokens: int) -> Document:
    """The degenerate pathology fixture: one token repeated throughout."""
    return Document(id=doc_id, source="repeated", text="", tokens=("r",) * n_tokens)


# Every generator takes (doc_id, spec, rng, links, pool) and returns the
# document's tokens: it adds the links it plants to ``links`` and may draw
# its shorts from ``pool``.
_GENERATORS = {
    "planted-key": functools.partial(_gen_planted, _key_cells),
    "entity-chain": functools.partial(_gen_planted, _chain_cells),
    "concat-shorts": _gen_concat_shorts,
    "local-markov": _gen_local_markov,
}


def generate_testset(
    spec: SynthSpec,
    positive_kinds: Sequence[str] = POSITIVE_KINDS,
    negative_kinds: Sequence[str] = NEGATIVE_KINDS,
) -> TestSet:
    """Deterministic labeled corpus; same spec and kinds, same bytes.

    Kinds cycle over the given sequences, so restricting a sequence to a
    single entry yields a homogeneous arm. Each arm takes only its own
    kinds (POSITIVE_KINDS, NEGATIVE_KINDS)."""
    arms = (
        ("pos", 1, spec.n_positive, positive_kinds, POSITIVE_KINDS),
        ("neg", 0, spec.n_negative, negative_kinds, NEGATIVE_KINDS),
    )
    for prefix, _, _, kinds, allowed in arms:
        if not kinds or any(kind not in allowed for kind in kinds):
            raise ValueError(f"{prefix} arm kinds must be drawn from {allowed}, got {tuple(kinds)}")
    docs: list[Document] = []
    labels: dict[str, int] = {}
    links: set = set()
    pool = _short_pool(spec)
    for prefix, label, count, kinds, _ in arms:
        for i in range(count):
            doc_id = f"{prefix}-{i:04d}"
            rng = np.random.Generator(np.random.PCG64(derive_seed(spec.seed, doc_id)))
            kind = kinds[i % len(kinds)]
            tokens = _GENERATORS[kind](doc_id, spec, rng, links, pool)
            docs.append(Document(id=doc_id, source=kind, text="", tokens=tuple(tokens)))
            labels[doc_id] = label
    return TestSet(spec=spec, docs=tuple(docs), labels=labels, links=frozenset(links))


# Per-token log-probabilities of OracleBackend: a target its context
# predicts, and any other.
ORACLE_BOOST_LOGPROB = -0.5
ORACLE_BASE_LOGPROB = -2.0


class OracleBackend:
    """Label-reading upper bound: scores a conditional pair well exactly
    when the context's closing bigram is registered as predicting the
    target's opening token. Calibrates the bench's accuracy ceiling."""

    def __init__(self, links: frozenset):
        self.links = links

    def score(self, target, context=None):
        n = len(target)
        if context and len(context) >= 2 and ((context[-2], context[-1]), target[0]) in self.links:
            return (n * ORACLE_BOOST_LOGPROB, n)
        return (n * ORACLE_BASE_LOGPROB, n)


# -- bench ----------------------------------------------------------------


@dataclass(frozen=True)
class BenchResult:
    backend: str
    sample_size: int
    n_docs: int
    docs_per_second: float
    accuracy_at_k: float | None
    status: str = "ok"
    error: str | None = None


def accuracy_at_k(reports, labels: dict[str, int], k: int | None = None) -> float:
    """Fraction of positives in the top-k by score, k defaulting to the
    number of positives. Sort is deterministic: score desc, id asc."""
    if k is None:
        k = sum(labels.values())
    if k < 1:
        raise ValueError("k must be >= 1")
    ranked = sorted(reports, key=lambda r: (-r.lds, r.doc_id))
    top = ranked[:k]
    return sum(labels.get(r.doc_id, 0) for r in top) / k


def cell_config(spec: SynthSpec, base_cfg: LdsConfig) -> LdsConfig:
    """What every bench cell scores under but its T: ``base_cfg`` in
    sampled mode, with the segment geometry of ``spec``."""
    return base_cfg.replace(
        segment_len=spec.segment_len, truncate_len=spec.doc_token_len, mode="sampled"
    )


def run_bench(
    testset: TestSet,
    backends: Sequence[tuple[str, Callable[[], object]]],
    sample_sizes: Sequence[int],
    base_cfg: LdsConfig | None = None,
) -> list[BenchResult]:
    """One cell per (backend, T): score every document in sampled mode,
    rank, and measure accuracy plus scoring throughput. Each cell scores
    under ``cell_config`` of ``base_cfg`` (``LdsConfig()`` if not given).

    Cells run sequentially so timings do not contend; each cell builds a
    fresh backend so no memo carries over, and closes it (if it has a
    ``close``) when done. A failing cell is recorded and the remaining
    cells proceed.
    """
    shared = cell_config(testset.spec, base_cfg or LdsConfig())
    results: list[BenchResult] = []
    for label, factory in backends:
        for t in sample_sizes:
            cfg = shared.replace(sample_size=t)
            backend = None
            n_docs, docs_per_second, acc, error = 0, 0.0, None, None
            try:
                backend = factory()
                start = time.perf_counter()
                outcomes = list(score_corpus(testset.docs, backend, cfg))
                wall = time.perf_counter() - start
                reports = reports_only(outcomes)
                if not reports:
                    raise BackendError("no documents scored")
                acc = accuracy_at_k(reports, testset.labels)
                n_docs = len(reports)
                docs_per_second = n_docs / wall if wall > 0 else float("inf")
            except BackendError as exc:
                error = str(exc)
            finally:
                close = getattr(backend, "close", None)
                if close is not None:
                    close()
            status = "ok" if error is None else "failed"
            results.append(BenchResult(label, t, n_docs, docs_per_second, acc, status, error))
    return results


def bench_csv(results: Sequence[BenchResult]) -> str:
    lines = ["T,backend,docs_per_s,accuracy_at_k,status"]
    for r in results:
        acc = "" if r.accuracy_at_k is None else f"{r.accuracy_at_k:.4f}"
        lines.append(f"{r.sample_size},{r.backend},{r.docs_per_second:.4f},{acc},{r.status}")
    return "\n".join(lines) + "\n"


def bench_table(results: Sequence[BenchResult]) -> str:
    header = f"{'T':>8}  {'backend':<16} {'docs/s':>10} {'accuracy':>9}  status"
    lines = [header, "-" * len(header)]
    for r in results:
        acc = "-" if r.accuracy_at_k is None else f"{r.accuracy_at_k:.3f}"
        lines.append(
            f"{r.sample_size:>8}  {r.backend:<16} {r.docs_per_second:>10.3f} {acc:>9}  {r.status}"
        )
    return "\n".join(lines) + "\n"
